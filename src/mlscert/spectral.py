"""Operator-level diagnostics of the local least-squares fit.

The coefficient vector can be written a = A0 c with a coefficient map A0
depending only on the nodes, the basis and the weights.  Composing with the
design matrix gives the square operator P = A0 E^T (the transpose of the
weighted least-squares hat matrix, an oblique projector) and its signed
complement P - I.  This module materializes those operators and certifies
their structure numerically:

* P D^{-1} and (P - I) D^{-1} are symmetric; the first is PSD, the second NSD;
* the spectrum of P is {1, 0} with multiplicities (l, m - l);
* lambda_max(P D^{-1}) <= 1 / lambda_min(D), and the singular-value chain
  1 <= smax(P) <= sqrt(smax(D) / smin(D)), proved in ``_norm_bounds``;
* classical singular-value product inequalities and eigenvalue-product
  sandwich bounds for symmetric pairs with a PSD factor, which the norm
  chain rests on.

Every check returns residuals and slacks rather than booleans alone, so a
report is auditable after the fact.  The checks run on stacks, one stacked
LAPACK or BLAS call per check: ``diagnose_stack`` takes systems of one node
count m, one stack per m for the (m, m) checks; per (m, l) for the
coefficient maps.  ``eig_product_stack`` takes matrix pairs of one size,
and ``sv_product_reports`` pairs of mixed shapes, one stacked call per
check and shape.  Those calls run per matrix, so the single-system entries
are the one-row cases and agree bit for bit.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Tolerances
from .core import MlsError, MlsSystem, _block_rows, _by_shape, _stack, _replayed, rank_tolerance

__all__ = [
    "OperatorBundle",
    "coef_map_stack",
    "build_operators",
    "check_sv_products",
    "sv_product_reports",
    "check_eig_products",
    "eig_product_stack",
    "diagnose",
    "diagnose_each",
    "diagnose_stack",
]

@dataclass(frozen=True)
class OperatorBundle:
    """Materialized operators of one assembled system.

    ``coef_map``   (m, l)  maps basis values at x to fitted coefficients
    ``proj``       (m, m)  coef_map @ design.T, an oblique projector
    ``comp``       (m, m)  proj - I
    ``proj_dinv``  (m, m)  proj scaled by the inverse weight diagonal
    ``comp_dinv``  (m, m)  comp scaled by the inverse weight diagonal
    ``system``             the source system
    """

    coef_map: np.ndarray
    proj: np.ndarray
    comp: np.ndarray
    proj_dinv: np.ndarray
    comp_dinv: np.ndarray
    system: MlsSystem


def coef_map_stack(qmats, rmats, roots):
    """Coefficient maps Q R^{-T} / sqrt(d), (k, m, l), of a block of k
    systems: ``qmats`` (k, m, l) and ``rmats`` (k, l, l) are the QR factors
    of the scaled designs, ``roots`` (k, m) the square roots of their
    weight diagonals.  Each map is computed as on its own (stacked LAPACK
    and BLAS calls run per matrix)."""
    l = rmats.shape[-1]
    # one triangular solve per column of the identity
    coef_map = qmats @ np.linalg.solve(rmats.transpose(0, 2, 1), np.eye(l))
    coef_map /= roots[:, :, None]
    return coef_map


def _t(stack: np.ndarray) -> np.ndarray:
    """Transpose of every matrix of a stack (of a single matrix too)."""
    return np.swapaxes(stack, -1, -2)


def _smax(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of a (k, r, c) stack, or of
    one matrix: the LAPACK SVD of ``np.linalg.norm(., 2)``, bit for bit."""
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


class _Ops(NamedTuple):
    """Operators of k systems of one node count m, stacked on axis 0."""

    coef_maps: list  # (k_l, m, l) per basis size l, in order of first appearance
    proj: np.ndarray  # (k, m, m)
    comp: np.ndarray  # (k, m, m)
    proj_dinv: np.ndarray  # (k, m, m)
    comp_dinv: np.ndarray  # (k, m, m)
    qqt: np.ndarray  # (k, m, m) Q Q^T, Q the QR factor of the scaled design
    dvecs: np.ndarray  # (k, m) weight diagonals
    ls: np.ndarray  # (k,) basis sizes


class _NoOperators(MlsError, ValueError):
    """The weight-scaled operators of a system do not exist: malformed
    input (exit 2), whose point the caller names like a fitting error's."""


def _operators(systems) -> _Ops:
    """The operators of systems of one node count m: the (m, l) work, the
    coefficient maps and their products P and Q Q^T, runs once per basis
    size l, and its (m, m) results are joined back in the systems' order."""
    if any(s.at_node is not None or s.qmat is None for s in systems):
        raise _NoOperators("operators require x off the nodes for interpolating weights")
    dvecs = _stack(systems, "dvec")
    k, m = dvecs.shape
    ls = [s.l for s in systems]
    coef_maps = []
    proj, qqt = np.empty((k, m, m)), np.empty((k, m, m))
    for idx in _by_shape(ls):
        group = [systems[i] for i in idx]
        qmats = _stack(group, "qmat")
        coef_map = coef_map_stack(qmats, _stack(group, "rmat"), np.sqrt(dvecs[idx]))
        # against a C-ordered E^T: the transposed view takes a slower matmul
        # loop, with the same bits
        proj[idx] = coef_map @ np.ascontiguousarray(_t(_stack(group, "design")))
        qqt[idx] = qmats @ _t(qmats)
        coef_maps.append(coef_map)
    comp = proj - np.eye(m)
    # refused here, before an SVD meets an inf or NaN entry
    with np.errstate(all="ignore"):
        proj_dinv, comp_dinv = proj / dvecs[:, None, :], comp / dvecs[:, None, :]
    finite = np.isfinite(proj_dinv).all(axis=(1, 2)) & np.isfinite(comp_dinv).all(axis=(1, 2))
    if not finite.all():
        dmin = np.min(dvecs[np.argmin(finite)])
        raise _NoOperators(f"weight-scaled operators are not finite: smallest weight "
                           f"diagonal entry {dmin:.3e}")
    return _Ops(coef_maps, proj, comp, proj_dinv, comp_dinv, qqt, dvecs, np.array(ls))


def _row(tree, i: int):
    """Entry i of a report tree whose arrays stack k systems on axis 0, in
    plain Python types; everything that is not an array is shared."""
    kind = type(tree)  # exact types: a report tree holds no subclasses
    if kind is np.ndarray:
        return tree[i].tolist()
    if kind is dict:
        return {key: _row(val, i) for key, val in tree.items()}
    if kind is list:
        return [_row(val, i) for val in tree]
    return tree


def build_operators(system: MlsSystem) -> OperatorBundle:
    """Materialize the coefficient map, the projector and its scaled forms.

    The one-system case of the operators of ``diagnose_stack``.  Requires
    a strictly positive weight diagonal: at an interpolation-limit point (x
    on a node of an interpolating weight family) the scaled operators do
    not exist.  Raises ``ValueError`` there, and also when the operators
    scaled by the inverse weight diagonal are not finite (a subnormal
    diagonal overflows them).
    """
    ops = _operators([system])
    return OperatorBundle(ops.coef_maps[0][0], *(a[0] for a in ops[1:5]), system=system)


def _symmetry(ops: _Ops, smax_proj_dinv) -> dict:
    """Relative asymmetry of the two weight-scaled operators (both should
    vanish: the scaled projector is self-adjoint).

    Both residuals are measured against the size of the larger operator.
    A per-matrix scale would be meaningless for square systems, where the
    complement is exactly zero in exact arithmetic and the computed matrix
    is pure roundoff.  ``smax_proj_dinv`` is the norm chain's value.
    """
    scale = np.maximum(
        np.maximum(smax_proj_dinv, _smax(ops.comp_dinv)), np.finfo(float).tiny
    )
    return {
        "proj_dinv": _smax(ops.proj_dinv - _t(ops.proj_dinv)) / scale,
        "comp_dinv": _smax(ops.comp_dinv - _t(ops.comp_dinv)) / scale,
    }


def _cluster(evals: np.ndarray, centers: tuple, expected: np.ndarray) -> dict:
    cvec = np.asarray(centers)
    idx = np.argmin(np.abs(evals[..., None] - cvec), axis=-1)
    return {
        "centers": list(centers),
        "counts": np.sum(idx[..., None] == np.arange(len(cvec)), axis=-2),
        "expected_counts": expected,
        "max_dev": np.max(np.abs(evals - cvec[idx]), axis=-1),
        "eigenvalues": np.sort(evals, axis=-1)[..., ::-1],
    }


def _eigen(ops: _Ops, tol: Tolerances) -> dict:
    """Eigenvalue clusters of the projector and its complement.

    The projector's spectrum is computed from its symmetric similarity
    transform (the orthogonal projector Q Q^T assembled from the QR
    factor), so a symmetric solver does the work; the complement's
    spectrum is the same shifted by -1.  Counts are checked against
    (l, m - l), l each system's own basis size, and any eigenvalue further
    than ``tol.cluster_fail`` from its nearest center raises the
    structural-failure flag.
    """
    m = ops.qqt.shape[-1]
    expected = np.stack([ops.ls, m - ops.ls], axis=-1)
    evals = np.linalg.eigvalsh(ops.qqt)
    proj = _cluster(evals, (1.0, 0.0), expected)
    comp = _cluster(evals - 1.0, (0.0, -1.0), expected)
    return {
        "proj": proj,
        "comp": comp,
        "structural_failure": np.maximum(proj["max_dev"], comp["max_dev"])
        > tol.cluster_fail,
        "counts_ok": np.all(proj["counts"] == expected, axis=-1)
        & np.all(comp["counts"] == expected, axis=-1),
    }


def _psd(ops: _Ops, tol: Tolerances) -> dict:
    """Minimum eigenvalues of the symmetrized scaled operators.

    ``proj_dinv`` should be PSD and ``-comp_dinv`` too; margins are measured
    against ``-tol.psd`` times the norm of the inverse scaling diagonal.
    """
    scale = 1.0 / np.min(ops.dvecs, axis=-1)
    ev_p = np.linalg.eigvalsh(0.5 * (ops.proj_dinv + _t(ops.proj_dinv)))
    ev_c = np.linalg.eigvalsh(-(0.5 * (ops.comp_dinv + _t(ops.comp_dinv))))
    lmax = ev_p[:, -1]
    return {
        "proj_dinv_min_eig": ev_p[:, 0],
        "neg_comp_dinv_min_eig": ev_c[:, 0],
        "scale": scale,
        "lmax_proj_dinv": lmax,
        "lmax_bound": scale,
        "lmax_slack": scale - lmax,
        "pass": (ev_p[:, 0] >= -tol.psd * scale)
        & (ev_c[:, 0] >= -tol.psd * scale)
        & (lmax <= scale + tol.ineq * scale),
    }


def _ineq(name, lhs, rhs, scale, tol) -> dict:
    """One inequality lhs <= rhs, with a slack and a scaled verdict; the
    operands are floats or arrays over a stack of systems."""
    return {
        "name": name,
        "lhs": lhs,
        "rhs": rhs,
        "slack": rhs - lhs,
        "scale": scale,
        "pass": lhs <= rhs + tol * scale,
    }


def _norm_bounds(ops: _Ops, tol: Tolerances) -> dict:
    """Singular-value norm chain on the materialized operators.

    The two-sided chain is 1 <= ||P|| <= sqrt(cond D), the spectral norm
    being the largest singular value: P is a projector, and
    P = D^{-1/2} Pi D^{1/2} with Pi the orthogonal projector onto
    range(D^{-1/2} E), so ||P|| <= ||D^{-1/2}|| ||D^{1/2}|| = sqrt(cond D).
    """
    dmin = np.min(ops.dvecs, axis=-1)
    dmax = np.max(ops.dvecs, axis=-1)
    smax_proj = _smax(ops.proj)
    smax_proj_dinv = _smax(ops.proj_dinv)
    cond_d = dmax / dmin
    sqrt_cond_d = np.sqrt(cond_d)
    checks = [
        _ineq("proj_dinv_smax_le_inv_dmin", smax_proj_dinv, 1.0 / dmin,
              scale=1.0 / dmin, tol=tol.ineq),
        _ineq("proj_smax_times_smin_dinv_le_smax_proj_dinv",
              smax_proj * (1.0 / dmax), smax_proj_dinv,
              scale=np.maximum(smax_proj_dinv, 1.0 / dmax), tol=tol.ineq),
        _ineq("one_le_proj_smax", 1.0, smax_proj, scale=1.0, tol=tol.norm_chain),
        _ineq("proj_smax_le_sqrt_cond_d", smax_proj, sqrt_cond_d,
              scale=sqrt_cond_d, tol=tol.norm_chain),
    ]
    return {
        "checks": checks,
        "smax_proj": smax_proj,
        "smax_proj_dinv": smax_proj_dinv,
        "cond_d": cond_d,
        "pass": np.all([c["pass"] for c in checks], axis=0),
    }


def check_sv_products(U, V, tol: Tolerances = Tolerances()) -> dict:
    """Singular-value product inequalities for a matrix pair.

    With U of shape (d1, d2) and V of shape (d3, d4), d2 = d3 required:

    * smax(UV) <= smax(U) smax(V)                  (always)
    * smax(U^{-1}) smin(U) = 1                      (square nonsingular U)
    * smin(U) smax(V) <= smax(UV)                   (when d1 >= d2)
    * smax(U) smin(V) <= smax(UV)                   (when d4 >= d3)
    * for symmetric U: smax(U) = max |eig| and the singular values equal the
      absolute eigenvalues

    Inapplicable entries are reported with ``applicable: False`` rather than
    silently skipped.  The one-pair case of ``sv_product_reports``.
    """
    return next(sv_product_reports([(U, V)], tol))


def _pair(U, V) -> tuple:
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.ndim != 2 or V.ndim != 2:
        raise ValueError("U and V must be 2-D matrices")
    (d1, d2), (d3, d4) = U.shape, V.shape
    if d2 != d3:
        raise ValueError(
            f"inner dimensions must agree: U is {d1}x{d2}, V is {d3}x{d4}"
        )
    return U, V


def _svals(mats, idx, invert: bool = False) -> dict:
    """Singular values, descending, of mats[i] (of its inverse, with
    ``invert``) for each i of ``idx``, by i: one stacked call per shape."""
    out = {}
    for group in _by_shape([mat.shape for mat in mats], idx):
        stack = np.stack([mats[i] for i in group])
        if invert:
            stack = np.linalg.inv(stack)
        out.update(zip(group, np.linalg.svd(stack, compute_uv=False)))
    return out


def _symmetric_residuals(mats, svals, idx) -> dict:
    """For each square mats[i], i of ``idx``: None unless it equals its
    transpose to within 1e-12 max(1, smax) per entry, as ``np.allclose``
    decides it, and otherwise the largest gap between its absolute
    eigenvalues and its singular values ``svals[i]``, both descending.
    One stacked call per check and shape."""
    out = {}
    for group in _by_shape([mat.shape for mat in mats], idx):
        stack = np.stack([mats[i] for i in group])
        atol = np.array([1e-12 * max(1.0, float(svals[i][0])) for i in group])
        close = np.isclose(stack, _t(stack), rtol=0.0, atol=atol[:, None, None])
        sym = close.all(axis=(1, 2))
        out.update((i, None) for i in group)
        if sym.any():
            hits = [i for i, hit in zip(group, sym) if hit]
            ev = np.sort(np.abs(np.linalg.eigvalsh(stack[sym])), axis=-1)[:, ::-1]
            resid = np.max(np.abs(ev - np.stack([svals[i] for i in hits])), axis=-1)
            out.update(zip(hits, resid.tolist()))
    return out


def sv_product_reports(pairs, tol: Tolerances = Tolerances()):
    """``check_sv_products`` of each matrix pair (U, V) of ``pairs``, with
    the pairs' shapes mixed: an iterator over the reports, in order.

    The singular values of every U, V and UV, and of the inverse of every
    square nonsingular U, are taken in one stacked SVD per operand shape,
    the inverses in one stacked call per size, and the symmetry test and
    eigenvalues of the square U in one stacked call per size, all before
    this returns.  Stacked LAPACK calls run per matrix, so each pair's
    report is that pair's own, bit for bit; a report is assembled only as
    it is read, so they are not all alive at once.  The first invalid pair
    raises what ``check_sv_products`` raises for it, before any pair is
    checked.
    """
    checked = [_pair(U, V) for U, V in pairs]
    us, vs = [u for u, _ in checked], [v for _, v in checked]
    idx = range(len(checked))
    su, sv, sp = (_svals(mats, idx) for mats in (us, vs, [u @ v for u, v in checked]))
    square = [i for i in idx if us[i].shape[0] == us[i].shape[1]]
    invertible = [
        i for i in square if su[i][-1] > rank_tolerance(*us[i].shape, su[i][0])
    ]
    s_inv = _svals(us, invertible, invert=True)
    sym_resid = _symmetric_residuals(us, su, square)
    shapes = [(u.shape, v.shape) for u, v in checked]
    return (
        _sv_report(*shapes[i], su[i], sv[i], sp[i], s_inv.get(i), sym_resid.get(i), tol)
        for i in idx
    )


def _sv_report(ushape, vshape, su, sv, sp, s_inv, sym_resid, tol) -> dict:
    """The ``check_sv_products`` report of one pair from its singular
    values: of U, V, UV and, for a square nonsingular U, of its inverse
    (None otherwise), and the residual of a symmetric U (None otherwise)."""
    (d1, d2), (d3, d4) = ushape, vshape
    smax_u, smin_u = float(su[0]), float(su[-1])
    smax_v, smin_v = float(sv[0]), float(sv[-1])
    smax_p = float(sp[0])
    scale = max(1.0, smax_u * smax_v)
    checks = [
        _ineq("smax_product_le_smax_times_smax", smax_p, smax_u * smax_v,
              scale=scale, tol=tol.ineq),
    ]

    inv_entry = {"name": "smax_inverse_equals_inv_smin", "applicable": False}
    if s_inv is not None:
        smax_inv = float(s_inv[0])
        resid = abs(smax_inv * smin_u - 1.0)
        inv_entry = {
            "name": "smax_inverse_equals_inv_smin",
            "applicable": True,
            "lhs": smax_inv,
            "rhs": 1.0 / smin_u,
            "residual": resid,
            # equality check: residual relative to 1, allow conditioning slack
            "pass": bool(resid <= 1e-9 * (smax_u / smin_u)),
        }
    checks.append(inv_entry)

    # the lower bounds on smax(UV), for a tall U and for a wide V
    for name, applies, lhs in (("smin_u_smax_v_le_smax_product", d1 >= d2, smin_u * smax_v),
                               ("smax_u_smin_v_le_smax_product", d4 >= d3, smax_u * smin_v)):
        entry = {"name": name, "applicable": applies}
        if applies:
            entry.update(_ineq(name, lhs, smax_p, scale=scale, tol=tol.ineq))
        checks.append(entry)

    herm = {"name": "symmetric_norm_is_abs_eigs", "applicable": False}
    if sym_resid is not None:
        herm = {
            "name": "symmetric_norm_is_abs_eigs",
            "applicable": True,
            "residual": sym_resid,
            "pass": bool(sym_resid <= 1e-10 * max(1.0, smax_u)),
        }
    checks.append(herm)

    applicable = [c for c in checks if c.get("applicable", True)]
    return {
        "checks": checks,
        "pass": bool(all(c["pass"] for c in applicable)),
    }


def _symmetric_stack(mats, label: str) -> np.ndarray:
    """Symmetrized copy of a (k, m, m) stack; raises if any is not square
    or not symmetric."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"{label} must be square")
    norm = np.max(np.abs(mats), axis=(1, 2))
    norm[norm == 0] = 1.0
    if np.any(np.max(np.abs(mats - _t(mats)), axis=(1, 2)) > 1e-10 * norm):
        raise ValueError(f"{label} must be symmetric")
    return 0.5 * (mats + _t(mats))


def _first(values, better):
    """Elementwise min (``better=np.less``) or max (``np.greater``) of a
    list of arrays as Python's ``min`` or ``max`` picks it: a later value
    replaces the current one only when strictly better."""
    out = values[0]
    for val in values[1:]:
        out = np.where(better(val, out), val, out)
    return out


def _zero_tol(evals: np.ndarray) -> np.ndarray:
    m = evals.shape[-1]
    return m * np.maximum(1.0, np.max(np.abs(evals), axis=-1)) * np.finfo(float).eps * 64


def eig_product_stack(U, V, tol: Tolerances = Tolerances()) -> dict:
    """``check_eig_products`` on k symmetric pairs of one size m at once.

    ``U`` and ``V`` are (k, m, m) stacks; pair i is (U[i], V[i]).  Returns
    per-pair arrays on axis 0: ``swapped``, ``positive`` and ``negative``
    (the inertia of the factor in the U slot), ``product_eigenvalues``
    (k, m) in descending order, and per index k of the product spectrum
    (k, m) arrays ``regime``, ``lower``, ``upper``, ``excess`` and
    ``violated``; then ``max_violation``, the PD sandwich fields
    ``pd_applicable``, ``pd_upper``, ``pd_lower``, ``pd_excess`` and
    ``pd_pass``, and ``pass``.  Stacked LAPACK and BLAS calls run per
    matrix, and the bounds are taken with Python's min/max semantics, so
    pair i gives what ``check_eig_products`` gives for it, bit for bit.
    An invalid pair raises what ``check_eig_products`` raises; for a
    single pair, in the same order.
    """
    U = _symmetric_stack(U, "U")
    V = _symmetric_stack(V, "V")
    if U.shape != V.shape:
        raise ValueError("U and V must have equal shape")
    m = U.shape[-1]

    lu = np.sort(np.linalg.eigvalsh(U), axis=-1)[:, ::-1]
    lv = np.sort(np.linalg.eigvalsh(V), axis=-1)[:, ::-1]
    mag = np.maximum(1.0, np.max(np.abs(lu), axis=-1)) * np.maximum(
        1.0, np.max(np.abs(lv), axis=-1)
    )
    u_psd = lu[:, -1] >= -_zero_tol(lu)
    v_psd = lv[:, -1] >= -_zero_tol(lv)
    if not np.all(u_psd | v_psd):
        raise ValueError("at least one factor must be positive semi-definite")
    # put the PSD factor into the congruence slot; spectrum of VU = UV
    swapped = ~v_psd
    flip = swapped[:, None, None]
    U, V = np.where(flip, V, U), np.where(flip, U, V)
    lu, lv = np.where(swapped[:, None], lv, lu), np.where(swapped[:, None], lu, lv)

    # eigenvalues of VU through the symmetric congruence V^{1/2} U V^{1/2}
    evals, evecs = np.linalg.eigh(V)
    diag = np.zeros_like(V)
    diag[:, range(m), range(m)] = np.sqrt(np.clip(evals, 0.0, None))
    root = evecs @ diag @ _t(evecs)
    lvu = np.sort(np.linalg.eigvalsh(root @ U @ root), axis=-1)[:, ::-1]

    ztol_u, ztol_v = _zero_tol(lu), _zero_tol(lv)
    pi = np.sum(lu > ztol_u[:, None], axis=-1)
    nu = np.sum(lu < -ztol_u[:, None], axis=-1)
    slack_tol = tol.ineq * np.maximum(1.0, mag)

    # prod[:, i, j] = lu[i] lv[j], 0-based; the bounds of index k (1-based)
    prod = lu[:, :, None] * lv[:, None, :]
    regime, lower, upper, excess = (np.empty_like(lu) for _ in range(4))
    worst = np.zeros(len(lu))
    for k in range(1, m + 1):
        head, tail = range(1, k + 1), range(k, m + 1)
        ub1 = _first([prod[:, i - 1, k - i] for i in head], np.less)
        lb1 = _first([prod[:, i - 1, m + k - i - 1] for i in tail], np.greater)
        ub3 = _first([prod[:, i - 1, m + i - k - 1] for i in head], np.less)
        lb3 = _first([prod[:, i - 1, i - k] for i in tail], np.greater)
        reg = np.where(k <= pi, 1, np.where(k <= m - nu, 2, 3))
        ub = np.where(reg == 1, ub1, np.where(reg == 2, 0.0, ub3))
        lb = np.where(reg == 1, lb1, np.where(reg == 2, 0.0, lb3))
        val = lvu[:, k - 1]
        over = _first([val - ub, lb - val], np.greater)
        worst = _first([worst, over], np.greater)
        regime[:, k - 1], lower[:, k - 1], upper[:, k - 1], excess[:, k - 1] = (
            reg, lb, ub, over
        )
    violated = excess > slack_tol[:, None]

    both_pd = (lu[:, -1] > ztol_u) & (lv[:, -1] > ztol_v)
    pd_upper = lu[:, 0] * lv[:, 0]
    pd_lower = lu[:, -1] * lv[:, -1]
    pd_excess = _first(
        [np.max(lvu, axis=-1) - pd_upper, pd_lower - np.min(lvu, axis=-1)], np.greater
    )
    worst = np.where(both_pd, _first([worst, pd_excess], np.greater), worst)
    pd_pass = pd_excess <= slack_tol
    return {
        "m": m,
        "swapped": swapped,
        "positive": pi,
        "negative": nu,
        "product_eigenvalues": lvu,
        "regime": regime.astype(int),
        "lower": lower,
        "upper": upper,
        "excess": excess,
        "violated": violated,
        "max_violation": worst,
        "pd_applicable": both_pd,
        "pd_upper": pd_upper,
        "pd_lower": pd_lower,
        "pd_excess": pd_excess,
        "pd_pass": pd_pass,
        "pass": ~violated.any(axis=-1) & (~both_pd | pd_pass),
    }


def check_eig_products(U, V, tol: Tolerances = Tolerances()) -> dict:
    """Eigenvalue-product sandwich bounds for a symmetric pair.

    For symmetric U, V with at least one PSD, the eigenvalues of the product
    VU (sorted descending, real by similarity to a symmetric matrix) are
    bracketed by min/max products of the factor eigenvalues in three index
    regimes driven by the inertia of U.  The congruence argument behind the
    bounds needs the PSD factor in the V slot; when only U is PSD the roles
    are swapped, which leaves the product spectrum unchanged.

    When both factors are PD the global sandwich
    lambda_1(U) lambda_1(V) >= lambda_k(VU) >= lambda_m(U) lambda_m(V)
    is verified as well.  The one-pair case of ``eig_product_stack``.
    """
    stack = eig_product_stack(
        np.asarray(U, dtype=float)[None], np.asarray(V, dtype=float)[None], tol
    )
    return _pair_report(stack, 0)


def _pair_report(stack: dict, i: int) -> dict:
    """The ``check_eig_products`` report of pair i of ``eig_product_stack``."""
    rep = _row(stack, i)
    m = rep["m"]
    violations = [
        {"regime": rep["regime"][k], "k": k + 1, "lower": rep["lower"][k],
         "value": rep["product_eigenvalues"][k], "upper": rep["upper"][k],
         "excess": rep["excess"][k]}
        for k in range(m)
        if rep["violated"][k]
    ]
    pd_sandwich = {"applicable": False}
    if rep["pd_applicable"]:
        pd_sandwich = {"applicable": True, "upper": rep["pd_upper"],
                       "lower": rep["pd_lower"], "max_excess": rep["pd_excess"],
                       "pass": rep["pd_pass"]}
    positive, negative = rep["positive"], rep["negative"]
    return {
        "m": m,
        "swapped": rep["swapped"],
        "inertia": {"positive": positive, "negative": negative,
                    "zero": m - positive - negative},
        "product_eigenvalues": rep["product_eigenvalues"],
        "max_violation": rep["max_violation"],
        "violations": violations,
        "pd_sandwich": pd_sandwich,
        "pass": rep["pass"],
    }


def diagnose_stack(systems, tol: Tolerances = Tolerances()) -> dict:
    """Run every operator check on k assembled systems of one node count
    m, with any basis sizes l.

    Returns the keys of a ``diagnose`` report but ``tolerances``, with
    every per-system value an array whose axis 0 runs over the systems
    (shared values, such as check names, are plain).  One stack
    per m for the (m, m) checks; per (m, l) for the coefficient maps: the
    maps, P and Q Q^T take one stacked call per basis size, every (m, m)
    check one stacked LAPACK or BLAS call for the whole stack, and the
    checks that read l (``trace_dev`` and the eigenvalue counts) take it
    per system.  Those calls run per matrix, so system i gets exactly what
    ``diagnose`` reports for it.  Raises ``ValueError`` if any system sits
    at an interpolation-limit node, where the scaled operators do not
    exist, or if its operators scaled by the inverse weight diagonal are
    not finite (a subnormal diagonal overflows them).
    """
    ops = _operators(systems)
    proj, ls = ops.proj, ops.ls
    norms = _norm_bounds(ops, tol)
    norm_p = norms["smax_proj"]
    idem = _smax(proj @ proj - proj) / np.where(norm_p != 0, norm_p, 1.0)
    trace_dev = np.abs(np.trace(proj, axis1=1, axis2=2) - ls) / np.maximum(1.0, ls)
    symmetry = _symmetry(ops, norms["smax_proj_dinv"])
    eigen = _eigen(ops, tol)
    psd = _psd(ops, tol)
    passed = (
        (symmetry["proj_dinv"] <= tol.symmetry)
        & (symmetry["comp_dinv"] <= tol.symmetry)
        & eigen["counts_ok"]
        & ~eigen["structural_failure"]
        & (np.maximum(eigen["proj"]["max_dev"], eigen["comp"]["max_dev"]) <= tol.eig_dev)
        & psd["pass"]
        & norms["pass"]
        & (idem <= tol.idem)
        & (trace_dev <= tol.lin)
    )
    return {
        "symmetry": symmetry,
        "eigen": eigen,
        "psd": psd,
        "norms": norms,
        "idempotence": idem,
        "trace_dev": trace_dev,
        "pass": passed,
    }


def diagnose_each(systems, tol: Tolerances = Tolerances()) -> list:
    """The ``diagnose`` report of each of the systems, all of one node
    count m, in order: ``diagnose_stack``'s row of the system, plus the
    ``tolerances`` it was checked at.

    The systems run through ``diagnose_stack`` in blocks of
    ``core._block_rows(m)``, so each (rows, m, m) operator stack holds at
    most ``core._BLOCK_DOUBLES`` doubles, whatever m: one stack per m for
    the (m, m) checks; per (m, l) for the coefficient maps.  The first failing system
    raises its own error, what ``diagnose`` raises for it
    (``core._replayed``).
    """
    size = _block_rows(systems[0].m) if systems else 1
    stacks = _replayed(lambda lo, hi: diagnose_stack(systems[lo:hi], tol), len(systems), size)
    return [{**_row(stack, i), "tolerances": tol.to_dict()}
            for _, stack in stacks for i in range(len(stack["pass"]))]


def diagnose(system: MlsSystem, tol: Tolerances = Tolerances()) -> dict:
    """Run every operator check on one assembled system: the one-system
    case of ``diagnose_each`` and ``diagnose_stack``.  The report is a
    plain dict, like those of the product checks; its ``pass`` is the
    conjunction of every check at ``tol``."""
    return diagnose_each([system], tol)[0]
