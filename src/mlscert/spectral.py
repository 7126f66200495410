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
  1 <= smax(P) <= smax(D) / smin(D);
* classical singular-value product inequalities and eigenvalue-product
  sandwich bounds for symmetric pairs with a PSD factor, which the norm
  chain rests on.

Every check returns residuals and slacks rather than booleans alone, so a
report is auditable after the fact.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import Tolerances
from .core import MlsSystem, rank_tolerance

__all__ = [
    "OperatorBundle",
    "SpectralReport",
    "operator_stack",
    "build_operators",
    "check_symmetry",
    "eigen_structure",
    "check_psd",
    "check_norm_bounds",
    "check_sv_products",
    "check_eig_products",
    "diagnose",
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

    @property
    def m(self) -> int:
        return self.proj.shape[0]

    @property
    def l(self) -> int:
        return self.coef_map.shape[1]


def operator_stack(qmats, rmats, roots, design):
    """Coefficient maps and projectors of a block of k systems.

    ``qmats`` (k, m, l) and ``rmats`` (k, l, l) are the QR factors of the
    scaled designs, ``roots`` (k, m) the square roots of their weight
    diagonals.  Returns ``coef_map`` (k, m, l) = Q R^{-T} / sqrt(d) and
    ``proj`` (k, m, m) = coef_map E^T, each system computed as on its own
    (stacked LAPACK and BLAS calls run per matrix); the complement is
    ``proj - I``.
    """
    l = rmats.shape[-1]
    # one triangular solve per column of the identity
    coef_map = qmats @ np.linalg.solve(rmats.transpose(0, 2, 1), np.eye(l))
    coef_map /= roots[:, :, None]
    return coef_map, coef_map @ design.T


def build_operators(system: MlsSystem) -> OperatorBundle:
    """Materialize the coefficient map, the projector and its scaled forms.

    The one-system case of ``operator_stack``.  Requires a strictly
    positive weight diagonal: at an interpolation-limit point (x on a node
    of an interpolating weight family) the scaled operators do not exist.
    """
    if system.at_node is not None or system.qmat is None:
        raise ValueError(
            "operators require x off the nodes for interpolating weights"
        )
    dvec = system.dvec
    coef_map, proj = operator_stack(
        system.qmat[None], system.rmat[None], np.sqrt(dvec)[None], system.design
    )
    coef_map, proj = coef_map[0], proj[0]
    comp = proj - np.eye(system.m)
    proj_dinv = proj / dvec[None, :]
    comp_dinv = comp / dvec[None, :]
    return OperatorBundle(
        coef_map=coef_map, proj=proj, comp=comp,
        proj_dinv=proj_dinv, comp_dinv=comp_dinv, system=system,
    )


def _spectral_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2))


def check_symmetry(bundle: OperatorBundle) -> dict:
    """Relative asymmetry of the two weight-scaled operators (both should
    vanish: the scaled projector is self-adjoint).

    Both residuals are measured against the size of the larger operator.
    A per-matrix scale would be meaningless for square systems, where the
    complement is exactly zero in exact arithmetic and the computed matrix
    is pure roundoff.
    """
    scale = max(
        _spectral_norm(bundle.proj_dinv),
        _spectral_norm(bundle.comp_dinv),
        np.finfo(float).tiny,
    )
    return {
        "proj_dinv": _spectral_norm(bundle.proj_dinv - bundle.proj_dinv.T) / scale,
        "comp_dinv": _spectral_norm(bundle.comp_dinv - bundle.comp_dinv.T) / scale,
    }


def _cluster(evals: np.ndarray, centers: tuple, expected: tuple) -> dict:
    idx = np.argmin(np.abs(evals[:, None] - np.asarray(centers)[None, :]), axis=1)
    counts = [int(np.sum(idx == j)) for j in range(len(centers))]
    max_dev = float(np.max(np.abs(evals - np.asarray(centers)[idx]))) if evals.size else 0.0
    return {
        "centers": list(centers),
        "counts": counts,
        "expected_counts": list(expected),
        "max_dev": max_dev,
        "eigenvalues": [float(v) for v in np.sort(evals)[::-1]],
    }


def eigen_structure(bundle: OperatorBundle, tol: Tolerances = Tolerances()) -> dict:
    """Eigenvalue clusters of the projector and its complement.

    The projector's spectrum is computed from its symmetric similarity
    transform (an orthogonal projector assembled from the QR factor), so a
    symmetric solver does the work; the complement's spectrum is the same
    shifted by -1.  Counts are checked against (l, m - l) and any eigenvalue
    further than ``tol.cluster_fail`` from its nearest center raises the
    structural-failure flag.
    """
    sys_ = bundle.system
    m, l = sys_.m, sys_.l
    sym_similar = sys_.qmat @ sys_.qmat.T
    evals = np.linalg.eigvalsh(sym_similar)
    proj_rep = _cluster(evals, (1.0, 0.0), (l, m - l))
    comp_rep = _cluster(evals - 1.0, (0.0, -1.0), (l, m - l))
    failure = max(proj_rep["max_dev"], comp_rep["max_dev"]) > tol.cluster_fail
    counts_ok = (
        proj_rep["counts"] == proj_rep["expected_counts"]
        and comp_rep["counts"] == comp_rep["expected_counts"]
    )
    return {
        "proj": proj_rep,
        "comp": comp_rep,
        "structural_failure": bool(failure),
        "counts_ok": bool(counts_ok),
    }


def check_psd(bundle: OperatorBundle, tol: Tolerances = Tolerances()) -> dict:
    """Minimum eigenvalues of the symmetrized scaled operators.

    ``proj_dinv`` should be PSD and ``-comp_dinv`` too; margins are measured
    against ``-tol.psd`` times the norm of the inverse scaling diagonal.
    """
    scale = 1.0 / float(np.min(bundle.system.dvec))
    sym_p = 0.5 * (bundle.proj_dinv + bundle.proj_dinv.T)
    sym_c = 0.5 * (bundle.comp_dinv + bundle.comp_dinv.T)
    ev_p = np.linalg.eigvalsh(sym_p)
    ev_c = np.linalg.eigvalsh(-sym_c)
    lmax = float(ev_p[-1])
    lmax_bound = scale
    return {
        "proj_dinv_min_eig": float(ev_p[0]),
        "neg_comp_dinv_min_eig": float(ev_c[0]),
        "scale": scale,
        "lmax_proj_dinv": lmax,
        "lmax_bound": lmax_bound,
        "lmax_slack": lmax_bound - lmax,
        "pass": bool(
            ev_p[0] >= -tol.psd * scale
            and ev_c[0] >= -tol.psd * scale
            and lmax <= lmax_bound + tol.ineq * scale
        ),
    }


def _ineq(name, lhs, rhs, scale, tol, rhs_paper=None) -> dict:
    entry = {
        "name": name,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "slack": float(rhs - lhs),
        "scale": float(scale),
        "pass": bool(lhs <= rhs + tol * scale),
    }
    if rhs_paper is not None:
        entry["rhs_sqrt_convention"] = float(rhs_paper)
    return entry


def check_norm_bounds(bundle: OperatorBundle, tol: Tolerances = Tolerances()) -> dict:
    """Singular-value norm chain on the materialized operators.

    Verified in the standard convention (spectral norm = largest singular
    value); the looser square-root variants of the two-sided chain are
    reported alongside for comparison.
    """
    dvec = bundle.system.dvec
    dmin, dmax = float(np.min(dvec)), float(np.max(dvec))
    smax_proj = float(np.linalg.svd(bundle.proj, compute_uv=False)[0])
    smax_proj_dinv = float(np.linalg.svd(bundle.proj_dinv, compute_uv=False)[0])
    cond_d = dmax / dmin
    checks = [
        _ineq("proj_dinv_smax_le_inv_dmin", smax_proj_dinv, 1.0 / dmin,
              scale=1.0 / dmin, tol=tol.ineq),
        _ineq("proj_smax_times_smin_dinv_le_smax_proj_dinv",
              smax_proj * (1.0 / dmax), smax_proj_dinv,
              scale=max(smax_proj_dinv, 1.0 / dmax), tol=tol.ineq),
        _ineq("one_le_proj_smax", 1.0, smax_proj, scale=1.0, tol=tol.norm_chain),
        _ineq("proj_smax_le_cond_d", smax_proj, cond_d, scale=cond_d,
              tol=tol.norm_chain, rhs_paper=float(np.sqrt(cond_d))),
    ]
    return {
        "checks": checks,
        "smax_proj": smax_proj,
        "smax_proj_dinv": smax_proj_dinv,
        "cond_d": cond_d,
        "pass": bool(all(c["pass"] for c in checks)),
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
    silently skipped.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.ndim != 2 or V.ndim != 2:
        raise ValueError("U and V must be 2-D matrices")
    d1, d2 = U.shape
    d3, d4 = V.shape
    if d2 != d3:
        raise ValueError(
            f"inner dimensions must agree: U is {d1}x{d2}, V is {d3}x{d4}"
        )
    su = np.linalg.svd(U, compute_uv=False)
    sv = np.linalg.svd(V, compute_uv=False)
    sp = np.linalg.svd(U @ V, compute_uv=False)
    smax_u, smin_u = float(su[0]), float(su[-1])
    smax_v, smin_v = float(sv[0]), float(sv[-1])
    smax_p = float(sp[0])
    scale = max(1.0, smax_u * smax_v)
    checks = [
        _ineq("smax_product_le_smax_times_smax", smax_p, smax_u * smax_v,
              scale=scale, tol=tol.ineq),
    ]

    inv_entry = {"name": "smax_inverse_equals_inv_smin", "applicable": False}
    if d1 == d2 and smin_u > rank_tolerance(d1, d2, smax_u):
        smax_inv = float(np.linalg.svd(np.linalg.inv(U), compute_uv=False)[0])
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

    tall = {"name": "smin_u_smax_v_le_smax_product", "applicable": d1 >= d2}
    if d1 >= d2:
        tall.update(_ineq("smin_u_smax_v_le_smax_product",
                          smin_u * smax_v, smax_p, scale=scale, tol=tol.ineq))
        tall["applicable"] = True
    checks.append(tall)

    wide = {"name": "smax_u_smin_v_le_smax_product", "applicable": d4 >= d3}
    if d4 >= d3:
        wide.update(_ineq("smax_u_smin_v_le_smax_product",
                          smax_u * smin_v, smax_p, scale=scale, tol=tol.ineq))
        wide["applicable"] = True
    checks.append(wide)

    herm = {"name": "symmetric_norm_is_abs_eigs", "applicable": False}
    if d1 == d2 and np.allclose(U, U.T, rtol=0.0, atol=1e-12 * max(1.0, smax_u)):
        ev = np.abs(np.linalg.eigvalsh(U))
        resid = float(np.max(np.abs(np.sort(ev)[::-1] - su))) if d1 else 0.0
        herm = {
            "name": "symmetric_norm_is_abs_eigs",
            "applicable": True,
            "residual": resid,
            "pass": bool(resid <= 1e-10 * max(1.0, smax_u)),
        }
    checks.append(herm)

    applicable = [c for c in checks if c.get("applicable", True)]
    return {
        "checks": checks,
        "pass": bool(all(c["pass"] for c in applicable)),
    }


def _require_symmetric(mat: np.ndarray, label: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{label} must be square")
    norm = float(np.max(np.abs(mat))) or 1.0
    if np.max(np.abs(mat - mat.T)) > 1e-10 * norm:
        raise ValueError(f"{label} must be symmetric")
    return 0.5 * (mat + mat.T)


def _psd_sqrt(mat: np.ndarray):
    evals, evecs = np.linalg.eigh(mat)
    clipped = np.clip(evals, 0.0, None)
    return evecs @ np.diag(np.sqrt(clipped)) @ evecs.T


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
    is verified as well.
    """
    U = _require_symmetric(U, "U")
    V = _require_symmetric(V, "V")
    if U.shape != V.shape:
        raise ValueError("U and V must have equal shape")
    m = U.shape[0]

    lu = np.sort(np.linalg.eigvalsh(U))[::-1]
    lv = np.sort(np.linalg.eigvalsh(V))[::-1]
    mag = max(1.0, float(np.max(np.abs(lu)))) * max(1.0, float(np.max(np.abs(lv))))
    ztol_u = m * max(1.0, float(np.max(np.abs(lu)))) * np.finfo(float).eps * 64
    ztol_v = m * max(1.0, float(np.max(np.abs(lv)))) * np.finfo(float).eps * 64

    u_psd = bool(lu[-1] >= -ztol_u)
    v_psd = bool(lv[-1] >= -ztol_v)
    if not (u_psd or v_psd):
        raise ValueError("at least one factor must be positive semi-definite")
    swapped = False
    if not v_psd:
        # put the PSD factor into the congruence slot; spectrum of VU = UV
        U, V = V, U
        lu, lv = lv, lu
        swapped = True

    # eigenvalues of VU through the symmetric congruence V^{1/2} U V^{1/2}
    root = _psd_sqrt(V)
    lvu = np.sort(np.linalg.eigvalsh(root @ U @ root))[::-1]

    ztol = m * max(1.0, float(np.max(np.abs(lu)))) * np.finfo(float).eps * 64
    pi = int(np.sum(lu > ztol))
    nu = int(np.sum(lu < -ztol))
    xi = m - pi - nu

    slack_tol = tol.ineq * max(1.0, mag)
    violations = []
    worst = 0.0
    for k in range(1, m + 1):
        val = float(lvu[k - 1])
        if k <= pi:
            regime = 1
            ub = min(lu[i - 1] * lv[k - i] for i in range(1, k + 1))
            lb = max(lu[i - 1] * lv[m + k - i - 1] for i in range(k, m + 1))
        elif k <= m - nu:
            regime = 2
            ub = lb = 0.0
        else:
            regime = 3
            ub = min(lu[i - 1] * lv[m + i - k - 1] for i in range(1, k + 1))
            lb = max(lu[i - 1] * lv[i - k] for i in range(k, m + 1))
        over = max(val - ub, lb - val)
        worst = max(worst, over)
        if over > slack_tol:
            violations.append(
                {"regime": regime, "k": k, "lower": float(lb),
                 "value": val, "upper": float(ub), "excess": float(over)}
            )

    both_pd = bool(lu[-1] > ztol and lv[-1] > ztol_v)
    pd_sandwich = {"applicable": both_pd}
    if both_pd:
        ub = float(lu[0] * lv[0])
        lb = float(lu[-1] * lv[-1])
        over = max(float(np.max(lvu)) - ub, lb - float(np.min(lvu)))
        worst = max(worst, over)
        pd_sandwich = {
            "applicable": True,
            "upper": ub,
            "lower": lb,
            "max_excess": float(over),
            "pass": bool(over <= slack_tol),
        }

    return {
        "m": m,
        "swapped": swapped,
        "inertia": {"positive": pi, "negative": nu, "zero": xi},
        "product_eigenvalues": [float(v) for v in lvu],
        "max_violation": float(worst),
        "violations": violations,
        "pd_sandwich": pd_sandwich,
        "pass": bool(not violations and pd_sandwich.get("pass", True)),
    }


@dataclass(frozen=True)
class SpectralReport:
    """Aggregated certification result for one assembled system."""

    symmetry: dict
    eigen: dict
    psd: dict
    norms: dict
    idempotence: float
    trace_dev: float
    tolerances: Tolerances = field(default_factory=Tolerances)

    @property
    def passed(self) -> bool:
        tol = self.tolerances
        sym_ok = (
            self.symmetry["proj_dinv"] <= tol.symmetry
            and self.symmetry["comp_dinv"] <= tol.symmetry
        )
        eig_ok = (
            self.eigen["counts_ok"]
            and not self.eigen["structural_failure"]
            and max(self.eigen["proj"]["max_dev"], self.eigen["comp"]["max_dev"])
            <= tol.eig_dev
        )
        idem_ok = self.idempotence <= tol.idem
        trace_ok = self.trace_dev <= tol.lin
        return bool(
            sym_ok and eig_ok and self.psd["pass"] and self.norms["pass"]
            and idem_ok and trace_ok
        )

    def to_dict(self) -> dict:
        return {
            "symmetry": self.symmetry,
            "eigen": self.eigen,
            "psd": self.psd,
            "norms": self.norms,
            "idempotence": self.idempotence,
            "trace_dev": self.trace_dev,
            "pass": self.passed,
            "tolerances": self.tolerances.to_dict(),
        }


def diagnose(system: MlsSystem, tol: Tolerances = Tolerances()) -> SpectralReport:
    """Run every operator check on one assembled system."""
    bundle = build_operators(system)
    proj = bundle.proj
    norms = check_norm_bounds(bundle, tol)
    norm_p = norms["smax_proj"]
    idem_res = _spectral_norm(proj @ proj - proj) / (norm_p if norm_p else 1.0)
    trace_dev = abs(float(np.trace(proj)) - system.l) / max(1.0, system.l)
    return SpectralReport(
        symmetry=check_symmetry(bundle),
        eigen=eigen_structure(bundle, tol),
        psd=check_psd(bundle, tol),
        norms=norms,
        idempotence=float(idem_res),
        trace_dev=float(trace_dev),
        tolerances=tol,
    )
