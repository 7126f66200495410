"""The selftest's spectral, core and eig-product suites check instances of
one shape as a stack.  Each must give, bit for bit, what a loop checking
one instance at a time gives, and raise that loop's first error.  The
per-instance references below are written out in full, one numpy call per
matrix, so they share no code with the stacked path."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mlscert import instances, selftest, spectral
from mlscert.bases import monomial_basis
from mlscert.config import Tolerances
from mlscert.core import build_system, evaluate_many
from mlscert.instances import Instance
from mlscert.points import PointSet
from mlscert.reporting import canonical_json
from mlscert.spectral import (
    _NoOperators,
    check_eig_products,
    diagnose,
    diagnose_stack,
    eig_product_stack,
)
from mlscert.weights import WeightSpec

TOL = Tolerances()
EPS = np.finfo(float).eps


def _norm2(mat):
    return float(np.linalg.norm(mat, 2))


class _Weight:
    """A weight family of this file's own, for what ``WeightSpec`` does
    not offer: ``w`` maps distances to reciprocal weights elementwise, an
    overflow to inf is silent and a negative weight raises ``ValueError``."""

    def __init__(self, w, family="fake", interpolating=False):
        self._w, self.family, self.interpolating = w, family, interpolating

    def w(self, r):
        with np.errstate(over="ignore"):
            out = np.asarray(self._w(np.asarray(r, dtype=float)), dtype=float)
        if np.any(out < 0):
            raise ValueError("negative weight")
        return out if np.ndim(r) else float(out)


# --- per-instance references -------------------------------------------------


def _ref_diagnose(sysm, tol):
    """The operator checks of one system, flattened to the values the
    spectral suite reads, and the verdict."""
    m, l, dvec = sysm.m, sysm.l, sysm.dvec
    coef_map = sysm.qmat @ np.linalg.solve(sysm.rmat.T, np.eye(l))
    coef_map /= np.sqrt(dvec)[:, None]
    proj = coef_map @ sysm.design.T
    comp = proj - np.eye(m)
    with np.errstate(all="ignore"):
        proj_dinv, comp_dinv = proj / dvec[None, :], comp / dvec[None, :]
    if not (np.isfinite(proj_dinv).all() and np.isfinite(comp_dinv).all()):
        raise _NoOperators("weight-scaled operators are not finite: smallest weight "
                           f"diagonal entry {float(np.min(dvec)):.3e}")

    scale = max(_norm2(proj_dinv), _norm2(comp_dinv), np.finfo(float).tiny)
    sym_p = _norm2(proj_dinv - proj_dinv.T) / scale
    sym_c = _norm2(comp_dinv - comp_dinv.T) / scale

    evals = np.linalg.eigvalsh(sysm.qmat @ sysm.qmat.T)
    devs, counts_ok = [], True
    for ev, centers in ((evals, (1.0, 0.0)), (evals - 1.0, (0.0, -1.0))):
        idx = np.argmin(np.abs(ev[:, None] - np.asarray(centers)[None, :]), axis=1)
        counts_ok &= [int(np.sum(idx == j)) for j in (0, 1)] == [l, m - l]
        devs.append(float(np.max(np.abs(ev - np.asarray(centers)[idx]))))

    dscale = 1.0 / float(np.min(dvec))
    ev_p = np.linalg.eigvalsh(0.5 * (proj_dinv + proj_dinv.T))
    ev_c = np.linalg.eigvalsh(-(0.5 * (comp_dinv + comp_dinv.T)))
    psd_ok = (ev_p[0] >= -tol.psd * dscale and ev_c[0] >= -tol.psd * dscale
              and ev_p[-1] <= dscale + tol.ineq * dscale)

    dmin, dmax = float(np.min(dvec)), float(np.max(dvec))
    smax_p = float(np.linalg.svd(proj, compute_uv=False)[0])
    smax_pd = float(np.linalg.svd(proj_dinv, compute_uv=False)[0])
    sqrt_cond_d = math.sqrt(dmax / dmin)
    norms_ok = (
        smax_pd <= 1.0 / dmin + tol.ineq * (1.0 / dmin)
        and smax_p * (1.0 / dmax) <= smax_pd + tol.ineq * max(smax_pd, 1.0 / dmax)
        and 1.0 <= smax_p + tol.norm_chain * 1.0
        and smax_p <= sqrt_cond_d + tol.norm_chain * sqrt_cond_d
    )
    idem = _norm2(proj @ proj - proj) / (smax_p if smax_p else 1.0)
    trace_dev = abs(float(np.trace(proj)) - l) / max(1.0, l)
    passed = (
        sym_p <= tol.symmetry and sym_c <= tol.symmetry
        and counts_ok and max(devs) <= tol.cluster_fail and max(devs) <= tol.eig_dev
        and psd_ok and norms_ok and idem <= tol.idem and trace_dev <= tol.lin
    )
    return {
        "symmetry": [sym_p, sym_c], "eig_dev": devs, "expected_counts": [[l, m - l]] * 2,
        "psd": [float(ev_p[0]), float(ev_c[0]), dscale, dscale - float(ev_p[-1])],
        "norms": [smax_p, smax_pd], "idempotence": idem, "trace_dev": trace_dev,
        "pass": bool(passed),
    }


def _flat(rep: dict) -> dict:
    """The same values read from a ``diagnose`` report."""
    e, p, n = rep["eigen"], rep["psd"], rep["norms"]
    return {
        "symmetry": [rep["symmetry"]["proj_dinv"], rep["symmetry"]["comp_dinv"]],
        "eig_dev": [e["proj"]["max_dev"], e["comp"]["max_dev"]],
        "expected_counts": [e["proj"]["expected_counts"], e["comp"]["expected_counts"]],
        "psd": [p["proj_dinv_min_eig"], p["neg_comp_dinv_min_eig"], p["scale"],
                p["lmax_slack"]],
        "norms": [n["smax_proj"], n["smax_proj_dinv"]],
        "idempotence": rep["idempotence"], "trace_dev": rep["trace_dev"],
        "pass": rep["pass"],
    }


def _ref_spectral(suite, tol):
    worst = {"symmetry": 0.0, "eig_dev": 0.0, "idempotence": 0.0, "trace_dev": 0.0,
             "psd_min_rel": 0.0, "lmax_slack": float("inf"),
             "lmax_slack_rel": float("inf")}
    n_fail = 0
    for it in suite:
        sysm = it.system()
        if sysm.at_node is not None:
            raise _NoOperators("operators require x off the nodes for interpolating weights")
        r = _ref_diagnose(sysm, tol)
        n_fail += not r["pass"]
        worst["symmetry"] = max(worst["symmetry"], *r["symmetry"])
        worst["eig_dev"] = max(worst["eig_dev"], *r["eig_dev"])
        worst["idempotence"] = max(worst["idempotence"], r["idempotence"])
        worst["trace_dev"] = max(worst["trace_dev"], r["trace_dev"])
        pe, ce, scale, slack = r["psd"]
        worst["psd_min_rel"] = min(worst["psd_min_rel"], pe / scale, ce / scale)
        worst["lmax_slack"] = min(worst["lmax_slack"], slack)
        worst["lmax_slack_rel"] = min(worst["lmax_slack_rel"], slack / scale)
    return {"n": len(suite), "n_fail": n_fail, "pass": n_fail == 0, **worst}


def _ref_core_rows(seed, suite):
    """Per instance: the random draws and every value the core suite reads
    (None where a check does not apply)."""
    rng = np.random.default_rng(seed + 1)
    rows = []
    for it in suite:
        sysm = it.system()
        a = sysm.coeffs
        row = {"unity": abs(float(np.sum(a)) - 1.0),
               "amplification": 1.0 + float(np.sum(np.abs(a))),
               "oracle": None, "interpolation": None}
        row["coef"] = coef = rng.standard_normal(it.basis.size)
        target = float(it.basis.eval_at(np.atleast_1d(it.x)) @ coef)
        got = float(a @ (sysm.design @ coef))
        row["reproduction"] = abs(got - target) / max(1.0, abs(target))
        row["s"] = s = float(np.exp(rng.uniform(-3.0, 3.0)))
        scaled = _Weight(
            lambda r, b=it.weight, s=s: s * np.asarray(b.w(r)),
            interpolating=it.weight.interpolating,
        )
        a2 = build_system(it.x, it.points, it.basis, scaled).coeffs
        row["scale"] = float(np.max(np.abs(a - a2))) / max(1.0, float(np.linalg.norm(a)))
        if it.meta["m"] <= 8 and it.meta["l"] <= 4 and it.meta["cond_gram"] <= 1e6:
            gram = sysm.design.T @ (sysm.design / sysm.dvec[:, None])
            cvec = it.basis.eval_at(np.atleast_1d(it.x))
            a_alt = (sysm.design @ np.linalg.solve(gram, cvec)) / sysm.dvec
            row["oracle"] = float(np.linalg.norm(a - a_alt) / np.linalg.norm(a))
        if it.weight.family == "shepard":
            pts = it.points
            fitted = evaluate_many(pts.nodes, pts, it.basis, it.weight)
            row["interpolation"] = np.abs(fitted - pts.values).tolist()
        rows.append(row)
    return rows


def _ref_core(seed, tol, suite):
    worst_unity = worst_repro = worst_scale = worst_oracle = worst_interp = 0.0
    n_oracle = n_interp = 0
    min_amp = float("inf")
    for row in _ref_core_rows(seed, suite):
        worst_unity = max(worst_unity, row["unity"])
        min_amp = min(min_amp, row["amplification"])
        worst_repro = max(worst_repro, row["reproduction"])
        worst_scale = max(worst_scale, row["scale"])
        if row["oracle"] is not None:
            n_oracle += 1
            worst_oracle = max(worst_oracle, row["oracle"])
        if row["interpolation"] is not None:
            n_interp += 1
            worst_interp = max([worst_interp, *row["interpolation"]])
    return {
        "n": len(suite), "worst_unity": worst_unity, "worst_reproduction": worst_repro,
        "worst_scale_invariance": worst_scale, "worst_oracle_rel": worst_oracle,
        "n_oracle": n_oracle, "worst_node_interpolation": worst_interp,
        "n_interpolating": n_interp, "min_amplification": min_amp,
        "pass": bool(worst_unity <= tol.bound and worst_repro <= tol.bound
                     and worst_scale <= tol.norm_chain and worst_oracle <= 1e-8
                     and worst_interp == 0.0 and min_amp >= 1.0),
    }


def _ref_symmetric(mat, label):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{label} must be square")
    norm = float(np.max(np.abs(mat))) or 1.0
    if np.max(np.abs(mat - mat.T)) > 1e-10 * norm:
        raise ValueError(f"{label} must be symmetric")
    return 0.5 * (mat + mat.T)


def _ref_eig_products(U, V, tol):
    U, V = _ref_symmetric(U, "U"), _ref_symmetric(V, "V")
    if U.shape != V.shape:
        raise ValueError("U and V must have equal shape")
    m = U.shape[0]
    lu = np.sort(np.linalg.eigvalsh(U))[::-1]
    lv = np.sort(np.linalg.eigvalsh(V))[::-1]
    mag = max(1.0, float(np.max(np.abs(lu)))) * max(1.0, float(np.max(np.abs(lv))))
    ztol_u = m * max(1.0, float(np.max(np.abs(lu)))) * EPS * 64
    ztol_v = m * max(1.0, float(np.max(np.abs(lv)))) * EPS * 64
    u_psd, v_psd = bool(lu[-1] >= -ztol_u), bool(lv[-1] >= -ztol_v)
    if not (u_psd or v_psd):
        raise ValueError("at least one factor must be positive semi-definite")
    swapped = not v_psd
    if swapped:
        U, V, lu, lv = V, U, lv, lu
    evals, evecs = np.linalg.eigh(V)
    root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    lvu = np.sort(np.linalg.eigvalsh(root @ U @ root))[::-1]
    ztol = m * max(1.0, float(np.max(np.abs(lu)))) * EPS * 64
    pi, nu = int(np.sum(lu > ztol)), int(np.sum(lu < -ztol))
    slack_tol = tol.ineq * max(1.0, mag)
    violations, worst = [], 0.0
    for k in range(1, m + 1):
        val = float(lvu[k - 1])
        if k <= pi:
            regime = 1
            ub = min(lu[i - 1] * lv[k - i] for i in range(1, k + 1))
            lb = max(lu[i - 1] * lv[m + k - i - 1] for i in range(k, m + 1))
        elif k <= m - nu:
            regime, ub, lb = 2, 0.0, 0.0
        else:
            regime = 3
            ub = min(lu[i - 1] * lv[m + i - k - 1] for i in range(1, k + 1))
            lb = max(lu[i - 1] * lv[i - k] for i in range(k, m + 1))
        over = max(val - ub, lb - val)
        worst = max(worst, over)
        if over > slack_tol:
            violations.append({"regime": regime, "k": k, "lower": float(lb), "value": val,
                               "upper": float(ub), "excess": float(over)})
    pd = {"applicable": False}
    if lu[-1] > ztol and lv[-1] > ztol_v:
        ub, lb = float(lu[0] * lv[0]), float(lu[-1] * lv[-1])
        over = max(float(np.max(lvu)) - ub, lb - float(np.min(lvu)))
        worst = max(worst, over)
        pd = {"applicable": True, "upper": ub, "lower": lb, "max_excess": float(over),
              "pass": bool(over <= slack_tol)}
    return {
        "m": m, "swapped": swapped,
        "inertia": {"positive": pi, "negative": nu, "zero": m - pi - nu},
        "product_eigenvalues": [float(v) for v in lvu], "max_violation": float(worst),
        "violations": violations, "pd_sandwich": pd,
        "pass": bool(not violations and pd.get("pass", True)),
    }


def _ref_eig_suite(pairs, tol):
    n_violations = n_pd = n_swapped = 0
    worst_slack = worst_oracle = 0.0
    for p in pairs:
        rep = _ref_eig_products(p["umat"], p["vmat"], tol)
        n_violations += len(rep["violations"])
        worst_slack = max(worst_slack, rep["max_violation"])
        n_swapped += rep["swapped"]
        if rep["pd_sandwich"]["applicable"]:
            n_pd += 1
            n_violations += not rep["pd_sandwich"]["pass"]
        lam = np.sort(np.linalg.eigvals(p["umat"] @ p["vmat"]).real)
        mine = np.sort(np.asarray(rep["product_eigenvalues"]))
        scale = max(1.0, float(np.max(np.abs(lam))))
        worst_oracle = max(worst_oracle, float(np.max(np.abs(mine - lam))) / scale)
    return {"n": len(pairs), "n_violations": n_violations, "worst_slack": worst_slack,
            "oracle_max_dev_rel": worst_oracle, "n_pd_sandwich": n_pd,
            "n_swapped": n_swapped,
            "pass": bool(n_violations == 0 and worst_oracle <= 1e-9)}


def _same(got, ref):
    assert canonical_json(got) == canonical_json(ref)


def _groups(keys):
    """Indices grouped by key: the stacks the suites check."""
    out = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return list(out.values())


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return type(exc), str(exc)
    return None


# --- stacked == per instance ---------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 40))
@example(seed=42, n=1)  # one group of one
@example(seed=42, n=200)  # the selftest's suite
def test_stacked_checks_match_per_instance_loops(seed, n):
    """Every row of every stacked check, and every suite report."""
    suite = instances.random_suite(n, seed)
    systems = [it.system() for it in suite]
    rows = _ref_core_rows(seed, suite)
    # the operator checks take one stack per node count m, whatever l
    for idx in _groups([s.m for s in systems]):
        stack = diagnose_stack([systems[i] for i in idx], TOL)
        for j, i in enumerate(idx):
            _same(_flat(spectral._row(stack, j)), _ref_diagnose(systems[i], TOL))
    for idx in _groups([(s.m, s.l) for s in systems]):
        got = selftest._core_invariance(
            [suite[i] for i in idx], [systems[i] for i in idx],
            [rows[i]["coef"] for i in idx], [rows[i]["s"] for i in idx],
        )
        for j, i in enumerate(idx):
            _same({k: got[k][j] for k in got}, {k: rows[i][k] for k in got})
        oracle = [i for i in idx if rows[i]["oracle"] is not None]
        if oracle:
            got = selftest._core_oracle([systems[i] for i in oracle])
            _same(got.tolist(), [rows[i]["oracle"] for i in oracle])
    for it in suite:
        _same(_flat(diagnose(it.system(), TOL)), _ref_diagnose(it.system(), TOL))
    _same(selftest.suite_spectral(seed, TOL, suite=suite), _ref_spectral(suite, TOL))
    _same(selftest.suite_core(seed, TOL, suite=suite), _ref_core(seed, TOL, suite))

    pairs = instances.matrix_pair_suite(n, seed)
    for idx in _groups([p["m"] for p in pairs]):
        stack = eig_product_stack(
            np.stack([pairs[i]["umat"] for i in idx]),
            np.stack([pairs[i]["vmat"] for i in idx]), TOL,
        )
        for j, i in enumerate(idx):
            ref = _ref_eig_products(pairs[i]["umat"], pairs[i]["vmat"], TOL)
            _same(spectral._pair_report(stack, j), ref)
            _same(check_eig_products(pairs[i]["umat"], pairs[i]["vmat"], TOL), ref)
    with mock.patch.object(selftest, "PAIR_N", n):
        _same(selftest.suite_eig_product(seed, TOL), _ref_eig_suite(pairs, TOL))


def test_spectral_takes_one_stack_per_node_count():
    """Seed 42's 200 systems fall into 39 shapes (m, l) but only 9 node
    counts m: the spectral suite calls ``diagnose_stack`` once per m."""
    suite = instances.random_suite(selftest.GENERAL_N, 42)
    assert len({(it.meta["m"], it.meta["l"]) for it in suite}) == 39
    with mock.patch.object(selftest, "diagnose_stack", wraps=diagnose_stack) as calls:
        selftest.suite_spectral(42, TOL, suite=suite)
    assert calls.call_count == len({it.meta["m"] for it in suite}) == 9
    # and a stack holds several basis sizes
    assert max(len({s.l for s in c.args[0]}) for c in calls.call_args_list) > 1


def test_the_selftest_suite_mixes_weight_families_within_groups():
    """Seed 42's groups hold several weight families each; the property's
    small suites supply groups of one."""
    families = {}
    for it in instances.random_suite(selftest.GENERAL_N, 42):
        families.setdefault((it.meta["m"], it.meta["l"]), set()).add(it.weight.family)
    assert max(len(fams) for fams in families.values()) == len(instances.FAMILY_MIX)


# --- the first failing instance raises, as in the loop --------------------------


def _odd_shape_instance(weight, x=0.55, solved_weight=None):
    """An instance with 11 nodes, a shape the generator never draws (m <= 10),
    so its group comes after the groups of the generated instances."""
    pts = PointSet(np.linspace(0.0, 1.0, 11), values=np.cos(np.linspace(0.0, 1.0, 11)))
    basis = monomial_basis(2)
    solved = None
    if solved_weight is not None:
        solved = build_system(x, pts, basis, solved_weight)
    meta = {"m": 11, "l": 2, "cond_gram": 1.0, "family": weight.family}
    return Instance(pts, basis, weight, x, meta=meta, solved=solved)


def _like(it, weight=None, x=None, solved=None):
    """An instance of the shape of ``it``, so it joins the first group."""
    return Instance(it.points, it.basis, weight or it.weight,
                    it.x if x is None else x, meta=dict(it.meta), solved=solved)


VANISH = _Weight(lambda r: np.where(r > 0.3, 0.0, 1.0 + r))
NEGATIVE = _Weight(lambda r: -1.0 - r)


@pytest.mark.parametrize("order", ["odd_first", "odd_last"])
def test_core_raises_the_first_failing_instance(order):
    base = instances.random_suite(12, 5)
    # fails the rescaled solve: the weight vanishes at a positive distance
    odd = _odd_shape_instance(VANISH, solved_weight=WeightSpec("exp", 1.0))
    # fails the rescaled solve too, with another message
    same = _like(base[0], weight=NEGATIVE, solved=base[0].solved)
    # fails before any solve: its own system is not finite
    bad_x = _like(base[0], x=float("nan"))
    suite = base[:4] + ([odd, same] if order == "odd_first" else [same, odd]) + base[4:]
    expected = _raised(lambda: _ref_core(5, TOL, suite))
    assert expected is not None
    assert _raised(lambda: selftest.suite_core(5, TOL, suite=suite)) == expected
    for pos in (2, 9):
        mixed = suite[:pos] + [bad_x] + suite[pos:]
        expected = _raised(lambda: _ref_core(5, TOL, mixed))
        assert _raised(lambda: selftest.suite_core(5, TOL, suite=mixed)) == expected
    # in the first group, fails only its last stage, the node interpolation:
    # it carries no values.  Before odd's failure in a later group, it decides
    it = base[0]
    no_values = Instance(PointSet(it.points.nodes), it.basis, WeightSpec("shepard", 1.0), it.x,
                         meta=dict(it.meta))
    pair = [odd, no_values] if order == "odd_first" else [no_values, odd]
    mixed = base[:4] + pair + base[4:]
    expected = _raised(lambda: _ref_core(5, TOL, mixed))
    want = "weight vanished" if order == "odd_first" else "points carry no values to fit"
    assert want in expected[1]
    assert _raised(lambda: selftest.suite_core(5, TOL, suite=mixed)) == expected


@pytest.mark.parametrize("order", ["odd_first", "odd_last"])
def test_spectral_raises_the_first_failing_instance(order):
    base = instances.random_suite(12, 6)
    # at a node of an interpolating weight: no scaled operators
    odd = _odd_shape_instance(WeightSpec("shepard", 1.0), x=0.5)
    # a NaN weight diagonal: the scaled operators are not finite
    sysm = base[0].solved
    broken = dataclasses.replace(sysm, dvec=np.full_like(sysm.dvec, np.nan))
    same = _like(base[0], solved=broken)
    suite = base[:3] + ([odd, same] if order == "odd_first" else [same, odd]) + base[3:]
    expected = _raised(lambda: _ref_spectral(suite, TOL))
    assert expected is not None
    assert _raised(lambda: selftest.suite_spectral(6, TOL, suite=suite)) == expected


@pytest.mark.parametrize("order", ["node_first", "nan_first"])
def test_spectral_raises_the_first_failing_instance_of_a_mixed_l_stack(order):
    """One node count m with several basis sizes in one stack: an instance
    at a node of an interpolating weight, of another l, and one whose
    scaled operators are NaN.  The suite raises the earlier one's error,
    as a loop over single systems does."""
    base = instances.random_suite(12, 6)
    it = base[0]
    m = it.meta["m"]
    other = 1 if it.meta["l"] > 1 else 2
    node = float(it.points.nodes[1, 0])
    at_node = Instance(it.points, monomial_basis(other), WeightSpec("shepard", 1.0), node,
                       meta={**it.meta, "l": other, "family": "shepard"})
    assert at_node.system().at_node == 1
    broken = dataclasses.replace(it.solved, dvec=np.full_like(it.solved.dvec, np.nan))
    nan_ops = _like(it, solved=broken)
    bad = [at_node, nan_ops] if order == "node_first" else [nan_ops, at_node]
    suite = base[:2] + bad[:1] + base[2:7] + bad[1:] + base[7:]
    assert len({x.meta["l"] for x in suite if x.meta["m"] == m}) > 1
    expected = _raised(lambda: _ref_spectral(suite, TOL))
    assert expected is not None
    assert expected == _raised(lambda: [diagnose(x.system(), TOL) for x in suite])
    assert _raised(lambda: selftest.suite_spectral(6, TOL, suite=suite)) == expected
    want = ("operators require x off the nodes" if order == "node_first"
            else "weight-scaled operators are not finite")
    assert want in expected[1]


@pytest.mark.parametrize("order", ["odd_first", "odd_last"])
def test_eig_product_raises_the_first_failing_pair(order):
    pairs = instances.matrix_pair_suite(10, 8)
    rng = np.random.default_rng(1)
    # size 7 is never drawn (m <= 6): its group comes last
    odd = {"umat": rng.standard_normal((7, 7)), "vmat": np.eye(7)}
    m = pairs[0]["m"]
    same = {"umat": -np.eye(m), "vmat": -np.eye(m)}  # no PSD factor
    crafted = pairs[:3] + ([odd, same] if order == "odd_first" else [same, odd]) + pairs[3:]
    expected = _raised(lambda: _ref_eig_suite(crafted, TOL))
    assert expected is not None
    with mock.patch.object(instances, "matrix_pair_suite", return_value=crafted):
        got = _raised(lambda: selftest.suite_eig_product(8, TOL))
    assert got == expected
