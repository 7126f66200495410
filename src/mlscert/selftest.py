"""Self-certification battery.

Each suite checks one family of claims on instances drawn deterministically
from a seed, at the configured tolerances, and returns a plain-dict report
(floats, ints, bools only) that serializes canonically.  ``run_selftest``
draws the instances that suites share, once per call, and hands them out.
The CLI prints one verdict line per suite; the acceptance tests re-run the
same suites and assert on the same fields.
"""

import numpy as np

from . import bound1d, error_analysis, instances
from .config import Tolerances
from .core import _ERRORS, _by_shape, _replayed, _stack, build_systems, evaluate_many
from .points import distances_each
from .spectral import (
    build_operators,
    diagnose_stack,
    eig_product_stack,
    sv_product_stack,
)
from .weights import w_each

__all__ = ["SUITE_NAMES", "run_selftest"]

SUITE_NAMES = (
    "core",
    "spectral",
    "sv_product",
    "eig_product",
    "ode",
    "certificate",
    "diff_matrix",
    "convergence",
)

#: finite-difference step battery for the coefficient-derivative check
FD_BATTERY = (1e-3, 1e-4, 1e-5)
#: a battery point counts as pre-floor when the truncation error predicted
#: from the largest step exceeds this multiple of the roundoff floor
#: eps * sqrt(cond_gram) * ||a|| / (2h)
FD_FLOOR_SAFETY = 4.0
FD_SLOPE_RANGE = (1.7, 2.3)

#: the Gram condition up to which core and ode check their normal-equations oracles
ORACLE_COND_MAX = 1e6

#: instances of the general random suite, which core and spectral check
GENERAL_N = 200
_GENERAL_SUITES = ("core", "spectral")
#: random pairs of each of the sv_product and eig_product suites
PAIR_N = 200
#: measurable instances the ode suite needs, and the most it may draw
ODE_TARGET = 20
ODE_MAX_DRAWS = 60
#: instances of the certificate suite, and the grid size of each
CERTIFICATE_N = 20
CERTIFICATE_GRID = 200
#: the diff_matrix suite checks the bases of size 1 to this
DIFF_MATRIX_L_MAX = 8


def _stacked(check, groups) -> list:
    """The results of ``check`` on each group of instance indices (and on
    each replayed instance) that passed, in order.

    ``check(idx)`` runs every stage of the instances ``idx``, in stacked
    calls.  A group that raises is replayed one instance at a time
    (``core._replayed``), each through all its stages, which finds its
    earliest failing instance; later groups are checked only below it.
    The earliest failing instance of all raises its error at the end:
    what a loop checking one instance at a time raises first.
    """
    done, limit, error = [], float("inf"), None
    for idx in groups:
        idx = [i for i in idx if i < limit]
        start = len(done)
        try:
            for _, res in _replayed(lambda lo, hi: check(idx[lo:hi]), len(idx), len(idx) or 1):
                done.append(res)
        except _ERRORS as exc:
            limit, error = idx[len(done) - start], exc
    if error is not None:
        raise error
    return done


def _values(done, key=None) -> list:
    """The per-instance values (under ``key``) in the results of
    ``_stacked``, as Python scalars, one group after another.  The suites
    reduce them with Python's max or min from a start of 0.0 or inf, as
    their per-instance loops did: a NaN never replaces the start, and the
    result does not depend on the order of the values."""
    out = []
    for res in done:
        out += np.ravel(res if key is None else res[key]).tolist()
    return out


def _core_invariance(suite, systems, coefs, scales) -> dict:
    """Per-instance metrics of ``suite_core`` for instances of one shape
    (m, l) and their systems: the partition of unity, the amplification,
    the reproduction of the basis combination ``coefs[i]``, and the change
    of a(x) when the weight family is multiplied by ``scales[i]``, solved
    for the whole group in one stacked call, relative to max(1, ||a||):
    both solves are only forward stable, to about cond(E) u ||a||."""
    a, design, cvecs, xs = (_stack(systems, n) for n in ("coeffs", "design", "basis_at_x", "x"))
    nodes = np.stack([it.points.nodes for it in suite])
    # the weight diagonal 2 (s w) of the rescaled family s w, with the
    # operations the solver applies to w
    with np.errstate(over="ignore"):
        dists = distances_each(nodes, xs)
        dvecs = 2.0 * (np.array(scales)[:, None] * w_each([it.weight for it in suite], dists))
    a2, _ = build_systems(xs, nodes, suite[0].basis, dvecs=dvecs, design=design)
    coef = np.stack(coefs)
    # np.vecdot takes one BLAS dot per row, as a[i] @ b[i] does
    target = np.vecdot(cvecs, coef)
    got = np.vecdot(a, (design @ coef[:, :, None])[:, :, 0])
    return {
        "unity": np.abs(np.sum(a, axis=1) - 1.0),
        "amplification": error_analysis.amplification(a),
        "reproduction": np.abs(got - target) / np.maximum(1.0, np.abs(target)),
        "scale": np.max(np.abs(a - a2), axis=1) / np.maximum(1.0, np.sqrt(np.vecdot(a, a))),
    }


def _core_oracle(systems) -> np.ndarray:
    """Relative distance of each a(x) to the normal-equations solution
    D^-1 E G^-1 c, for systems of one shape, in stacked calls."""
    a, design, dvecs = (_stack(systems, n) for n in ("coeffs", "design", "dvec"))
    gram = np.swapaxes(design, 1, 2) @ (design / dvecs[:, :, None])
    sol = np.linalg.solve(gram, _stack(systems, "basis_at_x")[:, :, None])
    diff = a - (design @ sol)[:, :, 0] / dvecs
    return np.sqrt(np.vecdot(diff, diff)) / np.sqrt(np.vecdot(a, a))


def suite_core(seed: int, tol: Tolerances, suite) -> dict:
    """Partition of unity, polynomial reproduction, weight-scaling
    invariance, normal-equations cross-check, interpolation at nodes.

    ``suite`` is ``instances.random_suite(GENERAL_N, seed)``.  The
    instances are checked in groups of one shape (m, l), every stage of a
    group in one call: its systems, a stacked solve for the rescaled
    weights, one for the normal-equations oracle and the node
    interpolation of its shepard instances.  Every
    per-instance value is what a solve per instance gives, bit for bit,
    and the first failing instance raises its own error.
    """
    rng = np.random.default_rng(seed + 1)
    # per instance, in order: a basis combination and a weight scale
    draws = [(rng.standard_normal(it.basis.size), float(np.exp(rng.uniform(-3.0, 3.0))))
             for it in suite]

    def check(idx):
        group = [suite[i] for i in idx]
        systems = [it.system() for it in group]
        res = _core_invariance(group, systems, *zip(*(draws[i] for i in idx)))
        eligible = [s for it, s in zip(group, systems) if it.meta["m"] <= 8 and it.meta["l"] <= 4
                    and it.meta["cond_gram"] <= ORACLE_COND_MAX]
        res["oracle"] = _core_oracle(eligible) if eligible else []
        res["interpolation"] = [
            max(np.abs(evaluate_many(it.points.nodes, it.points, it.basis, it.weight)
                       - it.points.values).tolist())
            for it in group if it.weight.family == "shepard"
        ]
        return res

    checked = _stacked(check, _by_shape([(it.points.m, it.basis.size) for it in suite]))
    worst_unity = max([0.0, *_values(checked, "unity")])
    worst_repro = max([0.0, *_values(checked, "reproduction")])
    worst_scale = max([0.0, *_values(checked, "scale")])
    min_amp = min([float("inf"), *_values(checked, "amplification")])
    oracles, interps = _values(checked, "oracle"), _values(checked, "interpolation")
    worst_oracle = max([0.0, *oracles])
    worst_interp = max([0.0, *interps])
    return {
        "n": len(suite),
        "worst_unity": worst_unity,
        "worst_reproduction": worst_repro,
        "worst_scale_invariance": worst_scale,
        "worst_oracle_rel": worst_oracle,
        "n_oracle": len(oracles),
        "worst_node_interpolation": worst_interp,
        "n_interpolating": len(interps),
        "min_amplification": min_amp,
        "pass": bool(
            worst_unity <= tol.bound
            and worst_repro <= tol.bound
            and worst_scale <= tol.norm_chain
            and worst_oracle <= 1e-8
            and worst_interp == 0.0
            and min_amp >= 1.0
        ),
    }


def suite_spectral(seed: int, tol: Tolerances, suite) -> dict:
    """Full operator diagnostics on every generated instance.

    ``suite`` is ``instances.random_suite(GENERAL_N, seed)``.
    ``diagnose_stack`` checks the systems of each group of one node count
    m at once, one stack per m for the (m, m) checks; per (m, l) for the
    coefficient maps.  The worst values are reduced from its arrays; a
    failing instance raises what building its system or ``diagnose``
    raises for the first one.
    """

    def check(idx):
        rep = diagnose_stack([suite[i].system() for i in idx], tol)
        sym, eigen, psd = rep["symmetry"], rep["eigen"], rep["psd"]
        return {
            "pass": rep["pass"],
            "symmetry": (sym["proj_dinv"], sym["comp_dinv"]),
            "eig_dev": (eigen["proj"]["max_dev"], eigen["comp"]["max_dev"]),
            "idempotence": rep["idempotence"],
            "trace_dev": rep["trace_dev"],
            "psd_min_rel": (psd["proj_dinv_min_eig"] / psd["scale"],
                            psd["neg_comp_dinv_min_eig"] / psd["scale"]),
            "lmax_slack": psd["lmax_slack"],
            "lmax_slack_rel": psd["lmax_slack"] / psd["scale"],
        }

    reports = _stacked(check, _by_shape([it.points.m for it in suite]))
    n_fail = _values(reports, "pass").count(False)
    out = {"n": len(suite), "n_fail": n_fail, "pass": bool(n_fail == 0)}
    for key in ("symmetry", "eig_dev", "idempotence", "trace_dev"):
        out[key] = max([0.0, *_values(reports, key)])
    out["psd_min_rel"] = min([0.0, *_values(reports, "psd_min_rel")])
    out["lmax_slack"] = min([float("inf"), *_values(reports, "lmax_slack")])
    # lmax_slack relative to its bound 1 / d_min, where rounding reads the
    # same whatever the weights' scale; reported, not gated
    out["lmax_slack_rel"] = min([float("inf"), *_values(reports, "lmax_slack_rel")])
    return out


def suite_sv_product(seed: int, tol: Tolerances) -> dict:
    """Singular-value product inequalities on random rectangular pairs.

    Every pair is drawn first, in order; ``sv_product_stack`` then checks
    them all, with one stacked SVD per operand shape.  ``n_checks`` counts
    the entries that apply, over the pairs."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(PAIR_N):
        d1, d2, d4 = (int(v) for v in rng.integers(1, 7, size=3))
        scale_u = float(np.exp(rng.uniform(-2.0, 2.0)))
        scale_v = float(np.exp(rng.uniform(-2.0, 2.0)))
        u = scale_u * rng.standard_normal((d1, d2))
        v = scale_v * rng.standard_normal((d2, d4))
        pairs.append((u, v))
    rep = sv_product_stack(pairs, tol)
    # an entry without ``applicable`` applies to every pair
    n_checks = sum(int(np.count_nonzero(c["applicable"])) if "applicable" in c else PAIR_N
                   for c in rep["checks"])
    n_fail = int(np.count_nonzero(~rep["pass"]))
    return {"n": PAIR_N, "n_checks": n_checks, "n_fail": n_fail, "pass": bool(n_fail == 0)}


def suite_eig_product(seed: int, tol: Tolerances) -> dict:
    """Eigenvalue-product sandwich bounds against a dense eigenvalue oracle.

    ``eig_product_stack`` checks each group of same-size pairs at once, and
    the oracle's ``eigvals`` runs once per group too; the suite reads the
    stack's arrays, whose row i is ``check_eig_products`` of pair i.  A
    failing pair raises what ``check_eig_products`` raises for the first
    one.
    """
    pairs = instances.matrix_pair_suite(PAIR_N, seed)

    def check(idx):
        umat = np.stack([pairs[i]["umat"] for i in idx])
        vmat = np.stack([pairs[i]["vmat"] for i in idx])
        rep = eig_product_stack(umat, vmat, tol)
        lam = np.sort(np.linalg.eigvals(umat @ vmat).real, axis=-1)
        mine = np.sort(rep["product_eigenvalues"], axis=-1)
        scale = np.maximum(1.0, np.max(np.abs(lam), axis=-1))
        return {
            "oracle_dev": np.max(np.abs(mine - lam), axis=-1) / scale,
            # the violated indices, plus a failed PD sandwich
            "n_violations": rep["violated"].sum(axis=1)
            + (rep["pd_applicable"] & ~rep["pd_pass"]),
            "max_violation": rep["max_violation"],
            "pd_applicable": rep["pd_applicable"],
            "swapped": rep["swapped"],
        }

    shapes = [(p["umat"].shape, p["vmat"].shape) for p in pairs]
    reports = _stacked(check, _by_shape(shapes))
    worst_oracle = max([0.0, *_values(reports, "oracle_dev")])
    n_violations = sum(_values(reports, "n_violations"))
    return {
        "n": len(pairs),
        "n_violations": n_violations,
        "worst_slack": max([0.0, *_values(reports, "max_violation")]),
        "oracle_max_dev_rel": worst_oracle,
        "n_pd_sandwich": sum(_values(reports, "pd_applicable")),
        "n_swapped": sum(_values(reports, "swapped")),
        "pass": bool(n_violations == 0 and worst_oracle <= 1e-9),
    }


def _product_rule(sysm, points, basis, alpha: float) -> np.ndarray:
    """a'(x) by the product rule on a = D^-1 E G^-1 c, G = E^T D^-1 E, with
    no QR and no operator of the solve: D' = H D gives G' = -E^T D^-1 H E
    and a' = -H a + D^-1 E G^-1 (c' - G' G^-1 c)."""
    x = float(sysm.x[0])
    hdiag, dc = bound1d.dlogw_diag(x, points, alpha), basis.derivative_at(x)
    design, dinv = sysm.design, 1.0 / sysm.dvec
    gram = design.T @ (dinv[:, None] * design)
    dgram = -design.T @ ((dinv * hdiag)[:, None] * design)
    y = np.linalg.solve(gram, sysm.basis_at_x)
    a = dinv * (design @ y)
    return -hdiag * a + dinv * (design @ np.linalg.solve(gram, dc - dgram @ y))


def _fd_slope(it, tol: Tolerances) -> dict:
    """Central-difference convergence slope of the coefficient derivative,
    and the derivative's distance to the product-rule oracle.

    Battery points past the cancellation floor — where the truncation error
    predicted from the largest step falls under FD_FLOOR_SAFETY times the
    roundoff floor eps*sqrt(cond_gram)*||a||/(2h), sqrt(cond_gram) since each
    probe is only forward stable — are excluded; with fewer than two usable
    points the slope is unmeasurable and the instance is skipped.
    ``oracle_rel`` is ||rhs - _product_rule|| / max(1, ||rhs||), or None
    past ``ORACLE_COND_MAX``.
    """
    pts, basis, weight, x = it.points, it.basis, it.weight, it.x
    sysm = it.system()
    bundle = build_operators(sysm)
    rhs = bound1d.ode_rhs(sysm, bundle, pts, basis, weight.alpha)
    anorm = float(np.linalg.norm(sysm.coeffs))
    eps = float(np.finfo(float).eps)
    # the probes x + h, x - h of every step, solved in one call
    probes, _ = build_systems(
        [p for h in FD_BATTERY for p in (x + h, x - h)], pts, basis, weight
    )
    errs = [
        float(np.linalg.norm((ap - am) / (2.0 * h) - rhs))
        for h, ap, am in zip(FD_BATTERY, probes[0::2], probes[1::2])
    ]
    h0 = FD_BATTERY[0]
    keep = []
    for i, h in enumerate(FD_BATTERY):
        predicted = errs[0] * (h / h0) ** 2
        floor = eps * np.sqrt(sysm.cond_gram) * anorm / (2.0 * h)
        if predicted >= FD_FLOOR_SAFETY * floor:
            keep.append(i)
    if len(keep) < 2:
        return {"measurable": False, "errs": errs}
    slope = error_analysis._slope([FD_BATTERY[i] for i in keep], [errs[i] for i in keep],
                                  np.log10)
    oracle_rel = None
    if sysm.cond_gram <= ORACLE_COND_MAX:
        oracle = _product_rule(sysm, pts, basis, weight.alpha)
        oracle_rel = float(np.linalg.norm(rhs - oracle)) / max(1.0, float(np.linalg.norm(rhs)))
    return {"measurable": True, "slope": slope, "n_points": len(keep), "errs": errs,
            "oracle_rel": oracle_rel}


def suite_ode(seed: int, tol: Tolerances, stream) -> dict:
    """Finite-difference validation of the coefficient-derivative formula,
    and its product-rule oracle (``_fd_slope``) on the measured instances
    with cond_gram up to ``ORACLE_COND_MAX``, gated at ``tol.lin``.

    ``stream`` is ``instances.H2Stream(seed)``.  Each round takes as many
    instances from it as measured slopes are still missing (at most what
    ``ODE_MAX_DRAWS`` leaves), so the suite draws the instances a loop
    drawing one at a time draws, and stops where that loop stops.  A
    round's instances are drawn before they are checked, so a draw error
    within a round comes before a check error of an earlier instance of
    that round.
    """
    slopes, oracle_rels = [], []
    n_skipped = n_drawn = 0
    while len(slopes) < ODE_TARGET and n_drawn < ODE_MAX_DRAWS:
        batch = min(ODE_TARGET - len(slopes), ODE_MAX_DRAWS - n_drawn)
        for it in stream.first(n_drawn + batch)[n_drawn:]:
            n_drawn += 1
            res = _fd_slope(it, tol)
            if res["measurable"]:
                slopes.append(res["slope"])
                if res["oracle_rel"] is not None:
                    oracle_rels.append(res["oracle_rel"])
            else:
                n_skipped += 1
    lo, hi = FD_SLOPE_RANGE
    in_range = [lo <= s <= hi for s in slopes]
    oracle_max = max([0.0, *oracle_rels])
    return {
        "n_measured": len(slopes),
        "n_skipped_at_floor": n_skipped,
        "n_drawn": n_drawn,
        "slope_min": min(slopes) if slopes else float("nan"),
        "slope_max": max(slopes) if slopes else float("nan"),
        "oracle_max_rel": oracle_max,
        "n_oracle": len(oracle_rels),
        "pass": bool(len(slopes) >= ODE_TARGET and all(in_range) and oracle_max <= tol.lin),
    }


def suite_certificate(seed: int, tol: Tolerances, suite) -> dict:
    """Exponential-envelope certificates on generated 1-d instances.

    ``suite`` is ``instances.H2Stream(seed).first(CERTIFICATE_N)``."""
    worst_slack = float("inf")
    n_fail = 0
    for it in suite:
        cert = bound1d.certify_bound(
            it.points, it.basis, it.weight, n_grid=CERTIFICATE_GRID, tol=tol
        )
        worst_slack = min(worst_slack, float(min(cert.slack)))
        if not cert.passed:
            n_fail += 1
    return {
        "n": CERTIFICATE_N,
        "n_grid": CERTIFICATE_GRID,
        "worst_min_slack": worst_slack,
        "n_fail": n_fail,
        "pass": bool(n_fail == 0 and worst_slack >= -tol.bound),
    }


def suite_diff_matrix(seed: int, tol: Tolerances) -> dict:
    """Singular values of the monomial differentiation matrix are 0..l-1."""
    worst = 0.0
    for l in range(1, DIFF_MATRIX_L_MAX + 1):
        sv = np.linalg.svd(bound1d.monomial_diff_matrix(l), compute_uv=False)
        expect = np.arange(l - 1, -1, -1, dtype=float)
        worst = max(worst, float(np.max(np.abs(np.sort(sv)[::-1] - expect))))
    return {"l_max": DIFF_MATRIX_L_MAX, "worst_dev": worst, "pass": bool(worst <= 1e-12)}


def suite_convergence(seed: int, tol: Tolerances) -> dict:
    """Grid-refinement study plus order-monotonicity battery."""
    study = error_analysis.convergence_study(
        np.sin, l=2, domain=(0.0, 3.0), h0=0.2, alpha0=1.0, policy="scaled"
    )
    # each basis size solves its levels once for all the test functions
    names, fs = zip(*error_analysis.TEST_FUNCTIONS.items())
    by_l = [
        error_analysis.convergence_studies(
            fs, l=l, domain=(-1.0, 1.0), h0=0.1, alpha0=1.0, policy="scaled"
        )
        for l in (1, 2, 3)
    ]
    battery = {}
    battery_ok = True
    for k, name in enumerate(names):
        orders = [studies[k].observed_order for studies in by_l]
        mono = all(orders[i] <= orders[i + 1] + 0.02 for i in range(len(orders) - 1))
        battery[name] = {"orders": orders, "monotone": mono}
        battery_ok = battery_ok and mono
    return {
        "observed_order": study.observed_order,
        "sup_errors": study.sup_errors,
        "hs": study.hs,
        "product_bound": study.product_bound,
        "battery": battery,
        "pass": bool(
            study.observed_order >= 1.8
            and battery_ok
            and study.product_bound["near_violations"] == 0
        ),
    }


_SUITES = {
    "core": suite_core,
    "spectral": suite_spectral,
    "sv_product": suite_sv_product,
    "eig_product": suite_eig_product,
    "ode": suite_ode,
    "certificate": suite_certificate,
    "diff_matrix": suite_diff_matrix,
    "convergence": suite_convergence,
}


def run_selftest(seed: int = 42, tol: Tolerances = Tolerances(), suites=None) -> dict:
    names = SUITE_NAMES if suites is None else tuple(suites)
    unknown = [name for name in names if name not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; choose from {SUITE_NAMES}")
    # core and spectral check the same seeded instances, and ode and
    # certificate take theirs from one stream of 1-d instances (the
    # certificate its first CERTIFICATE_N): draw them once per call, never
    # across calls, so every run pays for its own draws
    general = None
    if not set(names).isdisjoint(_GENERAL_SUITES):
        general = instances.random_suite(GENERAL_N, seed)
    h2 = instances.H2Stream(seed)
    reports = {}
    for name in names:
        kw = {}
        if name in _GENERAL_SUITES:
            kw = {"suite": general}
        elif name == "ode":
            kw = {"stream": h2}
        elif name == "certificate":
            kw = {"suite": h2.first(CERTIFICATE_N)}
        reports[name] = _SUITES[name](seed, tol, **kw)
    return {
        "seed": int(seed),
        "tolerances": tol.to_dict(),
        "suites": reports,
        "pass": bool(all(r["pass"] for r in reports.values())),
    }
