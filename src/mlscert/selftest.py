"""Self-certification battery.

Each suite draws its instances deterministically from a seed, checks one
family of claims at the configured tolerances, and returns a plain-dict
report (floats, ints, bools only) that serializes canonically.  The CLI
prints one verdict line per suite; the acceptance tests re-run the same
suites and assert on the same fields.
"""

import numpy as np

from . import bound1d, error_analysis, instances
from .config import Tolerances
from .core import build_system, build_systems, fitted_values
from .spectral import (
    build_operators,
    check_eig_products,
    check_sv_products,
    diagnose,
)
from .weights import WeightSpec

__all__ = ["SUITE_NAMES", "run_suite", "run_selftest"]

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
#: eps * ||a|| / (2h)
FD_FLOOR_SAFETY = 4.0
FD_SLOPE_RANGE = (1.7, 2.3)

#: instances of the general random suite, which core and spectral check
GENERAL_N = 200
_GENERAL_SUITES = ("core", "spectral")


def suite_core(seed: int, tol: Tolerances, suite=None) -> dict:
    """Partition of unity, polynomial reproduction, weight-scaling
    invariance, normal-equations cross-check, interpolation at nodes.

    ``suite`` is ``instances.random_suite(GENERAL_N, seed)``, drawn here
    if not given.
    """
    if suite is None:
        suite = instances.random_suite(GENERAL_N, seed)
    n = len(suite)
    rng = np.random.default_rng(seed + 1)
    worst_unity = worst_repro = worst_scale = worst_oracle = 0.0
    worst_interp = 0.0
    n_oracle = n_interp = 0
    min_amp = float("inf")
    for it in suite:
        sysm = it.system()
        a = sysm.coeffs
        worst_unity = max(worst_unity, abs(float(np.sum(a)) - 1.0))
        min_amp = min(min_amp, error_analysis.amplification(a))

        coef = rng.standard_normal(it.basis.size)
        target = float(it.basis.eval_at(np.atleast_1d(it.x)) @ coef)
        got = float(a @ (sysm.design @ coef))
        worst_repro = max(worst_repro, abs(got - target) / max(1.0, abs(target)))

        s = float(np.exp(rng.uniform(-3.0, 3.0)))
        scaled = WeightSpec(
            "custom",
            custom_w=lambda r, b=it.weight, s=s: s * np.asarray(b.w(r)),
            custom_interpolating=it.weight.interpolating,
            custom_smooth=it.weight.smooth,
        )
        a2 = build_system(it.x, it.points, it.basis, scaled).coeffs
        worst_scale = max(worst_scale, float(np.max(np.abs(a - a2))))

        if it.meta["m"] <= 8 and it.meta["l"] <= 4 and it.meta["cond_gram"] <= 1e6:
            n_oracle += 1
            dvec = sysm.dvec
            gram = sysm.design.T @ (sysm.design / dvec[:, None])
            cvec = it.basis.eval_at(np.atleast_1d(it.x))
            a_alt = (sysm.design @ np.linalg.solve(gram, cvec)) / dvec
            worst_oracle = max(
                worst_oracle,
                float(np.linalg.norm(a - a_alt) / np.linalg.norm(a)),
            )

        if it.weight.family == "shepard":
            n_interp += 1
            pts = it.points
            fitted = fitted_values(
                *build_systems(pts.nodes, pts, it.basis, it.weight), pts.values
            )
            worst_interp = max([worst_interp, *np.abs(fitted - pts.values).tolist()])

    return {
        "n": n,
        "worst_unity": worst_unity,
        "worst_reproduction": worst_repro,
        "worst_scale_invariance": worst_scale,
        "worst_oracle_rel": worst_oracle,
        "n_oracle": n_oracle,
        "worst_node_interpolation": worst_interp,
        "n_interpolating": n_interp,
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


def suite_spectral(seed: int, tol: Tolerances, suite=None) -> dict:
    """Full operator diagnostics on every generated instance.

    ``suite`` is ``instances.random_suite(GENERAL_N, seed)``, drawn here
    if not given.
    """
    if suite is None:
        suite = instances.random_suite(GENERAL_N, seed)
    n = len(suite)
    worst = {
        "symmetry": 0.0,
        "eig_dev": 0.0,
        "idempotence": 0.0,
        "trace_dev": 0.0,
        "psd_min_rel": 0.0,
        "lmax_slack": float("inf"),
    }
    n_fail = 0
    for it in suite:
        rep = diagnose(it.system(), tol).to_dict()
        if not rep["pass"]:
            n_fail += 1
        worst["symmetry"] = max(
            worst["symmetry"], rep["symmetry"]["proj_dinv"], rep["symmetry"]["comp_dinv"]
        )
        worst["eig_dev"] = max(
            worst["eig_dev"],
            rep["eigen"]["proj"]["max_dev"],
            rep["eigen"]["comp"]["max_dev"],
        )
        worst["idempotence"] = max(worst["idempotence"], rep["idempotence"])
        worst["trace_dev"] = max(worst["trace_dev"], rep["trace_dev"])
        worst["psd_min_rel"] = min(
            worst["psd_min_rel"],
            rep["psd"]["proj_dinv_min_eig"] / rep["psd"]["scale"],
            rep["psd"]["neg_comp_dinv_min_eig"] / rep["psd"]["scale"],
        )
        worst["lmax_slack"] = min(worst["lmax_slack"], rep["psd"]["lmax_slack"])
    out = {"n": n, "n_fail": n_fail, "pass": bool(n_fail == 0)}
    out.update(worst)
    return out


def suite_sv_product(seed: int, tol: Tolerances, n: int = 200) -> dict:
    """Singular-value product inequalities on random rectangular pairs."""
    rng = np.random.default_rng(seed)
    n_fail = 0
    n_checks = 0
    for _ in range(n):
        d1, d2, d4 = (int(v) for v in rng.integers(1, 7, size=3))
        scale_u = float(np.exp(rng.uniform(-2.0, 2.0)))
        scale_v = float(np.exp(rng.uniform(-2.0, 2.0)))
        u = scale_u * rng.standard_normal((d1, d2))
        v = scale_v * rng.standard_normal((d2, d4))
        rep = check_sv_products(u, v, tol)
        applicable = [c for c in rep["checks"] if c.get("applicable", True)]
        n_checks += len(applicable)
        if not rep["pass"]:
            n_fail += 1
    return {"n": n, "n_checks": n_checks, "n_fail": n_fail, "pass": bool(n_fail == 0)}


def suite_eig_product(seed: int, tol: Tolerances, n: int = 200) -> dict:
    """Eigenvalue-product sandwich bounds against a dense eigenvalue oracle."""
    pairs = instances.matrix_pair_suite(n, seed)
    n_violations = 0
    worst_slack = 0.0
    worst_oracle = 0.0
    n_pd_sandwich = 0
    n_swapped = 0
    for p in pairs:
        rep = check_eig_products(p["umat"], p["vmat"], tol)
        n_violations += len(rep["violations"])
        worst_slack = max(worst_slack, rep["max_violation"])
        if rep["swapped"]:
            n_swapped += 1
        if rep["pd_sandwich"]["applicable"]:
            n_pd_sandwich += 1
            if not rep["pd_sandwich"]["pass"]:
                n_violations += 1
        lam_oracle = np.sort(np.linalg.eigvals(p["umat"] @ p["vmat"]).real)
        mine = np.sort(np.asarray(rep["product_eigenvalues"]))
        scale = max(1.0, float(np.max(np.abs(lam_oracle))) if lam_oracle.size else 1.0)
        worst_oracle = max(
            worst_oracle, float(np.max(np.abs(mine - lam_oracle))) / scale
        )
    oracle_ok = worst_oracle <= 1e-9
    return {
        "n": n,
        "n_violations": n_violations,
        "worst_slack": worst_slack,
        "oracle_max_dev_rel": worst_oracle,
        "n_pd_sandwich": n_pd_sandwich,
        "n_swapped": n_swapped,
        "pass": bool(n_violations == 0 and oracle_ok),
    }


def _fd_slope(it, tol: Tolerances) -> dict:
    """Central-difference convergence slope of the coefficient derivative.

    Battery points past the cancellation floor — where the truncation error
    predicted from the largest step falls under FD_FLOOR_SAFETY times the
    roundoff floor eps*||a||/(2h) — are excluded; with fewer than two usable
    points the slope is unmeasurable and the instance is skipped.
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
        floor = eps * anorm / (2.0 * h)
        if predicted >= FD_FLOOR_SAFETY * floor:
            keep.append(i)
    if len(keep) < 2:
        return {"measurable": False, "errs": errs}
    lg_h = np.log10([FD_BATTERY[i] for i in keep])
    lg_e = np.log10([errs[i] for i in keep])
    a = np.vstack([lg_h, np.ones_like(lg_h)]).T
    sol, *_ = np.linalg.lstsq(a, lg_e, rcond=None)
    return {"measurable": True, "slope": float(sol[0]), "n_points": len(keep), "errs": errs}


def suite_ode(seed: int, tol: Tolerances, n_target: int = 20, n_max: int = 60) -> dict:
    """Finite-difference validation of the coefficient-derivative formula."""
    rng = np.random.default_rng(seed)
    slopes = []
    n_skipped = 0
    n_drawn = 0
    while len(slopes) < n_target and n_drawn < n_max:
        it = instances.random_h2_instance(rng)
        n_drawn += 1
        res = _fd_slope(it, tol)
        if res["measurable"]:
            slopes.append(res["slope"])
        else:
            n_skipped += 1
    lo, hi = FD_SLOPE_RANGE
    in_range = [lo <= s <= hi for s in slopes]
    return {
        "n_measured": len(slopes),
        "n_skipped_at_floor": n_skipped,
        "n_drawn": n_drawn,
        "slope_min": min(slopes) if slopes else float("nan"),
        "slope_max": max(slopes) if slopes else float("nan"),
        "pass": bool(len(slopes) >= n_target and all(in_range)),
    }


def suite_certificate(seed: int, tol: Tolerances, n: int = 20, n_grid: int = 200) -> dict:
    """Exponential-envelope certificates on generated 1-d instances."""
    suite = instances.h2_suite(n, seed)
    worst_slack = float("inf")
    n_fail = 0
    for it in suite:
        cert = bound1d.certify_bound(
            it.points, it.basis, it.weight, n_grid=n_grid, tol=tol
        )
        worst_slack = min(worst_slack, float(min(cert.slack)))
        if not cert.passed:
            n_fail += 1
    return {
        "n": n,
        "n_grid": n_grid,
        "worst_min_slack": worst_slack,
        "n_fail": n_fail,
        "pass": bool(n_fail == 0 and worst_slack >= -tol.bound),
    }


def suite_diff_matrix(seed: int, tol: Tolerances, l_max: int = 8) -> dict:
    """Singular values of the monomial differentiation matrix are 0..l-1."""
    worst = 0.0
    for l in range(1, l_max + 1):
        sv = np.linalg.svd(bound1d.monomial_diff_matrix(l), compute_uv=False)
        expect = np.arange(l - 1, -1, -1, dtype=float)
        worst = max(worst, float(np.max(np.abs(np.sort(sv)[::-1] - expect))))
    return {"l_max": l_max, "worst_dev": worst, "pass": bool(worst <= 1e-12)}


def suite_convergence(seed: int, tol: Tolerances) -> dict:
    """Grid-refinement study plus order-monotonicity battery."""
    study = error_analysis.convergence_study(
        np.sin, l=2, domain=(0.0, 3.0), h0=0.2, alpha0=1.0, policy="scaled"
    )
    battery = {}
    battery_ok = True
    for name, f in error_analysis.TEST_FUNCTIONS.items():
        orders = []
        for l in (1, 2, 3):
            s = error_analysis.convergence_study(
                f, l=l, domain=(-1.0, 1.0), h0=0.1, alpha0=1.0, policy="scaled"
            )
            orders.append(s.observed_order)
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


def run_suite(name: str, seed: int, tol: Tolerances = Tolerances(), **kw) -> dict:
    """Run one suite; ``kw`` goes to the suite function."""
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}") from None
    return fn(seed, tol, **kw)


def run_selftest(seed: int = 42, tol: Tolerances = Tolerances(), suites=None) -> dict:
    names = SUITE_NAMES if suites is None else tuple(suites)
    # core and spectral check the same seeded instances: draw them once per
    # call, never across calls, so every run pays for its own draw
    general = None
    if not set(names).isdisjoint(_GENERAL_SUITES):
        general = instances.random_suite(GENERAL_N, seed)
    reports = {}
    for name in names:
        kw = {"suite": general} if name in _GENERAL_SUITES else {}
        reports[name] = run_suite(name, seed, tol, **kw)
    return {
        "seed": int(seed),
        "tolerances": tol.to_dict(),
        "suites": reports,
        "pass": bool(all(r["pass"] for r in reports.values())),
    }
