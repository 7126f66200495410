"""Acceptance battery: one test per certified claim, at its stated tolerance.

Every test prints a single ``[PASS]``/``[FAIL]`` verdict line (visible with
``pytest -s`` or in the captured output of a failure) and then asserts, so
``pytest -v tests/test_acceptance.py`` reads as the acceptance report.
All suites use seed 42 and the standard instance generators.
"""

import math

import numpy as np
import pytest

from mlscert import bound1d, error_analysis, instances, selftest
from mlscert.cli import main
from mlscert.config import Tolerances
from mlscert.core import build_system
from mlscert.spectral import (
    build_operators,
    check_eig_products,
    diagnose,
)

SEED = 42
N_INSTANCES = 200
TOL = Tolerances()


def _verdict(ok: bool, label: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


@pytest.fixture(scope="module")
def spectral_material():
    """200 generated instances with systems and operator bundles."""
    out = []
    for it in instances.random_suite(N_INSTANCES, SEED):
        sysm = it.system()
        out.append((it, sysm, build_operators(sysm)))
    return out


def test_criterion_01_scaled_operators_symmetric(spectral_material):
    worst = 0.0
    for _, sysm, _ in spectral_material:
        res = diagnose(sysm, TOL)["symmetry"]
        worst = max(worst, res["proj_dinv"], res["comp_dinv"])
    ok = worst <= 1e-10
    assert _verdict(
        ok,
        "criterion 01 symmetry of scaled operators",
        f"worst relative residual {worst:.3e} over {N_INSTANCES} instances (tol 1e-10)",
    )


def test_criterion_02_eigenvalue_clusters(spectral_material):
    worst_dev = 0.0
    counts_ok = True
    for it, sysm, _ in spectral_material:
        rep = diagnose(sysm, TOL)
        m, l = it.meta["m"], it.meta["l"]
        for side in ("proj", "comp"):
            e = rep["eigen"][side]
            counts_ok = counts_ok and e["counts"] == [l, m - l]
            worst_dev = max(worst_dev, e["max_dev"])
    ok = counts_ok and worst_dev <= 1e-8
    assert _verdict(
        ok,
        "criterion 02 eigenvalue clustering",
        f"counts exact on all instances: {counts_ok}; "
        f"worst cluster deviation {worst_dev:.3e} (tol 1e-8)",
    )


def test_criterion_03_scaled_operators_semidefinite(spectral_material):
    worst_min = 0.0  # most negative min-eig relative to the scale
    worst_lmax = -np.inf  # largest upper-bound excess relative to the scale
    for _, sysm, bundle in spectral_material:
        scale = 1.0 / float(np.min(sysm.dvec))  # = ||D^{-1}||_2 = 1/lambda_min(D)
        ev_p = np.linalg.eigvalsh(0.5 * (bundle.proj_dinv + bundle.proj_dinv.T))
        ev_c = np.linalg.eigvalsh(-0.5 * (bundle.comp_dinv + bundle.comp_dinv.T))
        worst_min = min(worst_min, ev_p[0] / scale, ev_c[0] / scale)
        worst_lmax = max(worst_lmax, (ev_p[-1] - scale) / scale)
    ok = worst_min >= -1e-10 and worst_lmax <= 1e-12
    assert _verdict(
        ok,
        "criterion 03 semidefiniteness and top-eigenvalue cap",
        f"worst scaled min-eig {worst_min:.3e} (tol -1e-10); "
        f"worst scaled top-eig excess {worst_lmax:.3e} (tol 1e-12)",
    )


def test_criterion_04_singular_value_norm_chain(spectral_material):
    worst_lower = np.inf
    worst_upper = -np.inf
    worst_product = -np.inf
    worst_inverse = -np.inf
    for _, sysm, bundle in spectral_material:
        dmin, dmax = float(np.min(sysm.dvec)), float(np.max(sysm.dvec))
        sqrt_cond_d = math.sqrt(dmax / dmin)
        smax = float(np.linalg.svd(bundle.proj, compute_uv=False)[0])
        smax_dinv = float(np.linalg.svd(bundle.proj_dinv, compute_uv=False)[0])
        worst_lower = min(worst_lower, smax)
        worst_upper = max(worst_upper, (smax - sqrt_cond_d) / sqrt_cond_d)
        prod_scale = max(smax_dinv, 1.0 / dmax)
        worst_product = max(worst_product, (smax / dmax - smax_dinv) / prod_scale)
        worst_inverse = max(worst_inverse, (smax_dinv - 1.0 / dmin) * dmin)
    ok = (
        worst_lower >= 1.0 - 1e-10
        and worst_upper <= 1e-10
        and worst_product <= 1e-12
        and worst_inverse <= 1e-12
    )
    assert _verdict(
        ok,
        "criterion 04 singular-value norm chain",
        f"min smax {worst_lower:.12f} (>= 1-1e-10); "
        f"worst scaled excess over sqrt(cond D) {worst_upper:.3e} (tol 1e-10); "
        f"worst product-bound excess {worst_product:.3e}, "
        f"worst inverse-bound excess {worst_inverse:.3e} (tol 1e-12)",
    )


def test_criterion_05_eigenvalue_product_sandwich():
    pairs = instances.matrix_pair_suite(N_INSTANCES, SEED)
    n_violations = 0
    worst_oracle = 0.0
    n_pd_sandwich = 0
    for p in pairs:
        rep = check_eig_products(p["umat"], p["vmat"], TOL)
        n_violations += sum(rep["violated"])
        if rep["pd_applicable"]:
            n_pd_sandwich += 1
            if not rep["pd_pass"]:
                n_violations += 1
        lam = np.sort(np.linalg.eigvals(p["umat"] @ p["vmat"]).real)
        mine = np.sort(np.asarray(rep["product_eigenvalues"]))
        scale = max(1.0, float(np.max(np.abs(lam))))
        worst_oracle = max(worst_oracle, float(np.max(np.abs(mine - lam))) / scale)
    ok = n_violations == 0 and worst_oracle <= 1e-9
    assert _verdict(
        ok,
        "criterion 05 eigenvalue-product sandwich",
        f"{n_violations} violations beyond 1e-12 slack over {len(pairs)} pairs "
        f"({n_pd_sandwich} with the both-PD two-sided sandwich); "
        f"dense-oracle deviation {worst_oracle:.3e}",
    )


def test_criterion_06_derivative_matches_finite_differences():
    res = selftest.run_selftest(SEED, TOL, suites=("ode",))["suites"]["ode"]
    ok = (
        res["n_measured"] >= 20
        and res["slope_min"] >= 1.7
        and res["slope_max"] <= 2.3
        and res["n_oracle"] > 0
        and res["oracle_max_rel"] <= TOL.lin
    )
    assert _verdict(
        ok,
        "criterion 06 coefficient-derivative finite-difference slopes",
        f"{res['n_measured']} measurable instances "
        f"({res['n_skipped_at_floor']} below the cancellation floor); "
        f"slopes in [{res['slope_min']:.3f}, {res['slope_max']:.3f}] "
        f"(required 2.0 +/- 0.3); product-rule oracle {res['oracle_max_rel']:.3e} "
        f"over {res['n_oracle']} instances (tolerance {TOL.lin:.0e})",
    )


def test_criterion_07_growth_envelope_certificates():
    worst_slack = np.inf
    worst_comp_margin = np.inf
    worst_forcing_margin = np.inf
    suite = instances.H2Stream(SEED).first(20)
    for it in suite:
        cert = bound1d.certify_bound(
            it.points, it.basis, it.weight, n_grid=200, tol=TOL
        )
        worst_slack = min(worst_slack, float(np.min(cert.slack)))
        worst_comp_margin = min(worst_comp_margin, cert.majorants["comp_h_margin"])
        worst_forcing_margin = min(
            worst_forcing_margin, cert.majorants["forcing_margin"]
        )
    ok = (
        worst_slack >= -1e-9
        and worst_comp_margin >= -1e-9
        and worst_forcing_margin >= -1e-9
    )
    assert _verdict(
        ok,
        "criterion 07 growth-envelope certificates",
        f"{len(suite)} instances, 200-point grids; worst slack {worst_slack:.3e} "
        f"(tol -1e-9); majorant margins {worst_comp_margin:.3e} / "
        f"{worst_forcing_margin:.3e}",
    )


def test_criterion_08_differentiation_matrix_singular_values():
    worst = 0.0
    for l in range(1, 9):
        sv = np.sort(np.linalg.svd(bound1d.monomial_diff_matrix(l), compute_uv=False))
        worst = max(worst, float(np.max(np.abs(sv - np.arange(l, dtype=float)))))
    ok = worst <= 1e-12
    assert _verdict(
        ok,
        "criterion 08 differentiation-matrix singular values",
        f"worst deviation from 0..l-1 over l in 1..8: {worst:.3e} (tol 1e-12)",
    )


def test_criterion_09_core_fitting_invariants():
    res = selftest.run_selftest(SEED, TOL, suites=("core",))["suites"]["core"]
    ok = (
        res["worst_unity"] <= 1e-9
        and res["worst_reproduction"] <= 1e-9
        and res["worst_scale_invariance"] <= 1e-10
        and res["worst_oracle_rel"] <= 1e-8
        and res["worst_node_interpolation"] == 0.0
    )
    assert _verdict(
        ok,
        "criterion 09 core fitting invariants",
        f"unity {res['worst_unity']:.3e} (tol 1e-9); "
        f"reproduction {res['worst_reproduction']:.3e} (tol 1e-9); "
        f"scaling invariance {res['worst_scale_invariance']:.3e} of max(1, ||a||) (tol 1e-10); "
        f"normal-equations agreement {res['worst_oracle_rel']:.3e} over "
        f"{res['n_oracle']} instances (tol 1e-8); "
        f"node interpolation error {res['worst_node_interpolation']:.1e} (exact)",
    )


def test_criterion_10_convergence_order():
    study = error_analysis.convergence_study(
        np.sin, l=2, domain=(0.0, 3.0), h0=0.2, n_levels=3,
        alpha0=1.0, policy="scaled",
    )
    ok = study.observed_order >= 1.8
    assert _verdict(
        ok,
        "criterion 10 grid-refinement convergence order",
        f"sup errors {[f'{e:.3e}' for e in study.sup_errors]}; "
        f"observed order {study.observed_order:.3f} (floor 1.8)",
    )


def test_criterion_11_selftest_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    code1 = main(["selftest", "--seed", "42", "--out", str(out1)])
    code2 = main(["selftest", "--seed", "42", "--out", str(out2)])
    capsys.readouterr()  # drop the verdict chatter from the two runs
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    assert _verdict(
        ok,
        "criterion 11 selftest determinism",
        f"two seed-42 runs exit ({code1}, {code2}) and are byte-identical: "
        f"{identical} ({out1.stat().st_size} bytes)",
    )
