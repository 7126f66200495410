"""Operator structure: oblique projection, spectra, scaled symmetry,
positivity, and the norm chains."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlscert.bases import monomial_basis
from mlscert.config import Tolerances
from mlscert.core import build_rows, build_system
from mlscert.instances import random_suite
from mlscert.points import PointSet
from mlscert import core
from mlscert.reporting import canonical_json
from mlscert.spectral import build_operators, coef_map_stack, diagnose, diagnose_each
from mlscert.weights import WeightSpec

TOL = Tolerances()


def _system(m=5, l=2, alpha=1.0, x=0.37):
    nodes = np.linspace(0.0, 1.0, m)
    pts = PointSet(nodes, values=np.sin(nodes))
    return build_system(x, pts, monomial_basis(l), WeightSpec("exp", alpha))


def _bundle(m=5, l=2, alpha=1.0, x=0.37):
    return build_operators(_system(m, l, alpha, x))


def _report(section, m=5, l=2):
    """One section of the ``diagnose`` report of ``_system(m, l)``."""
    return diagnose(_system(m, l), TOL)[section]


def test_projector_idempotent():
    b = _bundle()
    np.testing.assert_allclose(b.proj @ b.proj, b.proj, atol=1e-12)


def test_projector_shape_and_trace():
    b = _bundle(m=7, l=3)
    assert b.proj.shape == (7, 7)
    assert np.trace(b.proj) == pytest.approx(3.0, abs=1e-10)


def test_complement_annihilates_projector():
    b = _bundle(m=6, l=2)
    np.testing.assert_allclose(b.comp @ b.proj, np.zeros((6, 6)), atol=1e-12)


def test_square_case_projector_is_identity():
    b = _bundle(m=3, l=3)
    np.testing.assert_allclose(b.proj, np.eye(3), atol=1e-9)


def test_coef_map_recovers_coefficients():
    """Applying the coefficient map to the basis at x gives the fit weights."""
    nodes = np.linspace(0.0, 1.0, 6)
    pts = PointSet(nodes)
    basis = monomial_basis(3)
    sysm = build_system(0.444, pts, basis, WeightSpec("exp", 0.8))
    b = build_operators(sysm)
    np.testing.assert_allclose(
        b.coef_map @ sysm.basis_at_x, sysm.coeffs, atol=1e-13
    )


def test_scaled_operators_symmetric():
    res = _report("symmetry", m=8, l=3)
    assert res["proj_dinv"] <= 1e-10
    assert res["comp_dinv"] <= 1e-10


def test_symmetry_scale_is_shared_for_square_systems():
    """m = l makes the complement numerically zero; its asymmetry must be
    measured against the projector's scale, not its own roundoff norm."""
    res = _report("symmetry", m=4, l=4)
    assert res["comp_dinv"] <= 1e-10


def test_eigenvalue_clusters():
    rep = _report("eigen", m=9, l=4)
    # projector: l ones and m-l zeros; complement: l zeros and m-l at -1
    assert rep["proj"]["counts"] == [4, 5]
    assert rep["comp"]["counts"] == [4, 5]
    assert rep["proj"]["max_dev"] <= 1e-8
    assert rep["comp"]["max_dev"] <= 1e-8
    assert rep["counts_ok"]


def test_eigenvalues_against_dense_oracle():
    """The symmetrized eigenvalue route agrees with a dense nonsymmetric
    solve on the raw projector."""
    b = _bundle(m=7, l=2)
    dense = np.sort(np.linalg.eigvals(b.proj).real)
    rep = diagnose(b.system, TOL)["eigen"]
    mine = np.sort(np.asarray(rep["proj"]["eigenvalues"]))
    np.testing.assert_allclose(mine, dense, atol=1e-9)


def test_psd_checks():
    rep = _report("psd", m=6, l=3)
    assert rep["pass"]
    assert rep["proj_dinv_min_eig"] >= -1e-10 * rep["scale"]
    assert rep["neg_comp_dinv_min_eig"] >= -1e-10 * rep["scale"]


def test_norm_chain():
    rep = _report("norms", m=8, l=2)
    assert rep["pass"]
    names = {c["name"] for c in rep["checks"]}
    assert "one_le_proj_smax" in names
    assert "proj_smax_le_sqrt_cond_d" in names


def test_norm_chain_reports_sqrt_convention_field():
    """The upper end of the chain is the sharp bound ||P|| <= sqrt(cond D),
    asserted at that scale; no looser right-hand side is reported."""
    rep = _report("norms", m=5, l=2)
    chain = {c["name"]: c for c in rep["checks"]}
    entry = chain["proj_smax_le_sqrt_cond_d"]
    sqrt_cond_d = np.sqrt(rep["cond_d"])
    assert entry["rhs"] == sqrt_cond_d and entry["scale"] == sqrt_cond_d
    assert entry["slack"] == sqrt_cond_d - rep["smax_proj"]
    assert "rhs_sqrt_convention" not in entry


def test_interpolation_limit_rejected():
    pts = PointSet(np.array([0.0, 1.0, 2.0]))
    sysm = build_system(1.0, pts, monomial_basis(2), WeightSpec("shepard", 1.0))
    with pytest.raises(ValueError):
        build_operators(sysm)


def test_diagnose_full_report():
    nodes = np.linspace(0.0, 2.0, 6)
    sysm = build_system(0.9, PointSet(nodes), monomial_basis(2), WeightSpec("exp", 1.0))
    d = diagnose(sysm, TOL)
    assert d["pass"]
    assert set(d) == {"symmetry", "eigen", "psd", "norms", "idempotence", "trace_dev",
                      "pass", "tolerances"}
    assert d["tolerances"] == TOL.to_dict()


def test_diagnose_over_random_instances():
    for it in random_suite(40, 7):
        assert diagnose(it.system(), TOL)["pass"], it.meta


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_trace_counts_basis_size(seed):
    it = random_suite(1, seed)[0]
    b = build_operators(it.system())
    assert np.trace(b.proj) == pytest.approx(it.basis.size, abs=1e-8)


@pytest.mark.parametrize("family", ["exp", "shepard", "levin"])
def test_operator_stack_rows_match_build_operators(family):
    """A stacked block of coefficient maps, and its projectors
    coef_map @ design.T, give each system's operators bit for bit."""
    rng = np.random.default_rng(11)
    nodes = np.sort(rng.uniform(0.0, 2.0, 9))
    pts = PointSet(nodes)
    systems = [
        build_system(x, pts, monomial_basis(3), WeightSpec(family, 1.3))
        for x in rng.uniform(-0.2, 2.2, 25)
    ]
    coef_map = coef_map_stack(
        np.stack([s.qmat for s in systems]),
        np.stack([s.rmat for s in systems]),
        np.sqrt(np.stack([s.dvec for s in systems])),
    )
    proj = coef_map @ systems[0].design.T
    for i, sysm in enumerate(systems):
        b = build_operators(sysm)
        assert coef_map[i].tobytes() == b.coef_map.tobytes()
        assert proj[i].tobytes() == b.proj.tobytes()


def test_diagnose_each_matches_diagnose_across_blocks(monkeypatch):
    """Blocks of 4 systems, the last one short: every report equals the
    one-system ``diagnose`` report, bit for bit."""
    # a budget of four (7, 7) operators
    monkeypatch.setattr(core, "_BLOCK_DOUBLES", 4 * 7 * 7)
    assert core._block_rows(7) == 4
    systems = [_system(m=7, l=3, x=x) for x in np.linspace(-0.3, 1.3, 11)]
    got = [canonical_json(rep) for rep in diagnose_each(systems, TOL)]
    want = [canonical_json(diagnose(s, TOL)) for s in systems]
    assert got == want


def test_diagnose_each_replays_a_failing_block(monkeypatch):
    """A system at an interpolation-limit node in the second block raises
    what ``diagnose`` raises for it."""
    monkeypatch.setattr(core, "_BLOCK_DOUBLES", 4 * 7 * 7)
    assert core._block_rows(7) == 4
    pts = PointSet(np.linspace(0.0, 1.0, 7))
    basis, weight = monomial_basis(3), WeightSpec("mclain", 1.0)
    xs = [0.05, 0.3, 0.45, 0.6, 0.7, 0.8, 1.0 / 6.0, 0.9]
    systems = [build_system(x, pts, basis, weight) for x in xs]
    with pytest.raises(ValueError) as want:
        diagnose(systems[6], TOL)
    with pytest.raises(ValueError) as got:
        diagnose_each(systems, TOL)
    assert str(got.value) == str(want.value)
    assert len(diagnose_each(systems[:6], TOL)) == 6


def test_diagnose_each_peak_memory():
    """256 systems of 60 nodes run in blocks of the budget: beside the
    reports it keeps, the traced memory peaks below eight stacks of
    ``_BLOCK_DOUBLES`` doubles (4 MiB), while one (256, 60, 60) stack of
    all the systems would take 7.4 MB."""
    pts = PointSet(np.linspace(0.0, 1.0, 60))
    xs = np.linspace(0.013, 0.987, 256)[:, None]
    blocks = build_rows(xs, pts, monomial_basis(3), WeightSpec("exp", 1.0), conds=True)
    systems = [sysm for _, rows in blocks for sysm in rows.systems()]
    diagnose_each(systems[:2], TOL)  # numpy's first calls allocate once
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        reports = diagnose_each(systems, TOL)
        kept, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(reports) == 256
    assert peak - kept < 8 * 8 * core._BLOCK_DOUBLES
