"""The 1-d coefficient-growth machinery: log-derivative diagonal, the
derivative identity for the coefficient vector, envelope constants, and the
grid certificate."""

import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mlscert import bound1d, cli, core, instances, selftest, spectral
from mlscert.bases import monomial_basis
from mlscert.bound1d import (
    BoundConstants,
    bound_constants,
    certify_bound,
    check_hypotheses_1d,
    dlogw_diag,
    monomial_diff_matrix,
    ode_rhs,
    uniform_grid,
)
from mlscert.config import Tolerances
from mlscert.core import (
    ConditioningError,
    HypothesisFailure,
    build_system,
)
from mlscert.points import PointSet
from mlscert.reporting import canonical_json
from mlscert.spectral import build_operators
from mlscert.weights import WeightSpec

PTS3 = PointSet(np.array([0.0, 1.0, 2.0]), values=np.array([0.0, 1.0, 2.0]))


def test_dlogw_diag_example():
    np.testing.assert_allclose(dlogw_diag(1.0, PTS3, 1.0), [2.0, 0.0, -2.0], rtol=0)


def test_weight_derivative_identity_fd():
    """D' = H D for the exponential family: a central difference of the
    weight diagonal matches dlogw_diag * dvec, and halving the step does
    not make it worse."""
    x, alpha = 1.0, 1.0
    weight = WeightSpec("exp", alpha)

    def dvec(at):
        return build_system(at, PTS3, monomial_basis(2), weight).dvec

    analytic = dlogw_diag(x, PTS3, alpha) * dvec(x)

    def residual(h):
        fd = (dvec(x + h) - dvec(x - h)) / (2.0 * h)
        return np.max(np.abs(fd - analytic)) / np.max(np.abs(analytic))

    assert residual(1e-5) <= 1e-9
    assert residual(1e-5) <= residual(2e-5)


def test_diff_matrix_entries():
    mat = monomial_diff_matrix(4)
    expected = np.zeros((4, 4))
    expected[1, 0], expected[2, 1], expected[3, 2] = 1.0, 2.0, 3.0
    np.testing.assert_array_equal(mat, expected)


def test_diff_matrix_differentiates_basis_vector():
    basis = monomial_basis(4)
    x = np.atleast_1d(0.5)
    c = basis.eval_at(x)
    dc = monomial_diff_matrix(4) @ c
    np.testing.assert_allclose(dc, [0.0, 1.0, 1.0, 0.75], atol=1e-15)


def test_diff_matrix_singular_values():
    for l in range(1, 9):
        sv = np.linalg.svd(monomial_diff_matrix(l), compute_uv=False)
        np.testing.assert_allclose(
            np.sort(sv)[::-1], np.arange(l - 1, -1, -1, dtype=float), atol=1e-12
        )


def test_ode_rhs_matches_finite_difference():
    pts = PointSet(np.linspace(0.0, 2.0, 6))
    basis = monomial_basis(2)
    weight = WeightSpec("exp", 0.8)
    x = 0.73
    sysm = build_system(x, pts, basis, weight)
    rhs = ode_rhs(sysm, build_operators(sysm), pts, basis, 0.8)
    h = 1e-6
    fd = (
        build_system(x + h, pts, basis, weight).coeffs
        - build_system(x - h, pts, basis, weight).coeffs
    ) / (2.0 * h)
    assert np.linalg.norm(fd - rhs) / np.linalg.norm(rhs) <= 1e-7


def test_hypotheses_1d_pass():
    assert check_hypotheses_1d(PTS3, monomial_basis(2), WeightSpec("exp", 1.0)) == []


def test_hypotheses_1d_failures():
    failed = check_hypotheses_1d(PTS3, monomial_basis(2), WeightSpec("shepard", 1.0))
    assert "exp_weight_family" in failed

    unsorted_pts = PointSet(np.array([1.0, 0.0, 2.0]))
    failed = check_hypotheses_1d(unsorted_pts, monomial_basis(2), WeightSpec("exp", 1.0))
    assert "nodes_increasing" in failed

    planar = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    failed = check_hypotheses_1d(planar, monomial_basis(1, 2), WeightSpec("exp", 1.0))
    assert failed == ["dimension_one", "basis_derivative_available"]


# --- envelope constants -----------------------------------------------------


def test_constants_are_the_sqrt_chain():
    """M2 = 2 alpha r (1 + sqrt(exp(alpha r^2))) and M11 =
    sqrt(exp(alpha r^2)) / smin(E), from ||P|| <= sqrt(cond D) and
    ||A0|| <= sqrt(cond D) / smin(E), bit for bit; no other set of
    constants is reported."""
    consts = bound_constants(PTS3, monomial_basis(2), alpha=1.0)
    r = 2.0
    root = math.sqrt(math.exp(r * r))
    assert consts.span == r
    assert consts.growth_rate == 2.0 * 1.0 * r * (1.0 + root)
    assert consts.coef_norm_bound == root / consts.sigma_min_design_t
    assert consts.forcing_bound == consts.coef_norm_bound * consts.slope_sup
    assert not any(key.startswith(("m2_", "m11_")) for key in consts.metadata)


def test_slope_sup_symmetric_linear_basis():
    """For monomials {1, x} the basis-derivative norm is constant 1."""
    pts = PointSet(np.linspace(-1.0, 1.0, 5))
    consts = bound_constants(pts, monomial_basis(2), alpha=0.5)
    assert consts.slope_sup == pytest.approx(1.0, rel=1e-12)


def test_diff_matrix_metadata_always_emitted():
    """Every basis is 1, x, ..., x^(l-1), the basis the differentiation
    matrix acts on, so its fields are always reported."""
    pts = PointSet(np.linspace(0.0, 1.0, 5))
    for l in range(1, 5):
        meta = bound_constants(pts, monomial_basis(l), alpha=1.0).metadata
        assert meta["diff_matrix_smax"] == pytest.approx(l - 1, abs=1e-12)
        assert meta["diff_matrix_norm_sqrt_claim"] == math.sqrt(l - 1)
        assert meta["slope_closed_form_applicable"] is True
    graded = bound_constants(pts, monomial_basis(2), alpha=1.0)
    assert graded.metadata["slope_closed_form_paper"] == graded.slope_sup == 1.0


def test_constant_basis_has_zero_forcing():
    consts = bound_constants(PTS3, monomial_basis(1), alpha=1.0)
    assert consts.forcing_bound == 0.0


def test_constants_serializable():
    consts = bound_constants(PTS3, monomial_basis(2), alpha=0.5)
    d = consts.to_dict()
    assert sorted(d) == [
        "alpha", "coef_norm_bound", "forcing_bound", "growth_rate", "metadata",
        "sigma_min_design_t", "slope_sup", "span",
    ]
    assert BoundConstants(**{**consts.__dict__}) == consts


# --- grid helpers -----------------------------------------------------------


def test_nearest_node_tie_goes_to_smaller_index():
    """The envelope is anchored at the nearest node; at the midpoint of two
    nodes the smaller index wins."""
    pts = PointSet(np.array([0.0, 1.0]), values=np.array([0.0, 1.0]))
    cert = certify_bound(pts, monomial_basis(1), WeightSpec("exp", 1.0), grid=[0.5, 0.51])
    assert cert.k0.tolist() == [0, 1]


@pytest.mark.parametrize("family", ["shepard", "mclain", "levin", "exp"])
def test_uniform_grid_nudge_matches_per_point_reference(family):
    """The stacked nudge moves the same grid points by the same bits as a
    check per grid point."""
    rng = np.random.default_rng(4)
    # grid points land on 31 nodes or within 1e-13 of them, 5e-13 from one
    # more, and 2e-12 from the last, which keeps its place
    xs = np.concatenate([np.linspace(0.0, 3.0, 31), [0.35 + 5e-13, 0.75 + 2e-12]])
    pts = PointSet(np.sort(xs + rng.choice([0.0, 1e-13], xs.size) * (xs > 0)))
    weight = WeightSpec(family, 1.0)
    grid = uniform_grid(pts, 301, weight)
    nodes = pts.nodes[:, 0]
    ref = np.linspace(nodes.min(), nodes.max(), 301)
    if weight.interpolating:
        r = float(nodes.max() - nodes.min())
        for i, g in enumerate(ref):
            if np.min(np.abs(nodes - g)) < 1e-12:
                ref[i] = g + 1e-9 * r
    assert grid.tobytes() == ref.tobytes()
    nudged = int(np.sum(grid != np.linspace(nodes.min(), nodes.max(), 301)))
    assert nudged == (32 if weight.interpolating else 0)


def test_uniform_grid_plain():
    grid = uniform_grid(PTS3, 5, WeightSpec("exp", 1.0))
    np.testing.assert_allclose(grid, [0.0, 0.5, 1.0, 1.5, 2.0], rtol=0)


def test_uniform_grid_nudges_for_interpolating_weights():
    grid = uniform_grid(PTS3, 5, WeightSpec("shepard", 1.0))
    assert np.min(np.abs(grid[:, None] - PTS3.nodes.ravel()[None, :])) > 0.0


# --- the certificate itself -------------------------------------------------


def test_certificate_on_wide_stencil():
    xs = np.linspace(0.0, 4.0, 5)
    pts = PointSet(xs, values=np.sin(xs))
    cert = certify_bound(pts, monomial_basis(2), WeightSpec("exp", 0.5), n_grid=200)
    assert cert.passed
    assert min(cert.slack) >= -1e-9
    # anchors: the envelope is tight at the reference node of its own segment
    assert min(cert.slack) == 0.0
    assert cert.majorants["pass"]
    assert cert.majorants["comp_h_upper"] <= cert.majorants["growth_rate"] + 1e-9


def test_certificate_paper_convention():
    """A certificate on the constants the paper proves passes."""
    xs = np.linspace(0.0, 4.0, 5)
    pts = PointSet(xs, values=np.sin(xs))
    cert = certify_bound(pts, monomial_basis(2), WeightSpec("exp", 0.5), n_grid=100)
    assert cert.passed


def test_certificate_envelope_clipping_keeps_validity():
    """Huge growth rates overflow the envelope; it clips at the largest
    double, which only lowers the right-hand side."""
    xs = np.linspace(0.0, 10.0, 6)
    pts = PointSet(xs, values=np.cos(xs))
    cert = certify_bound(pts, monomial_basis(2), WeightSpec("exp", 2.0), n_grid=50)
    assert cert.passed
    assert np.max(cert.rhs) <= np.finfo(float).max


def test_certificate_builds_the_design_and_its_svd_once(monkeypatch):
    """One certificate builds the design once and takes its SVD once, for
    the hypotheses, the constants and the solves."""
    xs = np.linspace(0.0, 3.0, 9)
    pts, basis = PointSet(xs, values=np.sin(xs)), monomial_basis(3)
    calls = {"design": 0, "svd": 0}
    build, svd = bound1d.build_design, np.linalg.svd

    def counted_build(*args):
        calls["design"] += 1
        return build(*args)

    def counted_svd(a, *args, **kwargs):
        calls["svd"] += np.shape(a) == (9, 3)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(bound1d, "build_design", counted_build)
    monkeypatch.setattr(core, "build_design", counted_build)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    cert = certify_bound(pts, basis, WeightSpec("exp", 1.0), n_grid=50)
    assert calls == {"design": 1, "svd": 1}
    monkeypatch.undo()
    assert cert.constants == bound_constants(pts, basis, alpha=1.0)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 40),
    l=st.integers(1, 4),
    log_alpha=st.floats(math.log(0.05), math.log(20.0)),
    log_span=st.floats(math.log(1e-3), math.log(3.0)),
    between=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_envelope_at_a_node_is_its_anchor_norm(m, l, log_alpha, log_span, between, seed):
    """On a grid through every node, the envelope at a node is exactly
    the anchor norm b = ||a(x_k)||, which lhs equals bit for bit there:
    the slack is exactly 0, not an ulp below it."""
    rng = np.random.default_rng(seed)
    span = math.exp(log_span)
    xs = np.unique(np.concatenate([[0.0, span], rng.uniform(0.0, span, m - 2)]))
    pts = PointSet(xs, values=np.cos(xs))
    weight = WeightSpec("exp", math.exp(log_alpha))
    assume(weight.alpha * span * span < bound1d._MAX_LOG)
    fill = [np.linspace(a, b, between + 2)[1:-1] for a, b in zip(xs[:-1], xs[1:])]
    grid = np.sort(np.concatenate([xs, *fill]))
    try:
        cert = certify_bound(pts, monomial_basis(min(l, len(xs))), weight, grid=grid)
    except (ConditioningError, HypothesisFailure):
        assume(False)
    on_node = np.isin(cert.xs, xs)
    assert on_node.sum() == len(xs)
    assert np.all(cert.slack[on_node] == 0.0)
    assert np.all(cert.rhs[on_node] == cert.lhs[on_node])


def _bench_bound_jobs(seed: int) -> list:
    """The benchmark's ``bound`` jobs of a seed, from
    ``perfbench/workloads.py``, loaded without writing bytecode there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
        del sys.modules[spec.name]
    return module.make_jobs("bound", seed)


def test_benchmark_certificates_have_no_negative_slack():
    """The 80 certificates of the benchmark's ``bound`` jobs of seeds 42,
    7, 3, 1 and 2 pass without the slack tolerance: 7 of them had a min
    slack of -2.8e-17 or -5.6e-17 at a node, where exp(log b) fell one
    ulp below b."""
    for seed in (42, 7, 3, 1, 2):
        for job in _bench_bound_jobs(seed):
            spec = job.spec
            pts = PointSet(spec["nodes"][:, 0], values=spec["values"])
            weight = WeightSpec("exp", spec["alpha"])
            cert = certify_bound(pts, monomial_basis(spec["l"]), weight,
                                 grid=uniform_grid(pts, spec["n"], weight))
            assert float(np.min(cert.slack)) >= 0.0, (seed, job.name)


def test_certificate_hypothesis_errors_keep_their_order():
    """With the design built up front, a certificate still fails first on
    the design (a dimension mismatch or an overflowing node), then on the
    structural items in their order, then on the constants."""
    exp = WeightSpec("exp", 1.0)
    planar = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="basis expects dim 1, nodes have dim 2"):
        certify_bound(planar, monomial_basis(2), exp)
    with pytest.raises(HypothesisFailure) as err:
        certify_bound(planar, monomial_basis(3, 2), WeightSpec("shepard", 1.0))
    assert err.value.items == ["dimension_one", "basis_derivative_available",
                               "exp_weight_family"]
    assert err.value.measured == ""
    with pytest.raises(ValueError, match=r"basis values at node 1e\+200 are not finite"):
        certify_bound(PointSet(np.array([0.0, 1.0, 1e200])), monomial_basis(3), exp)
    with pytest.raises(HypothesisFailure) as err:
        certify_bound(PointSet(np.array([1.0, 0.0, 2.0])), monomial_basis(4), exp)
    assert err.value.items == ["nodes_increasing", "basis_size_le_nodes", "design_full_rank"]
    assert err.value.measured == ": l 4 > m 3, design rank 3 < l 4"
    with pytest.raises(ValueError, match="need at least two nodes"):
        certify_bound(PointSet(np.array([1.0])), monomial_basis(1), exp)


def test_certificate_rejects_wrong_family():
    with pytest.raises(HypothesisFailure) as err:
        certify_bound(PTS3, monomial_basis(2), WeightSpec("mclain", 1.0), n_grid=10)
    assert "exp_weight_family" in err.value.items


@pytest.mark.parametrize("grid", [
    [-9e-13, 0.0, 2e-14],
    [0.0, 2e-14, 4e-14 + 9e-13],
    [-5e-324, 2e-14],  # the double next to x_1 = 0, below it
])
def test_certificate_refuses_a_grid_point_outside_the_nodes(grid):
    """The constants are proven on [x_1, x_m] only, so a grid point
    outside it by any amount is refused.  On a span of 4e-14, points
    9e-13 outside once gave a sigma_max((P - I) H) above growth_rate
    and a pass."""
    pts = PointSet(np.arange(5) * 1e-14, values=np.zeros(5))
    basis, weight = monomial_basis(1), WeightSpec("exp", 1.0)
    with pytest.raises(ValueError, match=r"^grid must lie within \[x_1, x_m\]$"):
        certify_bound(pts, basis, weight, grid=np.array(grid))
    xs = pts.nodes[:, 0]
    cert = certify_bound(pts, basis, weight, grid=np.array([xs[0], 2e-14, xs[-1]]))
    assert cert.passed
    assert cert.majorants["comp_h_upper"] <= cert.majorants["growth_rate"]


def test_certificate_wire_format():
    xs = np.linspace(0.0, 2.0, 4)
    pts = PointSet(xs, values=xs**2)
    cert = certify_bound(pts, monomial_basis(2), WeightSpec("exp", 0.7), n_grid=20)
    d = cert.to_dict()
    assert {"constants", "points", "majorants", "min_slack", "pass"} <= set(d)
    row = d["points"][0]
    assert len(row) == 5  # [x, lhs, rhs, k0, slack]
    rows = cert.rows_csv()
    assert len(rows) == 20 and len(rows[0]) == 4


# --- the slope sup ----------------------------------------------------------


@pytest.mark.parametrize("lo,hi", [(0.1, 0.9), (-2.0, 1.0), (-3.0, -1.0)])
@pytest.mark.parametrize("l", range(1, 7))
def test_monomial_slope_sup_is_dense_grid_max(lo, hi, l):
    """The endpoint sup equals the maximum over a dense grid bit for bit,
    with no padding: M12 is the sup itself, and M1 = M11 * sup."""
    basis = monomial_basis(l)
    dense = max(
        float(np.linalg.norm(basis.derivative_at(g))) for g in np.linspace(lo, hi, 10001)
    )
    consts = bound_constants(PointSet(np.linspace(lo, hi, 7)), basis, alpha=0.5)
    assert consts.slope_sup == dense
    assert consts.forcing_bound == consts.coef_norm_bound * consts.slope_sup


# --- the batched certificate against the point-by-point loop ---------------


def _nearest_node(x: float, points: PointSet) -> int:
    """Index of the node closest to x; ties go to the smaller index."""
    return int(np.argmin(points.distances(np.atleast_1d(float(x)))))


def _per_point_certificate(pts, basis, weight, grid):
    """Reference: one build_system, build_operators and nearest node per
    grid point, as the certificate was computed before it was batched;
    ``max_comp_h`` is the exact max of sigma_max((P - I) H), with l = m
    the exact 0 of P - I = 0."""
    xs = pts.nodes[:, 0]
    consts = bound_constants(pts, basis, weight.alpha)
    anchor = [np.linalg.norm(build_system(x, pts, basis, weight).coeffs) for x in xs]
    m1, m2 = consts.forcing_bound, consts.growth_rate
    lhs, rhs, k0s = [], [], []
    max_comp_h = max_forcing = 0.0
    for x in grid:
        sysm = build_system(x, pts, basis, weight)
        bundle = build_operators(sysm)
        k0 = _nearest_node(x, pts)
        dist = float(abs(x - xs[k0]))
        base = float(anchor[k0]) + m1 * dist
        env = math.exp(min(math.log(base) + m2 * dist, bound1d._MAX_LOG)) if base > 0 else 0.0
        if dist == 0.0 and 0.0 < base < math.inf:
            env = base  # at a node the envelope is b itself
        lhs.append(np.linalg.norm(sysm.coeffs))
        rhs.append(env)
        k0s.append(k0)
        forcing = np.linalg.norm(bundle.coef_map @ basis.derivative_at(x))
        if basis.size < pts.m:  # l = m: P = I exactly, so (P - I) H = 0
            comp_h = np.linalg.norm(bundle.comp * dlogw_diag(x, pts, weight.alpha)[None, :], 2)
            max_comp_h = max(max_comp_h, float(comp_h))
        max_forcing = max(max_forcing, float(forcing))
    return {
        "lhs": np.array(lhs), "rhs": np.array(rhs), "k0": np.array(k0s),
        "slack": np.array(rhs) - np.array(lhs),
        "max_comp_h": max_comp_h, "max_forcing": max_forcing,
    }


def _outcome(fn):
    try:
        return fn(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def _assert_same_certificate(pts, basis, weight, grid):
    cert, error = _outcome(lambda: certify_bound(pts, basis, weight, grid=grid))
    ref, ref_error = _outcome(lambda: _per_point_certificate(pts, basis, weight, grid))
    assert error == ref_error
    if ref is None:
        return None
    for name in ("lhs", "rhs", "k0", "slack"):
        assert getattr(cert, name).tobytes() == ref[name].tobytes(), name
    maj = cert.majorants
    m1, m2 = cert.constants.forcing_bound, cert.constants.growth_rate
    # the proven per-row values majorize the exact maximum, and the
    # verdict is the one the exact maximum gives
    assert ref["max_comp_h"] <= maj["comp_h_upper"]
    expected = {
        "comp_h_upper": maj["comp_h_upper"],
        "growth_rate": m2,
        "comp_h_margin": m2 - maj["comp_h_upper"],
        "max_forcing": ref["max_forcing"],
        "forcing_bound": m1,
        "forcing_margin": m1 - ref["max_forcing"],
        "pass": ref["max_comp_h"] <= m2 + Tolerances().bound
        and ref["max_forcing"] <= m1 + Tolerances().bound,
    }
    assert {k: repr(v) for k, v in maj.items()} == {k: repr(v) for k, v in expected.items()}
    return cert


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(2, 40),
    l=st.integers(1, 4),
    log_alpha=st.floats(math.log(0.05), math.log(5.0)),
    log_span=st.floats(math.log(0.2), math.log(20.0)),
    n_grid=st.one_of(st.integers(1, 120), st.just("block+1")),
    seed=st.integers(0, 2**32 - 1),
)
# an einsum of the forcing products differs from one matvec per row here
@example(m=21, l=3, log_alpha=0.0, log_span=1.0, n_grid=2, seed=0)
def test_batched_certificate_matches_per_point(
    m, l, log_alpha, log_span, n_grid, seed
):
    """lhs, rhs, k0, slack, the forcing majorants and the verdict equal
    the point-by-point loop bit for bit, ``comp_h_upper`` is at least its
    exact maximum, and a failing instance raises the same error."""
    rng = np.random.default_rng(seed)
    span = math.exp(log_span)
    xs = np.unique(np.concatenate([[0.0, span], rng.uniform(0.0, span, m - 2)]))
    pts = PointSet(xs, values=np.cos(xs))
    block = core._block_rows(len(xs))
    if n_grid == "block+1":
        n_grid = block + 1 if block < 400 else 41
    grid = uniform_grid(pts, n_grid)
    weight = WeightSpec("exp", math.exp(log_alpha))
    _assert_same_certificate(pts, monomial_basis(min(l, len(xs))), weight, grid)


@pytest.mark.parametrize("m,l,alpha,span,n,seed", [
    (21, 3, 1.0, math.e, 2, 0),  # where an einsum of the products differs
    (40, 4, 0.3, 5.0, 300, 1),
    (7, 1, 2.0, 1.0, 50, 2),
])
def test_certificate_norms_match_per_row_norms(m, l, alpha, span, n, seed):
    """lhs and max_forcing equal one ``np.linalg.norm`` per grid row of a(x)
    and of coef_map @ c'(x), bit for bit."""
    rng = np.random.default_rng(seed)
    xs = np.unique(np.concatenate([[0.0, span], rng.uniform(0.0, span, m - 2)]))
    pts = PointSet(xs, values=np.cos(xs))
    basis, weight = monomial_basis(l), WeightSpec("exp", alpha)
    grid = uniform_grid(pts, n)
    cert = certify_bound(pts, basis, weight, grid=grid)
    lhs, forcing = [], []
    for x in grid:
        sysm = build_system(x, pts, basis, weight)
        lhs.append(np.linalg.norm(sysm.coeffs))
        forcing.append(np.linalg.norm(build_operators(sysm).coef_map @ basis.derivative_at(x)))
    assert cert.lhs.tobytes() == np.array(lhs).tobytes()
    assert repr(cert.majorants["max_forcing"]) == repr(float(max(forcing)))


def test_batched_certificate_with_overflowing_weights():
    """Weights whose doubling overflows to inf (w = exp(709.5) at the far
    end) give exact zero coefficients, and the block pass still matches.
    A larger alpha r^2 overflows exp(alpha r^2) in the constants: both
    paths then raise the same error, which the property test covers."""
    xs = np.linspace(0.0, 1.0, 40)
    pts = PointSet(xs, values=np.sin(xs))
    weight = WeightSpec("exp", 709.5)
    assert np.isinf(build_system(0.0, pts, monomial_basis(1), weight).dvec[-1])
    grid = uniform_grid(pts, core._block_rows(40) + 1)
    cert = _assert_same_certificate(pts, monomial_basis(1), weight, grid)
    assert cert is not None and cert.metadata["n_grid"] == len(grid)


def test_first_failing_grid_point_decides_the_error(monkeypatch, tmp_path):
    """A conditioning failure at one point of a later block raises that
    point's ConditioningError, as a point-by-point loop does (exit 4)."""
    # two clusters: the Gram condition peaks inside the gap, above every node
    xs = np.concatenate([np.linspace(0.0, 1.0, 15), np.linspace(4.0, 5.0, 15)])
    pts = PointSet(xs, values=np.sin(xs))
    basis, weight = monomial_basis(2), WeightSpec("exp", 2.0)
    grid = uniform_grid(pts, 400)  # the peak lies past the first block
    block = core._block_rows(pts.m)
    cond = [build_system(x, pts, basis, weight).cond_gram for x in grid]
    worst_before = max(build_system(x, pts, basis, weight).cond_gram for x in xs)
    # a point past the first block whose condition tops every earlier one
    for j in range(len(grid)):
        if j >= block and j % block and cond[j] > worst_before:
            break
        worst_before = max(worst_before, cond[j])
    else:
        pytest.fail("no later-block point has a new largest condition")
    limit = (worst_before + cond[j]) / 2.0
    assert j // block >= 1 and j % block > 0
    monkeypatch.setattr(core, "COND_LIMIT", limit)
    with pytest.raises(ConditioningError) as err:
        certify_bound(pts, basis, weight, grid=grid)
    expected = str(ConditioningError(cond[j], limit))
    assert str(err.value) == expected
    _assert_same_certificate(pts, basis, weight, grid)
    # and through the CLI, with its exit code
    pts.to_csv(tmp_path / "in.csv")
    (tmp_path / "cfg.json").write_text('{"l": 2, "weight": {"family": "exp", "alpha": 2.0}}')
    code = cli.main([
        "bound", "--input", str(tmp_path / "in.csv"),
        "--config", str(tmp_path / "cfg.json"), "--grid", "400",
    ])
    assert code == 4


def test_overflowing_growth_factor_is_a_value_error(tmp_path, capsys):
    """exp(alpha r^2) past the largest double is a ValueError naming alpha
    r^2 and the limit (exit 2), not an OverflowError traceback."""
    pts = PointSet(np.array([0.0, 10.0, 20.0]), values=np.array([0.0, 1.0, 2.0]))
    limit = repr(bound1d._MAX_LOG)
    with pytest.raises(ValueError, match=rf"alpha r\^2 = 800\.0 exceeds {limit}"):
        bound_constants(pts, monomial_basis(2), alpha=2.0)
    pts.to_csv(tmp_path / "in.csv")
    (tmp_path / "cfg.json").write_text('{"l": 2, "weight": {"family": "exp", "alpha": 2.0}}')
    code = cli.main([
        "bound", "--input", str(tmp_path / "in.csv"), "--config", str(tmp_path / "cfg.json"),
    ])
    assert code == 2
    assert f"alpha r^2 = 800.0 exceeds {limit}" in capsys.readouterr().err


# --- the product bound on sigma_max ------------------------------------------


def _with_singular_values(rng, k, m, svals):
    """k random (m, m) matrices with the given singular values."""
    out = np.empty((k, m, m))
    for i in range(k):
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        v, _ = np.linalg.qr(rng.standard_normal((m, m)))
        out[i] = (u * svals) @ v.T
    return out


def _upper_bound_stacks():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 8, 40, 120):
        k = max(2, 2000 // (m * m))
        for e in (-500, 0, 500):
            yield f"gauss m={m} 2^{e}", np.ldexp(rng.standard_normal((k, m, m)), e)
        top = 1.0 + np.ldexp(rng.uniform(0.0, 1.0, 2), -40)
        near = np.concatenate([top, rng.uniform(0.0, 0.5, max(m - 2, 0))])[:m]
        yield f"near-equal top m={m}", _with_singular_values(rng, k, m, near)
        rank = np.where(np.arange(m) < max(1, m // 3), rng.uniform(0.5, 2.0, m), 0.0)
        yield f"rank {max(1, m // 3)} m={m}", _with_singular_values(rng, k, m, rank)
        yield f"zero m={m}", np.zeros((k, m, m))
        mixed = rng.standard_normal((k, m, m))
        mixed[::2] = 0.0
        yield f"some zero m={m}", mixed
        yield f"subnormal m={m}", np.ldexp(rng.standard_normal((k, m, m)), -1060)
        yield f"near max double m={m}", np.ldexp(rng.uniform(-1.0, 1.0, (k, m, m)), 1023)
    # (m, l) stacks, as the certificate's per-row bound takes them
    for m, l in ((2, 1), (16, 3), (60, 6)):
        for e in (-1060, 0, 1000):
            yield f"gauss {m}x{l} 2^{e}", np.ldexp(rng.standard_normal((50, m, l)), e)
        near = np.concatenate([1.0 + np.ldexp(rng.uniform(0.0, 1.0, 2), -40),
                               rng.uniform(0.0, 0.5, l)])[:l]
        u, _ = np.linalg.qr(rng.standard_normal((m, l)))
        v, _ = np.linalg.qr(rng.standard_normal((l, l)))
        yield f"near-equal top {m}x{l}", ((u * near) @ v.T)[None]


UPPER_BOUND_STACKS = [pytest.param(stack, id=name) for name, stack in _upper_bound_stacks()]


@pytest.mark.parametrize("stack", UPPER_BOUND_STACKS)
def test_sigma_max_upper_bounds_the_svd(stack):
    """The product bound of G^4 is never below numpy's stacked sigma_max,
    for (m, m) and for (m, l) stacks."""
    sigma = np.linalg.norm(stack, 2, axis=(1, 2))
    upper = bound1d._sigma_max_upper(stack)
    assert np.all(upper >= sigma)
    assert not np.any(np.isnan(upper))


@pytest.mark.parametrize("stack", [
    case for case in UPPER_BOUND_STACKS if np.max(np.abs(case.values[0])) >= 2.0**-900
])
def test_sigma_max_upper_is_tight(stack):
    """The product bound overestimates numpy's stacked sigma_max by at
    most the factor its docstring states, l^(1/16) times its rounding
    margin, with 8 u for the rounding of that factor; a stack whose
    largest entry is below 2^-900 is held to its upper bound alone."""
    _, m, l = stack.shape
    sigma = np.linalg.norm(stack, 2, axis=(1, 2))
    factor = l ** (1.0 / 16.0) * bound1d._sigma_margin(m, l) * (1.0 + 8.0 * 2.0**-53)
    with np.errstate(over="ignore"):  # past the largest double both sides are inf
        assert np.all(bound1d._sigma_max_upper(stack) <= sigma * factor)


@pytest.mark.parametrize("stack", UPPER_BOUND_STACKS)
def test_sigma_max_is_the_stacked_norm(stack):
    """The one-matrix SVD gives the bits of the stacked norm."""
    sigma = np.linalg.norm(stack, 2, axis=(1, 2))
    assert [float(bound1d._smax(mat)) for mat in stack] == sigma.tolist()


def _smooth_run(rng, m, n, peak):
    """n (m, m) matrices along a smooth path, like the grid rows of a
    certificate, whose sigma_max has a bump at t = peak of [0, 1]."""
    a, b, c = rng.standard_normal((3, m, m))
    t = np.linspace(0.0, 1.0, n)[:, None, None]
    return a + t * b + 3.0 * np.exp(-(((t - peak) / 0.15) ** 2)) * c


@pytest.mark.parametrize("e", [1000, -600, -1060])
def test_chain_on_huge_and_tiny_runs(e):
    """Huge, tiny and subnormal matrices are scaled by an exact power of
    two before their products, so no bound overflows or underflows
    (pytest makes a warning an error), and every bound is at least the
    matrix's SVD value."""
    run = np.ldexp(_smooth_run(np.random.default_rng(6), 12, 200, 0.4), e)
    sigma = np.linalg.norm(run, 2, axis=(1, 2))
    upper = bound1d._sigma_max_upper(run)
    assert np.all(upper >= sigma) and np.all(np.isfinite(upper))


def _grid_rows(pts, basis, weight, grid):
    """(coef_map, hdiag) of every grid row, in ``build_rows`` blocks."""
    design = core.build_design(pts, basis)
    for start, rows in core.build_rows(grid[:, None], pts, basis, weight, design=design):
        coef_map = bound1d.coef_map_stack(rows.qmats, rows.rmats, rows.roots)
        yield coef_map, dlogw_diag(grid[start : start + len(coef_map)], pts, weight.alpha)


@pytest.mark.parametrize("m", [3, 17])
def test_one_row_blocks_give_the_full_max(m):
    """Blocks of one row, as a failing block is replayed, give every row
    the value of the whole block bit for bit, bounds and SVDs alike, so
    the maximum is the full one."""
    rng = np.random.default_rng(m)
    xs = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, m - 2)]))
    pts, basis, weight = PointSet(xs, values=np.sin(xs)), monomial_basis(2), WeightSpec("exp", 1.0)
    design = core.build_design(pts, basis)
    design_t, factor = np.ascontiguousarray(design.T), bound1d._gram_factor(design)
    (coef_map, hdiag), = _grid_rows(pts, basis, weight, uniform_grid(pts, 60))
    bounds = bound1d._comp_h_upper(coef_map, hdiag, design_t, factor)
    best = float(np.median(bounds))  # half the rows take the SVD
    whole = bound1d._comp_h_values(coef_map, hdiag, design_t, factor, best)
    rows = [bound1d._comp_h_values(coef_map[[i]], hdiag[[i]], design_t, factor, best)
            for i in range(60)]
    assert np.concatenate(rows).tobytes() == whole.tobytes()
    assert np.sum(whole < bounds) >= 25


def _every_row_max(pts, basis, weight, grid) -> float:
    """Reference: the stacked ``np.linalg.norm(., 2)`` of the (P - I) H of
    every grid row, built from ``build_rows`` and ``coef_map_stack`` the
    way the certificate builds a stack, and pruned nowhere."""
    design_t = np.ascontiguousarray(core.build_design(pts, basis).T)
    sigmas = []
    for coef_map, hdiag in _grid_rows(pts, basis, weight, grid):
        comp = coef_map @ design_t
        comp -= np.eye(pts.m)
        comp *= hdiag[:, None, :]
        sigmas.append(np.linalg.norm(comp, 2, axis=(1, 2)))
    return float(np.max(np.concatenate(sigmas)))


def test_certificate_comp_h_upper_majorizes_the_full_stacked_max():
    """The reported comp_h_upper is at least the maximum of the stacked
    norm of every grid row's (P - I) H, and at most twice it, with no
    row taking an SVD."""
    _assert_comp_h_upper_majorizes_the_full_stacked_max("sorted")


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_certificate_comp_h_upper_on_reordered_grids(order):
    """The same holds on a grid given backwards or in no order, with the
    bits of the sorted grid's comp_h_upper."""
    _assert_comp_h_upper_majorizes_the_full_stacked_max(order)


def _assert_comp_h_upper_majorizes_the_full_stacked_max(order):
    rng = np.random.default_rng(11)
    for m, l, n_grid in ((3, 1, 50), (4, 4, 60), (12, 3, 400), (16, 3, 300), (23, 5, 257),
                         (30, 2, 200), (40, 4, 100), (60, 6, 400)):
        xs = np.sort(rng.uniform(0.0, 1.0, m))
        pts = PointSet(xs, values=np.sin(xs))
        weight = WeightSpec("exp", float(rng.uniform(0.1, 2.0)))
        grid = uniform_grid(pts, n_grid)
        sorted_cert = certify_bound(pts, monomial_basis(l), weight, grid=grid)
        if order == "reversed":
            grid = grid[::-1].copy()
        elif order == "shuffled":
            grid = grid[rng.permutation(n_grid)]
        upper = certify_bound(pts, monomial_basis(l), weight, grid=grid).majorants["comp_h_upper"]
        assert repr(upper) == repr(sorted_cert.majorants["comp_h_upper"]), (m, l, n_grid)
        if l == m:  # P - I = 0: the maximum is 0
            assert repr(upper) == "0.0"
            continue
        ref = _every_row_max(pts, monomial_basis(l), weight, grid)
        assert ref <= upper <= 2.0 * ref, (m, l, n_grid)


def _count_stacks(monkeypatch) -> dict:
    """Count the grid rows that get an (m, m) stack of (P - I) H and an
    SVD, and the rows that get a bound (``_comp_h_upper``), from here
    on."""
    counts = {"stack": 0, "filter": 0}
    sigma, upper = bound1d._smax, bound1d._comp_h_upper

    def counted_sigma(stack):
        counts["stack"] += len(stack)
        return sigma(stack)

    def counted_upper(coef_map, *args):
        counts["filter"] += len(coef_map)
        return upper(coef_map, *args)

    monkeypatch.setattr(bound1d, "_smax", counted_sigma)
    monkeypatch.setattr(bound1d, "_comp_h_upper", counted_upper)
    return counts


def test_certificate_work_counts(monkeypatch):
    """A 38-node, 400-point certificate and a 15-node, 700-point one give
    every grid row exactly one bound, and no row builds its (m, m) stack
    of (P - I) H, on a grid read forwards, where sigma_max peaks late, or
    backwards."""
    rng = np.random.default_rng(9)
    xs = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 13)]))
    small = PointSet(xs, values=np.sin(xs)), monomial_basis(3), WeightSpec("exp", 1.0)
    for args, n in ((_work_count_instance(), 400), (small, 700)):
        for grid in (uniform_grid(args[0], n), uniform_grid(args[0], n)[::-1].copy()):
            with monkeypatch.context() as mp:
                counts = _count_stacks(mp)
                cert = certify_bound(*args, grid=grid)
            assert cert.metadata["n_grid"] == n
            assert counts == {"stack": 0, "filter": n}


def test_selftest_certificates_need_no_stack(monkeypatch):
    """The selftest's certificates, the 20 of
    ``instances.H2Stream(42).first(20)`` on its 200-point grid, settle
    every grid row by its bound: no row builds its (m, m) stack of
    (P - I) H.  A change to M2 that leaves rows to the SVD shows here.  A
    certificate with l = m has P = I and builds neither."""
    suite = instances.H2Stream(42).first(selftest.CERTIFICATE_N)
    counts = _count_stacks(monkeypatch)
    for it in suite:
        certify_bound(it.points, it.basis, it.weight, n_grid=selftest.CERTIFICATE_GRID)
    square = sum(it.basis.size == it.points.m for it in suite)
    assert (len(suite), square) == (20, 3)
    assert counts == {"stack": 0, "filter": (20 - square) * 200}


def _count_passes(monkeypatch) -> dict:
    """Count the certificate's ``build_rows`` and ``build_systems`` calls,
    the grid rows' coefficient maps, and the H diagonals the per-row bound
    (``_comp_h_upper``) is handed, in order, from here on."""
    seen = {"build_rows": 0, "build_systems": 0, "maps": 0, "filtered": []}
    rows, maps, upper = core.build_rows, bound1d.coef_map_stack, bound1d._comp_h_upper

    def counted_rows(*args, **kwargs):
        seen["build_rows"] += 1
        return rows(*args, **kwargs)

    def counted_systems(*args, **kwargs):
        seen["build_systems"] += 1
        raise AssertionError("the certificate solves in one build_rows pass")

    def counted_maps(qmats, *args):
        seen["maps"] += len(qmats)
        return maps(qmats, *args)

    def counted_upper(coef_map, hdiag, *args):
        seen["filtered"].append(hdiag.copy())
        return upper(coef_map, hdiag, *args)

    for module in (core, bound1d):
        monkeypatch.setattr(module, "build_rows", counted_rows)
        monkeypatch.setattr(module, "build_systems", counted_systems, raising=False)
    monkeypatch.setattr(bound1d, "coef_map_stack", counted_maps)
    monkeypatch.setattr(bound1d, "_comp_h_upper", counted_upper)
    return seen


@pytest.mark.parametrize("doubles", [2**10, core._BLOCK_DOUBLES])
def test_certificate_solves_in_one_pass(monkeypatch, doubles):
    """The node anchors and the grid go through one ``build_rows`` call,
    and no ``build_systems`` call.  The per-row bound is handed every
    grid row once, in grid order, and no anchor row, also when a small
    budget spreads the anchors over several blocks."""
    pts, basis, weight = _work_count_instance()
    grid = uniform_grid(pts, 400)[::-1].copy()
    monkeypatch.setattr(core, "_BLOCK_DOUBLES", doubles)
    # the small budget spreads the 38 anchors over blocks of 2 rows: a
    # block's (rows, m, l) maps hold a quarter of the budget
    assert (doubles > 2**10) == (core._block_rows(pts.m, basis.size) // 4 > pts.m)
    seen = _count_passes(monkeypatch)
    cert = certify_bound(pts, basis, weight, grid=grid)
    assert (seen["build_rows"], seen["build_systems"], seen["maps"]) == (1, 0, 400)
    filtered = np.concatenate(seen["filtered"])
    assert filtered.tobytes() == dlogw_diag(grid, pts, weight.alpha).tobytes()
    assert cert.metadata["n_grid"] == 400


@pytest.mark.parametrize("doubles", [2**10, core._BLOCK_DOUBLES])
def test_failing_anchor_raises_before_any_grid_row(monkeypatch, doubles):
    """A node anchor over the condition limit raises its own error, that
    of the first failing node, before any grid row's map is built."""
    pts, basis, weight = _work_count_instance()
    cond = [build_system(x, pts, basis, weight).cond_gram for x in pts.nodes[:, 0]]
    limit = (min(cond) + max(cond)) / 2.0
    first = next(c for c in cond if c > limit)
    monkeypatch.setattr(core, "COND_LIMIT", limit)
    monkeypatch.setattr(core, "_BLOCK_DOUBLES", doubles)
    seen = _count_passes(monkeypatch)
    with pytest.raises(ConditioningError) as err:
        certify_bound(pts, basis, weight, n_grid=400)
    assert str(err.value) == str(ConditioningError(first, limit))
    assert (seen["build_rows"], seen["maps"], seen["filtered"]) == (1, 0, [])


def _work_count_instance():
    """The 38-node instance of ``test_certificate_work_counts``."""
    rng = np.random.default_rng(0)
    xs = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 36)]))
    return PointSet(xs, values=np.sin(xs)), monomial_basis(3), WeightSpec("exp", 1.0)


# --- the per-row bound on sigma_max((P - I) H), from (m, l) work ---------------


def _filter_instance(m, layout, seed) -> PointSet:
    """m nodes on [0, 1], both ends among them: spread uniformly, in three
    clusters of width about 1e-3, or in pairs 1e-7 apart."""
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        xs = rng.uniform(0.0, 1.0, m - 2)
    elif layout == "clustered":
        centres = rng.uniform(0.0, 1.0, 3)
        xs = np.clip(centres[rng.integers(3, size=m - 2)] + rng.normal(0.0, 1e-3, m - 2),
                     0.0, 1.0)
    else:
        base = rng.uniform(0.0, 1.0, (m - 1) // 2)
        xs = np.concatenate([base, base + 1e-7])[: m - 2]
    xs = np.unique(np.concatenate([[0.0, 1.0], xs]))
    return PointSet(xs, values=np.sin(xs))


def _filter_bounds(pts, basis, weight, grid):
    """Per grid row, the bound (``_comp_h_upper``) and the stacked norm of
    its (P - I) H."""
    design = core.build_design(pts, basis)
    design_t = np.ascontiguousarray(design.T)
    factor = bound1d._gram_factor(design)
    uppers, sigmas = [], []
    for coef_map, hdiag in _grid_rows(pts, basis, weight, grid):
        uppers.append(bound1d._comp_h_upper(coef_map, hdiag, design_t, factor))
        comp = coef_map @ design_t
        comp -= np.eye(pts.m)
        comp *= hdiag[:, None, :]
        sigmas.append(np.linalg.norm(comp, 2, axis=(1, 2)))
    return np.concatenate(uppers), np.concatenate(sigmas)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(2, 60),
    l=st.integers(1, 6),
    log_alpha=st.floats(math.log(1e-3), math.log(700.0)),
    layout=st.sampled_from(["uniform", "clustered", "near_duplicate"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_filter_bound_majorizes_every_row(m, l, log_alpha, layout, seed):
    """On nodes spanning [0, 1], so alpha r^2 = alpha from 1e-3 to 700,
    every row's bound is finite and at least numpy's sigma_max of the
    (P - I) H the row builds.  With the certificate's threshold
    M2 + ``tol.bound``, every row the bound settles has an SVD value at
    or below it."""
    pts = _filter_instance(m, layout, seed)
    basis, weight = monomial_basis(min(l, pts.m - 1)), WeightSpec("exp", math.exp(log_alpha))
    grid = uniform_grid(pts, 60)
    try:
        upper, sigma = _filter_bounds(pts, basis, weight, grid)
    except (ConditioningError, HypothesisFailure):
        assume(False)
    assert np.all(np.isfinite(upper))
    assert np.all(upper >= sigma)
    best = bound_constants(pts, basis, weight.alpha).growth_rate + Tolerances().bound
    assert np.all(sigma[upper <= best] <= best)


def test_filter_bound_falls_back_to_inf():
    """A row with a NaN or inf in its map or its H row, or one whose
    V^T U is far from I (phi >= 1/2), gets +inf; the others keep a
    finite bound."""
    pts = _filter_instance(20, "uniform", 1)
    basis, weight = monomial_basis(3), WeightSpec("exp", 1.0)
    design = core.build_design(pts, basis)
    grid = uniform_grid(pts, 12)
    (coef_map, hdiag), = _grid_rows(pts, basis, weight, grid)
    coef_map[3, 4, 1] = np.nan
    coef_map[5, 0, 0] = np.inf
    hdiag[7, 2] = np.nan
    coef_map[9] *= 2.0  # V^T U = 2 I: phi is about sqrt(l)
    design_t = np.ascontiguousarray(design.T)
    factor = bound1d._gram_factor(design)
    upper = bound1d._comp_h_upper(coef_map, hdiag, design_t, factor)
    assert np.flatnonzero(np.isinf(upper)).tolist() == [3, 5, 7, 9]
    assert np.all(np.isfinite(np.delete(upper, [3, 5, 7, 9])))
    assert np.all(np.isinf(bound1d._comp_h_upper(coef_map, hdiag, design_t, None)))


def _poisoned(monkeypatch, row, value):
    """Make the coefficient map of grid row ``row`` that ``bound1d``
    builds from here on hold ``value`` in one entry."""
    maps, seen = spectral.coef_map_stack, [0]

    def poisoned(qmats, rmats, roots):
        out = maps(qmats, rmats, roots)
        if seen[0] <= row < seen[0] + len(out):
            out[row - seen[0], 1, 0] = value
        seen[0] += len(out)
        return out

    monkeypatch.setattr(bound1d, "coef_map_stack", poisoned)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("row", [0, 150, 299])
def test_non_finite_row_stays_a_candidate(monkeypatch, value, row):
    """A row whose map holds a NaN or inf keeps +inf as its bound, so it
    takes the SVD: the certificate raises the error, or reports the NaN,
    that the SVD of every row's (P - I) H gives (``_every_row_max``)."""
    pts = _filter_instance(30, "uniform", 2)
    basis, weight = monomial_basis(3), WeightSpec("exp", 1.0)
    grid = uniform_grid(pts, 300)
    outcomes = []
    for run in (lambda: certify_bound(pts, basis, weight, grid=grid).majorants["comp_h_upper"],
                lambda: _every_row_max(pts, basis, weight, grid)):
        with monkeypatch.context() as mp:
            _poisoned(mp, row, value)
            outcomes.append(_outcome(lambda: repr(run())))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] is not None or outcomes[0][0] == "nan"


def test_failed_cholesky_keeps_every_row(monkeypatch):
    """When the Cholesky factor of E^T E + s I cannot be formed, no row
    gets a finite bound: every row builds its stack and takes the SVD,
    so comp_h_upper is the exact maximum, bit for bit."""
    pts = _filter_instance(24, "clustered", 3)
    basis, weight = monomial_basis(4), WeightSpec("exp", 0.5)
    grid = uniform_grid(pts, 200)

    def no_factor(matrix):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
    assert bound1d._gram_factor(core.build_design(pts, basis)) is None
    counts = _count_stacks(monkeypatch)
    cert = certify_bound(pts, basis, weight, grid=grid)
    assert counts["stack"] == 200
    expected = _every_row_max(pts, basis, weight, grid)
    assert repr(cert.majorants["comp_h_upper"]) == repr(expected)


@pytest.mark.parametrize("seed", range(5))
def test_complement_of_a_projector_has_its_norm(seed):
    """||I - P|| = ||P|| for the oblique projector P != 0, I of every
    system of ``random_suite`` with l < m (Szyld 2006), to 1e-12
    relative: the identity behind step 4 of ``_comp_h_upper``."""
    checked = 0
    for inst in instances.random_suite(200, seed):
        system = inst.system()
        m, l = system.design.shape
        if l == m:
            continue
        proj = build_operators(system).proj
        norm = np.linalg.norm(proj, 2)
        assert abs(np.linalg.norm(np.eye(m) - proj, 2) - norm) <= 1e-12 * norm
        checked += 1
    assert checked > 100


#: peak traced memory of the certificate of ``test_certificate_work_counts``
#: when the grid loop kept about six (rows, m, m) stacks of 2^15 doubles
#: alive at once (numpy 2.4, Python 3.11)
_SIX_STACK_PEAK = 1_616_054


def _certificate_peak(args, n_grid: int) -> int:
    """Peak traced memory of one certificate, after a warm-up call."""
    certify_bound(*args, n_grid=n_grid)  # numpy's first calls allocate once
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        certify_bound(*args, n_grid=n_grid)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_certificate_peak_memory():
    """The grid loop's temporaries stay below those of six stacks of 2^15
    doubles.  On 4000 points they stay below four stacks of
    ``core._BLOCK_DOUBLES`` doubles (2 MiB), for small and large m:
    a block holds (rows, m, l) maps of a quarter of that budget, and a
    row builds its (m, m) (P - I) H only where its bound does not settle
    it."""
    assert _certificate_peak(_work_count_instance(), 400) < _SIX_STACK_PEAK
    for m, l in ((9, 3), (15, 3), (16, 1), (20, 2), (60, 4)):
        rng = np.random.default_rng(m)
        xs = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, m - 2)]))
        args = PointSet(xs, values=np.sin(xs)), monomial_basis(l), WeightSpec("exp", 1.0)
        peak = _certificate_peak(args, 4000)
        assert peak < 4 * core._BLOCK_DOUBLES * 8, (m, l, peak)


@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [3, 12, 38, 40])
def test_certificate_does_not_depend_on_its_block_budget(monkeypatch, m, l, order):
    """Blocks of any size give the same report bytes, comp_h_upper
    included, down to blocks of one row, where the node anchors that lead
    the solve span several blocks; and so does a budget that holds the
    whole grid in one block."""
    rng = np.random.default_rng(m + 10 * l)
    xs = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, m - 2)]))
    pts = PointSet(xs, values=np.sin(xs))
    grid = uniform_grid(pts, 300)
    if order == "reversed":
        grid = grid[::-1].copy()
    elif order == "shuffled":
        grid = grid[rng.permutation(len(grid))]
    reports = set()
    for doubles in (2**4, 2**8, 2**15, 2**16, 2**20):
        monkeypatch.setattr(core, "_BLOCK_DOUBLES", doubles)
        reports.add(_outcome(lambda: canonical_json(certify_bound(
            pts, monomial_basis(l), WeightSpec("exp", 0.7), grid=grid).to_dict())))
    assert len(reports) == 1
    assert (l > m) == (next(iter(reports))[0] is None)


def test_square_design_reports_an_exact_zero_comp_h(monkeypatch):
    """With l = m, P = E^(-T) E^T = I exactly: comp_h_upper is 0, not
    the rounding noise of P - I, and no row gets a bound or a (P - I) H
    stack; the forcing product still runs and matches the point-by-point
    loop."""
    pts = PointSet(np.array([0.1, 0.35, 0.6, 0.9]), values=np.zeros(4))
    basis, weight = monomial_basis(4), WeightSpec("exp", 1.0)
    grid = uniform_grid(pts, 200)
    ops = [build_operators(build_system(x, pts, basis, weight)) for x in grid]
    assert max(np.abs(op.comp).max() for op in ops) > 0.0  # the noise P - I had
    calls = []
    monkeypatch.setattr(bound1d, "_comp_h_upper", lambda *args: calls.append(args))
    cert = _assert_same_certificate(pts, basis, weight, grid)
    maj = cert.majorants
    assert calls == [] and repr(maj["comp_h_upper"]) == "0.0"
    assert repr(maj["comp_h_margin"]) == repr(maj["growth_rate"])


# --- c' per block -------------------------------------------------------------


@pytest.mark.parametrize("l", range(1, 9))
def test_derivative_rows_match_derivative_at(l):
    """The vectorized monomial derivative equals derivative_at bit for bit,
    including negative, tiny and zero x."""
    basis = monomial_basis(l)
    rng = np.random.default_rng(l)
    xs = np.concatenate([
        rng.uniform(-3.0, 3.0, 400),
        -np.logspace(-300, 2, 200), np.logspace(-300, 2, 200),
        [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0],
    ])
    powers = np.arange(l, dtype=float)

    def scalar_derivative(x):
        """Reference: the derivative formula at one Python float."""
        x = float(x)
        out = np.zeros_like(powers)
        nz = powers > 0
        out[nz] = powers[nz] * x ** (powers[nz] - 1.0)
        return out

    rows = basis.derivative_rows(xs)
    ref = np.array([scalar_derivative(x) for x in xs])
    assert rows.shape == (xs.size, l)
    assert rows.tobytes() == ref.tobytes()
    assert np.array([basis.derivative_at(x) for x in xs]).tobytes() == ref.tobytes()
