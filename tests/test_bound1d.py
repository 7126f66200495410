"""The 1-d coefficient-growth machinery: log-derivative diagonal, the
derivative identity for the coefficient vector, envelope constants, and the
grid certificate."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mlscert import bound1d, cli
from mlscert.bases import monomial_basis
from mlscert.bound1d import (
    BoundConstants,
    bound_constants,
    certify_bound,
    check_hypotheses_1d,
    dlogw_diag,
    monomial_diff_matrix,
    nearest_node,
    ode_rhs,
    uniform_grid,
)
from mlscert.config import Tolerances
from mlscert.core import (
    ConditioningError,
    HypothesisFailure,
    build_system,
    build_weight_diag,
)
from mlscert.points import PointSet
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
        return build_weight_diag(PTS3.distances(at), weight)

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


def test_constants_standard_convention():
    consts = bound_constants(PTS3, monomial_basis(2), alpha=1.0)
    r = 2.0
    assert consts.span == r
    assert consts.growth_rate == pytest.approx(2.0 * 1.0 * r * (1.0 + math.exp(r * r)), rel=1e-14)
    assert consts.coef_norm_bound == pytest.approx(
        math.exp(r * r) / consts.sigma_min_design_t, rel=1e-14
    )
    assert consts.forcing_bound == pytest.approx(
        consts.coef_norm_bound * consts.slope_bound, rel=1e-14
    )


def test_constants_paper_convention_smaller():
    std = bound_constants(PTS3, monomial_basis(2), alpha=1.0, convention="standard")
    pap = bound_constants(PTS3, monomial_basis(2), alpha=1.0, convention="paper")
    assert pap.growth_rate < std.growth_rate
    assert pap.coef_norm_bound < std.coef_norm_bound
    # both conventions recorded in the metadata regardless
    assert "m2_standard" in std.metadata and "m2_paper" in std.metadata


def test_slope_sup_symmetric_linear_basis():
    """For monomials {1, x} the basis-derivative norm is constant 1."""
    pts = PointSet(np.linspace(-1.0, 1.0, 5))
    consts = bound_constants(pts, monomial_basis(2), alpha=0.5)
    assert consts.slope_sup == pytest.approx(1.0, rel=1e-12)
    assert consts.slope_bound == pytest.approx(1.0, rel=1e-12)


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
    assert isinstance(d, dict) and d["convention"] == "standard"
    assert BoundConstants(**{**consts.__dict__}) == consts


# --- grid helpers -----------------------------------------------------------


def test_nearest_node_tie_goes_to_smaller_index():
    pts = PointSet(np.array([0.0, 1.0]))
    assert nearest_node(0.5, pts) == 0
    assert nearest_node(0.51, pts) == 1


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
    assert cert.majorants["max_comp_h"] <= cert.majorants["growth_rate"] + 1e-9


def test_certificate_paper_convention():
    xs = np.linspace(0.0, 4.0, 5)
    pts = PointSet(xs, values=np.sin(xs))
    cert = certify_bound(
        pts, monomial_basis(2), WeightSpec("exp", 0.5), n_grid=100, convention="paper"
    )
    assert cert.passed


def test_certificate_envelope_clipping_keeps_validity():
    """Huge growth rates overflow the envelope; it clips at the largest
    double, which only lowers the right-hand side."""
    xs = np.linspace(0.0, 10.0, 6)
    pts = PointSet(xs, values=np.cos(xs))
    cert = certify_bound(pts, monomial_basis(2), WeightSpec("exp", 2.0), n_grid=50)
    assert cert.passed
    assert np.max(cert.rhs) <= np.finfo(float).max


def test_certificate_rejects_wrong_family():
    with pytest.raises(HypothesisFailure) as err:
        certify_bound(PTS3, monomial_basis(2), WeightSpec("mclain", 1.0), n_grid=10)
    assert "exp_weight_family" in err.value.items


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
    for convention in ("standard", "paper"):
        consts = bound_constants(
            PointSet(np.linspace(lo, hi, 7)), basis, alpha=0.5, convention=convention
        )
        assert consts.slope_sup == dense
        assert consts.slope_bound == consts.slope_sup
        assert consts.forcing_bound == consts.coef_norm_bound * consts.slope_sup


# --- the batched certificate against the point-by-point loop ---------------


def _per_point_certificate(pts, basis, weight, grid, convention, cond_limit):
    """Reference: one build_system, build_operators and nearest_node per
    grid point, as the certificate was computed before it was batched."""
    xs = pts.nodes[:, 0]
    consts = bound_constants(pts, basis, weight.alpha, convention)
    anchor = [
        np.linalg.norm(build_system(x, pts, basis, weight, cond_limit=cond_limit).coeffs)
        for x in xs
    ]
    m1, m2 = consts.forcing_bound, consts.growth_rate
    lhs, rhs, k0s = [], [], []
    max_comp_h = max_forcing = 0.0
    for x in grid:
        sysm = build_system(x, pts, basis, weight, cond_limit=cond_limit)
        bundle = build_operators(sysm)
        k0 = nearest_node(x, pts)
        dist = float(abs(x - xs[k0]))
        base = float(anchor[k0]) + m1 * dist
        env = math.exp(min(math.log(base) + m2 * dist, bound1d._MAX_LOG)) if base > 0 else 0.0
        lhs.append(np.linalg.norm(sysm.coeffs))
        rhs.append(env)
        k0s.append(k0)
        comp_h = np.linalg.norm(bundle.comp * dlogw_diag(x, pts, weight.alpha)[None, :], 2)
        forcing = np.linalg.norm(bundle.coef_map @ basis.derivative_at(x))
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


def _assert_same_certificate(pts, basis, weight, grid, convention, cond_limit=1e12):
    cert, error = _outcome(lambda: certify_bound(
        pts, basis, weight, grid=grid, convention=convention, cond_limit=cond_limit
    ))
    ref, ref_error = _outcome(lambda: _per_point_certificate(
        pts, basis, weight, grid, convention, cond_limit
    ))
    assert error == ref_error
    if ref is None:
        return None
    for name in ("lhs", "rhs", "k0", "slack"):
        assert getattr(cert, name).tobytes() == ref[name].tobytes(), name
    maj = cert.majorants
    m1, m2 = cert.constants.forcing_bound, cert.constants.growth_rate
    expected = {
        "max_comp_h": ref["max_comp_h"],
        "growth_rate": m2,
        "comp_h_margin": m2 - ref["max_comp_h"],
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
    convention=st.sampled_from(("standard", "paper")),
    n_grid=st.one_of(st.integers(1, 120), st.just("block+1")),
    seed=st.integers(0, 2**32 - 1),
)
# a stacked forcing product differs from one matvec per row here
@example(m=21, l=3, log_alpha=0.0, log_span=1.0, convention="standard", n_grid=2, seed=0)
def test_batched_certificate_matches_per_point(
    m, l, log_alpha, log_span, convention, n_grid, seed
):
    """lhs, rhs, k0, slack and every majorant equal the point-by-point loop
    bit for bit, and a failing instance raises the same error."""
    rng = np.random.default_rng(seed)
    span = math.exp(log_span)
    xs = np.unique(np.concatenate([[0.0, span], rng.uniform(0.0, span, m - 2)]))
    pts = PointSet(xs, values=np.cos(xs))
    block = bound1d._block_rows(len(xs))
    if n_grid == "block+1":
        n_grid = block + 1 if block < 400 else 41
    grid = uniform_grid(pts, n_grid)
    weight = WeightSpec("exp", math.exp(log_alpha))
    _assert_same_certificate(pts, monomial_basis(min(l, len(xs))), weight, grid, convention)


def test_batched_certificate_with_overflowing_weights():
    """Weights whose doubling overflows to inf (w = exp(709.5) at the far
    end) give exact zero coefficients, and the block pass still matches.
    A larger alpha r^2 overflows exp(alpha r^2) in the constants: both
    paths then raise the same error, which the property test covers."""
    xs = np.linspace(0.0, 1.0, 40)
    pts = PointSet(xs, values=np.sin(xs))
    weight = WeightSpec("exp", 709.5)
    assert np.isinf(build_system(0.0, pts, monomial_basis(1), weight).dvec[-1])
    grid = uniform_grid(pts, bound1d._block_rows(40) + 1)
    cert = _assert_same_certificate(pts, monomial_basis(1), weight, grid, "paper")
    assert cert is not None and cert.metadata["n_grid"] == len(grid)


def test_first_failing_grid_point_decides_the_error(monkeypatch, tmp_path):
    """A conditioning failure at one point of a later block raises that
    point's ConditioningError, as a point-by-point loop does (exit 4)."""
    # two clusters: the Gram condition peaks inside the gap, above every node
    xs = np.concatenate([np.linspace(0.0, 1.0, 15), np.linspace(4.0, 5.0, 15)])
    pts = PointSet(xs, values=np.sin(xs))
    basis, weight = monomial_basis(2), WeightSpec("exp", 2.0)
    grid = uniform_grid(pts, 200)
    block = bound1d._block_rows(pts.m)
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
    with pytest.raises(ConditioningError) as err:
        certify_bound(pts, basis, weight, grid=grid, cond_limit=limit)
    expected = str(ConditioningError(cond[j], limit))
    assert str(err.value) == expected
    _assert_same_certificate(pts, basis, weight, grid, "standard", cond_limit=limit)
    # and through the CLI, with its exit code
    pts.to_csv(tmp_path / "in.csv")
    (tmp_path / "cfg.json").write_text('{"l": 2, "weight": {"family": "exp", "alpha": 2.0}}')
    monkeypatch.setattr(
        cli.bound1d, "certify_bound",
        functools.partial(bound1d.certify_bound, cond_limit=limit),
    )
    code = cli.main([
        "bound", "--input", str(tmp_path / "in.csv"),
        "--config", str(tmp_path / "cfg.json"), "--grid", "200",
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


# --- max_comp_h from candidate rows -----------------------------------------


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


@pytest.mark.parametrize(
    "stack", [pytest.param(stack, id=name) for name, stack in _upper_bound_stacks()]
)
def test_sigma_max_upper_bounds_the_svd(stack):
    """The product bound is never below numpy's stacked sigma_max."""
    upper = bound1d._sigma_max_upper(stack)
    sigma = np.linalg.norm(stack, 2, axis=(1, 2))
    assert np.all(upper >= sigma)
    assert not np.any(np.isnan(upper))


def _full_max(blocks):
    return float(np.max(np.concatenate([np.linalg.norm(b, 2, axis=(1, 2)) for b in blocks])))


def _pruned_max(blocks):
    best = -math.inf
    for b in blocks:
        best = bound1d._max_sigma(b, best)
    return best


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 30),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    decay=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_max_sigma_equals_the_full_max(m, sizes, decay, seed):
    """Over a run of blocks, the candidate-row maximum is the maximum of
    the full stacked norm, bit for bit."""
    rng = np.random.default_rng(seed)
    blocks = [
        rng.standard_normal((k, m, m)) * np.exp(-decay * rng.uniform(0.0, 1.0, (k, 1, 1)))
        for k in sizes
    ]
    assert repr(_pruned_max(blocks)) == repr(_full_max(blocks))


@pytest.mark.parametrize("where", [0, 1, 2])
def test_pruned_max_sigma_with_a_nan_block(where):
    """A block with a NaN takes the full stacked norm, so it fails exactly
    as the full maximum does, whichever block it is."""
    rng = np.random.default_rng(where)
    blocks = [rng.standard_normal((6, 5, 5)) for _ in range(3)]
    blocks[where][3, 1, 2] = np.nan
    full, full_error = _outcome(lambda: _full_max(blocks))
    pruned, pruned_error = _outcome(lambda: _pruned_max(blocks))
    assert pruned_error == full_error
    assert repr(pruned) == repr(full)


@pytest.mark.parametrize("zero", [(0,), (1,), (0, 1)])
def test_pruned_max_sigma_with_zero_blocks(zero):
    """All-zero blocks (P - I = 0 when l = m) give the full maximum too."""
    rng = np.random.default_rng(len(zero))
    blocks = [rng.standard_normal((5, 4, 4)) for _ in range(2)]
    for i in zero:
        blocks[i][:] = 0.0
    assert repr(_pruned_max(blocks)) == repr(_full_max(blocks))


def test_pruned_max_sigma_keeps_a_nan_maximum():
    """A NaN maximum stays NaN through later finite blocks, as in np.max."""
    stack = np.random.default_rng(3).standard_normal((4, 6, 6))
    assert math.isnan(bound1d._max_sigma(stack, math.nan))


def test_certificate_max_comp_h_is_the_full_stacked_max(monkeypatch):
    """The reported max_comp_h equals the maximum of the full stacked norm
    of every block (the computation before candidate rows) bit for bit."""
    rng = np.random.default_rng(11)
    for m, l, n_grid in ((3, 1, 50), (4, 4, 60), (12, 3, 400), (30, 2, 200), (40, 4, 100)):
        xs = np.sort(rng.uniform(0.0, 1.0, m))
        pts = PointSet(xs, values=np.sin(xs))
        weight = WeightSpec("exp", float(rng.uniform(0.1, 2.0)))
        cert = certify_bound(pts, monomial_basis(l), weight, n_grid=n_grid)
        stacks = []

        def full(stack, best):
            stacks.append(stack.copy())
            return float(np.max(np.linalg.norm(stack, 2, axis=(1, 2)), initial=best))

        with monkeypatch.context() as mp:
            mp.setattr(bound1d, "_max_sigma", full)
            ref = certify_bound(pts, monomial_basis(l), weight, n_grid=n_grid)
        assert len(stacks) > 1 or n_grid * m * m <= bound1d._BLOCK_DOUBLES
        assert repr(cert.majorants["max_comp_h"]) == repr(ref.majorants["max_comp_h"])
        assert repr(cert.majorants["max_comp_h"]) == repr(_full_max(stacks))


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
