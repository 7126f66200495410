"""Solver-level checks: the coefficient vector, its invariants, and the
failure modes (hypotheses, rank, conditioning)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlscert import core
from mlscert.bases import BasisSpec, monomial_basis
from mlscert.bound1d import uniform_grid
from mlscert.cli import main
from mlscert.core import (
    ConditioningError,
    HypothesisFailure,
    build_design,
    build_system,
    build_systems,
    build_weight_diag,
    check_hypotheses,
    evaluate,
    evaluate_many,
)
from mlscert.error_analysis import amplification
from mlscert.points import PointSet
from mlscert.reporting import csv_text
from mlscert.weights import WeightSpec

NODES_012 = PointSet(np.array([0.0, 1.0, 2.0]), values=np.array([0.0, 1.0, 2.0]))
EXP1 = WeightSpec("exp", 1.0)


# Hand-solved reference for nodes {0,1,2}, monomials {1,x}, exp weight
# alpha=1, x=1: solve E^T D^{-1} E b = c, a = D^{-1} E b with
# D = diag(2e, 2, 2e).
COEFFS_REF = np.array([0.21194155761708438, 0.57611688476583122, 0.21194155761708438])


def test_coefficients_match_hand_oracle():
    sysm = build_system(1.0, NODES_012, monomial_basis(2), EXP1)
    np.testing.assert_allclose(sysm.coeffs, COEFFS_REF, atol=1e-14)


def test_weight_diag_example():
    dvec = build_weight_diag(NODES_012.distances(1.0), EXP1)
    np.testing.assert_allclose(dvec, [2.0 * np.e, 2.0, 2.0 * np.e], rtol=1e-15)


def test_fit_value_and_unity():
    sysm = build_system(1.0, NODES_012, monomial_basis(2), EXP1)
    assert float(np.sum(sysm.coeffs)) == pytest.approx(1.0, abs=1e-12)
    # data is linear and the basis contains linears: exact reproduction
    assert float(sysm.coeffs @ NODES_012.values) == pytest.approx(1.0, abs=1e-12)


def test_single_node_constant_basis():
    pts = PointSet(np.array([0.7]), values=np.array([3.0]))
    sysm = build_system(0.2, pts, monomial_basis(1), EXP1)
    np.testing.assert_allclose(sysm.coeffs, [1.0], rtol=0, atol=0)


def test_square_system_reproduces_data():
    """m = l: the local fit interpolates every node value."""
    pts = PointSet(np.array([0.0, 0.5, 1.0]), values=np.array([2.0, -1.0, 0.5]))
    for x in (0.0, 0.5, 1.0):
        assert evaluate(x, pts, monomial_basis(3), EXP1) == pytest.approx(
            float(pts.values[np.argmin(np.abs(pts.nodes - x))]), abs=1e-9
        )


def test_basis_larger_than_nodes_fails():
    with pytest.raises(HypothesisFailure) as err:
        build_system(0.5, NODES_012, monomial_basis(4), EXP1)
    assert "basis_size_le_nodes" in err.value.items


def test_rank_deficient_design_fails():
    """Collinear 2-d nodes make the columns x and y of {1, y, x} equal."""
    collinear = PointSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    basis = monomial_basis(3, dim=2)
    with pytest.raises(HypothesisFailure) as err:
        build_system(np.array([1.5, 1.5]), collinear, basis, EXP1)
    assert "design_full_rank" in err.value.items
    rep = check_hypotheses(collinear, basis, EXP1)
    assert rep.rank == 2 and rep.failed_items == ["design_full_rank"]


def test_conditioning_limit_enforced():
    with pytest.raises(ConditioningError):
        build_system(1.0, NODES_012, monomial_basis(2), EXP1, cond_limit=1.0)


def test_interpolating_weight_at_node():
    """Interpolating families return the exact node value at a node."""
    pts = PointSet(np.array([0.0, 1.0, 2.0]), values=np.array([5.0, -2.0, 7.0]))
    wspec = WeightSpec("shepard", 1.0)
    sysm = build_system(1.0, pts, monomial_basis(2), wspec)
    assert sysm.at_node == 1
    np.testing.assert_array_equal(sysm.coeffs, [0.0, 1.0, 0.0])
    assert evaluate(1.0, pts, monomial_basis(2), wspec) == -2.0


def test_evaluate_many():
    xs = np.array([0.3, 0.9, 1.4])
    vals = evaluate_many(xs, NODES_012, monomial_basis(2), EXP1)
    np.testing.assert_allclose(vals, xs, atol=1e-12)  # linear data


def test_check_hypotheses_ok():
    rep = check_hypotheses(NODES_012, monomial_basis(2), EXP1)
    assert rep.ok
    assert rep.basis_size_le_nodes and rep.design_full_rank
    assert rep.weight_smooth is True
    assert rep.failed_items == []


def test_check_hypotheses_flags_nonsmooth_weight():
    rep = check_hypotheses(NODES_012, monomial_basis(2), WeightSpec("shepard", 1.0))
    # smoothness is advisory, not gating
    assert rep.ok
    assert rep.weight_smooth is False


def test_design_shape():
    design = build_design(NODES_012, monomial_basis(2))
    assert design.shape == (3, 2)
    np.testing.assert_array_equal(design[:, 0], 1.0)
    np.testing.assert_array_equal(design[:, 1], NODES_012.nodes.ravel())


def test_basis_is_size_and_dim():
    """A basis takes only its size and dimension; its exponents are the
    graded monomial ones, derived and read-only."""
    for keyword in ("functions", "derivative", "exponents", "kind"):
        with pytest.raises(TypeError):
            BasisSpec(size=1, **{keyword: None})
    basis = BasisSpec(3, 2)
    assert basis == monomial_basis(3, dim=2)
    np.testing.assert_array_equal(basis.exponents, [[0, 0], [0, 1], [1, 0]])
    assert not basis.exponents.flags.writeable
    np.testing.assert_array_equal(monomial_basis(3).eval_at(2.0), [1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        BasisSpec(size=0)
    with pytest.raises(ValueError):
        monomial_basis(2, dim=2).derivative_at(0.5)


def test_gram_from_rmat_symmetric():
    sysm = build_system(0.3, NODES_012, monomial_basis(2), EXP1)
    gram = sysm.rmat.T @ sysm.rmat
    np.testing.assert_allclose(gram, gram.T, atol=1e-15)
    assert gram.shape == (2, 2)
    normal = sysm.design.T @ (sysm.design / sysm.dvec[:, None])
    np.testing.assert_allclose(gram, normal, rtol=1e-13)


def test_far_node_exp_fit_raises_no_overflow_warning():
    """2 * w overflowing to inf is the zero-influence limit, not an error."""
    nodes = np.array([0.0, 0.01, 0.02, 0.03, 1.0])
    pts = PointSet(nodes, values=np.sin(nodes))
    # w(1) = exp(709.5) is finite; doubling it is not
    weight = WeightSpec("exp", 709.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sysm = build_system(0.0, pts, monomial_basis(2), weight)
        fits = evaluate_many(np.linspace(0.0, 0.03, 4), pts, monomial_basis(2), weight)
    assert np.isinf(sysm.dvec[-1])
    assert sysm.coeffs[-1] == 0.0
    assert np.all(np.isfinite(fits))


# --- the batched solve ------------------------------------------------------


def _per_point(xs, pts, basis, weight):
    """Reference: build_system point by point; stops at the first error."""
    rows = []
    for x in xs:
        try:
            rows.append(build_system(x, pts, basis, weight))
        except Exception as exc:
            return rows, (type(exc), str(exc))
    return rows, None


def _batched(xs, pts, basis, weight):
    try:
        return build_systems(xs, pts, basis, weight), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def _assert_rows_equal(out, rows):
    coeffs, at_node = out
    assert coeffs.shape == (len(rows), rows[0].m)
    for a, k, sysm in zip(coeffs, at_node, rows):
        assert a.tobytes() == sysm.coeffs.tobytes()
        assert k == (-1 if sysm.at_node is None else sysm.at_node)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    m=st.integers(3, 10),
    l=st.integers(1, 3),
    family=st.sampled_from(("exp", "shepard", "mclain", "levin")),
    log_alpha=st.floats(np.log(1e-2), np.log(1e2)),
    seed=st.integers(0, 2**32 - 1),
)
def test_build_systems_rows_match_build_system(dim, m, l, family, log_alpha, seed):
    """Batched rows equal the one-point solve bit for bit, and a failing
    grid raises the first failing point's error."""
    rng = np.random.default_rng(seed)
    nodes = rng.uniform(0.0, 1.0, (m, dim))
    pts = PointSet(nodes, values=rng.standard_normal(m))
    basis = monomial_basis(l, dim)
    weight = WeightSpec(family, float(np.exp(log_alpha)))
    # inside the span, on nodes, and far outside it
    xs = np.vstack([
        rng.uniform(-0.1, 1.1, (12, dim)),
        nodes[rng.integers(0, m, 3)],
        rng.uniform(5.0, 50.0, (2, dim)),
    ])
    rng.shuffle(xs)
    rows, error = _per_point(xs, pts, basis, weight)
    out, batched_error = _batched(xs, pts, basis, weight)
    assert batched_error == error
    if error is None:
        _assert_rows_equal(out, rows)
    # the rows that solve, batched on their own
    good = [x for x in xs if _per_point([x], pts, basis, weight)[1] is None]
    if good:
        rows, _ = _per_point(good, pts, basis, weight)
        _assert_rows_equal(build_systems(np.array(good), pts, basis, weight), rows)


def test_build_systems_block_boundary():
    """One row past a full block, with a node hit as the last row."""
    n = core._BLOCK + 1
    nodes = np.linspace(0.0, 1.0, 7)
    pts = PointSet(nodes, values=np.cos(nodes))
    basis = monomial_basis(2)
    for weight in (WeightSpec("exp", 3.0), WeightSpec("shepard", 1.0)):
        xs = np.linspace(0.013, 0.987, n)
        xs[-1] = nodes[4]
        rows, error = _per_point(xs, pts, basis, weight)
        assert error is None
        _assert_rows_equal(build_systems(xs, pts, basis, weight), rows)
    assert rows[-1].at_node == 4


NEAR = 0.2 + 1e-9  # next to a node of an interpolating weight: ConditioningError
FAR = 1e3  # mclain weight underflows to 0: ValueError
FIRST_FAILURES = [
    ([0.5, NEAR, FAR, np.nan], ConditioningError),
    ([0.5, FAR, NEAR], ValueError),
    ([0.5, np.nan, NEAR, FAR], ValueError),  # names the point, not LAPACK
    ([0.5] * core._BLOCK + [NEAR, FAR], ConditioningError),
    ([0.5, FAR] + [0.5] * core._BLOCK + [NEAR], ValueError),
]


@pytest.mark.parametrize("xs,expected", FIRST_FAILURES)
def test_build_systems_first_failure_wins(xs, expected):
    """The first failing grid point decides, even when a later point in the
    same block fails differently or is not finite."""
    pts = PointSet(np.linspace(0.0, 1.0, 6), values=np.arange(6.0))
    basis, weight = monomial_basis(2), WeightSpec("mclain", 1.5)
    _, error = _per_point(xs, pts, basis, weight)
    assert error[0] is expected
    assert _batched(np.array(xs), pts, basis, weight)[1] == error


def test_cmd_fit_matches_per_point_evaluate(tmp_path):
    """A fit over an N grid writes the bytes of a point-by-point table."""
    nodes = np.sort(np.random.default_rng(5).uniform(0.0, 1.0, 40))
    pts = PointSet(nodes, values=np.sin(6.0 * nodes))
    pts.to_csv(tmp_path / "in.csv")
    (tmp_path / "cfg.json").write_text(
        '{"l": 3, "weight": {"family": "exp", "alpha": 900.0}}'
    )
    n = 2 * core._BLOCK + 7
    code = main([
        "fit", "--input", str(tmp_path / "in.csv"),
        "--config", str(tmp_path / "cfg.json"), "--grid", str(n),
        "--format", "csv", "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 0
    basis, weight = monomial_basis(3), WeightSpec("exp", 900.0)
    rows = []
    for x in uniform_grid(pts, n, weight):
        coeffs = build_system(x, pts, basis, weight).coeffs
        rows.append((float(x), evaluate(x, pts, basis, weight),
                     float(np.sum(coeffs)), amplification(coeffs)))
    expected = csv_text(["x1", "Lhat", "sum_a", "amplification"], rows)
    assert (tmp_path / "out.csv").read_text() == expected


# --- point-set plumbing ----------------------------------------------------


def test_duplicate_nodes_rejected():
    with pytest.raises(ValueError):
        PointSet(np.array([0.0, 0.0, 1.0]))


def test_signed_zero_nodes_are_duplicates():
    """0.0 and -0.0 are one node, in 1-d and as a coordinate of a row."""
    with pytest.raises(ValueError, match="pairwise distinct"):
        PointSet(np.array([0.0, 1.0, -0.0]))
    with pytest.raises(ValueError, match="pairwise distinct"):
        PointSet(np.array([[0.0, 1.0], [0.5, 1.0], [-0.0, 1.0]]))
    # rows that share coordinates but differ as rows are distinct
    assert PointSet(np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]])).m == 3


def test_non_finite_evaluation_point_is_named():
    """A NaN point is a ValueError naming it, not LAPACK's 'SVD did not
    converge'."""
    pts = PointSet(np.linspace(0.0, 1.0, 5), values=np.arange(5.0))
    basis, weight = monomial_basis(2), WeightSpec("exp", 1.0)
    with pytest.raises(ValueError, match=r"^evaluation point nan is not finite$"):
        evaluate(np.nan, pts, basis, weight)
    with pytest.raises(ValueError, match=r"^evaluation point inf is not finite$"):
        build_systems([0.5, np.inf, np.nan], pts, basis, weight)
    pts2 = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match=r"^evaluation point \(0\.5, nan\) is not"):
        build_system(np.array([0.5, np.nan]), pts2, monomial_basis(3, dim=2), weight)


def test_nonfinite_nodes_rejected():
    with pytest.raises(ValueError):
        PointSet(np.array([0.0, np.nan]))


def test_value_count_mismatch():
    with pytest.raises(ValueError):
        PointSet(np.array([0.0, 1.0]), values=np.array([1.0]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_distances_of_a_stack_match_per_point_calls(d):
    rng = np.random.default_rng(d)
    pts = PointSet(rng.uniform(-1.0, 1.0, (7, d)))
    xs = rng.uniform(-2.0, 2.0, (300, d))
    stack = pts.distances(xs)
    assert stack.shape == (300, 7)
    assert stack.tobytes() == np.array([pts.distances(x) for x in xs]).tobytes()
    ref = np.array([np.linalg.norm(pts.nodes - x[None, :], axis=1) for x in xs])
    assert stack.tobytes() == ref.tobytes()
    with pytest.raises(ValueError):
        pts.distances(np.zeros((2, d + 1)))


def test_csv_round_trip(tmp_path):
    path = tmp_path / "pts.csv"
    pts = PointSet(np.array([0.0, 0.25, 1.5]), values=np.array([1.0, -2.0, 0.125]))
    pts.to_csv(path)
    again = PointSet.from_csv(path)
    np.testing.assert_array_equal(again.nodes, pts.nodes)
    np.testing.assert_array_equal(again.values, pts.values)


def test_csv_without_values(tmp_path):
    path = tmp_path / "nodes.csv"
    PointSet(np.array([0.0, 1.0])).to_csv(path)
    again = PointSet.from_csv(path)
    assert again.values is None


# --- property tests --------------------------------------------------------

node_sets = st.integers(2, 8).flatmap(
    lambda m: st.lists(
        st.floats(0.0, 1.0, allow_nan=False, width=64),
        min_size=m,
        max_size=m,
        unique=True,
    ).filter(lambda xs: np.min(np.diff(np.sort(xs))) > 1e-3)
)


@settings(max_examples=50, deadline=None)
@given(
    nodes=node_sets,
    alpha=st.floats(0.1, 3.0),
    xfrac=st.floats(0.05, 0.95),
)
def test_partition_of_unity_property(nodes, alpha, xfrac):
    nodes = np.sort(np.asarray(nodes))
    pts = PointSet(nodes)
    x = float(nodes[0] + xfrac * (nodes[-1] - nodes[0]))
    if np.min(np.abs(nodes - x)) < 1e-6:
        return
    l = min(2, pts.m)
    try:
        sysm = build_system(x, pts, monomial_basis(l), WeightSpec("exp", alpha))
    except ConditioningError:
        return
    assert abs(float(np.sum(sysm.coeffs)) - 1.0) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(
    nodes=node_sets,
    alpha=st.floats(0.1, 3.0),
    coef0=st.floats(-5.0, 5.0),
    coef1=st.floats(-5.0, 5.0),
)
def test_linear_reproduction_property(nodes, alpha, coef0, coef1):
    """Fits reproduce any function in the basis span."""
    nodes = np.sort(np.asarray(nodes))
    pts = PointSet(nodes, values=coef0 + coef1 * nodes)
    x = float(0.5 * (nodes[0] + nodes[-1]))
    if np.min(np.abs(nodes - x)) < 1e-6:
        return
    try:
        got = evaluate(x, pts, monomial_basis(2), WeightSpec("exp", alpha))
    except ConditioningError:
        return
    target = coef0 + coef1 * x
    assert abs(got - target) <= 1e-9 * max(1.0, abs(target))
