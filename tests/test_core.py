"""Solver-level checks: the coefficient vector, its invariants, and the
failure modes (hypotheses, rank, conditioning)."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mlscert import core
from mlscert.bases import BasisSpec, monomial_basis, monomial_exponents
from mlscert.bound1d import certify_bound, uniform_grid
from mlscert.cli import main
from mlscert.core import (
    ConditioningError,
    HypothesisFailure,
    MlsError,
    build_design,
    build_rows,
    build_system,
    build_systems,
    check_hypotheses,
    evaluate,
    evaluate_many,
    fitted_values,
)
from mlscert.error_analysis import amplification
from mlscert.points import PointSet, distances_each
from mlscert.reporting import canonical_json, csv_text
from mlscert.weights import FAMILIES, WeightSpec, w_each

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
    dvec = build_system(1.0, NODES_012, monomial_basis(2), EXP1).dvec
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
    assert err.value.items == ["basis_size_le_nodes"]
    assert err.value.measured == ": l 4 > m 3"
    rep = check_hypotheses(NODES_012, monomial_basis(4))
    assert rep.failed_items == ["basis_size_le_nodes", "design_full_rank"]
    assert rep.measured == "l 4 > m 3, design rank 3 < l 4"
    assert check_hypotheses(NODES_012, monomial_basis(3)).measured == ""


def test_rank_deficient_design_fails():
    """Collinear 2-d nodes make the columns x and y of {1, y, x} equal."""
    collinear = PointSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    basis = monomial_basis(3, dim=2)
    with pytest.raises(HypothesisFailure) as err:
        build_system(np.array([1.5, 1.5]), collinear, basis, EXP1)
    assert "design_full_rank" in err.value.items
    rep = check_hypotheses(collinear, basis)
    assert rep.rank == 2 and rep.failed_items == ["design_full_rank"]
    assert rep.measured == "design rank 2 < l 3"


def test_conditioning_limit_enforced(monkeypatch):
    monkeypatch.setattr(core, "COND_LIMIT", 1.0)
    with pytest.raises(ConditioningError):
        build_system(1.0, NODES_012, monomial_basis(2), EXP1)


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
    rep = check_hypotheses(NODES_012, monomial_basis(2))
    assert rep.basis_size_le_nodes and rep.design_full_rank
    assert rep.failed_items == []


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


def _blocks_of(patch, rows: int, m: int, l: int) -> None:
    """Make ``build_rows`` solve (m, l) problems in blocks of ``rows``
    rows, through the budget that sizes every block."""
    patch.setattr(core, "_BLOCK_DOUBLES", 4 * rows * m * l)
    assert core._block_rows(m, l) // 4 == rows


def test_build_systems_block_boundary():
    """One row past a full block, with a node hit as the last row."""
    n = core._block_rows(7, 2) // 4 + 1
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


def test_solve_blocks_follow_the_doubles_budget(monkeypatch):
    """300 nodes with l = 2 solve in blocks of ``_block_rows(300, 2) // 4``
    = 27 rows, so 50 points take 2 solve blocks."""
    sizes, solve = [], core._solve_rows

    def counted(xs, *args):
        sizes.append(len(xs))
        return solve(xs, *args)

    monkeypatch.setattr(core, "_solve_rows", counted)
    nodes = np.linspace(0.0, 1.0, 300)
    pts = PointSet(nodes, values=np.sin(nodes))
    evaluate_many(np.linspace(0.1, 0.9, 50)[:, None], pts, monomial_basis(2),
                  WeightSpec("exp", 1.0))
    assert sizes == [27, 23]


# the solve block of 64 nodes and l = 2: 128 rows
LOCATE_BLOCK = core._block_rows(64, 2) // 4


@pytest.mark.parametrize("first", [0, LOCATE_BLOCK - 1, LOCATE_BLOCK, 2 * LOCATE_BLOCK + 5])
def test_build_systems_locates_the_first_failing_row(first):
    """A failing row keeps the message its one-row solve raises, and
    ``where`` names it as the grid point it is, in whichever block it
    lies; the rows before it pass."""
    pts = PointSet(np.linspace(0.0, 1.0, 64), values=np.zeros(64))
    basis, weight = monomial_basis(2), WeightSpec("exp", 1.0)
    xs = np.full(2 * LOCATE_BLOCK + 9, 0.5)
    xs[first:] = 30.0  # every weight overflows: the design_full_rank failure
    with pytest.raises(HypothesisFailure) as err:
        build_systems(xs, pts, basis, weight)
    with pytest.raises(HypothesisFailure) as one:
        build_system(30.0, pts, basis, weight)
    assert str(err.value) == str(one.value) == "hypothesis failure: design_full_rank"
    assert err.value.where == f" at x = 30.0 (grid point {first} of {len(xs)})"
    assert one.value.where == ""
    measured = ": sigma_min 0.000e+00 <= rank tolerance 2.225e-308"
    assert err.value.measured == one.value.measured == measured


def test_rank_failure_names_what_it_measured():
    """The first rank-deficient R names its smin and the tolerance it
    was held to; the message itself keeps its prefix."""
    rmats = np.array([np.diag([2.0, 1.0]), np.diag([1.0, 1e-17]), np.diag([1.0, 0.0])])
    with pytest.raises(HypothesisFailure) as err:
        core._checked_conds(rmats, 5, 2)
    tol = float(core.rank_tolerance(5, 2, 1.0))
    assert str(err.value) == "hypothesis failure: design_full_rank"
    assert err.value.measured == f": sigma_min 1.000e-17 <= rank tolerance {tol:.3e}"
    assert f"{tol:.3e}" == "1.776e-14"


@pytest.mark.parametrize("m", [1, 2, 7, 25, 300])
def test_fitted_values_match_per_row_products(m):
    """The stacked dot products equal a @ values row by row, bit for bit,
    and an interpolation-limit row takes its node's value, -0.0 included."""
    rng = np.random.default_rng(m)
    coeffs = rng.standard_normal((130, m)) * np.exp(rng.uniform(-20.0, 20.0, (130, 1)))
    values = rng.standard_normal(m)
    values[0] = -0.0
    at_node = np.full(130, -1)
    at_node[[3, 64, 129]] = [0, m - 1, m // 2]
    coeffs[at_node >= 0] = np.eye(m)[at_node[at_node >= 0]]
    ref = np.array([values[k] if k >= 0 else a @ values for a, k in zip(coeffs, at_node)])
    assert fitted_values(coeffs, at_node, values).tobytes() == ref.tobytes()
    assert fitted_values(coeffs[:0], at_node[:0], values).shape == (0,)


# a design of rank 1, one whose Gram condition is about 1e15, and a good one
RANK_DEFICIENT = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
ILL_CONDITIONED = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-7], [1.0, 1.0]])
WELL_CONDITIONED = np.eye(3, 2)


def _solve_designs(*designs):
    """The coefficients of k problems at x = 0.5 (basis values 1, 0.5) with
    the given (3, 2) designs and unit weights, solved as one stack."""
    k = len(designs)
    nodes = np.tile([[0.0], [1.0], [2.0]], (k, 1, 1))
    return build_systems(np.full((k, 1), 0.5), nodes, monomial_basis(2),
                         dvecs=np.full((k, 3), 2.0), design=np.stack(designs))[0]


@pytest.mark.parametrize("designs,expected", [
    ((RANK_DEFICIENT,), HypothesisFailure),
    ((ILL_CONDITIONED,), ConditioningError),
    ((ILL_CONDITIONED, RANK_DEFICIENT), ConditioningError),
    ((RANK_DEFICIENT, ILL_CONDITIONED), HypothesisFailure),
    ((WELL_CONDITIONED, ILL_CONDITIONED, RANK_DEFICIENT), ConditioningError),
    ((WELL_CONDITIONED, RANK_DEFICIENT, ILL_CONDITIONED), HypothesisFailure),
])
def test_first_failing_row_of_a_block_raises(designs, expected):
    """The rank and conditioning checks of a stacked solve raise what the
    first failing row raises, whatever fails after it."""
    with pytest.raises(expected):
        _solve_designs(*designs)


def test_subnormal_design_fails_the_rank_check():
    """With every singular value of R subnormal, the rank tolerance is the
    smallest normal double instead of an underflowed 0, so the row fails
    the rank check rather than solving to NaN coefficients."""
    with pytest.raises(HypothesisFailure):
        _solve_designs(2.0**-1060 * WELL_CONDITIONED)
    tiny = np.finfo(float).tiny
    assert core.rank_tolerance(3, 2, 2.0**-1060) == tiny
    assert core.rank_tolerance(3, 2, 0.0) == tiny
    # no bit moves where the product is normal
    for smax in (1e-155, 1.0, 1e300):
        assert core.rank_tolerance(3, 2, smax) == 3 * smax * (16 * np.finfo(float).eps)


NEAR = 0.2 + 1e-9  # next to a node of an interpolating weight: ConditioningError
FAR = 1e3  # mclain weight underflows to 0: a ValueError naming its point
# the solve block of the six nodes and l = 2 below
_FIRST_BLOCK = core._block_rows(6, 2) // 4
FIRST_FAILURES = [
    ([0.5, NEAR, FAR, np.nan], ConditioningError),
    ([0.5, FAR, NEAR], core._WeightVanished),
    ([0.5, np.nan, NEAR, FAR], ValueError),  # names the point, not LAPACK
    ([0.5] * _FIRST_BLOCK + [NEAR, FAR], ConditioningError),
    ([0.5, FAR] + [0.5] * _FIRST_BLOCK + [NEAR], core._WeightVanished),
]


# the ids name the exit-2 class, ValueError, of which _WeightVanished is one
@pytest.mark.parametrize("xs,expected", FIRST_FAILURES, ids=[
    "xs0-ConditioningError", "xs1-ValueError", "xs2-ValueError",
    "xs3-ConditioningError", "xs4-ValueError",
])
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
    n = 2 * (core._block_rows(40, 3) // 4) + 7
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
    for nodes in ([0.0, np.nan], [np.inf, 0.0], [0.0, -np.inf, 1.0],
                  [[0.0, 1.0], [np.nan, 0.0]], [[0.0, 0.0], [0.0, 0.0], [np.inf, 1.0]]):
        with pytest.raises(ValueError, match="^nodes must be finite$"):
            PointSet(np.array(nodes))


def test_value_count_mismatch():
    with pytest.raises(ValueError, match="^got 1 values for 2 nodes$"):
        PointSet(np.array([0.0, 1.0]), values=np.array([1.0]))
    with pytest.raises(ValueError, match="^values must be finite$"):
        PointSet(np.array([0.0, 1.0]), values=np.array([1.0, np.nan]))


def test_point_set_shapes_and_messages():
    """A scalar is one node in 1-d; an empty or 3-d array is refused, and
    exact duplicates are named in 1-d and 2-d."""
    assert PointSet(0.5).nodes.shape == (1, 1)
    assert PointSet([0.5, 0.25]).nodes.tolist() == [[0.5], [0.25]]
    for nodes in (np.zeros(0), np.zeros((0, 2)), np.zeros((2, 1, 1))):
        with pytest.raises(ValueError, match=r"^nodes must be a \(m, d\) array with m >= 1$"):
            PointSet(nodes)
    for nodes in ([0.5, 0.25, 0.5], [[0.5, 1.0], [0.0, 0.0], [0.5, 1.0]]):
        with pytest.raises(ValueError, match="^nodes must be pairwise distinct$"):
            PointSet(np.array(nodes))


def test_point_set_keeps_a_float64_input_read_only():
    """A (m, d) float64 array is taken as it is and made read-only; a 1-d
    one, and the values, as read-only views of the caller's array."""
    nodes, values = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([2.0, 3.0])
    pts = PointSet(nodes, values=values)
    assert pts.nodes is nodes and not nodes.flags.writeable
    assert np.shares_memory(pts.values, values) and not pts.values.flags.writeable
    column = np.array([0.0, 0.5, 1.0])
    pts = PointSet(column)
    assert np.shares_memory(pts.nodes, column) and not pts.nodes.flags.writeable
    copied = PointSet(np.array([0, 1]))
    assert copied.nodes.dtype == float and not copied.nodes.flags.writeable


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


def _built(xs, nodes, basis, weight, **kwargs):
    """The systems ``build_rows`` gives, in row order, up to the first
    failing row, and that row's error as (type, message)."""
    systems = []
    try:
        for _, rows in build_rows(xs, nodes, basis, weight, **kwargs):
            systems += rows.systems()
    except Exception as exc:
        return systems, (type(exc), str(exc))
    return systems, None


def _one_row_loop(xs, point_sets, basis, weights):
    """Reference: ``build_system`` row by row, up to the first failing row."""
    systems = []
    for x, pts, weight in zip(xs, point_sets, weights):
        try:
            systems.append(build_system(x, pts, basis, weight))
        except Exception as exc:
            return systems, (type(exc), str(exc))
    return systems, None


def _assert_same_systems(got, ref):
    assert got[1] == ref[1]
    assert len(got[0]) == len(ref[0])
    for a, b in zip(got[0], ref[0]):
        for name in ("x", "design", "dvec", "basis_at_x", "coeffs"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        for name in ("qmat", "rmat"):
            qa, qb = getattr(a, name), getattr(b, name)
            assert (qa is None and qb is None) or qa.tobytes() == qb.tobytes(), name
        assert repr(a.cond_gram) == repr(b.cond_gram)
        assert a.at_node == b.at_node


#: alphas whose square numpy's power could take a fast path for (none is
#: exactly 0.5 or 2), the round ones a config would give, and extremes
_ALPHAS = st.one_of(
    st.sampled_from([1.0, 2.0, 0.5, math.sqrt(0.5), math.sqrt(2.0), 1e-3, 30.0]),
    st.floats(0.05, 5.0),
)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]))
def test_stacked_problems_match_one_problem_at_a_time(data, d):
    """``build_rows`` on k problems of one shape, each with its own node
    set and weight, all four weight families in the one stack, gives each
    problem's ``build_system`` bit for bit, and the first failing
    problem's error; its stacked inputs give each problem's
    ``PointSet.distances``, ``WeightSpec.w`` and ``build_design``."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    l = data.draw(st.integers(1, 3 if d == 1 else 4))
    m = data.draw(st.integers(max(l, 2), l + 6))
    k = data.draw(st.integers(4, 12))
    families = list(FAMILIES) + [data.draw(st.sampled_from(FAMILIES)) for _ in range(k - 4)]
    weights = [WeightSpec(families[i], data.draw(_ALPHAS)) for i in rng.permutation(k)]
    point_sets = [PointSet(rng.uniform(0.0, 1.0, (m, d))) for _ in range(k)]
    xs = rng.uniform(-0.2, 1.2, (k, d))
    for i in data.draw(st.lists(st.integers(0, k - 1), max_size=3)):
        xs[i] = point_sets[i].nodes[0]  # an interpolation limit, or w(0) = 1
    basis = monomial_basis(l, d)

    nodes = np.stack([p.nodes for p in point_sets])
    with np.errstate(over="ignore"):
        dists = distances_each(nodes, xs)
        stacked_w = w_each(weights, dists)
    designs = core._designs(nodes, basis)
    for i, (pts, weight) in enumerate(zip(point_sets, weights)):
        assert dists[i].tobytes() == pts.distances(xs[i]).tobytes()
        assert designs[i].tobytes() == build_design(pts, basis).tobytes()
        assert stacked_w[i].tobytes() == weight.w(dists[i]).tobytes()

    ref = _one_row_loop(xs, point_sets, basis, weights)
    _assert_same_systems(_built(xs, nodes, basis, weights), ref)
    # the problems that solve alone solve together
    ok = [i for i in range(k) if _one_row_loop(xs[i:i + 1], point_sets[i:i + 1], basis,
                                                weights[i:i + 1])[1] is None]
    _assert_same_systems(_built(xs[ok], nodes[ok], basis, [weights[i] for i in ok]),
                         _one_row_loop(xs[ok], [point_sets[i] for i in ok], basis,
                                       [weights[i] for i in ok]))


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from((1, 2)),
    m=st.integers(3, 9),
    l=st.integers(1, 3),
    family=st.sampled_from(FAMILIES),
    alpha=_ALPHAS,
    block_rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_builder_cases_agree_with_one_row_builds(d, m, l, family, alpha, block_rows, seed):
    """The three ways into ``build_rows`` agree bit for bit: one node set
    and weight broadcast over the rows, the same given per row as a node
    stack and a weight list, and a loop of one-row ``build_system`` calls.
    They agree on which row raises first and on what it raises, whatever
    the block size; the rows before it are the same systems."""
    rng = np.random.default_rng(seed)
    pts = PointSet(rng.uniform(0.0, 1.0, (m, d)))
    basis, weight = monomial_basis(l, d), WeightSpec(family, alpha)
    # inside the span, on nodes, next to a node and far outside the span
    xs = np.vstack([
        rng.uniform(-0.1, 1.1, (8, d)),
        pts.nodes[rng.integers(0, m, 2)],
        pts.nodes[rng.integers(0, m, 1)] + 1e-9,
        rng.uniform(5.0, 50.0, (1, d)),
    ])
    rng.shuffle(xs)
    n = len(xs)
    ref = _one_row_loop(xs, [pts] * n, basis, [weight] * n)
    with pytest.MonkeyPatch.context() as patch:
        _blocks_of(patch, block_rows, m, l)
        broadcast = _built(xs, pts, basis, weight)
        per_row = _built(xs, np.stack([pts.nodes] * n), basis, [weight] * n)
    _assert_same_systems(broadcast, ref)
    _assert_same_systems(per_row, ref)


def test_stacked_designs_name_the_first_failing_node_set():
    """A node set whose design overflows raises what ``build_design``
    raises for it, the first such set in the stack."""
    basis = monomial_basis(3)
    ok = PointSet(np.array([0.0, 1.0, 2.0]))
    far = [PointSet(np.array([0.0, 1.0, x])) for x in (1e200, 3e200)]
    with pytest.raises(ValueError) as ref:
        build_design(far[0], basis)
    nodes = np.stack([p.nodes for p in (ok, far[0], ok, far[1])])
    with pytest.raises(ValueError) as got:
        build_systems([[0.5]] * 4, nodes, basis, [WeightSpec("exp")] * 4)
    assert str(got.value) == str(ref.value) == "basis values at node 1e+200 are not finite"
    with pytest.raises(HypothesisFailure, match="basis_size_le_nodes"):
        build_systems([[0.5]], np.array([[[0.0], [1.0]]]), basis, [WeightSpec("exp")])
    with pytest.raises(HypothesisFailure, match="basis_size_le_nodes"):  # no node at all
        build_systems([[0.5]], np.zeros((1, 0, 1)), monomial_basis(1), [WeightSpec("exp")])


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


# text -> (nodes, values) of a node CSV that reads, or the line it names
CSV_RECORDS = {
    "blank records": ("x1,f\n0.5,1\n\n  ,\t\n1.5,2\n", ([[0.5], [1.5]], [1.0, 2.0])),
    "blank records count as lines": ("x1,f\n\n \n0.5,1\n1.5,oops\n", 5),
    "short record": ("x1,x2,f\n0,0,1\n1,2\n", 3),
    "non-numeric cell": ("x1,f\n0.5,1\n0.75,abc\n1,2\n", 3),
    "first of two malformed": ("x1,f\n0.5,bad\n1.5,\n", 2),
    "one column": ("x1\n0.5\n1.5\n", ([[0.5], [1.5]], None)),
    "one column malformed": ("x1\n0.5\nx\n", 3),
    "f before the last column": ("x1,f,note\n0.5,1,a\n1.5,2,b\n", ([[0.5], [1.5]], [1.0, 2.0])),
    "f before a short last column": ("x1,x2,f,note\n0,1,2\n1,0,3,c\n",
                                     ([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0])),
    "quoted fields": ('x1,f\n"0.5","1e0"\n" 1.5 ","-2"\n', ([[0.5], [1.5]], [1.0, -2.0])),
    "a cell only float parses": ("x1,f\n1_0,2\n0.5,1\n", ([[10.0], [0.5]], [2.0, 1.0])),
    "byte-order mark": ("\ufeffx1,f\n0.5,1\n1.5,2\n", ([[0.5], [1.5]], [1.0, 2.0])),
}


@pytest.mark.parametrize("name", sorted(CSV_RECORDS))
def test_csv_reader_edge_records(name, tmp_path):
    text, want = CSV_RECORDS[name]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(want, int):
        with pytest.raises(ValueError) as err:
            PointSet.from_csv(path)
        assert str(err.value) == f"{path}:{want}: malformed row"
        return
    pts = PointSet.from_csv(path)
    nodes, values = want
    np.testing.assert_array_equal(pts.nodes, nodes)
    assert pts.nodes.flags.c_contiguous
    if values is None:
        assert pts.values is None
    else:
        np.testing.assert_array_equal(pts.values, values)


def test_csv_that_is_not_utf8_names_its_line(tmp_path):
    """A byte that does not decode names the file and the line it is on;
    a byte-order mark still reads as no mark."""
    path = tmp_path / "in.csv"
    path.write_bytes(b"x1,f\n0.1,1\n0.5,2\xe9\n0.9,3\n")
    with pytest.raises(ValueError) as err:
        PointSet.from_csv(path)
    assert str(err.value) == f"{path}:3: not valid UTF-8"
    path.write_bytes(b"\xef\xbb\xbfx1,f\n0.1,1\n0.9,\xff3\n")
    with pytest.raises(ValueError, match=r":3: not valid UTF-8$"):
        PointSet.from_csv(path)
    path.write_bytes(b"\xef\xbb\xbfx1,f\n0.1,1\n0.9,3\n")
    np.testing.assert_array_equal(PointSet.from_csv(path).values, [1.0, 3.0])


def test_csv_reader_without_data_rows(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("x1,f\n\n , \n")
    with pytest.raises(ValueError, match="no data rows"):
        PointSet.from_csv(path)


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


# --- the certified gate -----------------------------------------------------


def _triangular_stack(rng, k, l, kind, scale):
    """k upper-triangular (l, l) matrices of one kind, scaled by 2^scale."""
    rmats = np.triu(rng.standard_normal((k, l, l)))
    diag = np.arange(l)
    rmats[:, diag, diag] += np.where(rng.random((k, l)) < 0.5, -1.0, 1.0) * l
    row, col = rng.integers(0, k), rng.integers(0, l)
    if kind == "near_singular":
        rmats[row, col, col] *= 10.0 ** -rng.uniform(0.0, 17.0)
    elif kind == "zero_diag":
        rmats[row, col, col] = 0.0
    elif kind in ("inf", "nan"):
        rmats[row, rng.integers(0, l), l - 1] = np.inf if kind == "inf" else np.nan
    return np.ldexp(rmats, scale)


@pytest.mark.parametrize("limit", [1e12, 1.0, 1e3])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    l=st.integers(1, 8),
    extra=st.integers(0, 30),
    k=st.integers(1, 5),
    kind=st.sampled_from(("random", "near_singular", "zero_diag", "inf", "nan")),
    scale=st.sampled_from((0, 400, -400, 600, -600, -1060)),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_stacks_pass_the_svd_checks(monkeypatch, limit, l, extra, k, kind, scale,
                                              seed):
    """Whenever the gate admits a stack, the SVD checks find every row
    full rank and within ``COND_LIMIT``; the gate itself warns about
    nothing, whatever the stack holds."""
    monkeypatch.setattr(core, "COND_LIMIT", limit)
    m = l + extra
    rmats = _triangular_stack(np.random.default_rng(seed), k, l, kind, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        admitted = core._certified(rmats, m, l)
    if not admitted:
        return
    svals = np.linalg.svd(rmats, compute_uv=False)
    smax, smin = svals[:, 0], svals[:, -1]
    assert np.all(smin > core.rank_tolerance(m, l, smax))
    assert all((a / b) ** 2 <= limit for a, b in zip(smax.tolist(), smin.tolist()))
    assert len(core._checked_conds(rmats, m, l)) == k


def test_gate_admits_what_it_should():
    """Well-conditioned triangular factors pass at any scale the gate
    covers; outside its range, and with a zero, inf or NaN entry, they
    do not."""
    rng = np.random.default_rng(0)
    for l in (1, 3, 8):
        for scale in (0, 400, -400):
            assert core._certified(_triangular_stack(rng, 4, l, "random", scale), l + 2, l)
        for scale in (600, -600, -1060):
            assert not core._certified(_triangular_stack(rng, 4, l, "random", scale), l + 2, l)
        for kind in ("zero_diag", "inf", "nan"):
            assert not core._certified(_triangular_stack(rng, 4, l, kind, 0), l + 2, l)
    assert core._certified(np.zeros((0, 3, 3)), 5, 3)
    assert not core._certified(np.eye(13)[None], 13, 13)  # beyond the proof's l
    assert not core._certified(np.eye(2, 3)[None], 2, 3)  # a wide design's R


def _outcome(fn, *args, **kwargs):
    """(result, None) or (None, (error type, message))."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def _svd_only(monkeypatch):
    monkeypatch.setattr(core, "_certified", lambda rmats, m, l: False)


def _assert_same_outcome(got, ref):
    assert got[1] == ref[1]
    if ref[0] is not None:
        for a, b in zip(got[0], ref[0]):
            assert a.tobytes() == b.tobytes()


#: the solve block of ``test_gate_keeps_build_systems_bits``, in rows
GATE_BLOCK = 128


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    m=st.integers(3, 10),
    l=st.integers(1, 3),
    family=st.sampled_from(("exp", "shepard", "mclain", "levin")),
    log_alpha=st.floats(np.log(1e-2), np.log(1e2)),
    fail_at=st.one_of(st.none(), st.integers(0, 2 * GATE_BLOCK)),
    seed=st.integers(0, 2**32 - 1),
)
def test_gate_keeps_build_systems_bits(dim, m, l, family, log_alpha, fail_at, seed):
    """``build_systems`` gives the bytes and the errors of the SVD-only
    path, with rows at nodes and a failing point in any block."""
    rng = np.random.default_rng(seed)
    nodes = rng.uniform(0.0, 1.0, (m, dim))
    pts = PointSet(nodes)
    basis = monomial_basis(l, dim)
    weight = WeightSpec(family, float(np.exp(log_alpha)))
    xs = rng.uniform(-0.1, 1.1, (2 * GATE_BLOCK + 1, dim))
    xs[rng.integers(0, len(xs), 5)] = nodes[rng.integers(0, m, 5)]
    if fail_at is not None:  # a node nudged off itself, or a far point
        xs[fail_at] = nodes[0] + 1e-9 if rng.random() < 0.5 else 50.0
    # patched per example: a patch that outlived one would leave the
    # next example comparing the SVD-only path with itself
    with pytest.MonkeyPatch.context() as patch:
        _blocks_of(patch, GATE_BLOCK, m, l)
        gated = _outcome(build_systems, xs, pts, basis, weight)
        _svd_only(patch)
        svd = _outcome(build_systems, xs, pts, basis, weight)
    _assert_same_outcome(gated, svd)


@pytest.mark.parametrize("designs", [
    (WELL_CONDITIONED,) * 3,
    (WELL_CONDITIONED, ILL_CONDITIONED, RANK_DEFICIENT),
    (WELL_CONDITIONED, RANK_DEFICIENT, ILL_CONDITIONED),
    (WELL_CONDITIONED, 2.0**600 * WELL_CONDITIONED, 2.0**-600 * ILL_CONDITIONED),
])
def test_gate_keeps_solve_stack(monkeypatch, designs):
    gated = _outcome(_solve_designs, *designs)
    _svd_only(monkeypatch)
    _assert_same_outcome(gated, _outcome(_solve_designs, *designs))


@pytest.mark.parametrize("limit", [core.COND_LIMIT, 3e3])
def test_gate_keeps_certificates(monkeypatch, limit):
    """``certify_bound`` writes the same bytes, or raises the same error
    when a point of a later block fails the conditioning check."""
    monkeypatch.setattr(core, "COND_LIMIT", limit)
    xs = np.concatenate([np.linspace(0.0, 1.0, 15), np.linspace(4.0, 5.0, 15)])
    pts = PointSet(xs, values=np.sin(xs))
    for l, alpha in ((1, 0.5), (2, 2.0), (3, 0.3), (4, 1.0)):
        args = (pts, monomial_basis(l), WeightSpec("exp", alpha))
        gated = _outcome(lambda: canonical_json(certify_bound(*args, n_grid=400).to_dict()))
        with monkeypatch.context() as patch:
            _svd_only(patch)
            ref = _outcome(lambda: canonical_json(certify_bound(*args, n_grid=400).to_dict()))
        assert gated == ref


def test_condition_estimates_keep_their_svd(monkeypatch):
    """A solved block's systems carry the SVD's condition estimates, also
    where the gate admits the rows and the solve takes no SVD."""
    pts = PointSet(np.linspace(0.0, 1.0, 7), values=np.arange(7.0))
    basis, weight = monomial_basis(3), WeightSpec("exp", 2.0)
    xs = np.array([[0.2], [0.55]])
    monkeypatch.setattr(core, "_certified", lambda rmats, m, l: True)
    systems, error = _built(xs, pts, basis, weight)
    assert error is None
    stacked, _ = _built(xs, np.stack([pts.nodes] * 2), basis, [weight, weight])
    for x, sysm, other in zip(xs, systems, stacked):
        svals = np.linalg.svd(sysm.rmat, compute_uv=False)
        expected = (float(svals[0]) / float(svals[-1])) ** 2
        assert build_system(x, pts, basis, weight).cond_gram == expected
        assert sysm.cond_gram == other.cond_gram == expected


def test_well_conditioned_grid_takes_no_svd(monkeypatch):
    """A 2000-point grid of a well-conditioned fit (m = 25, l = 2) is
    certified block by block: the kernel takes no SVD at all."""
    rng = np.random.default_rng(11)
    nodes = np.sort(rng.uniform(0.0, 1.0, 25))
    pts = PointSet(nodes, values=np.sin(nodes))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    xs = np.linspace(nodes[0], nodes[-1], 2000)
    coeffs, at_node = build_systems(xs, pts, monomial_basis(2), WeightSpec("exp", 3.0))
    assert coeffs.shape == (2000, 25) and np.all(at_node == -1)
    assert calls == []


def _quadratic_exponents(dim, size):
    """The exponent generator the linear one replaced: every tuple of each
    degree's box, filtered by its sum and sorted."""
    out, degree = [], 0
    while len(out) < size:
        out += sorted(e for e in itertools.product(range(degree + 1), repeat=dim)
                      if sum(e) == degree)
        degree += 1
    return out[:size]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_monomial_exponents_match_the_filtered_boxes(dim):
    for size in range(1, 61):
        assert monomial_exponents(dim, size) == _quadratic_exponents(dim, size)


def test_huge_basis_is_refused_quickly(tmp_path, capsys):
    """l = 100000 on 5 nodes is the basis-size hypothesis failure, not a
    minutes-long exponent build."""
    (tmp_path / "in.csv").write_text("x1,f\n0.1,1\n0.3,2\n0.5,0\n0.7,1\n0.9,3\n")
    (tmp_path / "cfg.json").write_text('{"l": 100000}')
    args = ["--input", str(tmp_path / "in.csv"), "--config", str(tmp_path / "cfg.json")]
    size = "basis_size_le_nodes: l 100000 > m 5"
    for command, failed in (("fit", size), ("diagnose", size),
                            ("bound", "basis_size_le_nodes, design_full_rank: "
                                      "l 100000 > m 5, design rank 5 < l 100000")):
        assert main([command, *args]) == 3
        assert capsys.readouterr().err == f"hypothesis failure: {failed}\n"
