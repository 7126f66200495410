import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlscert import error_analysis as ea
from mlscert.bases import monomial_basis
from mlscert.core import build_system, evaluate_many
from mlscert.instances import random_suite
from mlscert.points import PointSet
from mlscert.reporting import canonical_json
from mlscert.weights import WeightSpec


def test_amplification_unit_vector():
    assert ea.amplification(np.array([1.0])) == 2.0


def test_amplification_positive_partition():
    # all coefficients positive and summing to one -> exactly 2
    a = np.array([0.21194155761708438, 0.57611688476583122, 0.21194155761708438])
    assert ea.amplification(a) == pytest.approx(2.0, abs=1e-12)


def test_amplification_sign_cancellation():
    assert ea.amplification(np.array([2.0, -1.0])) == 4.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_amplification_at_least_one(seed):
    """Coefficient sums are 1, so 1 + sum|a| >= 2 >= 1."""
    it = random_suite(1, seed)[0]
    assert ea.amplification(it.system().coeffs) >= 1.0


def _sup_error(points, basis, weight, grid, f_true):
    """Max absolute error of the fit against f_true over a 1-d grid."""
    fits = evaluate_many(grid, points, basis, weight)
    return max(abs(f_true(x) - fit) for x, fit in zip(grid.tolist(), fits))


def test_sup_error_reproduction():
    nodes = np.linspace(0.0, 1.0, 7)
    pts = PointSet(nodes, values=3.0 - 2.0 * nodes)
    err = _sup_error(
        pts,
        monomial_basis(2),
        WeightSpec("exp", 1.0),
        np.linspace(0.05, 0.95, 11),
        lambda x: 3.0 - 2.0 * x,
    )
    assert err <= 1e-9


def test_sup_error_single_node_constant_basis():
    pts = PointSet(np.array([0.5]), values=np.array([np.sin(0.5)]))
    grid = np.array([0.1, 0.9])
    err = _sup_error(pts, monomial_basis(1), WeightSpec("exp", 1.0), grid, np.sin)
    expected = max(abs(np.sin(x) - np.sin(0.5)) for x in grid)
    assert err == pytest.approx(expected, rel=1e-12)


# --- discrete minimax oracle -------------------------------------------------


def test_minimax_classical_x_squared():
    """Best degree-1 fit to x^2 on [0,1] misses by exactly 1/8."""
    g = np.linspace(0.0, 1.0, 2001)
    fit = ea.minimax_fit(g, g**2, degree=1)
    assert fit.converged
    assert fit.level == pytest.approx(0.125, abs=1e-9)
    assert fit.grid_sup == pytest.approx(0.125, abs=1e-9)


def test_minimax_constant_to_linear():
    g = np.linspace(0.0, 1.0, 1001)
    fit = ea.minimax_fit(g, g, degree=0)
    assert fit.level == pytest.approx(0.5, abs=1e-12)


def test_minimax_exponential():
    g = np.linspace(0.0, 1.0, 4001)
    fit = ea.minimax_fit(g, np.exp(g), degree=1)
    # classical equioscillation value for e^x on [0,1]
    assert fit.level == pytest.approx(0.105933, abs=5e-6)


def test_minimax_reproduces_polynomials():
    g = np.linspace(-1.0, 2.0, 1501)
    f = 1.0 + 2.0 * g - 3.0 * g**2 + 0.5 * g**3
    fit = ea.minimax_fit(g, f, degree=3)
    assert fit.grid_sup <= 1e-12


def test_minimax_callable_evaluates():
    g = np.linspace(0.0, 1.0, 501)
    fit = ea.minimax_fit(g, g**2, degree=1)
    # equioscillation solution for x^2: x - 1/8
    assert float(fit(0.5)) == pytest.approx(0.5 - 0.125, abs=1e-9)


def test_minimax_against_lp_oracle():
    """Independent check: solve the same discrete Chebyshev problem as a
    linear program and compare levels."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    g = np.linspace(0.0, 2.0, 401)
    f = np.sin(g) + 0.3 * g**2
    degree = 2
    fit = ea.minimax_fit(g, f, degree=degree)

    # variables: coefficients b_0..b_degree and level t; minimize t
    # subject to -t <= f_i - p(g_i) <= t
    vander = np.vander(g, degree + 1, increasing=True)
    n = degree + 2
    c = np.zeros(n)
    c[-1] = 1.0
    a_ub = np.block(
        [[vander, -np.ones((g.size, 1))], [-vander, -np.ones((g.size, 1))]]
    )
    b_ub = np.concatenate([f, -f])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * n, method="highs")
    assert res.status == 0
    assert fit.level == pytest.approx(res.fun, rel=1e-6)


def test_minimax_needs_enough_points():
    with pytest.raises(ValueError):
        ea.minimax_fit(np.array([0.0, 1.0]), np.array([0.0, 1.0]), degree=1)


# --- convergence studies ------------------------------------------------------


def test_study_halves_h_and_orders():
    study = ea.convergence_study(np.sin, l=2, alpha0=1.0, policy="scaled")
    np.testing.assert_allclose(study.hs, [0.2, 0.1, 0.05], rtol=1e-12)
    assert study.observed_order >= 1.8
    assert len(study.order_per_level) == 3
    assert np.isnan(study.order_per_level[0])
    assert study.order_per_level[-1] == pytest.approx(study.observed_order)


def test_study_exact_reproduction_flag():
    study = ea.convergence_study(
        lambda x: 2.0 + 0.5 * x, l=2, alpha0=1.0, policy="scaled"
    )
    assert study.exact_reproduction
    assert all(study.saturated)
    assert np.isnan(study.observed_order)
    assert study.product_bound["skipped_exact"]


def test_study_product_bound_no_violations():
    study = ea.convergence_study(np.sin, l=2, alpha0=1.0, policy="scaled")
    assert study.product_bound["near_violations"] == 0
    assert study.product_bound["max_ratio"] <= 1.0


def test_study_amplifications_at_least_one():
    study = ea.convergence_study(np.exp, l=2, alpha0=1.0, policy="scaled")
    assert all(a >= 1.0 for a in study.amplifications)


def test_study_fixed_policy_differs():
    scaled = ea.convergence_study(np.sin, l=2, alpha0=1.0, policy="scaled")
    fixed = ea.convergence_study(np.sin, l=2, alpha0=1.0, policy="fixed")
    assert scaled.sup_errors != fixed.sup_errors


def test_study_requires_three_levels():
    with pytest.raises(ValueError):
        ea.convergence_study(np.sin, l=2, n_levels=2)


@pytest.mark.parametrize("kw", [
    dict(domain=(0.0, 1e308)),  # (b - a) / h overflows to inf
    dict(h0=1e-300),  # 3e300 nodes
    dict(n_levels=70),  # the last levels hold 15 * 2^69 nodes
    dict(h0=0.0),
])
def test_study_refuses_a_level_no_array_holds(kw):
    """A level whose node count is not finite or exceeds what an array can
    hold is a ValueError naming the domain and h, raised before any level
    is solved or f_true called."""
    calls = []
    with pytest.raises(ValueError, match=r"^domain \[.*\] at h = .* nodes, more than an array"):
        ea.convergence_study(lambda x: calls.append(x) or np.sin(x), l=2, **kw)
    assert calls == []


def test_study_level_memory_cannot_hold_is_a_value_error(monkeypatch):
    """A level whose allocation fails is a ValueError naming the domain,
    h and the node count; the earlier levels ran.  The allocation is made
    to fail at the third level."""
    sizes = []
    linspace = np.linspace

    def no_memory(start, stop, num=50, **kw):
        sizes.append(num)
        if num == 81:  # [-1, 1] at h = 0.1 / 2^2
            raise MemoryError("Unable to allocate")
        return linspace(start, stop, num, **kw)

    monkeypatch.setattr(np, "linspace", no_memory)
    with pytest.raises(ValueError) as err:
        ea.convergence_study(np.sin, l=2, domain=(-1.0, 1.0), h0=0.1)
    assert str(err.value) == ("domain [-1.0, 1.0] at h = 0.025 needs 81 nodes, "
                              "more than memory holds")
    assert err.value.__suppress_context__
    assert [n for n in sizes if n in (21, 41, 81)] == [21, 41, 81]


def test_study_rows_csv_shape():
    study = ea.convergence_study(np.sin, l=2)
    rows = study.rows_csv()
    assert len(rows) == 3
    assert rows[1][0] == 1 and rows[1][1] == pytest.approx(0.1)


def test_order_monotone_in_basis_size():
    """Richer local bases converge no slower on the smooth battery."""
    for f in ea.TEST_FUNCTIONS.values():
        orders = [
            ea.convergence_study(
                f, l=l, domain=(-1.0, 1.0), h0=0.1, alpha0=1.0, policy="scaled"
            ).observed_order
            for l in (1, 2, 3)
        ]
        assert all(orders[i] <= orders[i + 1] + 0.02 for i in range(2)), orders


def test_study_calls_f_true_once_per_grid():
    """The evaluation grid, the dense oracle grid and each level's nodes:
    one array call each."""
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return np.sin(x)

    study = ea.convergence_study(f, l=2, n_levels=3)
    ref = ea.convergence_study(np.sin, l=2, n_levels=3)
    assert calls == [(301,), (3001,), (16,), (31,), (61,)]
    assert canonical_json(study.to_dict()) == canonical_json(ref.to_dict())
    with pytest.raises(ValueError, match="elementwise"):
        ea.convergence_study(lambda x: 1.0, l=2)


@pytest.mark.parametrize("l,kw", [
    (1, dict(domain=(-1.0, 1.0), h0=0.1)),
    (2, dict(domain=(-1.0, 1.0), h0=0.1)),
    (3, dict(domain=(-1.0, 1.0), h0=0.1)),
    (2, dict(n_levels=4, policy="fixed", alpha0=2.0)),
    (1, dict(family="levin")),
])
def test_shared_studies_equal_one_study_per_function(l, kw):
    """One solve per level for every function gives each function its own
    study, byte for byte, and evaluates it once per grid, in its order."""
    calls = {}

    def counted(name, f):
        def g(x):
            calls.setdefault(name, []).append(np.shape(x))
            return f(x)
        return g

    fs = [counted(name, f) for name, f in ea.TEST_FUNCTIONS.items()]
    shared = ea.convergence_studies(fs, l, **kw)
    alone = [ea.convergence_study(f, l, **kw) for f in ea.TEST_FUNCTIONS.values()]
    assert [canonical_json(s.to_dict()) for s in shared] == [
        canonical_json(s.to_dict()) for s in alone
    ]
    lo, hi = shared[0].meta["domain"]
    grids = [(ea.EVAL_N,), (10 * (ea.EVAL_N - 1) + 1,)]
    grids += [(int(round((hi - lo) / h)) + 1,) for h in shared[0].hs]
    assert calls == {name: grids for name in ea.TEST_FUNCTIONS}


def test_shared_studies_solve_each_level_once(monkeypatch):
    solves = []
    solve = ea.build_systems

    def counted(*args, **kw):
        solves.append(len(args[1].nodes))
        return solve(*args, **kw)

    monkeypatch.setattr(ea, "build_systems", counted)
    ea.convergence_studies(list(ea.TEST_FUNCTIONS.values()), 2, n_levels=4)
    assert solves == [16, 31, 61, 121]


def test_each_selftest_run_does_its_own_solves(monkeypatch):
    """Nothing is kept between two runs in one process: each draws the
    random suite once and solves its 12 convergence levels (3 for the
    study, 3 per basis size of the battery)."""
    from mlscert import selftest

    draws, solves = [], []
    draw, solve = selftest.instances.random_suite, ea.build_systems

    def counted_draw(n, seed):
        draws.append(seed)
        return draw(n, seed)

    def counted_solve(*args, **kw):
        solves.append(len(args[1].nodes))
        return solve(*args, **kw)

    monkeypatch.setattr(selftest.instances, "random_suite", counted_draw)
    monkeypatch.setattr(ea, "build_systems", counted_solve)
    reports = []
    for _ in range(2):
        reports.append(canonical_json(
            selftest.run_selftest(42, suites=("core", "spectral", "convergence"))
        ))
    assert draws == [42, 42]
    assert len(solves) == 24
    assert solves[:12] == solves[12:]
    assert reports[0] == reports[1]
