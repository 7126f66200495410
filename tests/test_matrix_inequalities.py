"""Singular-value product bounds and the eigenvalue sandwich for products
of symmetric matrices with a positive-semidefinite factor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlscert import selftest, spectral
from mlscert.config import Tolerances
from mlscert.instances import matrix_pair_suite
from mlscert.reporting import canonical_json
from mlscert.spectral import check_eig_products, check_sv_products

TOL = Tolerances()


def _sym(rng, m, lo, hi, n_zero=0):
    eigs = rng.uniform(lo, hi, size=m)
    if n_zero:
        eigs[:n_zero] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return q @ np.diag(eigs) @ q.T


# --- singular-value products -------------------------------------------------


def test_sv_product_submultiplicative():
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((4, 3)), rng.standard_normal((3, 5))
    rep = check_sv_products(u, v, TOL)
    chain = {c["name"]: c for c in rep["checks"]}
    assert chain["smax_product_le_smax_times_smax"]["pass"]


def test_sv_inverse_identity():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    rep = check_sv_products(u, np.eye(4), TOL)
    chain = {c["name"]: c for c in rep["checks"]}
    entry = chain["smax_inverse_equals_inv_smin"]
    assert entry["applicable"] and entry["pass"]


def test_sv_lower_bounds_applicability():
    rng = np.random.default_rng(5)
    # wide U: the smin(U)smax(V) lower bound does not apply
    u, v = rng.standard_normal((2, 4)), rng.standard_normal((4, 3))
    rep = check_sv_products(u, v, TOL)
    chain = {c["name"]: c for c in rep["checks"]}
    assert not chain["smin_u_smax_v_le_smax_product"]["applicable"]
    assert not chain["smax_u_smin_v_le_smax_product"]["applicable"]


def test_sv_symmetric_values_are_abs_eigenvalues():
    rng = np.random.default_rng(6)
    u = _sym(rng, 5, -2.0, 2.0)
    rep = check_sv_products(u, np.eye(5), TOL)
    chain = {c["name"]: c for c in rep["checks"]}
    assert chain["symmetric_norm_is_abs_eigs"]["applicable"]
    assert chain["symmetric_norm_is_abs_eigs"]["pass"]


def test_sv_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        check_sv_products(np.eye(2), np.eye(3), TOL)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_sv_products_random(seed):
    rng = np.random.default_rng(seed)
    d1, d2, d4 = rng.integers(1, 6, size=3)
    u = rng.standard_normal((d1, d2)) * np.exp(rng.uniform(-2, 2))
    v = rng.standard_normal((d2, d4)) * np.exp(rng.uniform(-2, 2))
    assert check_sv_products(u, v, TOL)["pass"]


# --- eigenvalue products ----------------------------------------------------


def test_eig_product_diagonal_example():
    """diag(2,3) * diag(3,1): product eigenvalues {6,3} sit inside the
    two-sided bounds min/max over index pairings."""
    u = np.diag([2.0, 3.0])
    v = np.diag([3.0, 1.0])
    rep = check_eig_products(u, v, TOL)
    assert rep["violations"] == []
    np.testing.assert_allclose(sorted(rep["product_eigenvalues"]), [3.0, 6.0], atol=1e-12)
    cor = rep["pd_sandwich"]
    assert cor["applicable"] and cor["pass"]


def test_eig_product_requires_a_psd_factor():
    rng = np.random.default_rng(11)
    u = _sym(rng, 3, -2.0, -0.5)
    v = _sym(rng, 3, -3.0, -0.1)
    with pytest.raises(ValueError):
        check_eig_products(u, v, TOL)


def test_eig_product_swaps_when_only_left_factor_psd():
    """The sandwich is stated for a PSD right-congruence factor; with only
    the left factor PSD the pair is swapped (same product spectrum)."""
    rng = np.random.default_rng(12)
    q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    u = q1 @ np.diag([0.2, 0.5, 1.0, 2.0]) @ q1.T   # PSD
    v = q2 @ np.diag([-1.0, 0.3, 1.5, 3.0]) @ q2.T  # indefinite
    rep = check_eig_products(u, v, TOL)
    assert rep["swapped"]
    assert rep["violations"] == []
    dense = np.sort(np.linalg.eigvals(u @ v).real)
    np.testing.assert_allclose(np.sort(rep["product_eigenvalues"]), dense, atol=1e-9)


def test_eig_product_singular_psd_factor():
    """A rank-deficient PSD factor exercises the zero-eigenvalue regime."""
    rng = np.random.default_rng(13)
    u = _sym(rng, 5, -2.0, 3.0)
    v = _sym(rng, 5, 0.3, 2.0, n_zero=2)
    rep = check_eig_products(u, v, TOL)
    assert rep["violations"] == []
    # at least two product eigenvalues vanish with the PSD factor's rank
    lam = np.sort(np.abs(np.asarray(rep["product_eigenvalues"])))
    assert np.all(lam[:2] <= 1e-10)


def test_eig_product_identity_factor():
    rng = np.random.default_rng(14)
    u = _sym(rng, 4, -1.0, 2.0)
    rep = check_eig_products(u, np.eye(4), TOL)
    assert rep["violations"] == []
    np.testing.assert_allclose(
        np.sort(rep["product_eigenvalues"]),
        np.sort(np.linalg.eigvalsh(u)),
        atol=1e-10,
    )


def test_eig_product_nonsymmetric_rejected():
    with pytest.raises(ValueError):
        check_eig_products(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), TOL)


def test_eig_product_scalar_case():
    rep = check_eig_products(np.array([[3.0]]), np.array([[2.0]]), TOL)
    assert rep["violations"] == []
    assert rep["product_eigenvalues"][0] == pytest.approx(6.0, rel=1e-14)


def test_pair_suite_zero_violations():
    for p in matrix_pair_suite(100, 123):
        rep = check_eig_products(p["umat"], p["vmat"], TOL)
        assert rep["violations"] == [], (p["kind"], rep["max_violation"])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_eig_product_against_dense_oracle(seed):
    p = matrix_pair_suite(1, seed)[0]
    rep = check_eig_products(p["umat"], p["vmat"], TOL)
    dense = np.sort(np.linalg.eigvals(p["umat"] @ p["vmat"]).real)
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(np.sort(rep["product_eigenvalues"]) - dense)) <= 1e-9 * scale
    assert rep["violations"] == []


# --- singular-value products of many pairs at once ---------------------------


def _operand(data, d1, d2, kind):
    """A (d1, d2) matrix of the kind: Gaussian, or for a square one
    singular (a zero row and column) or nonsingular (shifted)."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((d1, d2)) * np.exp(rng.uniform(-3.0, 3.0))
    if kind == "singular":
        u[0], u[:, 0] = 0.0, 0.0
    elif kind == "nonsingular":
        u += 4.0 * np.abs(u).max() * np.eye(d1)
    return u


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 25))
def test_sv_product_reports_match_one_pair_at_a_time(data, n):
    """Every pair's report from ``sv_product_reports`` is the report of
    ``check_sv_products`` on that pair alone, bit for bit, with shapes 1-6
    mixed, square singular and nonsingular U, and 1x1 (symmetric) U."""
    pairs = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["any", "singular", "nonsingular", "one"]))
        d1, d2, d4 = (data.draw(st.integers(1, 6)) for _ in range(3))
        if kind == "one":
            d1 = d2 = 1
        elif kind != "any":
            d2 = d1
        pairs.append((_operand(data, d1, d2, kind), _operand(data, d2, d4, "any")))
    got = list(spectral.sv_product_reports(pairs, TOL))
    assert len(got) == n
    for rep, (u, v) in zip(got, pairs):
        assert canonical_json(rep) == canonical_json(check_sv_products(u, v, TOL))


def test_sv_product_reports_cover_every_entry():
    """Pairs of the kinds the property test draws reach every entry of
    the report, and pass."""
    rng = np.random.default_rng(8)
    u = rng.standard_normal((3, 3))
    pairs = [(u + 8.0 * np.eye(3), rng.standard_normal((3, 2))),
             (np.array([[2.5]]), rng.standard_normal((1, 4))),
             (rng.standard_normal((5, 2)), rng.standard_normal((2, 6)))]
    reps = list(spectral.sv_product_reports(pairs, TOL))
    applicable = {c["name"] for rep in reps for c in rep["checks"] if c.get("applicable", True)}
    assert len(applicable) == 5
    assert all(rep["pass"] for rep in reps)


def test_sv_product_reports_raise_for_the_first_invalid_pair():
    ok = (np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="inner dimensions must agree: U is 2x2, V is 3x3"):
        spectral.sv_product_reports([ok, (np.eye(2), np.eye(3)), (np.ones(2), np.eye(2))])
    with pytest.raises(ValueError, match="must be 2-D"):
        spectral.sv_product_reports([ok, (np.ones(2), np.eye(2)), (np.eye(2), np.eye(3))])
    assert list(spectral.sv_product_reports([])) == []


def test_sv_product_suite_takes_one_svd_per_operand_shape(monkeypatch):
    """The selftest's sv_product suite makes one stacked SVD call per
    distinct shape of U, V, UV and the inverted U (633 single-matrix calls
    at this seed when each pair was checked alone)."""
    calls, seen = [], []
    svd, checked = np.linalg.svd, spectral.sv_product_reports

    def counted(a, *args, **kw):
        calls.append(np.shape(a))
        return svd(a, *args, **kw)

    def recorded(pairs, tol):
        seen.extend(pairs)
        return checked(pairs, tol)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(selftest, "sv_product_reports", recorded)
    report = selftest.run_suite("sv_product", 773817)
    assert report["pass"] and len(seen) == selftest.PAIR_N
    shapes = [{u.shape for u, _ in seen}, {v.shape for _, v in seen},
              {(u @ v).shape for u, v in seen},
              {u.shape for u, _ in seen if u.shape[0] == u.shape[1]}]
    assert len(calls) == sum(len(s) for s in shapes) <= 3 * 36 + 6
    assert all(len(shape) == 3 for shape in calls)  # every call is a stack
