"""Singular-value product bounds and the eigenvalue sandwich for products
of symmetric matrices with a positive-semidefinite factor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlscert.config import Tolerances
from mlscert.instances import matrix_pair_suite
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
