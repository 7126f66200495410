import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlscert.weights import FAMILIES, WeightSpec


def test_exp_at_zero():
    assert WeightSpec("exp", 1.0).w(0.0) == 1.0


def test_shepard_at_zero():
    assert WeightSpec("shepard", 1.0).w(0.0) == 0.0


def test_levin_value():
    # expm1 form at alpha=1, r=1
    assert WeightSpec("levin", 1.0).w(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)


def test_mclain_value():
    spec = WeightSpec("mclain", 1.0)
    assert spec.w(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert spec.w(0.0) == 0.0


def test_exp_formula_vectorized():
    spec = WeightSpec("exp", 2.0)
    r = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(spec.w(r), np.exp(2.0 * r**2), rtol=1e-15)


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        WeightSpec("exp", 1.0).w(-0.1)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        WeightSpec("gauss", 1.0)


def test_nonpositive_alpha_rejected():
    with pytest.raises(ValueError):
        WeightSpec("exp", 0.0)
    with pytest.raises(ValueError):
        WeightSpec("exp", -1.0)


def test_interpolating_flags():
    """w(0)=0 for every family but exp, which has w(0)=1."""
    assert not WeightSpec("exp", 1.0).interpolating
    for fam in ("shepard", "mclain", "levin"):
        spec = WeightSpec(fam, 1.3)
        assert spec.interpolating
        assert spec.w(0.0) == 0.0


def test_overflow_maps_to_inf():
    # a node past the representable range has weight exactly zero
    spec = WeightSpec("exp", 400.0)
    assert spec.w(3.0) == math.inf


@settings(max_examples=50, deadline=None)
@given(
    fam=st.sampled_from(FAMILIES),
    alpha=st.floats(0.05, 4.0),
    r=st.floats(0.0, 3.0),
)
def test_weights_nonnegative(fam, alpha, r):
    assert WeightSpec(fam, alpha).w(r) >= 0.0


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(0.05, 4.0), r=st.floats(1e-6, 3.0))
def test_positive_distance_positive_weight(alpha, r):
    for fam in ("exp", "shepard", "mclain", "levin"):
        assert WeightSpec(fam, alpha).w(r) > 0.0


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_alpha_must_be_positive_and_finite(alpha):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        WeightSpec("exp", alpha)
