"""Distance weights for the local least-squares fit.

The fit at x minimizes  sum_i W(r_i) (p(x_i) - f_i)^2  with r_i = ||x - x_i||.
Internally everything is phrased through the reciprocal weight w = 1/W, which
is what enters the diagonal scaling matrix of the solver: small w means the
node is trusted, and w(0) = 0 (i.e. W blowing up at the node) makes the fit
interpolate there.

Built-in families, each driven by a single shape parameter alpha > 0:

========  ===========================  ====================
family    w(r)                         behaviour at r = 0
========  ===========================  ====================
exp       exp(alpha * r^2)             w(0) = 1   (smoothing)
shepard   r ** (alpha^2)               w(0) = 0   (interpolating)
mclain    r^2 * exp(-alpha^2 * r^2)    w(0) = 0   (interpolating)
levin     exp(alpha^2 * r^2) - 1       w(0) = 0   (interpolating)
========  ===========================  ====================

The exp family is the only one used by the 1-D growth-bound machinery; the
others are offered for fitting and for exercising the interpolation limit.
"""

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("exp", "shepard", "mclain", "levin")


@dataclass(frozen=True)
class WeightSpec:
    """Weight-family selector.

    Parameters
    ----------
    family : str
        One of :data:`FAMILIES`.
    alpha : float
        Shape parameter, must be positive and finite.
    """

    family: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown weight family {self.family!r}")
        if not (0 < self.alpha < math.inf):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")

    @property
    def interpolating(self) -> bool:
        """True when w(0) = 0, so the fit reproduces node values exactly."""
        return self.family != "exp"

    def w(self, r):
        """Reciprocal weight w(r) = 1/W(r) for distances r >= 0.

        Accepts scalars or arrays; negative distances raise ``ValueError``.
        Overflow to +inf is deliberate: w = inf models a node whose penalty
        weight W = 1/w is exactly zero, i.e. a node with no influence, and
        the solver handles that limit exactly (its coefficient comes out 0).
        """
        with np.errstate(over="ignore"):
            out = w_each(self, r)
        return out if np.ndim(r) else float(out)


def _w(family: str, a, arr) -> np.ndarray:
    """w of ``family`` at the distances ``arr`` for the shape alpha ``a``:
    a float, or an array of alphas that broadcasts against arr."""
    if family == "exp":
        return np.exp(a * arr**2)
    if family == "shepard":
        return arr ** (a * a)
    if family == "mclain":
        return arr**2 * np.exp(-(a * a) * arr**2)
    return np.expm1((a * a) * arr**2)  # levin


def w_each(weights, r) -> np.ndarray:
    """Reciprocal weights at the distances r: the one weight path, which
    ``WeightSpec.w`` and the solver both take.

    ``weights`` is one weight for every entry of r, or a sequence with the
    weight ``weights[i]`` of row i of r (k, m).  A weight object other than
    ``WeightSpec`` runs its own ``w``, row by row in a sequence.  The
    ``WeightSpec`` rows of a sequence take one call per family with a
    column of alphas, and each row is what ``weights[i].w(r[i])`` gives,
    bit for bit: numpy applies the same elementwise operations to a column
    of alphas as to one.  Its power takes a fast path only for the scalar
    exponents 0.5, 2 and -1, and no double alpha has alpha * alpha exactly
    0.5 or 2, so shepard's per-row exponent keeps the bits too.

    Negative distances raise ``ValueError``.  An overflow to inf is silent
    under the caller's ``np.errstate(over="ignore")``.
    """
    arr = np.asarray(r, dtype=float)
    if (arr < 0).any():
        raise ValueError("distance must be nonnegative")
    if isinstance(weights, WeightSpec):
        return _w(weights.family, weights.alpha, arr)
    if hasattr(weights, "w"):
        return np.asarray(weights.w(arr), dtype=float)
    out = np.empty(arr.shape)
    families = {}
    for i, wt in enumerate(weights):
        if isinstance(wt, WeightSpec):
            families.setdefault(wt.family, []).append(i)
        else:
            out[i] = wt.w(arr[i])
    for family, rows in families.items():
        alphas = np.array([weights[i].alpha for i in rows], dtype=float)
        out[rows] = _w(family, alphas[:, None], arr[rows])
    return out
