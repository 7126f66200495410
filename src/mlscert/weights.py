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
        arr = np.asarray(r, dtype=float)
        if (arr < 0).any():
            raise ValueError("distance must be nonnegative")
        a = self.alpha
        with np.errstate(over="ignore"):
            if self.family == "exp":
                out = np.exp(a * arr**2)
            elif self.family == "shepard":
                out = arr ** (a * a)
            elif self.family == "mclain":
                out = arr**2 * np.exp(-(a * a) * arr**2)
            else:  # levin
                out = np.expm1((a * a) * arr**2)
        return out if np.ndim(r) else float(out)
