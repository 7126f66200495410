"""Moving least-squares fitting with numerically certified matrix analysis.

The package fits scattered data by weighted local polynomial least squares
and certifies the matrix-analytic structure behind the method: spectral
shape of the fitting operators, singular-value norm bounds, eigenvalue
bounds for symmetric matrix products, and an exponential growth envelope
for the coefficient vector in one dimension.
"""

from .bases import BasisSpec, monomial_basis
from .config import Tolerances
from .core import (
    COND_LIMIT,
    ConditioningError,
    HypothesisFailure,
    MlsError,
    MlsSystem,
    build_system,
    build_systems,
    check_hypotheses,
    evaluate,
    evaluate_many,
)
from .points import PointSet
from .weights import WeightSpec

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "monomial_basis",
    "Tolerances",
    "COND_LIMIT",
    "ConditioningError",
    "HypothesisFailure",
    "MlsError",
    "MlsSystem",
    "build_system",
    "build_systems",
    "check_hypotheses",
    "evaluate",
    "evaluate_many",
    "PointSet",
    "WeightSpec",
    "__version__",
]
