"""Graded monomial bases for the local fit.

A basis is its size l and dimension d: the first l monomials in graded
lexicographic order.  The first one is the constant 1, on which
reproduction of constants (and hence the partition-of-unity property of
the fitted coefficients) hinges.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np


def monomial_exponents(dim: int, size: int) -> list[tuple[int, ...]]:
    """First `size` exponent multi-indices in graded lexicographic order.

    For d = 1 this is simply 0, 1, 2, ...; for higher d the constant comes
    first, then all degree-1 terms, and so on.  Each degree's exponents are
    built in order, none filtered out, so the cost is linear in size.
    """
    if dim < 1 or size < 1:
        raise ValueError("dim and size must be positive")
    graded = (e for degree in itertools.count() for e in _of_degree(degree, dim))
    return list(itertools.islice(graded, size))


def _of_degree(degree: int, dim: int):
    """The exponents of total degree ``degree`` in ``dim`` variables, in
    lexicographic order: the first exponent ascending, then the rest."""
    if dim == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in _of_degree(degree - first, dim - 1):
            yield (first, *rest)


@dataclass(frozen=True)
class BasisSpec:
    """The first ``size`` monomials in ``dim`` variables, graded.

    Function j is prod_k x_k ** exponents[j, k], where ``exponents`` is
    ``monomial_exponents(dim, size)`` as a (size, dim) float array, derived
    here and not passed in.
    """

    size: int
    dim: int = 1
    exponents: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        expo = np.array(monomial_exponents(self.dim, self.size), dtype=float)
        expo.setflags(write=False)
        object.__setattr__(self, "exponents", expo)

    def eval_at(self, x) -> np.ndarray:
        """Column of basis values (p_1(x), ..., p_size(x))."""
        return self.eval_rows(np.reshape(x, (1, -1)))[0]

    def eval_rows(self, xs) -> np.ndarray:
        """Basis values at every row of xs (n, d), shape (n, size)."""
        xs = np.asarray(xs, dtype=float)
        if xs.shape[-1] != self.dim:
            raise ValueError(f"point has dim {xs.shape[-1]}, basis expects {self.dim}")
        return np.prod(xs[:, None, :] ** self.exponents, axis=2)

    def eval_design(self, nodes: np.ndarray) -> np.ndarray:
        """Design matrix: entry (i, j) holds basis function j at node i."""
        return self.eval_rows(nodes)

    def derivative_at(self, x) -> np.ndarray:
        """First derivatives of all basis functions at scalar x (d = 1)."""
        return self.derivative_rows(np.ravel(x)[:1])[0]

    def derivative_rows(self, xs) -> np.ndarray:
        """First derivatives k x^(k-1) at every point of xs (d = 1), shape
        (n, size)."""
        if self.dim != 1:
            raise ValueError("basis derivatives need dim 1")
        xs = np.asarray(xs, dtype=float).ravel()
        powers = self.exponents[1:, 0]
        out = np.zeros((xs.size, self.size))
        out[:, 1:] = powers * xs[:, None] ** (powers - 1.0)
        return out


def monomial_basis(size: int, dim: int = 1) -> BasisSpec:
    """Monomial basis 1, x, x^2, ... (graded lexicographic for dim > 1)."""
    return BasisSpec(size=size, dim=dim)
