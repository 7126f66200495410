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
    first, then all degree-1 terms, and so on.
    """
    if dim < 1 or size < 1:
        raise ValueError("dim and size must be positive")
    out: list[tuple[int, ...]] = []
    degree = 0
    while len(out) < size:
        combos = [
            e
            for e in itertools.product(range(degree + 1), repeat=dim)
            if sum(e) == degree
        ]
        combos.sort()
        out.extend(combos)
        degree += 1
    return out[:size]


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

    @classmethod
    def from_dict(cls, d: dict) -> "BasisSpec":
        if d.get("kind", "monomial") != "monomial":
            raise ValueError("only monomial bases can be configured from JSON")
        if "l" not in d:
            raise ValueError("basis config requires an 'l' key")
        return monomial_basis(int(d["l"]), dim=int(d.get("d", 1)))


def monomial_basis(size: int, dim: int = 1) -> BasisSpec:
    """Monomial basis 1, x, x^2, ... (graded lexicographic for dim > 1)."""
    return BasisSpec(size=size, dim=dim)
