"""Finite polynomial (or custom) bases for the local fit.

The first basis function must be the constant 1 -- reproduction of constants
(and hence the partition-of-unity property of the fitted coefficients) hinges
on it, and the hypothesis checker verifies it numerically.
"""

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    """Basis of the local polynomial space: monomials, given by their
    exponents, or custom callables.

    Parameters
    ----------
    size : int
        Number of basis functions (the dimension of the trial space).
    functions : tuple of callables
        A custom basis: each maps a (d,) point to a float, and
        ``functions[0]`` must be the constant 1.  Empty for monomials.
    derivative : callable, optional
        A custom basis with d = 1: maps a scalar x to the (size,) vector of
        first derivatives of the basis functions at x.  Required by the
        growth-bound module; monomials differentiate their exponents.
    dim : int
        Spatial dimension the functions expect.
    exponents : (size, dim) array of nonnegative integers, optional
        A monomial basis: function j is prod_k x_k ** exponents[j, k].
        Given instead of ``functions`` and ``derivative``.
    """

    size: int
    functions: tuple = field(default=(), compare=False)
    derivative: Callable | None = field(default=None, compare=False)
    dim: int = 1
    exponents: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("basis size must be >= 1")
        if self.exponents is None:
            if len(self.functions) != self.size:
                raise ValueError("number of functions must equal size")
            return
        if self.functions or self.derivative is not None:
            raise ValueError("a monomial basis takes no functions or derivative")
        expo = np.array(self.exponents, dtype=float)
        if expo.shape != (self.size, self.dim) or not np.all(
            (expo >= 0) & (expo == np.floor(expo))
        ):
            raise ValueError(
                "exponents must be a (size, dim) array of nonnegative integers"
            )
        expo.setflags(write=False)
        object.__setattr__(self, "exponents", expo)

    @property
    def kind(self) -> str:
        """The basis kind: "monomial" when given by exponents, else "custom"."""
        return "custom" if self.exponents is None else "monomial"

    @property
    def differentiable(self) -> bool:
        """True when ``derivative_rows`` can evaluate c' (d = 1)."""
        return self.derivative is not None or (
            self.exponents is not None and self.dim == 1
        )

    def eval_at(self, x) -> np.ndarray:
        """Column of basis values (p_1(x), ..., p_size(x))."""
        return self.eval_rows(np.reshape(x, (1, -1)))[0]

    def eval_rows(self, xs) -> np.ndarray:
        """Basis values at every row of xs (n, d), shape (n, size).

        Vectorized for monomials; custom functions are called per point.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.shape[-1] != self.dim:
            raise ValueError(f"point has dim {xs.shape[-1]}, basis expects {self.dim}")
        if self.exponents is None:
            return np.array(
                [[float(f(row)) for f in self.functions] for row in xs]
            ).reshape(-1, self.size)
        return np.prod(xs[:, None, :] ** self.exponents, axis=2)

    def eval_design(self, nodes: np.ndarray) -> np.ndarray:
        """Design matrix: entry (i, j) holds basis function j at node i."""
        return self.eval_rows(nodes)

    def derivative_at(self, x) -> np.ndarray:
        """First derivatives of all basis functions at scalar x (d = 1)."""
        return self.derivative_rows(np.ravel(x)[:1])[0]

    def derivative_rows(self, xs) -> np.ndarray:
        """First derivatives at every point of xs (d = 1), shape (n, size).

        Vectorized for monomials; a custom derivative is called per point.
        """
        if not self.differentiable:
            raise ValueError(
                "basis has no derivative; supply one or use a monomial basis"
            )
        xs = np.asarray(xs, dtype=float).ravel()
        if self.exponents is None:
            return np.array(
                [self.derivative(x) for x in xs.tolist()], dtype=float
            ).reshape(-1, self.size)
        powers = self.exponents[:, 0]
        nz = powers > 0
        out = np.zeros((xs.size, self.size))
        out[:, nz] = powers[nz] * xs[:, None] ** (powers[nz] - 1.0)
        return out

    @property
    def graded(self) -> bool:
        """True for the graded monomial basis ``monomial_basis(size, dim)``."""
        return self.exponents is not None and np.array_equal(
            self.exponents, monomial_exponents(self.dim, self.size)
        )

    def to_dict(self) -> dict:
        if not self.graded:
            raise ValueError("only graded monomial bases are serializable")
        return {"kind": "monomial", "l": int(self.size), "d": int(self.dim)}

    @classmethod
    def from_dict(cls, d: dict) -> "BasisSpec":
        if d.get("kind", "monomial") != "monomial":
            raise ValueError("only monomial bases can be configured from JSON")
        if "l" not in d:
            raise ValueError("basis config requires an 'l' key")
        return monomial_basis(int(d["l"]), dim=int(d.get("d", 1)))


def monomial_basis(size: int, dim: int = 1) -> BasisSpec:
    """Monomial basis 1, x, x^2, ... (graded lexicographic for dim > 1)."""
    return BasisSpec(size=size, dim=dim, exponents=monomial_exponents(dim, size))
