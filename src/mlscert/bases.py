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
    """Basis of the local polynomial space.

    Parameters
    ----------
    size : int
        Number of basis functions (the dimension of the trial space).
    functions : tuple of callables
        Each maps a (d,) point to a float.  ``functions[0]`` must be the
        constant 1.
    derivative : callable, optional
        For d = 1: maps a scalar x to the (size,) vector of first derivatives
        of the basis functions at x.  Required by the growth-bound module.
    kind : str
        "monomial" or "custom".
    dim : int
        Spatial dimension the functions expect.
    exponents : (size, dim) ndarray, optional
        Monomial exponents, one row per basis function: function j is
        prod_k x_k ** exponents[j, k].  When given, points are evaluated
        in one vectorized step instead of one call per function.
    """

    size: int
    functions: tuple = field(compare=False)
    derivative: Callable | None = field(default=None, compare=False)
    kind: str = "custom"
    dim: int = 1
    exponents: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("basis size must be >= 1")
        if len(self.functions) != self.size:
            raise ValueError("number of functions must equal size")
        if self.exponents is not None and np.shape(self.exponents) != (self.size, self.dim):
            raise ValueError("exponents must have shape (size, dim)")

    def eval_at(self, x) -> np.ndarray:
        """Column of basis values (p_1(x), ..., p_size(x))."""
        pt = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        if pt.shape[0] != self.dim:
            raise ValueError(f"point has dim {pt.shape[0]}, basis expects {self.dim}")
        if self.exponents is not None:
            # the products eval_rows forms, for one point
            return np.prod(pt ** self.exponents, axis=1)
        return np.array([float(f(pt)) for f in self.functions])

    def eval_rows(self, xs) -> np.ndarray:
        """Basis values at every row of xs (n, d), shape (n, size).

        Vectorized for monomials; other bases are evaluated row by row.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.shape[-1] != self.dim:
            raise ValueError(f"point has dim {xs.shape[-1]}, basis expects {self.dim}")
        if self.exponents is None:
            return np.array([self.eval_at(row) for row in xs]).reshape(-1, self.size)
        return np.prod(xs[:, None, :] ** self.exponents, axis=2)

    def eval_design(self, nodes: np.ndarray) -> np.ndarray:
        """Design matrix: entry (i, j) holds basis function j at node i."""
        return self.eval_rows(nodes)

    def derivative_at(self, x) -> np.ndarray:
        """First derivatives of all basis functions at scalar x (d = 1)."""
        if self.derivative is None:
            raise ValueError(
                "basis has no derivative; supply one or use a monomial basis"
            )
        return np.asarray(self.derivative(float(np.ravel(x)[0])), dtype=float)

    def derivative_rows(self, xs) -> np.ndarray:
        """First derivatives at every point of xs (d = 1), shape (n, size).

        Vectorized for monomials, equal bit for bit to ``derivative_at``
        row by row; other bases call ``derivative_at`` per point.
        """
        xs = np.asarray(xs, dtype=float).ravel()
        if self.kind != "monomial" or self.exponents is None or self.derivative is None:
            return np.array([self.derivative_at(x) for x in xs]).reshape(-1, self.size)
        powers = self.exponents[:, 0]
        nz = powers > 0
        out = np.zeros((xs.size, self.size))
        out[:, nz] = powers[nz] * xs[:, None] ** (powers[nz] - 1.0)
        return out

    def to_dict(self) -> dict:
        if self.kind != "monomial":
            raise ValueError("only monomial bases are serializable")
        return {"kind": "monomial", "l": int(self.size), "d": int(self.dim)}

    @classmethod
    def from_dict(cls, d: dict) -> "BasisSpec":
        if d.get("kind", "monomial") != "monomial":
            raise ValueError("only monomial bases can be configured from JSON")
        if "l" not in d:
            raise ValueError("basis config requires an 'l' key")
        return monomial_basis(int(d["l"]), dim=int(d.get("d", 1)))


def _mono_fn(expo: tuple[int, ...]):
    e = np.asarray(expo, dtype=float)
    if not e.any():
        return lambda pt: 1.0
    return lambda pt: float(np.prod(np.asarray(pt, dtype=float) ** e))


def monomial_basis(size: int, dim: int = 1) -> BasisSpec:
    """Monomial basis 1, x, x^2, ... (graded lexicographic for dim > 1)."""
    expos = monomial_exponents(dim, size)
    fns = tuple(_mono_fn(e) for e in expos)
    exponents = np.array(expos, dtype=float)
    exponents.setflags(write=False)
    deriv = None
    if dim == 1:
        powers = exponents[:, 0]

        def deriv(x, _p=powers):
            x = float(x)
            out = np.zeros_like(_p)
            nz = _p > 0
            out[nz] = _p[nz] * x ** (_p[nz] - 1.0)
            return out

    return BasisSpec(
        size=size, functions=fns, derivative=deriv, kind="monomial", dim=dim,
        exponents=exponents,
    )
