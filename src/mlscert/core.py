"""Weighted local least-squares fitting of scattered data.

Given nodes x_1..x_m with samples f_i, a basis p_1..p_l and a weight family,
the fitted value at an evaluation point x is  sum_i a_i(x) f_i  where the
coefficient vector a solves the weighted least-squares problem

    minimize over p in span(p_1..p_l):   sum_i W(||x - x_i||) (p(x_i) - f_i)^2

and a_i collects the linear dependence of p(x) on f_i.  All linear algebra
goes through one thin QR factorization of the row-scaled design matrix, so
the squared conditioning of the normal equations never enters the solve.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bases import BasisSpec
from .points import PointSet
from .weights import WeightSpec

#: hard default for the admissible condition number of the normal-equations
#: (Gram) matrix; beyond this the solve refuses rather than return noise
COND_LIMIT = 1e12


class MlsError(Exception):
    """Base class for fitting errors."""


class ConditioningError(MlsError):
    """Gram matrix condition estimate exceeded the admissible limit."""

    def __init__(self, condition: float, limit: float):
        self.condition = float(condition)
        self.limit = float(limit)
        super().__init__(
            f"gram condition estimate {condition:.3e} exceeds limit {limit:.3e}"
        )


class HypothesisFailure(MlsError):
    """A structural requirement of the method does not hold."""

    def __init__(self, items: list[str]):
        self.items = list(items)
        super().__init__("hypothesis failure: " + ", ".join(self.items))


_EPS = float(np.finfo(float).eps)


def rank_tolerance(m: int, l: int, smax: float) -> float:
    """Singular-value cutoff used for all numerical rank decisions."""
    return max(m, l) * smax * _EPS * 16


def build_design(points: PointSet, basis: BasisSpec) -> np.ndarray:
    """Design matrix: entry (i, j) is basis function j at node i, shape (m, l).

    A node whose basis values overflow raises ``ValueError`` naming the
    first such node: an infinite design is malformed input, not a rank or
    conditioning failure.
    """
    if basis.dim != points.dim:
        raise ValueError(
            f"basis expects dim {basis.dim}, nodes have dim {points.dim}"
        )
    with np.errstate(over="ignore"):
        E = basis.eval_design(points.nodes)
    finite = np.isfinite(E).all(axis=1)
    if not finite.all():
        text = _point_text(points.nodes[np.argmin(finite)])
        raise ValueError(f"basis values at node {text} are not finite")
    return E


def _point_text(row) -> str:
    """A point as an error message names it: a float, or a tuple of them."""
    row = row.tolist()
    return repr(row[0]) if len(row) == 1 else repr(tuple(row))


def build_weight_diag(dist, weight: WeightSpec) -> np.ndarray:
    """Diagonal of the solver's scaling matrix: entries 2 * w(dist).

    ``dist`` holds distances of any shape.  The doubled reciprocal weights
    are what the operator diagnostics are phrased in; the factor 2 cancels
    from the fitted coefficients.  Doubling a finite weight may overflow to
    inf, the documented zero-influence limit, so that overflow is silent.
    """
    with np.errstate(over="ignore"):
        return 2.0 * np.asarray(weight.w(dist), dtype=float)


@dataclass(frozen=True)
class MlsSystem:
    """Assembled local system at one evaluation point.

    Fields
    ------
    x : (d,) ndarray               evaluation point
    design : (m, l) ndarray        basis values at the nodes
    dvec : (m,) ndarray            diagonal of the scaling matrix (2 * w)
    basis_at_x : (l,) ndarray      basis values at x
    coeffs : (m,) ndarray          fitted coefficient vector a(x)
    qmat, rmat : ndarray or None   QR factors of design scaled by dvec^{-1/2};
                                   rmat.T @ rmat is the Gram matrix
    cond_gram : float              condition estimate of the Gram matrix
    at_node : int or None          node index when x coincides with a node of
                                   an interpolating weight (coeffs is then the
                                   exact interpolation limit, a unit vector)
    """

    x: np.ndarray
    design: np.ndarray
    dvec: np.ndarray
    basis_at_x: np.ndarray
    coeffs: np.ndarray
    qmat: np.ndarray | None
    rmat: np.ndarray | None
    cond_gram: float
    at_node: int | None = None

    def __post_init__(self):
        for name in ("x", "design", "dvec", "basis_at_x", "coeffs"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def m(self) -> int:
        return self.design.shape[0]

    @property
    def l(self) -> int:
        return self.design.shape[1]


#: grid rows per stacked solve in ``build_systems``; bounds the (rows, m, l)
#: temporaries of a block
_BLOCK = 128


class _Rows(NamedTuple):
    """A solved block of n rows.

    ``at_node`` holds, per row, the node of an interpolation-limit row or
    -1, and is None when no row is one; the QR fields cover the k rows
    that are not at a node.
    """

    coeffs: np.ndarray  # (n, m)
    at_node: np.ndarray | None  # (n,)
    qmats: np.ndarray  # (k, m, l)
    rmats: np.ndarray  # (k, l, l)
    roots: np.ndarray  # (k, m) square roots of 2 * w
    conds: list  # k Gram condition estimates


def _solve_rows(E, cvecs, dists, dvecs, cond_limit) -> _Rows:
    """Solve the local systems of a block of rows with stacked LAPACK calls.

    ``E`` is the design (m, l) shared by every row, or a stack (n, m, l)
    of one design per row.  ``cvecs`` (n, l) holds the basis values at the
    evaluation points, ``dists`` and ``dvecs`` (n, m) their node distances
    and 2 * w.  A row with a vanishing weight at a node is the
    interpolation limit; every other row goes through QR of the scaled
    design, the rank and conditioning checks and the coefficient solve.
    If a row fails, the error of a failing row is raised: for a single
    row, that point's error.
    """
    n, m = dvecs.shape
    l = E.shape[-1]
    at_node = None
    zero = dvecs == 0.0
    if zero.any():
        hit_rows = np.flatnonzero(zero.any(axis=1))
        hits = np.argmax(zero[hit_rows], axis=1)
        if np.any(dists[hit_rows, hits] > 0):
            raise ValueError("weight vanished at positive distance")
        at_node = np.full(n, -1)
        at_node[hit_rows] = hits
        regular = at_node < 0
        dvecs, cvecs = dvecs[regular], cvecs[regular]
        if E.ndim == 3:
            E = E[regular]

    root = np.sqrt(dvecs)
    qmats, rmats = np.linalg.qr(E / root[:, :, None], mode="reduced")
    svals = np.linalg.svd(rmats, compute_uv=False)
    # the checks run on Python floats, row by row: the same double arithmetic
    # as scalar code (an array ** 2 can differ from it in the last bit)
    conds = []
    for sv in svals.tolist():
        smax, smin = sv[0], sv[-1]
        if smin <= rank_tolerance(m, l, smax):
            raise HypothesisFailure(["design_full_rank"])
        conds.append((smax / smin) ** 2)
        if conds[-1] > cond_limit:
            raise ConditioningError(conds[-1], cond_limit)

    sol = np.linalg.solve(rmats.transpose(0, 2, 1), cvecs[:, :, None])
    coeffs = (qmats @ sol)[:, :, 0] / root
    if at_node is not None:
        # interpolation limit: the coefficient vector degenerates to the
        # indicator of the coincident node
        solved, coeffs = coeffs, np.zeros((n, m))
        coeffs[regular] = solved
        coeffs[hit_rows, hits] = 1.0
    return _Rows(coeffs, at_node, qmats, rmats, root, conds)


def _design_for(points, basis, design) -> np.ndarray:
    E = build_design(points, basis) if design is None else np.asarray(design, float)
    if E.shape[1] > E.shape[0]:
        raise HypothesisFailure(["basis_size_le_nodes"])
    return E


def build_system(
    x,
    points: PointSet,
    basis: BasisSpec,
    weight: WeightSpec,
    *,
    cond_limit: float = COND_LIMIT,
) -> MlsSystem:
    """Assemble and solve the local system at evaluation point x.

    Parameters
    ----------
    x : scalar or (d,) array
        Evaluation point.
    points, basis, weight
        Problem data.  ``basis.size`` must not exceed the node count and the
        design matrix must have full column rank.
    cond_limit : float
        Admissible Gram condition estimate; beyond it ``ConditioningError``
        is raised.

    Raises
    ------
    HypothesisFailure
        If the basis is larger than the node set or the design matrix is
        rank deficient.
    ConditioningError
        If the Gram condition estimate exceeds ``cond_limit``.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    E = _design_for(points, basis, None)
    rows, cvecs, _, dvecs = _solve_points(xv[None], points, basis, weight, E, cond_limit)
    if rows.at_node is not None:
        return MlsSystem(
            x=xv, design=E, dvec=dvecs[0], basis_at_x=cvecs[0], coeffs=rows.coeffs[0],
            qmat=None, rmat=None, cond_gram=np.inf, at_node=int(rows.at_node[0]),
        )
    return MlsSystem(
        x=xv, design=E, dvec=dvecs[0], basis_at_x=cvecs[0], coeffs=rows.coeffs[0],
        qmat=rows.qmats[0], rmat=rows.rmats[0], cond_gram=rows.conds[0],
    )


def _solve_points(xs, points, basis, weight, E, cond_limit):
    """Solve the local systems at the rows of xs (n, d) in one block.

    Returns the solved rows plus the basis values (n, l), the node
    distances (n, m) and the weight diagonals 2 * w (n, m) of the points.
    A non-finite point raises ``ValueError`` naming the first one.
    """
    finite = np.isfinite(xs).all(axis=1)
    if not finite.all():
        text = _point_text(xs[np.argmin(finite)])
        raise ValueError(f"evaluation point {text} is not finite")
    cvecs = basis.eval_rows(xs)
    dists = points.distances(xs)
    dvecs = build_weight_diag(dists, weight)
    return _solve_rows(E, cvecs, dists, dvecs, cond_limit), cvecs, dists, dvecs


def solve_stack(designs, cvecs, dists, dvecs) -> np.ndarray:
    """Coefficient vectors of k unrelated systems of one shape, solved in
    one stacked call.

    Row i is the system of design ``designs[i]`` (m, l), basis values
    ``cvecs[i]`` (l,), node distances ``dists[i]`` and weight diagonal
    ``dvecs[i]`` (m,); its coefficients equal, bit for bit, what
    ``build_system`` gives for it.  If a row fails, the error of a failing
    row is raised: for a single row, that system's error.  The Gram
    condition limit is ``COND_LIMIT``, the default of ``build_system``.
    """
    return _solve_rows(designs, cvecs, dists, dvecs, COND_LIMIT).coeffs


def solve_blocks(xs, points, basis, weight, E, cond_limit, block_rows):
    """Solve the rows of xs (n, d) in blocks of at most ``block_rows`` rows.

    Yields ``(start, rows, dists)`` per solved block, in row order: the
    solved rows from ``start`` on and their node distances.  A block that
    fails is replayed point by point, one row per yield, so the first
    failing point raises its own error -- what ``build_system`` raises
    there (a stacked LAPACK error names no row at all).  Blocks are solved
    only as the caller asks for them, so a caller's own per-row error
    before that point still comes first.
    """
    for start in range(0, len(xs), block_rows):
        stop = min(start + block_rows, len(xs))
        try:
            rows, _, dists, _ = _solve_points(
                xs[start:stop], points, basis, weight, E, cond_limit
            )
        except (MlsError, ValueError):  # LinAlgError is a ValueError
            rows = None
        if rows is not None:
            yield start, rows, dists
            continue
        for i in range(start, stop):
            rows, _, dists, _ = _solve_points(
                xs[i : i + 1], points, basis, weight, E, cond_limit
            )
            yield i, rows, dists


def build_systems(
    xs,
    points: PointSet,
    basis: BasisSpec,
    weight: WeightSpec,
    *,
    cond_limit: float = COND_LIMIT,
    design: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors a(x) at every row of xs, solved in blocks.

    ``xs`` is (n, d), one evaluation point per row; a 1-d array is a column
    of 1-d points.  Returns the coefficient stack (n, m), equal bit for bit
    to ``build_system(x).coeffs`` row by row, and the node index of every
    interpolation-limit row (-1 elsewhere).  The first failing row, in row
    order, raises what ``build_system`` raises at that point.  A custom
    weight is applied to a whole block of distances at once, so its
    ``custom_w`` must act elementwise, as ``WeightSpec`` asks.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim == 1:
        xs = xs[:, None]
    E = _design_for(points, basis, design)
    coeffs = np.empty((len(xs), E.shape[0]))
    at_node = np.empty(len(xs), dtype=int)
    for start, rows, _ in solve_blocks(xs, points, basis, weight, E, cond_limit, _BLOCK):
        block = slice(start, start + len(rows.coeffs))
        coeffs[block] = rows.coeffs
        at_node[block] = -1 if rows.at_node is None else rows.at_node
    return coeffs, at_node


def evaluate(
    x,
    points: PointSet,
    basis: BasisSpec,
    weight: WeightSpec,
    *,
    cond_limit: float = COND_LIMIT,
) -> float:
    """Fitted value at x for the samples carried by ``points``: the one-row
    case of ``evaluate_many``."""
    xs = np.reshape(x, (1, -1))
    return float(evaluate_many(xs, points, basis, weight, cond_limit=cond_limit)[0])


def evaluate_many(xs, points, basis, weight, *, cond_limit=COND_LIMIT) -> np.ndarray:
    """Fitted values on a batch of evaluation points (rows of xs)."""
    if points.values is None:
        raise ValueError("points carry no values to fit")
    coeffs, at_node = build_systems(xs, points, basis, weight, cond_limit=cond_limit)
    return fitted_values(coeffs, at_node, points.values)


def fitted_values(coeffs, at_node, values) -> np.ndarray:
    """Fitted values from the output of ``build_systems``.

    An interpolation-limit row takes its node's value; any other row is
    a(x) @ values, one dot product per row, because a stacked product can
    differ in the last bit.
    """
    return np.array(
        [values[k] if k >= 0 else a @ values for a, k in zip(coeffs, at_node)],
        dtype=float,
    )


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the structural checks behind the fitting method.

    ``basis_size_le_nodes`` basis dimension does not exceed the node count
    ``design_full_rank``    design matrix has full column rank
    ``weight_smooth``       weight family is smooth in x (None if no weight
                            was supplied); reported, but never gates a fit

    The basis needs no check of its own: its first function is x^0 = 1.
    """

    basis_size_le_nodes: bool
    design_full_rank: bool
    rank: int
    weight_smooth: bool | None = None

    @property
    def ok(self) -> bool:
        """Gate used by fitting and diagnostics (smoothness is advisory)."""
        return self.basis_size_le_nodes and self.design_full_rank

    @property
    def failed_items(self) -> list[str]:
        return [
            name
            for name in ("basis_size_le_nodes", "design_full_rank")
            if not getattr(self, name)
        ]


def check_hypotheses(
    points: PointSet, basis: BasisSpec, weight: WeightSpec | None = None
) -> HypothesisReport:
    """Verify the structural requirements on (points, basis[, weight]).

    The weight argument only feeds the advisory smoothness flag; the two
    load-bearing checks are about the basis size and the node geometry.
    """
    E = build_design(points, basis)
    m, l = E.shape
    svals = np.linalg.svd(E, compute_uv=False)
    rank = int(np.sum(svals > rank_tolerance(m, l, svals[0])))
    return HypothesisReport(
        basis_size_le_nodes=l <= m,
        design_full_rank=rank == l,
        rank=rank,
        weight_smooth=None if weight is None else weight.smooth,
    )
