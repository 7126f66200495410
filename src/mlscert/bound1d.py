"""Growth certificate for the coefficient vector in one dimension.

With exponential weights w(r) = exp(alpha r^2) on an increasing 1-D node set,
the coefficient vector a(x) is differentiable and obeys a linear ODE whose
ingredients are all computable: the weight diagonal satisfies D' = H D with
H = diag(2 alpha (x - x_i)), and

    a'(x) = (P - I) H a(x) + A0 c'(x)

where P is the oblique projector of the fit, A0 the coefficient map and c the
basis column.  Bounding the two right-hand-side factors uniformly on
[x_1, x_m] and applying a Gronwall-type comparison yields the certified
envelope

    ||a(x)|| <= (||a(x_k0)|| + M1 |x - x_k0|) * exp(M2 |x - x_k0|)

anchored at the node nearest to x.  This module builds the ingredients,
computes the constants, and checks the envelope (plus the pointwise
majorants it rests on) over a grid.

The constants rest on two proven norm bounds.  P = D^(-1/2) Pi D^(1/2) with
Pi the orthogonal projector onto range(D^(-1/2) E), so ||P|| <= sqrt(cond D);
and A0 = D^(-1/2) (D^(-1/2) E)^(+T), so ||A0|| <= sqrt(cond D) / smin(E).
On [x_1, x_m] cond D <= exp(alpha r^2), with r the span.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bases import BasisSpec
from .config import Tolerances
from .core import (
    HypothesisFailure,
    MlsSystem,
    build_design,
    build_systems,
    check_hypotheses,
    solve_blocks,
)
from .points import PointSet
from .spectral import OperatorBundle, _block_rows, coef_map_stack
from .weights import WeightSpec

__all__ = [
    "BoundConstants",
    "BoundCertificate",
    "dlogw_diag",
    "ode_rhs",
    "monomial_diff_matrix",
    "check_hypotheses_1d",
    "bound_constants",
    "uniform_grid",
    "certify_bound",
]

#: log of the largest finite double; envelopes are clipped here
_MAX_LOG = math.log(np.finfo(float).max)

#: unit roundoff of doubles
_UNIT_ROUNDOFF = 2.0**-53

#: one grid row in this many gets a product bound up front; the rows
#: between chain theirs from it (see ``_chained_upper``)
_CHAIN_STRIDE = 8

#: Gram squarings of the refined bound, G^(2^_SQUARINGS) (``_sigma_max_upper``)
_SQUARINGS = 6

#: least m whose candidate rows get the refined bound: below it, an SVD
#: of the rows left costs less than the numpy calls of a refinement
_REFINE_MIN_ORDER = 16


def _chunk_rows(m: int) -> int:
    """Rows per chunk of ``_chained_upper``'s step differences and
    product bounds: a chunk of candidate rows, its scaled copy, the
    transposed copy and the product are four (rows, m, m) arrays, an
    eighth of a block's stack (``spectral._block_rows``) each, so all of
    them together fit in half of one more stack."""
    return max(1, _block_rows(m) // 8)


def _sigma_margin(m: int) -> float:
    """Relative rounding margin of ``_sigma_max_upper`` for (m, m) matrices.

    With u = 2^-53, forming G = A^T A in floating point moves it by at
    most m^2 u ||A||^2 in the 2-norm (|fl(XY) - XY| <= m u |X||Y| per
    product, and || |X| || <= sqrt(m) ||X||).  Each squaring doubles the
    relative error it is given and adds its own m^2 u, so G^(2^p) is off
    by (2^(p+1) - 1) m^2 u ||A||^(2^(p+1)), and its Frobenius norm, which
    is at least sigma_max^(2^(p+1)), by sqrt(m) times that.  The
    2^(p+1)-th root divides the relative error by 2^(p+1), so less than
    m^2.5 u is left for every p.  The sum of squares adds at most
    m^2 u / 16 after the root, the square roots 2 u together and the last
    product u, and LAPACK's SVD returns sigma_max within p(m) u of the
    exact value, taken here as p(m) = m^2.  All of it stays below
    8 m^3 u for every m >= 1.
    """
    return 1.0 + 8.0 * m**3 * _UNIT_ROUNDOFF


def _chain_margin(m: int) -> float:
    """Relative rounding margin of a bound chained over at most
    ``_CHAIN_STRIDE`` = S steps between (m, m) matrices.

    A chained bound is fl(U + d_1 + ... + d_s), s <= S, with U an upper
    bound on the exact sigma_max of the starting matrix and d_i the
    computed ||A_i - A_(i-1)||_F.  The subtraction is exact up to a factor
    1 + u (and exact when the result is subnormal), the squares lose a
    relative u, and at most 2^-1075 each to underflow, the sum of m^2
    nonnegative terms a relative (m^2 - 1) u and the root u, so the exact
    step is below d_i (1 + (m^2/2 + 3) u) + m 2^-537.  The s additions of
    nonnegative terms lose at most a relative s u, LAPACK's SVD adds
    m^2 u as in ``_sigma_margin``, and the product with this margin and
    the sum with the absolute term ``_chain_floor(m)`` round once each:
    together less than (2 m^2 + S + 8) u while that is far below 1.
    """
    return 1.0 + (2.0 * m * m + _CHAIN_STRIDE + 8.0) * _UNIT_ROUNDOFF


def _chain_floor(m: int) -> float:
    """Absolute term of a chained bound: the underflow of the squares in
    up to ``_CHAIN_STRIDE`` steps (``_chain_margin``), with room for the
    rounding of the SVD."""
    return _CHAIN_STRIDE * m * 2.0**-536


def _sigma_max(matrix: np.ndarray) -> float:
    """sigma_max of a finite (m, m) matrix, bit for bit what
    ``np.linalg.norm(stack, 2, axis=(1, 2))`` gives for it in any stack:
    the same LAPACK SVD, whose values come sorted, without the norm's axis
    handling and maximum."""
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


def _sigma_max_upper(stack: np.ndarray, best: float = -math.inf,
                     squarings: int = 2) -> np.ndarray:
    """Upper bounds on the computed sigma_max of each matrix of a finite
    (k, m, m) stack, from matrix products instead of an SVD.

    Each matrix M is scaled by the exact power of two 2^-e that brings its
    largest |entry| into [1/2, 1) (``ldexp`` per entry, so a subnormal
    maximum is scaled exactly too), and A = 2^-e M has sigma_max in
    [1/2, m].  Since sigma_max(A)^(2^(p+2)) <= tr(G^(2^(p+1))) =
    ||G^(2^p)||_F^2 for G = A^T A, the power G^(2^p) bounds sigma_max(M)
    by 2^e ||G^(2^p)||_F^(2^-(p+1)) times ``_sigma_margin(m)``, an
    overestimate by a factor of at most m^(2^-(p+2)): 1.26 for p = 2,
    1.06 for p = 4 and 1.015 for p = 6 at m = 40.

    Every matrix gets the bound of G^4 (three products).  Up to an even
    ``squarings``, the matrices whose bound still exceeds ``best`` square
    their last power twice more, G^4 to G^16 to G^64, each time after
    rescaling it by the exact power of two that brings its largest |entry|
    back into [1/2, 1), and keep the least bound.  So every power's norm
    lies in [1/16, m^4] before its exponent (G^4 in [2^-8, m^8]), nothing
    overflows, and what underflows is below 2^-900 of that norm.
    """
    k, m, _ = stack.shape
    _, expo = np.frexp(np.abs(stack).reshape(k, -1).max(axis=1))
    power = np.ldexp(stack, -expo[:, None, None])
    # contiguous operands: a transposed view takes numpy's slower matmul loop
    power = power.transpose(0, 2, 1).copy() @ power
    power = power @ power
    power = power @ power
    upper = _power_bound(power, 2, 0, expo, m)
    rows = np.flatnonzero(upper > best)
    if squarings > 2 and rows.size:
        power, shift = power[rows], np.zeros(rows.size, dtype=int)
        for _ in range(2, squarings, 2):
            _, rescale = np.frexp(np.abs(power).reshape(rows.size, m * m).max(axis=1))
            power = np.ldexp(power, -rescale[:, None, None])
            power = power @ power
            power = power @ power
            shift = 4 * (shift + rescale)
        refined = _power_bound(power, squarings, shift, expo[rows], m)
        upper[rows] = np.minimum(upper[rows], refined)
    return upper


def _power_bound(power, p: int, shift, expo, m: int) -> np.ndarray:
    """The bound of ``_sigma_max_upper`` from a stack of powers
    2^-shift G^(2^p) of matrices scaled by 2^-expo.

    sigma_max^n <= 2^(2 shift) ||power||_F^2 with n = 2^(p+2), and
    2 shift = n q + r with 0 <= r < n, so the n-th root, p + 2 square
    roots, is exact in 2^q.  The bound is rounded up one ulp, so that a
    subnormal one, which ``ldexp`` rounds to nearest, stays an upper
    bound; it is 0 for power = 0.
    """
    q, r = np.divmod(2 * shift, 2 ** (p + 2))
    flat = power.reshape(len(power), m * m)
    root = np.ldexp(np.vecdot(flat, flat), r)
    for _ in range(p + 2):
        root = np.sqrt(root)
    with np.errstate(over="ignore"):  # inf is still an upper bound
        upper = np.ldexp(root * _sigma_margin(m), expo + q)
    return np.nextafter(upper, np.inf, out=upper, where=root > 0)


def _chained_upper(stack: np.ndarray, best: float, carry) -> tuple:
    """Upper bounds on the computed sigma_max of each matrix of a finite
    (k, m, m) stack of consecutive grid rows, most of them chained from a
    few product bounds; and the running maximum and carry of
    ``_max_sigma``.

    Every ``_CHAIN_STRIDE``-th row and the last row (the anchors) get
    ``_sigma_max_upper``.  Weyl's inequality, |sigma_max(A) -
    sigma_max(B)| <= ||A - B||_2 <= ||A - B||_F, bounds every other row
    by an anchor's bound plus the Frobenius norms of the steps between
    consecutive rows: forward from the anchor before it (the carried last
    row of the block before, if any) and backward from the one after it,
    whichever is smaller, times ``_chain_margin(m)`` plus
    ``_chain_floor(m)``.  The step differences are taken in chunks of
    ``_chunk_rows(m)`` rows, each dropped as soon as its norms are taken.
    The anchor with the largest bound gets its
    SVD first when it is sure to raise best: when its bound beats best
    even divided by m^(1/16), the most the bound of G^4 overestimates
    (always, while best is -inf).

    Only rows whose chained bound still beats best get a product bound,
    refined up to G^(2^_SQUARINGS) from m = ``_REFINE_MIN_ORDER`` on; the
    others cannot raise best.  They get it in chunks of ``_chunk_rows(m)``
    rows, in decreasing order of chained bound, so the product workspace
    stays within half a block's stack.  After each chunk, its row with the
    largest bound gets its SVD if that bound beats best, and the next
    chunk keeps only the rows that beat the raised maximum.  A
    row that got its SVD gets that value as its bound, which no later SVD
    exceeds; the carry takes its bound from before.
    """
    k, m, _ = stack.shape
    stride, size = _CHAIN_STRIDE, _chunk_rows(m)
    anchors = np.append(np.arange(stride - 1, k - 1, stride), k - 1)
    anchor_upper = _sigma_max_upper(stack[anchors])
    # segment s holds the rows after anchor s - 1 up to anchor s, padded
    # with zero steps after the last row
    steps = np.zeros(anchors.size * stride)
    with np.errstate(over="ignore"):  # inf is still an upper bound
        for first in range(1, k, size):
            stop = min(first + size, k)
            diff = (stack[first:stop] - stack[first - 1 : stop - 1]).reshape(-1, m * m)
            steps[first:stop] = np.sqrt(np.vecdot(diff, diff))
            del diff
        if carry is not None:
            diff = (stack[0] - carry[0]).ravel()
            steps[0] = math.sqrt(np.vecdot(diff, diff))
        steps = steps.reshape(anchors.size, stride)
        start = np.concatenate(([math.inf if carry is None else carry[1]], anchor_upper[:-1]))
        forward = start[:, None] + np.cumsum(steps, axis=1)
        back = np.zeros_like(steps)
        back[:, :-1] = steps[:, 1:]
        backward = anchor_upper[:, None] + np.cumsum(back[:, ::-1], axis=1)[:, ::-1]
        upper = np.minimum(forward, backward).ravel()[:k] * _chain_margin(m) + _chain_floor(m)
    top = int(np.argmax(anchor_upper))
    settled = {}  # row -> sigma_max, for the rows that got their SVD
    if anchor_upper[top] * m ** (-1 / 16) > best:
        seeded = int(anchors[top])
        settled[seeded] = _sigma_max(stack[seeded])
        best = max(best, settled[seeded])
    squarings = _SQUARINGS if m >= _REFINE_MIN_ORDER else 2
    candidate = upper > best
    candidate[list(settled)] = False
    rows = np.flatnonzero(candidate)
    rows = rows[np.argsort(upper[rows])[::-1]]
    for first in range(0, rows.size, size):
        chunk = rows[first : first + size]
        # the chunks' bounds decrease and best only rises: once a chunk
        # has no row above best, no later chunk has one
        chunk = chunk[upper[chunk] > best]
        if not chunk.size:
            break
        upper[chunk] = np.minimum(upper[chunk], _sigma_max_upper(stack[chunk], best, squarings))
        row = int(chunk[np.argmax(upper[chunk])])
        if upper[row] > best:
            settled[row] = _sigma_max(stack[row])
            best = max(best, settled[row])
    carry = (stack[-1].copy(), float(upper[-1]))
    for row, sigma in settled.items():
        upper[row] = sigma
    return upper, best, carry


def _max_sigma(stack: np.ndarray, best: float, carry=None) -> tuple:
    """max(best, sigma_max of every matrix of the (k, m, m) stack), and
    the carry for the next block of the same grid.

    The result is exact: an SVD of an actual matrix, the same stacked
    ``np.linalg.norm(., 2)`` as over the whole stack.  Only matrices whose
    upper bound exceeds the running maximum are decomposed, in decreasing
    order of that bound, one at a time, so each SVD drops the rows it
    settles; the others cannot raise the maximum.  The bounds come from
    ``_chained_upper``.  ``carry`` is None or (matrix, bound): the last row
    of the block before and an upper bound on its exact sigma_max, which
    the chain starts from; the carry of this block's last row is returned
    with the maximum.  The stack is one block of the grid
    (``spectral._block_rows``); beside it, the (k, m, m) temporaries alive
    at once come to about half a stack (``_chained_upper``).  A stack
    with a non-finite entry, or an m whose margin would pass 1%, takes the
    norm of every matrix as before and drops the carry, so it fails the
    same way (numpy raises ``LinAlgError``) or yields NaN, which
    ``np.max`` keeps.
    """
    k, m, _ = stack.shape
    if _sigma_margin(m) > 1.01 or not np.all(np.isfinite(stack)):
        return float(np.max(np.linalg.norm(stack, 2, axis=(1, 2)), initial=best)), None
    upper, best, carry = _chained_upper(stack, best, carry)
    for row in np.argsort(upper)[::-1].tolist():
        # the bounds decrease, so the rows that beat best are a prefix; a
        # NaN best stops here too: nothing can change it
        if not upper[row] > best:
            break
        best = max(best, _sigma_max(stack[row]))
    return best, carry


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a real (n, k) stack, equal bit for bit
    to ``np.linalg.norm(row)`` per row: numpy computes that as
    sqrt(row.dot(row)), and ``np.vecdot`` takes the same BLAS dot product
    per row."""
    return np.sqrt(np.vecdot(rows, rows))


def _require_1d(points: PointSet) -> np.ndarray:
    if points.dim != 1:
        raise ValueError("this module requires 1-D nodes")
    return points.nodes[:, 0]


def dlogw_diag(x, points: PointSet, alpha: float) -> np.ndarray:
    """Diagonal of the logarithmic derivative of the weight matrix.

    Entry i is 2 * alpha * (x - x_i); the weight diagonal satisfies
    D'(x) = diag(out) @ D(x) for the exponential family.  For an array of
    n points, row k holds the diagonal at x[k], shape (n, m).
    """
    xs = _require_1d(points)
    return 2.0 * alpha * (np.asarray(x, dtype=float)[..., None] - xs)


def ode_rhs(
    system: MlsSystem,
    bundle: OperatorBundle,
    points: PointSet,
    basis: BasisSpec,
    alpha: float,
) -> np.ndarray:
    """Right-hand side of the coefficient ODE at the system's point.

    Returns (P - I) H a + A0 c', with c' the derivative k x^(k-1) of the
    basis column.
    """
    x = float(system.x[0])
    hdiag = dlogw_diag(x, points, alpha)
    dc = basis.derivative_at(x)
    return bundle.comp @ (hdiag * system.coeffs) + bundle.coef_map @ dc


def monomial_diff_matrix(l: int) -> np.ndarray:
    """Matrix realizing d/dx on the monomial basis column.

    Subdiagonal entries (i+1, i) = i for i = 1..l-1, so that
    mat @ (1, x, ..., x^{l-1})^T = (0, 1, 2x, ..., (l-1) x^{l-2})^T.
    Its singular values are exactly 0, 1, ..., l-1.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    mat = np.zeros((l, l))
    for i in range(1, l):
        mat[i, i - 1] = float(i)
    return mat


def check_hypotheses_1d(
    points: PointSet,
    basis: BasisSpec,
    weight: WeightSpec,
    *,
    design_svals: np.ndarray | None = None,
) -> list[str]:
    """Structural requirements of the growth bound; returns failed items.
    ``design_svals`` are the singular values of the design, when the
    caller has them already."""
    failed = []
    if points.dim != 1:
        failed.append("dimension_one")
    else:
        if not points.is_increasing():
            failed.append("nodes_increasing")
    base = check_hypotheses(points, basis, design_svals=design_svals)
    failed.extend(base.failed_items)
    if basis.dim != 1:
        failed.append("basis_derivative_available")
    if weight.family != "exp":
        failed.append("exp_weight_family")
    return failed


@dataclass(frozen=True)
class BoundConstants:
    """Uniform constants of the growth envelope on [x_1, x_m].

    ``growth_rate``    M2: bound on ||(P - I) H||
    ``coef_norm_bound``M11: bound on ||A0||
    ``slope_sup``      M12: sup of ||c'|| on [x_1, x_m], exact: the larger
                       of its two endpoint values
    ``forcing_bound``  M1 = M11 * M12: bound on ||A0 c'||
    """

    span: float
    alpha: float
    sigma_min_design_t: float
    growth_rate: float
    coef_norm_bound: float
    slope_sup: float
    forcing_bound: float
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def bound_constants(
    points: PointSet,
    basis: BasisSpec,
    alpha: float,
    *,
    design_svals: np.ndarray | None = None,
) -> BoundConstants:
    """Compute the envelope constants on [x_1, x_m].

    The norm chain ||P|| <= sqrt(cond D) <= exp(alpha r^2 / 2) of the module
    docstring gives M2 = 2 alpha r (1 + sqrt(exp(alpha r^2))), since
    ||H|| <= 2 alpha r, and M11 = sqrt(exp(alpha r^2)) / smin(E^T).  The
    forcing bound multiplies M11 by the sup of ||c'||.  For the basis
    1, x, ..., x^(l-1), ||c'(x)||^2 = sum_k k^2 x^(2(k-1)) does not decrease
    in |x|, so the sup is exact: the larger of the two endpoint values.  The
    metadata carries the differentiation-matrix fields of that basis.
    ``design_svals`` are the singular values of the design, when the caller
    has them already.
    """
    xs = _require_1d(points)
    if points.m < 2:
        raise ValueError("need at least two nodes for a nondegenerate span")
    if not points.is_increasing():
        raise HypothesisFailure(["nodes_increasing"])
    if basis.dim != 1:
        raise HypothesisFailure(["basis_derivative_available"])
    r = float(xs[-1] - xs[0])
    if design_svals is None:
        design_svals = np.linalg.svd(build_design(points, basis), compute_uv=False)
    smin_design = float(design_svals[-1])

    # any grid's maximum, bit for bit: rounding keeps the norm monotone in |x|
    slope_sup = max(_norms(basis.derivative_rows(xs[[0, -1]])).tolist())

    try:
        growth = math.exp(alpha * r * r)
    except OverflowError:
        raise ValueError(
            f"alpha r^2 = {alpha * r * r!r} exceeds {_MAX_LOG!r}, the log of the "
            "largest double: the growth factor exp(alpha r^2) overflows"
        ) from None
    sqrt_growth = math.sqrt(growth)  # the bound on sqrt(cond D)
    m2 = 2.0 * alpha * r * (1.0 + sqrt_growth)
    m11 = sqrt_growth / smin_design

    l = basis.size
    dbar_smax = float(np.linalg.svd(monomial_diff_matrix(l), compute_uv=False)[0])
    maxp = float(np.max(np.abs(basis.eval_at(xs[-1]))))
    meta = {
        "diff_matrix_smax": dbar_smax,
        "diff_matrix_norm_sqrt_claim": math.sqrt(l - 1),
        "slope_closed_form_paper": math.sqrt(l - 1) * maxp,
        "slope_closed_form_applicable": bool(abs(xs[0]) <= abs(xs[-1])),
    }

    return BoundConstants(
        span=r,
        alpha=float(alpha),
        sigma_min_design_t=smin_design,
        growth_rate=float(m2),
        coef_norm_bound=float(m11),
        slope_sup=float(slope_sup),
        forcing_bound=float(m11 * slope_sup),
        metadata=meta,
    )


def uniform_grid(points: PointSet, n: int, weight: WeightSpec | None = None) -> np.ndarray:
    """Uniform 1-D evaluation grid spanning the nodes.

    For interpolating weight families, grid points landing on a node (within
    1e-12) are nudged by +1e-9 * span so the scaled operators stay defined.
    """
    xs = _require_1d(points)
    grid = np.linspace(xs.min(), xs.max(), n)
    if weight is not None and weight.interpolating:
        r = float(xs.max() - xs.min()) or 1.0
        near = np.min(np.abs(xs - grid[:, None]), axis=1) < 1e-12
        grid[near] += 1e-9 * r
    return grid


@dataclass(frozen=True)
class BoundCertificate:
    """Grid evaluation of the growth envelope.

    ``passed`` means every grid point satisfies lhs <= rhs within the
    absolute slack tolerance AND the pointwise majorants behind the Gronwall
    argument held on the same grid.  ``majorants["max_comp_h"]`` is the
    exact max over the grid of sigma_max((P - I) H): the SVD of an actual
    grid point (the points whose chained or product upper bounds cannot
    beat it get none), or exactly 0 when l = m, where P = I.
    ``max_forcing`` is the max of ||A0 c'||.  Neither depends on the
    order of the grid or on how the grid loop splits it into blocks.
    """

    constants: BoundConstants
    xs: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    k0: np.ndarray
    slack: np.ndarray
    majorants: dict
    tolerances: Tolerances
    metadata: dict = field(default_factory=dict)

    @property
    def envelope_ok(self) -> bool:
        return bool(np.min(self.slack) >= -self.tolerances.bound)

    @property
    def passed(self) -> bool:
        return self.envelope_ok and bool(self.majorants["pass"])

    def to_dict(self) -> dict:
        """The wire form; ``points`` is an (n, 5) float array of rows
        (x, lhs, rhs, k0, slack), ``k0`` an integral float."""
        return {
            "constants": self.constants.to_dict(),
            "points": np.column_stack([self.xs, self.lhs, self.rhs, self.k0, self.slack]),
            "min_slack": float(np.min(self.slack)),
            "majorants": self.majorants,
            "pass": self.passed,
            "tolerances": self.tolerances.to_dict(),
            "metadata": self.metadata,
        }

    def rows_csv(self) -> np.ndarray:
        """Plot-ready rows (x, lhs, rhs, slack), an (n, 4) float array."""
        return np.column_stack([self.xs, self.lhs, self.rhs, self.slack])


def certify_bound(
    points: PointSet,
    basis: BasisSpec,
    weight: WeightSpec,
    grid=None,
    n_grid: int = 200,
    tol: Tolerances = Tolerances(),
) -> BoundCertificate:
    """Evaluate the growth envelope over a grid and check its majorants.

    Raises ``HypothesisFailure`` listing the failed structural items when the
    instance is outside the certified setting (needs d = 1, increasing nodes,
    the exponential weight family, and a 1-D basis).

    The grid is walked once, in blocks of ``spectral._block_rows(m)``
    rows.  Each block is solved in one stacked call, then a(x), its norm,
    the nearest node, the operators (the coefficient map A0, P - I and
    (P - I) H) and the forcing products A0 c' are built for the whole
    block, so the (rows, m, m) temporaries alive at once come to about 1.5
    times ``spectral._BLOCK_DOUBLES``, whatever m.

    ``max_comp_h`` is exact, from candidate rows: per block, upper bounds
    on sigma_max((P - I) H) pick the rows that could hold the maximum, and
    only those get an SVD (``_max_sigma``).  A few rows get a bound from
    products of G = M^T M; the others chain theirs from them along the
    grid by Weyl's inequality, and the last row of each block carries the
    chain into the next.  Any grid order and any block size give the same
    maximum.  With l = m the design is square and invertible, so
    P = E^(-T) E^T = I exactly: ``max_comp_h`` is 0 and no P - I is built.
    The design and its SVD are computed once, for the hypotheses, the
    constants and the solves.
    """
    # the design and its SVD serve the hypotheses, the constants and the
    # solves; nothing before it in the checks can raise
    design = build_design(points, basis)
    svals = np.linalg.svd(design, compute_uv=False)
    failed = check_hypotheses_1d(points, basis, weight, design_svals=svals)
    if failed:
        raise HypothesisFailure(failed)
    xs_nodes = points.nodes[:, 0]
    alpha = weight.alpha
    consts = bound_constants(points, basis, alpha, design_svals=svals)
    if grid is None:
        grid = uniform_grid(points, n_grid, weight)
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("empty evaluation grid")
    if grid.min() < xs_nodes[0] - 1e-12 or grid.max() > xs_nodes[-1] + 1e-12:
        raise ValueError("grid must lie within [x_1, x_m]")

    # anchor norms ||a(x_k)|| at every node (exp weights: nodes are regular
    # points of the solve)
    anchor_coeffs, _ = build_systems(xs_nodes, points, basis, weight, design=design)
    anchor_norm = _norms(anchor_coeffs)

    m, m1, m2 = points.m, consts.forcing_bound, consts.growth_rate
    lhs = np.empty(grid.size)
    k0s = np.empty(grid.size, dtype=int)
    forcing = np.empty(grid.size)
    # l = m: E is square and invertible, so P = E^(-T) E^T = I exactly
    max_comp_h = 0.0 if basis.size == m else -math.inf
    carry = None
    # C-ordered: numpy's stacked matmul against the transposed view of E
    # takes a slower loop, with the same bits
    design_t = np.ascontiguousarray(design.T)
    # exp weights never vanish, so no row is an interpolation limit and
    # every row carries its QR factors
    blocks = solve_blocks(grid[:, None], points, basis, weight, design, _block_rows(m))
    for start, rows in blocks:
        block = slice(start, start + len(rows.coeffs))
        # the nearest node anchors the envelope; a tie goes to the smaller index
        k0s[block] = np.argmin(rows.dists, axis=1)
        lhs[block] = _norms(rows.coeffs)
        coef_map = coef_map_stack(rows.qmats, rows.rmats, rows.roots)
        if basis.size < m:
            # P - I, then (P - I) H, in place
            comp = coef_map @ design_t
            comp -= np.eye(m)
            comp *= dlogw_diag(grid[block], points, alpha)[:, None, :]
            max_comp_h, carry = _max_sigma(comp, max_comp_h, carry)
            del comp  # before the next block builds its stack
        # a stacked matmul runs one BLAS matrix-vector product per row,
        # as coef_map[i] @ c'(x_i) does (an einsum sums in another order)
        dcs = basis.derivative_rows(grid[block])
        forcing[block] = _norms((coef_map @ dcs[:, :, None])[:, :, 0])
    # np.max keeps a NaN sample (Python's max would skip it)
    max_forcing = float(np.max(forcing))

    # evaluate the envelope in log space and clip at the largest finite
    # double: clipping only ever lowers the right-hand side, so a pass
    # stays a valid certificate.  The log and exp stay math.log and
    # math.exp, mapped over the positive bases: on 1e6 random inputs np.log
    # differs from math.log in the last bit about once in 10^4, np.exp from
    # math.exp about once in 20.  A base that is 0 or NaN gives 0.
    dist = np.abs(grid - xs_nodes[k0s])
    base = anchor_norm[k0s] + m1 * dist
    positive = base > 0.0
    logs = np.fromiter(map(math.log, base[positive].tolist()), float)
    rhs = np.zeros(grid.size)
    # np.minimum, like min, keeps a NaN exponent
    exponent = np.minimum(logs + m2 * dist[positive], _MAX_LOG)
    rhs[positive] = list(map(math.exp, exponent.tolist()))
    slack = rhs - lhs
    majorants = {
        "max_comp_h": max_comp_h,
        "growth_rate": m2,
        "comp_h_margin": m2 - max_comp_h,
        "max_forcing": max_forcing,
        "forcing_bound": m1,
        "forcing_margin": m1 - max_forcing,
        "pass": bool(max_comp_h <= m2 + tol.bound and max_forcing <= m1 + tol.bound),
    }
    return BoundCertificate(
        constants=consts,
        xs=grid,
        lhs=lhs,
        rhs=rhs,
        k0=k0s,
        slack=slack,
        majorants=majorants,
        tolerances=tol,
        metadata={"n_grid": int(grid.size)},
    )
