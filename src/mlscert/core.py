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
from .points import PointSet, distances_each
from .weights import WeightSpec, w_each

#: admissible condition number of the normal-equations (Gram) matrix;
#: beyond it the solve refuses rather than return noise.  The solve reads
#: it at call time.
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
_TINY = float(np.finfo(float).tiny)


def rank_tolerance(m: int, l: int, smax):
    """Singular-value cutoff used for all numerical rank decisions.

    ``smax`` is a float or an array of them.  ``_EPS * 16`` is a power of
    two, so grouping it changes no bit of the product while the result is
    a normal double: it is unless smax < 1e-290, and a design's column of
    ones keeps smax above 1e-155 (or at 0, when every weight is inf).
    Below that the cutoff is floored at the smallest normal double, so an
    R whose singular values are all subnormal fails the rank check rather
    than passing it on a tolerance that underflowed to 0.
    """
    return np.maximum(max(m, l) * smax * (_EPS * 16), _TINY)


def build_design(points: PointSet, basis: BasisSpec) -> np.ndarray:
    """Design matrix: entry (i, j) is basis function j at node i, shape (m, l).

    A node whose basis values overflow raises ``ValueError`` naming the
    first such node: an infinite design is malformed input, not a rank or
    conditioning failure.  The one-node-set case of ``_designs``.
    """
    return _designs(points.nodes[None], basis)[0]


def _designs(nodes, basis: BasisSpec) -> np.ndarray:
    """The designs (k, m, l) of the node sets ``nodes`` (k, m, d), in one
    call; each is what ``build_design`` gives for its node set, bit for bit
    (the basis is evaluated node by node).  The first node set with a
    non-finite design raises its ``build_design`` error."""
    k, m, d = nodes.shape
    if basis.dim != d:
        raise ValueError(f"basis expects dim {basis.dim}, nodes have dim {d}")
    rows = nodes.reshape(k * m, d)
    with np.errstate(over="ignore"):
        E = basis.eval_design(rows)
    bad = _first_nonfinite(rows, E)
    if bad is not None:
        raise ValueError(f"basis values at node {bad} are not finite")
    return E.reshape(k, m, basis.size)


def _first_nonfinite(rows, values) -> str | None:
    """The first of the points ``rows`` whose row of ``values`` is not
    finite, as an error message names it (a float, or a tuple of them), or
    None when every row is finite."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    row = rows[np.argmin(finite.all(axis=1))].tolist()
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
    """A solved block of n rows, with the inputs of its solve.

    ``at_node`` holds, per row, the node of an interpolation-limit row or
    -1, and is None when no row is one; the QR fields cover the k rows
    that are not at a node.  ``conds`` is None when the caller reads no
    condition estimates and ``_certified`` proved the block's checks pass,
    so no SVD was taken.
    """

    coeffs: np.ndarray  # (n, m)
    at_node: np.ndarray | None  # (n,)
    qmats: np.ndarray  # (k, m, l)
    rmats: np.ndarray  # (k, l, l)
    roots: np.ndarray  # (k, m) square roots of 2 * w
    conds: list | None  # k Gram condition estimates
    cvecs: np.ndarray  # (n, l) basis values at the points
    dists: np.ndarray  # (n, m) node distances
    dvecs: np.ndarray  # (n, m) weight diagonals 2 * w


def _solve_rows(E, cvecs, dists, dvecs, conds: bool = False) -> _Rows:
    """Solve the local systems of a block of rows with stacked LAPACK calls.

    ``E`` is the design (m, l) shared by every row, or a stack (n, m, l)
    of one design per row.  ``cvecs`` (n, l) holds the basis values at the
    evaluation points, ``dists`` and ``dvecs`` (n, m) their node distances
    and 2 * w.  A row with a vanishing weight at a node is the
    interpolation limit; every other row goes through QR of the scaled
    design, the rank check, the conditioning check against ``COND_LIMIT``
    and the coefficient solve.  The checks take an SVD of every R
    (``_checked_conds``) unless ``_certified`` proves they pass; ``conds``
    asks for the condition estimates, and so for the SVD, in any case.
    If a row fails, the error of a failing row is raised: for a single
    row, that point's error.
    """
    inputs = (cvecs, dists, dvecs)
    n, m = dvecs.shape
    l = E.shape[-1]
    at_node = None
    if not dvecs.all():  # a weight vanished at some node
        zero = dvecs == 0.0
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
    # divide with the node axis innermost and contiguous in every operand:
    # the same quotients, about 3x faster from m = 25 on.  QR copies its
    # input into its own buffer, so the layout leaves its factors unchanged
    e_t = np.ascontiguousarray(np.swapaxes(E, -1, -2))
    scaled = np.swapaxes(e_t / root[:, None, :], -1, -2)
    qmats, rmats = np.linalg.qr(scaled, mode="reduced")
    estimates = None
    if conds or not _certified(rmats, m, l):
        estimates = _checked_conds(rmats, m, l)

    sol = np.linalg.solve(rmats.transpose(0, 2, 1), cvecs[:, :, None])
    coeffs = (qmats @ sol)[:, :, 0] / root
    if at_node is not None:
        # interpolation limit: the coefficient vector degenerates to the
        # indicator of the coincident node
        solved, coeffs = coeffs, np.zeros((n, m))
        coeffs[regular] = solved
        coeffs[hit_rows, hits] = 1.0
    return _Rows(coeffs, at_node, qmats, rmats, root, estimates, *inputs)


def _checked_conds(rmats, m: int, l: int) -> list:
    """The Gram condition estimate (smax / smin)^2 of every R of the
    (k, l, l) stack, from its singular values.

    A row fails the rank check when smin <= ``rank_tolerance`` and the
    conditioning check when its estimate exceeds ``COND_LIMIT``; a row's
    first failing check decides, and the first failing row in row order
    raises ``HypothesisFailure`` or ``ConditioningError``.
    """
    svals = np.linalg.svd(rmats, compute_uv=False)
    smax, smin = svals[:, 0], svals[:, -1]
    # rows up to the first rank-deficient one
    deficient = (smin <= rank_tolerance(m, l, smax)).tolist()
    full = deficient.index(True) if True in deficient else len(deficient)
    # Python's float power, not np.square: the two differ in the last bit
    # on about 1 value in 1200 (2e6 random ratios)
    conds = [(a / b) ** 2 for a, b in zip(smax.tolist()[:full], smin.tolist()[:full])]
    failing = next((c for c in conds if c > COND_LIMIT), None)
    if failing is not None:
        raise ConditioningError(failing, COND_LIMIT)
    if full < len(deficient):
        raise HypothesisFailure(["design_full_rank"])
    return conds


#: largest basis size l for which ``_certified`` can prove the checks pass
_CERTIFIED_MAX_L = 12


def _certified(rmats, m: int, l: int) -> bool:
    """True when every R of the (k, l, l) upper-triangular stack provably
    passes both checks of ``_checked_conds``, shown from singular-value
    inequalities instead of an SVD.  False says only that the proof does
    not apply.

    Every singular value of R is at most sigma_max <= ||R||_F, and
    prod |r_ii| = |det R| = prod sigma_i <= sigma_min sigma_max^(l-1), so
    kappa = sigma_max / sigma_min obeys

        kappa^2 <= prod_i ||R||_F^2 / r_ii^2.

    The gate asks this bound to stay below T = min(COND_LIMIT, c^-2) / 2,
    where c = max(m, l) 16 eps is the factor of ``rank_tolerance``.  With
    u = 2^-53, LAPACK's computed singular values are taken within
    l^2 u sigma_max of the exact ones, as in ``bound1d._sigma_margin``.
    Since kappa < 1 / (c sqrt(2)) and c >= 32 l u, l^2 u kappa is below
    l / 45 <= 0.27 for l <= 12.  The computed smin then exceeds
    sigma_max (1 / kappa - l^2 u), and the computed tolerance stays below
    c sigma_max (1 + l^2 u)(1 + u).  Their difference is at least
    sigma_max u (13.25 max(m, l) - l^2) > 0, so no row is rank deficient.
    The computed smax / smin is below kappa (1 + l^2 u) / 0.73, and its
    rounded square below 1.9 kappa^2 < COND_LIMIT.

    In floating point the bound is scale-free: the gate needs the
    computed ||R||_F^2 of every row in [2^-900, 2^900), so sigma_max lies
    in [2^-452, 2^450] and the tolerance and the ratio stay normal.
    Squares that underflow move ||R||_F^2 by less than l^2 2^-1074, far
    below u of it.  The sum of l^2 squares is off by a relative
    l^2 u / (1 - l^2 u), and the l factors r_ii^2 / ||R||_F^2 and their
    product take 3 l - 1 roundings.  So the computed product exceeds the
    exact one by a relative (l^3 + 3 l) u at most, and with the roundings
    of T and of the last product by less than the margin 8 l^3 u.  Each
    factor is at most 1 + 2 l^2 u, and a passing product is above 2^-96,
    so every r_ii^2 of a passing row is normal and no partial product
    underflowed.  The gate refuses l > 12 and m < l, and the range check
    refuses every R with a NaN or inf entry, and R = 0.
    """
    c = max(m, l) * (16 * _EPS)
    limit = 0.5 * min(COND_LIMIT, 1.0 / (c * c))
    if l > _CERTIFIED_MAX_L or m < l or not limit > 0.0:  # m < l: R is not square
        return False
    flat = rmats.reshape(len(rmats), l * l)
    with np.errstate(over="ignore"):  # an inf norm fails the range check
        norms = np.vecdot(flat, flat)
    # a NaN compares false, so this refuses NaN entries too
    if not (norms.min(initial=np.inf) >= 2.0**-900 and norms.max(initial=0.0) < 2.0**900):
        return False
    # (l, k), so that the product runs over the outer axis
    ratios = np.diagonal(rmats, axis1=1, axis2=2).T.copy()
    ratios *= ratios
    ratios /= norms
    margin = 1.0 + 4.0 * l**3 * _EPS  # 8 l^3 u
    return bool(np.multiply.reduce(ratios).min(initial=np.inf) * limit > margin)


def _design_for(points, basis, design) -> np.ndarray:
    E = build_design(points, basis) if design is None else np.asarray(design, float)
    return _at_most_m(E)


def _at_most_m(E) -> np.ndarray:
    """The design (m, l), or a stack of them, refused when l > m."""
    if E.shape[-1] > E.shape[-2]:
        raise HypothesisFailure(["basis_size_le_nodes"])
    return E


def build_system(x, points: PointSet, basis: BasisSpec, weight: WeightSpec) -> MlsSystem:
    """Assemble and solve the local system at evaluation point x.

    Parameters
    ----------
    x : scalar or (d,) array
        Evaluation point.
    points, basis, weight
        Problem data.  ``basis.size`` must not exceed the node count and the
        design matrix must have full column rank.

    Raises
    ------
    HypothesisFailure
        If the basis is larger than the node set or the design matrix is
        rank deficient.
    ConditioningError
        If the Gram condition estimate exceeds ``COND_LIMIT``.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float)).ravel()[None]
    E = _design_for(points, basis, None)
    return _systems(xv, E, _solve_points(xv, points, basis, weight, E, conds=True))[0]


def _systems(xs, E, rows) -> list:
    """The ``MlsSystem`` of each row of the block ``rows`` solved at the
    points xs (n, d), whose design is ``E`` (m, l) or the stack (n, m, l)."""
    out = []
    k = 0  # index among the rows off the nodes, which carry QR factors
    for i, xv in enumerate(xs):
        node = -1 if rows.at_node is None else int(rows.at_node[i])
        if node >= 0:
            solve = dict(qmat=None, rmat=None, cond_gram=np.inf, at_node=node)
        else:
            solve = dict(qmat=rows.qmats[k], rmat=rows.rmats[k], cond_gram=rows.conds[k])
            k += 1
        out.append(MlsSystem(
            x=xv, design=E if E.ndim == 2 else E[i], dvec=rows.dvecs[i],
            basis_at_x=rows.cvecs[i], coeffs=rows.coeffs[i], **solve,
        ))
    return out


def _basis_rows(xs, basis) -> np.ndarray:
    """Basis values (n, l) at the rows of xs (n, d).  A non-finite point,
    or one whose basis values overflow, raises ``ValueError`` naming the
    first one."""
    bad = _first_nonfinite(xs, xs)
    if bad is not None:
        raise ValueError(f"evaluation point {bad} is not finite")
    with np.errstate(over="ignore"):
        cvecs = basis.eval_rows(xs)
    bad = _first_nonfinite(xs, cvecs)
    if bad is not None:
        raise ValueError(f"basis values at evaluation point {bad} are not finite")
    return cvecs


def _solve_points(xs, points, basis, weight, E, conds=False) -> _Rows:
    """Solve the local systems at the rows of xs (n, d) in one block;
    ``conds`` as in ``_solve_rows``."""
    cvecs = _basis_rows(xs, basis)
    dists = points.distances(xs)
    return _solve_rows(E, cvecs, dists, build_weight_diag(dists, weight), conds)


def solve_stack(designs, cvecs, dists, dvecs) -> np.ndarray:
    """Coefficient vectors of k unrelated systems of one shape, solved in
    one stacked call.

    Row i is the system of design ``designs[i]`` (m, l), basis values
    ``cvecs[i]`` (l,), node distances ``dists[i]`` and weight diagonal
    ``dvecs[i]`` (m,); its coefficients equal, bit for bit, what
    ``build_system`` gives for it.  If a row fails, the error of a failing
    row is raised: for a single row, that system's error.
    """
    return _solve_rows(designs, cvecs, dists, dvecs).coeffs


def build_system_stack(xs, point_sets, basis: BasisSpec, weights) -> list:
    """The systems of k unrelated problems of one shape (m, l), solved in
    one stacked call.

    Problem i is the node set ``point_sets[i]`` with weight ``weights[i]``
    at the point ``xs[i]``, a row of xs (k, d); all share ``basis``.  The
    designs, the node distances and the weight diagonals are built in
    stacked calls too, the weights one call per family.  Each
    system equals, bit for bit, what ``build_system`` gives for its
    problem.  If a problem fails, the error of a failing one is raised (an
    ``MlsError`` or ``ValueError``); a caller that needs each problem's own
    error replays them with ``build_system``.
    """
    xs = np.asarray(xs, dtype=float)
    nodes = np.stack([p.nodes for p in point_sets])
    designs = _at_most_m(_designs(nodes, basis))
    cvecs = _basis_rows(xs, basis)
    dists = distances_each(nodes, xs)
    with np.errstate(over="ignore"):  # as in build_weight_diag
        dvecs = 2.0 * w_each(weights, dists)
    return _systems(xs, designs, _solve_rows(designs, cvecs, dists, dvecs, conds=True))


def solve_blocks(xs, points, basis, weight, E, block_rows, *, conds=False):
    """Solve the rows of xs (n, d) in blocks of at most ``block_rows`` rows;
    ``conds`` asks for the condition estimates, as in ``_solve_rows``.

    Yields ``(start, rows)`` per solved block, in row order: the solved
    rows from ``start`` on.  A block that fails is replayed point by point,
    one row per yield, so the first failing point raises its own error --
    what ``build_system`` raises there (a stacked LAPACK error names no row
    at all).  Blocks are solved only as the caller asks for them, so a
    caller's own per-row error before that point still comes first.
    """
    for start in range(0, len(xs), block_rows):
        stop = min(start + block_rows, len(xs))
        try:
            rows = _solve_points(xs[start:stop], points, basis, weight, E, conds)
        except (MlsError, ValueError):  # LinAlgError is a ValueError
            rows = None
        if rows is not None:
            yield start, rows
            continue
        for i in range(start, stop):
            yield i, _solve_points(xs[i : i + 1], points, basis, weight, E, conds)


def build_system_list(xs, points: PointSet, basis: BasisSpec, weight: WeightSpec):
    """The systems at the rows of xs (n, d), solved in blocks: those of the
    points before the first failing one, in row order, and the error that
    ``build_system`` raises at that point (None when every point solves).
    """
    systems = []
    try:
        E = _design_for(points, basis, None)
        for start, rows in solve_blocks(xs, points, basis, weight, E, _BLOCK, conds=True):
            systems += _systems(xs[start : start + len(rows.coeffs)], E, rows)
    except (MlsError, ValueError) as exc:  # LinAlgError is a ValueError
        return systems, exc
    return systems, None


def build_systems(
    xs,
    points: PointSet,
    basis: BasisSpec,
    weight: WeightSpec,
    *,
    design: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors a(x) at every row of xs, solved in blocks.

    ``xs`` is (n, d), one evaluation point per row; a 1-d array is a column
    of 1-d points.  Returns the coefficient stack (n, m), equal bit for bit
    to ``build_system(x).coeffs`` row by row, and the node index of every
    interpolation-limit row (-1 elsewhere).  The first failing row, in row
    order, raises what ``build_system`` raises at that point.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim == 1:
        xs = xs[:, None]
    E = _design_for(points, basis, design)
    coeffs = np.empty((len(xs), E.shape[0]))
    at_node = np.empty(len(xs), dtype=int)
    for start, rows in solve_blocks(xs, points, basis, weight, E, _BLOCK):
        block = slice(start, start + len(rows.coeffs))
        coeffs[block] = rows.coeffs
        at_node[block] = -1 if rows.at_node is None else rows.at_node
    return coeffs, at_node


def evaluate(x, points: PointSet, basis: BasisSpec, weight: WeightSpec) -> float:
    """Fitted value at x for the samples carried by ``points``: the one-row
    case of ``evaluate_many``."""
    return float(evaluate_many(np.reshape(x, (1, -1)), points, basis, weight)[0])


def evaluate_many(xs, points, basis, weight) -> np.ndarray:
    """Fitted values on a batch of evaluation points (rows of xs)."""
    if points.values is None:
        raise ValueError("points carry no values to fit")
    coeffs, at_node = build_systems(xs, points, basis, weight)
    return fitted_values(coeffs, at_node, points.values)


def fitted_values(coeffs, at_node, values) -> np.ndarray:
    """Fitted values from the output of ``build_systems``.

    An interpolation-limit row takes its node's value; any other row is
    a(x) @ values.  ``np.vecdot`` takes the same BLAS dot product per row
    as ``a @ values``, so the stack equals the per-row products bit for bit.
    """
    fitted = np.vecdot(coeffs, values)
    hit = at_node >= 0
    fitted[hit] = values[at_node[hit]]
    return fitted


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the structural checks behind the fitting method.

    ``basis_size_le_nodes`` basis dimension does not exceed the node count
    ``design_full_rank``    design matrix has full column rank

    The basis needs no check of its own: its first function is x^0 = 1.
    """

    basis_size_le_nodes: bool
    design_full_rank: bool
    rank: int

    @property
    def failed_items(self) -> list[str]:
        return [
            name
            for name in ("basis_size_le_nodes", "design_full_rank")
            if not getattr(self, name)
        ]


def check_hypotheses(
    points: PointSet, basis: BasisSpec, *, design_svals: np.ndarray | None = None
) -> HypothesisReport:
    """Verify the structural requirements on (points, basis): the basis
    size and the node geometry.  ``design_svals`` are the singular values
    of the design, when the caller has them already."""
    if design_svals is None:
        design_svals = np.linalg.svd(build_design(points, basis), compute_uv=False)
    m, l = points.m, basis.size
    rank = int(np.sum(design_svals > rank_tolerance(m, l, design_svals[0])))
    return HypothesisReport(
        basis_size_le_nodes=l <= m,
        design_full_rank=rank == l,
        rank=rank,
    )
