"""Weighted local least-squares fitting of scattered data.

Given nodes x_1..x_m with samples f_i, a basis p_1..p_l and a weight family,
the fitted value at an evaluation point x is  sum_i a_i(x) f_i  where the
coefficient vector a solves the weighted least-squares problem

    minimize over p in span(p_1..p_l):   sum_i W(||x - x_i||) (p(x_i) - f_i)^2

and a_i collects the linear dependence of p(x) on f_i.  All linear algebra
goes through one thin QR factorization of the row-scaled design matrix, so
the squared conditioning of the normal equations never enters the solve.
Many points are solved in blocks of rows (``build_rows``), and one budget
of doubles here (``_block_rows``) sizes every block: the solve's and those
of the operator stacks built from its rows.
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

    #: the point whose solve failed, as `` at x = 30.0 (grid point 0 of
    #: 1)``, once the caller that walked the points names it (``locate``);
    #: the CLI appends it to the message, which stays as raised
    where = ""

    def locate(self, x, index: int, count: int, what: str = "grid point") -> None:
        """Name the failing point x, a scalar or a (d,) row, as point
        ``index`` of the ``count`` points of its kind."""
        coords = np.ravel(x).tolist()
        text = repr(coords[0]) if len(coords) == 1 else "(" + ", ".join(map(repr, coords)) + ")"
        self.where = f" at x = {text} ({what} {index} of {count})"


class ConditioningError(MlsError):
    """Gram matrix condition estimate exceeded the admissible limit."""

    def __init__(self, condition: float, limit: float):
        self.condition = float(condition)
        self.limit = float(limit)
        super().__init__(
            f"gram condition estimate {condition:.3e} exceeds limit {limit:.3e}"
        )


class HypothesisFailure(MlsError):
    """A structural requirement of the method does not hold.  ``measured``
    names the numbers a check compared, as ``: sigma_min 0.000e+00 <=
    rank tolerance 2.225e-308``; the CLI appends it after ``where``."""

    def __init__(self, items: list[str], measured: str = ""):
        self.items = list(items)
        self.measured = f": {measured}" if measured else ""
        super().__init__("hypothesis failure: " + ", ".join(self.items))


class _WeightVanished(MlsError, ValueError):
    """A weight is 0 at a node a positive ``distance`` away: malformed
    input (exit 2), whose point the caller names like a fitting error's."""

    def __init__(self, distance: float):
        super().__init__(f"weight vanished at positive distance {distance:.3e}")


#: what a solve or a check raises for a bad row; a block that raises one
#: is replayed row by row (``_replayed``)
_ERRORS = (MlsError, ValueError)  # LinAlgError is a ValueError

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
    with np.errstate(over="ignore"):
        return _designs(points.nodes[None], basis)[0]


def _designs(nodes, basis: BasisSpec) -> np.ndarray:
    """The designs (k, m, l) of the node sets ``nodes`` (k, m, d), in one
    call; each is what ``build_design`` gives for its node set, bit for bit
    (the basis is evaluated node by node).  The first node set with a
    non-finite design raises its ``build_design`` error.  Basis values
    that overflow are silent under the caller's ``np.errstate``."""
    k, m, d = nodes.shape
    if basis.dim != d:
        raise ValueError(f"basis expects dim {basis.dim}, nodes have dim {d}")
    rows = nodes.reshape(k * m, d)
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


@dataclass(frozen=True)
class MlsSystem:
    """Assembled local system at one evaluation point.

    Fields
    ------
    x : (d,) ndarray               evaluation point
    design : (m, l) ndarray        basis values at the nodes
    dvec : (m,) ndarray            diagonal of the scaling matrix: 2 * w, or
                                   what the caller of ``build_rows`` gave
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


def _stack(systems, name: str) -> np.ndarray:
    """Field ``name`` of every system, stacked on axis 0 (a view for one)."""
    if len(systems) == 1:
        return getattr(systems[0], name)[None]
    return np.stack([getattr(s, name) for s in systems])


def _by_shape(keys, idx=None) -> list:
    """The indices ``idx`` (every index of keys by default) grouped by
    keys[i], a shape or any other key, groups in order of first
    appearance; a None key leaves its index out."""
    groups = {}
    for i in range(len(keys)) if idx is None else idx:
        if keys[i] is not None:
            groups.setdefault(keys[i], []).append(i)
    return list(groups.values())


#: the memory budget of a block, in doubles (``_block_rows``)
_BLOCK_DOUBLES = 2**16


def _block_rows(m: int, l: int | None = None) -> int:
    """Rows per block of (m, l) stacks, (m, m) by default: one (rows, m, l)
    stack of at most ``_BLOCK_DOUBLES`` doubles, 512 KiB, and one row when
    m l exceeds it or is 0.  ``build_rows`` solves blocks of a quarter of
    this; ``spectral.diagnose_each`` and ``bound1d._comp_h_values`` build
    (m, m) stacks in blocks of ``_block_rows(m)``."""
    return max(1, _BLOCK_DOUBLES // max(1, m * (m if l is None else l)))


class _Rows(NamedTuple):
    """A solved block of n rows, with the inputs of its solve.

    ``at_node`` holds, per row, the node of an interpolation-limit row or
    -1, and is None when no row is one; the QR fields cover the k rows
    that are not at a node.  ``conds`` is None when ``_certified`` proved
    the block's checks pass, so the solve took no SVD.
    """

    coeffs: np.ndarray  # (n, m)
    at_node: np.ndarray | None  # (n,)
    qmats: np.ndarray  # (k, m, l)
    rmats: np.ndarray  # (k, l, l)
    roots: np.ndarray  # (k, m) square roots of the weight diagonals
    conds: list | None  # k Gram condition estimates
    cvecs: np.ndarray  # (n, l) basis values at the points
    dists: np.ndarray  # (n, m) node distances
    dvecs: np.ndarray  # (n, m) weight diagonals
    xs: np.ndarray  # (n, d) the points
    design: np.ndarray  # (m, l) shared by every row, or (n, m, l)

    def systems(self) -> list:
        """The ``MlsSystem`` of each row, in row order, with the Gram
        condition estimates of the solve, or of an SVD taken here when the
        solve took none (it cannot raise: the gate proved every row passes)."""
        conds = self.conds
        if conds is None:
            conds = _checked_conds(self.rmats, *self.qmats.shape[1:])
        out, k = [], 0  # k: index among the rows off the nodes, with QR factors
        for i, xv in enumerate(self.xs):
            node = -1 if self.at_node is None else int(self.at_node[i])
            solve = dict(qmat=None, rmat=None, cond_gram=np.inf, at_node=node)
            if node < 0:
                solve = dict(qmat=self.qmats[k], rmat=self.rmats[k], cond_gram=conds[k])
                k += 1
            out.append(MlsSystem(
                x=xv, design=self.design if self.design.ndim == 2 else self.design[i],
                dvec=self.dvecs[i], basis_at_x=self.cvecs[i], coeffs=self.coeffs[i], **solve,
            ))
        return out


def _solve_rows(xs, nodes, basis, weight, dvecs, E) -> _Rows:
    """One block of ``build_rows``, its arguments cut to the block (a
    shared node set as ``nodes`` (1, m, d)), solved in stacked calls.  Its
    inputs are built under one ``np.errstate``: an overflow to inf is the
    zero-influence limit.  The weight diagonal is 2 * w, the form the
    operator diagnostics take; the 2 cancels from a(x).

    A row with a vanishing weight at a node is the interpolation limit;
    every other row goes through QR of the scaled design, the rank check,
    the conditioning check against ``COND_LIMIT`` and the coefficient
    solve.  The checks take an SVD of every R (``_checked_conds``) unless
    ``_certified`` proves they pass.
    A failing block raises the error of one of its failing rows.
    """
    with np.errstate(over="ignore"):
        if E is None:
            E = _at_most_m(_designs(nodes, basis))
        cvecs = _basis_rows(xs, basis)
        dists = distances_each(nodes, xs)
        if dvecs is None:
            dvecs = 2.0 * w_each(weight, dists)
    inputs = (cvecs, dists, dvecs, xs, E)
    n, m = dvecs.shape
    l = E.shape[-1]
    at_node = None
    if not dvecs.all():  # a weight vanished at some node
        zero = dvecs == 0.0
        hit_rows = np.flatnonzero(zero.any(axis=1))
        hits = np.argmax(zero[hit_rows], axis=1)
        hit_dists = dists[hit_rows, hits]
        if np.any(hit_dists > 0):
            raise _WeightVanished(hit_dists[np.argmax(hit_dists > 0)])
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
    estimates = None if _certified(rmats, m, l) else _checked_conds(rmats, m, l)

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
    raises ``HypothesisFailure``, naming its smin and tolerance, or
    ``ConditioningError``.
    """
    svals = np.linalg.svd(rmats, compute_uv=False)
    smax, smin = svals[:, 0], svals[:, -1]
    tols = rank_tolerance(m, l, smax)
    # rows up to the first rank-deficient one
    deficient = (smin <= tols).tolist()
    full = deficient.index(True) if True in deficient else len(deficient)
    # Python's float power, not np.square: the two differ in the last bit
    # on about 1 value in 1200 (2e6 random ratios)
    conds = [(a / b) ** 2 for a, b in zip(smax.tolist()[:full], smin.tolist()[:full])]
    failing = next((c for c in conds if c > COND_LIMIT), None)
    if failing is not None:
        raise ConditioningError(failing, COND_LIMIT)
    if full < len(deficient):
        raise HypothesisFailure(["design_full_rank"],
                                f"sigma_min {smin[full]:.3e} <= rank tolerance {tols[full]:.3e}")
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


def _at_most_m(E) -> np.ndarray:
    """The design (m, l), or a stack of them, refused when l > m."""
    _refuse_l_above_m(E.shape[-1], E.shape[-2])
    return E


def _refuse_l_above_m(l: int, m: int) -> None:
    """Refuse a basis size l above the node count m
    (``basis_size_le_nodes``).  The commands call it before they build a
    basis of size l, whose exponents take time and memory linear in l."""
    if l > m:
        raise HypothesisFailure(["basis_size_le_nodes"], f"l {l} > m {m}")


def _basis_rows(xs, basis) -> np.ndarray:
    """Basis values (n, l) at the rows of xs (n, d).  A non-finite point,
    or one whose basis values overflow, raises ``ValueError`` naming the
    first one; the overflow is silent under the caller's ``np.errstate``."""
    bad = _first_nonfinite(xs, xs)
    if bad is not None:
        raise ValueError(f"evaluation point {bad} is not finite")
    cvecs = basis.eval_rows(xs)
    bad = _first_nonfinite(xs, cvecs)
    if bad is not None:
        raise ValueError(f"basis values at evaluation point {bad} are not finite")
    return cvecs


def build_rows(xs, nodes, basis: BasisSpec, weight=None, *, dvecs=None, design=None):
    """Solve the local systems at the points xs (n, d), block by block: the
    one builder of local systems.

    Row i is the problem at xs[i] with the node set, weight and design of
    row i; all rows share ``basis``.  ``nodes`` is one ``PointSet`` or an
    (n, m, d) stack; ``weight`` is one weight or a sequence of n (see
    ``weights.w_each``), unless ``dvecs`` (n, m) gives the weight diagonals
    themselves; ``design``, when the caller has it, is (m, l) for a shared
    node set, whose design is otherwise built once here, or (n, m, l).  A
    shared node set and weight are broadcast: no per-row design, node
    stack or loop over rows.

    Yields ``(start, rows)`` per solved block, in row order
    (``_replayed``): ``rows`` holds the rows from ``start`` on, and
    ``rows.systems()`` gives their ``MlsSystem``.  The first failing row
    raises what ``build_system`` raises for it.  A block has at most
    ``max(1, _block_rows(m, l) // 4)`` rows, so each of its (rows, m, l)
    stacks holds at most 2^14 doubles, whatever m and l; a stacked call
    runs per matrix, so no value depends on the block size.
    """
    xs = np.asarray(xs, dtype=float)
    shared = isinstance(nodes, PointSet)
    if shared:
        if design is None:
            design = build_design(nodes, basis)
        nodes = nodes.nodes[None]
    else:
        nodes = np.asarray(nodes, dtype=float)
    size = max(1, _block_rows(nodes.shape[1], basis.size) // 4)
    if design is not None:
        design = _at_most_m(np.asarray(design, dtype=float))
    one_weight = dvecs is not None or hasattr(weight, "w")

    def solve(lo, hi):
        part = slice(lo, hi)
        return _solve_rows(
            xs[part], nodes if shared else nodes[part], basis,
            weight if one_weight else weight[part],
            None if dvecs is None else dvecs[part],
            design if design is None or design.ndim == 2 else design[part],
        )

    return _replayed(solve, len(xs), size)


def _replayed(solve, n: int, size: int):
    """``(start, solve(start, stop))`` for each block of at most ``size``
    of n rows, in row order, each solved as the caller asks for it.  A
    block that raises is replayed one row per yield, so the first failing
    row raises its own error: a stacked LAPACK error names no row at all.
    """
    for start in range(0, n, size):
        stop = min(start + size, n)
        try:
            blocks = [(start, solve(start, stop))]
        except _ERRORS:
            if stop - start == 1:
                raise
            blocks = ((i, solve(i, i + 1)) for i in range(start, stop))
        yield from blocks


def _located(blocks, point):
    """The ``(start, rows)`` blocks of ``build_rows``, or of a walk that
    yields a list of per-row results for ``rows``, passed on in row order.
    An ``MlsError`` raised while a block is made belongs to the first row
    not passed on yet, so it is located there (``MlsError.locate``):
    ``point(row)`` gives the arguments."""
    done = 0
    try:
        for start, rows in blocks:
            done = start + len(rows.coeffs if isinstance(rows, _Rows) else rows)
            yield start, rows
    except MlsError as exc:
        exc.locate(*point(done))
        raise


def build_system(x, points: PointSet, basis: BasisSpec, weight: WeightSpec) -> MlsSystem:
    """Assemble and solve the local system at evaluation point x: the
    one-row case of ``build_rows``.

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
    ((_, rows),) = build_rows(xv, points, basis, weight)
    return rows.systems()[0]


def build_systems(xs, points, basis: BasisSpec, weight=None, *, dvecs=None,
                  design=None) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors a(x) at every row of xs: ``build_rows``,
    collected.  A 1-d xs is a column of 1-d points.

    Returns the coefficient stack (n, m), equal bit for bit to
    ``build_system(x).coeffs`` row by row, and the node index of every
    interpolation-limit row (-1 elsewhere).  An ``MlsError`` of a row
    names that row as a grid point.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim == 1:
        xs = xs[:, None]
    m = points.m if isinstance(points, PointSet) else np.shape(points)[1]
    coeffs = np.empty((len(xs), m))
    at_node = np.empty(len(xs), dtype=int)
    blocks = build_rows(xs, points, basis, weight, dvecs=dvecs, design=design)
    for start, rows in _located(blocks, lambda row: (xs[row], row, len(xs))):
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

    ``rank`` is the design's numerical rank, ``m`` the node count and ``l``
    the basis size.  The basis needs no check of its own: its first
    function is x^0 = 1.
    """

    basis_size_le_nodes: bool
    design_full_rank: bool
    rank: int
    m: int
    l: int

    @property
    def failed_items(self) -> list[str]:
        return [
            name
            for name in ("basis_size_le_nodes", "design_full_rank")
            if not getattr(self, name)
        ]

    @property
    def measured(self) -> str:
        """What the failed items compared, in their order, as
        ``HypothesisFailure`` takes it: ``l 100000 > m 5, design rank 5 <
        l 100000``; empty when both hold."""
        parts = []
        if not self.basis_size_le_nodes:
            parts.append(f"l {self.l} > m {self.m}")
        if not self.design_full_rank:
            parts.append(f"design rank {self.rank} < l {self.l}")
        return ", ".join(parts)


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
        m=m,
        l=l,
    )
