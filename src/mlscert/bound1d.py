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
computes the constants in both conventions, and checks the envelope (plus
the pointwise majorants it rests on) over a grid.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bases import BasisSpec
from .config import Tolerances
from .core import (
    COND_LIMIT,
    HypothesisFailure,
    MlsSystem,
    build_design,
    build_systems,
    check_hypotheses,
    solve_blocks,
)
from .points import PointSet
from .spectral import OperatorBundle, operator_stack
from .weights import WeightSpec

__all__ = [
    "BoundConstants",
    "BoundCertificate",
    "dlogw_diag",
    "ode_rhs",
    "monomial_diff_matrix",
    "check_hypotheses_1d",
    "bound_constants",
    "nearest_node",
    "uniform_grid",
    "certify_bound",
]

#: doubles per (rows, m, m) operator stack in ``certify_bound``: blocks
#: are sized by bytes, not rows, so their memory does not grow with m
_BLOCK_DOUBLES = 2**15

#: log of the largest finite double; envelopes are clipped here
_MAX_LOG = math.log(np.finfo(float).max)

#: unit roundoff of doubles
_UNIT_ROUNDOFF = 2.0**-53

#: rows per stacked SVD when ``max_comp_h`` checks its candidate rows
_SVD_CHUNK = 8


def _block_rows(m: int) -> int:
    """Grid rows per block of the certificate for m nodes."""
    return max(1, _BLOCK_DOUBLES // (m * m))


def _sigma_margin(m: int) -> float:
    """Relative rounding margin of ``_sigma_max_upper`` for (m, m) matrices.

    With u = 2^-53, forming G = A^T A and squaring it twice in floating
    point moves G^4 by at most about 7 m^2 u ||A||^8 in the 2-norm
    (|fl(XY) - XY| <= m u |X||Y| per product, and || |X| || <= sqrt(m) ||X||),
    hence its Frobenius norm by 7 m^2.5 u ||A||^8: an eighth of that after
    the root.  The sum of squares and the four square roots add about
    m^2 u / 8 + 4 u, and LAPACK's SVD returns sigma_max within p(m) u of
    the exact value, taken here as p(m) = m^2.  All of it stays below
    8 m^3 u for every m >= 1.
    """
    return 1.0 + 8.0 * m**3 * _UNIT_ROUNDOFF


def _sigma_max_upper(stack: np.ndarray) -> np.ndarray:
    """Upper bounds on the computed sigma_max of each matrix of a finite
    (k, m, m) stack, from three matrix products instead of an SVD.

    Each matrix M is scaled by the exact power of two 2^-e that brings its
    largest |entry| into [1/2, 1), so A = 2^-e M has sigma_max in [1/2, m]
    and nothing below overflows or underflows to any effect (a subnormal
    maximum is scaled by 2^1022 at most and lands in [2^-53, 1/2)).  Since
    sigma_max(A)^16 <= tr(G^8) = ||G^4||_F^2 for G = A^T A, the bound is
    2^e ||G^4||_F^(1/8), times ``_sigma_margin(m)``; it is 0 for M = 0.
    """
    k, m, _ = stack.shape
    _, expo = np.frexp(np.abs(stack).reshape(k, -1).max(axis=1))
    expo = np.maximum(expo, -1022)
    scaled = stack * np.ldexp(1.0, -expo)[:, None, None]
    # contiguous operands: a transposed view takes numpy's slower matmul loop
    gram = scaled.transpose(0, 2, 1).copy() @ scaled
    gram = gram @ gram
    gram = gram @ gram
    root = np.sqrt(np.sqrt(np.sqrt(np.sqrt(np.einsum("kij,kij->k", gram, gram)))))
    with np.errstate(over="ignore"):  # inf is still an upper bound
        return np.ldexp(root, expo) * _sigma_margin(m)


def _max_sigma(stack: np.ndarray, best: float) -> float:
    """max(best, sigma_max of every matrix of the (k, m, m) stack).

    The result is exact: an SVD of an actual matrix, the same stacked
    ``np.linalg.norm(., 2)`` as over the whole stack.  Only matrices whose
    upper bound exceeds the running maximum are decomposed, in decreasing
    order of that bound, a few at a time; the others cannot raise it.  A
    stack with a non-finite entry, or an m whose margin would pass 1%,
    takes the norm of every matrix as before, so it fails the same way
    (numpy raises ``LinAlgError``) or yields NaN, which ``np.max`` keeps.
    """
    if _sigma_margin(stack.shape[-1]) > 1.01 or not np.all(np.isfinite(stack)):
        return float(np.max(np.linalg.norm(stack, 2, axis=(1, 2)), initial=best))
    upper = _sigma_max_upper(stack)
    order = np.argsort(upper)[::-1]
    for start in range(0, order.size, _SVD_CHUNK):
        rows = order[start : start + _SVD_CHUNK]
        # a NaN best stops here too: nothing can change it
        if not upper[rows[0]] > best:
            break
        best = max(best, float(np.max(np.linalg.norm(stack[rows], 2, axis=(1, 2)))))
    return best


def _norm(vec: np.ndarray) -> float:
    """Euclidean norm of a real vector: ``np.linalg.norm(vec)`` bit for bit
    (numpy computes it as sqrt(vec.dot(vec))), minus its call overhead."""
    return math.sqrt(vec.dot(vec))


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
    points: PointSet, basis: BasisSpec, weight: WeightSpec
) -> list[str]:
    """Structural requirements of the growth bound; returns failed items."""
    failed = []
    if points.dim != 1:
        failed.append("dimension_one")
    else:
        if not points.is_increasing():
            failed.append("nodes_increasing")
    base = check_hypotheses(points, basis, weight)
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
    ``slope_sup``      sup of ||c'|| on [x_1, x_m], exact: the larger of
                       its two endpoint values
    ``slope_bound``    M12: equal to slope_sup
    ``forcing_bound``  M1 = M11 * M12: bound on ||A0 c'||
    """

    span: float
    alpha: float
    sigma_min_design_t: float
    growth_rate: float
    coef_norm_bound: float
    slope_sup: float
    slope_bound: float
    forcing_bound: float
    convention: str
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "span": self.span,
            "alpha": self.alpha,
            "sigma_min_design_t": self.sigma_min_design_t,
            "growth_rate": self.growth_rate,
            "coef_norm_bound": self.coef_norm_bound,
            "slope_sup": self.slope_sup,
            "slope_bound": self.slope_bound,
            "forcing_bound": self.forcing_bound,
            "convention": self.convention,
            "metadata": self.metadata,
        }


def bound_constants(
    points: PointSet,
    basis: BasisSpec,
    alpha: float,
    convention: str = "standard",
) -> BoundConstants:
    """Compute the envelope constants on [x_1, x_m].

    convention="standard" uses the spectral-norm chain
    ||P|| <= smax(D)/smin(D) <= exp(alpha r^2), giving
    M2 = 2 alpha r (1 + exp(alpha r^2)) and M11 = exp(alpha r^2)/smin(E^T);
    convention="paper" uses the square-root variants of the same two bounds.
    The forcing bound multiplies M11 by the sup of ||c'||.  For the basis
    1, x, ..., x^(l-1), ||c'(x)||^2 = sum_k k^2 x^(2(k-1)) does not decrease
    in |x|, so the sup is exact: the larger of the two endpoint values.  The
    metadata carries both conventions' constants and the
    differentiation-matrix fields of that basis.
    """
    if convention not in ("standard", "paper"):
        raise ValueError("convention must be 'standard' or 'paper'")
    xs = _require_1d(points)
    if points.m < 2:
        raise ValueError("need at least two nodes for a nondegenerate span")
    if not points.is_increasing():
        raise HypothesisFailure(["nodes_increasing"])
    if basis.dim != 1:
        raise HypothesisFailure(["basis_derivative_available"])
    r = float(xs[-1] - xs[0])
    design = build_design(points, basis)
    smin_design = float(np.linalg.svd(design, compute_uv=False)[-1])

    # any grid's maximum, bit for bit: rounding keeps the norm monotone in |x|
    slope_sup = max(_norm(dc) for dc in basis.derivative_rows(xs[[0, -1]]))

    try:
        growth = math.exp(alpha * r * r)
    except OverflowError:
        raise ValueError(
            f"alpha r^2 = {alpha * r * r!r} exceeds {_MAX_LOG!r}, the log of the "
            "largest double: the growth factor exp(alpha r^2) overflows"
        ) from None
    if convention == "standard":
        m2 = 2.0 * alpha * r * (1.0 + growth)
        m11 = growth / smin_design
    else:
        m2 = 2.0 * alpha * r * (1.0 + math.sqrt(growth))
        m11 = math.sqrt(growth) / smin_design

    l = basis.size
    dbar_smax = float(np.linalg.svd(monomial_diff_matrix(l), compute_uv=False)[0])
    maxp = float(np.max(np.abs(basis.eval_at(xs[-1]))))
    meta = {
        "m2_paper": 2.0 * alpha * r * (1.0 + math.sqrt(growth)),
        "m11_paper": math.sqrt(growth) / smin_design,
        "m2_standard": 2.0 * alpha * r * (1.0 + growth),
        "m11_standard": growth / smin_design,
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
        slope_bound=float(slope_sup),
        forcing_bound=float(m11 * slope_sup),
        convention=convention,
        metadata=meta,
    )


def nearest_node(x: float, points: PointSet) -> int:
    """Index of the node closest to x; ties go to the smaller index."""
    return int(np.argmin(points.distances(np.atleast_1d(float(x)))))


def uniform_grid(points: PointSet, n: int, weight: WeightSpec | None = None) -> np.ndarray:
    """Uniform 1-D evaluation grid spanning the nodes.

    For interpolating weight families, grid points landing on a node (within
    1e-12) are nudged by +1e-9 * span so the scaled operators stay defined.
    """
    xs = _require_1d(points)
    grid = np.linspace(xs.min(), xs.max(), n)
    if weight is not None and weight.interpolating:
        r = float(xs.max() - xs.min()) or 1.0
        for i, g in enumerate(grid):
            if np.min(np.abs(xs - g)) < 1e-12:
                grid[i] = g + 1e-9 * r
    return grid


@dataclass(frozen=True)
class BoundCertificate:
    """Grid evaluation of the growth envelope.

    ``passed`` means every grid point satisfies lhs <= rhs within the
    absolute slack tolerance AND the pointwise majorants behind the Gronwall
    argument held on the same grid.  ``majorants["max_comp_h"]`` is the
    exact max over the grid of sigma_max((P - I) H), the SVD of an actual
    grid point, and ``max_forcing`` the max of ||A0 c'||.
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
        pts = [
            [float(x), float(l), float(r), int(k), float(s)]
            for x, l, r, k, s in zip(self.xs, self.lhs, self.rhs, self.k0, self.slack)
        ]
        return {
            "constants": self.constants.to_dict(),
            "points": pts,
            "min_slack": float(np.min(self.slack)),
            "majorants": self.majorants,
            "pass": self.passed,
            "tolerances": self.tolerances.to_dict(),
            "metadata": self.metadata,
        }

    def rows_csv(self) -> list[tuple]:
        """Plot-ready rows (x, lhs, rhs, slack)."""
        return [
            (float(x), float(l), float(r), float(s))
            for x, l, r, s in zip(self.xs, self.lhs, self.rhs, self.slack)
        ]


def certify_bound(
    points: PointSet,
    basis: BasisSpec,
    weight: WeightSpec,
    grid=None,
    n_grid: int = 200,
    convention: str = "standard",
    tol: Tolerances = Tolerances(),
    cond_limit: float = COND_LIMIT,
) -> BoundCertificate:
    """Evaluate the growth envelope over a grid and check its majorants.

    Raises ``HypothesisFailure`` listing the failed structural items when the
    instance is outside the certified setting (needs d = 1, increasing nodes,
    the exponential weight family, and a 1-D basis).

    ``max_comp_h`` is exact, from candidate rows: per block, a cheap upper
    bound on sigma_max((P - I) H) from G = M^T M squared twice picks the
    rows that could hold the maximum, and only those get an SVD.  c' is
    evaluated once per block.
    """
    failed = check_hypotheses_1d(points, basis, weight)
    if failed:
        raise HypothesisFailure(failed)
    xs_nodes = points.nodes[:, 0]
    alpha = weight.alpha
    consts = bound_constants(points, basis, alpha, convention)
    if grid is None:
        grid = uniform_grid(points, n_grid, weight)
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("empty evaluation grid")
    if grid.min() < xs_nodes[0] - 1e-12 or grid.max() > xs_nodes[-1] + 1e-12:
        raise ValueError("grid must lie within [x_1, x_m]")

    design = build_design(points, basis)
    # anchor norms ||a(x_k)|| at every node (exp weights: nodes are regular
    # points of the solve); one norm per row keeps the one-vector rounding
    anchor_coeffs, _ = build_systems(
        xs_nodes, points, basis, weight, cond_limit=cond_limit, design=design
    )
    anchor_norm = [_norm(a) for a in anchor_coeffs]
    nodes = xs_nodes.tolist()

    m1 = consts.forcing_bound
    m2 = consts.growth_rate
    lhs = np.empty(grid.size)
    rhs = np.empty(grid.size)
    k0s = np.empty(grid.size, dtype=int)
    forcing = np.empty(grid.size)
    max_comp_h = -math.inf
    # exp weights never vanish, so no row is an interpolation limit and
    # every row carries its QR factors
    for start, rows, dists in solve_blocks(
        grid[:, None], points, basis, weight, design, cond_limit, _block_rows(points.m)
    ):
        block = slice(start, start + len(rows.coeffs))
        coef_map, comp = operator_stack(rows.qmats, rows.rmats, rows.roots, design)
        # P - I, then (P - I) H, in place: a block holds one (rows, m, m) stack
        comp -= np.eye(points.m)
        comp *= dlogw_diag(grid[block], points, alpha)[:, None, :]
        max_comp_h = _max_sigma(comp, max_comp_h)
        k0s[block] = np.argmin(dists, axis=1)
        dcs = basis.derivative_rows(grid[block])
        # per row: a stacked norm or product can differ in the last bit
        for i, (x, k0) in enumerate(zip(grid[block].tolist(), k0s[block].tolist())):
            j = start + i
            dist = abs(x - nodes[k0])
            lhs[j] = _norm(rows.coeffs[i])
            # evaluate the envelope in log space and clip at the largest
            # finite double: clipping only ever lowers the right-hand side,
            # so a pass stays a valid certificate
            base = anchor_norm[k0] + m1 * dist
            if base > 0.0:
                log_env = math.log(base) + m2 * dist
                rhs[j] = math.exp(min(log_env, _MAX_LOG))
            else:
                rhs[j] = 0.0
            forcing[j] = _norm(coef_map[i] @ dcs[i])
    # np.max keeps a NaN sample (Python's max would skip it)
    max_forcing = float(np.max(forcing))

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
        metadata={"convention": convention, "n_grid": int(grid.size)},
    )
