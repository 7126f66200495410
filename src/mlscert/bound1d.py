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

The majorant check M2 >= sigma_max((P - I) H) needs no (m, m) work on most
grid rows.  Each row with l < m gets a proven upper bound on the computed
sigma_max of its (P - I) H from its (m, l) coefficient map alone
(``_comp_h_upper``, through ||I - P|| = ||P||, Szyld 2006), and a row whose
bound is not at most M2 + ``tol.bound`` takes the SVD of its (P - I) H
instead.  The certificate reports ``comp_h_upper``, the largest of these
per-row values, so it passes exactly when every row's SVD value would.

The node anchors ||a(x_k)|| and the grid are solved in one pass, the
anchors first, in blocks of one memory budget.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bases import BasisSpec
from .config import Tolerances
from .core import (
    HypothesisFailure,
    MlsSystem,
    _block_rows,
    _located,
    build_design,
    build_rows,
    check_hypotheses,
)
from .points import PointSet
from .spectral import OperatorBundle, _smax, coef_map_stack
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


def _sigma_margin(m: int, l: int) -> float:
    """Relative rounding margin of ``_sigma_max_upper`` for (m, l)
    matrices, l <= m.

    With u = 2^-53, forming G = A^T A in floating point moves it by at
    most m l u ||A||^2 in the 2-norm (|fl(XY) - XY| <= n u |X||Y| for an
    inner dimension n, and || |A|^T |A| || <= ||A||_F^2 <= l ||A||^2).
    Each of the two squarings to G^4 doubles the relative error it is
    given and adds its own l^2 u <= m l u, so G^4 is off by
    7 m l u ||A||^8, and its Frobenius norm, which is at least
    sigma_max^8, by sqrt(l) times that.  The 8th root divides the
    relative error by 8, so less than m l^1.5 u is left.  The sum of
    squares adds at most l^2 u / 16 after the root, the four square roots
    2 u together and the last product u, and LAPACK's SVD returns
    sigma_max within p(m) u of the exact value, taken here as
    p(m) = m l (m^2 for a square matrix).  All of it stays below
    8 m l^2 u for every m >= l >= 1.
    """
    return 1.0 + 8.0 * m * l * l * _UNIT_ROUNDOFF


def _sigma_max_upper(stack: np.ndarray) -> np.ndarray:
    """Upper bounds on the computed sigma_max of each matrix of a finite
    (k, m, l) stack, l <= m, from matrix products instead of an SVD.

    Each matrix M is scaled by the exact power of two 2^-e that brings its
    largest |entry| into [1/2, 1) (``ldexp`` per entry, so a subnormal
    maximum is scaled exactly too), and A = 2^-e M has sigma_max in
    [1/2, sqrt(m l)].  Since sigma_max(A)^16 <= tr(G^8) = ||G^4||_F^2 for
    the (l, l) Gram G = A^T A, G^4 (three products) bounds sigma_max(M)
    by 2^e ||G^4||_F^(1/8) times ``_sigma_margin(m, l)``, an overestimate
    by a factor of at most l^(1/16): 1.26 at l = 40.  The norm of G^4
    lies in [2^-8, (m l)^4], so nothing overflows, and what underflows is
    below 2^-900 of that norm.

    The bound is rounded up one ulp, so that a subnormal one, which
    ``ldexp`` rounds to nearest, stays an upper bound; it is 0 for M = 0.
    """
    k, m, l = stack.shape
    _, expo = np.frexp(np.abs(stack).reshape(k, -1).max(axis=1))
    power = np.ldexp(stack, -expo[:, None, None])
    # contiguous operands: a transposed view takes numpy's slower matmul loop
    power = power.transpose(0, 2, 1).copy() @ power
    power = power @ power
    flat = (power @ power).reshape(k, l * l)
    root = np.vecdot(flat, flat)
    for _ in range(4):
        root = np.sqrt(root)
    with np.errstate(over="ignore"):  # inf is still an upper bound
        upper = np.ldexp(root * _sigma_margin(m, l), expo)
    return np.nextafter(upper, np.inf, out=upper, where=root > 0)


#: computed norms, and the row's H bound, outside [2^-300, 2^300] leave a
#: row without a bound (``_comp_h_upper``)
_NORM_RANGE = (2.0**-300, 2.0**300)


def _in_range(value) -> np.ndarray:
    """True where a computed norm lies in ``_NORM_RANGE``; NaN never does."""
    low, high = _NORM_RANGE
    return (value >= low) & (value <= high)


def _norm_margin(m: int) -> float:
    """Factor that turns a computed Frobenius norm of at most m^2 entries,
    in ``_NORM_RANGE``, into an upper bound on the exact one, with its own
    product rounded.

    The BLAS dot product of the N entries with themselves is within
    gamma_N of the sum of their squares (each term rounds once, and the
    sums of nonnegative terms at most N - 1 times in any order), and an
    underflowing square loses at most 2^-1075; the root rounds once.  So
    ||X||_F <= n^ (1 + (N/2 + 2) u) + sqrt(N) 2^-536 for the computed
    norm n^.  With n^ >= 2^-300 and sqrt(N) <= m < 2^15 the last term is
    below u 2^-160 n^.  The factor 1 + (m^2 + 4) u rounds to at least
    1 + (m^2 + 3) u, and with the product's own rounding n^ times it is at
    least n^ (1 + (m^2 + 1) u), which covers the rest for N <= m^2.
    """
    return 1.0 + (m * m + 4.0) * _UNIT_ROUNDOFF


def _gram_factor(design: np.ndarray):
    """(L, lam, eps) for the (m, l) design E of ``_comp_h_upper``, or None
    when no bound is proven: a lower-triangular (l, l) L with
    L L^T >= E^T E, and bounds lam >= ||L||_F and eps >= ||E||_F.

    L is LAPACK's Cholesky factor of A = fl(fl(E^T E) + s I), shifted by
    s = 4 (m + l + 2) u eps^2 for eps^ the computed ||E||_F, with
    u = 2^-53 and gamma_n = n u / (1 - n u).  In the 2-norm:

    - fl(E^T E) is within gamma_m ||E||_F^2 of E^T E, and its diagonal,
      so its trace, within a relative gamma_m of that of E^T E;
    - A - fl(E^T E) is diagonal, each entry s rounded with one more
      entry, so A >= fl(E^T E) + (s (1 - u) - u (1 + gamma_m) ||E||_F^2) I;
    - the computed factor satisfies L L^T = A + dA with
      |dA| <= gamma_(l+1) |L| |L|^T (Higham, Accuracy and Stability of
      Numerical Algorithms, Thm 10.3, taken to hold for LAPACK's
      blocked factorization), so ||dA|| <= gamma_(l+1) ||L||_F^2 and
      ||L||_F^2 = tr(A + dA) <= tr(A) / (1 - gamma_(l+1)), with
      tr(A) <= (1 + u)((1 + gamma_m) ||E||_F^2 + l s).

    So L L^T - E^T E >= (s (1 - u - 1.0001 (l + 1) l u) - 1.0002
    (m + l + 2) u ||E||_F^2) I, as every n u with n <= m^2 + 16 is below
    1/12800 here (the guard below keeps m < 22,500, so m^2 + 16 < 2^29,
    for every l < m).  The computed s is at least 3.99 (m + l + 2) u
    ||E||_F^2 (three roundings, and ||E||_F^2 <= eps^2 (1 + (m l + 7) u)
    by ``_norm_margin``'s lemma), so the bracket is positive.  What
    underflows in the Gram is below l m 2^-1075, far below u ||E||_F^2
    for eps^ >= 2^-300.

    None when ``_sigma_margin(m, m)`` passes 1% (so that every n u above
    stays that small), when eps^ or the computed ||L||_F lies outside
    ``_NORM_RANGE``, or when the factorization fails.
    """
    m, l = design.shape
    if _sigma_margin(m, m) > 1.01:
        return None
    eps = float(_norms(design.reshape(1, m * l))[0])
    if not _in_range(eps):
        return None
    shift = 4.0 * (m + l + 2) * _UNIT_ROUNDOFF * eps * eps
    try:
        chol = np.linalg.cholesky(design.T @ design + shift * np.eye(l))
    except np.linalg.LinAlgError:
        return None
    lam = float(_norms(chol.reshape(1, l * l))[0])
    if not _in_range(lam):
        return None
    return chol, lam * _norm_margin(m), eps * _norm_margin(m)


def _comp_h_upper(coef_map: np.ndarray, hdiag: np.ndarray, design_t: np.ndarray,
                  factor) -> np.ndarray:
    """Upper bounds on the computed sigma_max of the (P - I) H each of k
    grid rows would build, from (k, m, l) and (k, l, l) work alone, for
    0 < l < m.

    The stack as built is C = fl(fl(fl(U V^T) - I) H): U is the row's
    coefficient map (``coef_map[i]``, as computed), V the design E
    (``design_t`` is E^T) and H = diag(h), h the row's ``hdiag``.  With
    u = 2^-53, gamma_n = n u / (1 - n u), eta = ||h||_inf and nu, eps,
    lam the bounds on ||U||_F, ||E||_F and ||L||_F (``_norm_margin``,
    ``_gram_factor``), the computed sigma_max of C is bounded in six
    steps:

    1. LAPACK's sigma^ <= (1 + m^2 u) sigma_max(C), as ``_sigma_margin``
       takes.
    2. fl(U V^T) = U V^T + D with |D| <= gamma_l |U| |V|^T, so
       ||D||_F <= gamma_l nu eps, and ||fl(U V^T) - I||_F <=
       (1 + gamma_l) nu eps + sqrt(m).  Subtracting I and scaling by h
       round each entry twice, a relative gamma_2, and gamma_2 gamma_l <=
       gamma_2.  So C is within ((gamma_l + 2 gamma_2) nu eps +
       gamma_2 sqrt(m)) eta of (U V^T - I) H in the 2-norm.
    3. ||(U V^T - I) H|| <= ||U V^T - I|| eta.
    4. Let F = V^T U - I with ||F|| <= phi < 1.  Pi = U (I + F)^-1 V^T is
       an exact projector, Pi^2 = Pi, of rank l, so Pi != 0, I for
       0 < l < m, and ||I - Pi|| = ||Pi|| (Szyld 2006, "The many proofs
       of an identity on the norm of oblique projections").  As
       U V^T - Pi = U (I + F)^-1 F V^T, ||U V^T - I|| <= ||U V^T|| +
       2 ||U|| ||V|| phi / (1 - phi) <= ||U V^T|| + 4 nu eps phi for
       phi <= 1/2.
    5. ||U V^T||^2 = ||U V^T V U^T|| <= ||U L L^T U^T|| = sigma_max(UL)^2,
       as L L^T >= V^T V (``_gram_factor``).
    6. fl(U L) = UL + D' with ||D'||_F <= gamma_l nu lam, and
       ``_sigma_max_upper`` bounds sigma_max(fl(UL)) from G^4, G the
       (l, l) Gram of fl(UL), with the margin ``_sigma_margin(m, l)``
       derived there for an (m, l) stack.

    phi: fl(E^T U) is within gamma_m eps nu of E^T U in the Frobenius
    norm, and F^ = fl(fl(E^T U) - I) rounds each entry once more, so
    ||F|| <= ||F^||_F / (1 - u) + gamma_m eps nu.  The computed phi is
    ||F^||_F (computed) times ``_norm_margin(m)``, plus 2 m u nu eps, plus
    2^-500 for what underflows (the lemma of ``_norm_margin`` without its
    lower guard: sqrt(l^2) 2^-536, and l m 2^-1075 in fl(E^T U)).

    Together, sigma^ <= (1 + m^2 u) [(s + gamma_l nu lam + 4 nu eps phi +
    (gamma_l + 2 gamma_2) nu eps + gamma_2 sqrt(m)) eta + r], with s the
    bound of step 6 and r what underflows: below 2 l m 2^-1075 (eta + 1)
    in fl(U V^T), fl(U L) and the scaling by h.  The bound is computed as

        (s + (2 l u nu lam + nu eps (2 (l + 4) u + 4 phi) + 4 m u))
          * (eta (1 + (m^2 + 16) u)),

    with each constant at least the gamma it stands for (every n u here
    is below 1/12800, so gamma_n <= 1.0001 n u, and 4 m u >= 3 sqrt(m) u
    covers gamma_2 sqrt(m)).  Every term is nonnegative and normal, so
    each of the at most nine roundings on the way loses a factor 1 - u,
    which the 16 u covers (the factor itself rounds to at least
    1 + (m^2 + 15) u); and r is below u 2^-600 of the sum, since the sum
    is at least sigma_max(UL) >= ||U V^T|| >= ||U (I + F)|| / ||U|| >=
    1 - phi >= 1/2 by steps 5 and 6, and eta >= 2^-300.

    No step needs a least m: each n above is at most m^2 + 16, which
    ``_gram_factor`` keeps below 2^29 whenever it gives a factor.

    A row gets +inf, so it takes its SVD, when ``factor`` is None,
    when the computed ||U||_F or eta lies outside ``_NORM_RANGE`` (every
    non-finite input does), or when phi is not below 1/2.  Within the
    range nothing overflows: every term stays below 2^910.
    """
    k, m, l = coef_map.shape
    upper = np.full(k, np.inf)
    if factor is None:
        return upper
    chol, lam, eps = factor
    unit = _UNIT_ROUNDOFF
    # a non-finite row may overflow or take inf - inf: it fails the range
    with np.errstate(over="ignore", invalid="ignore"):
        nu = _norms(coef_map.reshape(k, m * l))
        eta = np.max(np.abs(hdiag), axis=1)
        resid = design_t @ coef_map
        resid -= np.eye(l)
        phi = _norms(resid.reshape(k, l * l))
        ok = _in_range(nu) & _in_range(eta)
        nu = nu * _norm_margin(m)
        phi = phi * _norm_margin(m) + (2.0 * m * unit) * nu * eps + 2.0**-500
    rows = np.flatnonzero(ok & (phi < 0.5))
    if rows.size:
        nu, phi = nu[rows], phi[rows]
        rest = ((2.0 * l * unit) * nu * lam
                + nu * eps * (2.0 * (l + 4) * unit + 4.0 * phi) + 4.0 * m * unit)
        scale = eta[rows] * (1.0 + (m * m + 16.0) * unit)
        upper[rows] = (_sigma_max_upper(coef_map[rows] @ chol) + rest) * scale
    return upper


def _comp_h_values(coef_map: np.ndarray, hdiag: np.ndarray, design_t: np.ndarray,
                   factor, best: float) -> np.ndarray:
    """Per grid row, its ``_comp_h_upper`` bound on the computed
    sigma_max((P - I) H), or, where that bound is not at most ``best`` or
    is +inf (none proven), the SVD value itself, from (m, m) stacks of at
    most ``core._block_rows(m)`` rows.  So every value is at least
    the row's SVD value, and a value above ``best`` is that SVD value."""
    values = _comp_h_upper(coef_map, hdiag, design_t, factor)
    rows = np.flatnonzero(~(values <= best) | np.isinf(values))
    m = coef_map.shape[1]
    size = _block_rows(m)
    for first in range(0, rows.size, size):
        part = rows[first : first + size]
        comp = coef_map[part] @ design_t
        comp -= np.eye(m)
        comp *= hdiag[part][:, None, :]
        values[part] = _smax(comp)
    return values


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
    return np.diag(np.arange(1.0, l), -1)


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
    argument held on the same grid.  At a grid point on a node, rhs is the
    anchor norm itself, which lhs equals there bit for bit.
    ``majorants["comp_h_upper"]`` is the largest over the grid points of a
    proven upper bound on sigma_max((P - I) H): per point, the bound from
    its (m, l) coefficient map alone (``_comp_h_upper``: ||P - I|| =
    ||P|| <= sigma_max(U L) for L L^T >= E^T E, times ||H||, with every
    rounding proven), or the point's SVD value where that bound is not at
    most M2 + ``tol.bound``.  It is exactly 0 when l = m, where P = I.
    ``max_forcing`` is the max of ||A0 c'||.  Both are maxima over the
    grid points only, not the node anchors that share their solve pass,
    and neither depends on the order of the grid or on how the grid loop
    splits it into blocks.
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

    One ``build_rows`` pass solves the m nodes, for the anchor norms
    ||a(x_k)||, and then the grid.  A failing anchor raises before any
    grid row is read, and the anchor rows, which may span several blocks,
    feed nothing but the anchor norms.  Each block is solved in one
    stacked call, then a(x), its norm, the nearest node, the coefficient
    maps A0 and the forcing products A0 c' are built for the block's grid
    rows.  ``build_rows`` sizes the blocks: a block's (rows, m, l) maps
    hold at most a quarter of one (rows, m, m) stack of
    ``core._BLOCK_DOUBLES`` doubles, so with the stacks of the rows that
    take an SVD (``_comp_h_values``) the temporaries alive at once stay
    below four such stacks.

    ``comp_h_upper`` is the largest per-row value of ``_comp_h_values``
    against the threshold M2 + ``tol.bound``, so ``majorants["pass"]`` is
    the verdict every row's SVD would give, and no value depends on the
    grid order or the block size.  With l = m the design is square and
    invertible, so P = E^(-T) E^T = I exactly: ``comp_h_upper`` is 0 and
    no P - I is built.  The design and its SVD are computed once, for the
    hypotheses, the constants and the solves.
    """
    # the design and its SVD serve the hypotheses, the constants and the
    # solves; nothing before it in the checks can raise
    design = build_design(points, basis)
    svals = np.linalg.svd(design, compute_uv=False)
    failed = check_hypotheses_1d(points, basis, weight, design_svals=svals)
    if failed:
        # the numbers the structural items compared, after the item names
        measured = check_hypotheses(points, basis, design_svals=svals).measured
        raise HypothesisFailure(failed, measured)
    xs_nodes = points.nodes[:, 0]
    alpha = weight.alpha
    consts = bound_constants(points, basis, alpha, design_svals=svals)
    if grid is None:
        grid = uniform_grid(points, n_grid, weight)
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("empty evaluation grid")
    # the constants are proven on [x_1, x_m] only
    if grid.min() < xs_nodes[0] or grid.max() > xs_nodes[-1]:
        raise ValueError("grid must lie within [x_1, x_m]")

    m, m1, m2 = points.m, consts.forcing_bound, consts.growth_rate
    threshold = m2 + tol.bound
    anchor_norm = np.empty(m)
    lhs = np.empty(grid.size)
    k0s = np.empty(grid.size, dtype=int)
    forcing = np.empty(grid.size)
    comp_h = np.zeros(grid.size)  # l = m: P = E^(-T) E^T = I exactly
    # C-ordered: numpy's stacked matmul against the transposed view of E
    # takes a slower loop, with the same bits
    design_t = np.ascontiguousarray(design.T)
    factor = _gram_factor(design)
    # one solve pass: the m node anchors ||a(x_k)|| lead, the grid follows,
    # so a failing anchor raises before any grid row is read.  exp weights
    # never vanish, so no row is an interpolation limit and every row
    # carries its QR factors
    rows_x = np.concatenate([xs_nodes, grid])[:, None]
    blocks = build_rows(rows_x, points, basis, weight, design=design)

    def point(row):
        """A failing row: a node anchor, or a point of the grid."""
        if row < m:
            return xs_nodes[row], row, m, "node"
        return grid[row - m], row - m, grid.size

    for start, rows in _located(blocks, point):
        # the block's anchor rows, then its grid rows from ``cut`` on
        n_rows = len(rows.coeffs)
        cut = min(max(m - start, 0), n_rows)
        if cut:
            anchor_norm[start : start + cut] = _norms(rows.coeffs[:cut])
        if cut == n_rows:
            continue
        block = slice(start + cut - m, start + n_rows - m)
        # the nearest node anchors the envelope; a tie goes to the smaller index
        k0s[block] = np.argmin(rows.dists[cut:], axis=1)
        lhs[block] = _norms(rows.coeffs[cut:])
        coef_map = coef_map_stack(rows.qmats[cut:], rows.rmats[cut:], rows.roots[cut:])
        if basis.size < m:
            comp_h[block] = _comp_h_values(coef_map, dlogw_diag(grid[block], points, alpha),
                                           design_t, factor, threshold)
        # a stacked matmul runs one BLAS matrix-vector product per row,
        # as coef_map[i] @ c'(x_i) does (an einsum sums in another order)
        dcs = basis.derivative_rows(grid[block])
        forcing[block] = _norms((coef_map @ dcs[:, :, None])[:, :, 0])
    # np.max keeps a NaN sample (Python's max would skip it)
    comp_h_upper = float(np.max(comp_h))
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
    # at a node the envelope is b = ||a(x_k)|| itself, which exp(log b)
    # can miss by one ulp either way; an inf b stays clipped
    exact = positive & (dist == 0.0) & np.isfinite(base)
    rhs[exact] = base[exact]
    slack = rhs - lhs
    majorants = {
        "comp_h_upper": comp_h_upper,
        "growth_rate": m2,
        "comp_h_margin": m2 - comp_h_upper,
        "max_forcing": max_forcing,
        "forcing_bound": m1,
        "forcing_margin": m1 - max_forcing,
        "pass": bool(comp_h_upper <= threshold and max_forcing <= m1 + tol.bound),
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
