"""Approximation-error accounting: amplification, sup errors, convergence.

The pointwise error of the fit is controlled by a product of two factors:
the best-approximation error of the local polynomial space on the domain and
the coefficient amplification 1 + sum |a_i|.  This module computes both, runs
grid-refinement studies that report the observed convergence order, and
carries a discrete-minimax oracle (exchange iteration on a dense grid) that
furnishes the best-approximation factor without linear programming.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .bases import monomial_basis
from .core import _refuse_l_above_m, build_systems, fitted_values
from .points import PointSet
from .weights import WeightSpec

__all__ = [
    "amplification",
    "MinimaxFit",
    "minimax_fit",
    "ConvergenceStudy",
    "convergence_study",
    "convergence_studies",
    "TEST_FUNCTIONS",
]


def amplification(coeffs):
    """Amplification factor 1 + sum |a_i| of a coefficient vector (a float),
    or of every row of a stack of them (an array)."""
    amp = 1.0 + np.sum(np.abs(np.asarray(coeffs, dtype=float)), axis=-1)
    return float(amp) if np.ndim(amp) == 0 else amp


# ---------------------------------------------------------------------------
# discrete minimax (best uniform polynomial on a finite grid)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimaxFit:
    """Best-uniform polynomial fit on a discrete grid.

    ``level``     equioscillation level |E| of the exchange iteration
                  (lower bound for the discrete minimax error)
    ``grid_sup``  sup of |f - p| over the grid for the returned polynomial
                  (upper bound; equals ``level`` at convergence)
    """

    degree: int
    coeffs: np.ndarray
    lo: float
    hi: float
    level: float
    grid_sup: float
    converged: bool
    iterations: int

    def __call__(self, x):
        t = (2.0 * np.asarray(x, dtype=float) - (self.lo + self.hi)) / (
            self.hi - self.lo
        )
        return _cheb.chebval(t, self.coeffs)


#: exchange steps ``minimax_fit`` takes at most, and the relative slack at
#: which the largest error matches the equioscillation level
MINIMAX_MAX_ITER = 100
MINIMAX_TOL = 1e-9


def minimax_fit(xs, fs, degree: int) -> MinimaxFit:
    """Exchange iteration for the best uniform polynomial on grid (xs, fs).

    Classic single-point exchange: solve the equioscillation system on a
    reference of degree+2 points, move the reference toward the point of
    largest error while keeping the signs alternating, and stop when the
    largest error matches the equioscillation level.  For a discrete grid
    this terminates in finitely many steps; the iteration cap is a safety
    net only.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    fs = np.asarray(fs, dtype=float).ravel()
    if xs.size != fs.size:
        raise ValueError("xs and fs must have equal length")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    order = np.argsort(xs)
    xs, fs = xs[order], fs[order]
    n_ref = degree + 2
    if xs.size < n_ref:
        raise ValueError(f"need at least {n_ref} grid points for degree {degree}")
    lo, hi = float(xs[0]), float(xs[-1])
    if hi <= lo:
        raise ValueError("grid must span an interval")
    t = (2.0 * xs - (lo + hi)) / (hi - lo)
    vander = _cheb.chebvander(t, degree)

    # Chebyshev-distributed starting reference
    ref = np.unique(
        np.round((xs.size - 1) * 0.5 * (1.0 - np.cos(np.linspace(0, np.pi, n_ref))))
    ).astype(int)
    while ref.size < n_ref:  # degenerate rounding on tiny grids
        pool = np.setdiff1d(np.arange(xs.size), ref)
        ref = np.sort(np.append(ref, pool[0]))

    coeffs = np.zeros(degree + 1)
    level = 0.0
    converged = False
    it = 0
    for it in range(1, MINIMAX_MAX_ITER + 1):
        signs = np.array([(-1.0) ** j for j in range(n_ref)])
        system = np.hstack([vander[ref], signs[:, None]])
        sol = np.linalg.solve(system, fs[ref])
        coeffs, level = sol[:-1], float(sol[-1])
        resid = fs - vander @ coeffs
        j_star = int(np.argmax(np.abs(resid)))
        worst = float(abs(resid[j_star]))
        if worst <= abs(level) * (1.0 + MINIMAX_TOL) + 1e-15:
            converged = True
            break
        # insert j_star into the reference, preserving sign alternation
        s_new = math.copysign(1.0, resid[j_star])
        ref_signs = np.sign(resid[ref])
        if j_star < ref[0]:
            if s_new == ref_signs[0]:
                ref[0] = j_star
            else:
                ref = np.concatenate([[j_star], ref[:-1]])
        elif j_star > ref[-1]:
            if s_new == ref_signs[-1]:
                ref[-1] = j_star
            else:
                ref = np.concatenate([ref[1:], [j_star]])
        else:
            k = int(np.searchsorted(ref, j_star))
            if ref[k] == j_star:
                pass  # already a reference point; solved level lags, loop on
            elif s_new == ref_signs[k - 1]:
                ref[k - 1] = j_star
            else:
                ref[k] = j_star
        ref = np.sort(ref)

    resid = fs - vander @ coeffs
    return MinimaxFit(
        degree=degree,
        coeffs=coeffs,
        lo=lo,
        hi=hi,
        level=abs(level),
        grid_sup=float(np.max(np.abs(resid))),
        converged=converged,
        iterations=it,
    )


# ---------------------------------------------------------------------------
# convergence study under uniform refinement
# ---------------------------------------------------------------------------

TEST_FUNCTIONS = {
    "sin": np.sin,
    "exp": np.exp,
    "runge": lambda x: 1.0 / (1.0 + 25.0 * np.asarray(x) ** 2),
}

#: sup errors below this multiple of machine epsilon count as saturated
SATURATION_FACTOR = 1e2
#: size of the evaluation grid every level of a study shares
EVAL_N = 301

#: the most doubles one array can hold: the node count of a level is capped here
_MAX_NODES = np.iinfo(np.intp).max // np.dtype(float).itemsize


def _slope(hs, errs, log=np.log) -> float:
    """Least-squares slope of log(errs) against log(hs); NaN below two
    points."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if hs.size < 2:
        return float("nan")
    lg_h = log(hs)
    lg_e = log(errs)
    a = np.vstack([lg_h, np.ones_like(lg_h)]).T
    sol, *_ = np.linalg.lstsq(a, lg_e, rcond=None)
    return float(sol[0])


@dataclass(frozen=True)
class ConvergenceStudy:
    """Result of a uniform-refinement study.

    ``observed_order`` is the least-squares slope of log(sup error) against
    log(h) over the unsaturated levels: positive and close to the method's
    order when the study is in the asymptotic regime.
    """

    hs: list[float]
    sup_errors: list[float]
    amplifications: list[float]
    saturated: list[bool]
    observed_order: float
    order_per_level: list[float]
    exact_reproduction: bool
    product_bound: dict
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def rows_csv(self) -> list[tuple]:
        columns = (self.hs, self.sup_errors, self.amplifications, self.order_per_level)
        return list(zip(range(len(self.hs)), *columns))


def _level_size(lo: float, hi: float, h: float) -> int:
    """Nodes of the uniform level of step h on [lo, hi].  A count that is
    not finite, or that no array can hold, is a ``ValueError`` naming the
    domain and h."""
    steps = (hi - lo) / h if h else math.inf
    if not steps < _MAX_NODES:
        raise ValueError(
            f"domain [{lo!r}, {hi!r}] at h = {h!r} needs {steps + 1:.6g} nodes, "
            f"more than an array holds ({_MAX_NODES})"
        )
    return int(round(steps)) + 1


def _level_alpha(alpha0: float, h: float, policy: str) -> float:
    """The weight shape of the level of step h: alpha0 / h^2 under the
    "scaled" policy, alpha0 under "fixed".  One that is not a positive
    finite double (h^2 underflows to 0, or the quotient overflows) is a
    ``ValueError`` naming h and alpha0."""
    alpha, form = alpha0, "alpha0"
    if policy == "scaled":
        hh, form = h * h, "alpha0 / h^2"
        alpha = alpha0 / hh if hh else math.inf
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"weight shape {alpha!r} of the level h = {h!r} ({form}, "
                         f"alpha0 = {alpha0!r}) must be positive and finite")
    return alpha


def _on_grid(f_true, grid: np.ndarray) -> np.ndarray:
    vals = np.asarray(f_true(grid), dtype=float)
    if vals.shape != grid.shape:
        raise ValueError(
            f"f_true must act elementwise: got shape {vals.shape} for {grid.shape} points"
        )
    return vals


def convergence_study(
    f_true,
    l: int,
    domain: tuple = (0.0, 3.0),
    h0: float = 0.2,
    n_levels: int = 3,
    alpha0: float = 1.0,
    policy: str = "scaled",
    family: str = "exp",
) -> ConvergenceStudy:
    """Refine uniform nodes by halving h and track the sup error.

    Parameters
    ----------
    f_true : callable
        Function on the domain, applied elementwise: it is called once per
        grid, with the whole array of points.
    l : int
        Basis size (monomials 1, x, ..., x^{l-1}).
    policy : str
        "scaled" re-shapes the weight per level (alpha = alpha0 / h^2), which
        keeps the weight profile scale-invariant under refinement; "fixed"
        keeps alpha = alpha0 at every level.

    The product bound of the error (best-approximation level times
    amplification) is evaluated with the discrete-minimax oracle on a grid
    10x denser than the evaluation grid and reported alongside: ratios above
    1 can only stem from the oracle's grid resolution, and are reported
    rather than asserted.

    The one-function case of ``convergence_studies``.
    """
    return convergence_studies(
        [f_true], l, domain, h0, n_levels, alpha0, policy, family
    )[0]


class _Track:
    """What a study of one function collects over the levels."""

    def __init__(self, f_true, eval_grid, dense, l: int):
        self.f_true = f_true
        self.fvals_eval = _on_grid(f_true, eval_grid)
        fscale = max(1.0, float(np.max(np.abs(self.fvals_eval))))
        self.sat_floor = SATURATION_FACTOR * np.finfo(float).eps * fscale
        # minimax oracle on the 10x denser grid (shared by all levels)
        self.best = minimax_fit(dense, _on_grid(f_true, dense), degree=l - 1)
        self.errs, self.sats = [], []
        self.max_ratio = 0.0
        self.near_violations = 0

    def add_level(self, fitted, amp) -> None:
        err = np.abs(self.fvals_eval - fitted)
        worst = float(np.max(err))
        best_level = self.best.grid_sup
        if best_level > self.sat_floor:
            ratios = err / (best_level * amp)
            self.max_ratio = max(self.max_ratio, float(np.max(ratios)))
            self.near_violations += int(np.count_nonzero(ratios > 1.0))
        self.errs.append(worst)
        self.sats.append(bool(worst <= self.sat_floor))

    def study(self, hs, amps, meta) -> ConvergenceStudy:
        errs, sats = self.errs, self.sats
        usable = [k for k in range(len(hs)) if not sats[k]]
        observed = _slope([hs[k] for k in usable], [errs[k] for k in usable])
        per_level = []
        for k in range(len(hs)):
            use = [j for j in usable if j <= k]
            per_level.append(_slope([hs[j] for j in use], [errs[j] for j in use]))
        best_level = self.best.grid_sup
        return ConvergenceStudy(
            hs=list(hs),
            sup_errors=errs,
            amplifications=list(amps),
            saturated=sats,
            observed_order=observed,
            order_per_level=per_level,
            exact_reproduction=len(usable) == 0,
            product_bound={
                "best_level": best_level,
                "oracle_converged": self.best.converged,
                "max_ratio": self.max_ratio,
                "near_violations": self.near_violations,
                "skipped_exact": bool(best_level <= self.sat_floor),
            },
            meta=meta,
        )


def convergence_studies(
    fs,
    l: int,
    domain: tuple = (0.0, 3.0),
    h0: float = 0.2,
    n_levels: int = 3,
    alpha0: float = 1.0,
    policy: str = "scaled",
    family: str = "exp",
) -> list:
    """``convergence_study`` of each function of ``fs`` on the same grids,
    one study per function, in order.

    The coefficients a(x) depend on the nodes, the basis and the weight,
    never on the sampled values, so each level is solved once for every
    function.  Each function is evaluated on each grid as in its own study
    -- the evaluation grid, the dense oracle grid, then the nodes of each
    level -- and gets its own fitted values, minimax oracle and product
    bound.  A level that memory cannot hold raises ``ValueError`` naming
    the domain, h and its node count.
    """
    if n_levels < 3:
        raise ValueError("need at least three refinement levels")
    if policy not in ("scaled", "fixed"):
        raise ValueError("policy must be 'scaled' or 'fixed'")
    lo, hi = float(domain[0]), float(domain[1])
    if hi <= lo:
        raise ValueError("domain must be a nondegenerate interval")
    # h0 / 2^level by ldexp, which cannot overflow (2.0**level does from
    # level 1024 on) and gives the same bits before.  The finest level
    # holds the most nodes, so it is checked before any list of levels is
    # built; when it fails, the first level that fails is the one named,
    # and that one lies within the first few thousand levels, since
    # h0 / 2^level is 0 from there on
    try:
        _level_size(lo, hi, math.ldexp(h0, 1 - n_levels))
    except ValueError:
        for level in range(n_levels):
            _level_size(lo, hi, math.ldexp(h0, -level))
        raise
    hs = [math.ldexp(h0, -level) for level in range(n_levels)]
    sizes = [_level_size(lo, hi, h) for h in hs]
    alphas = [_level_alpha(alpha0, h, policy) for h in hs]
    _refuse_l_above_m(l, sizes[0])
    basis = monomial_basis(l)
    eval_grid = np.linspace(lo, hi, EVAL_N)
    dense = np.linspace(lo, hi, 10 * (EVAL_N - 1) + 1)
    tracks = [_Track(f, eval_grid, dense, l) for f in fs]

    amps = []
    for h, m, alpha in zip(hs, sizes, alphas):
        try:
            nodes = np.linspace(lo, hi, m)
            samples = [PointSet(nodes, values=_on_grid(t.f_true, nodes)) for t in tracks]
            coeffs, at_node = build_systems(
                eval_grid, PointSet(nodes), basis, WeightSpec(family, alpha)
            )
        except MemoryError:
            raise ValueError(
                f"domain [{lo!r}, {hi!r}] at h = {h!r} needs {m} nodes, "
                "more than memory holds"
            ) from None
        amp = amplification(coeffs)  # 2 on a node row, whose a(x) is a unit vector
        for track, pts in zip(tracks, samples):
            track.add_level(fitted_values(coeffs, at_node, pts.values), amp)
        amps.append(float(np.max(amp)))

    meta = {
        "l": l,
        "domain": [lo, hi],
        "h0": h0,
        "alpha0": alpha0,
        "policy": policy,
        "family": family,
        "eval_n": EVAL_N,
    }
    return [track.study(hs, amps, dict(meta)) for track in tracks]
