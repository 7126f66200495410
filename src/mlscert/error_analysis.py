"""Approximation-error accounting: amplification, sup errors, convergence.

The pointwise error of the fit is controlled by a product of two factors:
the best-approximation error of the local polynomial space on the domain and
the coefficient amplification 1 + sum |a_i|.  This module computes both, runs
grid-refinement studies that report the observed convergence order, and
carries a discrete-minimax oracle (exchange iteration on a dense grid) that
furnishes the best-approximation factor without linear programming.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .bases import monomial_basis
from .config import Tolerances
from .core import build_systems, fitted_values
from .points import PointSet
from .weights import WeightSpec

__all__ = [
    "amplification",
    "MinimaxFit",
    "minimax_fit",
    "ConvergenceStudy",
    "convergence_study",
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


def minimax_fit(xs, fs, degree: int, max_iter: int = 100, tol: float = 1e-9) -> MinimaxFit:
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
    for it in range(1, max_iter + 1):
        signs = np.array([(-1.0) ** j for j in range(n_ref)])
        system = np.hstack([vander[ref], signs[:, None]])
        sol = np.linalg.solve(system, fs[ref])
        coeffs, level = sol[:-1], float(sol[-1])
        resid = fs - vander @ coeffs
        j_star = int(np.argmax(np.abs(resid)))
        worst = float(abs(resid[j_star]))
        if worst <= abs(level) * (1.0 + tol) + 1e-15:
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


def _slope(hs, errs) -> float:
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if hs.size < 2:
        return float("nan")
    lg_h = np.log(hs)
    lg_e = np.log(errs)
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
        return {
            "hs": self.hs,
            "sup_errors": self.sup_errors,
            "amplifications": self.amplifications,
            "saturated": self.saturated,
            "observed_order": self.observed_order,
            "order_per_level": self.order_per_level,
            "exact_reproduction": self.exact_reproduction,
            "product_bound": self.product_bound,
            "meta": self.meta,
        }

    def rows_csv(self) -> list[tuple]:
        rows = []
        for k in range(len(self.hs)):
            rows.append(
                (
                    k,
                    self.hs[k],
                    self.sup_errors[k],
                    self.amplifications[k],
                    self.order_per_level[k],
                )
            )
        return rows


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
    eval_n: int = 301,
    tol: Tolerances = Tolerances(),
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
    eval_n : int
        Size of the fixed evaluation grid shared by all levels.

    The product bound of the error (best-approximation level times
    amplification) is evaluated with the discrete-minimax oracle on a grid
    10x denser than the evaluation grid and reported alongside: ratios above
    1 can only stem from the oracle's grid resolution, and are reported
    rather than asserted.
    """
    if n_levels < 3:
        raise ValueError("need at least three refinement levels")
    if policy not in ("scaled", "fixed"):
        raise ValueError("policy must be 'scaled' or 'fixed'")
    lo, hi = float(domain[0]), float(domain[1])
    if hi <= lo:
        raise ValueError("domain must be a nondegenerate interval")
    basis = monomial_basis(l)
    eval_grid = np.linspace(lo, hi, eval_n)
    fvals_eval = _on_grid(f_true, eval_grid)
    fscale = max(1.0, float(np.max(np.abs(fvals_eval))))
    sat_floor = SATURATION_FACTOR * np.finfo(float).eps * fscale

    # minimax oracle on the 10x denser grid (shared by all levels)
    dense = np.linspace(lo, hi, 10 * (eval_n - 1) + 1)
    fdense = _on_grid(f_true, dense)
    best = minimax_fit(dense, fdense, degree=l - 1)
    best_level = best.grid_sup

    hs, errs, amps, sats = [], [], [], []
    max_ratio = 0.0
    near_violations = 0
    for level in range(n_levels):
        h = h0 / (2.0**level)
        m = int(round((hi - lo) / h)) + 1
        nodes = np.linspace(lo, hi, m)
        pts = PointSet(nodes, values=_on_grid(f_true, nodes))
        alpha = alpha0 / (h * h) if policy == "scaled" else alpha0
        weight = WeightSpec(family, alpha)
        coeffs, at_node = build_systems(eval_grid, pts, basis, weight)
        err = np.abs(fvals_eval - fitted_values(coeffs, at_node, pts.values))
        amp = amplification(coeffs)  # 2 on a node row, whose a(x) is a unit vector
        worst = float(np.max(err))
        amp_max = float(np.max(amp))
        if best_level > sat_floor:
            ratios = err / (best_level * amp)
            max_ratio = max(max_ratio, float(np.max(ratios)))
            near_violations += int(np.count_nonzero(ratios > 1.0))
        hs.append(h)
        errs.append(worst)
        amps.append(amp_max)
        sats.append(bool(worst <= sat_floor))

    usable = [k for k in range(n_levels) if not sats[k]]
    exact = len(usable) == 0
    observed = _slope([hs[k] for k in usable], [errs[k] for k in usable])
    per_level = []
    for k in range(n_levels):
        use = [j for j in usable if j <= k]
        per_level.append(_slope([hs[j] for j in use], [errs[j] for j in use]))

    product_bound = {
        "best_level": best_level,
        "oracle_converged": best.converged,
        "max_ratio": max_ratio,
        "near_violations": near_violations,
        "skipped_exact": bool(best_level <= sat_floor),
    }
    return ConvergenceStudy(
        hs=hs,
        sup_errors=errs,
        amplifications=amps,
        saturated=sats,
        observed_order=observed,
        order_per_level=per_level,
        exact_reproduction=exact,
        product_bound=product_bound,
        meta={
            "l": l,
            "domain": [lo, hi],
            "h0": h0,
            "alpha0": alpha0,
            "policy": policy,
            "family": family,
            "eval_n": eval_n,
        },
    )
