"""Deterministic random-instance generators for the certification suites.

Everything downstream (property tests, the selftest CLI, the acceptance
suite) draws its random problems from here, so the sampling rules live in
one place:

* nodes uniform in [0,1] with minimum separation 1e-3;
* evaluation point uniform in [0,1], at least 1e-2 away from every node
  (keeps interpolating weights off their singular limit);
* basis size l in {1..min(m,5)} for m in {2..10};
* weight family drawn with a 55/15/15/15 exp/shepard/mclain/levin mix and
  shape alpha log-uniform in [0.1, 4];
* instances whose weighted-normal-equations condition exceeds 1e8, or whose
  diagonal weight matrix has condition beyond 1e12, are rejected and
  redrawn — certification tolerances are only meaningful below those caps.

Node values are a random smooth function (quadratic plus a sine), so fit
quality checks have something nontrivial to chew on.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bases import BasisSpec, monomial_basis
from .core import (
    ConditioningError,
    HypothesisFailure,
    MlsSystem,
    _by_shape,
    build_rows,
    build_system,
)
from .points import PointSet
from .weights import WeightSpec

__all__ = [
    "Instance",
    "random_instance",
    "random_suite",
    "random_h2_instance",
    "h2_suite",
    "H2Stream",
    "matrix_pair_suite",
    "FAMILY_MIX",
]

#: (family, probability) sampling mix for the general suite
FAMILY_MIX = (
    ("exp", 0.55),
    ("shepard", 0.15),
    ("mclain", 0.15),
    ("levin", 0.15),
)

GRAM_COND_CAP = 1e8
DIAG_COND_CAP = 1e12
NODE_MIN_SEP = 1e-3
X_NODE_MARGIN = 1e-2
#: node count range, largest basis size and alpha range of the general suite
M_RANGE = (2, 10)
L_MAX = 5
ALPHA_RANGE = (0.1, 4.0)
#: the same for the 1-d growth-bound suite, with its wider node separation
H2_M_RANGE = (3, 9)
H2_L_MAX = 4
H2_ALPHA_RANGE = (0.1, 2.0)
H2_NODE_MIN_SEP = 1e-2
#: draws before a generator gives up
MAX_ATTEMPTS = 500
#: largest matrix size of a random symmetric pair
PAIR_M_MAX = 6


@dataclass(frozen=True)
class Instance:
    """One random fitting problem: nodes+values, basis, weight, eval point.

    ``solved`` is the system at x that the generator already built to
    accept the instance, or None.
    """

    points: PointSet
    basis: BasisSpec
    weight: WeightSpec
    x: float
    meta: dict = field(default_factory=dict)
    solved: MlsSystem | None = field(default=None, compare=False, repr=False)

    def system(self):
        """The local system at x: the generator's own, when it has one."""
        if self.solved is not None:
            return self.solved
        return build_system(self.x, self.points, self.basis, self.weight)


def _smooth_values(rng, nodes: np.ndarray) -> np.ndarray:
    c = rng.standard_normal(3)
    return c[0] + c[1] * np.sin(3.0 * nodes) + c[2] * nodes**2


def _sample_nodes(rng, m: int, min_sep: float, max_tries: int = 200) -> np.ndarray:
    for _ in range(max_tries):
        nodes = np.sort(rng.uniform(0.0, 1.0, size=m))
        if m == 1 or np.min(np.diff(nodes)) >= min_sep:
            return nodes
    raise RuntimeError(f"could not place {m} nodes with separation {min_sep}")


def _sample_x(rng, nodes: np.ndarray, margin: float, max_tries: int = 200) -> float:
    for _ in range(max_tries):
        x = float(rng.uniform(0.0, 1.0))
        if np.min(np.abs(nodes - x)) >= margin:
            return x
    raise RuntimeError("could not place evaluation point away from nodes")


def _pick_family(rng) -> str:
    u = float(rng.uniform())
    acc = 0.0
    for fam, p in FAMILY_MIX:
        acc += p
        if u <= acc:
            return fam
    return FAMILY_MIX[-1][0]


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


class _Bases(dict):
    """The monomial basis of each size l, built when first asked for: the
    candidates of one ``_draw_accepted`` call share it."""

    def __missing__(self, l: int) -> BasisSpec:
        self[l] = basis = monomial_basis(l)
        return basis


class _Candidate(NamedTuple):
    """One draw of a generator, before its system is solved."""

    points: PointSet
    basis: BasisSpec
    weight: WeightSpec
    x: float
    meta: dict  # m, l, family and alpha


def _draw_general(rng, bases: _Bases) -> _Candidate:
    m = int(rng.integers(M_RANGE[0], M_RANGE[1] + 1))
    l = int(rng.integers(1, min(m, L_MAX) + 1))
    family = _pick_family(rng)
    alpha = _log_uniform(rng, *ALPHA_RANGE)
    nodes = _sample_nodes(rng, m, NODE_MIN_SEP)
    x = _sample_x(rng, nodes, X_NODE_MARGIN)
    points = PointSet(nodes, values=_smooth_values(rng, nodes))
    meta = {"m": m, "l": l, "family": family, "alpha": alpha}
    return _Candidate(points, bases[l], WeightSpec(family, alpha), x, meta)


def _accept_general(sysm) -> dict | None:
    cond_d = float(np.max(sysm.dvec) / np.min(sysm.dvec))
    if sysm.cond_gram > GRAM_COND_CAP or cond_d > DIAG_COND_CAP:
        return None
    return {"cond_gram": float(sysm.cond_gram), "cond_d": cond_d}


def _draw_h2(rng, bases: _Bases) -> _Candidate:
    m = int(rng.integers(H2_M_RANGE[0], H2_M_RANGE[1] + 1))
    l = int(rng.integers(1, min(m, H2_L_MAX) + 1))
    alpha = _log_uniform(rng, *H2_ALPHA_RANGE)
    nodes = _sample_nodes(rng, m, H2_NODE_MIN_SEP)
    x = _sample_x(rng, nodes, X_NODE_MARGIN)
    points = PointSet(nodes, values=_smooth_values(rng, nodes))
    meta = {"m": m, "l": l, "family": "exp", "alpha": alpha}
    return _Candidate(points, bases[l], WeightSpec("exp", alpha), x, meta)


def _accept_h2(sysm) -> dict | None:
    if sysm.cond_gram > GRAM_COND_CAP:
        return None
    return {"cond_gram": float(sysm.cond_gram)}


def _solve_candidates(cands) -> list:
    """The system at x of each candidate: None for a rejected one, whose
    build raises ``ConditioningError`` or ``HypothesisFailure``, and the
    error for one whose build raises any other ``ValueError``.

    One stacked solve per shape (m, l).  Its first failing candidate
    raises what ``build_system`` raises for it, and the solve resumes
    after that candidate, so each candidate gets its own outcome.
    """
    out = [None] * len(cands)
    for idx in _by_shape([(c.points.m, c.basis.size) for c in cands]):
        group = [cands[i] for i in idx]
        nodes = np.stack([c.points.nodes for c in group])
        solved = []
        while len(solved) < len(group):
            rest = group[len(solved):]
            try:
                for _, rows in build_rows([[c.x] for c in rest], nodes[len(solved):],
                                          group[0].basis, [c.weight for c in rest], conds=True):
                    solved += rows.systems()
            # a rejection keeps no exception: its traceback would hold the
            # solve's frames in a reference cycle until the next full
            # garbage collection
            except (ConditioningError, HypothesisFailure):
                solved.append(None)
            except ValueError as exc:  # LinAlgError is a ValueError
                solved.append(exc)
        for i, sysm in zip(idx, solved):
            out[i] = sysm
    return out


def _draw_accepted(rng, n: int, draw, accept, what: str) -> list:
    """The first n instances that ``accept`` keeps among the candidates
    ``draw(rng, bases)`` draws, in draw order; ``bases`` gives them one
    basis per size.

    A candidate is rejected when its build raises ``ConditioningError`` or
    ``HypothesisFailure``, or when ``accept(system)`` gives None; otherwise
    that dict joins its meta.  Any other build error is raised where the
    walk reaches its candidate, and ``MAX_ATTEMPTS`` rejections in a row
    raise ``RuntimeError``.  Each round draws exactly the number of
    instances still missing and then solves them together
    (``_solve_candidates``), so the generator ends where a loop that draws
    and solves one candidate at a time ends, with the same instances.  (A
    draw that cannot place its points raises as it is drawn, and a raise
    may leave the generator further on than that loop would.)
    """
    out = []
    attempt = 0
    bases = _Bases()
    while len(out) < n:
        cands = [draw(rng, bases) for _ in range(n - len(out))]
        for cand, sysm in zip(cands, _solve_candidates(cands)):
            attempt += 1
            if isinstance(sysm, Exception):
                raise sysm
            extra = None if sysm is None else accept(sysm)
            if extra is not None:
                meta = {**cand.meta, **extra, "attempts": attempt}
                out.append(Instance(
                    cand.points, cand.basis, cand.weight, cand.x, meta=meta, solved=sysm
                ))
                attempt = 0
            elif attempt == MAX_ATTEMPTS:
                raise RuntimeError(f"no acceptable {what} after {MAX_ATTEMPTS} attempts")
    return out


def random_instance(rng) -> Instance:
    """Draw one instance, rejecting badly conditioned configurations: the
    one-instance case of ``random_suite``."""
    return _draw_accepted(rng, 1, _draw_general, _accept_general, "instance")[0]


def random_suite(n: int, seed: int) -> list:
    """n independent instances from a single seeded generator."""
    rng = np.random.default_rng(seed)
    return _draw_accepted(rng, n, _draw_general, _accept_general, "instance")


def random_h2_instance(rng) -> Instance:
    """Instance satisfying the 1-d growth-bound hypotheses: the
    one-instance case of ``h2_suite``.

    One dimension, strictly increasing nodes, exponential weight family,
    monomial basis (continuously differentiable).  Node separation and the
    evaluation margin are an order of magnitude wider than in the general
    suite so that finite-difference probes of da/dx have room to shrink.
    """
    return _draw_accepted(rng, 1, _draw_h2, _accept_h2, "1-d bound instance")[0]


class H2Stream:
    """The ``random_h2_instance`` draws of one seeded generator, drawn as
    they are asked for.

    ``first(n)`` gives the first n instances of the stream.  It draws only
    the ones still missing, in one ``_draw_accepted`` batch, which ends
    where one-by-one draws end; so ``first(n)`` holds what
    ``h2_suite(n, seed)`` holds, however the stream was asked before, and
    it never draws past the n-th instance.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._drawn = []

    def first(self, n: int) -> list:
        missing = n - len(self._drawn)
        if missing > 0:
            self._drawn += _draw_accepted(
                self._rng, missing, _draw_h2, _accept_h2, "1-d bound instance"
            )
        return self._drawn[:n]


def h2_suite(n: int, seed: int) -> list:
    """n independent ``random_h2_instance`` draws from a single seeded
    generator."""
    return H2Stream(seed).first(n)


def _draw_symmetric(rng, m: int, eig_lo: float, eig_hi: float, n_zero: int = 0):
    """Draws of a symmetric matrix with known spectrum Q diag(eigs) Q^T:
    the eigenvalues and the Gaussian matrix whose QR gives Q."""
    eigs = rng.uniform(eig_lo, eig_hi, size=m)
    if n_zero:
        eigs[:n_zero] = 0.0
    rng.shuffle(eigs)
    return eigs, rng.standard_normal((m, m))


def _draw_pair(rng) -> tuple:
    """Kind, size and the U and V draws of one pair, in the generator's
    order.

    Three kinds, mixed 40/30/30: V positive definite with U indefinite,
    V singular positive semidefinite with U indefinite, and both factors
    positive definite (which additionally exercises the two-sided product
    bounds).
    """
    m = int(rng.integers(1, PAIR_M_MAX + 1))
    u = float(rng.uniform())
    if u < 0.4:
        kind = "v_pd"
        udraw = _draw_symmetric(rng, m, -2.0, 3.0)
        vdraw = _draw_symmetric(rng, m, 0.1, 3.0)
    elif u < 0.7:
        kind = "v_psd_singular"
        udraw = _draw_symmetric(rng, m, -2.0, 3.0)
        n_zero = 1 if m == 1 else int(rng.integers(1, m))
        vdraw = _draw_symmetric(rng, m, 0.1, 3.0, n_zero=n_zero)
    else:
        kind = "both_pd"
        udraw = _draw_symmetric(rng, m, 0.05, 2.0)
        vdraw = _draw_symmetric(rng, m, 0.1, 3.0)
    return kind, m, udraw, vdraw


def _with_spectra(draws: list) -> np.ndarray:
    """Q diag(eigs) Q^T for each (eigs, gauss) of ``draws``, all of one size,
    with Q from the QR of gauss.

    One stacked QR and two stacked products; LAPACK and BLAS run per
    matrix, so each result equals the one-matrix computation bit for bit.
    """
    eigs = np.stack([e for e, _ in draws])
    q, _ = np.linalg.qr(np.stack([g for _, g in draws]))
    diag = np.zeros(q.shape)
    idx = np.arange(q.shape[-1])
    diag[:, idx, idx] = eigs
    return q @ diag @ q.transpose(0, 2, 1)


def matrix_pair_suite(n: int, seed: int) -> list:
    """n symmetric pairs (U, V), each with at least one positive-semidefinite
    factor, from a single seeded generator (see ``_draw_pair``).

    Every pair is drawn first, in order.  The QR that orthogonalizes the
    Gaussian matrices draws no random numbers, so it runs afterwards, one
    stacked call per matrix size.
    """
    rng = np.random.default_rng(seed)
    pairs = [_draw_pair(rng) for _ in range(n)]
    out = [None] * n
    for idx in _by_shape([m for _, m, _, _ in pairs]):
        mats = _with_spectra([d for i in idx for d in pairs[i][2:]])
        for j, i in enumerate(idx):
            kind, m = pairs[i][:2]
            out[i] = {"umat": mats[2 * j], "vmat": mats[2 * j + 1], "kind": kind, "m": m}
    return out
