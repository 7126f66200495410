"""Output checks that do not rely on the library, and the known-failure ledger.

The oracle re-derives every fitted value from the weighted least-squares
problem itself: its own weight formulas, its own monomial design and a
pseudo-inverse solve.  Nothing here imports ``mlscert``.
"""

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .workloads import (
    FIT_GRID_2D,
    FIT_NEAR_NODE,
    SELFTEST_CORE,
    SELFTEST_ODE,
    SELFTEST_SUITES as SUITES,
)

#: |Lhat - oracle| and |sum_a - 1| allowance, relative to sum |a_i f_i| and
#: sum |a_i|.  Both solves are backward stable on a scaled design whose
#: condition number the library caps at 1e6 (gram condition 1e12), so the
#: two agree to about 1e-10; 1e-8 leaves a hundredfold margin.
FIT_RTOL = 1e-8
#: ||a(x)|| in bound outputs against the oracle, relative
BOUND_RTOL = 1e-8


@dataclass(frozen=True)
class KnownFailure:
    """A job class that fails today, with the exit code and cause it fails with."""

    exit_code: int
    stderr: str  # substring the CLI's error message contains
    cause: str


LEDGER = {
    FIT_NEAR_NODE: KnownFailure(
        4, "conditioning failure",
        "levin fits, and shepard fits with alpha >= ~1.2, at a grid point very "
        "near a node: always on an N grid, where uniform_grid nudges points "
        "1e-9*span off the nodes and the gram condition estimate reaches ~1e17 "
        "even on 5 nodes; now and then on an a:b:N grid",
    ),
    FIT_GRID_2D: KnownFailure(
        2, "point has dim",
        "2-d nodes with --grid a:b:N: the CLI reshapes the grid into one "
        "N-dimensional row, so 2-d grids cannot be given",
    ),
    SELFTEST_ODE: KnownFailure(
        5, "[FAIL] ode",
        "selftest's ode suite fails for 17 of seeds 0-59 (first 3, 8, 9, 11, 13): "
        "a finite-difference slope leaves [1.7, 2.3]",
    ),
    SELFTEST_CORE: KnownFailure(
        5, "[FAIL] core",
        "selftest's core suite fails for about 1 seed in 70 (none of 0-59; "
        "e.g. 741421, 797933): weight-scaling invariance is held to 1e-10 "
        "absolute and reaches 1e-10 to 5e-10 on ill-conditioned instances",
    ),
}


def reciprocal_weight(family: str, alpha: float, r: np.ndarray) -> np.ndarray:
    """w(r) = 1/W(r) for the families the workloads use."""
    with np.errstate(over="ignore"):
        if family == "exp":
            return np.exp(alpha * r * r)
        if family == "shepard":
            return r ** (alpha * alpha)
        if family == "levin":
            return np.expm1(alpha * alpha * r * r)
    raise ValueError(f"oracle has no weight family {family!r}")


def monomials(pts: np.ndarray, l: int) -> np.ndarray:
    """Complete-degree monomials: 1-d 1..x^(l-1); 2-d l=3 (degree 1) or 6 (2)."""
    pts = np.atleast_2d(pts)
    if pts.shape[1] == 1:
        return pts[:, :1] ** np.arange(l)
    x, y = pts[:, 0], pts[:, 1]
    cols = {3: [x**0, x, y], 6: [x**0, x, y, x * x, x * y, y * y]}
    if l not in cols:
        raise ValueError("2-d oracle needs a complete degree: l in (3, 6)")
    return np.stack(cols[l], axis=1)


def coefficients(x, nodes, family, alpha, l):
    """Oracle coefficient vector a(x) and the node index if x is a node.

    Nodes with an infinite reciprocal weight carry no weight and get an
    exact zero coefficient.  At a node of an interpolating family (w = 0)
    the fit is the node value itself.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = np.linalg.norm(nodes - x[None, :], axis=1)
    w = reciprocal_weight(family, alpha, r)
    at = np.flatnonzero(w == 0.0)
    a = np.zeros(len(nodes))
    if at.size:
        a[at[0]] = 1.0
        return a, int(at[0])
    keep = np.isfinite(w)
    sw = 1.0 / np.sqrt(w[keep])
    design = sw[:, None] * monomials(nodes[keep], l)
    a[keep] = sw * (np.linalg.pinv(design).T @ monomials(x, l)[0])
    return a, None


def _close(got: float, want: float, scale: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(scale, 1.0)


def _table(text: str, fmt: str):
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0], [[float(v) for v in row] for row in rows[1:]]
    doc = json.loads(text)
    return doc["columns"], doc["rows"]


def expected_grid(job) -> np.ndarray:
    """Evaluation points the job asked for, before any library nudging."""
    spec = job.spec
    nodes = spec["nodes"]
    if spec["grid"] == "nodes":
        return nodes
    if spec["grid"] == "N":
        return np.linspace(nodes[0, 0], nodes[-1, 0], spec["n"])[:, None]
    a, b, n = next(o for o in job.options if o.startswith("--grid=")).split("=")[1].split(":")
    return np.linspace(float(a), float(b), int(n))[:, None]


def check_fit(job, text: str) -> list:
    """Problems found in a fit output; an empty list means it is correct."""
    spec = job.spec
    nodes, values, dim = spec["nodes"], spec["values"], spec["dim"]
    header, rows = _table(text, job.fmt)
    want_header = [f"x{i + 1}" for i in range(dim)] + ["Lhat", "sum_a", "amplification"]
    if header != want_header:
        return [f"columns {header} != {want_header}"]
    if len(rows) != job.points:
        return [f"{len(rows)} rows, expected {job.points}"]
    grid = expected_grid(job)
    span = float(np.ptp(nodes[:, 0]))
    problems = []
    for k, row in enumerate(rows):
        x = np.asarray(row[:dim], dtype=float)
        lhat, sum_a = row[dim], row[dim + 1]
        # uniform_grid moves points that land on a node by 1e-9 * span
        if np.max(np.abs(x - grid[k])) > 2e-9 * span:
            problems.append(f"row {k}: x={x.tolist()} not on the requested grid")
            continue
        a, node = coefficients(x, nodes, spec["family"], spec["alpha"], spec["l"])
        if node is not None:
            if lhat != values[node] or sum_a != 1.0:
                problems.append(f"row {k}: at node {node} got Lhat={lhat!r} sum_a={sum_a!r}")
            continue
        want = float(a @ values)
        if not _close(lhat, want, float(np.abs(a) @ np.abs(values)), FIT_RTOL):
            problems.append(f"row {k}: Lhat={lhat!r}, oracle {want!r}")
        if not _close(sum_a, 1.0, float(np.sum(np.abs(a))), FIT_RTOL):
            problems.append(f"row {k}: sum_a={sum_a!r}")
    return problems[:5]


def check_bound(job, text: str) -> list:
    spec = job.spec
    doc = json.loads(text)
    if doc.get("pass") is not True:
        return ["certificate did not pass"]
    pts = doc["points"]
    if len(pts) != job.points:
        return [f"{len(pts)} points, expected {job.points}"]
    nodes = spec["nodes"]
    grid = np.linspace(nodes[0, 0], nodes[-1, 0], job.points)
    problems = []
    for k, (x, lhs, *_rest) in enumerate(pts):
        if x != grid[k]:
            problems.append(f"point {k}: x={x!r}, expected {grid[k]!r}")
            continue
        a, _ = coefficients(x, nodes, "exp", spec["alpha"], spec["l"])
        want = float(np.linalg.norm(a))
        if not _close(lhs, want, want, BOUND_RTOL):
            problems.append(f"point {k}: lhs={lhs!r}, oracle ||a||={want!r}")
    return problems[:5]


def selftest_report(job, text: str) -> tuple:
    """Structural problems of a selftest report, and its failing suites."""
    doc = json.loads(text)
    if sorted(doc.get("suites", {})) != sorted(SUITES):
        return [f"suites {sorted(doc.get('suites', {}))}"], []
    if doc["seed"] != job.spec["seed"]:
        return [f"report seed {doc['seed']} != {job.spec['seed']}"], []
    failing = [s for s in SUITES if not doc["suites"][s]["pass"]]
    if doc["pass"] is not (not failing):
        return ["top-level pass disagrees with the suites"], failing
    return [], failing


def check_selftest(job, text: str) -> list:
    problems, failing = selftest_report(job, text)
    return problems + ([f"suites failed: {failing}"] if failing else [])


CHECKERS = {"fit": check_fit, "bound": check_bound, "selftest": check_selftest}


def outcome_points(job, text: str) -> int:
    """Evaluation points a successful output reports."""
    if job.command == "selftest":
        cert = json.loads(text)["suites"]["certificate"]
        return int(cert["n"]) * int(cert["n_grid"])
    return job.points


@dataclass
class Verdict:
    ok: bool  # the job succeeded and its output is correct
    expected: bool  # ok, or failed exactly the way the ledger says
    detail: str = ""


def judge(job, code, stderr: str, text) -> Verdict:
    """Classify one execution: exit code, captured stderr, output text."""
    if code == 0 and text is not None:
        problems = CHECKERS[job.command](job, text)
        if not problems:
            return Verdict(True, True)
        return Verdict(False, False, "; ".join(problems))
    unexpected = Verdict(False, False, f"exit {code}: {stderr.strip()[-300:]}")
    if job.command == "selftest":
        # a report whose failing suites are all ledger entries
        if code != 5 or text is None:
            return unexpected
        problems, failing = selftest_report(job, text)
        classes = [f"selftest.{s}" for s in failing]
        if problems or not all(c in job.ledger and LEDGER[c].stderr in stderr
                               for c in classes):
            return unexpected
        return Verdict(False, True, "known failure " + ", ".join(classes))
    for cls in job.ledger:
        known = LEDGER[cls]
        if code == known.exit_code and known.stderr in stderr:
            return Verdict(False, True, f"known failure {cls}")
    return unexpected
