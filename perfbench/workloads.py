"""Seeded job lists for the three benchmark workloads.

A workload is a fixed list of jobs (a "pass").  Each job is one
``mlscert <command> ...`` invocation whose input files are generated here
from the benchmark seed; the program only ever sees those files.  Sizes
are fixed per slot, so two seeds differ in node positions, shape
parameters and sampled values but cost about the same; that keeps the
end-to-end figures steady across seeds.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("fit", "bound", "selftest")

#: known-failure classes a job may belong to; see checks.LEDGER
FIT_NEAR_NODE = "fit.interp_near_node"
FIT_GRID_2D = "fit.grid_2d"
SELFTEST_ODE = "selftest.ode"
SELFTEST_CORE = "selftest.core"

# fit slots: (family, dim, m, n, l, grid mode, known-failure classes)
#   grid modes: "N"      --grid N over the node span (uniform_grid)
#               "inner"  --grid a:b:N strictly inside the node span
#               "ends"   --grid x_1:x_m:N, so both ends land on nodes
#               "nodes"  no grid: evaluate at the nodes
#               "2d"     --grid 0:1:N on 2-d nodes (the CLI has no 2-d grid)
# m for 2-d slots is k*k on a jittered k x k lattice.
FIT_SLOTS = (
    ("exp", 1, 20, 800, 2, "N", ()),
    ("exp", 1, 30, 400, 3, "inner", ()),
    ("exp", 1, 60, 250, 2, "N", ()),
    ("exp", 1, 100, 100, 2, "inner", ()),
    ("exp", 1, 200, 70, 2, "N", ()),
    ("exp", 1, 300, 50, 2, "inner", ()),
    ("exp", 1, 45, 150, 2, "N", ()),
    ("exp", 1, 150, 75, 2, "inner", ()),
    ("exp", 1, 25, 2000, 2, "inner", ()),
    ("shepard", 1, 30, 200, 2, "N", ()),
    ("shepard", 1, 40, 151, 2, "ends", ()),
    ("levin", 1, 25, 201, 2, "ends", (FIT_NEAR_NODE,)),
    ("levin", 1, 25, 200, 2, "N", (FIT_NEAR_NODE,)),
    ("shepard_stiff", 1, 20, 150, 2, "N", (FIT_NEAR_NODE,)),
    ("exp", 2, 64, 0, 3, "nodes", ()),
    ("exp", 2, 81, 0, 6, "nodes", ()),
    ("shepard", 2, 49, 0, 6, "nodes", ()),
    ("exp", 2, 36, 50, 3, "2d", (FIT_GRID_2D,)),
)

# bound slots: (m, l, n); conventions alternate standard/paper
BOUND_SLOTS = (
    (3, 1, 100), (5, 2, 200), (8, 3, 400), (12, 4, 100),
    (16, 1, 200), (20, 2, 400), (25, 3, 100), (30, 4, 200),
    (35, 1, 400), (40, 2, 100), (4, 3, 200), (10, 4, 400),
    (18, 1, 100), (28, 2, 200), (38, 3, 400), (6, 4, 100),
)

#: the eight suites of ``mlscert selftest``, in report order
SELFTEST_SUITES = (
    "core", "spectral", "sv_product", "eig_product",
    "ode", "certificate", "diff_matrix", "convergence",
)
#: selftest jobs per pass (each runs the full eight-suite battery, 4-7 s);
#: two leave room for every job to repeat within a 30-second run
SELFTEST_JOBS = 2
#: evaluation points one selftest report certifies: the certificate suite's
#: 20 instances times its 200-point grid
SELFTEST_POINTS = 20 * 200


@dataclass
class Job:
    """One CLI invocation plus what the output checks need to know."""

    name: str
    command: str
    inputs: dict = field(default_factory=dict)  # CLI flag -> file text
    options: tuple = ()
    ledger: tuple = ()  # known-failure classes it may fail with
    points: int = 0  # evaluation points a successful output holds
    fmt: str = "json"
    spec: dict = field(default_factory=dict)

    def argv(self, workdir: Path) -> list:
        out = [self.command]
        for flag, _ in sorted(self.inputs.items()):
            out += [flag, str(self.input_path(workdir, flag))]
        out += list(self.options)
        out += ["--out", str(self.out_path(workdir))]
        return out

    def input_path(self, workdir: Path, flag: str) -> Path:
        ext = {"--input": ".csv", "--config": ".json"}[flag]
        return workdir / f"{self.name}{ext}"

    def out_path(self, workdir: Path) -> Path:
        return workdir / f"{self.name}.out"

    @property
    def size(self) -> int:
        """Rough cost order: node count times evaluation points."""
        return int(self.spec.get("m", 1)) * max(self.points, 1)


def _csv(nodes: np.ndarray, values: np.ndarray) -> str:
    d = nodes.shape[1]
    lines = [",".join([f"x{i + 1}" for i in range(d)] + ["f"])]
    for row, v in zip(nodes, values):
        lines.append(",".join(repr(float(c)) for c in row) + "," + repr(float(v)))
    return "\n".join(lines) + "\n"


def _nodes_1d(rng, m: int) -> np.ndarray:
    """Quasi-uniform nodes in (0, 1): cell centres jittered by 30% of h."""
    u = rng.uniform(-0.3, 0.3, size=m)
    return ((np.arange(m) + 0.5 + u) / m)[:, None]


def _nodes_2d(rng, k: int) -> np.ndarray:
    u = rng.uniform(-0.3, 0.3, size=(k * k, 2))
    ij = np.stack(np.meshgrid(np.arange(k), np.arange(k), indexing="ij"), -1)
    return (ij.reshape(-1, 2) + 0.5 + u) / k


def _values(rng, nodes: np.ndarray) -> np.ndarray:
    c = rng.standard_normal(3)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    x = nodes[:, 0]
    y = nodes[:, -1]
    return c[0] + c[1] * np.sin(3.0 * x + phase) * np.cos(2.0 * y) + c[2] * x * y


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _config(l: int, family: str, alpha: float) -> str:
    return json.dumps({"l": l, "weight": {"family": family, "alpha": alpha}})


def fit_jobs(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for i, (family, dim, m, n, l, mode, ledger) in enumerate(FIT_SLOTS):
        if dim == 1:
            nodes = _nodes_1d(rng, m)
            h = 1.0 / m
        else:
            k = int(round(np.sqrt(m)))
            nodes = _nodes_2d(rng, k)
            h = 1.0 / k
        values = _values(rng, nodes)
        if family == "exp":
            # alpha = c / h^2: far weights overflow to inf (local regime)
            alpha = _log_uniform(rng, 0.5, 2.0) / (h * h)
        elif family == "shepard":
            alpha = _log_uniform(rng, 0.5, 1.1)
        elif family == "shepard_stiff":
            family, alpha = "shepard", _log_uniform(rng, 1.3, 1.6)
        else:  # levin
            alpha = _log_uniform(rng, 0.5, 3.0)
        x = [float(v) for v in nodes[:, 0]]
        if mode == "N":
            grid, points = [f"--grid={n}"], n
        elif mode == "inner":
            a = x[0] + float(rng.uniform(0.0, 0.5)) * h
            b = x[-1] - float(rng.uniform(0.0, 0.5)) * h
            grid, points = [f"--grid={a!r}:{b!r}:{n}"], n
        elif mode == "ends":
            grid, points = [f"--grid={x[0]!r}:{x[-1]!r}:{n}"], n
        elif mode == "2d":
            grid, points = [f"--grid=0:1:{n}"], n
        else:
            grid, points = [], len(nodes)
        fmt = ("json", "csv")[i % 2]
        jobs.append(Job(
            name=f"fit{i:02d}",
            command="fit",
            inputs={"--input": _csv(nodes, values), "--config": _config(l, family, alpha)},
            options=tuple(grid) + ("--format", fmt),
            ledger=ledger,
            points=points,
            fmt=fmt,
            spec={"nodes": nodes, "values": values, "family": family,
                  "alpha": alpha, "l": l, "dim": dim, "m": len(nodes),
                  "grid": mode, "n": n},
        ))
    return jobs


def bound_jobs(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for i, (m, l, n) in enumerate(BOUND_SLOTS):
        nodes = _nodes_1d(rng, m)
        values = _values(rng, nodes)
        alpha = _log_uniform(rng, 0.1, 2.0)
        convention = ("standard", "paper")[i % 2]
        jobs.append(Job(
            name=f"bound{i:02d}",
            command="bound",
            inputs={"--input": _csv(nodes, values), "--config": _config(l, "exp", alpha)},
            options=(f"--grid={n}", "--convention", convention),
            points=n,
            spec={"nodes": nodes, "values": values, "family": "exp",
                  "alpha": alpha, "l": l, "dim": 1, "m": m, "n": n},
        ))
    return jobs


def selftest_jobs(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    seeds = [int(s) for s in rng.integers(0, 1_000_000, size=SELFTEST_JOBS)]
    return [
        Job(
            name=f"selftest{i:02d}",
            command="selftest",
            options=("--seed", str(s)),
            ledger=(SELFTEST_ODE, SELFTEST_CORE),
            points=SELFTEST_POINTS,
            spec={"seed": s},
        )
        for i, s in enumerate(seeds)
    ]


def make_jobs(workload: str, seed: int) -> list:
    try:
        maker = {"fit": fit_jobs, "bound": bound_jobs, "selftest": selftest_jobs}[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}") from None
    return maker(seed)


def warmup_job(workload: str, jobs: list) -> Job:
    """The untimed job run before timing starts.

    fit and bound warm up on their cheapest job that is not a known
    failure.  A full selftest would add seconds to every set-up, so the
    selftest workload warms up on ``diagnose --seed``, which runs three of
    the eight selftest suites through the same code.
    """
    if workload == "selftest":
        return Job(name="warmup", command="diagnose",
                   options=("--seed", jobs[0].options[1]))
    return min((j for j in jobs if not j.ledger), key=lambda j: j.size)


def write_inputs(jobs, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        for flag, text in job.inputs.items():
            job.input_path(workdir, flag).write_text(text)
