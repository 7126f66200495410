#!/usr/bin/env python3
"""Digest every output the CLI writes for a set of seeds, one line per run.

Usage:
    python3 scripts/output_digests.py --seeds 42 7 3 > digests.txt

Run it in two checkouts and diff the two files: equal lines mean equal
bytes, so this is the check that a change keeps the reports byte-identical.
Each line reads

    <workload> <seed> <job> exit=<code> out=<sha256> err=<sha256>

with the sha256 of the output file (``-`` when none was written) and of
standard error.  The runs, each one ``python -m mlscert`` process on this
checkout's ``src/`` in a fresh temporary directory, with BLAS on one
thread:

- ``fit`` and ``bound``: every job of the benchmark workloads of that seed
  (``perfbench.workloads``, imported read-only; nothing is written there),
  plus the largest ``bound`` job again with ``--format csv``, again on its
  grid reversed, ``--grid x_m:x_1:N``, so its grid rows run backwards, and
  again without its ``--convention`` flag, which ``bound`` accepts and
  ignores, so that line must equal the job's own;
- ``diagnose``: ``diagnose --input --grid N`` on the first ``fit`` job of an
  interpolating weight on an ``N`` grid outside the known-failure ledger;
- ``selftest``: ``selftest --seed`` and ``diagnose --seed``;
- ``converge`` (seed ``-``): the study on sin, exp and runge;
- ``bound`` (seed ``-``): a certificate with l = m (four nodes, l = 4),
  whose P - I is exactly 0; and ones with ``--grid 4000`` on 30 and on
  15 nodes with l = 3 and on 60 nodes with l = 4, each with its grid
  given forwards and backwards (60 nodes with l = 4 solve the grid in
  about 60 blocks of 68 rows); and the hard regime, where M2 is far
  above sigma_max((P - I) H) and rhs far above lhs: exp alpha 1 on nine
  evenly spaced nodes on [0, r] with alpha r^2 = 4, 9 and 16, and alpha
  0.3 on 21 on [0, 10] (alpha r^2 = 30), each with l = 2 on 400 points;
- ``edge`` (seed ``-``): an evaluation point whose node distances
  overflow, ``--out`` naming a directory or a path under a missing one,
  ``converge`` with h0 = 0 or h0 ``true``, ``bound --tol bound=nan``;
  ``fit`` and ``bound`` with the weight's alpha 1e400 (inf), the basis
  size 2.5, a config key no subcommand reads (a misspelt one, ``basis``,
  ``grid``, or one inside ``weight``) or alpha ``true``; and ``diagnose``
  given a flag of its other mode (``--seed`` with ``--input``,
  ``--config`` and ``--grid`` without it); ``converge`` on the domain
  [0, 1e308], whose node count overflows, ``fit`` with the basis size
  0, and ``selftest --seed -1`` and ``diagnose --seed -3``; ``fit`` on
  an input with a blank record and then a malformed one, which names the
  malformed record's line; ``fit`` on an input that is not valid UTF-8,
  which names its line, and ``fit --grid 0:inf:3``, whose end is not
  finite, and ``converge`` with 2000 levels, past what any array holds.
  Each of these exits 2.  ``fit``, ``bound`` and ``diagnose``
  with the basis size 100000 on five nodes exit 3 at once
  (``basis_size_le_nodes``).  On five nodes in [0, 1] with exp alpha 1,
  ``fit`` and ``diagnose`` at x = 30 with l = 2 exit 3 and on
  ``--grid 0:200:50`` with l = 3 exit 4, and ``bound`` on two clusters
  of five nodes, 7 apart, exits 4; each message names the first failing
  point and its grid index.  On those five nodes in [0, 1] with l = 2
  and ``--grid 0.1:0.9:5``, ``diagnose`` with levin alpha 1e-160, whose
  weight diagonal is subnormal, and ``fit`` with shepard alpha 30, whose
  weight vanishes below r = 0.44, exit 2 on one line.  Per seed, ``edge``
  also runs the first ``fit`` job on a copy of its input that starts with
  a UTF-8 byte-order mark; it exits 0 with that job's own output.

Paths are relative to the run's directory, so messages that name a file
read the same in every checkout.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # import perfbench without writing into it
sys.path.insert(0, str(ROOT))
from perfbench import workloads  # noqa: E402

EDGE_INPUT = "x1,f\n0,0\n1,1\n2,4\n"
SQUARE_INPUT = "x1,f\n0.1,0\n0.35,1\n0.6,0\n0.9,1\n"
#: a blank record (line 3), then a malformed one (line 4)
MALFORMED_INPUT = "x1,f\n0,0\n\n1,one\n2,4\n"
#: a byte that is not UTF-8 on line 3
NOT_UTF8_INPUT = b"x1,f\n0.1,1\n0.5,2\xe9\n0.9,3\n"
#: five nodes inside [0, 1], where no basis value overflows
FIVE_NODES_INPUT = "x1,f\n0.1,1\n0.3,2\n0.5,0\n0.7,1\n0.9,3\n"
#: five nodes spanning [0, 1]
SPAN_NODES_INPUT = "x1,f\n0,1\n0.25,2\n0.5,0\n0.75,1\n1,3\n"
#: two clusters of five nodes, [0, 1] and [8, 9]
CLUSTERS_INPUT = "x1,f\n" + "".join(f"{x},0.5\n" for x in
                                     (0, 0.25, 0.5, 0.75, 1, 8, 8.25, 8.5, 8.75, 9))


def _even_input(r: float, m: int) -> str:
    """m evenly spaced nodes on [0, r]."""
    nodes = [r * i / (m - 1) for i in range(m)]
    return "x1,f\n" + "".join(f"{x!r},{math.sin(3 * x)!r}\n" for x in nodes)


def _long_grid_input(m: int) -> str:
    """m nodes on [0, 1], denser at 0, for a long certificate grid."""
    nodes = [(i / (m - 1)) ** 1.5 for i in range(m)]
    return "x1,f\n" + "".join(f"{x!r},{math.sin(3 * x)!r}\n" for x in nodes)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list, workdir: Path, out: str | None) -> tuple:
    """Exit code, output digest and stderr digest of one CLI process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-m", "mlscert", *argv], cwd=workdir,
                          env=env, capture_output=True)
    path = workdir / out if out is not None else None
    out_digest = _digest(path.read_bytes()) if path is not None and path.is_file() else "-"
    return proc.returncode, out_digest, _digest(proc.stderr)


def _files(job) -> dict:
    return {job.input_path(Path("."), flag).name: text for flag, text in job.inputs.items()}


def _seed_runs(seed: int):
    """(workload, job, argv, input files, output name) of one seed."""
    jobs = {workload: workloads.make_jobs(workload, seed) for workload in ("fit", "bound")}
    for workload, wjobs in jobs.items():
        for job in wjobs:
            yield workload, job.name, job.argv(Path(".")), _files(job), job.out_path(Path(".")).name
    job = max(jobs["bound"], key=lambda j: j.size)
    argv = job.argv(Path(".")) + ["--format", "csv"]
    yield "bound", f"{job.name}_csv", argv, _files(job), job.out_path(Path(".")).name
    xs = job.spec["nodes"][:, 0].tolist()
    backwards = f"--grid={xs[-1]!r}:{xs[0]!r}:{job.spec['n']}"
    argv = [backwards if a.startswith("--grid=") else a for a in job.argv(Path("."))]
    yield "bound", f"{job.name}_reversed", argv, _files(job), job.out_path(Path(".")).name
    argv = job.argv(Path("."))
    at = argv.index("--convention")
    argv = argv[:at] + argv[at + 2:]
    yield "bound", f"{job.name}_no_convention", argv, _files(job), job.out_path(Path(".")).name
    job = next(j for j in jobs["fit"] if j.spec["family"] != "exp" and j.spec["grid"] == "N"
               and not j.ledger)
    argv = ["diagnose", "--input", f"{job.name}.csv", "--config", f"{job.name}.json",
            "--grid", str(job.spec["n"]), "--out", "diagnose_grid.json"]
    yield "diagnose", job.name, argv, _files(job), "diagnose_grid.json"
    for command in ("selftest", "diagnose"):
        argv = [command, "--seed", str(seed), "--out", f"{command}.json"]
        yield "selftest", command, argv, {}, f"{command}.json"
    job = jobs["fit"][0]
    files = _files(job)
    csv_name = job.input_path(Path("."), "--input").name
    files[csv_name] = "\ufeff" + files[csv_name]
    yield "edge", f"{job.name}_bom", job.argv(Path(".")), files, job.out_path(Path(".")).name


def _fixed_runs():
    for name in ("sin", "exp", "runge"):
        argv = ["converge", "--config", "study.json", "--out", "converge.out"]
        yield "converge", name, argv, {"study.json": json.dumps({"function": name})}, "converge.out"
    argv = ["bound", "--input", "n4.csv", "--config", "cfg.json", "--grid", "200",
            "--out", "bound.out"]
    files = {"n4.csv": SQUARE_INPUT, "cfg.json": '{"l": 4, "weight": {"family": "exp"}}'}
    yield "bound", "square_design", argv, files, "bound.out"
    for m, l, name in ((30, 3, "long_grid"), (15, 3, "long_grid_small_m"),
                       (60, 4, "long_grid_m60")):
        files = {f"n{m}.csv": _long_grid_input(m),
                 "cfg.json": f'{{"l": {l}, "weight": {{"family": "exp"}}}}'}
        for grid, suffix in (("4000", ""), ("1.0:0.0:4000", "_reversed")):
            argv = ["bound", "--input", f"n{m}.csv", "--config", "cfg.json", f"--grid={grid}",
                    "--out", "bound.out"]
            yield "bound", name + suffix, argv, files, "bound.out"
    for r, m, alpha in ((2.0, 9, 1.0), (3.0, 9, 1.0), (4.0, 9, 1.0), (10.0, 21, 0.3)):
        files = {"nodes.csv": _even_input(r, m),
                 "cfg.json": f'{{"l": 2, "weight": {{"family": "exp", "alpha": {alpha!r}}}}}'}
        argv = ["bound", "--input", "nodes.csv", "--config", "cfg.json", "--grid", "400",
                "--out", "bound.out"]
        yield "bound", f"hard_alpha_r2_{round(alpha * r * r)}", argv, files, "bound.out"
    fit = ["fit", "--input", "n3.csv", "--grid"]
    inputs = {"n3.csv": EDGE_INPUT}
    yield "edge", "distance_overflow", fit + ["1e160:1e160:1"], inputs, None
    yield "edge", "out_is_directory", fit + ["0:2:3", "--out", "taken"], inputs, "taken"
    yield "edge", "out_parent_missing", fit + ["0:2:3", "--out", "missing/out.json"], inputs, None
    argv = ["converge", "--config", "study.json", "--out", "converge.out"]
    yield "edge", "converge_h0_zero", argv, {"study.json": '{"h0": 0}'}, "converge.out"
    yield "edge", "converge_h0_true", argv, {"study.json": '{"h0": true}'}, "converge.out"
    argv = ["bound", "--input", "n3.csv", "--tol", "bound=nan", "--out", "bound.out"]
    yield "edge", "bound_tol_nan", argv, inputs, "bound.out"
    configs = {"alpha_inf": '{"weight": {"family": "exp", "alpha": 1e400}}',
               "l_non_integral": '{"l": 2.5}',
               "unknown_key": '{"L": 3, "weigth": {"family": "exp", "alpha": 2}}',
               "basis_key": '{"l": 2, "basis": {"l": 3}}',
               "grid_key": '{"grid": "0:2:3"}',
               "unknown_weight_key": '{"weight": {"family": "exp", "alfa": 2}}',
               "alpha_true": '{"weight": {"family": "exp", "alpha": true}}'}
    for name, text in configs.items():
        for command in ("fit", "bound"):
            argv = [command, "--input", "n3.csv", "--config", "cfg.json", "--grid", "3",
                    "--out", f"{command}.out"]
            yield "edge", f"{command}_{name}", argv, {**inputs, "cfg.json": text}, f"{command}.out"
    argv = ["diagnose", "--input", "n3.csv", "--seed", "7", "--out", "diagnose.out"]
    yield "edge", "diagnose_input_seed", argv, inputs, "diagnose.out"
    argv = ["diagnose", "--config", "cfg.json", "--grid", "5", "--out", "diagnose.out"]
    yield "edge", "diagnose_suite_config_grid", argv, {"cfg.json": "{}"}, "diagnose.out"
    argv = ["converge", "--config", "study.json", "--out", "converge.out"]
    files = {"study.json": '{"domain": [0, 1e308]}'}
    yield "edge", "converge_domain_overflow", argv, files, "converge.out"
    argv = ["fit", "--input", "n3.csv", "--config", "cfg.json", "--grid", "3", "--out", "fit.out"]
    yield "edge", "fit_l_zero", argv, {**inputs, "cfg.json": '{"l": 0}'}, "fit.out"
    argv = ["fit", "--input", "n3.csv", "--grid", "3", "--out", "fit.out"]
    yield "edge", "fit_blank_and_malformed_record", argv, {"n3.csv": MALFORMED_INPUT}, "fit.out"
    for command, seed in (("selftest", "-1"), ("diagnose", "-3")):
        argv = [command, "--seed", seed, "--out", f"{command}.json"]
        yield "edge", f"{command}_negative_seed", argv, {}, f"{command}.json"
    argv = ["fit", "--input", "n3.csv", "--out", "fit.out"]
    yield "edge", "fit_not_utf8", argv, {"n3.csv": NOT_UTF8_INPUT}, "fit.out"
    yield "edge", "fit_grid_end_inf", fit + ["0:inf:3", "--out", "fit.out"], inputs, "fit.out"
    files = {"n5.csv": FIVE_NODES_INPUT, "cfg.json": '{"l": 100000}'}
    for command in ("fit", "bound", "diagnose"):
        argv = [command, "--input", "n5.csv", "--config", "cfg.json", "--out", f"{command}.out"]
        yield "edge", f"{command}_l_huge", argv, files, f"{command}.out"
    argv = ["converge", "--config", "study.json", "--out", "converge.out"]
    yield "edge", "converge_levels_2000", argv, {"study.json": '{"levels": 2000}'}, "converge.out"
    for name, l, grid in (("design_rank_far_point", 2, "30:30:1"),
                          ("conditioning_far_grid", 3, "0:200:50")):
        files = {"n5.csv": SPAN_NODES_INPUT,
                 "cfg.json": f'{{"l": {l}, "weight": {{"family": "exp"}}}}'}
        for command in ("fit", "diagnose"):
            argv = [command, "--input", "n5.csv", "--config", "cfg.json", "--grid", grid,
                    "--out", f"{command}.out"]
            yield "edge", f"{command}_{name}", argv, files, f"{command}.out"
    files = {"c.csv": CLUSTERS_INPUT, "cfg.json": '{"l": 3, "weight": {"family": "exp", "alpha": 3}}'}
    argv = ["bound", "--input", "c.csv", "--config", "cfg.json", "--out", "bound.out"]
    yield "edge", "bound_conditioning_between_clusters", argv, files, "bound.out"
    for command, name, weight in (
            ("diagnose", "levin_subnormal_diagonal", '{"family": "levin", "alpha": 1e-160}'),
            ("fit", "shepard_weight_vanished", '{"family": "shepard", "alpha": 30}')):
        files = {"n5.csv": SPAN_NODES_INPUT, "cfg.json": f'{{"l": 2, "weight": {weight}}}'}
        argv = [command, "--input", "n5.csv", "--config", "cfg.json", "--grid", "0.1:0.9:5",
                "--out", f"{command}.out"]
        yield "edge", f"{command}_{name}", argv, files, f"{command}.out"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[42])
    args = ap.parse_args()
    runs = [(str(seed), run) for seed in args.seeds for run in _seed_runs(seed)]
    runs += [("-", run) for run in _fixed_runs()]
    for seed, (workload, job, argv, files, out) in runs:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            (workdir / "taken").mkdir()  # the directory edge/out_is_directory writes to
            for name, text in files.items():
                data = text if isinstance(text, bytes) else text.encode("utf-8")
                (workdir / name).write_bytes(data)
            code, out_digest, err_digest = _run(argv, workdir, out)
        print(f"{workload} {seed} {job} exit={code} out={out_digest} err={err_digest}",
              flush=True)


if __name__ == "__main__":
    main()
