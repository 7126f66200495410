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
  whose P - I is exactly 0;
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
  malformed record's line.  Each of these exits 2.  Per seed, ``edge``
  also runs the first ``fit`` job on a copy of its input that starts with
  a UTF-8 byte-order mark; it exits 0 with that job's own output.

Paths are relative to the run's directory, so messages that name a file
read the same in every checkout.
"""

import argparse
import hashlib
import json
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
                (workdir / name).write_text(text, encoding="utf-8")
            code, out_digest, err_digest = _run(argv, workdir, out)
        print(f"{workload} {seed} {job} exit={code} out={out_digest} err={err_digest}",
              flush=True)


if __name__ == "__main__":
    main()
