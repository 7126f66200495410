"""Closed-loop job runner, metrics and run record.

One client, one process: each job is an in-process ``mlscert.cli.main(argv)``
call and the next starts when it returns.  Output checks, file reads and
bookkeeping happen outside the span a job's latency covers.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checks, hostspeed, tracer as tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench" / "_runs"
SETUP_PROBES = 9
#: every job runs at least this often in a timed run
MIN_REPEATS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# spans the workload design says a workload never enters
BYPASSES = {
    "fit": ("bound1d.bound_constants", "bound1d.certify_bound", "bound1d.ode_rhs",
            "spectral.", "instances.", "error_analysis.minimax_fit"),
    "bound": ("instances.",),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """Import ``mlscert.cli`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mlscert" / "__init__.py").is_file():
        raise BenchError(f"no mlscert sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mlscert.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported mlscert from {cli.__file__}, not from {src}")
    return cli


@dataclass
class Execution:
    job: int
    latency: float
    code: int | None
    stderr: str
    digest: str
    text: str | None
    start: float = 0.0
    end: float = 0.0
    corrected: float | None = None  # latency at nominal host speed (hostspeed)


def execute(cli, job, index: int, workdir: Path) -> Execution:
    argv = job.argv(workdir)
    out = job.out_path(workdir)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else None
    except Exception:
        code = None
        err.write(traceback.format_exc())
    t1 = time.perf_counter()
    text = out.read_text(encoding="utf-8") if out.exists() else None
    digest = hashlib.sha256((text or "").encode()).hexdigest()
    return Execution(index, t1 - t0, code, err.getvalue(), digest, text, t0, t1)


def prepare(workload: str, seed: int, workdir: Path):
    """Set-up: import the library, write the seeded inputs, run the warm-up job."""
    cli = import_cli()
    jobs = workloads.make_jobs(workload, seed)
    workloads.write_inputs(jobs, workdir)
    execute(cli, workloads.warmup_job(workload, jobs), -1, workdir)
    return cli, jobs


def setup_probe(workload: str, seed: int) -> int:
    """Body of one set-up measurement, run in a fresh interpreter.

    Prints ``ready`` and the kernel times it sampled (see ``hostspeed``).
    """
    workdir = RUNS / f"probe-{workload}-{os.getpid()}"
    speed = hostspeed.Sampler()
    try:
        with speed.running():
            prepare(workload, seed, workdir)
            speed.sample()
        print("ready", json.dumps([d for _, d in speed.samples]), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> list:
    """Interpreter start to end of warm-up, in fresh processes, one at a time,
    in corrected seconds: each process samples the host's speed itself."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        word, _, samples = line.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
        kernel_s = json.loads(samples)
        # the median: a sample can straddle a switch in the host's speed
        times.append(hostspeed.correct(elapsed - sum(kernel_s), statistics.median(kernel_s)))
    return times


def timed_loop(cli, jobs, workdir: Path, seconds: float) -> tuple:
    """Cycle through the job list until ``seconds`` have passed and every job
    ran at least ``MIN_REPEATS`` times, sampling the host's speed throughout.

    Returns the executions and the kernel samples, as (start, duration).
    """
    execs = []
    speed = hostspeed.Sampler()
    t0 = time.perf_counter()
    i = 0
    with speed.running():
        while i < MIN_REPEATS * len(jobs) or time.perf_counter() - t0 < seconds:
            k = i % len(jobs)
            execs.append(speed.timed(lambda: execute(cli, jobs[k], k, workdir)))
            if i >= len(jobs):
                execs[-1].text = None  # repeats are compared by digest; memory stays flat
            i += 1
    return execs, speed.samples


def one_pass(cli, jobs, workdir: Path, tracer=None) -> list:
    execs = []
    for k, job in enumerate(jobs):
        if tracer is None:
            execs.append(execute(cli, job, k, workdir))
        else:
            with tracer.job_scope(k):
                execs.append(execute(cli, job, k, workdir))
    return execs


def judge_all(jobs, execs) -> tuple:
    """Verdict per job (first execution), plus problems found in any execution.

    Every repeat of a job must exit the same way and write the same bytes.
    """
    first, problems = {}, []
    for ex in execs:
        if ex.job not in first:
            first[ex.job] = ex
        elif (ex.code, ex.digest) != (first[ex.job].code, first[ex.job].digest):
            problems.append(f"{jobs[ex.job].name}: a repeat wrote different output")
    verdicts = {}
    for k, ex in first.items():
        v = checks.judge(jobs[k], ex.code, ex.stderr, ex.text)
        verdicts[k] = v
        if not v.expected:
            problems.append(f"{jobs[k].name}: {v.detail}")
    return verdicts, problems


def end_to_end(jobs, execs, verdicts, setup_times, peak_rss_mb) -> dict:
    """Time figures from corrected latencies (see ``hostspeed``)."""
    by_job = {}
    for ex in execs:
        by_job.setdefault(ex.job, []).append(ex.corrected)
    # each job at its median; percentiles over the pass's jobs, since pooled
    # executions put p50 at the boundary between two jobs' repeat groups
    latencies = [statistics.median(v) for v in by_job.values()]
    wall = sum(latencies)  # time of one pass
    texts = {}
    for ex in execs:
        texts.setdefault(ex.job, ex.text)  # repeats are byte-identical
    # a selftest whose failing suites are in the ledger still writes its report
    points = sum(checks.outcome_points(jobs[k], texts[k])
                 for k, v in verdicts.items() if v.expected and texts[k] is not None)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "job_p50_s": float(np.percentile(latencies, 50)),
        "job_p90_s": float(np.percentile(latencies, 90)),
        "points_per_s": points / wall,
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(workload, tracer, untraced, traced) -> tuple:
    out = tracer.layer_metrics()
    lat = np.array([ex.latency for ex in traced])
    covered = tracer.covered([ex.job for ex in traced])
    uncovered = lat - covered
    out["trace.overhead_s"] = float(lat.sum() - sum(ex.latency for ex in untraced))
    out["trace.uncovered_share"] = float(uncovered.sum() / lat.sum())
    problems = [
        f"bypass broken: {name} ran {out[name]} times on {workload}"
        for name in out
        if name.endswith(".calls") and out[name]
        and name.startswith(BYPASSES.get(workload, ()))
    ]
    return out, problems, uncovered / lat


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name == "reporting.bytes":
        return "bytes"
    return "count"


def run_record(workload: str, seed: int, seconds: float, trace: int, jobs) -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "load": "closed loop, one client, one process",
        "jobs_per_pass": len(jobs),
        "inputs": [
            {"job": j.name, "command": j.command, "nodes": j.spec.get("m"),
             "points": j.points, "ledger": j.ledger}
            for j in jobs
        ],
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable: {exc}"
    return out.stdout.strip() or f"unavailable: {out.stderr.strip()}"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {workloads.WORKLOADS}")
    import_cli()  # fail before spending time on set-up probes
    setup_times = measure_setup(workload, seed) if trace == 0 else []
    RUNS.mkdir(parents=True, exist_ok=True)
    workdir = RUNS / f"work-{workload}-{os.getpid()}"
    try:
        cli, jobs = prepare(workload, seed, workdir)
        if trace == 0:
            execs, kernel = timed_loop(cli, jobs, workdir, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            verdicts, problems = judge_all(jobs, execs)
            metrics = end_to_end(jobs, execs, verdicts, setup_times, peak_rss_mb)
            units = END_TO_END_UNITS
            kernel_s = [d for _, d in kernel]
            extra = {
                "setup_samples_s": setup_times,
                "job_latency_s": {job.name: [ex.latency for ex in execs if ex.job == k]
                                  for k, job in enumerate(jobs)},
                "job_corrected_s": {job.name: [ex.corrected for ex in execs if ex.job == k]
                                    for k, job in enumerate(jobs)},
                "kernel_s": {"nominal": hostspeed.NOMINAL_S, "samples": len(kernel_s),
                             "min": min(kernel_s), "median": statistics.median(kernel_s),
                             "max": max(kernel_s)},
            }
        else:
            untraced = one_pass(cli, jobs, workdir)
            tr = tracing.Tracer()
            with tr.installed():
                traced = one_pass(cli, jobs, workdir, tr)
            execs = untraced + traced
            verdicts, problems = judge_all(jobs, execs)
            metrics, bypass, per_job = layer_metrics(workload, tr, untraced, traced)
            problems += bypass
            units = {name: layer_unit(name) for name in metrics}
            tr.save(RUNS / f"{workload}-seed{seed}.spans.npz")
            extra = {"uncovered_share_per_job": dict(zip((j.name for j in jobs), per_job.tolist()))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # one count per job of the pass: repeats must agree with the first run
    # (judge_all), and counting them would tie the figures to the run's speed
    attempted = len(verdicts)
    failed = sum(1 for v in verdicts.values() if not v.ok)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "record": run_record(workload, seed, seconds, trace, jobs),
        "result": result,
        "fail_ratio": failed / attempted,
        "executions": len(execs),
        "failures": {jobs[k].name: v.detail for k, v in verdicts.items() if not v.ok},
        "problems": problems,
        **extra,
    }
    (RUNS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"{workload}: {attempted} jobs run {len(execs)} times, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f}), correct={not problems}")
    return result
