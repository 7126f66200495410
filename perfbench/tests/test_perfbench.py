"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

They run the library on small job subsets only; no timing is asserted.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, harness, hostspeed, tracer as tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
CLI = harness.import_cli()

from mlscert.bases import monomial_basis  # noqa: E402  (import_cli puts src/ on the path)
from mlscert.core import evaluate  # noqa: E402
from mlscert.points import PointSet  # noqa: E402
from mlscert.weights import WeightSpec  # noqa: E402


def _cheap(workload, seed, n):
    """The n cheapest jobs of a workload, plus its known-failure jobs."""
    jobs = workloads.make_jobs(workload, seed)
    picked = sorted((j for j in jobs if not j.ledger), key=lambda j: j.size)[:n]
    return picked + [j for j in jobs if j.ledger]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload, tmp_path):
    def files(seed, sub):
        jobs = workloads.make_jobs(workload, seed)
        workloads.write_inputs(jobs, tmp_path / sub)
        listing = {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}
        return [(j.name, j.options, j.ledger, j.points) for j in jobs], listing

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == harness.END_TO_END_UNITS[m["name"]]
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    for m in spec["per_layer"]:
        assert m["unit"] == harness.layer_unit(m["name"])


@pytest.mark.parametrize("family,alpha,l,x", [
    ("exp", 3.0, 2, 0.37),
    ("exp", 400.0, 3, 0.52),  # far weights overflow to inf
    ("shepard", 0.8, 2, 0.41),
    ("shepard", 0.8, 2, None),  # at a node: interpolation limit
    ("levin", 1.5, 3, 0.63),
])
def test_oracle_agrees_with_core_evaluate_1d(family, alpha, l, x):
    rng = np.random.default_rng(0)
    nodes = workloads._nodes_1d(rng, 12)
    values = np.sin(4 * nodes[:, 0])
    x = nodes[5, 0] if x is None else x
    a, node = checks.coefficients(x, nodes, family, alpha, l)
    got = evaluate(x, PointSet(nodes, values), monomial_basis(l), WeightSpec(family, alpha))
    if node is not None:
        assert got == values[node]
    assert got == pytest.approx(float(a @ values), rel=1e-10, abs=1e-12)
    assert np.sum(a) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("l", [3, 6])
def test_oracle_agrees_with_core_evaluate_2d(l):
    nodes = workloads._nodes_2d(np.random.default_rng(1), 5)
    values = np.cos(nodes[:, 0]) + nodes[:, 1] ** 2
    pts, basis, weight = PointSet(nodes, values), monomial_basis(l, 2), WeightSpec("exp", 20.0)
    for x in ([0.33, 0.61], [0.5, 0.5]):
        a, _ = checks.coefficients(np.array(x), nodes, "exp", 20.0, l)
        assert evaluate(np.array(x), pts, basis, weight) == pytest.approx(
            float(a @ values), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("failing,expected", [
    (["ode"], True),
    (["core"], True),
    (["core", "ode"], True),
    (["ode", "certificate"], False),
])
def test_judge_accepts_only_ledger_failures_of_selftest(failing, expected):
    job = workloads.selftest_jobs(0)[0]
    suites = {s: {"pass": s not in failing} for s in checks.SUITES}
    report = json.dumps({"seed": job.spec["seed"], "suites": suites, "pass": False})
    stderr = "".join(f"[FAIL] {s}\n" for s in failing)
    v = checks.judge(job, 5, stderr, report)
    assert (v.ok, v.expected) == (False, expected)
    assert not checks.judge(job, 3, "", None).expected


def test_fit_check_catches_a_wrong_value(tmp_path):
    job = _cheap("fit", 3, 1)[0]
    workloads.write_inputs([job], tmp_path)
    ex = harness.execute(CLI, job, 0, tmp_path)
    assert checks.judge(job, ex.code, ex.stderr, ex.text).ok
    header, rows = checks._table(ex.text, job.fmt)
    rows[1][job.spec["dim"]] += 1e-6
    bad = json.dumps({"columns": header, "rows": rows})
    job.fmt = "json"
    assert not checks.judge(job, 0, "", bad).expected


def test_end_to_end_uses_corrected_latencies():
    jobs = workloads.bound_jobs(0)[:2]
    execs = []
    for k, corrected in ((0, 0.3), (1, 0.5), (0, 0.2), (1, 0.7), (0, 0.1)):
        ex = harness.Execution(k, 9.0, 0, "", "d", "out")
        ex.corrected = corrected
        execs.append(ex)
    verdicts = {0: checks.Verdict(True, True), 1: checks.Verdict(True, True)}
    m = harness.end_to_end(jobs, execs, verdicts, [1.0, 3.0, 2.0], 40.0)
    assert m["wall_s"] == pytest.approx(0.2 + 0.6)
    assert m["job_p50_s"] == pytest.approx(0.4)
    assert m["job_p90_s"] == pytest.approx(0.2 + 0.9 * 0.4)
    assert m["points_per_s"] == pytest.approx((jobs[0].points + jobs[1].points) / 0.8)
    assert m["setup_s"] == 2.0


def test_host_speed_correction_removes_kernel_time_and_scales():
    speed = hostspeed.Sampler()

    class Fake:
        latency, start, end = 0.5, 0.0, 0.0

    def run():
        ex = Fake()
        ex.start = time.perf_counter()
        speed.sample()  # as if the timer fired during the job
        while time.perf_counter() - ex.start < 0.05:
            pass
        ex.end = time.perf_counter()
        ex.latency = ex.end - ex.start
        return ex

    ex = speed.timed(run)
    stolen = speed.samples[1][1]
    mean = sum(d for _, d in speed.samples) / 3
    assert len(speed.samples) == 3
    assert ex.corrected == pytest.approx((ex.latency - stolen) * hostspeed.NOMINAL_S / mean)
    with speed.running(period=0.01):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
    assert len(speed.samples) > 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("seed", [0, 11, 2024])
def test_known_failures_fail_as_the_ledger_says(seed, tmp_path):
    jobs = [j for j in workloads.fit_jobs(seed) if j.ledger]
    workloads.write_inputs(jobs, tmp_path)
    for k, job in enumerate(jobs):
        ex = harness.execute(CLI, job, k, tmp_path)
        v = checks.judge(job, ex.code, ex.stderr, ex.text)
        assert v.expected, (job.name, v.detail)
        if job.spec["grid"] in ("N", "2d"):  # these fail on every seed today
            assert not v.ok, job.name


def _traced_pass(jobs, workdir):
    tr = tracing.Tracer()
    with tr.installed():
        execs = harness.one_pass(CLI, jobs, workdir, tr)
    return tr, execs


def test_traced_and_untraced_runs_write_identical_outputs(tmp_path):
    jobs = _cheap("fit", 5, 4) + _cheap("bound", 5, 2)
    workloads.write_inputs(jobs, tmp_path)
    plain = harness.one_pass(CLI, jobs, tmp_path)
    _, traced = _traced_pass(jobs, tmp_path)
    assert [(e.code, e.digest) for e in plain] == [(e.code, e.digest) for e in traced]
    verdicts, problems = harness.judge_all(jobs, plain + traced)
    assert problems == []


def test_call_counts_repeat_exactly_and_bindings_are_restored(tmp_path):
    jobs = _cheap("fit", 9, 3) + _cheap("bound", 9, 1)
    workloads.write_inputs(jobs, tmp_path)
    first, _ = _traced_pass(jobs, tmp_path)
    second, _ = _traced_pass(jobs, tmp_path)
    calls = [{k: v for k, v in t.layer_metrics().items() if not k.endswith("_s")}
             for t in (first, second)]
    assert calls[0] == calls[1]
    assert calls[0]["cli.main.calls"] == len(jobs)
    assert calls[0]["bound1d.bound_constants.calls"] == 1
    for mod in tracing._library_modules():
        for key, val in vars(mod).items():
            assert not hasattr(val, "__wrapped__"), f"{mod.__name__}.{key} still wrapped"
    assert not hasattr(PointSet.distances, "__wrapped__")


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    outer = tr.wrap("cli.main", lambda f: f())
    inner = tr.wrap("core.build_system", lambda: sum(range(10000)))
    with tr.job_scope(0):
        outer(inner)
    a = tr.arrays()
    dur = a["end"] - a["start"]
    assert list(a["parent"]) == [-1, 0]
    assert tr.self_times() == pytest.approx([dur[0] - dur[1], dur[1]])
    assert tr.covered([0]) == pytest.approx([dur[1]])


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no mlscert sources" in proc.stderr
