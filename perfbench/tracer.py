"""Spans around the library's public functions, recorded from outside it.

``Tracer.installed()`` replaces each watched function with a wrapper at
every place a ``mlscert`` module binds it (modules import by name, so
``bound1d`` holds its own ``build_system``), and methods on their class.
Each call records a span -- name, start, end, parent span, job id -- in
flat arrays; self time is a span's duration minus its children's.
Leaving the context restores every original binding.
"""

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from .workloads import SELFTEST_SUITES as SUITES

# (layer module, function or Class.method)
WATCHED = (
    ("points", "PointSet.from_csv"),
    ("points", "PointSet.distances"),
    ("weights", "WeightSpec.w"),
    ("bases", "BasisSpec.eval_at"),
    ("bases", "BasisSpec.eval_design"),
    ("bases", "BasisSpec.derivative_at"),
    ("core", "build_system"),
    ("core", "build_design"),
    ("core", "evaluate"),
    ("core", "check_hypotheses"),
    ("spectral", "build_operators"),
    ("spectral", "diagnose"),
    ("spectral", "check_sv_products"),
    ("spectral", "check_eig_products"),
    ("bound1d", "bound_constants"),
    ("bound1d", "certify_bound"),
    ("bound1d", "ode_rhs"),
    ("bound1d", "uniform_grid"),
    ("error_analysis", "amplification"),
    ("error_analysis", "minimax_fit"),
    ("error_analysis", "convergence_study"),
    ("instances", "random_instance"),
    ("instances", "random_h2_instance"),
    ("instances", "matrix_pair_suite"),
    ("reporting", "canonical_json"),
    ("reporting", "csv_text"),
    ("reporting", "atomic_write"),
    ("cli", "main"),
)
ROOT = "cli.main"
NO_PARENT = -1


def span_names() -> list:
    """Every span name, in report order."""
    names = [f"{layer}.{attr.split('.')[-1]}" for layer, attr in WATCHED]
    return names + [f"selftest.{s}" for s in SUITES]


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in order."""
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_s", f"{name}.total_s"]
    return out + [
        "core.build_system.raised",
        "instances.draws",
        "instances.accept_ratio",
        "error_analysis.minimax_fit.iterations",
        "selftest.ode.measured_ratio",
        "reporting.bytes",
        "trace.overhead_s",
        "trace.uncovered_share",
    ]


class Tracer:
    """In-memory span store plus the counters read off call results."""

    def __init__(self):
        self.names = span_names()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack = [NO_PARENT]
        self.job_id = NO_PARENT
        self.counters = {
            "core.build_system.raised": 0,
            "instances.draws": 0,
            "instances.accepted": 0,
            "error_analysis.minimax_fit.iterations": 0,
            "selftest.ode.measured": 0,
            "selftest.ode.drawn": 0,
            "reporting.bytes": 0,
        }
        self._observers = {
            "core.build_system": (None, self._count_raise),
            "instances.random_instance": (self._count_draws, None),
            "instances.random_h2_instance": (self._count_draws, None),
            "error_analysis.minimax_fit": (self._count_iterations, None),
            "selftest.ode": (self._count_ode, None),
            "reporting.atomic_write": (self._count_bytes, None),
        }

    # -- counters read off arguments and results ---------------------------
    def _count_raise(self, exc):
        self.counters["core.build_system.raised"] += 1

    def _count_draws(self, args, kwargs, result):
        self.counters["instances.draws"] += int(result.meta["attempts"])
        self.counters["instances.accepted"] += 1

    def _count_iterations(self, args, kwargs, result):
        self.counters["error_analysis.minimax_fit.iterations"] += int(result.iterations)

    def _count_ode(self, args, kwargs, result):
        self.counters["selftest.ode.measured"] += int(result["n_measured"])
        self.counters["selftest.ode.drawn"] += int(result["n_drawn"])

    def _count_bytes(self, args, kwargs, result):
        text = kwargs["text"] if "text" in kwargs else args[1]
        self.counters["reporting.bytes"] += len(text.encode("utf-8"))

    # -- wrapping -------------------------------------------------------------
    def wrap(self, name: str, fn):
        nid = self._ids[name]
        on_result, on_raise = self._observers.get(name, (None, None))
        stack = self._stack
        clock = time.perf_counter
        name_id, start, end, parent, job = (
            self.name_id, self.start, self.end, self.parent, self.job)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            job.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if on_raise is not None:
                    on_raise(exc)
                raise
            end[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every watched function for the duration of the block."""
        restore = []
        try:
            mods = _library_modules()
            for layer, attr in WATCHED:
                module = importlib.import_module(f"mlscert.{layer}")
                name = f"{layer}.{attr.split('.')[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__))
                    else:
                        new = self.wrap(name, raw)
                    restore.append((cls, meth, raw))
                    setattr(cls, meth, new)
                else:
                    orig = getattr(module, attr)
                    new = self.wrap(name, orig)
                    for mod in mods:
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                restore.append((mod, key, orig))
                                setattr(mod, key, new)
            selftest = importlib.import_module("mlscert.selftest")
            for suite in SUITES:
                orig = selftest._SUITES[suite]
                new = self.wrap(f"selftest.{suite}", orig)
                restore.append((selftest._SUITES, suite, orig))
                selftest._SUITES[suite] = new
                for key, val in list(vars(selftest).items()):
                    if val is orig:
                        restore.append((selftest, key, orig))
                        setattr(selftest, key, new)
            yield self
        finally:
            for owner, key, orig in reversed(restore):
                if isinstance(owner, dict):
                    owner[key] = orig
                else:
                    setattr(owner, key, orig)

    @contextmanager
    def job_scope(self, job_id: int):
        self.job_id = job_id
        try:
            yield
        finally:
            self.job_id = NO_PARENT

    # -- aggregation ----------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return dur - child

    def layer_metrics(self) -> dict:
        """Calls, self time and inclusive time per span name, plus counters.

        Inclusive time counts a recursive call's span once per level.
        """
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        self_s = np.bincount(a["name_id"], weights=self.self_times(), minlength=n)
        total_s = np.bincount(a["name_id"], weights=a["end"] - a["start"], minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.total_s"] = float(total_s[i])
        c = self.counters
        out["core.build_system.raised"] = c["core.build_system.raised"]
        out["instances.draws"] = c["instances.draws"]
        out["instances.accept_ratio"] = _ratio(c["instances.accepted"], c["instances.draws"])
        out["error_analysis.minimax_fit.iterations"] = c["error_analysis.minimax_fit.iterations"]
        out["selftest.ode.measured_ratio"] = _ratio(c["selftest.ode.measured"], c["selftest.ode.drawn"])
        out["reporting.bytes"] = c["reporting.bytes"]
        return out

    def covered(self, job_ids) -> np.ndarray:
        """Per job: time spent inside watched spans below the job's root span."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        roots = np.flatnonzero(a["name_id"] == self._ids[ROOT])
        under_root = np.isin(a["parent"], roots)
        per_job = np.bincount(a["job"][under_root], weights=dur[under_root],
                              minlength=max(job_ids, default=-1) + 1)
        return per_job[list(job_ids)]

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _ratio(num: int, den: int) -> float:
    """num/den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def _library_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if (k == "mlscert" or k.startswith("mlscert.")) and m is not None]
