"""Host-speed correction for job latencies.

The benchmark runs on cores shared with other tenants.  Their load makes
stretches of seconds to minutes run up to twice as slow, in CPU time as much
as in wall time, so a raw latency measures the neighbours as much as the
program.  A fixed calibration kernel of the same kind of work as the library
(small weighted least-squares solves driven from Python, no ``mlscert``
code) is timed every ``PERIOD_S`` seconds from a ``SIGALRM`` handler, and
once before and after each job; each set-up probe samples itself the same
way.  A job's corrected latency is its raw
latency, minus the kernel time spent inside it, scaled by
``NOMINAL_S / (mean kernel time over the job)``: seconds on a core where the
kernel takes ``NOMINAL_S``.  The kernel belongs to the benchmark, so a
change to the library moves corrected latencies as much as raw ones.
"""

import contextlib
import signal
import time

import numpy as np

#: the unit of a corrected second: the kernel's time on an uncontended core
NOMINAL_S = 1e-3
#: interval between kernel samples taken while a job runs
PERIOD_S = 0.1

_rng = np.random.default_rng(0)
_NODES = _rng.uniform(0.0, 1.0, 40)
_VALUES = np.sin(3.0 * _NODES)
_POINTS = np.linspace(0.0, 1.0, 45)


def kernel() -> float:
    """The calibration work: one local quadratic fit per point."""
    total = 0.0
    for x in _POINTS:
        r = _NODES - x
        w = np.exp(-4.0 * r * r)
        v = np.vander(r, 3, increasing=True)
        gram = v.T @ (w[:, None] * v)
        total += float(np.linalg.solve(gram, v.T @ (w * _VALUES))[0])
    return total


def correct(elapsed: float, kernel_s: float) -> float:
    """``elapsed`` seconds, measured while the kernel took ``kernel_s``,
    in corrected seconds."""
    return elapsed * NOMINAL_S / kernel_s


class Sampler:
    """Kernel timings as (start, duration), on a timer and on demand."""

    def __init__(self):
        self.samples = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # the timer fired inside a sample
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            self._busy = False

    @contextlib.contextmanager
    def running(self, period: float = PERIOD_S):
        """Sample every ``period`` seconds for the duration of the block."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)

    def timed(self, run):
        """Call ``run()``, which returns an object with ``start``, ``end`` and
        ``latency``, between two samples; set its ``corrected`` latency."""
        first = len(self.samples)
        self.sample()
        ex = run()
        self.sample()
        around = self.samples[first:]
        stolen = sum(d for s, d in around if ex.start <= s < ex.end)
        ex.corrected = correct(ex.latency - stolen, float(np.mean([d for _, d in around])))
        return ex
