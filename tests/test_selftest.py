"""The selftest reuses work without changing a report: instances keep the
system their generator solved, core and spectral share one draw per run,
and the finite-difference probes are solved in one batch."""

import numpy as np

from mlscert import bound1d, instances, selftest
from mlscert.config import Tolerances
from mlscert.core import build_system
from mlscert.reporting import canonical_json
from mlscert.spectral import build_operators


def _same_system(a, b):
    for name in ("x", "design", "dvec", "basis_at_x", "coeffs", "qmat", "rmat"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert repr(a.cond_gram) == repr(b.cond_gram)
    assert a.at_node == b.at_node


def test_instance_keeps_the_generator_system():
    suite = instances.random_suite(20, 42) + instances.h2_suite(5, 42)
    for it in suite:
        assert it.system() is it.solved
        fresh = build_system(it.x, it.points, it.basis, it.weight)
        _same_system(it.system(), fresh)
    bare = instances.Instance(it.points, it.basis, it.weight, it.x)
    _same_system(bare.system(), it.solved)


def test_core_and_spectral_share_one_draw_per_run(monkeypatch):
    calls = []
    draw = instances.random_suite

    def counted(n, seed, **kw):
        calls.append((n, seed))
        return draw(n, seed, **kw)

    monkeypatch.setattr(selftest.instances, "random_suite", counted)
    report = selftest.run_selftest(42, suites=("core", "spectral"))
    assert calls == [(selftest.GENERAL_N, 42)]
    # nothing is kept between runs: the next run draws again
    selftest.run_selftest(42, suites=("spectral",))
    assert calls == [(selftest.GENERAL_N, 42)] * 2
    selftest.run_selftest(42, suites=("sv_product",))
    assert len(calls) == 2
    # the shared draw gives the reports each suite gives on its own
    for name in ("core", "spectral"):
        alone = selftest.run_suite(name, 42)
        assert canonical_json(report["suites"][name]) == canonical_json(alone)


def test_fd_probes_match_point_by_point_solves():
    """The batched +-h probes give the errors of one solve per probe."""
    rng = np.random.default_rng(3)
    for _ in range(8):
        it = instances.random_h2_instance(rng)
        pts, basis, weight, x = it.points, it.basis, it.weight, it.x
        sysm = build_system(x, pts, basis, weight)
        rhs = bound1d.ode_rhs(sysm, build_operators(sysm), pts, basis, weight.alpha)
        ref = []
        for h in selftest.FD_BATTERY:
            ap = build_system(x + h, pts, basis, weight).coeffs
            am = build_system(x - h, pts, basis, weight).coeffs
            ref.append(float(np.linalg.norm((ap - am) / (2.0 * h) - rhs)))
        assert repr(selftest._fd_slope(it, Tolerances())["errs"]) == repr(ref)
