"""The selftest reuses work without changing a report: instances keep the
system their generator solved, core and spectral share one draw per run,
ode and certificate one stream of 1-d instances, and the
finite-difference probes are solved in one batch."""

import numpy as np
import pytest

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


def _alone(name, seed):
    """The report of the suite ``name`` run on its own."""
    return selftest.run_selftest(seed, suites=(name,))["suites"][name]


def test_instance_keeps_the_generator_system():
    suite = instances.random_suite(20, 42) + instances.H2Stream(42).first(5)
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
        alone = _alone(name, 42)
        assert canonical_json(report["suites"][name]) == canonical_json(alone)


@pytest.mark.parametrize("seed", [42, 7])
def test_each_suite_alone_reports_what_the_full_run_reports(seed):
    full = selftest.run_selftest(seed)["suites"]
    for name in selftest.SUITE_NAMES:
        assert canonical_json(_alone(name, seed)) == canonical_json(full[name]), name


def test_an_unknown_suite_is_refused():
    with pytest.raises(ValueError, match=r"unknown suite 'nope'; choose from \('core', "):
        selftest.run_selftest(42, suites=("nope",))


def _ode_one_at_a_time(seed, tol):
    """The ode suite as a loop that draws and checks one instance at a
    time, the reference of its batched rounds."""
    rng = np.random.default_rng(seed)
    slopes, oracles, n_skipped, n_drawn = [], [], 0, 0
    while len(slopes) < selftest.ODE_TARGET and n_drawn < selftest.ODE_MAX_DRAWS:
        res = selftest._fd_slope(instances.random_h2_instance(rng), tol)
        n_drawn += 1
        if res["measurable"]:
            slopes.append(res["slope"])
            if res["oracle_rel"] is not None:
                oracles.append(res["oracle_rel"])
        else:
            n_skipped += 1
    lo, hi = selftest.FD_SLOPE_RANGE
    return {
        "n_measured": len(slopes), "n_skipped_at_floor": n_skipped, "n_drawn": n_drawn,
        "slope_min": min(slopes) if slopes else float("nan"),
        "slope_max": max(slopes) if slopes else float("nan"),
        "oracle_max_rel": max([0.0, *oracles]), "n_oracle": len(oracles),
        "pass": bool(len(slopes) >= selftest.ODE_TARGET
                     and all(lo <= x <= hi for x in slopes)
                     and max([0.0, *oracles]) <= tol.lin),
    }


_DRAW_H2 = instances._draw_h2


def _counting_h2_draws(monkeypatch, fail_at=None):
    """Count the 1-d candidate draws; the draw numbered ``fail_at`` (from
    1) raises."""
    calls = []

    def counted(rng, bases):
        calls.append(None)
        if len(calls) == fail_at:
            raise RuntimeError("draw past the end")
        return _DRAW_H2(rng, bases)

    monkeypatch.setattr(instances, "_draw_h2", counted)
    return calls


@pytest.mark.parametrize("seed", range(20))
def test_ode_and_certificate_share_one_draw_per_run(monkeypatch, seed):
    """One run draws one stream of 1-d instances: the certificate takes the
    first CERTIFICATE_N that ode drew and draws none itself.  Each suite's
    report is what it gives alone, and ode's is that of a loop drawing one
    instance at a time."""
    calls = _counting_h2_draws(monkeypatch)
    ode_alone = _alone("ode", seed)
    ode_draws = len(calls)
    assert ode_alone == _ode_one_at_a_time(seed, Tolerances())
    assert ode_alone["n_drawn"] >= selftest.CERTIFICATE_N
    cert_alone = _alone("certificate", seed)
    del calls[:]
    report = selftest.run_selftest(seed, suites=("ode", "certificate"))
    assert len(calls) == ode_draws
    for name, alone in (("ode", ode_alone), ("certificate", cert_alone)):
        assert canonical_json(report["suites"][name]) == canonical_json(alone)
    # nothing is kept between runs: the next run draws again
    selftest.run_selftest(seed, suites=("ode",))
    assert len(calls) == 2 * ode_draws


def test_certificate_first_draws_what_ode_continues():
    """Asked in the other order, the run draws the same stream."""
    first = selftest.run_selftest(3, suites=("certificate", "ode"))
    second = selftest.run_selftest(3, suites=("ode", "certificate"))
    assert canonical_json(first["suites"]) == canonical_json(second["suites"])


def test_a_draw_error_past_the_last_ode_instance_is_not_raised(monkeypatch):
    """ode draws in rounds of the slopes still missing, so it draws no
    candidate past the instance where a one-by-one loop stops: an error
    in the next draw is never raised."""
    calls = _counting_h2_draws(monkeypatch)
    ref = _ode_one_at_a_time(18, Tolerances())
    last = len(calls)
    assert ref["n_drawn"] < last  # a candidate was rejected
    _counting_h2_draws(monkeypatch, fail_at=last + 1)
    assert _alone("ode", 18) == ref
    _counting_h2_draws(monkeypatch, fail_at=last + 1)  # counts from 0 again
    report = selftest.run_selftest(18, suites=("ode", "certificate"))
    assert report["suites"]["ode"] == ref
    _counting_h2_draws(monkeypatch, fail_at=last)
    with pytest.raises(RuntimeError, match="draw past the end"):
        _alone("ode", 18)


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


@pytest.mark.parametrize("seed", [741421, 797933])
def test_core_scale_check_is_relative_to_the_coefficients(seed):
    """At these seeds an ill-conditioned instance moves a(x) by more than
    1e-10 absolute when its weights are rescaled, yet by under 1e-12 of
    max(1, ||a||), the forward error both solves allow: core passes."""
    res = _alone("core", seed)
    assert res["pass"]
    assert res["worst_scale_invariance"] <= Tolerances().norm_chain


@pytest.mark.parametrize("seed", [3, 9, 53, 773817])
def test_ode_floor_carries_the_conditioning(seed):
    """With the roundoff floor scaled by sqrt(cond_gram), no h = 1e-5
    point on the floor drags a slope out of range, and the product-rule
    oracle agrees with ``ode_rhs`` within ``tol.lin``."""
    res = _alone("ode", seed)
    lo, hi = selftest.FD_SLOPE_RANGE
    assert res["pass"]
    assert lo <= res["slope_min"] and res["slope_max"] <= hi
    assert 0 < res["n_oracle"] <= res["n_measured"]
    assert res["oracle_max_rel"] <= Tolerances().lin


def test_ode_oracle_catches_a_perturbed_rhs(monkeypatch):
    """An ``ode_rhs`` off by 1e-6 relative is caught by the oracle alone,
    whatever the slopes say."""
    rhs = bound1d.ode_rhs
    monkeypatch.setattr(bound1d, "ode_rhs", lambda *args: rhs(*args) * (1.0 + 1e-6))
    res = _alone("ode", 42)
    assert res["oracle_max_rel"] > 1e-7 > Tolerances().lin
    assert not res["pass"]
