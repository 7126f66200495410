import hashlib

import numpy as np
import pytest

from mlscert import core, instances as inst
from mlscert.bases import monomial_basis
from mlscert.core import ConditioningError, HypothesisFailure
from mlscert.points import PointSet
from mlscert.reporting import canonical_json
from mlscert.weights import WeightSpec


def test_suite_deterministic():
    a = inst.random_suite(10, 42)
    b = inst.random_suite(10, 42)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.points.nodes, y.points.nodes)
        assert x.meta == y.meta


def test_suite_seed_sensitivity():
    a = inst.random_suite(5, 1)
    b = inst.random_suite(5, 2)
    assert any(
        not np.array_equal(x.points.nodes, y.points.nodes) for x, y in zip(a, b)
    )


def test_conditioning_caps():
    for it in inst.random_suite(60, 7):
        assert it.meta["cond_gram"] <= inst.GRAM_COND_CAP
        assert it.meta["cond_d"] <= inst.DIAG_COND_CAP


def test_shape_ranges_and_separation():
    suite = inst.random_suite(80, 3)
    for it in suite:
        m, l = it.meta["m"], it.meta["l"]
        assert 2 <= m <= 10 and 1 <= l <= min(m, 5)
        nodes = np.sort(it.points.nodes.ravel())
        assert np.min(np.diff(nodes)) >= inst.NODE_MIN_SEP
        assert np.min(np.abs(it.points.nodes.ravel() - it.x)) >= inst.X_NODE_MARGIN


def test_family_mix_is_used():
    fams = {it.meta["family"] for it in inst.random_suite(120, 42)}
    assert fams == {"exp", "shepard", "mclain", "levin"}


def test_instances_solve():
    it = inst.random_suite(1, 0)[0]
    sysm = it.system()
    assert sysm.coeffs.shape == (it.meta["m"],)
    assert abs(sysm.coeffs.sum() - 1.0) <= 1e-9


def test_h2_suite_properties():
    suite = inst.h2_suite(20, 11)
    for it in suite:
        assert it.meta["family"] == "exp"
        assert it.meta["m"] <= 9 and it.meta["l"] <= 4
        nodes = it.points.nodes.ravel()
        assert np.all(np.diff(nodes) > 0)
        assert 0.1 <= it.meta["alpha"] <= 2.0


def test_matrix_pair_kinds():
    pairs = inst.matrix_pair_suite(60, 5)
    kinds = {p["kind"] for p in pairs}
    assert kinds == {"v_pd", "v_psd_singular", "both_pd"}
    for p in pairs:
        umat, vmat = p["umat"], p["vmat"]
        assert umat.shape == vmat.shape
        assert umat.shape[0] <= 6
        np.testing.assert_allclose(umat, umat.T, atol=1e-12)
        np.testing.assert_allclose(vmat, vmat.T, atol=1e-12)
        v_eigs = np.linalg.eigvalsh(vmat)
        if p["kind"] == "v_psd_singular":
            assert v_eigs.min() >= -1e-12
            assert np.sum(np.abs(v_eigs) <= 1e-10) >= 1
        else:
            assert v_eigs.min() > 0
        if p["kind"] == "both_pd":
            assert np.linalg.eigvalsh(umat).min() > 0


def test_matrix_pairs_deterministic():
    a = inst.matrix_pair_suite(8, 9)
    b = inst.matrix_pair_suite(8, 9)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x["umat"], y["umat"])
        np.testing.assert_array_equal(x["vmat"], y["vmat"])


def _per_pair_suite(n, seed):
    """Reference: every pair drawn and orthogonalized on its own, one QR
    per matrix, as the suite did before its QRs were stacked."""
    rng = np.random.default_rng(seed)

    def symmetric(m, lo, hi, n_zero=0):
        eigs = rng.uniform(lo, hi, size=m)
        eigs[:n_zero] = 0.0
        rng.shuffle(eigs)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        return q @ np.diag(eigs) @ q.T

    out = []
    for _ in range(n):
        m = int(rng.integers(1, inst.PAIR_M_MAX + 1))
        u = float(rng.uniform())
        if u < 0.4:
            kind, umat, vmat = "v_pd", symmetric(m, -2.0, 3.0), symmetric(m, 0.1, 3.0)
        elif u < 0.7:
            kind, umat = "v_psd_singular", symmetric(m, -2.0, 3.0)
            n_zero = 1 if m == 1 else int(rng.integers(1, m))
            vmat = symmetric(m, 0.1, 3.0, n_zero)
        else:
            kind, umat, vmat = "both_pd", symmetric(m, 0.05, 2.0), symmetric(m, 0.1, 3.0)
        out.append({"umat": umat, "vmat": vmat, "kind": kind, "m": m})
    return out


@pytest.mark.parametrize("n,seed", [(1, 0), (1, 17), (60, 5), (200, 42)])
def test_matrix_pair_suite_matches_per_pair_draws(n, seed):
    """One stacked QR per matrix size gives every pair bit for bit."""
    got = inst.matrix_pair_suite(n, seed)
    ref = _per_pair_suite(n, seed)
    assert [(p["kind"], p["m"]) for p in got] == [(p["kind"], p["m"]) for p in ref]
    for p, q in zip(got, ref):
        assert p["umat"].tobytes() == q["umat"].tobytes()
        assert p["vmat"].tobytes() == q["vmat"].tobytes()
        assert p["umat"].shape == q["umat"].shape == (p["m"], p["m"])


def test_meta_records_rejections():
    suite = inst.random_suite(40, 42)
    assert all(it.meta["attempts"] >= 1 for it in suite)


# --- the batched draw against one candidate at a time -------------------------


def _one_at_a_time(rng, h2: bool) -> inst.Instance:
    """Reference: draw a candidate, solve it on its own, accept or redraw,
    as the generators did before their solves were stacked."""
    for attempt in range(1, inst.MAX_ATTEMPTS + 1):
        if h2:
            m = int(rng.integers(inst.H2_M_RANGE[0], inst.H2_M_RANGE[1] + 1))
            l = int(rng.integers(1, min(m, inst.H2_L_MAX) + 1))
            family = "exp"
            alpha = inst._log_uniform(rng, *inst.H2_ALPHA_RANGE)
            nodes = inst._sample_nodes(rng, m, inst.H2_NODE_MIN_SEP)
        else:
            m = int(rng.integers(inst.M_RANGE[0], inst.M_RANGE[1] + 1))
            l = int(rng.integers(1, min(m, inst.L_MAX) + 1))
            family = inst._pick_family(rng)
            alpha = inst._log_uniform(rng, *inst.ALPHA_RANGE)
            nodes = inst._sample_nodes(rng, m, inst.NODE_MIN_SEP)
        x = inst._sample_x(rng, nodes, inst.X_NODE_MARGIN)
        points = PointSet(nodes, values=inst._smooth_values(rng, nodes))
        basis, weight = monomial_basis(l), WeightSpec(family, alpha)
        try:
            sysm = inst.build_system(x, points, basis, weight)
        except (ConditioningError, HypothesisFailure):
            continue
        meta = {"m": m, "l": l, "family": family, "alpha": alpha,
                "cond_gram": float(sysm.cond_gram)}
        if sysm.cond_gram > inst.GRAM_COND_CAP:
            continue
        if not h2:
            meta["cond_d"] = float(np.max(sysm.dvec) / np.min(sysm.dvec))
            if meta["cond_d"] > inst.DIAG_COND_CAP:
                continue
        meta["attempts"] = attempt
        return inst.Instance(points, basis, weight, x, meta=meta, solved=sysm)
    what = "1-d bound instance" if h2 else "instance"
    raise RuntimeError(f"no acceptable {what} after {inst.MAX_ATTEMPTS} attempts")


def _assert_same_instance(got, ref):
    assert got.meta == ref.meta
    assert repr(got.x) == repr(ref.x)
    assert (got.basis, got.weight) == (ref.basis, ref.weight)
    for name in ("nodes", "values"):
        assert getattr(got.points, name).tobytes() == getattr(ref.points, name).tobytes()
    a, b = got.solved, ref.solved
    for name in ("x", "design", "dvec", "basis_at_x", "coeffs", "qmat", "rmat"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert repr(a.cond_gram) == repr(b.cond_gram)
    assert a.at_node == b.at_node


def _suite_and_rng(monkeypatch, suite_fn, n, seed):
    """``suite_fn(n, seed)`` and the generator it drew from."""
    made = []
    default_rng = np.random.default_rng

    def recording(s):
        made.append(default_rng(s))
        return made[-1]

    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", recording)
        suite = suite_fn(n, seed)
    return suite, made[0]


_SUITES = {"general": (inst.random_suite, False), "h2": (inst.h2_suite, True)}


@pytest.mark.parametrize("kind,n,seed", [
    ("general", 1, 0), ("general", 30, 3), ("general", 200, 42),
    ("h2", 1, 0), ("h2", 20, 42), ("h2", 60, 5),
])
def test_batched_draw_matches_one_at_a_time(monkeypatch, kind, n, seed):
    """Drawing a round first and solving it per shape gives every instance
    bit for bit, and leaves the generator where the one-by-one loop does."""
    suite_fn, h2 = _SUITES[kind]
    got, rng = _suite_and_rng(monkeypatch, suite_fn, n, seed)
    ref_rng = np.random.default_rng(seed)
    ref = [_one_at_a_time(ref_rng, h2) for _ in range(n)]
    assert len(got) == n
    for a, b in zip(got, ref):
        _assert_same_instance(a, b)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("asks", [(1, 1, 5, 20), (20, 3, 24), (7, 60)])
def test_h2_stream_asked_in_pieces_is_one_stream(asks):
    """``H2Stream.first(n)`` gives the first n one-by-one draws, however
    it was asked before, and leaves the generator after the n-th."""
    stream = inst.H2Stream(5)
    ref_rng = np.random.default_rng(5)
    ref = []
    for n in asks:
        got = stream.first(n)
        ref += [_one_at_a_time(ref_rng, True) for _ in range(n - len(ref))]
        assert len(got) == n
        for a, b in zip(got, ref):
            _assert_same_instance(a, b)
        assert stream._rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("h2", [False, True])
def test_single_draws_share_the_stream(h2):
    """``random_instance`` and ``random_h2_instance`` are the one-instance
    case: successive calls on one generator see the reference's stream."""
    draw = inst.random_h2_instance if h2 else inst.random_instance
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(15):
        _assert_same_instance(draw(rng), _one_at_a_time(ref_rng, h2))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("kind", ["general", "h2"])
def test_low_gram_cap_rejects_whole_groups(monkeypatch, kind):
    """With a cap that most candidates miss, whole shape groups are
    rejected and several rounds run; the instances do not change."""
    monkeypatch.setattr(inst, "GRAM_COND_CAP", 30.0)
    suite_fn, h2 = _SUITES[kind]
    got = suite_fn(40, 8)
    ref_rng = np.random.default_rng(8)
    ref = [_one_at_a_time(ref_rng, h2) for _ in range(40)]
    assert max(it.meta["attempts"] for it in ref) > 3
    for a, b in zip(got, ref):
        _assert_same_instance(a, b)


@pytest.mark.parametrize("kind", ["general", "h2"])
def test_failing_group_solves_are_replayed(monkeypatch, kind):
    """A low conditioning limit makes stacked solves raise; each such group
    is solved again from after its failing candidate, and the instances do
    not change."""
    monkeypatch.setattr(core, "COND_LIMIT", 1e3)
    failed = []
    stacked = inst.build_rows

    def counted(*args, **kwargs):
        try:
            yield from stacked(*args, **kwargs)
        except core.MlsError:
            failed.append(args)
            raise

    monkeypatch.setattr(inst, "build_rows", counted)
    suite_fn, h2 = _SUITES[kind]
    got = suite_fn(40, 9)
    assert failed, "no stacked solve failed"
    ref_rng = np.random.default_rng(9)
    ref = [_one_at_a_time(ref_rng, h2) for _ in range(40)]
    for a, b in zip(got, ref):
        _assert_same_instance(a, b)


@pytest.mark.parametrize("h2", [False, True])
def test_max_attempts_raises_the_same_error(monkeypatch, h2):
    monkeypatch.setattr(inst, "GRAM_COND_CAP", 0.0)
    monkeypatch.setattr(inst, "MAX_ATTEMPTS", 7)
    with pytest.raises(RuntimeError) as ref_err:
        _one_at_a_time(np.random.default_rng(4), h2)
    suite_fn = inst.h2_suite if h2 else inst.random_suite
    with pytest.raises(RuntimeError) as got_err:
        suite_fn(5, 4)
    assert str(got_err.value) == str(ref_err.value)
    assert "after 7 attempts" in str(got_err.value)
    # one instance at a time, the generator stops where the reference does
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    draw = inst.random_h2_instance if h2 else inst.random_instance
    with pytest.raises(RuntimeError):
        draw(rng)
    with pytest.raises(RuntimeError):
        _one_at_a_time(ref_rng, h2)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_other_build_errors_raise_at_their_candidate(monkeypatch):
    """An error that is not a rejection is raised where the walk reaches
    its candidate: the first such candidate in draw order, whatever group
    it was solved in."""
    basis_rows = core._basis_rows

    def fails_right_of(xs, basis):
        if np.any(xs > 0.9):
            raise ValueError(f"no solve at {float(xs[xs > 0.9][0])!r}")
        return basis_rows(xs, basis)

    # the stacked solves and the one-at-a-time reference both fail there
    monkeypatch.setattr(core, "_basis_rows", fails_right_of)
    # seed 1: the 13th candidate is the first right of 0.9, and its group
    # is solved after one that holds a later such candidate
    ref_rng = np.random.default_rng(1)
    with pytest.raises(ValueError) as ref_err:
        for _ in range(200):
            _one_at_a_time(ref_rng, False)
    with pytest.raises(ValueError) as got_err:
        inst.random_suite(200, 1)
    assert str(got_err.value) == str(ref_err.value)


#: sha256 of the draws of ``random_suite(200, seed)`` for seeds 0-4 (see
#: ``_draw_digest``), recorded before candidates shared one basis per size
#: and point sets were checked in fewer calls: neither may move the stream
_DRAW_DIGESTS = (
    "fa31b242ad1cfe7ff1e3e7554959e3d637204c86682cd869381a2a64155bfd41",
    "12de57902ad5dd45044b732c99065dc34c56c97f24f279a824abb7d3c3f944fb",
    "2aad003735562d56a915dbb66bf09cddda6894908118b959e4f028ad177d9751",
    "c323bd6a9bbd21686b36e12b5afb791096393c406487e3a1b00afdbcf74e1cd0",
    "84593310b0bee133675f58843f7bbb27ceb2629bd4f93748f8e5b7bdeac4d88b",
)


def _draw_digest(suite) -> str:
    keys = ("m", "l", "family", "alpha", "attempts")
    rows = [[[it.meta[k] for k in keys], it.points.nodes.tolist(), it.x] for it in suite]
    return hashlib.sha256(canonical_json(rows).encode()).hexdigest()


@pytest.mark.parametrize("seed", range(5))
def test_random_suite_draws_the_recorded_instances(seed):
    suite = inst.random_suite(200, seed)
    assert _draw_digest(suite) == _DRAW_DIGESTS[seed]
    # one basis object per size, shared by the candidates of a call
    by_size = {}
    for it in suite:
        assert by_size.setdefault(it.basis.size, it.basis) is it.basis
