import numpy as np
import pytest

from mlscert import instances as inst


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
