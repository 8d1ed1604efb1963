import json
import math

import numpy as np
import pytest

import gausswork as gw
from conftest import mp_williamson_sst, quadratic_work, random_cm, random_free_cm, random_orthosymplectic, random_state
from gausswork import cli


def test_free_state_has_no_work():
    rng = np.random.default_rng(60)
    state = gw.GaussianState(np.zeros(4), random_free_cm(rng, 2))
    report = gw.extractable_work(state)
    assert report.total == pytest.approx(0.0, abs=1e-9)


def test_squeezed_work_is_sinh_squared():
    r = 1.0
    report = gw.extractable_work(gw.squeezed(r))
    assert report.quadratic == pytest.approx(math.sinh(r) ** 2, abs=1e-12)
    assert report.displacement == 0.0


def test_demo_cm_quadratic_work():
    assert quadratic_work(np.diag([1.0, 16.0, 1.0, 1.0]) / 2) == pytest.approx(2.25, abs=1e-9)


def test_displacement_work_reported_separately():
    state = gw.coherent(1.0 + 1.0j)
    report = gw.extractable_work(state)
    assert report.quadratic == pytest.approx(0.0, abs=1e-12)
    assert report.displacement == pytest.approx(2.0, abs=1e-12)
    assert report.total == pytest.approx(2.0, abs=1e-12)


def test_quadratic_work_rejects_invalid():
    with pytest.raises(ValueError, match="invalid"):
        quadratic_work(0.3 * np.eye(2))


def test_protocol_squeezed_state():
    r = 0.8
    protocol = gw.extraction_protocol(gw.squeezed(r))
    np.testing.assert_allclose(protocol.passive_step, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(protocol.squeezer_step, [-r], atol=1e-9)
    np.testing.assert_allclose(protocol.final_cm.cm, 0.5 * np.eye(2), atol=1e-9)
    assert protocol.work_quadratic == pytest.approx(math.sinh(r) ** 2, abs=1e-9)


def test_protocol_free_state_is_trivial():
    rng = np.random.default_rng(61)
    state = gw.GaussianState(np.zeros(4), random_free_cm(rng, 2))
    protocol = gw.extraction_protocol(state)
    np.testing.assert_allclose(protocol.squeezer_step, np.zeros(2), atol=1e-9)
    assert protocol.work_quadratic == pytest.approx(0.0, abs=1e-9)


def test_protocol_tms():
    r = 0.6
    protocol = gw.extraction_protocol(gw.two_mode_squeezed(r))
    np.testing.assert_allclose(np.sort(np.abs(protocol.squeezer_step)), [r, r], atol=1e-9)
    assert gw.is_free_cm(protocol.final_cm.cm).spectral_free
    assert protocol.work_quadratic == pytest.approx(2 * math.sinh(r) ** 2, abs=1e-9)


def test_protocol_energy_ledger():
    # Running the protocol steps realises exactly the reported work.
    rng = np.random.default_rng(62)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        state = random_state(rng, n)
        protocol = gw.extraction_protocol(state)
        step1 = gw.GaussianState(state.displacement + protocol.displacement_step, state.cm)
        step2 = gw.apply_gaussian_unitary(step1, protocol.passive_step)
        step3 = gw.apply_gaussian_unitary(step2, gw.squeezer_direct_sum(protocol.squeezer_step))
        np.testing.assert_allclose(step3.cm, protocol.final_cm.cm, atol=1e-8)
        drop = gw.energy(state) - gw.energy(step3)
        assert drop == pytest.approx(
            protocol.work_displacement + protocol.work_quadratic, abs=1e-9
        )
        assert gw.is_free_cm(protocol.final_cm.cm).gap < 1e-8


def test_protocol_refuses_nothing_at_strong_squeezing(capsys):
    """README "Numerical range": 600 states O1 Z(r) O2 diag(nu) with |r| <= 6, nu per mode from {1/2, 1, 3}.

    Every layer accepts each one: the protocol, whose witness is orthosymplectic, `williamson` on the
    protocol's route, whose split has orthosymplectic passive factors and rebuilds its factor, `bloch_messiah`
    of that factor, with o_in within its stated 100 n eps ||S||^2 of orthogonal, the activity, the freeness
    check and the relative entropy to a thermal reference.  On every 30th state `decompose --json` exits 0
    with an orthosymplectic `bm_o_in`, and S S^T matches the 50-digit oracle within the rounding of nu.
    """
    rng = np.random.default_rng(11)
    for i in range(600):
        n = int(rng.integers(1, 5))
        rs = rng.uniform(-6.0, 6.0, size=n)
        nu = rng.choice([0.5, 1.0, 3.0], size=n)
        s = random_orthosymplectic(rng, n) @ gw.squeezer_direct_sum(rs) @ random_orthosymplectic(rng, n)
        cm = s @ np.diag(np.repeat(nu, 2)) @ s.T
        state = gw.GaussianState(np.zeros(2 * n), 0.5 * (cm + cm.T))
        protocol = gw.extraction_protocol(state)
        assert gw.is_orthosymplectic(protocol.final_cm.passive)
        dec = gw.williamson(state)
        split = dec.bloch_messiah
        assert gw.is_orthosymplectic(split.o_out) and gw.is_orthosymplectic(split.o_in)
        np.testing.assert_array_equal(split.reconstruct(), dec.symplectic)
        bare = gw.bloch_messiah(dec.symplectic).o_in
        bound = 100 * 2 * n * np.finfo(float).eps * max(1.0, np.linalg.norm(dec.symplectic) ** 2)
        assert np.linalg.norm(bare @ bare.T - np.eye(2 * n)) <= bound
        gw.local_activity(state)
        gw.is_free_cm(state.cm)
        reference = gw.GaussianState(np.zeros(2 * n), np.diag(np.repeat(gw.mean_photon_numbers(state) + 1.5, 2)))
        assert math.isfinite(gw.relative_entropy(state, reference))
        if i % 30 == 0:
            oracle = mp_williamson_sst(state.cm)
            sst = dec.symplectic @ dec.symplectic.T
            assert np.linalg.norm(sst - oracle) <= state._spectrum.err * np.linalg.norm(oracle)
            doc = json.dumps({"modes": n, "covariance": state.cm.reshape(-1).tolist()})  # zero displacement
            assert cli.main(["decompose", "--state", doc, "--json"]) == 0
            assert gw.is_orthosymplectic(np.array(json.loads(capsys.readouterr().out)["outputs"]["bm_o_in"]))


def test_protocol_final_cm_is_free_cm_of_its_own_witness():
    rng = np.random.default_rng(64)
    for n in (1, 2, 3, 8):
        state = random_state(rng, n, r_max=2.0)
        final = gw.extraction_protocol(state).final_cm
        rebuilt = gw.free_cm(state._spectrum.nu, final.passive)
        np.testing.assert_array_equal(final.cm, rebuilt.cm)
        np.testing.assert_array_equal(final.nu, rebuilt.nu)


def test_protocol_refuses_a_witness_that_is_not_orthosymplectic(monkeypatch):
    # 1.01 I is symplectic only up to a 2% scale, and not orthogonal: free_cm must refuse it.
    monkeypatch.setattr("gausswork.symplectic._canonical_pairs", lambda vecs: np.eye(len(vecs)) * 1.01)
    with pytest.raises(ValueError, match="passive matrix is not orthogonal symplectic"):
        gw.extraction_protocol(gw.two_mode_squeezed(0.5))


def test_superadditivity_product_is_tight():
    rng = np.random.default_rng(63)
    a, b = random_cm(rng, 1), random_cm(rng, 2)
    joint = np.zeros((6, 6))
    joint[:2, :2] = a
    joint[2:, 2:] = b
    assert gw.superadditivity_gap(gw.GaussianState(np.zeros(6), joint), [0], [1, 2]) == pytest.approx(0.0, abs=1e-9)


def test_superadditivity_tms_split():
    gap = gw.superadditivity_gap(gw.two_mode_squeezed(1.0), [0], [1])
    assert gap == pytest.approx(2 * math.sinh(1.0) ** 2, abs=1e-9)


def test_superadditivity_random_sweep():
    rng = np.random.default_rng(64)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        cm = random_cm(rng, n)
        split = int(rng.integers(1, n))
        state = gw.GaussianState(np.zeros(2 * n), cm)
        assert gw.superadditivity_gap(state, range(split), range(split, n)) >= -1e-9


def test_superadditivity_gap_ignores_displacement():
    # The displacement work |d|^2 / 2 is additive over any bipartition, so it cancels from the gap.
    rng = np.random.default_rng(72)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        displaced = random_state(rng, n, d_scale=2.0)
        centred = gw.GaussianState(np.zeros(2 * n), displaced.cm)
        split = int(rng.integers(1, n))
        modes_a, modes_b = range(split), range(split, n)
        gap = gw.superadditivity_gap(displaced, modes_a, modes_b)
        assert gap == pytest.approx(gw.superadditivity_gap(centred, modes_a, modes_b), abs=1e-12)
        parts = (gw.partial_trace(displaced, modes) for modes in (modes_a, modes_b))
        total_gap = gw.extractable_work(displaced).total - sum(gw.extractable_work(part).total for part in parts)
        assert total_gap == pytest.approx(gap, abs=1e-9)


def test_is_work_free_examples():
    rng = np.random.default_rng(65)
    assert gw.is_free_cm(random_free_cm(rng, 2)).spectral_free
    assert not gw.is_free_cm(gw.two_mode_squeezed(0.5).cm).spectral_free
    mix = 0.3 * random_free_cm(rng, 2) + 0.7 * random_free_cm(rng, 2)
    assert gw.is_free_cm(mix).spectral_free


def test_work_nonnegative_sweep():
    rng = np.random.default_rng(67)
    for _ in range(200):
        assert quadratic_work(random_cm(rng, int(rng.integers(1, 5)))) >= -1e-9


def test_work_convexity_sweep():
    rng = np.random.default_rng(68)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        cms = [random_cm(rng, n) for _ in range(3)]
        p = rng.dirichlet(np.ones(3))
        mixed = sum(w * c for w, c in zip(p, cms))
        bound = sum(w * quadratic_work(c) for w, c in zip(p, cms))
        assert quadratic_work(mixed) <= bound + 1e-9


def test_work_invariant_under_orthosymplectic():
    rng = np.random.default_rng(69)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        cm = random_cm(rng, n)
        o = random_orthosymplectic(rng, n)
        assert quadratic_work(o @ cm @ o.T) == pytest.approx(quadratic_work(cm), abs=1e-9)


def test_work_additive_on_direct_sums():
    rng = np.random.default_rng(70)
    for _ in range(50):
        a, b = random_cm(rng, 1), random_cm(rng, 2)
        joint = np.zeros((6, 6))
        joint[:2, :2] = a
        joint[2:, 2:] = b
        assert quadratic_work(joint) == pytest.approx(
            quadratic_work(a) + quadratic_work(b), abs=1e-9
        )


def test_work_monotone_under_partial_trace():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        cm = random_cm(rng, n)
        keep = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        idx = np.empty(2 * len(keep), dtype=int)
        idx[0::2] = [2 * m for m in keep]
        idx[1::2] = [2 * m + 1 for m in keep]
        assert quadratic_work(cm[np.ix_(idx, idx)]) <= quadratic_work(cm) + 1e-9
