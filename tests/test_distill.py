import math

import numpy as np
import pytest

import gausswork as gw
from conftest import quadratic_work, random_state

# Frozen closed-form demo values (0.7621 and 1.0019 at four decimals).
DEMO_INPUT = 0.7620733682642727
DEMO_OUTPUT = 1.0019316790929709


def _rot_cw(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def test_two_copies_balanced_identity():
    rng = np.random.default_rng(80)
    gamma = gw.squeezed(0.7).cm
    g1, g2 = gw.process_two_copies_single_mode(gamma, np.pi / 4, [0, 0, 0, 0])
    np.testing.assert_allclose(g1, gamma, atol=1e-12)
    np.testing.assert_allclose(g2, gamma, atol=1e-12)


def test_two_copies_rotated_average_thermalises():
    gamma = 0.5 * np.diag([np.exp(2.0), np.exp(-2.0)])
    g1, _ = gw.process_two_copies_single_mode(gamma, np.pi / 4, [0, 0, 0, np.pi / 2])
    np.testing.assert_allclose(g1, 0.5 * math.cosh(2.0) * np.eye(2), atol=1e-12)


def test_two_copies_matches_compiled_circuit():
    rng = np.random.default_rng(81)
    for _ in range(20):
        state = random_state(rng, 1, displaced=False)
        gamma = np.asarray(state.cm)
        theta = rng.uniform(0, 2 * np.pi)
        phis = rng.uniform(0, 2 * np.pi, size=4)
        g1, g2 = gw.process_two_copies_single_mode(gamma, theta, phis)

        r1, r2, r3, r4 = (_rot_cw(p) for p in phis)
        c, s = np.cos(theta), np.sin(theta)
        big = np.zeros((4, 4))
        big[:2, :2] = c * r1 @ r3
        big[:2, 2:] = s * r1 @ r4
        big[2:, :2] = -s * r2 @ r3
        big[2:, 2:] = c * r2 @ r4
        joint = big @ np.kron(np.eye(2), gamma) @ big.T
        np.testing.assert_allclose(g1, joint[:2, :2], atol=1e-10)
        np.testing.assert_allclose(g2, joint[2:, 2:], atol=1e-10)


def test_two_copies_rejects_invalid_cm():
    with pytest.raises(ValueError, match="invalid"):
        gw.process_two_copies_single_mode(0.3 * np.eye(2), 0.1, [0, 0, 0, 0])


def test_no_go_sweep():
    rng = np.random.default_rng(82)
    for _ in range(500):
        nu = rng.uniform(0.5, 2.5)
        r = rng.uniform(0.0, 1.2)
        rot = gw.rotation(rng.uniform(0, 2 * np.pi))
        gamma = rot @ gw.squeezer_direct_sum(r) @ (nu * np.eye(2)) @ gw.squeezer_direct_sum(r) @ rot.T
        theta = rng.uniform(0, 2 * np.pi)
        phis = rng.uniform(0, 2 * np.pi, size=4)
        g1, g2 = gw.process_two_copies_single_mode(gamma, theta, phis)
        base_state = gw.GaussianState(np.zeros(2), gamma)
        base_activity = gw.local_activity(base_state).value
        base_work = gw.extractable_work(base_state).quadratic
        for out in (g1, g2):
            out_state = gw.GaussianState(np.zeros(2), out)
            assert gw.local_activity(out_state).value <= base_activity + 1e-9
            assert gw.extractable_work(out_state).quadratic <= base_work + 1e-9


def test_activity_demo_reference_values():
    outcome = gw.activity_distillation_demo()
    assert outcome.input_value == pytest.approx(DEMO_INPUT, abs=1e-12)
    assert outcome.output_value == pytest.approx(DEMO_OUTPUT, abs=1e-12)
    assert outcome.input_value == pytest.approx(0.7621, abs=2e-3)
    assert outcome.output_value == pytest.approx(1.0019, abs=2e-3)
    assert outcome.output_value > outcome.input_value


def test_activity_demo_output_covariance():
    outcome = gw.activity_distillation_demo()
    expected = np.diag([0.5, 4.25, 0.5, 4.25])
    np.testing.assert_allclose(outcome.output_state.cm, expected, atol=1e-10)


def test_activity_demo_deterministic():
    a = gw.activity_distillation_demo()
    b = gw.activity_distillation_demo()
    assert a.input_value == b.input_value
    assert a.output_value == b.output_value
    np.testing.assert_array_equal(a.output_state.cm, b.output_state.cm)


def test_work_swap_demo_squeezed_vs_vacuum():
    outcome = gw.work_swap_demo(gw.squeezed(1.0).cm, gw.vacuum(1).cm)
    assert outcome.output_value == pytest.approx(2 * math.sinh(1.0) ** 2, abs=1e-9)
    assert outcome.input_value == pytest.approx(math.sinh(1.0) ** 2, abs=1e-9)
    gain = outcome.output_value - outcome.input_value
    assert gain == pytest.approx(math.sinh(1.0) ** 2 - 0.0, abs=1e-9)


def test_work_swap_gain_equals_work_difference():
    rng = np.random.default_rng(83)
    for _ in range(10):
        ga = random_state(rng, 1, displaced=False, nu_min=0.6, r_max=1.0).cm
        gb = random_state(rng, 1, displaced=False, nu_min=0.6, r_max=0.3).cm
        wa, wb = quadratic_work(ga), quadratic_work(gb)
        if wa <= wb:
            continue
        outcome = gw.work_swap_demo(ga, gb)
        assert outcome.output_value - outcome.input_value == pytest.approx(wa - wb, abs=1e-9)


def test_work_swap_conserves_total_work():
    ga, gb = gw.squeezed(0.9).cm, gw.thermal(0.4).cm
    outcome = gw.work_swap_demo(ga, gb)
    total_before = 2 * (quadratic_work(ga) + quadratic_work(gb))
    copies = gw.tensor([gw.GaussianState(np.zeros(2), c) for c in (ga, gb, ga, gb)])
    swapped = gw.apply_gaussian_unitary(copies, outcome.circuit)
    assert gw.extractable_work(swapped).quadratic == pytest.approx(total_before, abs=1e-9)


def test_work_swap_rejects_no_gain():
    gamma = gw.squeezed(0.5).cm
    with pytest.raises(ValueError, match="gains nothing"):
        gw.work_swap_demo(gamma, gamma)
