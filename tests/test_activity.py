import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gausswork as gw
from conftest import (
    powell_activity,
    random_free_cm,
    random_orthosymplectic,
    random_state,
    random_unitary,
    two_mode_closed_form,
)

# Frozen closed-form oracle values (high-precision evaluation of g).
A_SQUEEZED_1 = 1.6198220928977023  # g(sinh^2(1) + 1/2)
A_FOCK_2 = 1.9095425048844385  # g(5/2)
A_DEMO_INPUT = 0.7620733682642727  # g(17/4) - g(2)


def test_single_mode_thermal_is_free():
    assert gw.local_activity(gw.thermal(1.7)).value == pytest.approx(0.0, abs=1e-12)


def test_single_mode_squeezed():
    report = gw.local_activity(gw.squeezed(1.0))
    assert report.value == pytest.approx(A_SQUEEZED_1, abs=1e-12)
    assert report.value == pytest.approx(gw.preset_activity("squeezed", 1.0), abs=1e-12)


def test_single_mode_coherent():
    assert gw.local_activity(gw.coherent(1.0)).value == pytest.approx(2 * math.log(2), abs=1e-12)


def test_single_mode_witness_is_equal_energy_thermal():
    state = gw.squeezed(0.6)
    report = gw.local_activity(state)
    nbar = gw.mean_photon_numbers(state)[0]
    np.testing.assert_allclose(report.closest_free.cm, (nbar + 0.5) * np.eye(2), atol=1e-12)
    assert gw.relative_entropy(state, gw.GaussianState(np.zeros(2), report.closest_free.cm)) == pytest.approx(
        report.value, abs=1e-10
    )


def test_two_mode_demo_input_value():
    state = gw.GaussianState(np.zeros(4), np.diag([1.0, 16.0, 1.0, 1.0]) / 2)
    report = gw.local_activity(state)
    assert report.value == pytest.approx(A_DEMO_INPUT, abs=1e-12)
    assert report.params["b"][0] == pytest.approx(4.25, abs=1e-12)
    assert report.params["b"][1] == pytest.approx(0.5, abs=1e-12)


def test_two_mode_free_input_vanishes():
    rng = np.random.default_rng(40)
    for _ in range(10):
        state = gw.GaussianState(np.zeros(4), random_free_cm(rng, 2))
        assert gw.local_activity(state).value < 1e-8


def test_two_mode_tms_branch():
    r = 0.8
    state = gw.two_mode_squeezed(r)
    report = gw.local_activity(state)
    assert report.value == pytest.approx(2 * gw.thermal_entropy(math.sinh(r) ** 2 + 0.5), abs=1e-10)
    b1, b2 = report.params["b"]
    assert b1 == pytest.approx(math.cosh(2 * r) / 2, abs=1e-10)
    assert b2 == pytest.approx(math.cosh(2 * r) / 2, abs=1e-10)


def test_two_mode_witness_attains_value():
    rng = np.random.default_rng(41)
    for _ in range(25):
        state = random_state(rng, 2, nu_min=0.6, r_max=0.8)
        report = gw.local_activity(state)
        if report.params["b"][1] < 0.5 + 1e-6:
            continue
        sigma = gw.GaussianState(np.zeros(4), report.closest_free.cm)
        assert gw.relative_entropy(state, sigma) == pytest.approx(report.value, abs=1e-8)


def test_two_mode_witness_is_free():
    rng = np.random.default_rng(42)
    for _ in range(10):
        state = random_state(rng, 2)
        report = gw.local_activity(state)
        assert gw.is_free_cm(report.closest_free.cm).spectral_free


def test_two_mode_optimum_matches_overlap_spectrum():
    # The algebraic two-mode optimum (b1, b2, theta, delta_phi and witness)
    # coincides with the spectral one.
    rng = np.random.default_rng(43)
    for _ in range(25):
        state = random_state(rng, 2)
        report = gw.local_activity(state)
        value, b, theta, delta_phi, witness = two_mode_closed_form(state)
        np.testing.assert_allclose(report.params["b"], b, atol=1e-9)
        assert report.params["theta"] == pytest.approx(theta, abs=1e-9)
        assert report.params["delta_phi"] == pytest.approx(delta_phi, abs=1e-9)
        np.testing.assert_allclose(report.closest_free.cm, witness, atol=1e-9)
        assert report.value == pytest.approx(value, abs=1e-9)


def test_unphysical_guard_reports_rather_than_clamps(monkeypatch):
    # An overlap matrix with a negative eigenvalue gives M an eigenvalue far below 1/2.
    monkeypatch.setattr("gausswork.activity.photon_overlap_matrix", lambda state: np.diag([0.2, -0.3]))
    with pytest.raises(ValueError, match="vacuum floor"):
        gw.local_activity(gw.vacuum(2))


@pytest.mark.parametrize("nbar", [1e6, 1e7, 1e8, 1e9])
def test_bright_free_states_are_accepted_with_zero_activity(nbar):
    # The overlap eigenvalue at the vacuum rounds by about eps ||M|| below 1/2;
    # an absolute floor refused up to 17 of these 40 angles at nbar = 1e9.
    bound = 1e3 * 2 * np.finfo(float).eps * nbar
    for theta in np.linspace(0.1, 1.4, 40):
        circuit = gw.PassiveCircuit(2, (gw.BeamSplitter(theta, (0, 1)), gw.PhaseShifter(0.3 * theta, 0)))
        product = gw.tensor([gw.vacuum(), gw.thermal(nbar)])
        state = gw.apply_gaussian_unitary(product, gw.compile_passive_circuit(circuit))
        report = gw.local_activity(state)
        assert report.certified
        assert report.value == pytest.approx(0.0, abs=bound)


def test_overlap_matrix_respects_conjugation_routes():
    # Photon numbers of the interferometer-conjugated state agree between the
    # complex overlap route and the phase-space route.
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        state = random_state(rng, n)
        u = random_unitary(rng, n)
        o = gw.unitary_to_orthosymplectic(u)
        conj = gw.apply_gaussian_unitary(state, o.T)
        via_ps = gw.mean_photon_numbers(conj)
        overlap = gw.photon_overlap_matrix(state)
        via_q = np.real(np.diag(u.T @ overlap @ np.conj(u)))
        np.testing.assert_allclose(via_q, via_ps, atol=1e-10)


def test_numeric_additivity_on_products():
    rng = np.random.default_rng(45)
    parts = [random_state(rng, 1, displaced=False) for _ in range(3)]
    joint = gw.tensor(parts)
    expected = sum(gw.local_activity(p).value for p in parts)
    report = gw.local_activity(joint)
    assert report.value == pytest.approx(expected, abs=1e-7)
    assert report.certified
    assert powell_activity(joint, restarts=6, seed=2) == pytest.approx(expected, abs=1e-7)


def test_numeric_matches_two_mode_closed_form():
    rng = np.random.default_rng(46)
    for _ in range(20):
        state = random_state(rng, 2)
        spectral = gw.local_activity(state).value
        numeric = powell_activity(state, restarts=8, seed=3)
        assert numeric == pytest.approx(spectral, abs=1e-5)


def test_numeric_tms_preset():
    numeric = powell_activity(gw.two_mode_squeezed(0.5), restarts=8, seed=4)
    assert numeric == pytest.approx(gw.preset_activity("tms", 0.5), abs=1e-5)
    assert gw.local_activity(gw.two_mode_squeezed(0.5)).value == pytest.approx(
        gw.preset_activity("tms", 0.5), abs=1e-12
    )


def test_witness_is_the_image_of_the_reported_unitary_also_for_tied_occupancies():
    # Vacuum and equal thermal modes tie the overlap eigenvalues, so their witness pairs come
    # from the Gram-Schmidt path; the unitary is read back from the witness either way.
    rng = np.random.default_rng(48)
    tied = gw.tensor([gw.thermal(0.7), gw.thermal(0.7), gw.squeezed(0.3)])
    for state in (random_state(rng, 3), gw.vacuum(3), tied):
        report = gw.local_activity(state)
        witness = report.closest_free.passive
        assert gw.is_orthosymplectic(witness)
        np.testing.assert_allclose(gw.unitary_to_orthosymplectic(report.params["unitary"]), witness, atol=1e-12)
        assert report.certified


def test_numeric_certification_bound():
    rng = np.random.default_rng(47)
    state = random_state(rng, 3)
    report = gw.local_activity(state)
    m = gw.photon_overlap_matrix(state) + 0.5 * np.eye(3)
    assert report.certified
    assert report.params["eig_residual"] <= 1e3 * 3 * np.finfo(float).eps * max(1.0, np.linalg.norm(m, 2))


def test_numeric_witness_attains_value():
    rng = np.random.default_rng(48)
    state = random_state(rng, 2, nu_min=0.7)
    report = gw.local_activity(state)
    assert report.value == pytest.approx(powell_activity(state, restarts=8, seed=6), abs=1e-6)
    if np.all(report.closest_free.nu > 0.5 + 1e-6):
        sigma = gw.GaussianState(np.zeros(4), report.closest_free.cm)
        assert gw.relative_entropy(state, sigma) == pytest.approx(report.value, abs=1e-6)


def test_invariance_under_passive_circuits():
    rng = np.random.default_rng(49)
    for _ in range(10):
        state = random_state(rng, 2)
        o = random_orthosymplectic(rng, 2)
        before = gw.local_activity(state).value
        after = gw.local_activity(gw.apply_gaussian_unitary(state, o)).value
        assert after == pytest.approx(before, abs=1e-5)


def test_numeric_invariance_under_passive_circuits():
    rng = np.random.default_rng(56)
    for k in range(5):
        state = random_state(rng, 2)
        o = random_orthosymplectic(rng, 2)
        rotated = gw.apply_gaussian_unitary(state, o)
        before = gw.local_activity(state).value
        assert gw.local_activity(rotated).value == pytest.approx(before, abs=1e-5)
        assert powell_activity(rotated, restarts=8, seed=k) == pytest.approx(before, abs=1e-5)


def test_monotone_under_partial_trace():
    rng = np.random.default_rng(50)
    for _ in range(20):
        state = random_state(rng, 2)
        joint = gw.local_activity(state).value
        reduced = gw.local_activity(gw.partial_trace(state, [0])).value
        assert reduced <= joint + 1e-5


def test_activity_never_negative():
    rng = np.random.default_rng(51)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        state = random_state(rng, n)
        assert gw.local_activity(state).value >= -1e-9


def test_gaussian_coherence_single_mode_coincides():
    rng = np.random.default_rng(52)
    for _ in range(10):
        state = random_state(rng, 1)
        assert gw.gaussian_coherence(state) == pytest.approx(
            gw.local_activity(state).value, abs=1e-10
        )


def test_gaussian_coherence_upper_bounds_activity():
    rng = np.random.default_rng(53)
    for _ in range(20):
        state = random_state(rng, 2)
        assert gw.gaussian_coherence(state) >= gw.local_activity(state).value - 1e-9


def test_gaussian_coherence_equals_activity_for_tms():
    r = 0.9
    state = gw.two_mode_squeezed(r)
    assert gw.gaussian_coherence(state) == pytest.approx(gw.local_activity(state).value, abs=1e-9)


def test_preset_activity_values():
    assert gw.preset_activity("fock", 0) == pytest.approx(0.0, abs=1e-12)
    assert gw.preset_activity("fock", 2) == pytest.approx(A_FOCK_2, abs=1e-12)
    assert gw.preset_activity("tms", 0.7) == pytest.approx(2 * gw.preset_activity("squeezed", 0.7), abs=1e-12)
    assert gw.preset_activity("coherent", 1.0) == pytest.approx(2 * math.log(2), abs=1e-12)
    with pytest.raises(ValueError):
        gw.preset_activity("fock", -1)
    with pytest.raises(ValueError):
        gw.preset_activity("weird", 1)


def test_relaxed_subadditivity_product_states():
    rng = np.random.default_rng(54)
    state = gw.tensor([random_state(rng, 1, displaced=False), random_state(rng, 1, displaced=False)])
    assert gw.relaxed_subadditivity_gap(state, [0]) == pytest.approx(0.0, abs=1e-6)


def test_relaxed_subadditivity_tms():
    assert gw.relaxed_subadditivity_gap(gw.two_mode_squeezed(1.0), [0]) >= -1e-6


def test_relaxed_subadditivity_free_state_equals_mutual_information():
    rng = np.random.default_rng(55)
    state = gw.GaussianState(np.zeros(4), random_free_cm(rng, 2))
    gap = gw.relaxed_subadditivity_gap(state, [0])
    assert gap == pytest.approx(gw.mutual_information(state, [0]), abs=1e-6)


@pytest.mark.parametrize(
    "modes_a, modes_b, match", [([0, 1], [1, 2], "overlap"), ([0], [1], "cover")], ids=["overlap", "cover"]
)
def test_relaxed_subadditivity_refuses_bad_bipartition_first(monkeypatch, modes_a, modes_b, match):
    monkeypatch.setattr("gausswork.activity.local_activity", lambda state: pytest.fail("activity computed"))
    with pytest.raises(ValueError, match=match):
        gw.relaxed_subadditivity_gap(gw.vacuum(3), modes_a, modes_b)


# Property tests at N = 1..6; tolerances scale with the state's energy.

seeds = st.integers(0, 2**32 - 1)
property_settings = settings(max_examples=40, deadline=None, derandomize=True)


def _tol(state, rel):
    return rel * (1.0 + float(np.trace(state.cm) + state.displacement @ state.displacement))


@property_settings
@given(n=st.integers(1, 6), seed=seeds)
def test_property_activity_between_zero_and_coherence(n, seed):
    state = random_state(np.random.default_rng(seed), n)
    value = gw.local_activity(state).value
    tol = _tol(state, 1e-12)
    assert -tol <= value <= gw.gaussian_coherence(state) + tol


@property_settings
@given(n=st.integers(1, 6), seed=seeds)
def test_property_activity_invariant_under_passive_unitaries(n, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    rotated = gw.apply_gaussian_unitary(state, random_orthosymplectic(rng, n))
    assert gw.local_activity(rotated).value == pytest.approx(
        gw.local_activity(state).value, abs=_tol(state, 1e-12)
    )


@property_settings
@given(n_a=st.integers(1, 3), n_b=st.integers(1, 3), seed=seeds)
def test_property_activity_additive_over_tensor_products(n_a, n_b, seed):
    # Additivity needs one factor undisplaced: two displaced factors put
    # conj(alpha_i) alpha_j into the off-diagonal block of the overlap matrix.
    rng = np.random.default_rng(seed)
    a, b = random_state(rng, n_a), random_state(rng, n_b, displaced=False)
    joint = gw.tensor([a, b])
    assert gw.local_activity(joint).value == pytest.approx(
        gw.local_activity(a).value + gw.local_activity(b).value, abs=_tol(joint, 1e-12)
    )


@property_settings
@given(n=st.integers(1, 6), seed=seeds)
def test_property_witness_attains_activity(n, seed):
    state = random_state(np.random.default_rng(seed), n)
    report = gw.local_activity(state)
    assume(report.params["b"].min() > 0.5 + 1e-6)
    sigma = gw.GaussianState(np.zeros(2 * n), report.closest_free.cm)
    assert gw.relative_entropy(state, sigma) == pytest.approx(report.value, abs=_tol(state, 1e-9))
