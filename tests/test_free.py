import numpy as np
import pytest

import gausswork as gw
from conftest import random_cm, random_free_cm, random_orthosymplectic, symplectic_trace


def test_free_cm_thermal():
    fc = gw.free_cm([1.5])
    np.testing.assert_allclose(fc.cm, 1.5 * np.eye(2))


def test_free_cm_beam_splitter_off_diagonal_block():
    bs = gw.compile_passive_circuit(
        gw.PassiveCircuit(n_modes=2, elements=(gw.BeamSplitter(np.pi / 4, (0, 1)),))
    )
    fc = gw.free_cm([1.5, 2.5], bs)
    np.testing.assert_allclose(fc.cm[0:2, 2:4], 0.5 * np.eye(2), atol=1e-12)


def test_free_cm_eigenvalues_equal_symplectic_eigenvalues():
    rng = np.random.default_rng(30)
    fc = gw.free_cm([1.5, 2.5], random_orthosymplectic(rng, 2))
    eigs = np.sort(np.linalg.eigvalsh(fc.cm))
    np.testing.assert_allclose(eigs, [1.5, 1.5, 2.5, 2.5], atol=1e-10)
    np.testing.assert_allclose(gw.symplectic_eigenvalues(fc.cm), [2.5, 1.5], atol=1e-10)


def test_free_cm_rejects_sub_vacuum_occupancy():
    with pytest.raises(ValueError, match=">= 1/2"):
        gw.free_cm([0.4])


def test_free_cm_rejects_non_passive_witness():
    with pytest.raises(ValueError, match="orthogonal symplectic"):
        gw.free_cm([1.0], gw.squeezer_direct_sum([0.5]))


def test_is_free_cm_on_rotated_thermal_product():
    rng = np.random.default_rng(31)
    for _ in range(10):
        report = gw.is_free_cm(random_free_cm(rng, 3))
        assert report.spectral_free
        assert report.gap < 1e-10
        assert report.structural_form


def test_is_free_cm_tms_counterexample():
    # Structural block conditions hold for the two-mode squeezed covariance,
    # yet it is not free: the authoritative spectral test catches it.
    report = gw.is_free_cm(gw.two_mode_squeezed(1.0).cm)
    assert not report.spectral_free
    assert report.structural_form
    assert report.gap == pytest.approx(2.0 * (np.cosh(2.0) - 1.0), abs=1e-9)


def test_is_free_cm_squeezed_fails_both():
    report = gw.is_free_cm(gw.squeezed(1.0).cm)
    assert not report.spectral_free
    assert not report.structural_form


def test_is_free_cm_rejects_invalid():
    with pytest.raises(ValueError, match="invalid"):
        gw.is_free_cm(0.3 * np.eye(2))


def test_convex_combine_trivial_weights():
    rng = np.random.default_rng(32)
    a, b = random_cm(rng, 2), random_cm(rng, 2)
    assert gw.is_free_cm(1.0 * a + 0.0 * b) == gw.is_free_cm(a)


def test_convex_combine_two_beam_splitter_mixture_matches_formulas():
    # Mixing two beam-splitter rotations of the same thermal pair stays free,
    # with effective occupancies c, d from the quadratic mixing formulas.
    a, b = 2.0, 1.2
    thermal_pair = np.diag([a, a, b, b])

    def bs_cm(theta):
        bs = gw.compile_passive_circuit(
            gw.PassiveCircuit(n_modes=2, elements=(gw.BeamSplitter(theta, (0, 1)),))
        )
        return bs @ thermal_pair @ bs.T

    t1, t2 = 0.4, 1.1
    mixed = 0.5 * bs_cm(t1) + 0.5 * bs_cm(t2)
    report = gw.is_free_cm(mixed)
    assert report.spectral_free

    alpha = mixed[0, 0]
    beta = mixed[2, 2]
    gamma = mixed[0, 2]
    radius = np.sqrt((beta - alpha) ** 2 + 4 * gamma**2)
    c_eff = 0.5 * ((alpha + beta) + radius)
    d_eff = 0.5 * ((alpha + beta) - radius)
    np.testing.assert_allclose(
        gw.symplectic_eigenvalues(mixed), sorted([c_eff, d_eff], reverse=True), atol=1e-10
    )


def test_convex_combine_random_free_pairs_stay_free():
    rng = np.random.default_rng(33)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = rng.uniform(0.05, 0.95)
        mixed = p * random_free_cm(rng, n) + (1 - p) * random_free_cm(rng, n)
        assert np.trace(mixed) - symplectic_trace(mixed) < 1e-9


def test_free_closed_under_orthosymplectic_conjugation():
    rng = np.random.default_rng(34)
    for _ in range(20):
        cm = random_free_cm(rng, 2)
        o = random_orthosymplectic(rng, 2)
        assert gw.is_free_cm(o @ cm @ o.T).gap < 1e-9


def test_free_closed_under_direct_sum():
    rng = np.random.default_rng(35)
    for _ in range(20):
        a = random_free_cm(rng, 1)
        b = random_free_cm(rng, 2)
        joint = np.zeros((6, 6))
        joint[:2, :2] = a
        joint[2:, 2:] = b
        assert gw.is_free_cm(joint).gap < 1e-9


def test_free_closed_under_mode_deletion():
    rng = np.random.default_rng(36)
    for _ in range(20):
        cm = random_free_cm(rng, 3)
        keep = np.array([0, 1, 4, 5])
        assert gw.is_free_cm(cm[np.ix_(keep, keep)]).gap < 1e-9


def test_free_closed_under_thermal_postselection():
    rng = np.random.default_rng(37)
    for _ in range(20):
        state = gw.GaussianState(np.zeros(6), random_free_cm(rng, 3))
        out = gw.gaussian_postselect(state, [2], (rng.uniform(0.5, 2.0)) * np.eye(2))
        assert gw.is_free_cm(out.cm).gap < 1e-8


def test_structural_form_is_necessary_on_free_instances():
    rng = np.random.default_rng(38)
    for _ in range(50):
        report = gw.is_free_cm(random_free_cm(rng, int(rng.integers(1, 4))))
        assert report.spectral_free
        assert report.structural_form


@pytest.mark.parametrize("nbar", [1e6, 1e7, 1e8, 1e9])
def test_structural_form_holds_on_bright_free_states(nbar):
    """Vacuum x thermal(nbar) through a beam splitter and a phase shifter is free at any brightness."""
    dark_bright = gw.tensor([gw.vacuum(1), gw.thermal(nbar)])
    for theta in np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False):
        circuit = gw.PassiveCircuit(2, (gw.BeamSplitter(theta, (0, 1)), gw.PhaseShifter(0.3 * theta, 0)))
        report = gw.is_free_cm(gw.apply_gaussian_unitary(dark_bright, gw.compile_passive_circuit(circuit)).cm)
        assert report.spectral_free and report.structural_form, theta


def _squeezed_thermal(nbar, r):
    return gw.apply_gaussian_unitary(gw.thermal(nbar), gw.squeezer_direct_sum(r)).cm


def _bright_split(nbar):
    circuit = gw.PassiveCircuit(2, (gw.BeamSplitter(0.7, (0, 1)), gw.PhaseShifter(0.3, 0)))
    dark_bright = gw.tensor([gw.thermal(nbar), gw.vacuum(1)])
    return gw.apply_gaussian_unitary(dark_bright, gw.compile_passive_circuit(circuit)).cm


@pytest.mark.parametrize(
    "cm, free",
    [
        (gw.squeezed(1e-7).cm, False),  # gap 2e-14 = 2 W, above the bound 3.6e-15
        (gw.squeezed(1e-8).cm, True),  # gap 2.2e-16, one rounding of Tr cm
        (_squeezed_thermal(1e6, 1e-6), False),  # W = 2.0e-6; a fixed 1e-8 relative tolerance called it free
        (_bright_split(1e12), True),  # exactly free: a rounding gap of 2.4e-4 against a bound of 1.4e-2
    ],
    ids=["squeezed-1e-7", "squeezed-1e-8", "bright-squeezed", "bright-free"],
)
def test_freeness_verdict_is_the_gap_against_its_own_rounding(cm, free):
    assert gw.is_free_cm(cm).spectral_free is free


def test_structural_form_refuses_a_block_that_mixes_rotation_and_reflection():
    cm = 1.5 * np.eye(4)
    cm[0:2, 2:4] = cm[2:4, 0:2] = np.diag([0.1, 0.05])  # neither a scaled rotation nor a reflection
    assert not gw.is_free_cm(cm).structural_form
    cm[0:2, 2:4] = cm[2:4, 0:2] = np.diag([0.1, -0.1])  # a scaled reflection, as in the tms state
    assert gw.is_free_cm(cm).structural_form
