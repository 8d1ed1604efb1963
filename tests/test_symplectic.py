import numpy as np
import pytest

import gausswork as gw
from conftest import random_cm, random_orthosymplectic, random_symplectic, random_unitary, schur_williamson

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_symplectic_form_single_mode():
    np.testing.assert_array_equal(gw.symplectic_form(1), OMEGA2)


def test_symplectic_form_direct_sum():
    omega = gw.symplectic_form(2)
    expected = np.zeros((4, 4))
    expected[:2, :2] = OMEGA2
    expected[2:, 2:] = OMEGA2
    np.testing.assert_array_equal(omega, expected)


def test_symplectic_form_orthogonal():
    for n in (1, 2, 5):
        omega = gw.symplectic_form(n)
        np.testing.assert_allclose(omega @ omega.T, np.eye(2 * n), atol=1e-15)


def test_symplectic_form_rejects_zero_modes():
    with pytest.raises(ValueError):
        gw.symplectic_form(0)


def test_validate_cm_vacuum():
    valid, nu_min = gw.validate_cm(0.5 * np.eye(2))
    assert valid
    assert nu_min == pytest.approx(0.5)


def test_validate_cm_sub_vacuum():
    valid, nu_min = gw.validate_cm(0.4 * np.eye(2))
    assert not valid
    assert nu_min == pytest.approx(0.4)


def test_validate_cm_tms_pure():
    valid, nu_min = gw.validate_cm(gw.two_mode_squeezed(1.0).cm)
    assert valid
    assert nu_min == pytest.approx(0.5, abs=1e-12)


def test_validate_cm_rejects_odd_dimension():
    with pytest.raises(ValueError, match="even"):
        gw.validate_cm(np.eye(3))


def test_validate_cm_rejects_asymmetric():
    mat = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        gw.validate_cm(mat)


def test_symplectic_eigenvalues_thermal():
    np.testing.assert_allclose(gw.symplectic_eigenvalues(2.5 * np.eye(2)), [2.5])


def test_symplectic_eigenvalues_single_mode_det():
    np.testing.assert_allclose(gw.symplectic_eigenvalues(np.diag([0.5, 8.0])), [2.0])


def test_symplectic_eigenvalues_squeezed_thermal_and_vacuum():
    np.testing.assert_allclose(
        gw.symplectic_eigenvalues(np.diag([1.0, 16.0, 1.0, 1.0]) / 2), [2.0, 0.5], atol=1e-12
    )


def test_symplectic_eigenvalues_rejects_indefinite():
    with pytest.raises(ValueError, match="positive definite"):
        gw.symplectic_eigenvalues(np.diag([1.0, -1.0]))


def test_symplectic_trace_vacuum():
    assert gw.symplectic_trace(0.5 * np.eye(2)) == pytest.approx(1.0)


def test_symplectic_trace_example():
    assert gw.symplectic_trace(np.diag([1.0, 16.0, 1.0, 1.0]) / 2) == pytest.approx(5.0)


def test_symplectic_trace_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cm = random_cm(rng, 3)
        s = random_symplectic(rng, 3)
        assert gw.symplectic_trace(s @ cm @ s.T) == pytest.approx(gw.symplectic_trace(cm), abs=1e-9)


def test_symplectic_trace_never_exceeds_trace():
    rng = np.random.default_rng(12)
    for _ in range(50):
        cm = random_cm(rng, rng.integers(1, 5))
        assert gw.symplectic_trace(cm) <= np.trace(cm) + 1e-9


def test_symplectic_trace_equals_trace_iff_passive_williamson():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        cm = random_cm(rng, n)
        gap = np.trace(cm) - gw.symplectic_trace(cm)
        r = gw.bloch_messiah(gw.williamson(cm).symplectic).r
        if gap < 1e-10:
            assert np.all(r < 1e-8)
        if np.all(r < 1e-9):
            assert gap < 1e-8


def test_symplectic_trace_superadditive():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        a = random_cm(rng, n)
        b = random_cm(rng, n)
        assert gw.symplectic_trace(a + b) >= gw.symplectic_trace(a) + gw.symplectic_trace(b) - 1e-9


def test_williamson_thermal():
    dec = gw.williamson(3.5 * np.eye(2))
    np.testing.assert_allclose(dec.nu, [3.5])
    np.testing.assert_allclose(dec.reconstruct(), 3.5 * np.eye(2), atol=1e-12)
    assert gw.is_symplectic(dec.symplectic)


def test_williamson_squeezed_vacuum():
    r = 0.7
    cm = 0.5 * np.diag([np.exp(2 * r), np.exp(-2 * r)])
    dec = gw.williamson(cm)
    np.testing.assert_allclose(dec.nu, [0.5])
    np.testing.assert_allclose(dec.reconstruct(), cm, atol=1e-12)


def test_williamson_random_roundtrip():
    rng = np.random.default_rng(15)
    for _ in range(50):
        cm = random_cm(rng, 2)
        dec = gw.williamson(cm)
        assert np.linalg.norm(dec.reconstruct() - cm) < 1e-9
        assert dec.residual == pytest.approx(np.linalg.norm(dec.reconstruct() - cm), rel=1e-6, abs=1e-15)
        assert dec.residual <= gw.symplectic.TOL_RECON * max(1.0, np.linalg.norm(cm))
        assert gw.is_symplectic(dec.symplectic)
        assert np.all(np.diff(dec.nu) <= 1e-12)


def _degenerate_cms(rng, n_modes):
    """Covariance matrices whose symplectic spectrum has ties, squeezing |r| <= 2."""
    nu = 1.7
    mode = random_cm(rng, 1, nu_min=nu, nu_max=nu, r_max=2.0)
    copies = np.kron(np.eye(n_modes), mode)
    passive = random_orthosymplectic(rng, n_modes)
    ties = np.repeat([2.3, 0.5], [n_modes - n_modes // 2, n_modes // 2])
    s = random_symplectic(rng, n_modes, r_max=2.0)
    cms = [
        nu * np.eye(2 * n_modes),
        copies,
        passive @ copies @ passive.T,
        s @ np.diag(np.repeat(ties, 2)) @ s.T,
    ]
    return [0.5 * (cm + cm.T) for cm in cms]


@pytest.mark.parametrize("n_modes", [1, 2, 8, 64])
def test_williamson_matches_schur_reference_on_degenerate_spectra(n_modes):
    rng = np.random.default_rng(110 + n_modes)
    for cm in _degenerate_cms(rng, n_modes):
        ref_nu, ref_s = schur_williamson(cm)
        dec = gw.williamson(cm)
        np.testing.assert_allclose(dec.nu, ref_nu, rtol=1e-10)
        np.testing.assert_allclose(dec.nu, gw.symplectic_eigenvalues(cm), rtol=1e-10)
        assert gw.is_symplectic(dec.symplectic)
        scale = np.linalg.norm(cm)
        assert np.linalg.norm(dec.reconstruct() - cm) <= 1e-9 * scale
        ref_cm = ref_s @ np.diag(np.repeat(ref_nu, 2)) @ ref_s.T
        assert np.linalg.norm(dec.reconstruct() - ref_cm) <= 1e-9 * scale


def test_williamson_rejects_near_singular():
    with pytest.raises(ValueError, match="singular|positive definite"):
        gw.williamson(np.diag([1e-14, 1.0]))


def test_williamson_symplectic_residual_is_within_the_is_symplectic_bound():
    rng = np.random.default_rng(17)
    for cm in [random_cm(rng, n) for n in (1, 2, 8)] + _degenerate_cms(rng, 8):
        dec = gw.williamson(cm)
        s = dec.symplectic
        omega = gw.symplectic_form(len(cm) // 2)
        residual = np.linalg.norm(s @ omega @ s.T - omega)
        assert dec.symplectic_residual == pytest.approx(residual, rel=1e-6, abs=1e-15)
        assert dec.symplectic_residual < gw.symplectic.TOL_SYMP * max(1.0, np.linalg.norm(s) ** 2)


def test_williamson_refuses_a_wrong_pairing(monkeypatch):
    # Swapping a and b in every pair keeps the basis orthogonal, so cm is still reconstructed;
    # only the symplectic residual sees that the canonical form changed sign.
    pairs = gw.symplectic._canonical_pairs

    def swapped(cand, j):
        return pairs(cand, j)[:, np.arange(len(cand)) ^ 1]

    monkeypatch.setattr(gw.symplectic, "_canonical_pairs", swapped)
    with pytest.raises(ValueError, match="symplectic residual"):
        gw.williamson(random_cm(np.random.default_rng(18), 2))


def test_williamson_nu_invariant_under_squeezers():
    rng = np.random.default_rng(16)
    nu = np.array([2.0, 1.1, 0.6])
    thermal_cm = np.diag(np.repeat(nu, 2))
    sq = gw.squeezer_direct_sum(rng.uniform(-1, 1, size=3))
    np.testing.assert_allclose(
        gw.symplectic_eigenvalues(sq @ thermal_cm @ sq.T), nu, atol=1e-10
    )


def test_bloch_messiah_single_squeezer():
    s = gw.squeezer(0.9)
    bm = gw.bloch_messiah(s)
    np.testing.assert_allclose(bm.r, [0.9], atol=1e-12)
    np.testing.assert_allclose(bm.reconstruct(), s, atol=1e-12)


def test_bloch_messiah_pure_rotation():
    rot = gw.rotation(0.3)
    bm = gw.bloch_messiah(rot)
    np.testing.assert_allclose(bm.r, [0.0], atol=1e-12)
    np.testing.assert_allclose(bm.o_out @ bm.o_in, rot, atol=1e-12)


def test_bloch_messiah_recovers_squeezing():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        rs = np.sort(np.abs(rng.uniform(0.05, 1.2, size=n)))[::-1]
        s = random_orthosymplectic(rng, n) @ gw.squeezer_direct_sum(rs) @ random_orthosymplectic(rng, n)
        bm = gw.bloch_messiah(s)
        np.testing.assert_allclose(bm.r, rs, atol=1e-9)
        assert np.linalg.norm(bm.reconstruct() - s) < 1e-9
        assert gw.is_orthosymplectic(bm.o_out, tol=1e-8)
        assert gw.is_orthosymplectic(bm.o_in, tol=1e-8)


def test_bloch_messiah_rejects_non_symplectic():
    with pytest.raises(ValueError, match="symplectic"):
        gw.bloch_messiah(np.diag([2.0, 2.0]))


def test_unitary_to_orthosymplectic_identity():
    np.testing.assert_allclose(gw.unitary_to_orthosymplectic(np.eye(3)), np.eye(6))


def test_unitary_to_orthosymplectic_phase():
    phi = 0.42
    np.testing.assert_allclose(
        gw.unitary_to_orthosymplectic(np.array([[np.exp(1j * phi)]])), gw.rotation(phi)
    )


def test_unitary_to_orthosymplectic_dft():
    o = gw.unitary_to_orthosymplectic(gw.dft_unitary(4))
    omega = gw.symplectic_form(4)
    assert np.linalg.norm(o @ o.T - np.eye(8)) < 1e-12
    assert np.linalg.norm(o @ omega @ o.T - omega) < 1e-12


def test_unitary_to_orthosymplectic_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        gw.unitary_to_orthosymplectic(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_compile_empty_circuit():
    circ = gw.PassiveCircuit(n_modes=2)
    np.testing.assert_array_equal(gw.compile_passive_circuit(circ), np.eye(4))


def test_compile_single_beam_splitter():
    circ = gw.PassiveCircuit(n_modes=2, elements=(gw.BeamSplitter(np.pi / 4, (0, 1)),))
    out = gw.compile_passive_circuit(circ)
    c = 1 / np.sqrt(2)
    expected = np.block([[c * np.eye(2), c * np.eye(2)], [-c * np.eye(2), c * np.eye(2)]])
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_compile_beam_splitter_inverse_pair():
    theta = 0.37
    circ = gw.PassiveCircuit(
        n_modes=2, elements=(gw.BeamSplitter(theta, (0, 1)), gw.BeamSplitter(-theta, (0, 1)))
    )
    np.testing.assert_allclose(gw.compile_passive_circuit(circ), np.eye(4), atol=1e-12)


def test_compile_rejects_bad_mode_index():
    circ = gw.PassiveCircuit(n_modes=2, elements=(gw.PhaseShifter(0.1, 5),))
    with pytest.raises(ValueError, match="mode"):
        gw.compile_passive_circuit(circ)


def test_compiled_circuits_are_orthosymplectic():
    rng = np.random.default_rng(18)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        elements = []
        for _ in range(8):
            if rng.random() < 0.5:
                i, j = rng.choice(n, size=2, replace=False)
                elements.append(gw.BeamSplitter(rng.uniform(0, 2 * np.pi), (int(i), int(j))))
            else:
                elements.append(gw.PhaseShifter(rng.uniform(0, 2 * np.pi), int(rng.integers(n))))
        out = gw.compile_passive_circuit(gw.PassiveCircuit(n_modes=n, elements=tuple(elements)))
        omega = gw.symplectic_form(n)
        assert np.linalg.norm(out @ out.T - np.eye(2 * n)) < 1e-10
        assert np.linalg.norm(out @ omega @ out.T - omega) < 1e-10


def test_unitary_compilation_matches_bs_convention():
    # BS(theta) equals the orthosymplectic image of the real 2x2 rotation unitary.
    theta = 0.81
    u = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    circ = gw.PassiveCircuit(n_modes=2, elements=(gw.BeamSplitter(theta, (0, 1)),))
    np.testing.assert_allclose(
        gw.compile_passive_circuit(circ), gw.unitary_to_orthosymplectic(u), atol=1e-14
    )


def test_random_unitary_roundtrip_orthosymplectic():
    rng = np.random.default_rng(19)
    for n in (1, 2, 4):
        o = gw.unitary_to_orthosymplectic(random_unitary(rng, n))
        assert gw.is_orthosymplectic(o)
