import re
import time
import tracemalloc

import numpy as np
import pytest

import gausswork as gw
from conftest import (random_cm, random_orthosymplectic, random_symplectic, random_unitary, schur_williamson,
                      symplectic_trace)

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


@pytest.mark.parametrize(
    "build, edge, what",
    [
        (gw.vacuum, 1024, "vacuum of {} modes"),
        (gw.symplectic_form, 1024, "symplectic form of {} modes"),
        (gw.dft_unitary, 2048, "DFT unitary of {} modes"),
        (lambda n: gw.compile_passive_circuit(gw.PassiveCircuit(n)), 1024, "passive circuit on {} modes"),
    ],
    ids=["vacuum", "symplectic_form", "dft_unitary", "compile_passive_circuit"],
)
@pytest.mark.parametrize("huge", [False, True], ids=["edge+1", "1e6"])
def test_a_count_sized_gaussian_builder_passes_the_entry_budget(build, edge, what, huge):
    # (2N)^2 real entries, or n^2 complex ones for the DFT unitary, against the one entry budget of 2^22: one mode
    # past the edge, and 10^6 modes (29 TiB, which numpy once tried to allocate), are refused before any array exists.
    n = 10**6 if huge else edge + 1
    count = (n if build is gw.dft_unitary else 2 * n) ** 2
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(what.format(n))} needs {count} entries, above the budget "
                                             f"of 4194304$"):
            build(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0 and peak < 1e5


@pytest.mark.parametrize(
    "build", [gw.symplectic_form, lambda n: gw.compile_passive_circuit(gw.PassiveCircuit(n))],
    ids=["symplectic_form", "compile_passive_circuit"],
)
def test_the_entry_budget_itself_is_accepted(build):
    # 1024 modes: 2048^2 = 2^22 entries.
    assert build(1024).shape == (2048, 2048)


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
    assert symplectic_trace(0.5 * np.eye(2)) == pytest.approx(1.0)


def test_symplectic_trace_example():
    assert symplectic_trace(np.diag([1.0, 16.0, 1.0, 1.0]) / 2) == pytest.approx(5.0)


def test_symplectic_trace_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cm = random_cm(rng, 3)
        s = random_symplectic(rng, 3)
        assert symplectic_trace(s @ cm @ s.T) == pytest.approx(symplectic_trace(cm), abs=1e-9)


def test_symplectic_trace_never_exceeds_trace():
    rng = np.random.default_rng(12)
    for _ in range(50):
        cm = random_cm(rng, rng.integers(1, 5))
        assert symplectic_trace(cm) <= np.trace(cm) + 1e-9


def test_symplectic_trace_equals_trace_iff_passive_williamson():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        cm = random_cm(rng, n)
        gap = np.trace(cm) - symplectic_trace(cm)
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
        assert symplectic_trace(a + b) >= symplectic_trace(a) + symplectic_trace(b) - 1e-9


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
        assert dec.residual <= gw.symplectic.TOL_PHYS * max(1.0, np.linalg.norm(cm))
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


def test_williamson_of_a_state_reuses_its_kept_spectrum(monkeypatch):
    # The state's validation kept cm^{1/2} and nu: the factor needs the SVD of K with vectors, one eigh
    # of S S^T for its Euler split and one eigh of the free remainder for the witness.
    state = gw.GaussianState(np.zeros(6), random_cm(np.random.default_rng(19), 3))
    ref = gw.williamson(state.cm)
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _solver=solver, **kwargs):
            calls.append((_name, kwargs.get("compute_uv", _name != "eigvalsh")))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    dec = gw.williamson(state)
    assert calls == [("svd", True), ("eigh", True), ("eigh", True)]
    assert np.array_equal(dec.symplectic, ref.symplectic) and np.array_equal(dec.nu, ref.nu)
    assert (dec.residual, dec.symplectic_residual) == (ref.residual, ref.symplectic_residual)


def test_williamson_refuses_a_wrong_pairing(monkeypatch):
    # Swapping a and b in every pair keeps the basis orthogonal, so cm is still reconstructed;
    # only the symplectic residual sees that the canonical form changed sign.
    pairs = gw.symplectic._canonical_pairs

    def swapped(cand):
        return pairs(cand)[:, np.arange(len(cand)) ^ 1]

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
    s = gw.squeezer_direct_sum(0.9)
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
        assert gw.is_orthosymplectic(bm.o_out)
        assert gw.is_orthosymplectic(bm.o_in)


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


@pytest.mark.parametrize(
    "element, message",
    [
        (gw.PhaseShifter(0.1, 5), r"phase shifter mode must be an integer in \[0, 1\], got 5"),
        (gw.BeamSplitter(0.1, (0, 0)), r"beam splitter modes \(0, 0\) must differ"),
        (gw.BeamSplitter(0.1, (0, 5)), r"beam splitter mode must be an integer in \[0, 1\], got 5"),
        # Refused by name, not by Python's tuple unpacking ("too many / not enough values to unpack", TypeError).
        (gw.BeamSplitter(0.3, (0, 1, 2)), r"^beam splitter modes must be a list of 2 items, got \(0, 1, 2\)$"),
        (gw.BeamSplitter(0.3, (0,)), r"^beam splitter modes must be a list of 2 items, got \(0,\)$"),
        (gw.BeamSplitter(0.3, 0), r"^beam splitter modes must be a list of 2 items, got 0$"),
        ("mirror", "unknown circuit element 'mirror'"),
    ],
    ids=["phase-shifter-out-of-range", "beam-splitter-same-mode", "beam-splitter-out-of-range",
         "beam-splitter-three-modes", "beam-splitter-one-mode", "beam-splitter-bare-mode", "unknown-element"],
)
def test_compile_rejects_bad_mode_index(element, message):
    circ = gw.PassiveCircuit(n_modes=2, elements=(element,))
    with pytest.raises(ValueError, match=message):
        gw.compile_passive_circuit(circ)


def test_compiled_circuits_are_orthosymplectic():
    rng = np.random.default_rng(18)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        elements = []
        u = np.eye(n, dtype=complex)  # the element unitaries multiplied directly, an oracle for the compiler
        for _ in range(8):
            step = np.eye(n, dtype=complex)
            if rng.random() < 0.5:
                i, j = rng.choice(n, size=2, replace=False)
                theta = rng.uniform(0, 2 * np.pi)
                elements.append(gw.BeamSplitter(theta, (int(i), int(j))))
                step[np.ix_([i, j], [i, j])] = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
            else:
                phi, k = rng.uniform(0, 2 * np.pi), int(rng.integers(n))
                elements.append(gw.PhaseShifter(phi, k))
                step[k, k] = np.exp(1j * phi)
            u = step @ u
        out = gw.compile_passive_circuit(gw.PassiveCircuit(n_modes=n, elements=tuple(elements)))
        omega = gw.symplectic_form(n)
        assert np.linalg.norm(out @ out.T - np.eye(2 * n)) < 1e-10
        assert np.linalg.norm(out @ omega @ out.T - omega) < 1e-10
        np.testing.assert_allclose(out, gw.unitary_to_orthosymplectic(u), rtol=0, atol=1e-14)


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


def test_bloch_messiah_keeps_the_order_of_tied_squeezings():
    """Equal sigma keep eigh's column order: here both passive factors are the mode swap."""
    s = gw.squeezer_direct_sum([0.5, 0.5])
    bm = gw.bloch_messiah(s)
    swap = np.eye(4)[[2, 3, 0, 1]]
    np.testing.assert_allclose(bm.r, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(bm.o_out, swap, atol=1e-12)
    np.testing.assert_allclose(bm.o_in, swap, atol=1e-12)
    np.testing.assert_allclose(bm.reconstruct(), s, atol=1e-12)


def test_williamson_refuses_a_reconstruction_residual_above_tolerance(monkeypatch):
    # A beam splitter between two modes of different nu keeps S symplectic but no longer reconstructs cm
    # (two-mode squeezing would not show it: its nu are tied).
    cm = gw.tensor([gw.thermal(1.0), gw.squeezed(0.3)]).cm
    assert gw.williamson(cm).residual > 0.0
    normal_form = gw.symplectic._normal_form
    mix = gw.compile_passive_circuit(gw.PassiveCircuit(2, (gw.BeamSplitter(0.4, (0, 1)),)))

    def mixed(spec):
        o_out, r, o = normal_form(spec)
        return o_out, r, o @ mix

    monkeypatch.setattr(gw.symplectic, "_normal_form", mixed)
    with pytest.raises(ValueError, match="reconstruction residual"):
        gw.williamson(cm)


@pytest.mark.parametrize("r", [7e-10, 5e-9, 1e-8, 3e-8, 1e-6])
def test_williamson_accepts_weak_squeezing(r):
    """A squeezing too weak for eigh to tell its eigenvectors from an unsqueezed mode's is still split.

    Alone, on a thermal mode, next to an unsqueezed mode, and mixed with one by interferometers: S D S^T
    stays within the spectrum's tol of cm, S is symplectic, its split reads r within 1e-15 with both
    passive factors orthosymplectic, bloch_messiah takes S and gives an orthosymplectic o_in, and the
    extraction protocol's steps reach its free matrix within the same tol.
    """
    rng = np.random.default_rng(23)
    s = random_orthosymplectic(rng, 3) @ gw.squeezer_direct_sum([r, 0.0, 0.7]) @ random_orthosymplectic(rng, 3)
    states = [
        gw.squeezed(r),
        gw.apply_gaussian_unitary(gw.thermal(1.0), gw.squeezer_direct_sum(r)),
        gw.tensor([gw.thermal(1.0), gw.squeezed(r)]),
    ] + [gw.GaussianState(np.zeros(6), (s * np.repeat(nu, 2)) @ s.T) for nu in ([1.3, 0.5, 0.9], [0.5] * 3)]
    truths = [[r], [r], [r, 0.0], [0.7, r, 0.0], [0.7, r, 0.0]]
    for state, truth in zip(states, truths):
        tol = max(gw.symplectic.TOL_PHYS, state._spectrum.err) * max(1.0, np.linalg.norm(state.cm))
        dec = gw.williamson(state)
        assert dec.residual <= 0.7 * tol
        assert dec.symplectic_residual < 0.01 * gw.symplectic.TOL_SYMP * max(1.0, np.linalg.norm(dec.symplectic) ** 2)
        np.testing.assert_allclose(dec.bloch_messiah.r, truth, rtol=0, atol=1e-15)
        assert gw.is_orthosymplectic(dec.bloch_messiah.o_out) and gw.is_orthosymplectic(dec.bloch_messiah.o_in)
        assert gw.is_orthosymplectic(gw.bloch_messiah(dec.symplectic).o_in)
        protocol = gw.extraction_protocol(state)
        steps = protocol.passive_step.T * np.diag(gw.squeezer_direct_sum(protocol.squeezer_step))
        assert np.linalg.norm(steps.T @ state.cm @ steps - protocol.final_cm.cm) <= tol


@pytest.mark.parametrize("r", [2e-10, 1e-9, 5e-9])
def test_bloch_messiah_splits_a_squeezing_above_its_own_rounding(r):
    # The band is the rounding of S, 4 n eps max(1, ||S||^2), about 3.6e-15 here; a fixed band of 1e-8 left these
    # squeezings in o_in, which was then 2.8 r off orthogonal.
    bm = gw.bloch_messiah(gw.squeezer_direct_sum(r))
    np.testing.assert_allclose(bm.r, [r], rtol=0, atol=1e-15)
    assert gw.is_orthosymplectic(bm.o_in)


def test_bloch_messiah_refuses_or_rebuilds_a_matrix_symplectic_only_within_tolerance():
    # S0 (I + E) with E scaled to a share 1e-4..1 of the is_symplectic bound: a random, a diagonal or a one-mode
    # isotropic defect on weak, strong or no squeezing.  Without the pairing check 583 of 3,000 such splits (seed 1)
    # returned an o_out off orthogonal or a reconstruction that was not S.
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        weak = np.where(rng.random(n) < 0.5, 10 ** rng.uniform(-12, -6, n), rng.uniform(-4, 4, n))
        s0 = random_orthosymplectic(rng, n) @ gw.squeezer_direct_sum(np.where(rng.random(n) < 0.4, 0.0, weak))
        e = [rng.normal(size=(2 * n, 2 * n)), np.diag(rng.normal(size=2 * n)), np.diag(np.eye(n)[0].repeat(2))]
        e = e[rng.integers(3)]
        residual, bound = gw.symplectic._symplectic_residual(s0 @ (np.eye(2 * n) + e))
        s = s0 @ (np.eye(2 * n) + 10 ** rng.uniform(-4, 0) * bound / residual * e)
        try:
            bm = gw.bloch_messiah(s)
        except ValueError:
            continue
        assert gw.is_orthosymplectic(bm.o_out)
        assert np.linalg.norm(bm.reconstruct() - s) <= gw.symplectic.TOL_SYMP * max(1.0, np.linalg.norm(s))
