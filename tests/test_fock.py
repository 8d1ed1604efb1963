import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import gausswork as gw
from gausswork.fock import _bs_blocks
from conftest import (
    dense_kraus_apply,
    expm_fock_from_gaussian,
    fock_entropy,
    mp_fock_from_gaussian,
    random_state,
    scatter_kraus_operators,
)


def mp_bs_amplitude(m1, m, n1, n, eta):
    """<m1, m| U_bs |n1, n> as the binomial double sum at 60 significant digits."""
    with mpmath.workdps(60):
        eta = mpmath.mpf(eta)
        tau = mpmath.sqrt(1 - eta**2)
        acc = mpmath.mpf(0)
        for s in range(max(m - n, 0), min(n1, m) + 1):
            t = m - s
            acc += (
                mpmath.binomial(n1, s) * mpmath.binomial(n, t)
                * eta ** (n1 - s + t) * tau ** (s + n - t) * (-1) ** (n - t)
            )
        pref = mpmath.sqrt(mpmath.factorial(m1) * mpmath.factorial(m) / (mpmath.factorial(n1) * mpmath.factorial(n)))
        return float(acc * pref)


def test_bs_element_vacuum_fixed_point():
    assert gw.bs_matrix_element(0, 0, 0, 0, 0.7) == pytest.approx(1.0)


def test_bs_element_single_photon_transmission():
    assert gw.bs_matrix_element(1, 0, 1, 0, 0.7) == pytest.approx(0.7)


def test_bs_element_hong_ou_mandel_amplitude():
    val = gw.bs_matrix_element(2, 0, 1, 1, 1 / math.sqrt(2))
    assert abs(val) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_bs_element_rejects_negative_index():
    with pytest.raises(ValueError, match="nonnegative"):
        gw.bs_matrix_element(-1, 0, 0, 0, 0.5)


def test_bs_element_rejects_bad_eta():
    with pytest.raises(ValueError, match="transmittance"):
        gw.bs_matrix_element(0, 0, 0, 0, 1.5)


def test_bs_element_photon_number_conservation():
    rng = np.random.default_rng(90)
    for _ in range(50):
        m1, m, n1, n = rng.integers(0, 8, size=4)
        if m1 + m != n1 + n:
            assert gw.bs_matrix_element(int(m1), int(m), int(n1), int(n), 0.6) == 0.0


def test_bs_blocks_are_unitary():
    eta = 0.73
    for k in range(7):
        block = np.array(
            [
                [gw.bs_matrix_element(m1, k - m1, n1, k - n1, eta) for n1 in range(k + 1)]
                for m1 in range(k + 1)
            ]
        )
        np.testing.assert_allclose(block @ block.T, np.eye(k + 1), atol=1e-10)
    for eta in (0.3, 0.5, 0.73, 0.9):
        blocks = list(_bs_blocks(eta, 100))
        for k in (40, 60, 80, 100):
            np.testing.assert_allclose(blocks[k] @ blocks[k].T, np.eye(k + 1), atol=1e-10)


def test_bs_element_eta_one_is_identity():
    assert gw.bs_matrix_element(3, 2, 3, 2, 1.0) == pytest.approx(1.0)
    assert gw.bs_matrix_element(2, 3, 3, 2, 1.0) == 0.0


def test_bs_amplitudes_match_mpmath():
    rng = np.random.default_rng(96)
    for eta in (0.3, 0.5, 0.8, 0.9):
        for total in [100, 200] + list(rng.integers(1, 101, size=10)):
            m1, n1 = (int(v) for v in rng.integers(0, total + 1, size=2))
            expected = mp_bs_amplitude(m1, total - m1, n1, total - n1, eta)
            got = gw.bs_matrix_element(m1, total - m1, n1, total - n1, eta)
            assert got == pytest.approx(expected, abs=1e-12)


def test_bs_element_refuses_nonunitary_blocks(monkeypatch):
    # With a zero tolerance every rounding error counts as lost unitarity.
    monkeypatch.setattr("gausswork.fock.UNITARITY_TOL", 0.0)
    with pytest.raises(ValueError, match=r"block N = 200 has unitarity residual \d"):
        gw.bs_matrix_element(100, 100, 100, 100, 0.8)


def test_kraus_refuses_nonunitary_blocks(monkeypatch):
    monkeypatch.setattr("gausswork.fock.UNITARITY_TOL", 0.0)
    with pytest.raises(ValueError, match="unitarity residual"):
        gw.thermal_loss_kraus(0.8, 0.5, 20, 20)


def test_kraus_reports_unitarity_residual():
    ks = gw.thermal_loss_kraus(0.8, 0.5, 40, 40)
    assert 0.0 < ks.unitarity_residual < 1e-10


def test_k00_maps_thermal_to_thermal():
    ks = gw.thermal_loss_kraus(0.8, 0.5, 40, 4)
    th = gw.fock_thermal(1.0, 40)
    out = ks.operators[(0, 0)] @ th.matrix @ ks.operators[(0, 0)].conj().T
    diag = np.real(np.diag(out))
    diag = diag / diag.sum()
    z = 0.5 * 0.64
    np.testing.assert_allclose(diag[1:25] / diag[:24], z, atol=1e-8)


def test_k00_matrix_is_scaled_diagonal():
    eta, nbar = 0.9, 0.7
    ks = gw.thermal_loss_kraus(eta, nbar, 12, 2)
    x = nbar / (nbar + 1)
    expected = math.sqrt(1 - x) * eta ** np.arange(12)
    np.testing.assert_allclose(np.diag(ks.operators[(0, 0)]), expected, atol=1e-12)


def test_k10_output_is_not_thermal():
    ks = gw.thermal_loss_kraus(0.8, 0.5, 40, 4)
    th = gw.fock_thermal(1.0, 40)
    out = ks.operators[(1, 0)] @ th.matrix @ ks.operators[(1, 0)].conj().T
    diag = np.real(np.diag(out))
    diag = diag / diag.sum()
    z = 0.5 * 0.64
    expected = (1 - z) ** 2 * (np.arange(40) + 1) * z ** np.arange(40)
    np.testing.assert_allclose(diag[:30], expected[:30], atol=1e-8)
    ratios = diag[1:10] / diag[:9]
    assert np.ptp(ratios) > 1e-3


def test_only_k00_preserves_thermal_family():
    # Scan low Kraus indices: K00 alone yields a constant-ratio (geometric) output.
    ks = gw.thermal_loss_kraus(0.75, 0.6, 40, 2)
    th = gw.fock_thermal(0.9, 40)
    for (m, n), op in ks.operators.items():
        if m > 2 or n > 2:
            continue
        diag = np.real(np.diag(op @ th.matrix @ op.conj().T))
        good = diag[:12] > 1e-15
        if np.count_nonzero(good[1:] & good[:-1]) < 4:
            continue
        pairs = np.flatnonzero(good[1:] & good[:-1])
        ratios = diag[pairs + 1] / diag[pairs]
        constant = np.ptp(ratios) < 1e-9
        assert constant == ((m, n) == (0, 0))


def test_pure_loss_reduction_at_zero_bath():
    ks = gw.thermal_loss_kraus(0.8, 0.0, 16, 5)
    assert all(n == 0 for (_, n) in ks.operators)
    # K_{m0} matches the standard pure-loss Kraus amplitudes.
    m = 2
    op = ks.operators[(m, 0)]
    eta = 0.8
    for n1 in range(m, 16):
        expected = (
            math.sqrt(math.comb(n1, m)) * (1 - eta**2) ** (m / 2) * eta ** (n1 - m)
        )
        assert op[n1 - m, n1] == pytest.approx(expected, abs=1e-12)


def test_kraus_requires_dim_at_least_max_mn():
    with pytest.raises(ValueError, match="too small"):
        gw.thermal_loss_kraus(0.8, 0.5, 10, 11)


def test_kraus_completeness_on_low_block():
    ks = gw.thermal_loss_kraus(0.9, 0.5, 40, 40)
    comp = ks.completeness_diagonal()
    assert np.max(np.abs(1 - comp[:20])) < 1e-6


def test_apply_identity_channel():
    ks = gw.thermal_loss_kraus(1.0, 0.0, 12, 3)
    rho = gw.fock_thermal(0.8, 12)
    out, deficit = gw.apply_kraus_channel(rho, ks)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)
    assert deficit < 1e-10


def test_channel_moments_match_phase_space_map():
    eta, nbar = 0.8, 0.5
    ks = gw.thermal_loss_kraus(eta, nbar, 40, 40)
    inputs = [gw.coherent(0.9), gw.squeezed(0.4), gw.thermal(1.5), gw.coherent(0.5 + 0.4j)]
    for state in inputs:
        rho = gw.fock_from_gaussian(state, 40)
        out, _ = gw.apply_kraus_channel(rho, ks)
        d_out, cm_out = gw.fock_moments(out)
        ps = gw.phase_space_loss_channel(state, eta, nbar)
        np.testing.assert_allclose(d_out, ps.displacement, atol=1e-6)
        np.testing.assert_allclose(cm_out, ps.cm, atol=1e-6)


def test_channel_thermal_mean_photon_drift():
    ks = gw.thermal_loss_kraus(0.8, 0.5, 40, 40)
    out, _ = gw.apply_kraus_channel(gw.fock_thermal(1.0, 40), ks)
    nbar = float(np.real(np.diag(out.matrix)) @ np.arange(40))
    assert nbar == pytest.approx(0.82, abs=1e-6)


@pytest.mark.parametrize("dim,max_mn", [(20, 20), (40, 20), (40, 40)])
@pytest.mark.parametrize("eta", [0.5, 0.8, 0.95])
@pytest.mark.parametrize("nbar", [0.0, 0.3])
def test_apply_matches_dense_reference(dim, max_mn, eta, nbar):
    ks = gw.thermal_loss_kraus(eta, nbar, dim, max_mn)
    states = [gw.coherent(0.9), gw.squeezed(0.4), gw.thermal(1.2)]
    inputs = [gw.fock_from_gaussian(state, dim) for state in states]
    for rho in inputs + [gw.fock_number_state(dim // 2, dim)]:
        out, deficit = gw.apply_kraus_channel(rho, ks)
        want, want_deficit = dense_kraus_apply(rho, ks)
        np.testing.assert_allclose(out.matrix, want, rtol=0, atol=1e-13)
        assert deficit == pytest.approx(want_deficit, rel=0, abs=1e-13)


def test_operators_view_matches_diagonals():
    ks = gw.thermal_loss_kraus(0.8, 0.5, 12, 4)
    ops = ks.operators
    assert set(ops) == {(m, n) for m in range(5) for n in range(5)}
    for (m, n), op in ops.items():
        for n1 in range(12):
            row = n1 + n - m
            want = np.zeros(12)
            if 0 <= row < 12:
                want[row] = ks.diagonals[m, n, n1]
            assert np.array_equal(op[:, n1], want)
    assert not np.shares_memory(ks.operators[(1, 0)], ops[(1, 0)])


@pytest.mark.parametrize("dim,max_mn", [(20, 20), (40, 20), (40, 40)])
@pytest.mark.parametrize("nbar", [0.0, 0.3])
def test_diagonal_gather_matches_scatter_loop(dim, max_mn, nbar):
    ops = gw.thermal_loss_kraus(0.8, nbar, dim, max_mn).operators
    want = scatter_kraus_operators(0.8, nbar, dim, max_mn)
    assert ops.keys() == want.keys()
    for key, op in want.items():
        assert np.array_equal(ops[key], op), key


def test_kraus_storage_stays_small():
    dim, max_mn = 40, 40
    rho = gw.fock_from_gaussian(gw.coherent(0.9), dim)
    tracemalloc.start()
    try:
        ks = gw.thermal_loss_kraus(0.8, 0.5, dim, max_mn)
        gw.apply_kraus_channel(rho, ks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ks.diagonals.nbytes == (max_mn + 1) * (max_mn + 1) * dim * 8
    assert peak < 4e6


def test_kraus_build_holds_one_block_at_a_time():
    # The blocks B_0..B_79 together take 1.4 MB; the stored diagonals 0.54 MB.
    # The untraced first build imports the layer, whose compilation would
    # dominate the peak.
    gw.thermal_loss_kraus(0.8, 0.5, 40, 40)
    tracemalloc.start()
    try:
        gw.thermal_loss_kraus(0.8, 0.5, 40, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def test_apply_kraus_rejects_dimension_mismatch():
    ks = gw.thermal_loss_kraus(0.8, 0.0, 12, 3)
    with pytest.raises(ValueError, match="dimension"):
        gw.apply_kraus_channel(gw.fock_thermal(0.5, 20), ks)


def test_phase_space_loss_rejects_bad_eta():
    with pytest.raises(ValueError, match="transmittance"):
        gw.phase_space_loss_channel(gw.vacuum(1), 0.0, 0.5)
    with pytest.raises(ValueError, match="transmittance"):
        gw.phase_space_loss_channel(gw.vacuum(1), 1.2, 0.5)


@pytest.mark.parametrize("nbar", [math.inf, math.nan])
def test_bath_must_be_finite(nbar):
    with pytest.raises(ValueError, match=f"bath mean photon number .* got {nbar}"):
        gw.thermal_loss_kraus(0.8, nbar, 6, 2)
    with pytest.raises(ValueError, match=f"bath mean photon number .* got {nbar}"):
        gw.phase_space_loss_channel(gw.vacuum(1), 0.8, nbar)


def test_phase_space_loss_identity():
    state = gw.squeezed(0.5)
    out = gw.phase_space_loss_channel(state, 1.0, 0.7)
    np.testing.assert_allclose(out.cm, state.cm)


def test_phase_space_loss_vacuum_to_thermal():
    eta, nbar = 0.6, 1.2
    out = gw.phase_space_loss_channel(gw.vacuum(1), eta, nbar)
    np.testing.assert_allclose(out.cm, ((1 - eta**2) * nbar + 0.5) * np.eye(2), atol=1e-12)


def test_phase_space_loss_preserves_freeness():
    rng = np.random.default_rng(91)
    from conftest import random_free_cm

    state = gw.GaussianState(np.zeros(6), random_free_cm(rng, 3))
    out = gw.phase_space_loss_channel(state, 0.7, 0.9)
    assert gw.is_free_cm(out.cm).gap < 1e-9


def test_postselect_free_onto_thermal_stays_free():
    rng = np.random.default_rng(92)
    from conftest import random_free_cm

    for _ in range(10):
        state = gw.GaussianState(np.zeros(8), random_free_cm(rng, 4))
        out = gw.gaussian_postselect(state, [3], 1.3 * np.eye(2))
        assert gw.is_free_cm(out.cm).gap < 1e-8


def test_postselect_tms_on_vacuum_gives_vacuum():
    out = gw.gaussian_postselect(gw.two_mode_squeezed(0.9), [1], 0.5 * np.eye(2))
    np.testing.assert_allclose(out.cm, 0.5 * np.eye(2), atol=1e-12)


def test_postselect_product_state_unchanged():
    rng = np.random.default_rng(93)
    a, b = random_state(rng, 1), random_state(rng, 1)
    out = gw.gaussian_postselect(gw.tensor([a, b]), [1], 0.5 * np.eye(2))
    np.testing.assert_allclose(out.cm, a.cm)
    np.testing.assert_allclose(out.displacement, a.displacement)


def test_postselect_conditional_mean():
    # Conditioning a displaced tms arm pulls the kept displacement toward zero.
    state = gw.apply_gaussian_unitary(gw.two_mode_squeezed(0.8), np.eye(4), [1.0, 0.0, 1.0, 0.0])
    out = gw.gaussian_postselect(state, [1], 0.5 * np.eye(2))
    assert out.displacement[0] != pytest.approx(1.0)


def test_fock_activity_number_states():
    for n in range(4):
        rho = gw.fock_number_state(n, 30)
        assert gw.fock_single_mode_activity(rho) == pytest.approx(
            gw.preset_activity("fock", n), abs=1e-10
        )


def test_fock_activity_thermal_is_free():
    rho = gw.fock_thermal(1.0, 60)
    assert abs(gw.fock_single_mode_activity(rho)) < 1e-6


def test_fock_activity_squeezed_matches_gaussian_form():
    rho = gw.fock_from_gaussian(gw.squeezed(0.5), 60)
    assert gw.fock_single_mode_activity(rho) == pytest.approx(
        gw.preset_activity("squeezed", 0.5), abs=1e-5
    )


def test_fock_activity_rejects_leaky_truncation():
    leaky = gw.fock_from_gaussian(gw.squeezed(1.8), 10)
    with pytest.raises(ValueError, match="leak"):
        gw.fock_single_mode_activity(leaky)


def test_fock_from_gaussian_moment_roundtrip():
    rng = np.random.default_rng(94)
    for _ in range(10):
        state = random_state(rng, 1, nu_min=0.5, nu_max=1.6, r_max=0.7, d_scale=0.5)
        rho = gw.fock_from_gaussian(state, 60)
        assert rho.trace == pytest.approx(1.0, abs=1e-7)
        d, cm = gw.fock_moments(rho)
        np.testing.assert_allclose(d, state.displacement, atol=1e-6)
        np.testing.assert_allclose(cm, state.cm, atol=1e-6)


def test_fock_from_gaussian_accepts_pure_squeezed_states():
    rng = np.random.default_rng(97)
    for _ in range(16):
        state = gw.squeezed(rng.uniform(0.1, 0.5), rng.uniform(0.0, math.pi))
        rho = gw.fock_from_gaussian(state, 60)
        assert rho.trace == pytest.approx(1.0, abs=1e-7)
        d, cm = gw.fock_moments(rho)
        np.testing.assert_allclose(d, state.displacement, atol=1e-6)
        np.testing.assert_allclose(cm, state.cm, atol=1e-6)


@pytest.mark.parametrize("dim", [20, 40])
def test_fock_from_gaussian_matches_expm_reference(dim):
    rng = np.random.default_rng(98)
    states = [
        gw.squeezed(0.6),
        gw.squeezed(0.45, 1.1),
        gw.coherent(0.7 - 0.4j),
        gw.GaussianState([0.3, -0.5], gw.squeezed(0.3, -2.0).cm + 0.2 * np.eye(2)),
    ]
    states += [random_state(rng, 1, nu_min=0.5, nu_max=1.2, r_max=0.5, d_scale=0.5) for _ in range(4)]
    for state in states:
        np.testing.assert_allclose(
            gw.fock_from_gaussian(state, dim).matrix, expm_fock_from_gaussian(state, dim), rtol=0, atol=1e-12
        )


def test_fock_from_gaussian_entropy_matches():
    rng = np.random.default_rng(95)
    state = random_state(rng, 1, nu_min=0.6, nu_max=1.5, r_max=0.5, d_scale=0.3)
    rho = gw.fock_from_gaussian(state, 50)
    assert fock_entropy(rho.matrix) == pytest.approx(gw.von_neumann_entropy(state), abs=1e-6)


def test_fock_coherent_amplitudes_independent_route():
    # Direct coherent-state amplitudes agree with the exponential construction.
    alpha = 0.8 + 0.3j
    dim = 40
    n = np.arange(dim)
    from scipy.special import gammaln

    amps = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(np.complex128(alpha)) - 0.5 * gammaln(n + 1))
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    direct = np.outer(amps, amps.conj())
    built = gw.fock_from_gaussian(gw.coherent(alpha), dim).matrix
    np.testing.assert_allclose(built, direct, atol=1e-10)


def test_fock_from_gaussian_matches_mpmath():
    # squeezed(1.2, 0.4) leaks 1.5e-4 at dim 40, so an error from padding and
    # cropping the truncated space would show there.
    rng = np.random.default_rng(99)
    states = [random_state(rng, 1, nu_max=2.0, r_max=0.8) for _ in range(12)]
    for state in states + [gw.squeezed(1.2, 0.4)]:
        got = gw.fock_from_gaussian(state, 40).matrix
        np.testing.assert_allclose(got, mp_fock_from_gaussian(state, 40), rtol=0, atol=1e-14)


def test_fock_from_gaussian_matches_mpmath_strongly_squeezed():
    state = gw.squeezed(1.5)
    got, want = gw.fock_from_gaussian(state, 80), mp_fock_from_gaussian(state, 80)
    np.testing.assert_allclose(got.matrix, want, rtol=0, atol=1e-14)
    # Nothing is padded, so the leak 1 - trace (6.9e-5 here) is the exact one.
    assert 1.0 - got.trace == pytest.approx(1.0 - np.trace(want).real, rel=1e-9)


def test_fock_from_gaussian_two_modes_matches_mpmath():
    rng = np.random.default_rng(100)
    for _ in range(3):
        state = random_state(rng, 2, nu_max=1.5, r_max=0.5, d_scale=0.5)
        got = gw.fock_from_gaussian(state, 6)
        assert got.n_modes == 2 and got.matrix.shape == (36, 36)
        np.testing.assert_allclose(got.matrix, mp_fock_from_gaussian(state, 6), rtol=0, atol=1e-14)


def test_fock_from_gaussian_product_is_kron():
    a = gw.squeezed(0.4, 0.3)
    b = gw.GaussianState([0.3, -0.2], gw.thermal(0.4).cm + 0.1 * np.diag([1.0, -1.0]))
    dim = 12
    want = np.kron(gw.fock_from_gaussian(a, dim).matrix, gw.fock_from_gaussian(b, dim).matrix)
    np.testing.assert_allclose(gw.fock_from_gaussian(gw.tensor([a, b]), dim).matrix, want, rtol=0, atol=1e-13)


def test_fock_from_gaussian_two_mode_squeezed_diagonal():
    r, dim = 0.6, 15
    rho = gw.fock_from_gaussian(gw.two_mode_squeezed(r), dim).matrix
    n = np.arange(dim)
    want = np.tanh(r) ** (2 * n) / np.cosh(r) ** 2
    np.testing.assert_allclose(np.diag(rho)[n * dim + n], want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.sum(np.abs(np.diag(rho))), np.sum(want), rtol=1e-14)


def test_fock_from_gaussian_reduced_state_matches_partial_trace():
    rng = np.random.default_rng(101)
    state = random_state(rng, 2, nu_max=1.3, r_max=0.3, d_scale=0.3)
    dim = 14
    rho = gw.fock_from_gaussian(state, dim).matrix.reshape(dim, dim, dim, dim)
    reduced = np.einsum("ikjk->ij", rho)
    want = gw.fock_from_gaussian(gw.partial_trace(state, [0]), dim).matrix
    np.testing.assert_allclose(reduced, want, rtol=0, atol=1e-6)


def test_fock_from_gaussian_refuses_over_budget():
    with pytest.raises(ValueError, match=r"dim 50 for 2 modes needs 6250000 entries, above the budget of 4194304"):
        gw.fock_from_gaussian(gw.vacuum(2), 50)


@pytest.mark.parametrize("dim", [0, -3, 2.5, True])
def test_fock_from_gaussian_refuses_bad_dim(dim):
    with pytest.raises(ValueError, match=f"dim must be a positive integer, got {dim!r}"):
        gw.fock_from_gaussian(gw.vacuum(1), dim)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fock_density_refuses_non_finite(bad):
    mat = np.eye(3) / 3
    mat[1, 1] = bad
    with pytest.raises(ValueError, match="density matrix must be finite"):
        gw.FockDensity(mat, dim=3)


@pytest.mark.parametrize("nbar", [math.nan, math.inf])
def test_fock_thermal_refuses_non_finite_nbar(nbar):
    with pytest.raises(ValueError, match=f"mean photon number must be finite and nonnegative, got {nbar}"):
        gw.fock_thermal(nbar, 5)


def test_postselect_demo():
    output, probability, gain = gw.fock_postselect_demo()
    assert probability == pytest.approx(0.5, abs=1e-12)
    assert np.real(output.matrix[2, 2]) == pytest.approx(1.0, abs=1e-12)
    assert gain == pytest.approx(
        gw.preset_activity("fock", 2) - gw.preset_activity("fock", 1), abs=1e-12
    )
    assert gain > 0
