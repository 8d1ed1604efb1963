import dataclasses
import inspect
import math
import re
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gausswork as gw
from gausswork.fock import _bs_blocks
from conftest import (
    dense_kraus_apply,
    expm_fock_from_gaussian,
    fock_entropy,
    mp_fock_from_gaussian,
    preset_activity,
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
    with pytest.raises(ValueError, match=r"photon number m1 must be an integer in \[0, inf\), got -1"):
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
    with pytest.raises(ValueError, match=r"max_mn must be an integer in \[0, 10\], got 11"):
        gw.thermal_loss_kraus(0.8, 0.5, 10, 11)


def test_kraus_completeness_on_low_block():
    ks = gw.thermal_loss_kraus(0.9, 0.5, 40, 40)
    comp = ks.completeness
    assert np.max(np.abs(1 - comp[:20])) < 1e-6


def test_apply_reads_the_completeness_stored_at_build():
    ks = gw.thermal_loss_kraus(0.9, 0.5, 12, 4)
    assert not ks.completeness.flags.writeable
    forged = dataclasses.replace(ks, completeness=np.full(12, 0.75))
    assert gw.apply_kraus_channel(gw.fock_thermal(0.3, 12), forged)[1] == 0.25


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


@pytest.mark.parametrize("dim,max_mn", [(6, 0), (20, 20), (40, 20), (40, 40)])
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


# (dim, max_mn) with 0 <= max_mn <= dim, so both ends (one shift at max_mn = 0, |k| = dim at max_mn = dim) are drawn.
kraus_sizes = st.integers(2, 24).flatmap(lambda dim: st.tuples(st.just(dim), st.integers(0, dim)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(eta=st.floats(0.0, 1.0, exclude_min=True), nbar=st.floats(0.0, 2.0), size=kraus_sizes,
       seed=st.integers(0, 2**32 - 1))
@example(eta=0.7, nbar=0.0, size=(9, 4), seed=1)  # n_max = 0: the shifts k <= 0 only
@example(eta=0.5, nbar=1.3, size=(7, 0), seed=2)  # the one shift k = 0
@example(eta=0.9, nbar=0.4, size=(6, 6), seed=3)  # max_mn = dim: an empty stack at k = -dim
@example(eta=1.0, nbar=2.0, size=(24, 24), seed=4)
def test_property_stacks_match_the_dense_operators(eta, nbar, size, seed):
    dim, max_mn = size
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    rho = gw.FockDensity(vecs @ vecs.conj().T / np.sum(np.abs(vecs) ** 2), dim=dim)
    ks = gw.thermal_loss_kraus(eta, nbar, dim, max_mn)
    out, deficit = gw.apply_kraus_channel(rho, ks)
    want, want_deficit = dense_kraus_apply(rho, ks)
    np.testing.assert_allclose(out.matrix, want, rtol=0, atol=1e-13)
    assert deficit == pytest.approx(want_deficit, rel=0, abs=1e-13)
    comp = sum(op.T @ op for op in ks.operators.values())
    assert np.array_equal(comp, np.diag(np.diag(comp)))  # shifted diagonals: sum K^T K has no other entry
    np.testing.assert_allclose(ks.completeness, np.diag(comp), rtol=0, atol=1e-14)


def test_operators_view_matches_diagonals():
    # Stack k = n - m holds K_mn[n1 + k, n1] at row n - max(0, k), column n1 - max(0, -k),
    # for the n1 whose output n1 + k is inside; every other entry of K_mn is zero.
    dim, max_mn = 12, 4
    ks = gw.thermal_loss_kraus(0.8, 0.5, dim, max_mn)
    ops = ks.operators
    assert set(ops) == {(m, n) for m in range(5) for n in range(5)}
    assert len(ks.stacks) == 2 * max_mn + 1
    for (m, n), op in ops.items():
        k = n - m
        stack = ks.stacks[k + max_mn]
        assert stack.shape == (min(max_mn, max_mn + k) - max(0, k) + 1, dim - abs(k))
        for n1 in range(dim):
            row = n1 + k
            want = np.zeros(dim)
            if 0 <= row < dim:
                want[row] = stack[n - max(0, k), n1 - max(0, -k)]
            assert np.array_equal(op[:, n1], want)
    assert not np.shares_memory(ks.operators[(1, 0)], ops[(1, 0)])
    assert not any(stack.flags.writeable for stack in ks.stacks)


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
    # Only the in-range entries are stored: sum_k #n_k (dim - |k|), #n_k = max_mn + 1 - |k| at n_max = max_mn.
    stored = sum((max_mn + 1 - abs(k)) * (dim - abs(k)) for k in range(-max_mn, max_mn + 1))
    assert stored == 44280
    assert sum(stack.size for stack in ks.stacks) == stored
    buffer = ks.stacks[0].base
    assert buffer.nbytes == stored * 8 and all(stack.base is buffer for stack in ks.stacks)
    assert peak < 4e6


def test_kraus_build_holds_one_block_at_a_time():
    # The blocks B_0..B_79 together take 1.4 MB; the stored stacks 0.35 MB.
    # The peak comes while B_79 is computed: three blocks and one numpy iterator buffer.
    # The untraced first build imports the layer, whose compilation would
    # dominate the peak.
    gw.thermal_loss_kraus(0.8, 0.5, 40, 40)
    tracemalloc.start()
    try:
        gw.thermal_loss_kraus(0.8, 0.5, 40, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.65e6


def test_apply_holds_no_kraus_sized_temporary():
    # The (40, 40) stacks take 0.35 MB; each shift's work is one band of
    # rho, at most 25.6 KB as complex.  The untraced first apply warms up.
    ks = gw.thermal_loss_kraus(0.8, 0.5, 40, 40)
    rho = gw.fock_from_gaussian(gw.coherent(0.9), 40)
    gw.apply_kraus_channel(rho, ks)
    tracemalloc.start()
    try:
        gw.apply_kraus_channel(rho, ks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25e6


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


_BRIGHT_Q = gw.GaussianState(np.zeros(2), np.diag([1e7, 1e-7]))  # a gate diag(2e7, 2e-7) with condition number 1e14
_LEAKY = gw.fock_from_gaussian(gw.thermal(3.0), 8)  # truncation leak 0.100, refused at LEAK_TOL = 1e-6


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gw.gaussian_postselect(gw.vacuum(2), [], 0.5 * np.eye(2)), "nonempty strict subset"),
        (lambda: gw.gaussian_postselect(gw.vacuum(2), [0, 1], 0.5 * np.eye(4)), "nonempty strict subset"),
        (lambda: gw.gaussian_postselect(gw.vacuum(2), [1], 0.5 * np.eye(4)), "wrong dimension"),
        (lambda: gw.gaussian_postselect(gw.vacuum(2), [1], 0.1 * np.eye(2)), "unphysical"),
        (
            lambda: gw.gaussian_postselect(gw.two_mode_squeezed(0.5), [5], 0.5 * np.eye(2)),
            r"mode index must be an integer in \[0, 1\], got 5",
        ),
        (
            lambda: gw.gaussian_postselect(gw.two_mode_squeezed(0.5), [-1], 0.5 * np.eye(2)),
            r"mode index must be an integer in \[0, 1\], got -1",
        ),
        (
            lambda: gw.gaussian_postselect(gw.tensor([gw.vacuum(1), _BRIGHT_Q]), [1], _BRIGHT_Q.cm),
            "ill-conditioned",
        ),
        (lambda: gw.FockDensity(np.eye(4), dim=3), "does not match dim 3"),
        (lambda: gw.fock_single_mode_activity(gw.fock_from_gaussian(gw.vacuum(2), 4)), "single-mode"),
        (
            lambda: gw.local_activity(gw.FockDensity(np.diag([1.5, -0.5]), dim=2)),
            r"density eigenvalue -5\.000e-01 is below -1e3 D eps: rho is not positive semidefinite",
        ),
        (
            lambda: gw.fock_single_mode_activity(gw.FockDensity(np.diag([1.5, -0.5]), dim=2)),
            "not positive semidefinite",
        ),
        (
            lambda: gw.local_activity(gw.FockDensity(np.diag([0.6, 0.6, -0.2, 0.0]), dim=2, n_modes=2)),
            r"density eigenvalue -2\.000e-01 is below",
        ),
        (lambda: gw.thermal_loss_kraus(0.8, 0.0, 1, 0), r"truncation dim must be an integer in \[2, inf\), got 1"),
        (lambda: gw.thermal_loss_kraus(0.8, 0.0, 4, -1), r"max_mn must be an integer in \[0, 4\], got -1"),
        (
            lambda: gw.thermal_loss_kraus(0.8, 0.1, 40.5, 20),
            r"truncation dim must be an integer in \[2, inf\), got 40\.5",
        ),
        (lambda: gw.thermal_loss_kraus(0.8, 0.1, 40, 20.0), r"max_mn must be an integer in \[0, 40\], got 20\.0"),
        (
            lambda: gw.bs_matrix_element(True, 0, 1, 0, 0.5),
            r"photon number m1 must be an integer in \[0, inf\), got True",
        ),
        (
            lambda: gw.bs_matrix_element(1.0, 0, 1, 0, 0.5),
            r"photon number m1 must be an integer in \[0, inf\), got 1\.0",
        ),
        (lambda: gw.FockDensity(np.eye(2) / 2, dim=2.0), r"truncation dim must be an integer in \[1, inf\), got 2\.0"),
        (
            lambda: gw.FockDensity(np.eye(2) / 2, dim=True),
            r"truncation dim must be an integer in \[1, inf\), got True",
        ),
        (
            lambda: gw.FockDensity(np.eye(4) / 4, dim=2, n_modes=2.0),
            r"number of modes must be an integer in \[1, inf\), got 2\.0",
        ),
        (
            lambda: gw.FockDensity(np.eye(1), dim=2, n_modes=0),
            r"number of modes must be an integer in \[1, inf\), got 0",
        ),
        (lambda: gw.fock_number_state(4, 4), r"photon number must be an integer in \[0, 3\], got 4"),
        (lambda: gw.fock_number_state(1, 2.5), r"truncation dim must be an integer in \[1, inf\), got 2\.5"),
        (lambda: gw.fock_number_state(1.5, 4), r"photon number must be an integer in \[0, 3\], got 1\.5"),
        (lambda: gw.fock_number_state(True, 4), r"photon number must be an integer in \[0, 3\], got True"),
        (lambda: gw.fock_thermal(0.5, 2.5), r"truncation dim must be an integer in \[1, inf\), got 2\.5"),
        (lambda: gw.fock_thermal(0.5, 0), r"truncation dim must be an integer in \[1, inf\), got 0"),
        (lambda: gw.fock_postselect_demo(2), r"truncation dim must be an integer in \[3, inf\), got 2"),
        (lambda: gw.fock_postselect_demo(0), r"truncation dim must be an integer in \[3, inf\), got 0"),
        (lambda: gw.fock_postselect_demo(8.0), r"truncation dim must be an integer in \[3, inf\), got 8\.0"),
    ],
)
def test_fock_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_postselect_gate_just_below_the_condition_bound_is_accepted():
    """A gate with condition number 1e11 passes the 1e12 bound and conditions as the Schur complement says."""
    bright = gw.GaussianState(np.zeros(2), np.diag([math.sqrt(1e11), 1.0 / math.sqrt(1e11)]))
    out = gw.gaussian_postselect(gw.tensor([gw.thermal(0.5), bright]), [1], bright.cm)
    np.testing.assert_allclose(out.cm, np.eye(2), atol=1e-12)


def test_fock_activity_number_states():
    for n in range(4):
        rho = gw.fock_number_state(n, 30)
        assert gw.fock_single_mode_activity(rho) == pytest.approx(
            preset_activity("fock", n), abs=1e-10
        )


def test_fock_activity_thermal_is_free():
    rho = gw.fock_thermal(1.0, 60)
    assert abs(gw.fock_single_mode_activity(rho)) < 1e-6


def test_fock_activity_squeezed_matches_gaussian_form():
    rho = gw.fock_from_gaussian(gw.squeezed(0.5), 60)
    assert gw.fock_single_mode_activity(rho) == pytest.approx(
        preset_activity("squeezed", 0.5), abs=1e-5
    )


def test_single_value_tolerances_are_module_constants(monkeypatch):
    """The leak bound is fock.LEAK_TOL and the symplectic bound TOL_SYMP, each read at each call; the other
    single-value knobs are gone too."""
    for func, name in ((gw.fock_single_mode_activity, "leak_tol"), (gw.unitary_to_orthosymplectic, "tol"),
                       (gw.is_symplectic, "tol"), (gw.is_orthosymplectic, "tol")):
        assert name not in inspect.signature(func).parameters
    with pytest.raises(ValueError, match=r"truncation leak 1\.00\de-01 exceeds tolerance 1\.0e-06"):
        gw.fock_single_mode_activity(_LEAKY)
    monkeypatch.setattr("gausswork.fock.LEAK_TOL", 0.2)
    assert math.isfinite(gw.fock_single_mode_activity(_LEAKY))
    monkeypatch.setattr("gausswork.fock.LEAK_TOL", 0.05)
    with pytest.raises(ValueError, match="exceeds tolerance 5.0e-02"):
        gw.fock_single_mode_activity(_LEAKY)
    nearly = np.eye(2) + 1e-12 * np.array([[1.0, 0.0], [0.0, 0.0]])  # off symplectic and orthogonal by 1e-12
    assert gw.is_symplectic(nearly) and gw.is_orthosymplectic(nearly)
    monkeypatch.setattr("gausswork.symplectic.TOL_SYMP", 1e-14)
    assert not gw.is_symplectic(nearly) and not gw.is_orthosymplectic(nearly)


def test_fock_activity_rejects_leaky_truncation():
    leaky = gw.fock_from_gaussian(gw.squeezed(1.8), 10)
    with pytest.raises(ValueError, match="leak"):
        gw.fock_single_mode_activity(leaky)


@pytest.mark.parametrize(
    "n_modes, dims, count, sampler",
    [
        (1, (20, 40, 60, 80), 8, dict(nu_max=1.5, r_max=0.5, d_scale=0.5)),
        (2, (16, 20, 24, 28), 3, dict(nu_max=0.8, r_max=0.2, d_scale=0.3)),
    ],
)
def test_fock_activity_matches_the_gaussian_route(n_modes, dims, count, sampler):
    """local_activity of fock_from_gaussian(s, dim) equals that of s, at the smallest dim whose leak is below 1e-12."""
    rng = np.random.default_rng(96 + n_modes)
    for _ in range(count):
        state = random_state(rng, n_modes, **sampler)
        rho = next(r for r in (gw.fock_from_gaussian(state, d) for d in dims) if abs(1.0 - r.trace) < 1e-12)
        fock, gauss = gw.local_activity(rho), gw.local_activity(state)
        assert fock.certified and rho.n_modes == n_modes
        assert fock.value == pytest.approx(gauss.value, abs=1e-10)
        np.testing.assert_allclose(fock.params["b"], gauss.params["b"], rtol=0, atol=1e-10)


def test_two_photon_pair_activity_is_invariant_under_a_beam_splitter():
    """A(|1,1>) = 2 g(3/2), and a 50:50 beam splitter from bs_matrix_element, which is passive, keeps it."""
    dim = 4
    pair = np.zeros(dim * dim)
    pair[dim + 1] = 1.0
    rho = gw.FockDensity(np.outer(pair, pair), dim=dim, n_modes=2)
    assert gw.local_activity(rho).value == pytest.approx(2.0 * gw.thermal_entropy(1.5), abs=1e-15)
    for eta in (1.0 / math.sqrt(2.0), 0.3):
        unitary = np.array([[gw.bs_matrix_element(*divmod(k, dim), *divmod(col, dim), eta) for col in range(dim**2)]
                            for k in range(dim**2)])
        out = gw.FockDensity(unitary @ rho.matrix @ unitary.T, dim=dim, n_modes=2)
        assert out.trace == pytest.approx(1.0, abs=1e-14)
        report = gw.local_activity(out)
        assert report.value == pytest.approx(2.0 * gw.thermal_entropy(1.5), abs=1e-12)
        np.testing.assert_allclose(report.params["b"], [1.5, 1.5], rtol=0, atol=1e-14)


def _pure_density(amplitudes, dim, n_modes=1):
    """|psi><psi| for psi with the given {flat Fock index: amplitude}, normalised."""
    psi = np.zeros(dim**n_modes)
    for k, a in amplitudes.items():
        psi[k] = a
    psi /= np.linalg.norm(psi)
    return gw.FockDensity(np.outer(psi, psi), dim=dim, n_modes=n_modes)


@pytest.mark.parametrize(
    "rho",
    [gw.fock_number_state(2, 8), _pure_density({0: 1.0, 2: 1.0}, 12), _pure_density({1: 1.0, 4: 1.0}, 4, 2),
     gw.fock_from_gaussian(gw.two_mode_squeezed(0.3), 14)],
    ids=["number", "superposition", "split-photon", "tms"],
)
def test_moment_functionals_read_a_density_as_the_gaussian_state_with_its_moments(rho):
    twin = gw.GaussianState(*gw.fock_moments(rho))
    assert gw.energy(rho) == gw.energy(twin)
    np.testing.assert_array_equal(gw.mean_photon_numbers(rho), gw.mean_photon_numbers(twin))
    assert gw.extractable_work(rho) == gw.extractable_work(twin)
    protocol, reference = gw.extraction_protocol(rho), gw.extraction_protocol(twin)
    for field in ("displacement_step", "passive_step", "squeezer_step"):
        np.testing.assert_array_equal(getattr(protocol, field), getattr(reference, field))
    np.testing.assert_array_equal(protocol.final_cm.cm, reference.final_cm.cm)
    occupancies = gw.mean_photon_numbers(twin) + 0.5
    assert gw.gaussian_coherence(rho) == float(np.sum(gw.thermal_entropy(occupancies))) - gw.von_neumann_entropy(rho)


def test_superadditivity_gap_reads_a_density_by_its_moments():
    # A part's moments are the principal submatrix of the joint ones, so the gap of a density is that of its twin.
    rho = gw.fock_from_gaussian(gw.two_mode_squeezed(0.3), 12)
    twin = gw.GaussianState(*gw.fock_moments(rho))
    assert gw.superadditivity_gap(rho, [0], [1]) == gw.superadditivity_gap(twin, [0], [1])
    with pytest.raises(ValueError, match="^truncation leak .* exceeds tolerance"):
        gw.superadditivity_gap(gw.fock_from_gaussian(gw.two_mode_squeezed(0.3), 4), [0], [1])


def test_work_of_a_truncated_density_carries_the_truncation_error():
    """|W(rho) - W(s)| for rho = fock_from_gaussian(s, dim) falls with the leak: 1.6e-6, 8.6e-10 and 4.4e-13 for
    squeezed(0.5) at dim 20, 30 and 40 (leaks 3.9e-8, 1.4e-11, 5e-15); 5.6e-14 for two_mode_squeezed(0.3) at 14."""
    state = gw.squeezed(0.5)
    errors = [abs(gw.extractable_work(gw.fock_from_gaussian(state, dim)).quadratic
                  - gw.extractable_work(state).quadratic) for dim in (20, 30, 40)]
    assert errors[0] < 2e-6 and errors[1] < 1e-9 and errors[2] <= 1e-12
    assert errors[0] > errors[1] > errors[2]
    tms = gw.two_mode_squeezed(0.3)
    rho = gw.fock_from_gaussian(tms, 14)
    assert gw.extractable_work(rho).quadratic == pytest.approx(gw.extractable_work(tms).quadratic, abs=1e-13)


@pytest.mark.parametrize("rho", [*(gw.fock_number_state(n, 8) for n in range(6)), gw.fock_thermal(1.5, 60)],
                         ids=[*(f"n{n}" for n in range(6)), "thermal"])
def test_number_and_thermal_densities_hold_no_work(rho):
    assert abs(gw.extractable_work(rho).total) <= 1e-15
    assert gw.is_free_cm(gw.fock_moments(rho)[1]).spectral_free
    assert gw.is_free_cm(gw.extraction_protocol(rho).final_cm.cm).spectral_free


def test_density_activity_is_at_most_its_coherence_and_equals_it_on_number_states():
    for rho in (_pure_density({1: 1.0, 4: 1.0}, 4, 2), gw.fock_from_gaussian(gw.two_mode_squeezed(0.3), 14)):
        assert gw.local_activity(rho).value <= gw.gaussian_coherence(rho)
    split = _pure_density({1: 1.0, 4: 1.0}, 4, 2)  # one photon over two modes: A = g(3/2) < 2 g(1), the coherence
    assert gw.local_activity(split).value == pytest.approx(gw.thermal_entropy(1.5), abs=1e-15)
    assert gw.gaussian_coherence(split) == pytest.approx(2.0 * gw.thermal_entropy(1.0), abs=1e-15)
    for n in range(6):
        rho = gw.fock_number_state(n, 8)
        assert gw.local_activity(rho).value == pytest.approx(gw.gaussian_coherence(rho), abs=1e-15)
        assert gw.gaussian_coherence(rho) == pytest.approx(gw.thermal_entropy(n + 0.5), abs=1e-15)


@pytest.mark.parametrize("rho", [gw.fock_number_state(2, 8), _pure_density({0: 1.0, 2: 1.0}, 12),
                                 _pure_density({1: 1.0, 4: 1.0}, 4, 2)], ids=["number", "superposition", "split"])
def test_density_coherence_is_its_relative_entropy_to_the_thermal_product(rho):
    tau = gw.GaussianState(np.zeros(2 * rho.n_modes), np.diag(np.repeat(gw.mean_photon_numbers(rho) + 0.5, 2)))
    assert gw.relative_entropy(rho, tau) == pytest.approx(gw.gaussian_coherence(rho), abs=1e-12)


def test_superposition_work_is_the_protocols_energy_drop():
    """(|0> + |2>) / sqrt(2) has the moments of a squeezed thermal state with nu = sqrt(7) / 2 and energy 3/2."""
    rho = _pure_density({0: 1.0, 2: 1.0}, 12)
    work = gw.extractable_work(rho).quadratic
    assert work == pytest.approx((3.0 - math.sqrt(7.0)) / 2.0, abs=1e-15)  # 0.177124344468
    protocol = gw.extraction_protocol(rho)
    assert gw.energy(rho) - 0.5 * np.trace(protocol.final_cm.cm) == pytest.approx(work, abs=1e-15)
    assert gw.is_free_cm(protocol.final_cm.cm).spectral_free


def test_leaky_density_is_refused_alike_by_every_functional():
    rho = gw.fock_from_gaussian(gw.thermal(2.0), 20)  # leak 3.0e-4
    sigma = gw.thermal(2.0)
    for call in (gw.extractable_work, gw.extraction_protocol, gw.energy, gw.mean_photon_numbers, gw.local_activity,
                 gw.gaussian_coherence, gw.von_neumann_entropy, lambda rho: gw.relative_entropy(rho, sigma),
                 gw.williamson, gw.is_free_cm):
        with pytest.raises(ValueError) as info:
            call(rho)
        assert str(info.value) == "truncation leak 3.007e-04 exceeds tolerance 1.0e-06"


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


def dense_ladder_moments(rho: gw.FockDensity):
    """(d, cm) from traces against the dense dim x dim annihilation matrix."""
    a = np.diag(np.sqrt(np.arange(1.0, rho.dim)), 1)
    mat, tr = rho.matrix, np.real(np.trace(rho.matrix))
    mean_a, mean_aa = np.trace(mat @ a) / tr, np.trace(mat @ a @ a) / tr
    mean_n = np.real(np.trace(mat @ a.T @ a)) / tr
    d = math.sqrt(2.0) * np.array([mean_a.real, mean_a.imag])
    qq, pp = mean_n + 0.5 + mean_aa.real - d[0] ** 2, mean_n + 0.5 - mean_aa.real - d[1] ** 2
    qp = mean_aa.imag - d[0] * d[1]
    return d, np.array([[qq, qp], [qp, pp]])


@pytest.mark.parametrize(
    "rho",
    [
        gw.fock_number_state(0, 1),
        gw.fock_thermal(0.7, 1),
        gw.fock_number_state(1, 2),
        gw.FockDensity(np.array([[0.6, 0.3 - 0.2j], [0.3 + 0.2j, 0.4]]), dim=2),
        gw.fock_number_state(3, 40),
        gw.fock_thermal(1.5, 40),
        gw.fock_from_gaussian(gw.apply_gaussian_unitary(gw.squeezed(0.6, 0.9), np.eye(2), [0.8, -1.1]), 40),
        gw.fock_from_gaussian(gw.coherent(1.2 - 0.7j), 40),
    ],
)
def test_fock_moments_match_the_dense_ladder_reference(rho):
    d, cm = gw.fock_moments(rho)
    d_ref, cm_ref = dense_ladder_moments(rho)
    bound = 1e-14 * (1.0 + np.linalg.norm(cm_ref))
    np.testing.assert_allclose(d, d_ref, rtol=0, atol=bound)
    np.testing.assert_allclose(cm, cm_ref, rtol=0, atol=bound)


def two_mode_ladder_moments(rho: gw.FockDensity):
    """(d, cm) of a two-mode density from traces against dense dim^2 x dim^2 ladder matrices a_1, a_2."""
    lower = np.diag(np.sqrt(np.arange(1.0, rho.dim)), 1)
    ops = [np.kron(lower, np.eye(rho.dim)), np.kron(np.eye(rho.dim), lower)]
    mat = rho.matrix / np.real(np.trace(rho.matrix))
    a = np.array([np.trace(mat @ op) for op in ops])
    aa = np.array([[np.trace(mat @ x @ y) for y in ops] for x in ops]) - np.outer(a, a)
    ada = np.array([[np.trace(mat @ x.T @ y) for y in ops] for x in ops]) - np.outer(a.conj(), a)
    d, cm = np.zeros(4), np.zeros((4, 4))
    for i in range(2):
        d[2 * i : 2 * i + 2] = math.sqrt(2.0) * a[i].real, math.sqrt(2.0) * a[i].imag
        for j in range(2):
            # <q_i q_j>, <q_i p_j>, <p_i q_j>, <p_i p_j>, symmetrised, with [a_i, a_j^dag] = delta_ij.
            half = 0.5 if i == j else 0.0
            cm[2 * i, 2 * j] = (aa[i, j] + ada[i, j]).real + half
            cm[2 * i, 2 * j + 1] = (aa[i, j] + ada[i, j]).imag
            cm[2 * i + 1, 2 * j] = (aa[i, j] - ada[i, j]).imag
            cm[2 * i + 1, 2 * j + 1] = (ada[i, j] - aa[i, j]).real + half
    return d, cm


@pytest.mark.parametrize(
    "rho",
    [
        gw.fock_from_gaussian(gw.vacuum(2), 2),
        gw.FockDensity(np.kron(gw.fock_number_state(1, 3).matrix, gw.fock_thermal(0.4, 3).matrix), dim=3, n_modes=2),
        gw.fock_from_gaussian(gw.two_mode_squeezed(0.4), 12),
        gw.fock_from_gaussian(random_state(np.random.default_rng(102), 2, nu_max=1.5, r_max=0.5, d_scale=0.6), 10),
    ],
)
def test_two_mode_fock_moments_match_the_dense_ladder_reference(rho):
    d, cm = gw.fock_moments(rho)
    d_ref, cm_ref = two_mode_ladder_moments(rho)
    bound = 1e-14 * (1.0 + np.linalg.norm(cm_ref))
    np.testing.assert_allclose(d, d_ref, rtol=0, atol=bound)
    np.testing.assert_allclose(cm, cm_ref, rtol=0, atol=bound)
    assert np.array_equal(cm, cm.T)


def test_fock_moments_hold_no_dim_by_dim_temporary():
    # At dim 200 one dense ladder matrix takes 320 KB and one complex product 640 KB; the diagonals take 3.2 KB.
    rho = gw.fock_from_gaussian(gw.coherent(1.2 - 0.7j), 200)
    gw.fock_moments(rho)
    tracemalloc.start()
    try:
        gw.fock_moments(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05e6


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


@pytest.mark.parametrize(
    "build, edge, what, count",
    [
        (lambda d: gw.fock_number_state(1, d), 2048, "one-mode density at dim 2049", 2049**2),
        (lambda d: gw.fock_thermal(0.5, d), 2048, "one-mode density at dim 2049", 2049**2),
        (lambda d: gw.fock_from_gaussian(gw.vacuum(1), d), 2048, "Fock conversion at dim 2049 for 1 modes", 2049**2),
        # Blocks up to N = dim - 1: sum (k + 1)^2 is 4,189,340 at N = 231 and 4,243,629 at N = 232.
        (lambda d: gw.thermal_loss_kraus(0.8, 0.0, d, 0), 232, "beam-splitter recurrence to N = 232", 4243629),
    ],
    ids=["fock_number_state", "fock_thermal", "fock_from_gaussian", "thermal_loss_kraus"],
)
def test_the_entry_budget_accepts_its_edge_and_refuses_one_above(build, edge, what, count):
    # 2048^2 = 2^22 is the budget itself; one level more is refused before anything is allocated.
    assert build(edge).dim == edge
    with pytest.raises(ValueError, match=f"^{re.escape(what)} needs {count} entries, above the budget of 4194304$"):
        build(edge + 1)


def test_bs_blocks_check_their_entries_at_the_call():
    # A generator body runs only when first read: the check is made at the call, before the first block is built.
    with pytest.raises(ValueError, match=r"^beam-splitter recurrence to N = 232 needs 4243629 entries"):
        _bs_blocks(0.5, 232)
    _bs_blocks(0.5, 231)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gw.thermal_loss_kraus(0.8, 0.1, 2048, 2048), "recurrence to N = 2357 needs 4373069379 entries"),
        (lambda: gw.bs_matrix_element(0, 3000, 3000, 0, 0.5), "recurrence to N = 3000 needs 9013506501 entries"),
    ],
    ids=["thermal_loss_kraus", "bs_matrix_element"],
)
def test_an_oversize_request_is_refused_before_it_allocates(call, message):
    # Each once laid out gigabytes and ran the recurrence for minutes; now it is refused at once.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=f"^beam-splitter {message}, above the budget of 4194304$"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1e6


def test_the_dense_kraus_view_passes_the_entry_budget():
    # 61 x 61 operators of 60 x 60 entries, though the set stores 147,620: the view is refused, the set is not.
    kraus = gw.thermal_loss_kraus(0.8, 5.0, 60, 60)
    with pytest.raises(ValueError, match=r"^dense Kraus view needs 13395600 entries, above the budget of 4194304$"):
        kraus.operators


def test_fock_from_gaussian_peaks_at_three_tensors():
    # The recurrence's tensor, which FockDensity keeps without a copy, and the
    # real half-size temporaries of the Hermitian check, one at a time; the
    # recurrence slabs and ufunc buffers stay within the rest allowed.
    state = gw.two_mode_squeezed(0.5)
    tracemalloc.start()
    try:
        rho = gw.fock_from_gaussian(state, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho.matrix.nbytes == 30**4 * 16
    assert peak <= 2.1 * rho.matrix.nbytes


def _read_only_view_of_a_writable_array():
    view = np.diag([0.7, 0.3]).astype(complex)[:, :]
    view.setflags(write=False)
    return view


def _read_only_owning_array():
    mat = np.diag([0.7, 0.3]).astype(complex)
    mat.setflags(write=False)  # its owner may make it writable again
    return mat


@pytest.mark.parametrize(
    "make",
    [lambda: np.diag([0.7, 0.3]), lambda: np.diag([0.7, 0.3]).astype(complex), _read_only_view_of_a_writable_array,
     _read_only_owning_array],
    ids=["real", "complex-writable", "read-only-view", "read-only-owner"],
)
def test_fock_density_is_not_changed_through_the_callers_array(make):
    mat = make()
    rho = gw.FockDensity(mat, dim=2)
    assert not rho.matrix.flags.writeable and not np.shares_memory(rho.matrix, mat)
    owner = mat if mat.base is None else mat.base
    owner.setflags(write=True)
    owner[...] = 5.0
    np.testing.assert_array_equal(rho.matrix, np.diag([0.7, 0.3]))
    assert rho.trace == 1.0


def test_fock_density_refuses_non_hermitian():
    with pytest.raises(ValueError, match="density matrix is not Hermitian"):
        gw.FockDensity(np.array([[0.5, 0.1], [0.0, 0.5]]), dim=2)


@pytest.mark.parametrize("dim", [0, -3, 2.5, True])
def test_fock_from_gaussian_refuses_bad_dim(dim):
    with pytest.raises(ValueError, match=re.escape(f"truncation dim must be an integer in [1, inf), got {dim!r}")):
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


def test_postselect_demo_at_the_smallest_truncation_that_holds_two_photons():
    output, probability, gain = gw.fock_postselect_demo(3)
    assert probability == pytest.approx(0.5, abs=1e-12)
    assert output.dim == 3 and np.real(output.matrix[2, 2]) == pytest.approx(1.0, abs=1e-12)


def test_postselect_demo():
    output, probability, gain = gw.fock_postselect_demo()
    assert probability == pytest.approx(0.5, abs=1e-12)
    assert np.real(output.matrix[2, 2]) == pytest.approx(1.0, abs=1e-12)
    assert gain == pytest.approx(
        preset_activity("fock", 2) - preset_activity("fock", 1), abs=1e-12
    )
    assert gain > 0
