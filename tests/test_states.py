import math

import numpy as np
import pytest

import gausswork as gw
from conftest import (fock_relative_entropy, mp_thermal_entropy, random_cm, random_orthosymplectic, random_state,
                      random_symplectic, williamson_gibbs)

LN2 = math.log(2.0)


def test_thermal_zero_is_vacuum():
    np.testing.assert_allclose(gw.thermal(0.0).cm, gw.vacuum(1).cm)
    np.testing.assert_allclose(gw.thermal(0.0).displacement, np.zeros(2))


def test_squeezed_zero_is_vacuum():
    np.testing.assert_allclose(gw.squeezed(0.0).cm, gw.vacuum(1).cm)


def test_tms_is_pure():
    nus = gw.symplectic_eigenvalues(gw.two_mode_squeezed(1.0).cm)
    np.testing.assert_allclose(nus, [0.5, 0.5], atol=1e-12)


def test_energy_examples():
    assert gw.energy(gw.vacuum(1)) == pytest.approx(0.5)
    assert gw.energy(gw.thermal(2.0)) == pytest.approx(2.5)
    assert gw.energy(gw.coherent(1.0)) == pytest.approx(1.5)


def test_mean_photon_numbers_examples():
    np.testing.assert_allclose(gw.mean_photon_numbers(gw.thermal(3.0)), [3.0])
    r = 0.8
    np.testing.assert_allclose(gw.mean_photon_numbers(gw.squeezed(r)), [math.sinh(r) ** 2])
    np.testing.assert_allclose(gw.mean_photon_numbers(gw.coherent(1.2 - 0.5j)), [1.2**2 + 0.5**2])


def test_apply_identity_leaves_state():
    state = gw.two_mode_squeezed(0.4)
    out = gw.apply_gaussian_unitary(state, np.eye(4))
    np.testing.assert_allclose(out.cm, state.cm)
    np.testing.assert_allclose(out.displacement, state.displacement)


def test_vacuum_under_squeezer_is_squeezed():
    out = gw.apply_gaussian_unitary(gw.vacuum(1), gw.squeezer_direct_sum(0.6))
    np.testing.assert_allclose(out.cm, gw.squeezed(0.6).cm, atol=1e-14)


def test_two_squeezed_through_balanced_bs_gives_tms():
    r = 0.75
    pair = gw.tensor([gw.squeezed(-r), gw.squeezed(r)])
    bs = gw.compile_passive_circuit(
        gw.PassiveCircuit(n_modes=2, elements=(gw.BeamSplitter(np.pi / 4, (0, 1)),))
    )
    out = gw.apply_gaussian_unitary(pair, bs)
    np.testing.assert_allclose(out.cm, gw.two_mode_squeezed(r).cm, atol=1e-12)


def test_apply_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="match"):
        gw.apply_gaussian_unitary(gw.vacuum(1), np.eye(4))


def test_tensor_examples():
    np.testing.assert_allclose(gw.tensor([gw.vacuum(1), gw.vacuum(1)]).cm, 0.5 * np.eye(4))
    np.testing.assert_allclose(
        gw.tensor([gw.thermal(1.0), gw.thermal(2.0)]).cm, np.diag([1.5, 1.5, 2.5, 2.5])
    )
    with pytest.raises(ValueError):
        gw.tensor([])


def test_energy_additive_under_tensor():
    rng = np.random.default_rng(20)
    parts = [random_state(rng, 1), random_state(rng, 2)]
    assert gw.energy(gw.tensor(parts)) == pytest.approx(sum(gw.energy(p) for p in parts))


def test_partial_trace_of_tms_is_thermal():
    r = 0.9
    reduced = gw.partial_trace(gw.two_mode_squeezed(r), [0])
    np.testing.assert_allclose(reduced.cm, (math.sinh(r) ** 2 + 0.5) * np.eye(2), atol=1e-12)


def test_partial_trace_of_tensor_recovers_factor():
    rng = np.random.default_rng(21)
    a, b = random_state(rng, 1), random_state(rng, 1)
    got = gw.partial_trace(gw.tensor([a, b]), [0])
    np.testing.assert_allclose(got.cm, a.cm)
    np.testing.assert_allclose(got.displacement, a.displacement)


def test_partial_trace_rejects_empty_keep():
    with pytest.raises(ValueError):
        gw.partial_trace(gw.vacuum(2), [])


def test_partial_trace_then_tensor_preserves_blocks():
    rng = np.random.default_rng(22)
    state = random_state(rng, 3)
    marginals = [gw.partial_trace(state, [m]) for m in range(3)]
    rebuilt = gw.tensor(marginals)
    for m in range(3):
        sl = slice(2 * m, 2 * m + 2)
        np.testing.assert_array_equal(rebuilt.cm[sl, sl], state.cm[sl, sl])


def test_entropy_examples():
    assert gw.von_neumann_entropy(gw.vacuum(1)) == pytest.approx(0.0, abs=1e-12)
    assert gw.von_neumann_entropy(gw.thermal(1.0)) == pytest.approx(2 * LN2, abs=1e-12)
    assert gw.von_neumann_entropy(gw.two_mode_squeezed(1.0)) == pytest.approx(0.0, abs=1e-9)


def test_entropy_of_pure_presets_vanishes():
    for state in (gw.vacuum(1), gw.coherent(0.7 + 0.2j), gw.squeezed(1.1), gw.two_mode_squeezed(0.8)):
        assert gw.von_neumann_entropy(state) < 1e-9


def test_thermal_entropy_matches_the_mpmath_oracle():
    # x = nu - 1/2 from 2^-40 to 1e20: log1p(x) + x log1p(1/x) keeps every digit (one eps at most was measured).
    xs = np.concatenate([2.0 ** -np.arange(1, 41), np.logspace(0, 20, 201)])
    values = gw.thermal_entropy(0.5 + xs)
    for x, value in zip(xs, values):
        ref = mp_thermal_entropy(0.5 + x)
        assert abs(value - ref) <= 4e-16 * ref
        assert gw.thermal_entropy(0.5 + x) == value
    np.testing.assert_array_equal(gw.thermal_entropy([0.5, 0.3]), [0.0, 0.0])


@pytest.mark.parametrize("nbar", [1e6, 1e9, 1e15, 1e20])
def test_entropy_of_a_bright_thermal_state_keeps_every_digit(nbar):
    # (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2) cancels: in doubles it is 1.3e-2 off at 1e15 and 0 at 1e20.
    ref = mp_thermal_entropy(nbar + 0.5)
    assert abs(gw.von_neumann_entropy(gw.thermal(nbar)) - ref) <= 4e-16 * ref


def test_every_functional_answers_entries_just_below_the_overflow_bound():
    # The suite turns a RuntimeWarning into a failure, so each call answers without an overflow.
    state = gw.GaussianState(np.zeros(2), np.diag([1e140, 1.0]))
    bright = gw.GaussianState([1e140, 0.0], 0.5 * np.eye(2))
    assert gw.validate_cm(state.cm).valid
    assert gw.symplectic_eigenvalues(state.cm) == pytest.approx([1e70])
    assert not gw.is_free_cm(state.cm).spectral_free
    assert gw.williamson(state).nu == pytest.approx([1e70])
    assert gw.von_neumann_entropy(state) == pytest.approx(mp_thermal_entropy(1e70), rel=1e-15)  # 162.18
    for st in (state, bright):
        assert gw.energy(st) == pytest.approx(gw.extractable_work(st).total + 0.5, rel=1e-12)
        assert gw.mean_photon_numbers(st)[0] == pytest.approx(gw.energy(st) - 0.5, rel=1e-12)
        assert gw.extraction_protocol(st).work_quadratic == pytest.approx(gw.extractable_work(st).quadratic)
        assert gw.local_activity(st).value >= -1e-12
        assert gw.gaussian_coherence(st) >= -1e-12
        assert math.isfinite(gw.relative_entropy(st, gw.thermal(1.0)))
    assert gw.relative_entropy(gw.thermal(1.0), state) > 0.0


def test_energy_invariant_under_passive_circuits():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        state = random_state(rng, n)
        out = gw.apply_gaussian_unitary(state, random_orthosymplectic(rng, n))
        assert abs(gw.energy(out) - gw.energy(state)) < 1e-10


def test_gibbs_matrix_thermal():
    # For a thermal state the exponent matrix is 2 arccoth(2 nu) I.
    nbar = 1.0
    expected = 2 * np.arctanh(1.0 / 3.0) * np.eye(2)
    np.testing.assert_allclose(williamson_gibbs(gw.thermal(nbar).cm), expected, atol=1e-12)


@pytest.mark.parametrize("n_modes", [1, 2, 8, 64])
def test_gibbs_matrix_matches_the_williamson_formula(n_modes):
    # relative_entropy's Gibbs matrix, read in sigma's normal modes, against -Omega S diag(2 arccoth(2 nu)) S^T Omega
    # through S(rho || sigma) = -S(rho) + [sum ln(nu_k^2 - 1/4) + Tr(M G)] / 2, also on spectra with ties (a squeezed
    # thermal product, every nu equal), where the canonical pairs inside an eigenspace are not unique.
    rng = np.random.default_rng(140 + n_modes)
    s = random_symplectic(rng, n_modes, r_max=1.5)
    cms = [random_cm(rng, n_modes, nu_min=0.6, r_max=1.5), 1.7 * s @ s.T]
    rho = random_state(rng, n_modes)
    second = rho.cm + np.outer(rho.displacement, rho.displacement)
    for cm in (0.5 * (c + c.T) for c in cms):
        logdet = np.sum(np.log(gw.symplectic_eigenvalues(cm) ** 2 - 0.25))
        ref = -gw.von_neumann_entropy(rho) + 0.5 * (logdet + np.sum(second * williamson_gibbs(cm)))
        sigma = gw.GaussianState(np.zeros(2 * n_modes), cm)
        assert gw.relative_entropy(rho, sigma) == pytest.approx(ref, rel=1e-12)


def test_relative_entropy_self_is_zero():
    rng = np.random.default_rng(24)
    state = random_state(rng, 2, nu_min=0.6)
    assert gw.relative_entropy(state, state) == 0.0
    clone = gw.GaussianState(state.displacement.copy(), state.cm.copy())
    assert abs(gw.relative_entropy(state, clone)) < 1e-10


def test_relative_entropy_vacuum_vs_thermal():
    assert gw.relative_entropy(gw.vacuum(1), gw.thermal(1.0)) == pytest.approx(LN2, abs=1e-12)


def test_relative_entropy_coherent_vs_thermal():
    # displacement term contributes 2 ln 2; total is 2 ln 2
    rho, sigma = gw.coherent(1.0), gw.thermal(1.0)
    delta = rho.displacement - sigma.displacement
    g2 = williamson_gibbs(sigma.cm)
    assert delta @ g2 @ delta == pytest.approx(2 * LN2, abs=1e-12)
    assert gw.relative_entropy(rho, sigma) == pytest.approx(2 * LN2, abs=1e-12)


def test_relative_entropy_pure_target_is_infinite():
    assert math.isinf(gw.relative_entropy(gw.thermal(1.0), gw.vacuum(1)))
    assert math.isinf(gw.relative_entropy(gw.coherent(0.3), gw.squeezed(0.4)))


def test_half_a_photon_in_the_vacuum_of_a_bright_reference_is_not_rounding():
    # sigma's kappa is 4e9, but the rounding of the photons in its vacuum mode is set by that mode alone.
    sigma = gw.tensor([gw.thermal(1e9), gw.vacuum(1)])
    assert math.isinf(gw.relative_entropy(gw.tensor([gw.thermal(1e9), gw.thermal(0.5)]), sigma))


def test_relative_entropy_to_a_reference_with_a_pure_mode_sweep():
    # sigma = U (thermal(b) x vacuum) and rho = U (thermal(a) x thermal(m)) under one random passive U: +inf for every
    # m > 0, down to 1e-3 photons against 1e9, and S(thermal(a) || thermal(b)) >= 0 for m = 0.  There the rotated
    # vacuum of rho reads nu = 1/2 + O(eps a), whose entropy is the noise the value may carry.
    rng = np.random.default_rng(27)
    for _ in range(300):
        a, b = 10.0 ** rng.uniform(-2.0, 9.0, size=2)
        m = float(rng.choice([0.0, 1e-3, 0.5, 3.0]))
        u = random_orthosymplectic(rng, 2)
        sigma = gw.apply_gaussian_unitary(gw.tensor([gw.thermal(b), gw.vacuum(1)]), u)
        value = gw.relative_entropy(gw.apply_gaussian_unitary(gw.tensor([gw.thermal(a), gw.thermal(m)]), u), sigma)
        if m > 0.0:
            assert math.isinf(value)
            continue
        a, b = gw.thermal(a).cm[0, 0] - 0.5, gw.thermal(b).cm[0, 0] - 0.5
        exact = -mp_thermal_entropy(a + 0.5) + math.log1p(b) + a * math.log1p(1.0 / b)
        noise = gw.thermal_entropy(0.5 + 4 * np.finfo(float).eps * (a + 1.0))
        assert value >= -noise
        assert abs(value - exact) <= noise + 2e-14 * exact


def test_a_mode_just_above_one_half_is_mixed():
    # nu = 1/2 + x with x = 5e-10 is well inside the rounding-free range of a diagonal cm: G = ln(1 + 1/x) I is finite,
    # and so is S(thermal(a) || sigma) = -g(a + 1/2) + ln(1 + x) + a ln(1 + 1/x).
    sigma = gw.thermal(5e-10)
    x = sigma.cm[0, 0] - 0.5
    np.testing.assert_allclose(williamson_gibbs(sigma.cm), math.log1p(1.0 / x) * np.eye(2), rtol=1e-15)
    a = 1e-3
    expected = -((a + 1) * math.log1p(a) - a * math.log(a)) + math.log1p(x) + a * math.log1p(1.0 / x)
    assert gw.relative_entropy(gw.thermal(a), sigma) == pytest.approx(expected, rel=1e-13)
    assert math.isinf(gw.relative_entropy(gw.thermal(a), gw.GaussianState(np.zeros(2), np.diag([0.25, 1.0]))))


def test_relative_entropy_matches_gibbs_matrix_formula():
    # -S(rho) + (sum ln(nu^2 - 1/4) + Tr(rho G) + delta G delta) / 2, with G and nu of sigma
    # taken from the Williamson formula and symplectic_eigenvalues.
    rng = np.random.default_rng(77)
    for n in (1, 2, 3, 5):
        for _ in range(5):
            rho = random_state(rng, n)
            sigma = random_state(rng, n, nu_min=0.6)
            g = williamson_gibbs(sigma.cm)
            delta = rho.displacement - sigma.displacement
            logdet = np.sum(np.log(gw.symplectic_eigenvalues(sigma.cm) ** 2 - 0.25))
            ref = -gw.von_neumann_entropy(rho) + 0.5 * (logdet + np.trace(rho.cm @ g) + delta @ g @ delta)
            assert gw.relative_entropy(rho, sigma) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("nbar", [1e4, 1e5, 1e6, 1e7, 1e8])
def test_relative_entropy_to_a_bright_reference_matches_the_closed_form(nbar):
    # sigma = BS(theta) (thermal(nbar) x thermal(0.1)); rho = thermal(0.2) x thermal(0.4).  In the
    # eigenbasis of sigma, rho has photon numbers c^2 a + s^2 b and s^2 a + c^2 b, so
    # S(rho || sigma) = -S(rho) + sum_k [ln(1 + nk) + n_k ln(1 + 1/nk)].
    theta, (a, b), nks = 0.4, (0.2, 0.4), (nbar, 0.1)
    bs = gw.compile_passive_circuit(gw.PassiveCircuit(2, (gw.BeamSplitter(theta, (0, 1)),)))
    sigma = gw.apply_gaussian_unitary(gw.tensor([gw.thermal(nk) for nk in nks]), bs)
    rho = gw.tensor([gw.thermal(a), gw.thermal(b)])
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    rotated = (c2 * a + s2 * b, s2 * a + c2 * b)
    entropy = sum((n + 1) * math.log1p(n) - n * math.log(n) for n in (a, b))
    expected = -entropy + sum(math.log1p(nk) + n * math.log1p(1 / nk) for n, nk in zip(rotated, nks))
    assert abs(gw.relative_entropy(rho, sigma) - expected) <= 1e-9 * (1 + expected)


def test_relative_entropy_nonnegative_sweep():
    rng = np.random.default_rng(25)
    for _ in range(1000):
        n = int(rng.integers(1, 3))
        rho = random_state(rng, n)
        sigma = random_state(rng, n, nu_min=0.5 + 1e-6)
        val = gw.relative_entropy(rho, sigma)
        assert val >= -1e-9


def test_relative_entropy_zero_iff_equal():
    rng = np.random.default_rng(26)
    rho = random_state(rng, 1, nu_min=0.7)
    sigma = random_state(rng, 1, nu_min=0.7)
    if np.linalg.norm(rho.cm - sigma.cm) > 1e-8:
        assert gw.relative_entropy(rho, sigma) > 1e-8


def test_relative_entropy_mode_count_mismatch():
    with pytest.raises(ValueError, match="modes"):
        gw.relative_entropy(gw.vacuum(1), gw.vacuum(2))


def test_relative_entropy_matches_fock_brute_force():
    pairs = [
        (gw.vacuum(1), gw.thermal(1.0)),
        (gw.coherent(1.0), gw.thermal(1.0)),
        (gw.squeezed(0.5), gw.thermal(0.8)),
        (gw.thermal(2.0), gw.thermal(0.7)),
    ]
    for rho, sigma in pairs:
        gauss = gw.relative_entropy(rho, sigma)
        brute = fock_relative_entropy(rho, sigma, dim=40)
        assert gauss == pytest.approx(brute, abs=1e-4)


@pytest.mark.parametrize(
    "functional",
    [gw.energy, gw.mean_photon_numbers, gw.photon_overlap_matrix, gw.gaussian_coherence, gw.extractable_work,
     gw.extraction_protocol, gw.von_neumann_entropy, gw.local_activity, lambda x: gw.relative_entropy(x, gw.vacuum(1))],
    ids=["energy", "mean_photon_numbers", "photon_overlap_matrix", "gaussian_coherence", "extractable_work",
         "extraction_protocol", "von_neumann_entropy", "local_activity", "relative_entropy"],
)
def test_a_state_functional_refuses_a_bare_matrix(functional):
    with pytest.raises(ValueError, match="^expected a GaussianState or FockDensity, got ndarray$"):
        functional(0.5 * np.eye(2))


def test_mutual_information_product_state():
    rng = np.random.default_rng(27)
    state = gw.tensor([random_state(rng, 1), random_state(rng, 1)])
    assert gw.mutual_information(state, [0]) == pytest.approx(0.0, abs=1e-9)


def test_mutual_information_tms():
    r = 1.0
    expected = 2 * gw.thermal_entropy(math.cosh(2 * r) / 2)
    assert gw.mutual_information(gw.two_mode_squeezed(r), [0]) == pytest.approx(expected, abs=1e-9)


def test_mutual_information_monotone_in_tms_squeezing():
    values = [gw.mutual_information(gw.two_mode_squeezed(r), [0]) for r in np.linspace(0.1, 1.5, 8)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_mutual_information_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        gw.mutual_information(gw.vacuum(2), [0], [0, 1])


def test_state_validation_rejects_sub_vacuum():
    with pytest.raises(ValueError, match="0.4"):
        gw.GaussianState(np.zeros(2), 0.4 * np.eye(2))


def test_states_are_immutable():
    state = gw.vacuum(1)
    with pytest.raises(ValueError):
        state.cm[0, 0] = 2.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gw.GaussianState([0.0, math.nan], 0.5 * np.eye(2)), "displacement vector must be finite"),
        (lambda: gw.GaussianState(np.zeros(4), 0.5 * np.eye(2)), "displacement length 4"),
        # A rank-2 array is refused, not flattened into a vector of the right length.
        (
            lambda: gw.GaussianState(np.zeros((2, 2)), np.eye(4) / 2),
            r"^displacement vector must have rank 1, got shape \(2, 2\)$",
        ),
        (lambda: gw.apply_gaussian_unitary(gw.vacuum(1), np.eye(2), np.zeros(3)), "shift vector"),
        (
            lambda: gw.apply_gaussian_unitary(gw.vacuum(1), np.eye(2), np.zeros((2, 1))),
            r"^shift vector must have shape \(2,\), got \(2, 1\)$",
        ),
        (lambda: gw.squeezer_direct_sum(np.ones((2, 2))), r"^squeezings must be a scalar or a vector, got shape \("),
        (lambda: gw.partial_trace(gw.vacuum(2), [2]), r"mode index must be an integer in \[0, 1\], got 2"),
        (lambda: gw.mutual_information(gw.vacuum(2), [5]), r"mode index must be an integer in \[0, 1\], got 5"),
        (
            lambda: gw.relative_entropy(gw.vacuum(1), gw.fock_number_state(1, 5)),
            "^relative_entropy sigma takes a GaussianState, got FockDensity$",
        ),
        (lambda: gw.vacuum(1.5), r"number of modes must be an integer in \[1, inf\), got 1\.5"),
        (lambda: gw.vacuum(0), r"number of modes must be an integer in \[1, inf\), got 0"),
        (lambda: gw.vacuum(2.0), r"number of modes must be an integer in \[1, inf\), got 2\.0"),
        (lambda: gw.thermal(math.nan), "mean photon number must be finite and nonnegative, got nan"),
        (lambda: gw.thermal(math.inf), "mean photon number must be finite and nonnegative, got inf"),
        (lambda: gw.thermal(-0.1), r"mean photon number must be finite and nonnegative, got -0\.1"),
        # Refused before numpy overflows: the suite turns a RuntimeWarning into a failure.
        (lambda: gw.two_mode_squeezed(math.inf), r"squeezing must be finite with \|r\| <= 177, got r = inf$"),
        (lambda: gw.squeezed(0.5, phi=math.inf), r"squeezing must be finite .*, got r = 0\.5, phi = inf$"),
        (lambda: gw.squeezed(400), r"squeezing must be finite .*, got r = 400$"),
        (lambda: gw.two_mode_squeezed(400), r"squeezing must be finite with \|r\| <= 177, got r = 400$"),
        (lambda: gw.squeezed(math.nan), r"squeezing must be finite .*, got r = nan$"),
        # At the bound the covariance still validates without overflow, and is refused as singular.
        (lambda: gw.squeezed(177, phi=0.3), "singular or not positive definite"),
        (lambda: gw.two_mode_squeezed(-177), "singular or not positive definite .min eigenvalue 0"),
        (lambda: gw.apply_gaussian_unitary(gw.thermal(1.0), 2 * np.eye(2)), "^matrix is not symplectic within tol"),
        # Finite entries whose squares overflow are refused at validation, before numpy warns.
        (
            lambda: gw.GaussianState(np.zeros(2), np.diag([1e160, 1.0])),
            r"^covariance matrix entries must be below sqrt\(max double\) / 2n = 3\.35e\+153 in magnitude for n = 2, "
            r"so that n\^2 squares of twice an entry sum without overflow; got 1e\+160$",
        ),
        (lambda: gw.validate_cm(np.diag([1e160, 1.0])), r"^covariance matrix entries must be below .*got 1e\+160$"),
        (lambda: gw.symplectic_eigenvalues(np.diag([1e160, 1.0])), r"covariance matrix entries .* for n = 2, "),
        (lambda: gw.is_free_cm(np.diag([1e160, 1.0])), r"covariance matrix entries must be below sqrt\(max double\)"),
        (lambda: gw.williamson(np.diag([-1e160, 1.0])), r"covariance matrix entries .*; got 1e\+160$"),
        (
            lambda: gw.GaussianState([1e160, 0.0], 0.5 * np.eye(2)),
            r"^displacement vector entries must be below sqrt\(max double\) / 2n = 3\.35e\+153 in magnitude for n = 2",
        ),
        (lambda: gw.energy(gw.GaussianState([1e160, 0.0], 0.5 * np.eye(2))), r"^displacement vector entries must be"),
        (lambda: gw.extractable_work(gw.GaussianState([0.0, 1e160], 0.5 * np.eye(2))), "displacement vector entries"),
        (lambda: gw.mean_photon_numbers(gw.GaussianState([1e160, 0.0], 0.5 * np.eye(2))), "got 1e\\+160$"),
        # Passes is_symplectic (residual 2e-6 against the bound 1e-4), but 1 - 1e-6 pairs with neither sigma nor 1.
        (
            lambda: gw.bloch_messiah(np.diag([1e3, 1e-3, 1 - 1e-6, 1 - 1e-6])),
            r"^singular values do not pair as \(sigma, 1/sigma\); not symplectic\?$",
        ),
        # Passes is_symplectic (residual 2.8e-11 against 1e-10); x1 and p1 both read 1 + 1e-11, above the band, and
        # pairing each with the other left o_out of rank 2 and a reconstruction that was not S.
        (
            lambda: gw.bloch_messiah(np.diag([1 + 1e-11, 1 + 1e-11, 1.0, 1.0])),
            r"^singular values do not pair as \(sigma, 1/sigma\); not symplectic\?$",
        ),
        (lambda: gw.is_symplectic(np.ones((2, 4))), r"^symplectic candidate must be a square matrix, got shape \(2, 4"),
        (lambda: gw.unitary_to_orthosymplectic(np.ones((1, 2))), r"^unitary must be square, got shape \(1, 2\)$"),
        (
            lambda: gw.process_two_copies_single_mode(0.5 * np.eye(4), 0.1, [0, 0, 0, 0]),
            r"^expected a single-mode \(2x2\) covariance matrix, got \(4, 4\)$",
        ),
    ],
)
def test_state_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# Every operation that needs a Gaussian state, by the name its refusal gives; each is handed a two-mode input.
GAUSSIAN_ONLY = {
    "apply_gaussian_unitary": lambda x: gw.apply_gaussian_unitary(x, np.eye(4)),
    "tensor": lambda x: gw.tensor([gw.vacuum(1), x]),
    "partial_trace": lambda x: gw.partial_trace(x, [0]),
    "mutual_information": lambda x: gw.mutual_information(x, [0]),
    "relaxed_subadditivity_gap": lambda x: gw.relaxed_subadditivity_gap(x, [0]),
    "gaussian_postselect": lambda x: gw.gaussian_postselect(x, [1], 0.5 * np.eye(2)),
    "fock_from_gaussian": lambda x: gw.fock_from_gaussian(x, 4),
    "phase_space_loss_channel": lambda x: gw.phase_space_loss_channel(x, 0.8, 0.1),
    "relative_entropy sigma": lambda x: gw.relative_entropy(gw.vacuum(2), x),
}


@pytest.mark.parametrize("kind", ["density", "matrix"])
@pytest.mark.parametrize("op", list(GAUSSIAN_ONLY))
def test_gaussian_only_operations_refuse_a_density_or_a_matrix_alike(op, kind):
    x = gw.fock_from_gaussian(gw.two_mode_squeezed(0.3), 12) if kind == "density" else 0.5 * np.eye(4)
    with pytest.raises(ValueError) as info:
        GAUSSIAN_ONLY[op](x)
    assert str(info.value) == f"{op} takes a GaussianState, got {type(x).__name__}"
