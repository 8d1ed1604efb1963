"""One symplectic spectrum per covariance matrix: every layer gives the same verdict.

The property tests cover the supported range stated in the README, pure
states O1 Z(r) O2 with |r| <= 6 and N <= 4, and the extraction protocol
also mixed states O1 Z(r) O2 diag(nu) in the same range.  Their tolerances
follow the physicality tolerance max(1e-9, 2 n eps kappa(cm)), n = 2N (its
1e-3 cap does not bind in this range).
"""

import ast
import inspect
import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausswork as gw
from conftest import random_cm, random_orthosymplectic, random_unitary

R_MAX = 6.0

property_settings = settings(max_examples=60, deadline=None, derandomize=True)
squeezings = st.integers(1, 4).flatmap(lambda n: st.lists(st.floats(-R_MAX, R_MAX), min_size=n, max_size=n))
pure_states = st.tuples(squeezings, st.integers(0, 2**32 - 1))
thermal_nus = st.sampled_from([0.5, 1.0, 3.0])
mixed_states = st.tuples(
    squeezings.flatmap(lambda rs: st.tuples(st.just(rs), st.lists(thermal_nus, min_size=len(rs), max_size=len(rs)))),
    st.integers(0, 2**32 - 1),
)


def _pure(rs, seed):
    rng = np.random.default_rng(seed)
    n = len(rs)
    s = random_orthosymplectic(rng, n) @ gw.squeezer_direct_sum(rs) @ random_orthosymplectic(rng, n)
    cm = 0.5 * s @ s.T
    return rng, gw.GaussianState(rng.normal(size=2 * n), 0.5 * (cm + cm.T))


def _mixed_moments(squeezing_and_nu, seed):
    """(d, cm) of a displaced O1 Z(r) O2 diag(nu) with Haar-random passive O1, O2."""
    rs, nu = squeezing_and_nu
    rng = np.random.default_rng(seed)
    n = len(rs)
    s = random_orthosymplectic(rng, n) @ gw.squeezer_direct_sum(rs) @ random_orthosymplectic(rng, n)
    cm = s @ np.diag(np.repeat(nu, 2)) @ s.T
    return rng.normal(size=2 * n), 0.5 * (cm + cm.T)


def _mixed(squeezing_and_nu, seed):
    """The GaussianState of :func:`_mixed_moments`; None when GaussianState refuses it."""
    try:
        return gw.GaussianState(*_mixed_moments(squeezing_and_nu, seed))
    except ValueError:
        return None


def _nu_tol(cm):
    return max(1e-9, 2 * cm.shape[0] * np.finfo(float).eps * np.linalg.cond(cm))


def _reference(state):
    """Thermal product with one photon more per mode than ``state``: full support."""
    cm = np.diag(np.repeat(gw.mean_photon_numbers(state) + 1.5, 2))
    return gw.GaussianState(np.zeros(2 * state.n_modes), cm)


@property_settings
@given(case=pure_states)
def test_every_layer_accepts_pure_states_and_reads_nu_at_least_half(case):
    _, state = _pure(*case)
    cm = state.cm
    check = gw.validate_cm(cm)
    assert check.valid
    dec = gw.williamson(cm)
    gw.bloch_messiah(dec.symplectic)
    gw.von_neumann_entropy(state)
    gw.extractable_work(state)
    gw.is_free_cm(cm)
    protocol = gw.extraction_protocol(state)
    gw.local_activity(state)
    gw.relative_entropy(state, _reference(state))
    for nu in (check.min_symplectic_eig, gw.symplectic_eigenvalues(cm), dec.nu, protocol.final_cm.nu):
        assert np.min(nu) >= 0.5
    assert np.array_equal(dec.nu, gw.symplectic_eigenvalues(cm))


@property_settings
@given(case=pure_states)
def test_work_and_relative_entropy_are_nonnegative(case):
    _, state = _pure(*case)
    assert gw.extractable_work(state).quadratic >= -state.n_modes * _nu_tol(state.cm)
    assert gw.relative_entropy(state, _reference(state)) >= 0.0


@property_settings
@given(case=pure_states)
def test_work_and_entropy_are_invariant_under_passive_maps(case):
    rng, state = _pure(*case)
    n = state.n_modes
    rotated = gw.apply_gaussian_unitary(state, gw.unitary_to_orthosymplectic(random_unitary(rng, n)))
    # Each nu may round by its tolerance on either side of 1/2; g(1/2 + tol)
    # bounds what that does to the entropy.
    tol = max(_nu_tol(state.cm), _nu_tol(rotated.cm))
    work, work_rotated = gw.extractable_work(state), gw.extractable_work(rotated)
    assert work_rotated.quadratic == pytest.approx(work.quadratic, abs=n * tol + 1e-15 * np.trace(state.cm))
    assert gw.von_neumann_entropy(rotated) == pytest.approx(
        gw.von_neumann_entropy(state), abs=n * gw.thermal_entropy(0.5 + tol)
    )


def check_protocol(state):
    """The protocol's witness is orthosymplectic, its final cm free, and the energy it releases is W.

    Running the steps on the state lands on the free cm within the state's own rounding, 2 n eps
    kappa(cm) relative, which the factor 2 covers.
    """
    protocol = gw.extraction_protocol(state)
    final = protocol.final_cm
    assert gw.is_orthosymplectic(final.passive)
    assert gw.is_free_cm(final.cm).spectral_free
    np.testing.assert_array_equal(final.nu, gw.symplectic_eigenvalues(state.cm))
    e = gw.energy(state)
    assert abs(e - 0.5 * np.trace(final.cm) - gw.extractable_work(state).total) <= 1e-10 * (1.0 + e)
    z = gw.squeezer_direct_sum(protocol.squeezer_step)
    ran = z @ protocol.passive_step @ state.cm @ protocol.passive_step.T @ z
    assert np.linalg.norm(ran - final.cm) <= 2.0 * _nu_tol(state.cm) * max(1.0, np.linalg.norm(final.cm))


@property_settings
@given(case=mixed_states)
def test_protocol_accepts_every_accepted_state_and_ends_free(case):
    state = _mixed(*case)
    if state is not None:
        check_protocol(state)


@property_settings
@given(case=mixed_states)
def test_every_layer_a_state_feeds_accepts_the_states_validation_accepts(case):
    # GaussianState refuses what validate_cm calls invalid, and every layer takes what it accepts: the Williamson
    # form of the cm and of the state, with its split orthosymplectic, bloch_messiah of the factor, the protocol,
    # the freeness check, the activity and the relative entropy to a thermal reference.
    d, cm = _mixed_moments(*case)
    state = _mixed(*case)
    assert (state is not None) == gw.validate_cm(cm).valid
    if state is None:
        return
    gw.symplectic_eigenvalues(cm)
    for dec in (gw.williamson(cm), gw.williamson(state)):
        assert gw.is_orthosymplectic(dec.bloch_messiah.o_out) and gw.is_orthosymplectic(dec.bloch_messiah.o_in)
        gw.bloch_messiah(dec.symplectic)
    gw.extraction_protocol(state)
    gw.is_free_cm(cm)
    gw.local_activity(state)
    assert math.isfinite(gw.relative_entropy(state, _reference(state)))


@pytest.mark.parametrize("nu_max", [0.5, 3.0], ids=["pure", "mixed"])
def test_protocol_at_64_modes(nu_max):
    rng = np.random.default_rng(12)
    check_protocol(gw.GaussianState(rng.normal(size=128), random_cm(rng, 64, nu_max=nu_max, r_max=2.0)))


def _counting(monkeypatch):
    """Record (solver, complex input?, vectors?) for every numpy eigh, eigvalsh and svd call."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _solver=solver, **kwargs):
            calls.append((_name, np.iscomplexobj(a), kwargs.get("compute_uv", _name != "eigvalsh")))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize(
    "layer",
    [gw.validate_cm, gw.symplectic_eigenvalues, gw.is_free_cm, lambda cm: gw.GaussianState(np.zeros(len(cm)), cm)],
    ids=["validate_cm", "symplectic_eigenvalues", "is_free_cm", "GaussianState"],
)
def test_validation_takes_values_only_from_the_companion(monkeypatch, layer):
    # One eigh of the real cm, one values-only SVD of the real skew K = cm^{1/2} Omega cm^{1/2}.
    cm = _pure([0.8, -0.3, 1.5], 5)[1].cm
    calls = _counting(monkeypatch)
    layer(cm)
    assert calls == [("eigh", False, True), ("svd", False, False)]


def test_relative_entropy_reads_the_gibbs_matrix_from_one_real_eigh(monkeypatch):
    # The Gibbs matrix of the kept spectrum comes from one real SVD of K with vectors.
    rho = _pure([0.8, -0.3, 1.5], 5)[1]
    sigma = _reference(rho)
    calls = _counting(monkeypatch)
    gw.relative_entropy(rho, sigma)
    assert calls == [("svd", False, True)]


def test_protocol_takes_s_st_from_one_svd_with_no_williamson_factor(monkeypatch):
    # S S^T from one SVD of K, its Euler split from one eigh, the witness from one eigh of the final cm.
    state = _mixed(([0.8, -0.3, 1.5], [0.5, 1.0, 3.0]), 5)

    def refuse(*args, **kwargs):
        raise AssertionError("the protocol needs no Williamson factor and no Bloch-Messiah split")

    for name in ("williamson", "bloch_messiah"):
        monkeypatch.setattr(gw.symplectic, name, refuse)
        monkeypatch.setattr(gw, name, refuse, raising=False)
    calls = _counting(monkeypatch)
    gw.extraction_protocol(state)
    assert calls == [("svd", False, True), ("eigh", False, True), ("eigh", False, True)]


def test_freecheck_reads_the_validated_spectrum(capsys, monkeypatch):
    # The preset's validation runs one eigh of cm and one values-only SVD of K; is_free_cm reads that spectrum.
    from gausswork import cli  # the package binds gausswork.cli only once it is imported

    calls = _counting(monkeypatch)
    assert cli.main(["freecheck", "--state", "preset:tms:0.5", "--json"]) == 0
    capsys.readouterr()
    assert calls == [("eigh", False, True), ("svd", False, False)]


def test_freeness_of_a_state_calls_no_solver(monkeypatch):
    state = _pure([0.8, -0.3, 1.5], 5)[1]
    calls = _counting(monkeypatch)
    gw.is_free_cm(state)
    assert calls == []


def test_relaxed_subadditivity_gap_builds_each_part_once(monkeypatch):
    # Each part is validated once (eigh, values-only SVD); I(A:B) reads the kept spectra, and each of the two parts
    # and the joint state takes one eigh for its activity: 7 calls.
    state = gw.phase_space_loss_channel(gw.two_mode_squeezed(0.4), 0.9, 0.1)
    calls = _counting(monkeypatch)
    gw.relaxed_subadditivity_gap(state, [0])
    assert calls == [("eigh", False, True), ("svd", False, False)] * 2 + [("eigh", False, True)] * 3


@pytest.mark.parametrize("kind", ["gaussian", "density"])
def test_the_core_reads_a_state_as_its_bare_matrix(kind):
    # Bit for bit, field for field: a state's kept spectrum is the one its matrix gives.
    if kind == "gaussian":
        x = _pure([0.8, -0.3, 1.5], 5)[1]
        cm = x.cm
    else:
        x = gw.fock_from_gaussian(gw.two_mode_squeezed(0.3), 14)
        cm = gw.fock_moments(x)[1]
    assert gw.is_free_cm(x) == gw.is_free_cm(cm)
    dec, bare = gw.williamson(x), gw.williamson(cm)
    for name in ("symplectic", "nu", "residual", "symplectic_residual"):
        assert np.array_equal(getattr(dec, name), getattr(bare, name))
    for name in ("o_out", "r", "o_in"):
        assert np.array_equal(getattr(dec.bloch_messiah, name), getattr(bare.bloch_messiah, name))


_SOLVERS = [
    "cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq", "matrix_power",
    "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd", "svdvals", "tensorinv", "tensorsolve",
]


def test_no_complex_array_reaches_a_linalg_solver(monkeypatch):
    def refuse_complex(name, solver):
        def guarded(a, *args, **kwargs):
            assert not np.iscomplexobj(a), f"complex input to np.linalg.{name}"
            return solver(a, *args, **kwargs)

        return guarded

    rng = np.random.default_rng(8)
    states = [
        _pure([0.8, -0.3, 1.5], 5)[1],
        gw.GaussianState(rng.normal(size=6), random_cm(rng, 3)),
        gw.vacuum(3),
        gw.two_mode_squeezed(0.5),
    ]
    fock = gw.fock_from_gaussian(gw.squeezed(0.4, 0.3), 20)
    for name in _SOLVERS:  # the random states above draw complex unitaries, so patch only now
        if hasattr(np.linalg, name):
            monkeypatch.setattr(np.linalg, name, refuse_complex(name, getattr(np.linalg, name)))
    for state in states:
        gw.validate_cm(state.cm)
        gw.GaussianState(state.displacement, state.cm)
        dec = gw.williamson(state.cm)
        gw.bloch_messiah(dec.symplectic)
        gw.extractable_work(state)
        gw.is_free_cm(state.cm)
        gw.extraction_protocol(state)
        gw.von_neumann_entropy(state)
        gw.relative_entropy(state, _reference(state))
        gw.local_activity(state)
    gw.fock_single_mode_activity(fock)


_ALLOWED = ("eigh", "eigvalsh", "svd", "norm")


def test_only_eigh_eigvalsh_svd_and_norm_of_np_linalg_run(monkeypatch):
    # Symmetric matrices go through eigh or eigvalsh and the skew K through svd; inv, cond, solve and
    # the rest of np.linalg are never called.
    rng = np.random.default_rng(9)
    two, three = (gw.GaussianState(rng.normal(size=2 * n), random_cm(rng, n)) for n in (2, 3))
    called = []
    for name in dir(np.linalg):
        if name.startswith("_") or name in _ALLOWED or name in ("LinAlgError", "test"):
            continue

        def recorded(*args, _name=name, _func=getattr(np.linalg, name), **kwargs):
            called.append(_name)
            return _func(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    gw.fock_from_gaussian(gw.squeezed(0.4, 0.3), 12)
    gw.fock_from_gaussian(two, 5)
    gw.gaussian_postselect(three, [2], 0.7 * np.eye(2))
    for state in (two, three):
        gw.bloch_messiah(gw.williamson(state.cm).symplectic)
        gw.relative_entropy(state, _reference(state))
        gw.local_activity(state)
        gw.is_free_cm(state.cm)
    gw.bloch_messiah(gw.squeezer_direct_sum([0.5, 0.5, 0.0]))  # tied squeezings and a passive pair
    assert called == []


def test_bloch_messiah_is_one_array_pass():
    tree = ast.parse(textwrap.dedent(inspect.getsource(gw.bloch_messiah)))
    loops = (ast.For, ast.While, ast.comprehension, ast.Lambda)
    assert not [type(node).__name__ for node in ast.walk(tree) if isinstance(node, loops)]


def test_a_kept_spectrum_holds_only_real_arrays():
    state = _pure(np.linspace(-2.0, 2.0, 64), 6)[1]
    arrays = [a for a in state._spectrum if isinstance(a, np.ndarray)]
    assert not any(np.iscomplexobj(a) for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 2 * state.cm.nbytes + 1024


REFUSALS = [
    (0.4 * np.eye(2), "invalid covariance matrix (min symplectic eigenvalue 0.4)"),
    (np.diag([1.0, -1.0]), "not positive definite (min eigenvalue -1.000e+00)"),
    (np.diag([1e-13, 1e13]), "not positive definite (min eigenvalue 1.000e-13)"),
    # kappa = 1e20 would explain any deficit; the tolerance cap refuses nu = 0.1.
    (np.diag([1e-11, 1e9]), "invalid covariance matrix (min symplectic eigenvalue 0.1)"),
]


@pytest.mark.parametrize(
    "cm, message", REFUSALS, ids=["sub-vacuum", "indefinite", "near-singular", "ill-conditioned"]
)
def test_every_layer_refuses_with_one_message(cm, message):
    valid, value = gw.validate_cm(cm)
    assert not valid
    messages = set()
    for layer in (lambda m: gw.GaussianState(np.zeros(2), m), gw.is_free_cm):
        with pytest.raises(ValueError) as err:
            layer(cm)
        messages.add(str(err.value))
    assert len(messages) == 1
    (text,) = messages
    assert message in text
    assert f"{value:.3e}" in text or f"{value:.6g}" in text


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_is_refused_before_any_decomposition(bad):
    cm = np.array([[bad, 0.0], [0.0, 1.0]])
    for layer in (gw.validate_cm, gw.symplectic_eigenvalues, lambda m: gw.GaussianState(np.zeros(2), m)):
        with pytest.raises(ValueError, match="^covariance matrix must be finite$"):
            layer(cm)
