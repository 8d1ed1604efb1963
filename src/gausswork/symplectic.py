"""Real symplectic linear algebra for multimode bosonic systems.

Conventions used throughout the package: quadratures are interleaved as
(q1, p1, ..., qN, pN), hbar = 1 and the vacuum covariance matrix is I/2.
The symplectic form is the direct sum of N copies of ``[[0, 1], [-1, 0]]``.
A matrix S is symplectic when S @ Omega @ S.T == Omega; it is in addition
orthogonal ("orthosymplectic") exactly when it represents a passive
(energy-preserving) Gaussian unitary, i.e. a linear interferometer.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

TOL_SYMP = 1e-10
TOL_PHYS = 1e-9
TOL_RECON = 1e-9
PAIR_TOL = 1e-8


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form for ``n_modes`` modes."""
    if n_modes < 1:
        raise ValueError(f"number of modes must be positive, got {n_modes}")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def rotation(phi: float) -> np.ndarray:
    """Phase-space action of a phase shifter by ``phi`` on one mode.

    Matches :func:`unitary_to_orthosymplectic` applied to the 1 x 1 unitary
    ``exp(1j * phi)``.
    """
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def squeezer(r: float) -> np.ndarray:
    """Single-mode squeezer diag(e^r, e^-r)."""
    return np.diag([np.exp(r), np.exp(-r)])


def squeezer_direct_sum(rs: Sequence[float]) -> np.ndarray:
    """Direct sum of single-mode squeezers, one per mode."""
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    out = np.zeros((2 * rs.size, 2 * rs.size))
    for k, r in enumerate(rs):
        out[2 * k, 2 * k] = np.exp(r)
        out[2 * k + 1, 2 * k + 1] = np.exp(-r)
    return out


def _even_square(mat: np.ndarray, what: str) -> int:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {mat.shape}")
    if mat.shape[0] % 2 != 0 or mat.shape[0] == 0:
        raise ValueError(f"{what} must have even positive dimension, got {mat.shape[0]}")
    return mat.shape[0] // 2


def is_symplectic(s: np.ndarray, tol: float = TOL_SYMP) -> bool:
    n = _even_square(s, "symplectic candidate")
    omega = symplectic_form(n)
    return bool(np.linalg.norm(s @ omega @ s.T - omega) < tol * max(1.0, np.linalg.norm(s) ** 2))


def is_orthosymplectic(o: np.ndarray, tol: float = TOL_SYMP) -> bool:
    n = _even_square(o, "orthosymplectic candidate")
    if np.linalg.norm(o @ o.T - np.eye(2 * n)) >= tol:
        return False
    return is_symplectic(o, tol)


# Rounding error on nu grows with kappa(cm): over pure states O1 Z(r) O2 with
# |r| <= 6 and N <= 4 (the tests/conftest.py sampler) max |nu - 1/2|, nu the
# mean of each singular-value pair of K, reached 0.85 n eps kappa (n = 2N) over
# 3,000 states at seed 7 and 0.78 over 20,000 at seed 11 (the eigenvalues of
# the Hermitian companion 1j*K gave 1.08 and 0.84 on the same states), so the
# factor 2 leaves a margin of more than 2.  No deficit above the cap is put
# down to rounding, or diag(1e-11, 1e9) (nu = 0.1, kappa 1e20) would pass.
_KAPPA_FACTOR = 2.0
_TOL_CAP = 1e-3
# Tie rule of _canonical_pairs: a direct pair whose a = j b leaves its plane by more than this is
# re-paired.  A leak left in place enters ||S Omega S^T - Omega|| in proportion.  Measured over 108
# mixed and 108 pure benchmark states (N = 1..64, |r| <= 2), 400 pure states with |r| <= 6, the tied
# spectra of the tests and spectra with gaps 1e-4..1e-12: at 1e-12 the symplectic residual stays
# within 3.5e-4 of the is_symplectic bound and 8 of 1,004 mixed-state pairs are re-paired (99 at
# 1e-13); at 1e-9 a gap of 1e-6 took 0.55 of the bound, and at 1e-8 it was refused.
_TIE = 1e-12


class _NotPositiveDefinite(ValueError):
    def __init__(self, min_eig: float):
        super().__init__(f"covariance matrix is singular or not positive definite (min eigenvalue {min_eig:.3e})")
        self.min_eig = min_eig


class _Spectrum(NamedTuple):
    root: np.ndarray  # cm^{1/2}
    nu: np.ndarray  # symplectic eigenvalues, descending
    tol: float  # min(_TOL_CAP, max(TOL_PHYS, _KAPPA_FACTOR n eps kappa))


def _times_omega(mat: np.ndarray) -> np.ndarray:
    """mat @ Omega: each column pair (q_k, p_k) of mat swapped to (-p_k, q_k)."""
    out = np.empty_like(mat)
    out[:, 0::2] = -mat[:, 1::2]
    out[:, 1::2] = mat[:, 0::2]
    return out


def _skew(root: np.ndarray) -> np.ndarray:
    """K = root @ Omega @ root for root = cm^{1/2}: real and skew, with singular values nu_k, each twice."""
    return _times_omega(root) @ root


def _spectrum(cm: np.ndarray) -> _Spectrum:
    """The one symplectic spectrum every layer reads.

    eigh(cm) gives the positive-definiteness check, cm^{1/2} and kappa; a
    values-only SVD of the real skew K = cm^{1/2} @ Omega @ cm^{1/2} gives
    each nu_k twice, and nu_k is the mean of its two copies.  Values in
    [1/2 - tol, 1/2) are set to 1/2.  No singular vectors are formed: only
    :func:`_williamson` needs them.  ValueError unless cm is finite,
    symmetric and has every eigenvalue >= 1e-12.
    """
    cm = np.asarray(cm, dtype=float)
    n = _even_square(cm, "covariance matrix")
    if not np.all(np.isfinite(cm)):
        raise ValueError("covariance matrix must be finite")
    if np.linalg.norm(cm - cm.T) >= TOL_SYMP * max(1.0, np.linalg.norm(cm)):
        raise ValueError("covariance matrix is not symmetric")
    w, v = np.linalg.eigh(cm)
    if w[0] < 1e-12:
        raise _NotPositiveDefinite(float(w[0]))
    root = (v * np.sqrt(w)) @ v.T
    sv = np.linalg.svd(_skew(root), compute_uv=False)
    tol = min(_TOL_CAP, max(TOL_PHYS, _KAPPA_FACTOR * 2 * n * np.finfo(float).eps * w[-1] / w[0]))
    nu = 0.5 * (sv[0::2] + sv[1::2])
    nu[(nu >= 0.5 - tol) & (nu < 0.5)] = 0.5
    return _Spectrum(root, nu, tol)


class CMValidation(NamedTuple):
    valid: bool
    min_symplectic_eig: float


def validate_cm(mat: np.ndarray) -> CMValidation:
    """Check whether ``mat`` is a physical covariance matrix.

    Valid means every eigenvalue is at least 1e-12 and every symplectic
    eigenvalue at least 1/2 - tol, tol = min(1e-3, max(TOL_PHYS, 2 n eps
    kappa)) with n = 2N: it grows with the condition number kappa(mat) as
    the rounding error on nu does.  The second field is the smallest
    symplectic eigenvalue, or the smallest eigenvalue when that is < 1e-12.

    Raises:
        ValueError: if the matrix has odd dimension, is not finite or is
            asymmetric beyond TOL_SYMP (shape errors rather than physicality).
    """
    try:
        spec = _spectrum(mat)
    except _NotPositiveDefinite as err:
        return CMValidation(False, err.min_eig)
    return CMValidation(bool(spec.nu[-1] >= 0.5 - spec.tol), float(spec.nu[-1]))


def require_valid_cm(mat: np.ndarray) -> _Spectrum:
    """Spectrum of ``mat``; ValueError unless it passes :func:`validate_cm`."""
    spec = _spectrum(mat)
    if spec.nu[-1] < 0.5 - spec.tol:
        raise ValueError(f"invalid covariance matrix (min symplectic eigenvalue {spec.nu[-1]:.6g})")
    return spec


def symplectic_eigenvalues(cm: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a positive-definite matrix, sorted descending.

    Computed from the real skew matrix K = cm^{1/2} @ Omega @ cm^{1/2},
    whose singular values are the nu_k, each twice; the SVD keeps an error
    of about eps nu_max, so this is stable down to the pure-state boundary
    nu = 1/2.  It is the spectrum :func:`validate_cm` judges: values within
    tolerance below 1/2 read 1/2.
    """
    return _spectrum(cm).nu


def symplectic_trace(cm: np.ndarray) -> float:
    """Twice the sum of the symplectic eigenvalues of ``cm``."""
    return float(2.0 * np.sum(symplectic_eigenvalues(cm)))


@dataclass(frozen=True, eq=False)
class WilliamsonDecomposition:
    """Factorisation cm = S @ diag(nu_1, nu_1, ..., nu_N, nu_N) @ S.T.

    ``residual`` is the reconstruction error ||S D S^T - cm|| (Frobenius),
    at most TOL_RECON max(1, ||cm||).  ``symplectic_residual`` is
    ||S Omega S^T - Omega||, below the :func:`is_symplectic` bound
    TOL_SYMP max(1, ||S||^2); the reconstruction residual cannot see a wrong
    pairing, because any orthogonal basis reconstructs cm.
    """

    symplectic: np.ndarray
    nu: np.ndarray
    residual: float
    symplectic_residual: float

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(np.repeat(self.nu, 2))

    def reconstruct(self) -> np.ndarray:
        return self.symplectic @ self.diagonal @ self.symplectic.T


def williamson(cm: np.ndarray) -> WilliamsonDecomposition:
    """Williamson normal form of a positive-definite matrix.

    One SVD K = U diag(sigma) V^T of the real skew K = cm^{1/2} @ Omega @
    cm^{1/2} (the matrix :func:`symplectic_eigenvalues` reads) gives the
    canonical pairs: K v_j = sigma_j u_j with u_j orthogonal to v_j, so
    (u_j, v_j) is a real canonical pair with u_j^T K v_j = sigma_j, and the
    polar factor U V^T maps each v_j to u_j.  A simple nu is paired
    directly; tied nu (every pure state is one tie) are paired by a pivoted
    symplectic Gram-Schmidt (:func:`_canonical_pairs`).  The symplectic
    factor is cm^{1/2} times the orthogonal basis of pairs, scaled by
    nu^{-1/2}.  The symplectic eigenvalues, sorted descending, are exactly
    those of :func:`symplectic_eigenvalues`.

    Raises:
        ValueError: on near-singular input (min eigenvalue < 1e-12), if the
            reconstruction residual exceeds TOL_RECON max(1, ||cm||) or if
            the symplectic residual exceeds the :func:`is_symplectic` bound.
    """
    cm = np.asarray(cm, dtype=float)
    return _williamson(cm, _spectrum(cm))


def _williamson(cm: np.ndarray, spec: _Spectrum) -> WilliamsonDecomposition:
    u, _, vt = np.linalg.svd(_skew(spec.root))
    polar = u @ vt  # K = polar @ (K^T K)^{1/2}: a complex structure that commutes with K^T K
    q = _canonical_pairs(vt.T, polar)
    d = np.repeat(spec.nu, 2)
    s = (spec.root @ q) * d**-0.5
    residual = float(np.linalg.norm((s * d) @ s.T - cm))
    if residual > TOL_RECON * max(1.0, np.linalg.norm(cm)):
        raise ValueError(f"williamson reconstruction residual {residual:.3e} exceeds tolerance")
    symplectic_residual = float(np.linalg.norm(_times_omega(s) @ s.T - symplectic_form(spec.nu.size)))
    if symplectic_residual >= TOL_SYMP * max(1.0, np.linalg.norm(s) ** 2):
        raise ValueError(f"williamson symplectic residual {symplectic_residual:.3e} exceeds tolerance")
    return WilliamsonDecomposition(symplectic=s, nu=spec.nu, residual=residual, symplectic_residual=symplectic_residual)


def _canonical_pairs(cand: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Orthonormal canonical pairs (a_k = j b_k, b_k) spanning the columns of ``cand``.

    ``cand`` holds 2m orthonormal eigenvectors, two per eigenvalue, of a
    symmetric operator that commutes with the complex structure ``j`` (skew
    and orthogonal), in descending order of eigenvalue.  Each eigenspace is
    then mapped to itself by j, so for a simple eigenvalue j c_2k lies in the
    plane of c_2k and c_2k+1 and (j c_2k, c_2k) is the pair.  Where j c_2k
    leaves that plane by more than _TIE the eigenvalue is tied, and the
    candidates of all tied eigenvalues, whose span the direct pairs leave
    free, go through a pivoted symplectic Gram-Schmidt: the candidate with
    the largest residual becomes b, a = j b, and both are deflated from the
    rest.  Returns the columns [a_1, b_1, ..., a_m, b_m]; pair k lies in the
    eigenspace of candidates 2k and 2k + 1.
    """
    out = np.empty_like(cand)
    out[:, 1::2] = cand[:, 0::2]
    out[:, 0::2] = j @ cand[:, 0::2]
    partner = cand[:, 1::2]
    leak = out[:, 0::2] - partner * (partner * out[:, 0::2]).sum(axis=0)
    tied = (leak * leak).sum(axis=0) > _TIE**2
    if not tied.any():
        return out
    cols = np.flatnonzero(np.repeat(tied, 2))
    res = cand[:, cols].T  # one candidate per row, so every product below is a contiguous BLAS call
    pairs = np.empty_like(res)  # rows a_1, b_1, a_2, ...
    picks = []
    for k in range(0, cols.size, 2):
        if k:
            res -= (res @ pairs[k - 2 : k].T) @ pairs[k - 2 : k]
        picks.append(int(np.argmax(np.einsum("ij,ij->i", res, res))))
        b = res[picks[-1]]
        pairs[k + 1] = b / math.sqrt(b @ b)
        pairs[k] = j @ pairs[k + 1]
    # A pair stays in the eigenspace of the candidate it was picked from, and the candidates are in
    # eigenvalue order, so sorting by pick puts each pair in a slot of its eigenvalue.
    out[:, cols] = pairs.reshape(-1, 2, pairs.shape[1])[np.argsort(picks)].reshape(pairs.shape).T
    return out


@dataclass(frozen=True, eq=False)
class BlochMessiahDecomposition:
    """Factorisation S = o_out @ squeezer_direct_sum(r) @ o_in.

    Both ``o_out`` and ``o_in`` are orthogonal symplectic (passive) and the
    squeezing parameters ``r`` are nonnegative, sorted descending.
    """

    o_out: np.ndarray
    r: np.ndarray
    o_in: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.o_out @ squeezer_direct_sum(self.r) @ self.o_in


def bloch_messiah(s: np.ndarray) -> BlochMessiahDecomposition:
    """Bloch-Messiah (Euler) decomposition of a symplectic matrix.

    The symmetric factor of the polar decomposition of S is diagonalised in
    a symplectic orthonormal eigenbasis: for each singular value sigma > 1
    with eigenvector u, the partner column -Omega @ u carries 1/sigma.
    Singular values within PAIR_TOL of 1 span a passive subspace that
    Omega maps to itself; :func:`_canonical_pairs` splits it into pairs
    (Omega b, b), and it is absorbed into ``o_in``.

    Raises:
        ValueError: if the input is not symplectic within TOL_SYMP or
            the singular values fail to pair as (sigma, 1/sigma).
    """
    s = np.asarray(s, dtype=float)
    n = _even_square(s, "symplectic matrix")
    if not is_symplectic(s, TOL_SYMP):
        raise ValueError("input matrix is not symplectic within tolerance")
    omega = symplectic_form(n)
    lam, v = np.linalg.eigh(s @ s.T)
    sig = np.sqrt(np.clip(lam, 0.0, None))

    squeeze_idx = [i for i in range(2 * n) if sig[i] > 1.0 + PAIR_TOL]
    unit_idx = [i for i in range(2 * n) if abs(sig[i] - 1.0) <= PAIR_TOL]
    squeeze_idx.sort(key=lambda i: -sig[i])
    if 2 * len(squeeze_idx) + len(unit_idx) != 2 * n:
        raise ValueError("singular values do not pair as (sigma, 1/sigma); not symplectic?")

    cols = np.empty((2 * n, 2 * n))
    rs = np.empty(n)
    pair = 0
    for i in squeeze_idx:
        u = v[:, i]
        w = -omega @ u
        cols[:, 2 * pair] = u
        cols[:, 2 * pair + 1] = w / np.linalg.norm(w)
        rs[pair] = np.log(sig[i])
        pair += 1

    # Passive (sigma == 1) subspace: canonical pairs (Omega b, b), as the squeezed columns are.
    if unit_idx:
        cols[:, 2 * pair :] = _canonical_pairs(v[:, unit_idx], omega)
        rs[pair:] = 0.0

    o_out = cols
    o_in = squeezer_direct_sum(-rs) @ o_out.T @ s
    return BlochMessiahDecomposition(o_out=o_out, r=rs, o_in=o_in)


def _real_form(h: np.ndarray) -> np.ndarray:
    """Real 2N x 2N image of a complex N x N matrix, block (i, j) = [[Re h_ij, -Im h_ij], [Im h_ij, Re h_ij]].

    The map is multiplicative, so every image commutes with the image of
    1j * I, which is -Omega; a Hermitian h has a symmetric image holding each
    eigenvalue of h twice.
    """
    h = np.asarray(h)
    n = h.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = h.real
    out[0::2, 1::2] = -h.imag
    out[1::2, 0::2] = h.imag
    out[1::2, 1::2] = h.real
    return out


def unitary_to_orthosymplectic(u: np.ndarray, tol: float = TOL_SYMP) -> np.ndarray:
    """Phase-space representation of a passive Gaussian unitary.

    The N x N unitary acting on annihilation operators maps to a 2N x 2N
    orthogonal symplectic matrix whose (i, j) block is
    ``[[Re u_ij, -Im u_ij], [Im u_ij, Re u_ij]]``.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    n = u.shape[0]
    if np.linalg.norm(u @ u.conj().T - np.eye(n)) >= max(tol, 1e3 * n * np.finfo(float).eps):
        raise ValueError("input matrix is not unitary within tolerance")
    return _real_form(u)


@dataclass(frozen=True)
class BeamSplitter:
    """Beam splitter of angle ``theta`` acting on a mode pair."""

    theta: float
    modes: tuple


@dataclass(frozen=True)
class PhaseShifter:
    """Phase shifter of angle ``phi`` acting on one mode."""

    phi: float
    mode: int


@dataclass(frozen=True)
class PassiveCircuit:
    """Ordered linear-optics circuit; elements act on the state in list order."""

    n_modes: int
    elements: tuple = field(default_factory=tuple)


CircuitElement = Union[BeamSplitter, PhaseShifter]


def beam_splitter_matrix(theta: float, modes: tuple, n_modes: int) -> np.ndarray:
    i, j = modes
    if not (0 <= i < n_modes and 0 <= j < n_modes) or i == j:
        raise ValueError(f"beam splitter modes {modes} invalid for {n_modes} modes")
    c, s = np.cos(theta), np.sin(theta)
    out = np.eye(2 * n_modes)
    for a in range(2):
        out[2 * i + a, 2 * i + a] = c
        out[2 * j + a, 2 * j + a] = c
        out[2 * i + a, 2 * j + a] = s
        out[2 * j + a, 2 * i + a] = -s
    return out


def phase_shifter_matrix(phi: float, mode: int, n_modes: int) -> np.ndarray:
    if not 0 <= mode < n_modes:
        raise ValueError(f"phase shifter mode {mode} invalid for {n_modes} modes")
    out = np.eye(2 * n_modes)
    out[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = rotation(phi)
    return out


def compile_passive_circuit(circuit: PassiveCircuit) -> np.ndarray:
    """Compile a passive circuit to its orthogonal symplectic matrix.

    Elements are applied in list order, so the compiled matrix is the
    product M_last @ ... @ M_first.
    """
    out = np.eye(2 * circuit.n_modes)
    for element in circuit.elements:
        if isinstance(element, BeamSplitter):
            mat = beam_splitter_matrix(element.theta, tuple(element.modes), circuit.n_modes)
        elif isinstance(element, PhaseShifter):
            mat = phase_shifter_matrix(element.phi, element.mode, circuit.n_modes)
        else:
            raise ValueError(f"unknown circuit element {element!r}")
        out = mat @ out
    return out
