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
from typing import NamedTuple, Sequence

import numpy as np

TOL_SYMP = 1e-10
TOL_PHYS = 1e-9


def _check_int(value, label: str, low: int, high=None) -> int:
    """``value`` as an int: the one rule of every count, truncation dim, photon number and mode index.  ValueError
    naming ``label``, the range and the value for a bool, a float (an integral one too) or one outside [low, high]."""
    top = math.inf if high is None else high
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and low <= value <= top:
        return int(value)
    raise ValueError(f"{label} must be an integer in [{low}, {top}{')' if high is None else ']'}, got {value!r}")


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form for ``n_modes`` modes; ValueError unless ``n_modes`` is an integer >= 1."""
    n_modes = _check_int(n_modes, "number of modes", 1)
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    omega.flat[1 :: 4 * n_modes + 2] = 1.0  # entries (2k, 2k + 1)
    omega.flat[2 * n_modes :: 4 * n_modes + 2] = -1.0  # entries (2k + 1, 2k)
    return omega


def _check_angle(angle, label: str) -> float:
    """``angle`` as a float; ValueError naming ``label`` unless it is finite, before np.cos reads a NaN or an inf."""
    if not math.isfinite(angle):
        raise ValueError(f"{label} must be finite, got {angle}")
    return float(angle)


def rotation(phi: float) -> np.ndarray:
    """Phase-space action of a phase shifter by ``phi`` on one mode.

    Matches :func:`unitary_to_orthosymplectic` applied to the 1 x 1 unitary
    ``exp(1j * phi)``.
    """
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def squeezer_direct_sum(rs: Sequence[float]) -> np.ndarray:
    """Direct sum of single-mode squeezers diag(e^r, e^-r), one per mode; a scalar r gives one mode."""
    rs = np.asarray(rs, dtype=float)
    if rs.ndim > 1:
        raise ValueError(f"squeezings must be a scalar or a vector, got shape {rs.shape}")
    return np.diag(np.exp(np.outer(rs, [1.0, -1.0]).ravel()))


def _even_square(mat: np.ndarray, what: str) -> int:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {mat.shape}")
    if mat.shape[0] % 2 != 0 or mat.shape[0] == 0:
        raise ValueError(f"{what} must have even positive dimension, got {mat.shape[0]}")
    return mat.shape[0] // 2


def _symplectic_residual(s: np.ndarray) -> tuple:
    """||S Omega S^T - Omega|| and the bound TOL_SYMP max(1, ||S||^2) below which S counts as symplectic."""
    n = _even_square(s, "symplectic candidate")
    defect = _times_omega(s) @ s.T  # minus Omega, in place on its two off-diagonals
    defect.flat[1 :: 4 * n + 2] -= 1.0
    defect.flat[2 * n :: 4 * n + 2] += 1.0
    return float(np.linalg.norm(defect)), TOL_SYMP * max(1.0, np.linalg.norm(s) ** 2)


def is_symplectic(s: np.ndarray) -> bool:
    residual, bound = _symplectic_residual(np.asarray(s, dtype=float))
    return residual < bound


def is_orthosymplectic(o: np.ndarray) -> bool:
    n = _even_square(o, "orthosymplectic candidate")
    gram = np.asarray(o, dtype=float) @ np.transpose(o)
    gram.flat[:: 2 * n + 1] -= 1.0
    return bool(np.linalg.norm(gram) < TOL_SYMP) and is_symplectic(o)


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
# The leak is the sine of an angle between unit vectors, so a fixed value is already scale-free.
_TIE = 1e-12
# _normal_form's Euler band, a share of tol = max(TOL_PHYS, err): a squeezing below it stays in o and moves S D S^T
# by at most sqrt(2) / 8 tol ||cm||.  Over 3,000 states at seed 5 (N = 2..8, |r| <= 6, some modes unsqueezed) no
# unsqueezed log sigma of F F^T strayed above 0.0022 tol, so none is taken for a squeezed one.
_BAND_SHARE = 1.0 / 8.0


def _check_magnitude(arr: np.ndarray, what: str) -> None:
    """ValueError unless every entry is below sqrt(max double) / 2n, n = len(arr): twice such an entry squares to
    below max double / n^2, so the sums of n^2 squares in norms and in |d|^2 stay finite.  At n = 2 the bound,
    3.35e153, is above the entries of squeezed(r, phi) for every |r| <= 177, the bound on squeezing."""
    bound, peak = math.sqrt(np.finfo(float).max) / (2 * len(arr)), float(np.max(np.abs(arr)))
    if not peak < bound:
        raise ValueError(f"{what} entries must be below sqrt(max double) / 2n = {bound:.3g} in magnitude for n = "
                         f"{len(arr)}, so that n^2 squares of twice an entry sum without overflow; got {peak:.3g}")


class _NotPositiveDefinite(ValueError):
    def __init__(self, min_eig: float):
        super().__init__(f"covariance matrix is singular or not positive definite (min eigenvalue {min_eig:.3e})")
        self.min_eig = min_eig


class _Spectrum(NamedTuple):
    root: np.ndarray  # cm^{1/2}
    nu: np.ndarray  # symplectic eigenvalues, descending
    err: float  # min(_TOL_CAP, _KAPPA_FACTOR n eps kappa), the rounding of nu; tol = max(TOL_PHYS, err)


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
    :func:`_congruence` needs them.  ValueError unless cm is finite,
    within :func:`_check_magnitude`, symmetric and has every eigenvalue >= 1e-12.
    """
    cm = np.asarray(cm, dtype=float)
    n = _even_square(cm, "covariance matrix")
    if not np.all(np.isfinite(cm)):
        raise ValueError("covariance matrix must be finite")
    _check_magnitude(cm, "covariance matrix")
    if np.linalg.norm(cm - cm.T) >= TOL_SYMP * max(1.0, np.linalg.norm(cm)):
        raise ValueError("covariance matrix is not symmetric")
    w, v = np.linalg.eigh(cm)
    if w[0] < 1e-12:
        raise _NotPositiveDefinite(float(w[0]))
    root = (v * np.sqrt(w)) @ v.T
    sv = np.linalg.svd(_skew(root), compute_uv=False)
    err = min(_TOL_CAP, _KAPPA_FACTOR * 2 * n * np.finfo(float).eps * w[-1] / w[0])
    nu = 0.5 * (sv[0::2] + sv[1::2])
    nu[(nu >= 0.5 - max(TOL_PHYS, err)) & (nu < 0.5)] = 0.5
    return _Spectrum(root, nu, err)


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
        ValueError: if the matrix has odd dimension, is not finite, has an
            entry whose square could overflow (:func:`_check_magnitude`) or is
            asymmetric beyond TOL_SYMP (shape errors rather than physicality).
    """
    try:
        spec = _spectrum(mat)
    except _NotPositiveDefinite as err:
        return CMValidation(False, err.min_eig)
    return CMValidation(bool(spec.nu[-1] >= 0.5 - max(TOL_PHYS, spec.err)), float(spec.nu[-1]))


def require_valid_cm(mat: np.ndarray) -> _Spectrum:
    """Spectrum of ``mat``; ValueError unless it passes :func:`validate_cm`."""
    spec = _spectrum(mat)
    if spec.nu[-1] < 0.5 - max(TOL_PHYS, spec.err):
        raise ValueError(f"invalid covariance matrix (min symplectic eigenvalue {spec.nu[-1]:.6g})")
    return spec


def _cm_spectrum(x, read=_spectrum) -> tuple:
    """(cm, spectrum) of a matrix, its spectrum by ``read``, or of any state's moments (:func:`states._moments`) with
    the spectrum their validation kept; a leaking FockDensity, or anything else, is refused there."""
    if isinstance(x, (np.ndarray, list, tuple)):
        return np.asarray(x, dtype=float), read(x)
    from .states import _moments
    g = _moments(x)
    return g.cm, g._spectrum


def symplectic_eigenvalues(cm: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a positive-definite matrix, sorted descending.

    Computed from the real skew matrix K = cm^{1/2} @ Omega @ cm^{1/2},
    whose singular values are the nu_k, each twice; the SVD keeps an error
    of about eps nu_max, so this is stable down to the pure-state boundary
    nu = 1/2.  It is the spectrum :func:`validate_cm` judges: values within
    tolerance below 1/2 read 1/2.
    """
    return _spectrum(cm).nu


@dataclass(frozen=True, eq=False)
class BlochMessiahDecomposition:
    """S = o_out @ squeezer_direct_sum(r) @ o_in, r >= 0 descending; o_out and o_in passive, o_in of a bare S within
    the bound :func:`bloch_messiah` states."""

    o_out: np.ndarray
    r: np.ndarray
    o_in: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.o_out * np.diag(squeezer_direct_sum(self.r))) @ self.o_in


@dataclass(frozen=True, eq=False)
class WilliamsonDecomposition:
    """Factorisation cm = S @ diag(nu_1, nu_1, ..., nu_N, nu_N) @ S.T.

    ``residual`` is the reconstruction error ||S D S^T - cm|| (Frobenius), at most the
    spectrum's tol max(TOL_PHYS, 2 n eps kappa) max(1, ||cm||).  ``symplectic_residual`` is
    ||S Omega S^T - Omega||, below the :func:`is_symplectic` bound TOL_SYMP max(1, ||S||^2); the
    reconstruction residual cannot see a wrong pairing, because any orthogonal basis reconstructs cm.
    ``bloch_messiah`` is the split S = o_out Z(r) o that S was built from, both passive factors orthosymplectic.
    """

    symplectic: np.ndarray
    nu: np.ndarray
    residual: float
    symplectic_residual: float
    bloch_messiah: BlochMessiahDecomposition

    def reconstruct(self) -> np.ndarray:
        return (self.symplectic * np.repeat(self.nu, 2)) @ self.symplectic.T


def williamson(cm) -> WilliamsonDecomposition:
    """Williamson normal form of a positive-definite matrix, or of any state's moments from their kept spectrum.

    S = o_out Z(r) o from :func:`_normal_form`, the extraction protocol's route: the Euler split of
    S S^T, then the witness o of the free matrix that is left.  The symplectic eigenvalues, sorted
    descending, are exactly those of :func:`symplectic_eigenvalues`.

    Raises:
        ValueError: on near-singular input (min eigenvalue < 1e-12), if the reconstruction residual
            exceeds the tol validation reads nu with, max(TOL_PHYS, 2 n eps kappa) max(1, ||cm||),
            if the symplectic residual exceeds the :func:`is_symplectic` bound, or on a FockDensity whose leak
            exceeds ``fock.LEAK_TOL``.
    """
    cm, spec = _cm_spectrum(cm)
    split = BlochMessiahDecomposition(*_normal_form(spec, cm))
    s = split.reconstruct()
    residual = float(np.linalg.norm((s * np.repeat(spec.nu, 2)) @ s.T - cm))
    if residual > max(TOL_PHYS, spec.err) * max(1.0, np.linalg.norm(cm)):
        raise ValueError(f"williamson reconstruction residual {residual:.3e} exceeds tolerance")
    symplectic_residual, bound = _symplectic_residual(s)
    if symplectic_residual >= bound:
        raise ValueError(f"williamson symplectic residual {symplectic_residual:.3e} exceeds tolerance")
    return WilliamsonDecomposition(s, spec.nu, residual, symplectic_residual, split)


def _normal_form(spec: _Spectrum, cm: np.ndarray):
    """(o_out, r, o) with cm = S diag(nu) S^T for S = o_out Z(r) o, the one route to the Williamson form.

    o_out and r are the :func:`_euler` split of S S^T = F F^T (:func:`_congruence`), the same for every factor S, up
    to squeezings below _BAND_SHARE tol.  What is left, final = (o_out Z(-r))^T cm (o_out Z(-r)), is free: its
    Omega-commuting part has each eigenvalue 2 nu_k on a plane Omega maps to itself, and one eigh of it, paired by
    :func:`_canonical_pairs`, gives o.
    """
    o_out, r = _euler(_congruence(spec), _BAND_SHARE * max(TOL_PHYS, spec.err))
    steps = o_out * np.diag(squeezer_direct_sum(-r))  # O_out Z(-r)
    final = steps.T @ cm @ steps
    final += _times_omega(_times_omega(final).T).T  # Omega final Omega^T by column swaps
    return o_out, r, _canonical_pairs(np.linalg.eigh(final)[1][:, ::-1])


def _congruence(spec: _Spectrum) -> np.ndarray:
    """F with S diag(w) S^T = (F * w) @ F.T for every Williamson factor S and w = (w_1, w_1, ..., w_N, w_N).

    S = cm^{1/2} Q diag(nu^{-1/2}) with Q^T K^T K Q = diag(nu^2), and F = cm^{1/2} V diag(sigma^{-1/2}) of the SVD
    K = U diag(sigma) V^T differs from it only inside eigenspaces of K^T K: no canonical pairs, and an absolute error
    of about eps nu_max on sigma, where eigenvalues of K^T K would carry eps nu_max^2.
    """
    _, sv, vt = np.linalg.svd(_skew(spec.root))
    f = spec.root @ vt.T
    return np.divide(f, np.sqrt(np.maximum(sv, spec.nu[-1])), out=f)  # each singular value is some nu_k up to rounding


def _canonical_pairs(cand: np.ndarray) -> np.ndarray:
    """Orthonormal canonical pairs (a_k = Omega b_k, b_k) spanning the columns of ``cand``.

    ``cand`` holds 2m orthonormal eigenvectors, two per eigenvalue, of a symmetric operator that
    commutes with Omega, in descending order of eigenvalue.  Each eigenspace is then mapped to itself
    by Omega, so for a simple eigenvalue Omega c_2k lies in the plane of c_2k and c_2k+1 and
    (Omega c_2k, c_2k) is the pair.  Where Omega c_2k leaves that plane by more than _TIE the
    eigenvalue is tied, and the candidates of all tied eigenvalues, whose span the direct pairs leave
    free, go through a pivoted symplectic Gram-Schmidt: the candidate with the largest residual
    becomes b, a = Omega b, and both are deflated from the rest.  Returns the columns
    [a_1, b_1, ..., a_m, b_m]; pair k lies in the eigenspace of candidates 2k and 2k + 1.
    """
    out = np.empty_like(cand)
    out[:, 1::2] = cand[:, 0::2]
    out[0::2, 0::2], out[1::2, 0::2] = cand[1::2, 0::2], -cand[0::2, 0::2]  # a = Omega b: rows (q, p) -> (p, -q)
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
        pairs[k, 0::2], pairs[k, 1::2] = pairs[k + 1, 1::2], -pairs[k + 1, 0::2]
    # A pair stays in the eigenspace of the candidate it was picked from, and the candidates are in
    # eigenvalue order, so sorting by pick puts each pair in a slot of its eigenvalue.
    out[:, cols] = pairs.reshape(-1, 2, pairs.shape[1])[np.argsort(picks)].reshape(pairs.shape).T
    return out


def bloch_messiah(s: np.ndarray) -> BlochMessiahDecomposition:
    """Bloch-Messiah (Euler) decomposition of a bare symplectic matrix: :func:`_euler` of S, o_in = Z(-r) o_out^T S.

    A squeezing within the rounding of S S^T, log sigma <= 4 n eps max(1, ||S||^2) with n = 2N, reads r = 0: on 6,000
    Williamson factors (seeds 5 and 6, N <= 8, each mode unsqueezed, squeezed by 1e-10..1e-6 or by up to 6 or 2) no
    unsqueezed |log sigma| passed 0.25 n eps ||S||^2, a margin of 16.  Forming o_in amplifies o_out's rounding by
    ||S||^2: ||o_in o_in^T - I|| <= 100 n eps max(1, ||S||^2), above TOL_SYMP at strong squeezing (at most 25 over
    3,000 Williamson factors with N <= 8, |r| <= 6; README "Numerical range").  The split a
    :class:`WilliamsonDecomposition` carries has an orthosymplectic o_in at every squeezing.

    Raises:
        ValueError: if the input is not symplectic within TOL_SYMP or
            the singular values fail to pair as (sigma, 1/sigma).
    """
    s = np.asarray(s, dtype=float)
    if not is_symplectic(s):
        raise ValueError("input matrix is not symplectic within tolerance")
    o_out, rs = _euler(s, 4.0 * len(s) * np.finfo(float).eps * max(1.0, np.linalg.norm(s) ** 2))
    return BlochMessiahDecomposition(o_out=o_out, r=rs, o_in=squeezer_direct_sum(-rs) @ o_out.T @ s)


def _euler(f: np.ndarray, band: float):
    """(o_out, r) with F F^T = o_out Z(2r) o_out^T: the outer passive and squeezings of every S with S S^T = F F^T.

    Of the n largest eigenvalues sigma^2 of F F^T, those with log sigma > ``band`` are squeezed, each eigenvector u
    paired with -Omega u, which carries 1/sigma^2.  The 2(n - m) eigenvalues in between must lie within 2 band of 1
    in log sigma (else ValueError); they are passive, r = 0, and :func:`_canonical_pairs` splits them.  eigh mixes a
    sigma near 1 with its neighbours by about eps / log sigma, which leaves the columns that far from orthogonal;
    Newton-Schulz steps o <- o (3 I - o^T o) / 2, which keep o commuting with Omega, take that out down to rounding,
    8 n eps, as on the 6,000 factors of :func:`bloch_messiah` within 4 steps.  An o they leave off orthogonal by
    TOL_SYMP paired a squeezed u with a squeezed -Omega u (ValueError).
    """
    n = f.shape[0] // 2
    lam, v = np.linalg.eigh(f @ f.T)
    log_sig = 0.5 * np.log(np.maximum(lam, np.finfo(float).tiny))
    m = int(np.count_nonzero(log_sig[n:] > band))  # eigh sorts ascending, so these are the top m
    if (np.abs(log_sig[m : 2 * n - m]) > 2.0 * band).any():
        raise ValueError("singular values do not pair as (sigma, 1/sigma); not symplectic?")
    squeeze = 2 * n - m + np.argsort(-log_sig[2 * n - m :], kind="stable")  # tied sigma keep eigh's column order

    o_out = np.empty((2 * n, 2 * n))
    o_out[:, 0 : 2 * m : 2] = v[:, squeeze]
    o_out[:, 1 : 2 * m : 2] = _times_omega(v[:, squeeze].T).T  # the partners -Omega u
    if m < n:
        o_out[:, 2 * m :] = _canonical_pairs(v[:, m : 2 * n - m])
    for step in range(5):  # at most 4 Newton-Schulz steps; the fifth pass only measures
        gram = o_out.T @ o_out
        gram.flat[:: 2 * n + 1] -= 1.0
        if np.linalg.norm(gram) <= 8.0 * n * np.finfo(float).eps or step == 4:
            break
        o_out -= 0.5 * (o_out @ gram)
    if np.linalg.norm(gram) >= TOL_SYMP:  # a squeezed u whose partner is squeezed too leaves o_out rank-deficient
        raise ValueError("singular values do not pair as (sigma, 1/sigma); not symplectic?")
    return o_out, np.concatenate([log_sig[squeeze], np.zeros(n - m)])  # r = 0 on the passive pairs


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


def unitary_to_orthosymplectic(u: np.ndarray) -> np.ndarray:
    """Phase-space representation of a passive Gaussian unitary.

    The N x N unitary acting on annihilation operators maps to a 2N x 2N
    orthogonal symplectic matrix whose (i, j) block is
    ``[[Re u_ij, -Im u_ij], [Im u_ij, Re u_ij]]``.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    tol = max(TOL_SYMP, 1e3 * u.shape[0] * np.finfo(float).eps)  # a NaN or inf entry is refused before the product
    if not (np.isfinite(u).all() and np.linalg.norm(u @ u.conj().T - np.eye(len(u))) < tol):
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


def compile_passive_circuit(circuit: PassiveCircuit) -> np.ndarray:
    """Compile a passive circuit to its orthogonal symplectic matrix.

    Each element acts on the rows of the N x N unitary u on annihilation
    operators, in list order: a beam splitter on modes (i, j) sets rows
    i, j to c u_i + s u_j and c u_j - s u_i, a phase shifter multiplies row
    k by exp(i phi).  The result is the :func:`unitary_to_orthosymplectic`
    image of u, the product M_last @ ... @ M_first of the element images.
    ValueError for what :func:`_check_int` refuses, a beam splitter not on two distinct modes or a non-finite angle.
    """
    n = _check_int(circuit.n_modes, "number of modes", 1)
    u = np.eye(n, dtype=complex)
    for element in circuit.elements:
        if isinstance(element, BeamSplitter):
            if np.shape(element.modes) != (2,):
                raise ValueError(f"a beam splitter needs a pair of mode indices, got {element!r}")
            i, j = (_check_int(m, "beam splitter mode", 0, n - 1) for m in element.modes)
            if i == j:
                raise ValueError(f"beam splitter modes {tuple(element.modes)} must differ")
            theta = _check_angle(element.theta, "beam splitter angle")
            c, s = np.cos(theta), np.sin(theta)
            u[i], u[j] = c * u[i] + s * u[j], c * u[j] - s * u[i]
        elif isinstance(element, PhaseShifter):
            k = _check_int(element.mode, "phase shifter mode", 0, n - 1)
            u[k] *= np.exp(1j * _check_angle(element.phi, "phase shifter angle"))
        else:
            raise ValueError(f"unknown circuit element {element!r}")
    return _real_form(u)
