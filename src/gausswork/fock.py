"""Truncated Fock-space machinery: beam-splitter amplitudes, lossy-channel
Kraus operators, Gaussian post-selection, moment extraction and single-mode
activity of non-Gaussian states.

``eta`` is the *amplitude* transmittance throughout, matching the
beam-splitter amplitude split (eta, sqrt(1 - eta^2)); the intensity
transmittance is eta^2.

Beam-splitter amplitudes come from one recurrence in total photon number N
(see ``_bs_blocks``) that yields the orthogonal N-photon blocks B_N.  Their
unitarity residual ||B_N B_N^T - I|| is checked before anything is built
from them: a request with a block above UNITARITY_TOL (N + 1) is refused,
and ``KrausSet.unitarity_residual`` reports the largest residual of an
accepted Kraus set.  ``thermal_loss_kraus`` checks and gathers each block
as the recurrence yields it, so it holds one block at a time besides the
stored diagonals; a refused block still raises before any Kraus set is
returned.

Each thermal-loss Kraus operator K_mn is one shifted diagonal: it maps |n1>
to |n1 + n - m>.  ``KrausSet`` stores only those diagonals, in one real
array of (max_mn + 1) (n_max + 1) dim doubles, and ``apply_kraus_channel``
works on them directly.  ``KrausSet.operators`` is a dense view built on
each access, for inspection and tests.

``fock_from_gaussian`` fills the Fock tensor of an N-mode Gaussian state by
the Hermite recurrence on its Bargmann data (Quesada et al., PRA 100, 022341
(2019); Miatto & Quesada, Quantum 4, 366 (2020)).  Nothing is padded, so the
leak 1 - trace is exact; dim^(2N) is capped at _FOCK_ENTRY_BUDGET entries.
"""

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np

from .states import GaussianState, _mode_indices, _xlogx, thermal_entropy
from .symplectic import _real_form, validate_cm

UNITARITY_TOL = 1e3 * np.finfo(float).eps
_FOCK_ENTRY_BUDGET = 2**22  # largest dim^(2N) fock_from_gaussian fills: a 64 MiB complex tensor


@dataclass(frozen=True, eq=False)
class FockDensity:
    """Density matrix on a truncated Fock space (dim levels per mode)."""

    matrix: np.ndarray
    dim: int
    n_modes: int = 1

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        expected = self.dim**self.n_modes
        if mat.shape != (expected, expected):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {self.dim}^{self.n_modes}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix must be finite")
        residual = mat.conj().T  # the one temporary of the check: a conjugate copy, then subtract in place
        residual -= mat
        if np.linalg.norm(residual) > 1e-10 * max(1.0, np.linalg.norm(mat)):
            raise ValueError("density matrix is not Hermitian")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Thermal-loss Kraus operators K_{mn}, indexed by bath (out, in) photons.

    ``diagonals[m, n, n1]`` is K_{mn}[n1 + n - m, n1], the only nonzero entry
    of column n1, and zero where row n1 + n - m falls outside the
    truncation; m runs over 0..max_mn and n over the bath photon numbers
    with nonzero weight.  ``operators`` is the dense dim x dim view of the
    same set, built on each access and not cached.

    ``unitarity_residual`` is the largest ||B_N B_N^T - I|| over the
    beam-splitter blocks the operators were gathered from.
    """

    diagonals: np.ndarray
    eta: float
    nbar_bath: float
    unitarity_residual: float

    @property
    def dim(self) -> int:
        return self.diagonals.shape[2]

    @property
    def operators(self) -> Dict[Tuple[int, int], np.ndarray]:
        """Dense K_{mn} for every stored (m, n), built afresh on each access."""
        m, n, n1 = np.indices(self.diagonals.shape, sparse=True)
        rows = n1 + n - m
        inside = (rows >= 0) & (rows < self.dim)
        dense = np.zeros(self.diagonals.shape + (self.dim,))
        i, j, col = np.nonzero(inside)
        dense[i, j, rows[inside], col] = self.diagonals[inside]
        return {(a, b): dense[a, b] for a in range(dense.shape[0]) for b in range(dense.shape[1])}

    def completeness_diagonal(self) -> np.ndarray:
        """Diagonal of sum_K K^dag K (which has no other entries); deviation
        from 1 is the truncation deficit."""
        return np.sum(self.diagonals**2, axis=(0, 1))


def _check_eta(eta: float) -> None:
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"amplitude transmittance must lie in (0, 1], got {eta}")


def _check_nbar(nbar_bath: float) -> None:
    if not 0.0 <= nbar_bath < math.inf:
        raise ValueError(f"bath mean photon number must be finite and nonnegative, got {nbar_bath}")


def _bs_blocks(eta: float, n_max: int) -> Iterator[np.ndarray]:
    """Yield the blocks B_N[m1, n1] = <m1, N - m1| U_bs |n1, N - n1>, N = 0..n_max.

    U_bs maps a^dag -> eta a^dag + tau b^dag and b^dag -> -tau a^dag + eta b^dag
    (tau = sqrt(1 - eta^2)).  Since (a^dag a + b^dag b) / N is the identity
    on N photons, each input column adds one photon to both input modes,
    weighted by their occupations:
    B_N = [(eta a^dag + tau b^dag) B_{N-1} a + (-tau a^dag + eta b^dag) B_{N-1} b] / N,
    with a^dag, b^dag acting on the output (rows) and a, b on the input
    (columns).  This step cannot amplify rounding errors, so
    ||B_N B_N^T - I|| grows only about as fast as N eps.
    """
    tau = math.sqrt(1.0 - eta * eta)
    block = np.ones((1, 1))
    yield block
    for n in range(1, n_max + 1):
        k = np.arange(n + 1)
        up_a = np.zeros((n + 1, n))
        up_a[1:] = np.sqrt(k[1:, None]) * block
        up_b = np.zeros((n + 1, n))
        up_b[:-1] = np.sqrt(n - k[:-1, None]) * block
        block = np.zeros((n + 1, n + 1))
        block[:, 1:] += np.sqrt(k[1:]) * (eta * up_a + tau * up_b)
        block[:, :-1] += np.sqrt(n - k[:-1]) * (eta * up_b - tau * up_a)
        block /= n
        yield block


def _unitarity_residual(block: np.ndarray, eta: float) -> float:
    """||B_N B_N^T - I|| of one block.

    Raises:
        ValueError: naming the block and its residual when that exceeds
            UNITARITY_TOL * (N + 1).
    """
    size = len(block)
    residual = float(np.linalg.norm(block @ block.T - np.eye(size)))
    if residual > UNITARITY_TOL * size:
        raise ValueError(
            f"beam-splitter block N = {size - 1} has unitarity residual {residual:.3e} above "
            f"tolerance {UNITARITY_TOL * size:.1e} (eta = {eta})"
        )
    return residual


def bs_matrix_element(m1: int, m: int, n1: int, n: int, eta: float) -> float:
    """Amplitude <m1, m| U_bs(eta) |n1, n>; zero unless m1 + m == n1 + n."""
    for label, idx in (("m1", m1), ("m", m), ("n1", n1), ("n", n)):
        if idx < 0 or idx != int(idx):
            raise ValueError(f"photon number {label} must be a nonnegative integer, got {idx}")
    _check_eta(eta)
    if m1 + m != n1 + n:
        return 0.0
    for block in _bs_blocks(float(eta), int(n1 + n)):  # hold one block at a time
        pass
    _unitarity_residual(block, eta)
    return float(block[int(m1), int(n1)])


def thermal_loss_kraus(eta: float, nbar_bath: float, dim: int, max_mn: int) -> KrausSet:
    """Kraus operators of the thermal-loss channel in a dim-level truncation.

    K_{mn}[m1, n1] = sqrt(p_n) B_{n1+n}[m1, n1] (m1 = n1 + n - m) with p_n the
    geometric bath weights, so photon numbers up to N = dim - 1 + max_mn are
    needed; indices run over 0 <= m, n <= max_mn (operators with p_n = 0 are
    dropped, so nbar_bath = 0 reduces to the pure-loss set).
    """
    if dim < 2:
        raise ValueError(f"truncation dim must be at least 2, got {dim}")
    if max_mn < 0:
        raise ValueError(f"max_mn must be nonnegative, got {max_mn}")
    if max_mn > dim:
        raise ValueError(f"truncation dim {dim} too small for max_mn {max_mn}")
    _check_eta(eta)
    _check_nbar(nbar_bath)
    x = nbar_bath / (nbar_bath + 1.0)
    root_p = np.sqrt((1.0 - x) * x ** np.arange(max_mn + 1))
    n_max = int(np.count_nonzero(root_p)) - 1  # the weights decrease, so zeros form a tail
    # Each block is checked and gathered as it is produced, so only one is
    # held at a time.  Block N feeds every (m, n, n1) with n1 + n = N, from
    # B_N[m1, n1] at m1 = N - m: one outer-indexed write over the m1 and n1
    # in range.
    diagonals = np.zeros((max_mn + 1, n_max + 1, dim))
    residual = 0.0
    for total, block in enumerate(_bs_blocks(float(eta), dim - 1 + n_max)):
        residual = max(residual, _unitarity_residual(block, eta))
        m1 = np.arange(max(0, total - max_mn), min(dim - 1, total) + 1)
        n1 = np.arange(max(0, total - n_max), min(dim - 1, total) + 1)
        diagonals[total - m1[:, None], total - n1, n1] = root_p[total - n1] * block[np.ix_(m1, n1)]
    diagonals.setflags(write=False)
    return KrausSet(diagonals=diagonals, eta=eta, nbar_bath=nbar_bath, unitarity_residual=residual)


def apply_kraus_channel(rho: FockDensity, kraus: KrausSet):
    """Apply sum_K K rho K^dag; returns the output and the completeness deficit.

    The operators with shift k = n - m share one map: with A_k the stack of
    their diagonals, they send rho to (A_k^T A_k o rho) moved k places down
    the diagonal (o the entrywise product).

    The deficit is the operator norm of I - sum K^dag K restricted to the
    sub-block where the input has support (diagonal weight > 1e-12); that
    matrix is diagonal, so its norm is the largest |1 - c_i| there.
    """
    if rho.n_modes != 1 or rho.matrix.shape[0] != kraus.dim:
        raise ValueError("input dimension does not match the Kraus set")
    dim = kraus.dim
    max_mn, n_max = kraus.diagonals.shape[0] - 1, kraus.diagonals.shape[1] - 1
    out = np.zeros_like(rho.matrix)
    for k in range(-max_mn, n_max + 1):
        n = np.arange(max(0, k), min(n_max, max_mn + k) + 1)
        stack = kraus.diagonals[n - k, n]
        term = (stack.T @ stack) * rho.matrix
        if k >= 0:
            out[k:, k:] += term[: dim - k, : dim - k]
        else:
            out[: dim + k, : dim + k] += term[-k:, -k:]
    support = np.real(np.diag(rho.matrix)) > 1e-12
    gap = np.abs(1.0 - kraus.completeness_diagonal()[support])
    deficit = float(gap.max()) if gap.size else 0.0
    return FockDensity(out, dim=dim), deficit


def phase_space_loss_channel(state: GaussianState, eta: float, nbar_bath: float) -> GaussianState:
    """Thermal-loss map on covariances: cm -> eta^2 cm + (1 - eta^2)(nbar + 1/2) I."""
    _check_eta(eta)
    _check_nbar(nbar_bath)
    dim = state.cm.shape[0]
    cm = eta**2 * state.cm + (1.0 - eta**2) * (nbar_bath + 0.5) * np.eye(dim)
    return GaussianState(eta * state.displacement, cm)


def gaussian_postselect(state: GaussianState, measured, gamma_meas: np.ndarray) -> GaussianState:
    """Condition on a Gaussian measurement outcome of the ``measured`` modes.

    The kept covariance is the Schur complement
    cm_AA - cm_AB (cm_BB + gamma_meas)^{-1} cm_AB^T; the conditional mean
    uses outcome zero, extending the zero-displacement case.
    """
    measured = sorted(set(int(m) for m in measured))
    keep = [m for m in range(state.n_modes) if m not in measured]
    if not measured or not keep:
        raise ValueError("measurement must cover a nonempty strict subset of modes")
    gamma_meas = np.asarray(gamma_meas, dtype=float)
    if gamma_meas.shape != (2 * len(measured), 2 * len(measured)):
        raise ValueError("measurement covariance has wrong dimension")
    if not validate_cm(gamma_meas).valid:
        raise ValueError("measurement covariance is unphysical")
    ia, ib = _mode_indices(keep), _mode_indices(measured)
    cm_aa = state.cm[np.ix_(ia, ia)]
    cm_ab = state.cm[np.ix_(ia, ib)]
    cm_bb = state.cm[np.ix_(ib, ib)]
    gate = cm_bb + gamma_meas
    if np.linalg.cond(gate) > 1e12:
        raise ValueError("measured block plus outcome covariance is ill-conditioned")
    gain = cm_ab @ np.linalg.inv(gate)
    cm_new = cm_aa - gain @ cm_ab.T
    d_new = state.displacement[ia] + gain @ (np.zeros(ib.size) - state.displacement[ib])
    return GaussianState(d_new, 0.5 * (cm_new + cm_new.T))


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def fock_number_state(n: int, dim: int) -> FockDensity:
    if not 0 <= n < dim:
        raise ValueError(f"number state {n} does not fit in dim {dim}")
    return FockDensity(np.diag(np.eye(dim)[n]), dim=dim)


def fock_thermal(nbar: float, dim: int) -> FockDensity:
    if not 0.0 <= nbar < math.inf:
        raise ValueError(f"mean photon number must be finite and nonnegative, got {nbar}")
    x = nbar / (nbar + 1.0)
    weights = (1.0 - x) * x ** np.arange(dim)
    return FockDensity(np.diag(weights), dim=dim)


def fock_from_gaussian(state: GaussianState, dim: int) -> FockDensity:
    """Fock density of an N-mode Gaussian state, dim levels per mode, mode 1 most significant.

    rho_0 = c and rho_{k+e_i} = (b_i rho_k + sum_j A_ij sqrt(k_j) rho_{k-e_j}) / sqrt(k_i + 1), one
    axis of k = (m_1..m_N, n_1..n_N) at a time.  ValueError, before any allocation, unless dim >= 1
    is an integer and dim^(2N) <= _FOCK_ENTRY_BUDGET.
    """
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"truncation dim must be a positive integer, got {dim!r}")
    n, dim = state.n_modes, int(dim)
    if dim ** (2 * n) > _FOCK_ENTRY_BUDGET:
        raise ValueError(f"Fock conversion at dim {dim} for {n} modes needs {dim ** (2 * n)} entries, "
                         f"above the budget of {_FOCK_ENTRY_BUDGET}")
    # Bargmann data (A, b, c) in the order (a_1..a_N, a_1*..a_N*); W is unitary, so sigma^-1 =
    # W (cm + I/2)^-1 W^dag.  Gauss-Jordan needs no pivoting on the positive-definite cm + I/2; it and
    # einsum replace np.linalg.inv and complex @, whose LAPACK and BLAS code no other Fock step loads.
    w = np.kron(np.eye(n), [[1.0, 1j], [1.0, -1j]])[np.r_[0 : 2 * n : 2, 1 : 2 * n : 2]] / math.sqrt(2.0)
    aug, det = np.hstack([state.cm + 0.5 * np.eye(2 * n), np.eye(2 * n)]), 1.0
    for k in range(2 * n):
        det *= aug[k, k]
        aug[k] /= aug[k, k]
        aug -= np.outer(aug[:, k] - np.eye(2 * n)[k], aug[k])
    inv = np.einsum("ia,ab,jb->ij", w, aug[:, 2 * n :], w.conj())
    a = np.roll(np.eye(2 * n) - inv, n, axis=0).conj()  # X (I - sigma^-1)*
    gamma = w @ state.displacement
    b = inv @ gamma
    rho = np.zeros((dim,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = math.exp(-0.5 * np.real(gamma.conj() @ b)) / math.sqrt(det)
    root = np.sqrt(np.arange(dim))
    for i in range(2 * n):
        # The axes after i are still at index 0: only A_ij with j <= i contribute.
        head, tail = (slice(None),) * i, (0,) * (2 * n - i - 1)
        for v in range(dim - 1):
            slab = rho[head + (v,) + tail]
            step = b[i] * slab + a[i, i] * root[v] * rho[head + (max(v - 1, 0),) + tail]  # root[0] = 0
            for j in range(i):
                skip, scale = (slice(None),) * j, root[1:].reshape((-1,) + (1,) * (i - j - 1))
                step[skip + (slice(1, None),)] += a[i, j] * scale * slab[skip + (slice(None, -1),)]
            rho[head + (v + 1,) + tail] = step / root[v + 1]
    return FockDensity(rho.reshape(dim**n, dim**n), dim=dim, n_modes=n)


def fock_moments(rho: FockDensity):
    """First and second quadrature moments (d, cm) of a single-mode density."""
    if rho.n_modes != 1:
        raise ValueError("moment extraction implemented for single-mode states")
    a = annihilation(rho.dim)
    mat = rho.matrix
    tr = np.real(np.trace(mat))
    mean_a = np.trace(mat @ a) / tr
    mean_aa = np.trace(mat @ a @ a) / tr
    mean_n = np.real(np.trace(mat @ (a.T @ a))) / tr
    d = math.sqrt(2.0) * np.array([mean_a.real, mean_a.imag])
    qq = mean_aa.real + mean_n + 0.5 - d[0] ** 2
    pp = -mean_aa.real + mean_n + 0.5 - d[1] ** 2
    qp = mean_aa.imag - d[0] * d[1]
    return d, np.array([[qq, qp], [qp, pp]])


def fock_single_mode_activity(rho: FockDensity, leak_tol: float = 1e-6) -> float:
    """Activity of an arbitrary single-mode state: -S(rho) + g(nbar + 1/2)."""
    if rho.n_modes != 1:
        raise ValueError("single-mode activity requires a single-mode density")
    leak = abs(1.0 - rho.trace)
    if leak > leak_tol:
        raise ValueError(f"truncation leak {leak:.3e} exceeds tolerance {leak_tol:.1e}")
    # The real form of rho holds each eigenvalue twice; a real solver keeps complex LAPACK out of the process.
    evals = np.clip(np.linalg.eigvalsh(_real_form(rho.matrix))[0::2], 0.0, None)
    entropy = float(-np.sum(_xlogx(evals)))
    nbar = float(np.real(np.diag(rho.matrix)) @ np.arange(rho.dim))
    return -entropy + float(thermal_entropy(nbar + 0.5))


def fock_postselect_demo(dim: int = 8):
    """Send |1, 1> through a 50:50 beam splitter and keep vacuum on arm two.

    Returns the conditional output (the two-photon state), the success
    probability 1/2, and the activity gain g(5/2) - g(3/2).
    """
    eta = 1.0 / math.sqrt(2.0)
    amps = np.array([bs_matrix_element(m1, 0, 1, 1, eta) for m1 in range(dim)])
    probability = float(amps @ amps)
    vec = amps / math.sqrt(probability)
    output = FockDensity(np.outer(vec, vec), dim=dim)
    gain = float(thermal_entropy(2.5) - thermal_entropy(1.5))
    return output, probability, gain
