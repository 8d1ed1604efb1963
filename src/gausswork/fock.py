"""Truncated Fock-space machinery: beam-splitter blocks, lossy-channel
Kraus operators, Gaussian post-selection, and the N-mode moments and entropy
from which every state functional reads a FockDensity.

``eta`` is the *amplitude* transmittance throughout, matching the
beam-splitter amplitude split (eta, sqrt(1 - eta^2)); the intensity
transmittance is eta^2.

Beam-splitter amplitudes have one source, the recurrence in total photon number
N (``_bs_blocks``) that yields the orthogonal N-photon blocks B_N.  Nothing is read
from a block before ``_unitarity_residual`` has checked ||B_N B_N^T - I|| against
UNITARITY_TOL (N + 1).  ``thermal_loss_kraus`` checks and scatters each block as
the recurrence yields it, so it holds one block at a time besides the stored
entries and one step temporary, and reports the largest residual as
``KrausSet.unitarity_residual``; ``fock_postselect_demo`` reads B_2[2, 1].

Each thermal-loss Kraus operator K_mn is one shifted diagonal: it maps |n1>
to |n1 + n - m>.  ``KrausSet`` keeps, per shift n - m, one stack of their
in-range entries, with no padding, and ``apply_kraus_channel`` reads each
stack in place.  ``operators`` is a dense view built on each access.

``fock_from_gaussian`` fills the Fock tensor of an N-mode Gaussian state by
the Hermite recurrence on its Bargmann data (Quesada et al., PRA 100, 022341
(2019); Miatto & Quesada, Quantum 4, 366 (2020)).  Nothing is padded, so the
leak 1 - trace is exact.  Every builder passes the entries it will allocate to
``symplectic._check_entries``, one budget of 2^22, before its first array exists: dim <= 2048
for a one-mode density, 45 at N = 2 and 12 at N = 3 in ``fock_from_gaussian``, and
N <= 231 for the beam-splitter blocks (sum_{k<=N} (k + 1)^2 entries; dim 232 at max_mn 0).
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, Tuple

import numpy as np

from .states import GaussianState, _bipartition, _gaussian, _mode_indices
from .symplectic import _check_array, _check_entries, _check_int, _check_real, _real_form, validate_cm

UNITARITY_TOL = 1e3 * np.finfo(float).eps
LEAK_TOL = 1e-6  # largest truncation leak |1 - trace| that a functional accepts of a FockDensity
_MAX_MODES = 31  # numpy 1.x arrays have at most 32 axes, and fock_moments indexes N modes on N + 1 of them


class _Fresh:
    """A complex array made in this module and held by no caller: FockDensity keeps it without a copy."""

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True, eq=False)
class FockDensity:
    """Density matrix on a truncated Fock space (dim levels per mode, N <= 31 modes); it keeps a read-only copy."""

    matrix: np.ndarray
    dim: int
    n_modes: int = 1

    def __post_init__(self):
        fresh = isinstance(self.matrix, _Fresh)
        mat = _check_array(self.matrix.array if fresh else self.matrix, "density matrix", "square", dtype=complex,
                           copy=not fresh)
        dim = _check_int(self.dim, "truncation dim", 1)
        n_modes = _check_int(self.n_modes, "number of modes", 1, _MAX_MODES)
        if len(mat) != dim**n_modes:
            raise ValueError(f"density matrix of size {len(mat)} does not match dim {self.dim}^{self.n_modes}")
        mat.setflags(write=False)
        re, im = mat.real, mat.imag  # ||mat^dag - mat|| from real temporaries of half the matrix's size
        if math.hypot(np.linalg.norm(re - re.T), np.linalg.norm(im + im.T)) > 1e-10 * max(1.0, np.linalg.norm(mat)):
            raise ValueError("density matrix is not Hermitian")
        object.__setattr__(self, "matrix", mat)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


def _shift_layout(dim: int, max_mn: int, n_max: int):
    """(k, first, rows, lo, width, start), entry i for the shift k = i - max_mn = n - m: its stack has rows n = first..
    (m = n - k), columns n1 = lo.. (output n1 + k inside), and starts at start[i] of start[-1] doubles."""
    # Built from Python ints: numpy's integer max, min and abs loops would page in code no other Fock step runs.
    k, first, rows, lo, width = np.array([(k, max(k, 0), min(n_max, max_mn + k) - max(k, 0) + 1, max(-k, 0),
                                           dim - abs(k)) for k in range(-max_mn, n_max + 1)]).T
    return k, first, rows, lo, width, np.concatenate(([0], np.cumsum(rows * width)))


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Thermal-loss Kraus operators K_{mn}, indexed by bath (out, in) photons.

    K_{mn} maps |n1> to |n1 + k>, k = n - m.  ``stacks`` holds one read-only
    (#n_k, dim - |k|) view per shift k = -max_mn..n_max into one flat buffer:
    entry (n - max(0, k), n1 - max(0, -k)) is K_{n-k,n}[n1 + k, n1], n <= n_max
    of nonzero bath weight.  ``operators`` is a dense view built on each access.
    ``completeness`` is the diagonal of sum_K K^dag K, which has no other
    entries, summed once at build from each stack's squared columns.

    ``unitarity_residual`` is the largest ||B_N B_N^T - I|| over the
    beam-splitter blocks the operators were gathered from.
    """

    stacks: Tuple[np.ndarray, ...]
    dim: int
    max_mn: int
    n_max: int
    eta: float
    nbar_bath: float
    unitarity_residual: float
    completeness: np.ndarray

    @property
    def operators(self) -> Dict[Tuple[int, int], np.ndarray]:
        """Dense K_{mn} for every stored (m, n), built afresh on each access."""
        _check_entries((self.max_mn + 1) * (self.n_max + 1) * self.dim**2, "dense Kraus view")
        k, first, _, lo, _, _ = _shift_layout(self.dim, self.max_mn, self.n_max)
        dense = np.zeros((self.max_mn + 1, self.n_max + 1, self.dim, self.dim))
        for shift, n0, a, stack in zip(k, first, lo, self.stacks):
            n, n1 = n0 + np.arange(len(stack))[:, None], a + np.arange(stack.shape[1])
            dense[n - shift, n, n1 + shift, n1] = stack
        return {(m, n): dense[m, n] for m, n in np.ndindex(dense.shape[:2])}


def _density(rho, op: str) -> FockDensity:
    """``rho`` if it is a FockDensity: :func:`states._gaussian`'s twin for density-only operations, naming ``op``."""
    if not isinstance(rho, FockDensity):
        raise ValueError(f"{op} takes a FockDensity, got {type(rho).__name__}")
    return rho


def _bs_blocks(eta: float, n_max: int) -> Iterator[np.ndarray]:
    """The blocks B_N[m1, n1] = <m1, N - m1| U_bs |n1, N - n1>, N = 0..n_max, one at a time.

    U_bs maps a^dag -> eta a^dag + tau b^dag and b^dag -> -tau a^dag + eta b^dag
    (tau = sqrt(1 - eta^2)).  Since (a^dag a + b^dag b) / N is the identity
    on N photons, each input column adds one photon to both input modes,
    weighted by their occupations:
    B_N = [(eta a^dag + tau b^dag) B_{N-1} a + (-tau a^dag + eta b^dag) B_{N-1} b] / N,
    with a^dag, b^dag acting on the output (rows) and a, b on the input
    (columns).  This step cannot amplify rounding errors, so
    ||B_N B_N^T - I|| grows only about as fast as N eps.  The sum_{k<=N} (k + 1)^2 entries of the blocks bound
    the work and the peak: they pass :func:`_check_entries` at the call, before the first block is built.
    """
    _check_entries((n_max + 1) * (n_max + 2) * (2 * n_max + 3) // 6, f"beam-splitter recurrence to N = {n_max}")
    tau = math.sqrt(1.0 - eta * eta)
    def step(block, n):  # B_{N-1} -> B_N
        up = np.sqrt(np.arange(1, n + 1) / n)  # sqrt(k / N), k = 1..N; reversed, sqrt((N - k) / N), k = 0..N-1
        new, term = np.zeros((n + 1, n + 1)), np.empty((n, n))
        # Each shifted contribution of B_{N-1}: (row, column) offset, row weights, column weights.
        for i, j, rows, cols in ((1, 1, eta * up, up), (0, 1, tau * up[::-1], up),
                                 (0, 0, eta * up[::-1], up[::-1]), (1, 0, -tau * up, up[::-1])):
            term[:] = cols  # numpy buffers every broadcast or strided operand: at most one per operation here
            term *= rows[:, None]
            term *= block
            np.copyto(new[i : i + n, j : j + n], np.add(term, new[i : i + n, j : j + n], out=term))
        return new
    return accumulate(range(1, n_max + 1), step, initial=np.ones((1, 1)))


def _unitarity_residual(block: np.ndarray, eta: float) -> float:
    """||B_N B_N^T - I|| of one block.

    Raises:
        ValueError: naming the block and its residual when that exceeds
            UNITARITY_TOL * (N + 1).
    """
    size = len(block)
    gram = block @ block.T
    gram.flat[:: size + 1] -= 1.0
    residual = float(np.linalg.norm(gram))
    if residual > UNITARITY_TOL * size:
        raise ValueError(
            f"beam-splitter block N = {size - 1} has unitarity residual {residual:.3e} above "
            f"tolerance {UNITARITY_TOL * size:.1e} (eta = {eta})"
        )
    return residual


def thermal_loss_kraus(eta: float, nbar_bath: float, dim: int, max_mn: int) -> KrausSet:
    """Kraus operators of the thermal-loss channel in a dim-level truncation.

    K_{mn}[m1, n1] = sqrt(p_n) B_{n1+n}[m1, n1] (m1 = n1 + n - m) with p_n the
    geometric bath weights, so photon numbers up to N = dim - 1 + max_mn are
    needed; indices run over 0 <= m, n <= max_mn (operators with p_n = 0 are
    dropped, so nbar_bath = 0 reduces to the pure-loss set).  ValueError unless dim >= 2 and 0 <= max_mn <= dim pass
    :func:`_check_int`, eta and nbar_bath :func:`_check_real`, and the blocks and stored entries :func:`_check_entries`.
    """
    dim = _check_int(dim, "truncation dim", 2)
    max_mn = _check_int(max_mn, "max_mn", 0, dim)
    eta = _check_real(eta, "amplitude transmittance", 0.0, 1.0, low_open=True)
    nbar_bath = _check_real(nbar_bath, "bath mean photon number", 0.0)
    _bs_blocks(eta, dim - 1)  # sizes the blocks every n_max >= 0 needs before the max_mn + 1 bath weights exist
    x = nbar_bath / (nbar_bath + 1.0)
    root_p = np.sqrt((1.0 - x) * x ** np.arange(max_mn + 1))
    n_max = int(np.count_nonzero(root_p)) - 1  # the weights decrease, so zeros form a tail
    # Each block is checked and scattered as it is produced, so only one is held at a time.  Block N feeds
    # every (m, n, n1) with n1 + n = N from B_N[m1, n1], m1 = N - m, in the stack of shift k = m1 - n1:
    # one flat-index write over the m1 and n1 in range.
    blocks = _bs_blocks(eta, dim - 1 + n_max)  # checks the blocks' size first, which bounds the layout's
    _, first, rows, lo, width, start = _shift_layout(dim, max_mn, n_max)
    _check_entries(int(start[-1]), f"Kraus set at dim {dim}, max_mn {max_mn}")
    flat = np.zeros(start[-1])
    residual = 0.0
    for total, block in enumerate(blocks):
        residual = max(residual, _unitarity_residual(block, eta))
        m1 = np.arange(max(0, total - max_mn), min(dim - 1, total) + 1)[:, None]
        n1 = np.arange(max(0, total - n_max), min(dim - 1, total) + 1)
        s = m1 - n1 + max_mn  # the layout index of k = m1 - n1
        flat[start[s] + (total - n1 - first[s]) * width[s] + n1 - lo[s]] = root_p[total - n1] * block[m1, n1]
    flat.setflags(write=False)
    stacks = tuple(flat[a : a + r * w].reshape(r, w) for a, r, w in zip(start, rows, width))
    comp = np.zeros(dim)
    for a, stack in zip(lo, stacks):
        comp[a : a + stack.shape[1]] += np.einsum("ij,ij->j", stack, stack)
    comp.setflags(write=False)
    return KrausSet(stacks, dim, max_mn, n_max, eta, nbar_bath, residual, comp)


def apply_kraus_channel(rho: FockDensity, kraus: KrausSet):
    """Apply sum_K K rho K^dag; returns the output and the completeness deficit.

    The operators with shift k = n - m share one map: with A_k their stack,
    they send rho to (A_k^T A_k o rho) moved k places down the diagonal
    (o the entrywise product), formed on the in-range band only.

    The deficit is the operator norm of I - sum K^dag K restricted to the
    sub-block where the input has support (diagonal weight > 1e-12); that
    matrix is diagonal, so its norm is the largest |1 - c_i| there.
    """
    if _density(rho, "apply_kraus_channel").n_modes != 1 or rho.dim != kraus.dim:
        raise ValueError("input dimension does not match the Kraus set")
    out = np.zeros_like(rho.matrix)
    k, _, _, lo, width, _ = _shift_layout(kraus.dim, kraus.max_mn, kraus.n_max)
    for b, a, w, stack in zip(k + lo, lo, width, kraus.stacks):  # input levels a.. land on b = a + k..
        out[b : b + w, b : b + w] += (stack.T @ stack) * rho.matrix[a : a + w, a : a + w]
    support = np.real(np.diag(rho.matrix)) > 1e-12  # absolute: the diagonal of a trace-1 density holds probabilities
    gap = np.abs(1.0 - kraus.completeness[support])
    deficit = float(gap.max()) if gap.size else 0.0
    return FockDensity(_Fresh(out), dim=kraus.dim), deficit


def phase_space_loss_channel(state: GaussianState, eta: float, nbar_bath: float) -> GaussianState:
    """Thermal-loss map cm -> eta^2 cm + (1 - eta^2)(nbar + 1/2) I of a GaussianState; ValueError for other input."""
    state = _gaussian(state, "phase_space_loss_channel")
    eta = _check_real(eta, "amplitude transmittance", 0.0, 1.0, low_open=True)
    nbar_bath = _check_real(nbar_bath, "bath mean photon number", 0.0)
    dim = state.cm.shape[0]
    cm = eta**2 * state.cm + (1.0 - eta**2) * (nbar_bath + 0.5) * np.eye(dim)
    return GaussianState(eta * state.displacement, cm)


def gaussian_postselect(state: GaussianState, measured, gamma_meas: np.ndarray) -> GaussianState:
    """Condition on a Gaussian measurement outcome of the ``measured`` modes.

    The kept covariance is the Schur complement
    cm_AA - cm_AB (cm_BB + gamma_meas)^{-1} cm_AB^T; the conditional mean
    uses outcome zero, extending the zero-displacement case.  ValueError unless ``state`` is a GaussianState.
    """
    measured, keep = _bipartition(_gaussian(state, "gaussian_postselect").n_modes, measured)
    if not measured or not keep:
        raise ValueError("measurement must cover a nonempty strict subset of modes")
    gamma_meas = _check_array(gamma_meas, "measurement covariance", (2 * len(measured),) * 2)
    if not validate_cm(gamma_meas).valid:
        raise ValueError("measurement covariance is unphysical")
    ia, ib = _mode_indices(keep), _mode_indices(measured)
    cm_aa = state.cm[np.ix_(ia, ia)]
    cm_ab = state.cm[np.ix_(ia, ib)]
    cm_bb = state.cm[np.ix_(ib, ib)]
    lam, vec = np.linalg.eigh(cm_bb + gamma_meas)  # positive definite: lam[-1] / lam[0] is its condition number
    if lam[-1] > 1e12 * lam[0]:  # kappa is scale-free, so a fixed bound is relative: eps kappa stays below 2.3e-4
        raise ValueError("measured block plus outcome covariance is ill-conditioned")
    gain = cm_ab @ ((vec / lam) @ vec.T)
    cm_new = cm_aa - gain @ cm_ab.T
    d_new = state.displacement[ia] + gain @ (np.zeros(ib.size) - state.displacement[ib])
    return GaussianState(d_new, 0.5 * (cm_new + cm_new.T))


def fock_number_state(n: int, dim: int) -> FockDensity:
    """|n><n| in dim levels; ValueError unless 0 <= n < dim are integers and dim^2 passes :func:`_check_entries`."""
    dim = _check_int(dim, "truncation dim", 1)
    _check_entries(dim * dim, f"one-mode density at dim {dim}")
    n = _check_int(n, "photon number", 0, dim - 1)
    return FockDensity(np.diag(np.eye(1, dim, n)[0]), dim=dim)


def fock_thermal(nbar: float, dim: int) -> FockDensity:
    """Thermal state in dim levels, not renormalised; nbar passes :func:`_check_real`, dim^2 :func:`_check_entries`."""
    nbar = _check_real(nbar, "mean photon number", 0.0)
    dim = _check_int(dim, "truncation dim", 1)
    _check_entries(dim * dim, f"one-mode density at dim {dim}")
    x = nbar / (nbar + 1.0)
    return FockDensity(np.diag((1.0 - x) * x ** np.arange(dim)), dim=dim)


def fock_from_gaussian(state: GaussianState, dim: int) -> FockDensity:
    """Fock density of an N-mode Gaussian state, dim levels per mode, mode 1 most significant.

    rho_0 = c and rho_{k+e_i} = (b_i rho_k + sum_j A_ij sqrt(k_j) rho_{k-e_j}) / sqrt(k_i + 1), one
    axis of k = (m_1..m_N, n_1..n_N) at a time.  ValueError, before any allocation, unless ``state`` is a
    GaussianState, dim >= 1 is an integer and dim^(2N) passes :func:`_check_entries`.
    """
    state = _gaussian(state, "fock_from_gaussian")
    n, dim = state.n_modes, _check_int(dim, "truncation dim", 1)
    _check_entries(dim ** (2 * n), f"Fock conversion at dim {dim} for {n} modes")
    # Bargmann data (A, b, c) in the order (a_1..a_N, a_1*..a_N*); W is unitary, so sigma^-1 =
    # W (cm + I/2)^-1 W^dag.  One real eigh of cm + I/2 (validation has loaded that LAPACK code) gives its
    # inverse and determinant; einsum stands in for a complex @, whose BLAS code no other Fock step loads.
    w = np.kron(np.eye(n), [[1.0, 1j], [1.0, -1j]])[np.r_[0 : 2 * n : 2, 1 : 2 * n : 2]] / math.sqrt(2.0)
    lam, vec = np.linalg.eigh(state.cm + 0.5 * np.eye(2 * n))
    inv = np.einsum("ia,ab,jb->ij", w, (vec / lam) @ vec.T, w.conj())
    a = np.roll(np.eye(2 * n) - inv, n, axis=0).conj()  # X (I - sigma^-1)*
    gamma = w @ state.displacement
    b = inv @ gamma
    mat = np.zeros((dim**n, dim**n), dtype=complex)
    rho = mat.reshape((dim,) * (2 * n))  # a view: the recurrence fills mat in place
    rho[(0,) * (2 * n)] = math.exp(-0.5 * np.real(gamma.conj() @ b)) / math.sqrt(np.prod(lam))
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
    return FockDensity(_Fresh(mat), dim=dim, n_modes=n)


def fock_moments(rho: FockDensity):
    """First and second quadrature moments (d, cm) of an N-mode density rho / Tr rho.

    An X sending |k> to c(k) |k + s> (flat basis index k) has Tr(rho X) = sum_k c(k) rho[k, k + s], one weighted
    sum over a shifted diagonal: O(dim^N) per moment and no dim^N x dim^N temporary.  c(k) is zero where X leaves
    the truncation, which also drops the entries where the offset carries into another mode's digit."""
    n, dim, mat, tr = _density(rho, "fock_moments").n_modes, rho.dim, rho.matrix, rho.trace
    occ = np.indices((dim,) * n).reshape(n, -1)  # occ[i, k]: photons in mode i of basis state k
    root, stride = np.sqrt(occ), dim ** np.arange(n - 1, -1, -1)

    def mean(offset, weight):  # Tr(rho X) / Tr(rho) for X |k> = weight[k] |k + offset>
        lo = max(0, -offset)
        return np.einsum("k,k->", np.diagonal(mat, offset), weight[lo : lo + len(mat) - abs(offset)]) / tr

    a = np.array([mean(-stride[j], root[j]) for j in range(n)])
    aa, ada = np.empty((n, n), dtype=complex), np.empty((n, n), dtype=complex)
    for i, j in np.ndindex(n, n):
        left = occ[i] - (i == j)  # photons in mode i once a_j has acted
        aa[i, j] = mean(-stride[i] - stride[j], root[j] * np.sqrt(np.maximum(left, 0)))
        ada[i, j] = mean(stride[i] - stride[j], root[j] * np.sqrt(left + 1.0) * (left + 1 < dim))
    # Block (i, j) of cm is [[Re(N + A), Im(N + A)], [Im(A - N), Re(N - A)]] for the central A = <a_i a_j> and
    # N = <a_i^dag a_j>: the real form of conj(N) plus that of conj(A) with its p rows negated.
    ada, aa = ada - np.outer(a.conj(), a), aa - np.outer(a, a)
    cm = _real_form(np.conj(ada)) + np.tile([1.0, -1.0], n)[:, None] * _real_form(np.conj(aa))
    return math.sqrt(2.0) * np.column_stack([a.real, a.imag]).reshape(-1), 0.5 * (cm + cm.T) + 0.5 * np.eye(2 * n)


def _check_leak(rho: FockDensity) -> None:
    """ValueError naming the leak if |1 - trace| exceeds LEAK_TOL, read at each call: the one rule for a density, and
    the one refusal of anything else: every state reader sends here what is not a GaussianState."""
    if not isinstance(rho, FockDensity):
        raise ValueError(f"expected a GaussianState or FockDensity, got {type(rho).__name__}")
    leak = abs(1.0 - rho.trace)
    if leak > LEAK_TOL:
        raise ValueError(f"truncation leak {leak:.3e} exceeds tolerance {LEAK_TOL:.1e}")


def _fock_entropy(rho: FockDensity) -> float:
    """Entropy of rho / Tr rho; ValueError if :func:`_check_leak` refuses rho or an eigenvalue of rho / Tr rho lies
    below -1e3 D eps (D = dim^N), which no density allows."""
    _check_leak(rho)
    # The real form of rho holds each eigenvalue twice; a real solver keeps complex LAPACK out of the process.
    evals = np.linalg.eigvalsh(_real_form(rho.matrix))[0::2] / rho.trace
    if evals[0] < -1e3 * evals.size * np.finfo(float).eps:
        raise ValueError(f"density eigenvalue {evals[0]:.3e} is below -1e3 D eps: rho is not positive semidefinite")
    evals = np.clip(evals, 0.0, None)
    return float(-np.sum(evals * np.log(np.where(evals == 0.0, 1.0, evals))))  # 0 ln 0 = 0


def fock_single_mode_activity(rho: FockDensity) -> float:
    """``local_activity(rho).value`` of a single-mode density."""
    from .activity import local_activity
    if _density(rho, "fock_single_mode_activity").n_modes != 1:
        raise ValueError("single-mode activity requires a single-mode density")
    return local_activity(rho).value


def fock_postselect_demo(dim: int = 8):
    """Send |1, 1> through a 50:50 beam splitter and keep vacuum on arm two.

    Photon number is conserved, so the only amplitude into |m1, 0> is
    <2, 0|U|1, 1> = B_2[2, 1], read from the last block of :func:`_bs_blocks` once
    :func:`_unitarity_residual` has passed it.  Returns the
    conditional output |2>, the success probability B_2[2, 1]^2 = 1/2, and
    the activity gain A(output) - A(|1>), which is g(5/2) - g(3/2).  ``dim``
    must be an integer of at least 3, so that the truncation holds |2> (:func:`_check_int`).
    """
    from .activity import local_activity
    dim = _check_int(dim, "truncation dim", 3)
    eta = 1.0 / math.sqrt(2.0)
    *_, block = _bs_blocks(eta, 2)
    _unitarity_residual(block, eta)
    output = fock_number_state(2, dim)
    gain = local_activity(output).value - local_activity(fock_number_state(1, dim)).value
    return output, float(block[2, 1]) ** 2, gain
