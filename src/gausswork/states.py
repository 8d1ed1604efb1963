"""Gaussian states and the state-level functionals built on them.

A Gaussian state is a displacement vector of length 2N together with a
2N x 2N covariance matrix in (q1, p1, ..., qN, pN) ordering.  Displacement
uses the convention d = sqrt(2) * (Re alpha, Im alpha) so that a coherent
state of amplitude alpha carries |alpha|^2 mean photons.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .symplectic import _skew, _spectrum, require_valid_cm, rotation, symplectic_form

EPS_PURE = 1e-8


def _xlogx(x):
    """Elementwise x ln x with 0 ln 0 = 0."""
    x = np.asarray(x, dtype=float)
    return x * np.log(np.where(x == 0.0, 1.0, x))


def thermal_entropy(nu):
    """Entropy g(nu) of a thermal mode with symplectic eigenvalue ``nu``.

    g(y) = (y + 1/2) ln(y + 1/2) - (y - 1/2) ln(y - 1/2), with the
    continuous limit g(1/2) = 0.  Accepts scalars or arrays.
    """
    nu = np.asarray(nu, dtype=float)
    hi = nu + 0.5
    lo = np.maximum(nu - 0.5, 0.0)
    out = _xlogx(hi) - _xlogx(lo)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Immutable Gaussian state: displacement vector plus covariance matrix.

    Functionals read the symplectic spectrum kept from validation."""

    displacement: np.ndarray
    cm: np.ndarray
    _spectrum: tuple = field(init=False, repr=False)

    def __post_init__(self):
        d = np.array(self.displacement, dtype=float).reshape(-1)
        cm = np.array(self.cm, dtype=float)
        if not np.all(np.isfinite(d)):
            raise ValueError("displacement vector must be finite")
        spec = require_valid_cm(cm)
        if d.size != cm.shape[0]:
            raise ValueError(f"displacement length {d.size} does not match matrix dimension {cm.shape[0]}")
        for arr in (d, cm, spec.root, spec.nu):
            arr.setflags(write=False)
        object.__setattr__(self, "displacement", d)
        object.__setattr__(self, "cm", cm)
        object.__setattr__(self, "_spectrum", spec)

    @property
    def n_modes(self) -> int:
        return self.cm.shape[0] // 2


def vacuum(n_modes: int = 1) -> GaussianState:
    return GaussianState(np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))


def thermal(nbar: float) -> GaussianState:
    if nbar < 0:
        raise ValueError(f"mean photon number must be nonnegative, got {nbar}")
    return GaussianState(np.zeros(2), (nbar + 0.5) * np.eye(2))


def coherent(alpha: complex) -> GaussianState:
    alpha = complex(alpha)
    d = math.sqrt(2.0) * np.array([alpha.real, alpha.imag])
    return GaussianState(d, 0.5 * np.eye(2))


def squeezed(r: float, phi: float = 0.0) -> GaussianState:
    """Squeezed vacuum; for phi = 0 the q variance is e^{2r}/2."""
    cm = 0.5 * np.diag([np.exp(2 * r), np.exp(-2 * r)])
    if phi != 0.0:
        rot = rotation(phi)
        cm = rot @ cm @ rot.T
    return GaussianState(np.zeros(2), cm)


def two_mode_squeezed(r: float) -> GaussianState:
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    z = np.diag([1.0, -1.0])
    cm = 0.5 * np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
    return GaussianState(np.zeros(4), cm)


_PRESETS = {
    "vacuum": lambda modes=1: vacuum(int(modes)),
    "thermal": lambda nbar: thermal(float(nbar)),
    "coherent": lambda alpha: coherent(alpha),
    "squeezed": lambda r, phi=0.0: squeezed(float(r), float(phi)),
    "tms": lambda r: two_mode_squeezed(float(r)),
}


def make_state(kind: str, **params) -> GaussianState:
    """Build a preset Gaussian state (vacuum, thermal, coherent, squeezed, tms)."""
    try:
        factory = _PRESETS[kind]
    except KeyError:
        raise ValueError(f"unknown state preset {kind!r}; choose from {sorted(_PRESETS)}") from None
    return factory(**params)


def energy(state: GaussianState) -> float:
    """Mean energy (Tr cm + |d|^2) / 2; valid for any state, Gaussian or not."""
    return 0.5 * float(np.trace(state.cm) + state.displacement @ state.displacement)


def mean_photon_numbers(state: GaussianState) -> np.ndarray:
    """Per-mode mean photon numbers, displacement included."""
    diag = np.diag(state.cm)
    d2 = state.displacement**2
    per_mode = diag[0::2] + diag[1::2] + d2[0::2] + d2[1::2]
    return 0.5 * per_mode - 0.5


def apply_gaussian_unitary(state: GaussianState, s: np.ndarray, shift=None) -> GaussianState:
    """Act with the Gaussian unitary (s, shift): d -> s d + shift, cm -> s cm s^T."""
    s = np.asarray(s, dtype=float)
    if s.shape != state.cm.shape:
        raise ValueError(f"symplectic matrix shape {s.shape} does not match state dimension {state.cm.shape}")
    if shift is None:
        shift = np.zeros(s.shape[0])
    shift = np.asarray(shift, dtype=float).reshape(-1)
    if shift.size != s.shape[0]:
        raise ValueError("shift vector has wrong length")
    cm = s @ state.cm @ s.T
    return GaussianState(s @ state.displacement + shift, 0.5 * (cm + cm.T))


def tensor(states) -> GaussianState:
    states = list(states)
    if not states:
        raise ValueError("tensor requires at least one state")
    dim = sum(2 * s.n_modes for s in states)
    d = np.concatenate([s.displacement for s in states])
    cm = np.zeros((dim, dim))
    at = 0
    for s in states:
        k = 2 * s.n_modes
        cm[at : at + k, at : at + k] = s.cm
        at += k
    return GaussianState(d, cm)


def _mode_indices(modes) -> np.ndarray:
    modes = sorted(set(int(m) for m in modes))
    idx = np.empty(2 * len(modes), dtype=int)
    idx[0::2] = [2 * m for m in modes]
    idx[1::2] = [2 * m + 1 for m in modes]
    return idx


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced state on the ``keep`` modes (principal submatrix)."""
    keep = sorted(set(int(m) for m in keep))
    if not keep:
        raise ValueError("must keep at least one mode")
    if keep[0] < 0 or keep[-1] >= state.n_modes:
        raise ValueError(f"mode indices {keep} out of range for {state.n_modes} modes")
    idx = _mode_indices(keep)
    return GaussianState(state.displacement[idx], state.cm[np.ix_(idx, idx)])


def von_neumann_entropy(state: GaussianState) -> float:
    """Entropy sum_k g(nu_k) in nats."""
    return float(np.sum(thermal_entropy(state._spectrum.nu)))


def _gibbs(spec) -> np.ndarray:
    """Gibbs matrix -Omega S diag(2 arccoth(2 nu_k) I_2) S^T Omega of a spectrum with every nu > 1/2.

    S = cm^{1/2} Q diag(nu^{-1/2}) with Q orthogonal and Q^T K^T K Q = diag(nu^2), K = cm^{1/2}
    Omega cm^{1/2} (see :func:`williamson`), so S diag(f(nu)) S^T = cm^{1/2} h(K^T K) cm^{1/2} with
    h(nu^2) = f(nu) / nu.  A matrix function does not depend on the basis chosen inside a
    degenerate eigenspace, so the SVD K = U diag(sigma) V^T gives it as V h(sigma^2) V^T without
    canonical pairs.  The singular values carry an absolute error of about eps nu_max, where the
    eigenvalues of K^T K would carry eps nu_max^2.
    """
    _, sv, vt = np.linalg.svd(_skew(spec.root))
    sv = np.maximum(sv, spec.nu[-1])  # each singular value is some nu_k up to rounding
    core = spec.root @ ((vt.T * (2.0 * np.arctanh(0.5 / sv) / sv)) @ vt) @ spec.root
    omega = symplectic_form(spec.nu.size)
    return -omega @ core @ omega


def gibbs_matrix(cm: np.ndarray) -> np.ndarray:
    """Exponent matrix G of the Gaussian state rho ~ exp(-x^T G x / 2).

    G = -Omega S (+2 arccoth(2 nu_k) I_2) S^T Omega for the Williamson factor S, evaluated
    without forming S; diverges as any nu -> 1/2.
    """
    spec = _spectrum(np.asarray(cm, dtype=float))
    if np.any(spec.nu <= 0.5):
        raise ValueError("gibbs matrix undefined for pure symplectic eigenvalues")
    return _gibbs(spec)


def relative_entropy(rho: GaussianState, sigma: GaussianState) -> float:
    """Relative entropy S(rho || sigma) between Gaussian states, in nats.

    Returns +inf when sigma has a symplectic eigenvalue within EPS_PURE
    of 1/2 (support mismatch), unless the two states are exactly equal.
    The spectrum sigma kept from validation gives both that check and the
    Gibbs matrix.
    """
    if rho.n_modes != sigma.n_modes:
        raise ValueError("states must have the same number of modes")
    if np.array_equal(rho.displacement, sigma.displacement) and np.array_equal(rho.cm, sigma.cm):
        return 0.0
    spec = sigma._spectrum
    if np.any(spec.nu <= 0.5 + EPS_PURE):
        return math.inf
    g2 = _gibbs(spec)
    logdet = float(np.sum(np.log(spec.nu**2 - 0.25)))
    delta = rho.displacement - sigma.displacement
    cross = float(np.trace(rho.cm @ g2) + delta @ g2 @ delta)
    return -von_neumann_entropy(rho) + 0.5 * (logdet + cross)


def _bipartition(n_modes: int, modes_a, modes_b=None):
    """Sorted mode lists of a bipartition; ``modes_b`` defaults to the complement."""
    modes_a = sorted(set(int(m) for m in modes_a))
    if modes_b is None:
        modes_b = [m for m in range(n_modes) if m not in modes_a]
    modes_b = sorted(set(int(m) for m in modes_b))
    if set(modes_a) & set(modes_b):
        raise ValueError("bipartition blocks overlap")
    if set(modes_a) | set(modes_b) != set(range(n_modes)):
        raise ValueError("bipartition must cover all modes")
    return modes_a, modes_b


def mutual_information(state: GaussianState, modes_a, modes_b=None) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) across a bipartition."""
    modes_a, modes_b = _bipartition(state.n_modes, modes_a, modes_b)
    sa = von_neumann_entropy(partial_trace(state, modes_a))
    sb = von_neumann_entropy(partial_trace(state, modes_b))
    return sa + sb - von_neumann_entropy(state)
