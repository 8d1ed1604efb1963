"""Gaussian states and the state-level functionals built on them.

A Gaussian state is a displacement vector of length 2N together with a
2N x 2N covariance matrix in (q1, p1, ..., qN, pN) ordering.  Displacement
uses the convention d = sqrt(2) * (Re alpha, Im alpha) so that a coherent
state of amplitude alpha carries |alpha|^2 mean photons.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .symplectic import _check_int, _check_magnitude, _congruence, is_symplectic, require_valid_cm, rotation


def _check_nbar(nbar, label: str) -> None:
    """ValueError naming ``label`` unless the mean photon number ``nbar`` is finite and nonnegative."""
    if not 0.0 <= nbar < math.inf:
        raise ValueError(f"{label} must be finite and nonnegative, got {nbar}")


def _check_squeezing(r, phi=0.0) -> None:
    """ValueError unless ``phi`` is finite and so is e^{4|r|}, the scale of the squared covariance entries."""
    if not (abs(r) <= 177.0 and math.isfinite(phi)):
        raise ValueError(f"squeezing must be finite with |r| <= 177, got r = {r}" + (f", phi = {phi}" if phi else ""))


def thermal_entropy(nu):
    """Entropy g(nu) of a thermal mode with symplectic eigenvalue ``nu``.

    g = (x + 1) ln(x + 1) - x ln x with x = nu - 1/2, evaluated as
    log1p(x) + x log1p(1/x): the two terms of the first form grow as x ln x
    and cancel, losing every digit by x = 1e20.  g = 0 at x = 0, and nu
    below 1/2 reads 1/2.  Accepts scalars or arrays.
    """
    x = np.maximum(np.asarray(nu, dtype=float) - 0.5, 0.0)
    out = np.log1p(x) + x * np.log1p(1.0 / np.maximum(x, 1e-300))  # 1e-300 stands in for x = 0 only: nu - 1/2 >= 2^-53
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Immutable Gaussian state: displacement vector plus covariance matrix.

    Functionals read the symplectic spectrum kept from validation."""

    displacement: np.ndarray
    cm: np.ndarray
    _spectrum: tuple = field(init=False, repr=False)

    def __post_init__(self):
        d = np.array(self.displacement, dtype=float)
        if d.ndim != 1:
            raise ValueError(f"displacement vector must have rank 1, got shape {d.shape}")
        cm = np.array(self.cm, dtype=float)
        if not np.all(np.isfinite(d)):
            raise ValueError("displacement vector must be finite")
        spec = require_valid_cm(cm)
        if d.size != cm.shape[0]:
            raise ValueError(f"displacement length {d.size} does not match matrix dimension {cm.shape[0]}")
        _check_magnitude(d, "displacement vector")
        for arr in (d, cm, spec.root, spec.nu):
            arr.setflags(write=False)
        object.__setattr__(self, "displacement", d)
        object.__setattr__(self, "cm", cm)
        object.__setattr__(self, "_spectrum", spec)

    @property
    def n_modes(self) -> int:
        return self.cm.shape[0] // 2


def vacuum(n_modes: int = 1) -> GaussianState:
    n_modes = _check_int(n_modes, "number of modes", 1)
    return GaussianState(np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))


def thermal(nbar: float) -> GaussianState:
    _check_nbar(nbar, "mean photon number")
    return GaussianState(np.zeros(2), (nbar + 0.5) * np.eye(2))


def coherent(alpha: complex) -> GaussianState:
    alpha = complex(alpha)
    d = math.sqrt(2.0) * np.array([alpha.real, alpha.imag])
    return GaussianState(d, 0.5 * np.eye(2))


def squeezed(r: float, phi: float = 0.0) -> GaussianState:
    """Squeezed vacuum; for phi = 0 the q variance is e^{2r}/2."""
    _check_squeezing(r, phi)
    cm = 0.5 * np.diag([np.exp(2 * r), np.exp(-2 * r)])
    if phi != 0.0:
        rot = rotation(phi)
        cm = rot @ cm @ rot.T
    return GaussianState(np.zeros(2), cm)


def two_mode_squeezed(r: float) -> GaussianState:
    _check_squeezing(r)
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    z = np.diag([1.0, -1.0])
    cm = 0.5 * np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
    return GaussianState(np.zeros(4), cm)


def energy(state) -> float:
    """Mean energy (Tr cm + |d|^2) / 2 of a GaussianState or FockDensity, read from its moments."""
    g = _moments(state)
    return 0.5 * float(np.trace(g.cm) + g.displacement @ g.displacement)


def mean_photon_numbers(state) -> np.ndarray:
    """Per-mode mean photon numbers, displacement included, of a GaussianState or FockDensity."""
    g = _moments(state)
    diag = np.diag(g.cm)
    d2 = g.displacement**2
    return 0.5 * (diag[0::2] + diag[1::2] + d2[0::2] + d2[1::2]) - 0.5


def _gaussian(state, op: str) -> GaussianState:
    """``state`` as it is if it is a GaussianState: the one gate of every operation that needs a Gaussian state, as
    :func:`_moments` is of every moment reader; ValueError naming ``op`` and the type for a FockDensity or a matrix."""
    if not isinstance(state, GaussianState):
        raise ValueError(f"{op} takes a GaussianState, got {type(state).__name__}")
    return state


def apply_gaussian_unitary(state: GaussianState, s: np.ndarray, shift=None) -> GaussianState:
    """The Gaussian unitary (s, shift) on a GaussianState: d -> s d + shift, cm -> s cm s^T; s must be symplectic."""
    state = _gaussian(state, "apply_gaussian_unitary")
    s = np.asarray(s, dtype=float)
    if s.shape != state.cm.shape:
        raise ValueError(f"symplectic matrix shape {s.shape} does not match state dimension {state.cm.shape}")
    if not is_symplectic(s):
        raise ValueError("matrix is not symplectic within tolerance")
    shift = np.zeros(s.shape[0]) if shift is None else np.asarray(shift, dtype=float)
    if shift.shape != (s.shape[0],):
        raise ValueError(f"shift vector must have shape ({s.shape[0]},), got {shift.shape}")
    cm = s @ state.cm @ s.T
    return GaussianState(s @ state.displacement + shift, 0.5 * (cm + cm.T))


def tensor(states) -> GaussianState:
    """Product state of GaussianStates, modes in the given order; ValueError for an empty list or any other element."""
    states = [_gaussian(s, "tensor") for s in states]
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


def _modes(n_modes: int, modes) -> list:
    """Sorted distinct mode indices; ValueError unless each is an integer in 0..n_modes - 1 (:func:`_check_int`)."""
    return sorted({_check_int(m, "mode index", 0, n_modes - 1) for m in modes})


def _mode_indices(modes) -> np.ndarray:
    """Quadrature indices (2m, 2m + 1) of each mode m, in the given order."""
    return (2 * np.asarray(modes, dtype=int).reshape(-1, 1) + [0, 1]).ravel()


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced GaussianState on the ``keep`` modes (principal submatrix); ValueError for any other state."""
    keep = _modes(_gaussian(state, "partial_trace").n_modes, keep)
    if not keep:
        raise ValueError("must keep at least one mode")
    idx = _mode_indices(keep)
    return GaussianState(state.displacement[idx], state.cm[np.ix_(idx, idx)])


def _moments(state) -> GaussianState:
    """The GaussianState with the moments of ``state``: a GaussianState as it is, a FockDensity as
    GaussianState(*fock_moments(rho)) once ``fock._check_leak`` passes it (the Fock layer loads only then); anything
    else, a bare matrix too, is refused there.  The core's :func:`williamson` and :func:`is_free_cm` read it too."""
    if isinstance(state, GaussianState):
        return state
    from .fock import _check_leak, fock_moments
    _check_leak(state)
    return GaussianState(*fock_moments(state))


def von_neumann_entropy(state) -> float:
    """Entropy in nats: sum_k g(nu_k) of a GaussianState, or that of rho / Tr rho of a FockDensity."""
    if isinstance(state, GaussianState):
        return float(np.sum(thermal_entropy(state._spectrum.nu)))
    from .fock import _fock_entropy
    return _fock_entropy(state)


def relative_entropy(rho, sigma: GaussianState) -> float:
    """S(rho || sigma) in nats; sigma is a GaussianState, rho a GaussianState or a FockDensity read by its moments.

    -S(rho) + sum over sigma's mixed modes (nu_k - 1/2 above the rounding of nu) of g(nu_k) + beta_k dn_k, dn_k the
    photons rho adds to mode k: -S(rho) + [sum ln(nu_k^2 - 1/4) + Tr(M G)] / 2 for M = cm_rho + delta delta^T.  +inf
    when rho adds more than their rounding to a pure mode; a Gaussian rho exactly equal to sigma gives 0.0."""
    sigma = _gaussian(sigma, "relative_entropy sigma")
    g = _moments(rho)
    if g.n_modes != sigma.n_modes:
        raise ValueError("states must have the same number of modes")
    if g is rho and np.array_equal(g.displacement, sigma.displacement) and np.array_equal(g.cm, sigma.cm):
        return 0.0  # a Gaussian rho: a density with sigma's moments need not be sigma
    second = g.cm + np.outer(g.displacement - sigma.displacement, g.displacement - sigma.displacement)
    # One SVD of sigma's K gives t with t diag(w) t^T = -Omega S diag(w) S^T Omega; a mode is mixed where
    # x = nu - 1/2 > spec.err, and beta = 2 arccoth(2 nu) = log1p(1 / x) there (arctanh loses digits), else 0.
    spec = sigma._spectrum
    x = np.repeat(spec.nu, 2) - 0.5
    mixed = x > spec.err
    beta = np.where(mixed, np.log1p(1.0 / np.where(mixed, x, 1.0)), 0.0)
    t = _congruence(spec)
    t[0::2], t[1::2] = -t[1::2], t[0::2].copy()  # t = -Omega F by a row swap: the sign drops out of t diag(w) t^T
    excess = (second - sigma.cm) @ t
    excess = 0.5 * np.multiply(excess, t, out=excess).sum(axis=0)  # per column: a mode's two sum to its dn_k
    if not mixed.all():
        # A pure column's excess rounds off by up to n eps |t|^2 Tr(M + cm_sigma), n = 2N; where it is 0 it reached
        # 0.075 of that (README "Numerical range"), so a factor 4 leaves a margin of over 50.
        slack = 4.0 * len(t) * np.finfo(float).eps * np.trace(second + sigma.cm) * (t * t).sum(axis=0)
        if np.any((excess > slack) & ~mixed):
            return math.inf
    return float(thermal_entropy(spec.nu) @ mixed[::2] + beta @ excess) - von_neumann_entropy(rho)


def _bipartition(n_modes: int, modes_a, modes_b=None):
    """Sorted mode lists of a bipartition; ``modes_b`` defaults to the complement."""
    modes_a = _modes(n_modes, modes_a)
    modes_b = [m for m in range(n_modes) if m not in modes_a] if modes_b is None else _modes(n_modes, modes_b)
    if set(modes_a) & set(modes_b):
        raise ValueError("bipartition blocks overlap")
    if len(modes_a) + len(modes_b) != n_modes:
        raise ValueError("bipartition must cover all modes")
    return modes_a, modes_b


def mutual_information(state: GaussianState, modes_a, modes_b=None) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) of a GaussianState across a bipartition."""
    modes_a, modes_b = _bipartition(_gaussian(state, "mutual_information").n_modes, modes_a, modes_b)
    sa = von_neumann_entropy(partial_trace(state, modes_a))
    sb = von_neumann_entropy(partial_trace(state, modes_b))
    return sa + sb - von_neumann_entropy(state)
