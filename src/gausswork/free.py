"""Free covariance matrices: thermal products under linear interferometers.

A covariance matrix is free when it equals O @ diag(nu_1, nu_1, ...) @ O.T
for an orthosymplectic O and nu_i >= 1/2.  Equivalently (and this is the
authoritative test) its trace equals its symplectic trace, up to rounding.  The
necessary structural form -- diagonal 2x2 blocks proportional to the identity,
off-diagonal blocks R with R R^T prop. to I -- is reported separately: it is
not sufficient (the two-mode squeezed covariance satisfies it yet is not free).
With J = omega, a block B is the scaled rotation (B + J B J^T) / 2 plus the
scaled reflection (B - J B J^T) / 2.  A diagonal block must have no
reflection part, and R R^T prop. to I means that one of the two vanishes:
a test linear in the covariance, as its tolerance is.
R omega R^T prop. to omega is not tested, since it holds for every 2x2 R.
"""

from dataclasses import dataclass

import numpy as np

from .symplectic import _check_array, _cm_spectrum, is_orthosymplectic, require_valid_cm

# Over 123,000 exactly free free_cm(nu, O) (N = 1..8, nu - 1/2 in {0} and log-uniform on [1e-16, 1e9], random O,
# seeds 17-19) |Tr cm - 2 sum nu| reached 2.9 n eps Tr cm (n = 2N), so 8 leaves a margin of more than 2; the
# structural residuals reached 0.19 n eps Tr cm on 23,000 of them (seeds 17, 18).
_FREE_FACTOR = 8.0


@dataclass(frozen=True, eq=False)
class FreeCovariance:
    """A free covariance matrix together with its generating witness."""

    cm: np.ndarray
    passive: np.ndarray
    nu: np.ndarray


def free_cm(nu, passive=None) -> FreeCovariance:
    """Build O @ (direct sum of nu_i I_2) @ O.T from thermal occupancies.

    Args:
        nu: symplectic eigenvalues, a scalar or a vector, all finite and >= 1/2.
        passive: orthosymplectic matrix of matching size; identity when omitted.
    """
    nu = _check_array(nu, "thermal symplectic eigenvalues", "vector")
    if np.any(nu < 0.5):
        raise ValueError(f"thermal symplectic eigenvalues must be >= 1/2, got min {nu.min()}")
    n = 2 * nu.size
    passive = np.eye(n) if passive is None else _check_array(passive, "passive matrix", (n, n))
    if not is_orthosymplectic(passive):
        raise ValueError("passive matrix is not orthogonal symplectic")
    cm = (passive * np.repeat(nu, 2)) @ passive.T
    return FreeCovariance(cm=0.5 * (cm + cm.T), passive=passive, nu=nu)


@dataclass(frozen=True)
class FreenessReport:
    spectral_free: bool
    structural_form: bool
    gap: float


def is_free_cm(cm) -> FreenessReport:
    """Test freeness of a covariance matrix, or of any state's moments, against its own rounding.

    A matrix must pass :func:`validate_cm`; a state's moments are read with the spectrum their validation kept.
    ``spectral_free`` holds iff the gap Tr cm - 2 sum nu is at most
    tol = _FREE_FACTOR n eps Tr cm (n = 2N); ``structural_form`` checks the
    block structure, a necessary condition only, each block residual below tol.
    """
    spec = _cm_spectrum(cm, require_valid_cm)
    cm = spec.cm
    trace = float(np.trace(cm))
    gap = trace - 2.0 * float(np.sum(spec.nu))
    tol = _FREE_FACTOR * len(cm) * np.finfo(float).eps * trace
    n = cm.shape[0] // 2
    blocks = cm.reshape(n, 2, n, 2).swapaxes(1, 2)
    conj = blocks[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])  # J B J^T with J = omega
    rot = 0.5 * np.linalg.norm(blocks + conj, axis=(2, 3))
    refl = 0.5 * np.linalg.norm(blocks - conj, axis=(2, 3))
    structural = bool(np.all(np.where(np.eye(n, dtype=bool), refl, np.minimum(rot, refl)) < tol))
    return FreenessReport(spectral_free=bool(gap <= tol), structural_form=structural, gap=gap)
