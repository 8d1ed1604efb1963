"""Free covariance matrices: thermal products under linear interferometers.

A covariance matrix is free when it equals O @ diag(nu_1, nu_1, ...) @ O.T
for an orthosymplectic O and nu_i >= 1/2.  Equivalently (and this is the
authoritative test) its trace equals its symplectic trace.  The necessary
structural form -- diagonal 2x2 blocks proportional to the identity,
off-diagonal blocks R with R R^T prop. to I and R omega R^T prop. to omega
-- is reported separately: it is not sufficient (the two-mode squeezed
covariance satisfies it with a negative omega constant yet is not free).
"""

from dataclasses import dataclass

import numpy as np

from .symplectic import is_orthosymplectic, require_valid_cm

TOL_FREE = 1e-8

_OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class FreeCovariance:
    """A free covariance matrix together with its generating witness."""

    cm: np.ndarray
    passive: np.ndarray
    nu: np.ndarray


def free_cm(nu, passive=None) -> FreeCovariance:
    """Build O @ (direct sum of nu_i I_2) @ O.T from thermal occupancies.

    Args:
        nu: symplectic eigenvalues, all >= 1/2.
        passive: orthosymplectic matrix; identity when omitted.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if np.any(nu < 0.5):
        raise ValueError(f"thermal symplectic eigenvalues must be >= 1/2, got min {nu.min()}")
    if passive is None:
        passive = np.eye(2 * nu.size)
    passive = np.asarray(passive, dtype=float)
    if passive.shape != (2 * nu.size, 2 * nu.size):
        raise ValueError("passive matrix dimension does not match number of modes")
    if not is_orthosymplectic(passive):
        raise ValueError("passive matrix is not orthogonal symplectic")
    cm = passive @ np.diag(np.repeat(nu, 2)) @ passive.T
    return FreeCovariance(cm=0.5 * (cm + cm.T), passive=passive, nu=nu)


@dataclass(frozen=True)
class FreenessReport:
    spectral_free: bool
    structural_form: bool
    gap: float


def _proportional_to(mat: np.ndarray, target: np.ndarray, tol: float) -> bool:
    scale = float(np.sum(mat * target) / np.sum(target * target))
    return bool(np.linalg.norm(mat - scale * target) < tol)


def is_free_cm(cm: np.ndarray, tol_free: float = TOL_FREE) -> FreenessReport:
    """Test freeness of a covariance matrix.

    ``spectral_free`` compares trace against symplectic trace (scale-relative
    tolerance); ``structural_form`` checks the block structure, a necessary
    condition only.
    """
    cm = np.asarray(cm, dtype=float)
    trace = float(np.trace(cm))
    gap = trace - 2.0 * float(np.sum(require_valid_cm(cm).nu))
    tol_eff = tol_free * max(1.0, trace)
    spectral = bool(gap < tol_eff)

    n = cm.shape[0] // 2
    blocks = cm.reshape(n, 2, n, 2).swapaxes(1, 2)
    pairs = (blocks[i, j] for i, j in zip(*np.triu_indices(n, 1)))
    eye2 = np.eye(2)
    structural = all(_proportional_to(blocks[i, i], eye2, tol_eff) for i in range(n)) and all(
        _proportional_to(r @ r.T, eye2, tol_eff) and _proportional_to(r @ _OMEGA2 @ r.T, _OMEGA2, tol_eff)
        for r in pairs
    )
    return FreenessReport(spectral_free=spectral, structural_form=structural, gap=gap)


def convex_combine(weights, cms) -> np.ndarray:
    """Convex mixture of covariance matrices; free inputs give a free output."""
    weights = np.asarray(weights, dtype=float)
    cms = [np.asarray(c, dtype=float) for c in cms]
    if weights.size != len(cms):
        raise ValueError("one weight per covariance matrix required")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights must be nonnegative and sum to 1, got sum {weights.sum()!r}")
    shape = cms[0].shape
    if any(c.shape != shape for c in cms):
        raise ValueError("covariance matrices must share the same dimension")
    out = np.zeros(shape)
    for p, c in zip(weights, cms):
        out += p * c
    return out
