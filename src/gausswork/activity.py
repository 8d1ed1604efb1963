"""Relative entropy of local activity for Gaussian states.

The monotone is the minimum relative entropy from a state to the free set
(thermal products under linear interferometers).  For a fixed passive
unitary U the optimal thermal occupancies are the photon numbers of the
interferometer-conjugated state, the diagonal of U^T M U^* with M the
mode-overlap matrix plus I/2, so A = -S(rho) + min_U sum_i g(diag_i).
The diagonal of a Hermitian matrix is majorised by its spectrum
(Schur-Horn) and g is concave, so the sum is Schur-concave and is
minimised at the eigenbasis of M:

    A(rho) = -S(rho) + sum_i g(lambda_i(M)).

One real eigendecomposition gives the value and the closest free state
for every mode count; the eigen-residual certifies it.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .free import FreeCovariance, free_cm
from .states import (
    GaussianState,
    _bipartition,
    mean_photon_numbers,
    mutual_information,
    partial_trace,
    thermal_entropy,
    von_neumann_entropy,
)
from .symplectic import TOL_PHYS, _canonical_pairs, _real_form, symplectic_form


@dataclass(frozen=True, eq=False)
class ActivityReport:
    value: float
    closest_free: Optional[FreeCovariance] = None
    params: dict = field(default_factory=dict)
    certified: bool = True


def photon_overlap_matrix(state: GaussianState) -> np.ndarray:
    """Hermitian N x N matrix of mode overlaps <a_i^dag a_j>, displacement included."""
    cm, d = state.cm, state.displacement
    qq = cm[0::2, 0::2]
    pp = cm[1::2, 1::2]
    qp = cm[0::2, 1::2]
    pq = cm[1::2, 0::2]
    amp = (d[0::2] + 1j * d[1::2]) / math.sqrt(2.0)
    n = state.n_modes
    return 0.5 * (qq + pp + 1j * (qp - pq)) - 0.5 * np.eye(n) + np.outer(np.conj(amp), amp)


def local_activity(state: GaussianState) -> ActivityReport:
    """Activity -S + sum_i g(lambda_i) from the spectrum of M = overlap + I/2.

    One real ``eigh`` of the 2N x 2N real form of conj(M), which holds each
    eigenvalue of M twice, gives the occupancies; its eigenvectors, paired
    as (Omega b, b) by :func:`_canonical_pairs`, are the columns of the
    orthosymplectic witness O.  ``params`` holds the occupancies ``b``
    (eigenvalues of M, descending), the optimal ``unitary`` (read from O,
    which is its orthosymplectic image) and ``eig_residual`` = ||M_r O - O
    diag(b)|| for the real form M_r; two-mode states also report the
    beam-splitter angle ``theta`` and relative phase ``delta_phi``.  The
    report is certified when the residual is within 1e3 n eps max(1, ||M||).

    Raises:
        ValueError: if an eigenvalue of M lies below 1/2 - max(TOL_PHYS,
            1e3 n eps max(1, ||M||)), which no physical state allows (the
            overlap matrix is positive semidefinite); eigenvalues within
            tolerance are set to 1/2.
    """
    n = state.n_modes
    m = photon_overlap_matrix(state) + 0.5 * np.eye(n)
    m_real = _real_form(np.conj(m))
    vals, vecs = np.linalg.eigh(m_real)
    lam = vals[::-2]  # each eigenvalue of M once, descending
    # eigh rounds each eigenvalue by about eps ||M||, so the floor scales with it.
    bound = 1e3 * n * np.finfo(float).eps * max(1.0, float(lam[0]))
    if lam[-1] < 0.5 - max(TOL_PHYS, bound):
        raise ValueError(f"overlap eigenvalue {lam[-1]:.9g} falls below the vacuum floor 1/2")
    witness = _canonical_pairs(vecs[:, ::-1], symplectic_form(n))
    residual = float(np.linalg.norm(m_real @ witness - witness * np.repeat(lam, 2)))
    certified = bool(residual <= bound)
    b = np.maximum(lam, 0.5)
    unitary = witness[0::2, 0::2] + 1j * witness[1::2, 0::2]
    params = {"b": b, "unitary": unitary, "eig_residual": residual}
    if n == 2:
        params["theta"] = -0.5 * math.atan2(2.0 * abs(m[0, 1]), float(m[0, 0].real - m[1, 1].real))
        params["delta_phi"] = float(np.angle(m[0, 1]))
    return ActivityReport(
        value=float(np.sum(thermal_entropy(b))) - von_neumann_entropy(state),
        closest_free=free_cm(b, witness),
        params=params,
        certified=certified,
    )


def gaussian_coherence(state: GaussianState) -> float:
    """Relative entropy of coherence sum_i [g(n_i + 1/2) - g(nu_i)].

    Coincides with the activity for one mode and upper-bounds it in general.
    """
    occ = mean_photon_numbers(state) + 0.5
    return float(np.sum(thermal_entropy(occ)) - np.sum(thermal_entropy(state._spectrum.nu)))


def preset_activity(kind: str, value) -> float:
    """Closed-form activity of the standard resource states.

    fock(n) -> g(n + 1/2); squeezed(r) -> g(sinh^2 r + 1/2);
    coherent(alpha) -> g(|alpha|^2 + 1/2); tms(r) -> 2 g(sinh^2 r + 1/2).
    """
    if kind == "fock":
        n = int(value)
        if n < 0 or n != value:
            raise ValueError(f"fock preset needs a nonnegative integer, got {value!r}")
        return float(thermal_entropy(n + 0.5))
    if kind == "squeezed":
        return float(thermal_entropy(math.sinh(float(value)) ** 2 + 0.5))
    if kind == "coherent":
        return float(thermal_entropy(abs(complex(value)) ** 2 + 0.5))
    if kind == "tms":
        return float(2.0 * thermal_entropy(math.sinh(float(value)) ** 2 + 0.5))
    raise ValueError(f"unknown preset kind {kind!r}")


def relaxed_subadditivity_gap(state: GaussianState, modes_a, modes_b=None) -> float:
    """A(rho_A) + A(rho_B) + I(A:B) - A(rho_AB); nonnegative by monotonicity."""
    modes_a, modes_b = _bipartition(state.n_modes, modes_a, modes_b)
    part_a = local_activity(partial_trace(state, modes_a)).value
    part_b = local_activity(partial_trace(state, modes_b)).value
    joint = local_activity(state).value
    return part_a + part_b + mutual_information(state, modes_a, modes_b) - joint
