"""Local Gaussian extractable work assisted with linear interferometers.

The quadratic part of the extractable work is half the gap between the
trace and the symplectic trace of the covariance matrix; the displacement
part |d|^2 / 2 is reported separately since it is extracted trivially by
local displacements.  The extraction protocol realises the maximum
constructively: undo the displacement, apply the inverse outer passive of
the Bloch-Messiah factorisation of the Williamson symplectic, then unsqueeze
each mode; what remains is a free covariance matrix.
"""

from dataclasses import dataclass

import numpy as np

from .free import TOL_FREE, FreeCovariance, is_free_cm
from .states import GaussianState, _bipartition, _mode_indices
from .symplectic import bloch_messiah, require_valid_cm, symplectic_trace, williamson


@dataclass(frozen=True)
class WorkReport:
    quadratic: float
    displacement: float
    total: float


def quadratic_work(cm: np.ndarray) -> float:
    """(Tr cm - Str cm) / 2 for a bare covariance matrix."""
    cm = require_valid_cm(cm)
    return 0.5 * (float(np.trace(cm)) - symplectic_trace(cm))


def extractable_work(state: GaussianState) -> WorkReport:
    """Maximum work from local squeezers assisted with global interferometers."""
    quad = quadratic_work(state.cm)
    disp = 0.5 * float(state.displacement @ state.displacement)
    return WorkReport(quadratic=quad, displacement=disp, total=quad + disp)


@dataclass(frozen=True, eq=False)
class ExtractionProtocol:
    """Concrete circuit attaining the extractable work.

    Steps act in order: displace by ``displacement_step``, apply the passive
    ``passive_step``, then squeeze each mode by ``squeezer_step`` (entries
    within 1e-9 of zero are omitted, i.e. stored as exact zeros).  The final
    covariance matrix is free and the realised energy drop equals the
    reported work.
    """

    displacement_step: np.ndarray
    passive_step: np.ndarray
    squeezer_step: np.ndarray
    final_cm: FreeCovariance
    work_displacement: float
    work_quadratic: float


def extraction_protocol(state: GaussianState) -> ExtractionProtocol:
    dec = williamson(state.cm)
    bm = bloch_messiah(dec.symplectic)
    squeeze = -bm.r
    squeeze[np.abs(squeeze) <= 1e-9] = 0.0
    final = bm.o_in @ np.diag(np.repeat(dec.nu, 2)) @ bm.o_in.T
    final_cm = FreeCovariance(cm=0.5 * (final + final.T), passive=bm.o_in, nu=dec.nu)
    report = extractable_work(state)
    return ExtractionProtocol(
        displacement_step=-state.displacement,
        passive_step=bm.o_out.T,
        squeezer_step=squeeze,
        final_cm=final_cm,
        work_displacement=report.displacement,
        work_quadratic=report.quadratic,
    )


def superadditivity_gap(cm: np.ndarray, modes_a, modes_b) -> float:
    """W(joint) - W(A) - W(B) for a bipartition of the modes; nonnegative."""
    cm = np.asarray(cm, dtype=float)
    modes_a, modes_b = _bipartition(cm.shape[0] // 2, modes_a, modes_b)
    ia, ib = _mode_indices(modes_a), _mode_indices(modes_b)
    return quadratic_work(cm) - quadratic_work(cm[np.ix_(ia, ia)]) - quadratic_work(cm[np.ix_(ib, ib)])


def is_work_free(cm: np.ndarray, tol: float = TOL_FREE) -> bool:
    """True when no quadratic work is extractable; matches the spectral freeness test."""
    return is_free_cm(cm, tol_free=tol).spectral_free
