"""Local Gaussian extractable work assisted with linear interferometers.

The quadratic part of the extractable work is half the gap between the
trace and the symplectic trace of the covariance matrix; the displacement
part |d|^2 / 2 is reported separately since it is extracted trivially by
local displacements.  The extraction protocol realises the maximum
constructively: undo the displacement, apply O_out^T of the Euler split S =
O_out Z(r) O_in of a Williamson factor, then unsqueeze each mode; what remains
is free.  O_out and r come from S S^T, the same for every factor: none is formed.
Both read the moments alone, which a Gaussian unitary maps alike for any state,
so a FockDensity gets those of the Gaussian state with its moments.
"""

from dataclasses import dataclass

import numpy as np

from .free import FreeCovariance, free_cm
from .states import _bipartition, _moments, partial_trace
from .symplectic import _normal_form


@dataclass(frozen=True)
class WorkReport:
    quadratic: float
    displacement: float
    total: float


def extractable_work(state) -> WorkReport:
    """Maximum work from local squeezers assisted with global interferometers, read from the state's moments."""
    g = _moments(state)
    quad = 0.5 * float(np.trace(g.cm)) - float(np.sum(g._spectrum.nu))
    disp = 0.5 * float(g.displacement @ g.displacement)
    return WorkReport(quadratic=quad, displacement=disp, total=quad + disp)


@dataclass(frozen=True, eq=False)
class ExtractionProtocol:
    """Concrete circuit attaining the extractable work.

    Steps act in order: displace by ``displacement_step``, apply the passive
    ``passive_step``, then squeeze each mode by ``squeezer_step`` (zero on passive
    pairs).  ``final_cm`` is ``free_cm(nu, O)`` with the state's nu and the witness
    O read from the steps' output, so O passes the same orthosymplectic check as
    every other free covariance; the steps reach it within tol ||cm||, tol the
    one validation reads nu with, and its energy drop equals the reported work.
    """

    displacement_step: np.ndarray
    passive_step: np.ndarray
    squeezer_step: np.ndarray
    final_cm: FreeCovariance
    work_displacement: float
    work_quadratic: float


def extraction_protocol(state) -> ExtractionProtocol:
    g = _moments(state)
    o_out, r, witness = _normal_form(g._spectrum, g.cm)  # from S S^T, the same for every Williamson factor S
    report = extractable_work(g)
    return ExtractionProtocol(
        displacement_step=-g.displacement,
        passive_step=o_out.T,
        squeezer_step=-r,
        final_cm=free_cm(g._spectrum.nu, witness),  # ValueError if the witness is not orthosymplectic
        work_displacement=report.displacement,
        work_quadratic=report.quadratic,
    )


def superadditivity_gap(state, modes_a, modes_b) -> float:
    """W(joint) - W(A) - W(B) of the quadratic work for a bipartition of the modes; nonnegative.  Read from the moments
    of any state: a part's moments are the principal submatrix of the joint ones."""
    g = _moments(state)
    modes_a, modes_b = _bipartition(g.n_modes, modes_a, modes_b)
    parts = (partial_trace(g, modes_a), partial_trace(g, modes_b))
    return extractable_work(g).quadratic - sum(extractable_work(part).quadratic for part in parts)
