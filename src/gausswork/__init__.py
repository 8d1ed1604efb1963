"""Resource theory of local Gaussian work extraction for multimode bosonic systems.

Covariance matrices use (q1, p1, ..., qN, pN) ordering with hbar = 1, so the
vacuum covariance is I/2.  The package provides symplectic decompositions,
Gaussian-state functionals, freeness tests, the relative entropy of local
activity, the extractable-work functional with its constructive protocol,
distillation demonstrations and truncated-Fock channel machinery.
"""

__version__ = "0.1.0"

from .activity import (
    ActivityReport,
    gaussian_coherence,
    local_activity,
    photon_overlap_matrix,
    preset_activity,
    relaxed_subadditivity_gap,
)
from .distill import (
    DistillationOutcome,
    activity_distillation_demo,
    conversion_rate_bound,
    dft_unitary,
    process_two_copies_single_mode,
    work_swap_demo,
)
from .fock import (
    FockDensity,
    KrausSet,
    apply_kraus_channel,
    bs_matrix_element,
    fock_from_gaussian,
    fock_moments,
    fock_number_state,
    fock_postselect_demo,
    fock_single_mode_activity,
    fock_thermal,
    gaussian_postselect,
    phase_space_loss_channel,
    thermal_loss_kraus,
)
from .free import FreeCovariance, FreenessReport, convex_combine, free_cm, is_free_cm
from .states import (
    GaussianState,
    apply_gaussian_unitary,
    coherent,
    energy,
    gibbs_matrix,
    make_state,
    mean_photon_numbers,
    mutual_information,
    partial_trace,
    relative_entropy,
    squeezed,
    tensor,
    thermal,
    thermal_entropy,
    two_mode_squeezed,
    vacuum,
    von_neumann_entropy,
)
from .symplectic import (
    BeamSplitter,
    BlochMessiahDecomposition,
    PassiveCircuit,
    PhaseShifter,
    WilliamsonDecomposition,
    bloch_messiah,
    compile_passive_circuit,
    is_orthosymplectic,
    is_symplectic,
    rotation,
    squeezer,
    squeezer_direct_sum,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_trace,
    unitary_to_orthosymplectic,
    validate_cm,
    williamson,
)
from .work import (
    ExtractionProtocol,
    WorkReport,
    extractable_work,
    extraction_protocol,
    is_work_free,
    quadratic_work,
    superadditivity_gap,
)
