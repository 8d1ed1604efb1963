"""Resource theory of local Gaussian work extraction for multimode bosonic systems.

Covariance matrices use (q1, p1, ..., qN, pN) ordering with hbar = 1, so the
vacuum covariance is I/2.  The package provides symplectic decompositions,
Gaussian-state functionals, freeness tests, the relative entropy of local
activity, the extractable-work functional with its constructive protocol,
distillation demonstrations and truncated-Fock channel machinery.

The namespace is lazy (PEP 562): ``import gausswork`` loads no layer, and a
public name or layer module is imported on first access, so a caller pays
only for the layers it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public names by the layer module that defines them.
_EXPORTS = {
    "activity": "ActivityReport gaussian_coherence local_activity photon_overlap_matrix relaxed_subadditivity_gap",
    "distill": """DistillationOutcome activity_distillation_demo dft_unitary
        process_two_copies_single_mode work_swap_demo""",
    "fock": """FockDensity KrausSet apply_kraus_channel fock_from_gaussian
        fock_moments fock_number_state fock_postselect_demo fock_single_mode_activity
        fock_thermal gaussian_postselect phase_space_loss_channel thermal_loss_kraus""",
    "free": "FreeCovariance FreenessReport free_cm is_free_cm",
    "states": """GaussianState apply_gaussian_unitary coherent energy mean_photon_numbers
        mutual_information partial_trace relative_entropy squeezed tensor
        thermal thermal_entropy two_mode_squeezed vacuum von_neumann_entropy""",
    "symplectic": """BeamSplitter BlochMessiahDecomposition PassiveCircuit PhaseShifter
        WilliamsonDecomposition bloch_messiah compile_passive_circuit is_orthosymplectic
        is_symplectic rotation squeezer_direct_sum symplectic_eigenvalues
        symplectic_form unitary_to_orthosymplectic validate_cm williamson""",
    "work": "ExtractionProtocol WorkReport extractable_work extraction_protocol superadditivity_gap",
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOME, *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        # Importing a submodule binds it in this namespace.
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
