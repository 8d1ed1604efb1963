"""The solver ledger: each public function, on a fixed input per layer, and the eigh / eigvalsh / svd calls it makes.

A call reads as :func:`conftest.count_solvers` records it: "eigh 4", "svd 4 values" (no vectors formed).  The
counts are exact and change only when the code does: a change that adds, drops or resizes a call edits its row.
"""

import numpy as np
import pytest

import gausswork as gw
from conftest import count_solvers

# Fixed inputs, built before any call is counted.
STATE = gw.GaussianState([0.3, -0.2, 0.1, 0.4], gw.phase_space_loss_channel(gw.two_mode_squeezed(0.4), 0.9, 0.1).cm)
CM = STATE.cm
S = gw.williamson(CM).symplectic
O = gw.williamson(CM).bloch_messiah.o_out
SIGMA = gw.tensor([gw.thermal(0.5), gw.thermal(1.0)])
SQUEEZED = gw.squeezed(0.3, 0.2)
THERMAL = gw.thermal(1.0)
RHO = gw.fock_from_gaussian(SQUEEZED, 20)
RHO8 = gw.fock_thermal(0.5, 8)
KRAUS = gw.thermal_loss_kraus(0.8, 0.1, 8, 4)
CIRCUIT = gw.PassiveCircuit(2, (gw.BeamSplitter(0.7, (0, 1)), gw.PhaseShifter(0.3, 0)))
SWAP = (gw.squeezed(1.0).cm, gw.vacuum(1).cm)

VALIDATE = ["eigh 4", "svd 4 values"]  # one eigh of a 4 x 4 cm and a values-only SVD of its skew K
VALIDATE_1 = ["eigh 2", "svd 2 values"]

LEDGER = {
    # symplectic
    "symplectic_form": (lambda: gw.symplectic_form(2), []),
    "rotation": (lambda: gw.rotation(0.3), []),
    "squeezer_direct_sum": (lambda: gw.squeezer_direct_sum([0.3, -0.1]), []),
    "is_symplectic": (lambda: gw.is_symplectic(S), []),
    "is_orthosymplectic": (lambda: gw.is_orthosymplectic(O), []),
    "unitary_to_orthosymplectic": (lambda: gw.unitary_to_orthosymplectic(gw.dft_unitary(2)), []),
    "compile_passive_circuit": (lambda: gw.compile_passive_circuit(CIRCUIT), []),
    "validate_cm": (lambda: gw.validate_cm(CM), VALIDATE),
    "symplectic_eigenvalues": (lambda: gw.symplectic_eigenvalues(CM), VALIDATE),
    "williamson-matrix": (lambda: gw.williamson(CM), VALIDATE + ["svd 4", "eigh 4", "eigh 4"]),
    "williamson-state": (lambda: gw.williamson(STATE), ["svd 4", "eigh 4", "eigh 4"]),
    "bloch_messiah": (lambda: gw.bloch_messiah(S), ["eigh 4"]),
    # states
    "GaussianState": (lambda: gw.GaussianState(STATE.displacement, CM), VALIDATE),
    "vacuum": (lambda: gw.vacuum(2), VALIDATE),
    "thermal": (lambda: gw.thermal(1.0), VALIDATE_1),
    "coherent": (lambda: gw.coherent(0.3 + 0.1j), VALIDATE_1),
    "squeezed": (lambda: gw.squeezed(0.3, 0.2), VALIDATE_1),
    "two_mode_squeezed": (lambda: gw.two_mode_squeezed(0.4), VALIDATE),
    "tensor": (lambda: gw.tensor([THERMAL, SQUEEZED]), VALIDATE),
    "partial_trace": (lambda: gw.partial_trace(STATE, [0]), VALIDATE_1),
    "apply_gaussian_unitary": (lambda: gw.apply_gaussian_unitary(STATE, S), VALIDATE),
    "energy": (lambda: gw.energy(STATE), []),
    "mean_photon_numbers": (lambda: gw.mean_photon_numbers(STATE), []),
    "von_neumann_entropy": (lambda: gw.von_neumann_entropy(STATE), []),
    "relative_entropy": (lambda: gw.relative_entropy(STATE, SIGMA), ["svd 4"]),
    "mutual_information": (lambda: gw.mutual_information(STATE, [0]), VALIDATE_1 * 2),
    "thermal_entropy": (lambda: gw.thermal_entropy([1.0, 2.0]), []),
    # free
    "free_cm": (lambda: gw.free_cm([1.0, 2.0], O), []),
    "is_free_cm-matrix": (lambda: gw.is_free_cm(CM), VALIDATE),
    "is_free_cm-state": (lambda: gw.is_free_cm(STATE), []),
    # work
    "extractable_work": (lambda: gw.extractable_work(STATE), []),
    "extraction_protocol": (lambda: gw.extraction_protocol(STATE), ["svd 4", "eigh 4", "eigh 4"]),
    "superadditivity_gap": (lambda: gw.superadditivity_gap(STATE, [0], [1]), VALIDATE_1 * 2),
    # activity
    "local_activity": (lambda: gw.local_activity(STATE), ["eigh 4"]),
    "gaussian_coherence": (lambda: gw.gaussian_coherence(STATE), []),
    "photon_overlap_matrix": (lambda: gw.photon_overlap_matrix(STATE), []),
    "relaxed_subadditivity_gap": (lambda: gw.relaxed_subadditivity_gap(STATE, [0]), VALIDATE_1 * 2 + ["eigh 2"] * 2
                                  + ["eigh 4"]),
    # fock
    "FockDensity": (lambda: gw.FockDensity(RHO.matrix, dim=20), []),
    "fock_number_state": (lambda: gw.fock_number_state(2, 8), []),
    "fock_thermal": (lambda: gw.fock_thermal(0.5, 8), []),
    "fock_from_gaussian": (lambda: gw.fock_from_gaussian(SQUEEZED, 8), ["eigh 2"]),
    "fock_moments": (lambda: gw.fock_moments(RHO), []),
    "thermal_loss_kraus": (lambda: gw.thermal_loss_kraus(0.8, 0.1, 8, 4), []),
    "apply_kraus_channel": (lambda: gw.apply_kraus_channel(RHO8, KRAUS), []),
    "phase_space_loss_channel": (lambda: gw.phase_space_loss_channel(STATE, 0.9, 0.1), VALIDATE),
    "gaussian_postselect": (lambda: gw.gaussian_postselect(STATE, [1], 0.5 * np.eye(2)), VALIDATE_1 + ["eigh 2"]
                            + VALIDATE_1),
    "von_neumann_entropy-density": (lambda: gw.von_neumann_entropy(RHO), ["eigvalsh 40 values"]),
    "local_activity-density": (lambda: gw.local_activity(RHO), ["eigvalsh 40 values"] + VALIDATE_1 + ["eigh 2"]),
    "fock_single_mode_activity": (lambda: gw.fock_single_mode_activity(RHO), ["eigvalsh 40 values"] + VALIDATE_1
                                  + ["eigh 2"]),
    "fock_postselect_demo": (lambda: gw.fock_postselect_demo(), (["eigvalsh 16 values"] + VALIDATE_1 + ["eigh 2"]) * 2),
    # distill
    "process_two_copies_single_mode": (lambda: gw.process_two_copies_single_mode(SQUEEZED.cm, 0.3, [0.1] * 4),
                                       VALIDATE_1),
    "dft_unitary": (lambda: gw.dft_unitary(4), []),
    # The input copy, the product, the interferometer's output and its two-mode part, then the activity of each.
    "activity_distillation_demo": (lambda: gw.activity_distillation_demo(), VALIDATE + ["eigh 8", "svd 8 values"] * 2
                                   + VALIDATE + ["eigh 4", "eigh 4"]),
    "work_swap_demo": (lambda: gw.work_swap_demo(*SWAP), VALIDATE_1 * 2 + VALIDATE + ["eigh 8", "svd 8 values"] * 2
                       + VALIDATE),
}


@pytest.mark.parametrize("name", LEDGER)
def test_solver_ledger(monkeypatch, name):
    call, expected = LEDGER[name]
    calls = count_solvers(monkeypatch)
    call()
    assert calls == expected
