"""One rule per argument kind, one row per public name.

Every angle, transmittance, photon number and squeezing passes the real rule (``symplectic._check_real``), every
matrix and vector the array rule (``symplectic._check_array``), every list the list rule (``symplectic._check_list``)
and every density-only operation the density gate (``fock._density``).  Each row feeds its argument every wrong kind
and requires the rule's one message: never a TypeError, an AttributeError, numpy's text or a RuntimeWarning (the
suite turns that into an error).  A public name with no such argument names the rule or test that covers it.
"""

import math
import re

import numpy as np
import pytest

import gausswork as gw
from gausswork import cli

ANGLE, PHOTONS, SQUEEZING, TRANSMITTANCE = "(-inf, inf)", "[0, inf)", "[-177, 177]", "(0, 1]"
VAC, VAC2 = gw.vacuum(1), gw.vacuum(2)
KRAUS = gw.thermal_loss_kraus(0.8, 0.1, 2, 1)
HALF = 0.5 * np.eye(2)


def real(label, bounds, call, outside=None, others=None):
    """A real argument: ``call`` takes the value; ``outside`` is a finite value out of ``bounds``.  ``others`` maps a
    kind of wrong value that the argument takes to None, and one that another rule refuses to that rule's message."""
    return ("real", call, label, bounds, outside, others or {})


def array(label, call, valid, wrong_shape, dtype=float, finite=True, others=None):
    """An array argument: ``call`` takes the value; ``valid`` has the right shape and ``wrong_shape`` does not."""
    return ("array", call, label, np.asarray(valid, dtype=dtype), wrong_shape, finite, others or {})


def listed(label, call):
    """A list argument: ``call`` takes the value."""
    return ("list", call, label)


def density(op, call):
    """A density-only operation: ``call`` takes the state."""
    return ("density", call, op)


def circuit(element):
    return gw.compile_passive_circuit(gw.PassiveCircuit(2, (element,)))


COVARIANCE = [  # every reader of a bare covariance matrix; williamson and is_free_cm read a state's moments too
    array("covariance matrix", call, HALF, 0.5 * np.eye(3), others=others)
    for call, others in ((gw.validate_cm, None), (gw.symplectic_eigenvalues, None),
                         (gw.williamson, {"none": "expected a GaussianState or FockDensity, got NoneType"}),
                         (gw.is_free_cm, {"none": "expected a GaussianState or FockDensity, got NoneType"}))
]
RECORD = "a result record, built by the library: no argument rule"
STATE_GATE = "the state gates: tests/test_states.py"
INTEGER = "the integer rule: tests/test_integer_rule.py"

RULES = {
    # symplectic
    "rotation": [real("rotation angle", ANGLE, gw.rotation)],
    "squeezer_direct_sum": [array("squeezings", gw.squeezer_direct_sum, [0.1], np.ones((2, 2)))],
    "is_symplectic": [array("symplectic candidate", gw.is_symplectic, np.eye(2), np.ones((2, 4)), finite=False)],
    "is_orthosymplectic": [
        array("orthosymplectic candidate", gw.is_orthosymplectic, np.eye(2), np.eye(3), finite=False)
    ],
    "bloch_messiah": [array("symplectic matrix", gw.bloch_messiah, np.eye(2), np.eye(3))],
    "unitary_to_orthosymplectic": [
        array("unitary", gw.unitary_to_orthosymplectic, np.eye(2), np.ones((1, 2)), dtype=complex)
    ],
    "validate_cm": COVARIANCE[:1],
    "symplectic_eigenvalues": COVARIANCE[1:2],
    "williamson": COVARIANCE[2:3],
    "compile_passive_circuit": [
        real("beam splitter angle", ANGLE, lambda v: circuit(gw.BeamSplitter(v, (0, 1)))),
        real("phase shifter angle", ANGLE, lambda v: circuit(gw.PhaseShifter(v, 0))),
        listed("circuit elements", lambda v: gw.compile_passive_circuit(gw.PassiveCircuit(2, v))),
    ],
    "BeamSplitter": "its angle and modes: the rows of compile_passive_circuit and tests/test_integer_rule.py",
    "PhaseShifter": "its angle and mode: the rows of compile_passive_circuit and tests/test_integer_rule.py",
    "PassiveCircuit": "its elements and mode count: the rows of compile_passive_circuit and the integer rule",
    "symplectic_form": INTEGER,
    "BlochMessiahDecomposition": RECORD,
    "WilliamsonDecomposition": RECORD,
    # states
    "GaussianState": [
        array("covariance matrix", lambda v: gw.GaussianState(np.zeros(2), v), HALF, 0.5 * np.eye(3)),
        array("displacement vector", lambda v: gw.GaussianState(v, HALF), np.zeros(2), np.zeros((2, 2))),
    ],
    "thermal": [real("mean photon number", PHOTONS, gw.thermal, -0.1)],
    "coherent": [real("each part of the coherent amplitude", ANGLE, gw.coherent, others={"complex": None})],
    "squeezed": [
        real("squeezing", SQUEEZING, gw.squeezed, 400.0),
        real("squeezing angle", ANGLE, lambda v: gw.squeezed(0.5, v)),
    ],
    "two_mode_squeezed": [real("squeezing", SQUEEZING, gw.two_mode_squeezed, -400.0)],
    "thermal_entropy": [array("symplectic eigenvalues", gw.thermal_entropy, [1.0, 2.0], None)],
    "apply_gaussian_unitary": [
        array("symplectic matrix", lambda v: gw.apply_gaussian_unitary(VAC, v), np.eye(2), np.eye(4)),
        array("shift vector", lambda v: gw.apply_gaussian_unitary(VAC, np.eye(2), v), np.zeros(2), np.zeros((2, 1)),
              others={"none": None}),
    ],
    "tensor": [listed("tensor states", gw.tensor)],
    "partial_trace": [listed("mode list", lambda v: gw.partial_trace(VAC2, v))],
    "mutual_information": [listed("mode list", lambda v: gw.mutual_information(VAC2, v))],
    "vacuum": INTEGER,
    "energy": STATE_GATE,
    "mean_photon_numbers": STATE_GATE,
    "von_neumann_entropy": STATE_GATE,
    "relative_entropy": STATE_GATE,
    # free
    "free_cm": [
        array("thermal symplectic eigenvalues", gw.free_cm, [1.0], [[1.0, 1.0], [1.0, 1.0]]),
        array("passive matrix", lambda v: gw.free_cm([1.0], v), np.eye(2), np.eye(4), others={"none": None}),
    ],
    "is_free_cm": COVARIANCE[3:],
    "FreeCovariance": RECORD,
    "FreenessReport": RECORD,
    # work
    "superadditivity_gap": [listed("mode list", lambda v: gw.superadditivity_gap(VAC2, v, [1]))],
    "extractable_work": STATE_GATE,
    "extraction_protocol": STATE_GATE,
    "ExtractionProtocol": RECORD,
    "WorkReport": RECORD,
    # activity
    "relaxed_subadditivity_gap": [listed("mode list", lambda v: gw.relaxed_subadditivity_gap(VAC2, v))],
    "local_activity": STATE_GATE,
    "gaussian_coherence": STATE_GATE,
    "photon_overlap_matrix": STATE_GATE,
    "ActivityReport": RECORD,
    # fock
    "FockDensity": [
        array("density matrix", lambda v: gw.FockDensity(v, dim=2), HALF, np.ones((2, 3)) / 3, dtype=complex)
    ],
    "phase_space_loss_channel": [
        real("amplitude transmittance", TRANSMITTANCE, lambda v: gw.phase_space_loss_channel(VAC, v, 0.0), 0.0),
        real("bath mean photon number", PHOTONS, lambda v: gw.phase_space_loss_channel(VAC, 0.8, v), -1.0),
    ],
    "thermal_loss_kraus": [
        real("amplitude transmittance", TRANSMITTANCE, lambda v: gw.thermal_loss_kraus(v, 0.1, 4, 2), 1.5),
        real("bath mean photon number", PHOTONS, lambda v: gw.thermal_loss_kraus(0.8, v, 4, 2), -0.5),
    ],
    "bs_matrix_element": [
        real("amplitude transmittance", TRANSMITTANCE, lambda v: gw.bs_matrix_element(1, 0, 1, 0, v), -0.5)
    ],
    "fock_thermal": [real("mean photon number", PHOTONS, lambda v: gw.fock_thermal(v, 4), -1.0)],
    "gaussian_postselect": [
        array("measurement covariance", lambda v: gw.gaussian_postselect(VAC2, [1], v), HALF, 0.5 * np.eye(4)),
        listed("mode list", lambda v: gw.gaussian_postselect(VAC2, v, HALF)),
    ],
    "apply_kraus_channel": [density("apply_kraus_channel", lambda v: gw.apply_kraus_channel(v, KRAUS))],
    "fock_moments": [density("fock_moments", gw.fock_moments)],
    "fock_single_mode_activity": [density("fock_single_mode_activity", gw.fock_single_mode_activity)],
    "fock_from_gaussian": "the Gaussian-state gate (tests/test_states.py) and the integer rule",
    "fock_number_state": INTEGER,
    "fock_postselect_demo": INTEGER,
    "KrausSet": RECORD,
    # distill
    "process_two_copies_single_mode": [
        array("single-mode covariance matrix", lambda v: gw.process_two_copies_single_mode(v, 0.1, [0.0] * 4), HALF,
              0.5 * np.eye(4)),
        real("beam splitter angle", ANGLE, lambda v: gw.process_two_copies_single_mode(HALF, v, [0.0] * 4)),
        array("phases", lambda v: gw.process_two_copies_single_mode(HALF, 0.1, v), np.zeros(4), np.zeros(3)),
    ],
    "work_swap_demo": [array("covariance matrix", lambda v: gw.work_swap_demo(v, HALF), HALF, 0.5 * np.eye(3))],
    "dft_unitary": INTEGER,
    "activity_distillation_demo": "takes no argument",
    "DistillationOutcome": RECORD,
}


def _rows(kind):
    """(id, row) of every row of one rule."""
    return [(f"{name}-{row[2]}", row[1:]) for name, rows in RULES.items() if not isinstance(rows, str)
            for row in rows if row[0] == kind]


def _real_cases():
    """Each real row with each wrong value it can be given: (call, kind, value, the rule's message as a pattern,
    others)."""
    for name, (call, label, bounds, outside, others) in _rows("real"):
        values = {"bool": True, "text": "a", "none": None, "complex": 1j, "nan": math.nan, "inf": math.inf,
                  "-inf": -math.inf, **({} if outside is None else {"outside": outside})}
        for kind, value in values.items():
            message = f"{label} must be a real number in {bounds}, got {value!r}"
            yield pytest.param(call, kind, value, re.escape(message), others, id=f"{kind}-{name}")


def _array_cases():
    """Each array row with each wrong value it can be given, as :func:`_real_cases`.  The pattern names the label, the
    kind of array and what it got, and leaves the shape to the rule."""
    for name, (call, label, valid, wrong_shape, finite, others) in _rows("array"):
        is_complex = valid.dtype == complex
        values = {"ragged": ([[0.5, 0.0], [0.0]], "a ragged input"), "text": ([["a", "b"]], "entries of dtype <U1"),
                  "none": (None, "entries of dtype object"), "bool": ([[True, False]], "entries of dtype bool")}
        if not is_complex:
            values["complex"] = (valid + 1j, "entries of dtype complex128")
        if wrong_shape is not None:
            values["shape"] = (wrong_shape, f"shape {np.shape(wrong_shape)}")
        for bad in ("nan", "inf") if finite else ():
            values[bad] = (valid.copy(), "a non-finite entry")
            values[bad][0].flat[0] = float(bad)
        for kind, (value, found) in values.items():
            pattern = (f"{re.escape(label)} must be a {'finite ' * finite}{'complex' if is_complex else 'real'} .+, "
                       f"got {re.escape(found)}")
            yield pytest.param(call, kind, value, pattern, others, id=f"{kind}-{name}")


def _refused(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def test_every_public_name_has_a_row():
    # The 63 names of the export table; with the seven layer modules they are the 70 names of the namespace.
    assert sorted(RULES) == sorted(gw._HOME) and len(gw.__all__) == 70


@pytest.mark.parametrize("call, kind, value, pattern, others", [*_real_cases(), *_array_cases()])
def test_every_real_and_array_input_follows_its_rule(call, kind, value, pattern, others):
    if kind not in others:
        with pytest.raises(ValueError, match=f"^{pattern}$"):
            call(value)
    elif others[kind] is None:
        call(value)
    else:
        _refused(call, value, others[kind])


def test_ints_and_numpy_reals_pass_the_real_rule():
    assert np.array_equal(gw.thermal(1).cm, gw.thermal(1.0).cm)
    assert np.array_equal(gw.thermal(np.float32(1.0)).cm, gw.thermal(1.0).cm)
    assert np.array_equal(gw.rotation(np.int64(0)), np.eye(2))
    assert gw.squeezed(np.float64(0.5), np.int32(0)).cm[0, 0] == 0.5 * math.exp(1.0)
    assert gw.thermal_loss_kraus(np.float32(0.5), np.int8(0), 4, 2).eta == 0.5
    assert gw.bs_matrix_element(1, 0, 1, 0, 1) == 1.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gw.squeezer_direct_sum([0.0, 1000.0]), "squeezings must be a finite real scalar or vector, got an "
                                                        "entry of magnitude 1e+03 above 177"),
        # Twice an entry squares to below max double / n^2, so n^2 squares sum without overflow in every norm.
        (lambda: gw.GaussianState(np.zeros(2), np.diag([1e160, 1.0])), "covariance matrix must be a finite real square "
         "matrix of even size, got an entry of magnitude 1e+160 above sqrt(max double) / 2n = 3.35e+153"),
        *((lambda f=f: f(np.diag([-1e160, 1.0])), "covariance matrix must be a finite real square matrix of even "
           "size, got an entry of magnitude 1e+160 above sqrt(max double) / 2n = 3.35e+153")
          for f in (gw.validate_cm, gw.symplectic_eigenvalues, gw.williamson, gw.is_free_cm)),
        (lambda: gw.GaussianState([1e160, 0.0], HALF), "displacement vector must be a finite real array of shape "
         "(2,), got an entry of magnitude 1e+160 above sqrt(max double) / 2n = 3.35e+153"),
    ],
    ids=["squeezings", "GaussianState", "validate_cm", "symplectic_eigenvalues", "williamson", "is_free_cm",
         "displacement"],
)
def test_an_entry_above_its_bound_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [gw.is_symplectic, gw.is_orthosymplectic], ids=["symplectic", "orthosymplectic"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_well_shaped_non_finite_matrix_is_not_symplectic(call, bad):
    assert call(np.array([[bad, 0.0], [0.0, 1.0]])) is False


def test_a_state_keeps_one_copy_of_each_array():
    # The array rule makes the state's own read-only copy, and validation reads that copy: nothing is copied twice.
    cm, d = 0.5 * np.eye(4), np.zeros(4)
    state = gw.GaussianState(d, cm)
    for mine, given in ((state.cm, cm), (state.displacement, d)):
        assert mine.base is None and not np.shares_memory(mine, given) and not mine.flags.writeable
    assert state._spectrum.cm is state.cm


@pytest.mark.parametrize("row", [row for _, row in _rows("list")], ids=[name for name, _ in _rows("list")])
@pytest.mark.parametrize("value", [5, None, 2.5, "01"])
def test_every_list_input_follows_one_rule(row, value):
    # A bare int is no list of one: each is refused, not read as a new input form.
    call, label = row
    _refused(call, value, f"{label} must be a list, got {value!r}")


def test_a_ragged_beam_splitter_pair_is_refused_by_the_integer_rule():
    message = "beam splitter mode must be an integer in [0, 2], got [1, 2]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gw.compile_passive_circuit(gw.PassiveCircuit(3, (gw.BeamSplitter(0.3, (0, [1, 2])),)))


@pytest.mark.parametrize("row", [row for _, row in _rows("density")], ids=[name for name, _ in _rows("density")])
@pytest.mark.parametrize("value", [VAC, HALF], ids=["GaussianState", "ndarray"])
def test_a_density_operation_refuses_any_other_input(row, value):
    call, op = row
    _refused(call, value, f"{op} takes a FockDensity, got {type(value).__name__}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["channel", "--state", "preset:thermal:1", "--eta", "nan"],
         "amplitude transmittance must be a real number in (0, 1], got nan"),
        (["channel", "--state", "preset:thermal:1", "--eta", "0.8", "--nbar-bath", "-1"],
         "bath mean photon number must be a real number in [0, inf), got -1.0"),
        (["work", "--state", '{"modes": 1, "covariance": [[1, 0], [0]]}'], "covariance must be a real array, got a "
                                                                          "ragged input"),
        (["work", "--state", '{"modes": 1, "covariance": [1, 0, 0, 1], "displacement": [0, "a"]}'],
         "displacement vector must be a finite real array of shape (2,), got entries of dtype <U21"),
    ],
    ids=["eta-nan", "nbar-negative", "ragged-covariance", "text-displacement"],
)
def test_the_cli_exits_2_with_the_rules_message(capsys, argv, message):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
