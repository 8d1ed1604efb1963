"""One rule per argument kind, one row per public name: the one table of every refusal.

Every angle, transmittance, photon number and squeezing passes the real rule (``symplectic._check_real``), every
count, truncation dim, photon number and mode index the integer rule (``symplectic._check_int``), every matrix and
vector the array rule (``symplectic._check_array``), every list the list rule (``symplectic._check_list``), every
density-only operation the density gate (``fock._density``), every Gaussian-only operation the Gaussian gate
(``states._gaussian``) and every moment reader the moment gate (``states._moments``).  Each row feeds its argument
every wrong kind and requires the rule's one message: never a TypeError, an AttributeError, numpy's text or a
RuntimeWarning (the suite turns that into an error).  A public name has a text row only when it is a record or takes
no argument.  The command line's preset parameters meet the rows of their builders.
"""

import argparse
import collections
import json
import math
import re

import numpy as np
import pytest

import gausswork as gw
from gausswork import cli

ANGLE, PHOTONS, SQUEEZING, TRANSMITTANCE = "(-inf, inf)", "[0, inf)", "[-177, 177]", "(0, 1]"
VAC, VAC2 = gw.vacuum(1), gw.vacuum(2)
FOUR_MODES = gw.tensor([gw.thermal(1.0), gw.thermal(2.0), gw.two_mode_squeezed(0.3)])  # modes 0..3: 2.0 fits if cast
KRAUS = gw.thermal_loss_kraus(0.8, 0.1, 2, 1)
HALF = 0.5 * np.eye(2)
FOCK_DIM = 4  # the truncation of the fock_number_state rows, and so of the command line's preset rows


def real(label, bounds, call, outside=None, others=None):
    """A real argument: ``call`` takes the value; ``outside`` is a finite value out of ``bounds``.  ``others`` maps a
    kind of wrong value that the argument takes to None, and one that another rule refuses to that rule's message."""
    return ("real", call, label, bounds, outside, others or {})


def array(label, call, valid, wrong_shape, dtype=float, finite=True, others=None):
    """An array argument: ``call`` takes the value; ``valid`` has the right shape and ``wrong_shape`` does not."""
    return ("array", call, label, np.asarray(valid, dtype=dtype), wrong_shape, finite, others or {})


def integer(label, low, high, call, outside, others=None):
    """An integer argument in [low, high] (``high`` None: no top): ``call`` takes the value; ``outside`` is an integer
    out of range.  ``others`` maps a kind of wrong value that the argument takes to None."""
    return ("integer", call, label, low, high, outside, others or {})


def listed(label, call):
    """A list argument: ``call`` takes the value."""
    return ("list", call, label)


def density(op, call):
    """A density-only operation: ``call`` takes the state."""
    return ("density", call, op)


def gate(op, call):
    """A state gate: ``call`` takes the state.  The Gaussian-only operation ``op`` refuses a density and a matrix by
    its name; a moment reader (``op`` None) takes either state and refuses a matrix."""
    return ("gate", call, op)


def circuit(element):
    return gw.compile_passive_circuit(gw.PassiveCircuit(2, (element,)))


COVARIANCE = [  # every reader of a bare covariance matrix; williamson and is_free_cm read a state's moments too
    array("covariance matrix", call, HALF, 0.5 * np.eye(3), others=others)
    for call, others in ((gw.validate_cm, None), (gw.symplectic_eigenvalues, None),
                         (gw.williamson, {"none": "expected a GaussianState or FockDensity, got NoneType"}),
                         (gw.is_free_cm, {"none": "expected a GaussianState or FockDensity, got NoneType"}))
]
RECORD = "a result record, built by the library: no argument rule"
CIRCUIT = "a circuit record, read by compile_passive_circuit: the rows of compile_passive_circuit"

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
        integer("number of modes", 1, None, lambda v: gw.compile_passive_circuit(gw.PassiveCircuit(v, ())), 0),
        integer("beam splitter mode", 0, 2,
                lambda v: gw.compile_passive_circuit(gw.PassiveCircuit(3, (gw.BeamSplitter(0.3, (0, v)),))), 3),
        integer("phase shifter mode", 0, 2,
                lambda v: gw.compile_passive_circuit(gw.PassiveCircuit(3, (gw.PhaseShifter(0.3, v),))), 3),
    ],
    "BeamSplitter": CIRCUIT,
    "PhaseShifter": CIRCUIT,
    "PassiveCircuit": CIRCUIT,
    "symplectic_form": [integer("number of modes", 1, None, gw.symplectic_form, 0)],
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
        gate("apply_gaussian_unitary", lambda x: gw.apply_gaussian_unitary(x, np.eye(4))),
    ],
    "tensor": [listed("tensor states", gw.tensor), gate("tensor", lambda x: gw.tensor([VAC, x]))],
    "partial_trace": [
        listed("mode list", lambda v: gw.partial_trace(VAC2, v)),
        integer("mode index", 0, 3, lambda v: gw.partial_trace(FOUR_MODES, [0, v]), 4),
        gate("partial_trace", lambda x: gw.partial_trace(x, [0])),
    ],
    "mutual_information": [
        listed("mode list", lambda v: gw.mutual_information(VAC2, v)),
        integer("mode index", 0, 3, lambda v: gw.mutual_information(FOUR_MODES, [v]), 4),
        integer("mode index", 0, 3, lambda v: gw.mutual_information(FOUR_MODES, [0], [1, v, 3]), 4),
        gate("mutual_information", lambda x: gw.mutual_information(x, [0])),
    ],
    "vacuum": [integer("number of modes", 1, None, gw.vacuum, 0)],
    "energy": [gate(None, gw.energy)],
    "mean_photon_numbers": [gate(None, gw.mean_photon_numbers)],
    "von_neumann_entropy": [gate(None, gw.von_neumann_entropy)],
    "relative_entropy": [
        gate(None, lambda x: gw.relative_entropy(x, VAC)),
        gate("relative_entropy sigma", lambda x: gw.relative_entropy(VAC2, x)),
    ],
    # free
    "free_cm": [
        array("thermal symplectic eigenvalues", gw.free_cm, [1.0], [[1.0, 1.0], [1.0, 1.0]]),
        array("passive matrix", lambda v: gw.free_cm([1.0], v), np.eye(2), np.eye(4), others={"none": None}),
    ],
    "is_free_cm": COVARIANCE[3:],
    "FreeCovariance": RECORD,
    "FreenessReport": RECORD,
    # work
    "superadditivity_gap": [
        listed("mode list", lambda v: gw.superadditivity_gap(VAC2, v, [1])),
        integer("mode index", 0, 3, lambda v: gw.superadditivity_gap(FOUR_MODES, [v], [0, 1, 3]), 4),
    ],
    "extractable_work": [gate(None, gw.extractable_work)],
    "extraction_protocol": [gate(None, gw.extraction_protocol)],
    "ExtractionProtocol": RECORD,
    "WorkReport": RECORD,
    # activity
    "relaxed_subadditivity_gap": [
        listed("mode list", lambda v: gw.relaxed_subadditivity_gap(VAC2, v)),
        integer("mode index", 0, 3, lambda v: gw.relaxed_subadditivity_gap(FOUR_MODES, [v]), 4),
        gate("relaxed_subadditivity_gap", lambda x: gw.relaxed_subadditivity_gap(x, [0])),
    ],
    "local_activity": [gate(None, gw.local_activity)],
    "gaussian_coherence": [gate(None, gw.gaussian_coherence)],
    "photon_overlap_matrix": [gate(None, gw.photon_overlap_matrix)],
    "ActivityReport": RECORD,
    # fock
    "FockDensity": [
        array("density matrix", lambda v: gw.FockDensity(v, dim=2), HALF, np.ones((2, 3)) / 3, dtype=complex),
        integer("truncation dim", 1, None, lambda v: gw.FockDensity(np.eye(2) / 2, dim=v), 0),
        integer("number of modes", 1, 31, lambda v: gw.FockDensity(np.eye(4) / 4, dim=2, n_modes=v), 32),
    ],
    "phase_space_loss_channel": [
        real("amplitude transmittance", TRANSMITTANCE, lambda v: gw.phase_space_loss_channel(VAC, v, 0.0), 0.0),
        real("bath mean photon number", PHOTONS, lambda v: gw.phase_space_loss_channel(VAC, 0.8, v), -1.0),
        gate("phase_space_loss_channel", lambda x: gw.phase_space_loss_channel(x, 0.8, 0.1)),
    ],
    "thermal_loss_kraus": [
        real("amplitude transmittance", TRANSMITTANCE, lambda v: gw.thermal_loss_kraus(v, 0.1, 4, 2), 1.5),
        real("bath mean photon number", PHOTONS, lambda v: gw.thermal_loss_kraus(0.8, v, 4, 2), -0.5),
        integer("truncation dim", 2, None, lambda v: gw.thermal_loss_kraus(0.8, 0.1, v, 1), 1),
        integer("max_mn", 0, 4, lambda v: gw.thermal_loss_kraus(0.8, 0.1, 4, v), 5),
    ],
    "fock_thermal": [
        real("mean photon number", PHOTONS, lambda v: gw.fock_thermal(v, 4), -1.0),
        integer("truncation dim", 1, None, lambda v: gw.fock_thermal(0.5, v), 0),
    ],
    "gaussian_postselect": [
        array("measurement covariance", lambda v: gw.gaussian_postselect(VAC2, [1], v), HALF, 0.5 * np.eye(4)),
        listed("mode list", lambda v: gw.gaussian_postselect(VAC2, v, HALF)),
        integer("mode index", 0, 3, lambda v: gw.gaussian_postselect(FOUR_MODES, [v], HALF), 4),
        gate("gaussian_postselect", lambda x: gw.gaussian_postselect(x, [1], HALF)),
    ],
    "apply_kraus_channel": [density("apply_kraus_channel", lambda v: gw.apply_kraus_channel(v, KRAUS))],
    "fock_moments": [density("fock_moments", gw.fock_moments)],
    "fock_single_mode_activity": [density("fock_single_mode_activity", gw.fock_single_mode_activity)],
    "fock_from_gaussian": [
        integer("truncation dim", 1, None, lambda v: gw.fock_from_gaussian(VAC, v), 0),
        gate("fock_from_gaussian", lambda x: gw.fock_from_gaussian(x, 4)),
    ],
    # In argument order, as the preset's parameters are: the command line's preset rows are built from them.
    "fock_number_state": [
        integer("photon number", 0, FOCK_DIM - 1, lambda v: gw.fock_number_state(v, FOCK_DIM), FOCK_DIM),
        integer("truncation dim", 1, None, lambda v: gw.fock_number_state(1, v), 0),
    ],
    "fock_postselect_demo": [integer("truncation dim", 3, None, gw.fock_postselect_demo, 2)],
    "KrausSet": RECORD,
    # distill
    "process_two_copies_single_mode": [
        array("single-mode covariance matrix", lambda v: gw.process_two_copies_single_mode(v, 0.1, [0.0] * 4), HALF,
              0.5 * np.eye(4)),
        real("beam splitter angle", ANGLE, lambda v: gw.process_two_copies_single_mode(HALF, v, [0.0] * 4)),
        array("phases", lambda v: gw.process_two_copies_single_mode(HALF, 0.1, v), np.zeros(4), np.zeros(3)),
    ],
    "work_swap_demo": [
        array("single-mode covariance matrix", lambda v: gw.work_swap_demo(v, HALF), HALF, 0.5 * np.eye(4)),
        array("single-mode covariance matrix", lambda v: gw.work_swap_demo(HALF, v), HALF, 0.5 * np.eye(3)),
    ],
    "dft_unitary": [integer("number of modes", 1, None, gw.dft_unitary, 0)],
    "activity_distillation_demo": "takes no argument",
    "DistillationOutcome": RECORD,
    # The command line's own integers: the sweep's options and a state document's mode count, where an integral float
    # is read as an int (README "Command line").
    "cli": [
        integer("--count", 1, None, lambda v: cli._cmd_sweep(argparse.Namespace(count=v, seed=0)), 0),
        integer("--seed", 0, None, lambda v: cli._cmd_sweep(argparse.Namespace(count=1, seed=v)), -1),
        integer("modes", 1, None, lambda v: cli.parse_state(json.dumps({"modes": v, "covariance": [*np.eye(4).flat]})),
                0, others={"integral-float": None}),
    ],
}


def _rows(kind):
    """(id, row) of every row of one rule.  The id names the public name and the label (a moment reader has none); a
    name's second row of one label adds "-2"."""
    ids = [(f"{name}-{row[2] or 'moments'}", row[1:]) for name, rows in RULES.items() if not isinstance(rows, str)
           for row in rows if row[0] == kind]
    seen = collections.Counter()
    for row_id, row in ids:
        seen[row_id] += 1
        yield row_id + f"-{seen[row_id]}" * (seen[row_id] > 1), row


def _scalar(kind, row):
    """A real or integer row as (call, each wrong value by kind, the rule's message for a value, others)."""
    if kind == "real":
        call, label, bounds, outside, others = row
        values = {"bool": True, "text": "a", "none": None, "complex": 1j, "nan": math.nan, "inf": math.inf,
                  "-inf": -math.inf}
        rule = f"{label} must be a real number in {bounds}"
    else:  # A cast would read True, 2.0 and 2.7 as 1, 2 and 2, and pass them on silently: each is refused.
        call, label, low, high, outside, others = row
        values = {"bool": True, "integral-float": 2.0, "fraction": 2.7}
        rule = f"{label} must be an integer in [{low}, {'inf)' if high is None else f'{high}]'}"
    if outside is not None:
        values["outside"] = outside
    return call, values, lambda value: f"{rule}, got {value!r}", others


def _scalar_cases():
    """Each real and integer row with each wrong value it can be given: (call, kind, value, the rule's message as a
    pattern, others)."""
    for row_kind in ("real", "integer"):
        for name, row in _rows(row_kind):
            call, values, message, others = _scalar(row_kind, row)
            for kind, value in values.items():
                yield pytest.param(call, kind, value, re.escape(message(value)), others, id=f"{kind}-{name}")


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
    # The 62 names of the export table, and the command line's own integers; with the seven layer modules the 62 are
    # the 69 names of the namespace.
    assert sorted(RULES) == sorted([*gw._HOME, "cli"]) and len(gw._HOME) == 62 and len(gw.__all__) == 69
    assert all(isinstance(rows, list) or rows in (RECORD, CIRCUIT, "takes no argument") for rows in RULES.values())


@pytest.mark.parametrize("call, kind, value, pattern, others", [*_scalar_cases(), *_array_cases()])
def test_every_real_integer_and_array_input_follows_its_rule(call, kind, value, pattern, others):
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
    assert gw.thermal_loss_kraus(1, 0, 2, 0).eta == 1.0


def test_numpy_integers_pass_the_integer_rule():
    assert gw.vacuum(np.int64(2)).n_modes == 2
    assert gw.symplectic_form(np.int32(1)).shape == (2, 2)
    assert gw.fock_number_state(np.int64(1), np.uint8(3)).matrix[1, 1] == 1.0
    assert gw.thermal_loss_kraus(0.8, 0.1, np.int16(4), np.int64(2)).max_mn == 2
    assert gw.partial_trace(gw.tensor([gw.thermal(1.0), gw.thermal(2.0)]), np.array([1])).cm[0, 0] == 2.5


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


def _gate_cases():
    """Each gate row with each input it refuses and the gate's message: a Gaussian-only operation refuses a density and
    a matrix alike, a moment reader a matrix."""
    rho = gw.fock_number_state(1, FOCK_DIM)
    for name, (call, op) in _rows("gate"):
        for value in (rho, 0.5 * np.eye(4)) if op else (HALF,):
            found = type(value).__name__
            message = f"{op} takes a GaussianState" if op else "expected a GaussianState or FockDensity"
            yield pytest.param(call, value, f"{message}, got {found}", id=f"{found}-{name}")


@pytest.mark.parametrize("call, value, message", _gate_cases())
def test_a_state_gate_refuses_any_other_input(call, value, message):
    _refused(call, value, message)


def _preset_cases():
    """The rows of the six preset builders through the command line.  A builder's rows come in its argument order, as
    the preset's parameters do, and each wrong value that JSON carries meets the builder's rule as it was written: only
    a count reads an integral float as an int (``cli._whole``), which its integer rule takes.  A shorthand carries the
    numbers and the text too.  Every other parameter of the preset is 0, which each builder takes."""
    for preset, (builder, names, _) in cli._PRESETS.items():
        for i, (param, (row_kind, *row)) in enumerate(zip(names, RULES[builder])):
            _, values, message, _ = _scalar(row_kind, row)
            for kind, value in values.items():
                if kind == "complex":  # not a JSON value; the shorthand's re,im makes one, which coherent takes
                    continue
                expected = None if row_kind == "integer" and kind == "integral-float" else message(value)
                texts = {"document": json.dumps({"preset": preset, **dict.fromkeys(names[:i], 0), param: value})}
                if isinstance(value, (int, float, str)) and not isinstance(value, bool):
                    texts["shorthand"] = f"preset:{preset}:" + ",".join(["0"] * i + [str(value)])
                for form, text in texts.items():
                    yield pytest.param(text, expected, id=f"{kind}-{preset}-{param}-{form}")


@pytest.mark.parametrize("text, message", _preset_cases())
def test_a_preset_value_meets_its_builders_rule_through_the_cli(capsys, text, message):
    code = cli.main(["entropy", "--state", text, "--fock-dim", str(FOCK_DIM)])
    assert (code, capsys.readouterr().err) == ((0, "") if message is None else (2, f"error: {message}\n"))


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
        # Once numpy's _ArrayMemoryError traceback with exit 1: the size rule is refused like any other.
        (["entropy", "--state", "preset:vacuum:1000000"],
         "vacuum of 1000000 modes needs 4000000000000 entries, above the budget of 4194304"),
        (["entropy", "--state", '{"preset": "vacuum", "modes": 1e6}'],
         "vacuum of 1000000 modes needs 4000000000000 entries, above the budget of 4194304"),
    ],
    ids=["eta-nan", "nbar-negative", "ragged-covariance", "text-displacement", "vacuum-budget", "vacuum-budget-doc"],
)
def test_the_cli_exits_2_with_the_rules_message(capsys, argv, message):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
