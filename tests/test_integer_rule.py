"""One integer rule: every count, truncation dim, photon number and mode index refuses a bool, a float (an integral
one too) and a value outside its range, with one message that names the input, the range and the value."""

import argparse
import re

import numpy as np
import pytest

import gausswork as gw
from gausswork import cli

STATE = gw.tensor([gw.thermal(1.0), gw.thermal(2.0), gw.two_mode_squeezed(0.3)])  # modes 0..3: 2.0 fits if cast
INF = None

# (id, call taking the value, label, low, high or INF, a value outside [low, high])
ENTRY_POINTS = [
    ("vacuum", lambda v: gw.vacuum(v), "number of modes", 1, INF, 0),
    ("symplectic_form", lambda v: gw.symplectic_form(v), "number of modes", 1, INF, 0),
    ("dft_unitary", lambda v: gw.dft_unitary(v), "number of modes", 1, INF, 0),
    ("circuit-n_modes", lambda v: gw.compile_passive_circuit(gw.PassiveCircuit(v, ())), "number of modes", 1, INF, 0),
    (
        "circuit-beam-splitter",
        lambda v: gw.compile_passive_circuit(gw.PassiveCircuit(3, (gw.BeamSplitter(0.3, (0, v)),))),
        "beam splitter mode", 0, 2, 3,
    ),
    (
        "circuit-phase-shifter",
        lambda v: gw.compile_passive_circuit(gw.PassiveCircuit(3, (gw.PhaseShifter(0.3, v),))),
        "phase shifter mode", 0, 2, 3,
    ),
    ("FockDensity-dim", lambda v: gw.FockDensity(np.eye(2) / 2, dim=v), "truncation dim", 1, INF, 0),
    ("FockDensity-n_modes", lambda v: gw.FockDensity(np.eye(4) / 4, dim=2, n_modes=v), "number of modes", 1, INF, 0),
    ("bs-m1", lambda v: gw.bs_matrix_element(v, 0, 2, 0, 0.5), "photon number m1", 0, INF, -1),
    ("bs-m", lambda v: gw.bs_matrix_element(0, v, 2, 0, 0.5), "photon number m", 0, INF, -1),
    ("bs-n1", lambda v: gw.bs_matrix_element(2, 0, v, 0, 0.5), "photon number n1", 0, INF, -1),
    ("bs-n", lambda v: gw.bs_matrix_element(2, 0, 0, v, 0.5), "photon number n", 0, INF, -1),
    ("kraus-dim", lambda v: gw.thermal_loss_kraus(0.8, 0.1, v, 1), "truncation dim", 2, INF, 1),
    ("kraus-max_mn", lambda v: gw.thermal_loss_kraus(0.8, 0.1, 4, v), "max_mn", 0, 4, 5),
    ("number-n", lambda v: gw.fock_number_state(v, 4), "photon number", 0, 3, 4),
    ("number-dim", lambda v: gw.fock_number_state(1, v), "truncation dim", 1, INF, 0),
    ("thermal-dim", lambda v: gw.fock_thermal(0.5, v), "truncation dim", 1, INF, 0),
    ("fock_from_gaussian", lambda v: gw.fock_from_gaussian(gw.vacuum(1), v), "truncation dim", 1, INF, 0),
    ("postselect-demo", lambda v: gw.fock_postselect_demo(v), "truncation dim", 3, INF, 2),
    ("partial_trace", lambda v: gw.partial_trace(STATE, [0, v]), "mode index", 0, 3, 4),
    ("mutual_information", lambda v: gw.mutual_information(STATE, [v]), "mode index", 0, 3, 4),
    ("mutual_information-b", lambda v: gw.mutual_information(STATE, [0], [1, v, 3]), "mode index", 0, 3, 4),
    ("superadditivity_gap", lambda v: gw.superadditivity_gap(STATE, [v], [0, 1, 3]), "mode index", 0, 3, 4),
    ("relaxed_subadditivity_gap", lambda v: gw.relaxed_subadditivity_gap(STATE, [v]), "mode index", 0, 3, 4),
    ("gaussian_postselect", lambda v: gw.gaussian_postselect(STATE, [v], 0.5 * np.eye(2)), "mode index", 0, 3, 4),
    ("sweep-count", lambda v: cli._cmd_sweep(argparse.Namespace(count=v, seed=0)), "--count", 1, INF, 0),
    ("sweep-seed", lambda v: cli._cmd_sweep(argparse.Namespace(count=1, seed=v)), "--seed", 0, INF, -1),
]


def _message(label, low, high, value) -> str:
    bounds = f"[{low}, inf)" if high is INF else f"[{low}, {high}]"
    return f"{label} must be an integer in {bounds}, got {value!r}"


@pytest.mark.parametrize("kind", ["bool", "integral-float", "fraction", "out-of-range"])
@pytest.mark.parametrize("call, label, low, high, outside", [row[1:] for row in ENTRY_POINTS],
                         ids=[row[0] for row in ENTRY_POINTS])
def test_every_integer_input_follows_one_rule(call, label, low, high, outside, kind):
    # A cast would read True, 2.0 and 2.7 as 1, 2 and 2, which most ranges here hold, and pass them on silently
    # (partial_trace(state, [1.9]) would keep mode 1): each is refused with the one message.
    value = {"bool": True, "integral-float": 2.0, "fraction": 2.7, "out-of-range": outside}[kind]
    with pytest.raises(ValueError, match=f"^{re.escape(_message(label, low, high, value))}$"):
        call(value)


def test_numpy_integers_pass_the_rule():
    assert gw.vacuum(np.int64(2)).n_modes == 2
    assert gw.symplectic_form(np.int32(1)).shape == (2, 2)
    assert gw.fock_number_state(np.int64(1), np.uint8(3)).matrix[1, 1] == 1.0
    assert gw.thermal_loss_kraus(0.8, 0.1, np.int16(4), np.int64(2)).max_mn == 2
    assert gw.partial_trace(gw.tensor([gw.thermal(1.0), gw.thermal(2.0)]), np.array([1])).cm[0, 0] == 2.5


@pytest.mark.parametrize("value", ["true", "1.5", "0"])
def test_a_state_document_counts_modes_by_the_rule(value):
    # A JSON number with a point is a float; an integral one (2.0) is read as 2 on purpose (README "Command line").
    message = f"modes must be an integer in [1, inf), got {value.capitalize()}"
    with pytest.raises(cli.StateValidationError, match=f"^{re.escape(message)}$"):
        cli.parse_state(f'{{"modes": {value}, "covariance": [0.5, 0, 0, 0.5]}}')
