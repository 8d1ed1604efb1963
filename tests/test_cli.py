import dataclasses
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gausswork as gw
from conftest import preset_activity
from gausswork import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_preset_inline():
    state = cli.parse_state("preset:thermal:1")
    np.testing.assert_allclose(state.cm, 1.5 * np.eye(2))


def test_parse_fock_preset_returns_density():
    rho = cli.parse_state("preset:fock:2", fock_dim=30)
    assert isinstance(rho, gw.FockDensity)
    assert rho.matrix[2, 2] == pytest.approx(1.0)


def test_parse_explicit_document(tmp_path):
    doc = {"modes": 1, "displacement": [0.0, 0.0], "covariance": [0.5, 0.0, 0.0, 0.5]}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    state = cli.parse_state(str(path))
    np.testing.assert_allclose(state.cm, 0.5 * np.eye(2))


def test_parse_inline_json():
    state = cli.parse_state('{"preset": "tms", "r": 0.5}')
    np.testing.assert_allclose(state.cm, gw.two_mode_squeezed(0.5).cm)


def test_parse_reports_min_symplectic_eigenvalue():
    with pytest.raises(cli.StateValidationError, match="0.4"):
        cli.parse_state('{"modes": 1, "covariance": [0.4, 0, 0, 0.4]}')


def test_parse_malformed_document():
    with pytest.raises(cli.StateParseError, match="malformed"):
        cli.parse_state('{"modes": 1}')


def test_serialize_roundtrip_idempotent():
    def document(state):
        return json.dumps({"modes": state.n_modes, "displacement": state.displacement.tolist(),
                           "covariance": state.cm.reshape(-1).tolist()})

    text = document(gw.two_mode_squeezed(0.8))
    assert document(cli.parse_state(text)) == text


def test_work_command(capsys):
    code, out, _ = run_cli(capsys, "work", "--state", "preset:tms:1")
    assert code == 0
    quadratic = float(out.splitlines()[0].split()[-1])
    assert quadratic == pytest.approx(2 * math.sinh(1.0) ** 2, rel=1e-9)


def test_activity_command_reports_spectrum(capsys):
    code, out, _ = run_cli(capsys, "activity", "--state", "preset:tms:0.5", "--json")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["activity"] == pytest.approx(preset_activity("tms", 0.5), abs=1e-12)
    assert outputs["certified"] is True
    np.testing.assert_allclose(outputs["b"], [math.cosh(1.0) / 2] * 2, atol=1e-12)
    assert {"theta", "delta_phi", "eig_residual"} <= outputs.keys()

    code, out, _ = run_cli(capsys, "activity", "--state", "preset:squeezed:0.5", "--json")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["b"] == pytest.approx([math.sinh(0.5) ** 2 + 0.5], abs=1e-12)
    assert "theta" not in outputs and "delta_phi" not in outputs


def test_demo_distill_activity(capsys):
    code, out, _ = run_cli(capsys, "demo", "distill-activity", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["outputs"]["input_activity"] == pytest.approx(0.7621, abs=2e-3)
    assert record["outputs"]["output_activity"] == pytest.approx(1.0019, abs=2e-3)


def test_activity_fock_preset(capsys):
    code, out, _ = run_cli(
        capsys, "activity", "--state", "preset:fock:2", "--fock-dim", "60", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["outputs"]["activity"] == pytest.approx(preset_activity("fock", 2), abs=1e-9)
    # The Fock route reports through local_activity too: certificate, occupancy, residual and leak.
    assert record["outputs"]["certified"] is True and record["outputs"]["route"] == "fock"
    assert record["outputs"]["b"] == [pytest.approx(2.5, abs=1e-14)] and record["outputs"]["leak"] == 0.0
    assert 0.0 <= record["outputs"]["eig_residual"] < 1e-12


def test_relent_command(capsys):
    code, out, _ = run_cli(
        capsys, "relent", "--state", "preset:vacuum", "--state2", "preset:thermal:1", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["outputs"]["relative_entropy"] == pytest.approx(math.log(2), abs=1e-12)


def test_channel_phase_space(capsys):
    code, out, _ = run_cli(
        capsys, "channel", "--state", "preset:vacuum", "--eta", "0.6", "--nbar-bath", "1.2", "--json"
    )
    assert code == 0
    record = json.loads(out)
    cov = np.array(record["outputs"]["covariance"]).reshape(2, 2)
    np.testing.assert_allclose(cov, ((1 - 0.36) * 1.2 + 0.5) * np.eye(2), atol=1e-12)


def test_decompose_command(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--state", "preset:tms:0.7", "--json")
    assert code == 0
    record = json.loads(out)
    np.testing.assert_allclose(record["outputs"]["symplectic_eigenvalues"], [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(
        sorted(record["outputs"]["bm_squeezing"], reverse=True), [0.7, 0.7], atol=1e-9
    )
    cm = gw.two_mode_squeezed(0.7).cm
    assert 0.0 <= record["outputs"]["williamson_residual"] <= gw.symplectic.TOL_PHYS * max(1.0, np.linalg.norm(cm))


def test_decompose_accepts_a_weak_squeezing(capsys):
    # r = 5e-9 lies below eigh's resolution of the squeezed and unsqueezed eigenvectors of S S^T.  The split
    # printed is the one S was built from, so it reads r and leaves no squeezing in bm_o_in.
    code, out, _ = run_cli(capsys, "decompose", "--state", "preset:squeezed:5e-9", "--json")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    np.testing.assert_allclose(outputs["symplectic_eigenvalues"], [0.5], atol=1e-12)
    assert outputs["williamson_residual"] <= gw.symplectic.TOL_PHYS
    np.testing.assert_allclose(outputs["bm_squeezing"], [5e-9], rtol=0, atol=1e-15)
    assert gw.is_orthosymplectic(np.array(outputs["bm_o_in"]))


def test_decompose_reuses_the_validated_spectrum(capsys, monkeypatch):
    # Validation: one eigh of cm and one values-only SVD of K; Williamson: one SVD of K with vectors,
    # one eigh of S S^T and one of the free remainder, whose split is the Bloch-Messiah one.  No complex
    # solver, no second spectrum.
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _solver=solver, **kwargs):
            calls.append((_name, np.iscomplexobj(a), kwargs.get("compute_uv", _name != "eigvalsh")))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    code, _, _ = run_cli(capsys, "decompose", "--state", "preset:tms:0.5", "--json")
    assert code == 0
    assert calls == [
        ("eigh", False, True), ("svd", False, False), ("svd", False, True),
        ("eigh", False, True), ("eigh", False, True),
    ]


def test_decompose_emits_the_symplectic_residual(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--state", "preset:tms:0.7", "--json")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    s = np.array(outputs["symplectic"])
    omega = gw.symplectic_form(2)
    residual = np.linalg.norm(s @ omega @ s.T - omega)
    assert outputs["symplectic_residual"] == pytest.approx(residual, rel=1e-6, abs=1e-15)
    assert outputs["symplectic_residual"] < gw.symplectic.TOL_SYMP * max(1.0, np.linalg.norm(s) ** 2)
    kept = {"symplectic_eigenvalues", "symplectic", "bm_o_out", "bm_squeezing", "bm_o_in", "williamson_residual"}
    assert kept <= outputs.keys()


def test_sweep_command(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kind", "nogo", "--count", "50", "--seed", "3", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["outputs"]["max_activity_gain"] <= 1e-9
    assert record["outputs"]["max_work_gain"] <= 1e-9


def test_entropy_command(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--state", "preset:thermal:1", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["outputs"]["entropy"] == pytest.approx(2 * math.log(2), abs=1e-12)


def test_demo_distill_work(capsys):
    code, out, _ = run_cli(capsys, "demo", "distill-work", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["outputs"]["output_pair_work"] == pytest.approx(2 * math.sinh(1.0) ** 2, abs=1e-9)
    assert record["outputs"]["input_pair_work"] == pytest.approx(math.sinh(1.0) ** 2, abs=1e-9)


def test_demo_fock_postselect(capsys):
    code, out, _ = run_cli(capsys, "demo", "fock-postselect", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["outputs"]["probability"] == pytest.approx(0.5, abs=1e-12)
    assert record["outputs"]["fidelity_two_photon"] == pytest.approx(1.0, abs=1e-12)


def test_channel_kraus_route(capsys):
    code, out, _ = run_cli(
        capsys,
        "channel",
        "--state",
        "preset:thermal:1",
        "--eta",
        "0.8",
        "--nbar-bath",
        "0.5",
        "--kraus",
        "--max-mn",
        "40",
        "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["outputs"]["output_nbar"] == pytest.approx(0.82, abs=1e-6)
    assert 0.0 < record["outputs"]["unitarity_residual"] < 1e-10
    assert 0.0 <= record["outputs"]["input_leak"] < 1e-6


def test_channel_kraus_refuses_multimode_state(capsys):
    code, _, err = run_cli(capsys, "channel", "--state", "preset:tms:0.5", "--eta", "0.8", "--kraus")
    assert code == cli.EXIT_INVALID
    assert "the Kraus channel acts on one mode, got 2" in err


def test_channel_kraus_refuses_an_oversize_set_before_building_it(capsys):
    argv = ["--state", "preset:fock:1", "--fock-dim", "2048", "--max-mn", "2048", "--eta", "0.8", "--kraus"]
    code, out, err = run_cli(capsys, "channel", *argv)
    assert (code, out) == (cli.EXIT_INVALID, "")
    assert err == "error: beam-splitter recurrence to N = 2047 needs 2865409024 entries, above the budget of 4194304\n"


def test_freecheck_free_state(capsys):
    code, out, _ = run_cli(capsys, "freecheck", "--state", "preset:thermal:2", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["outputs"]["spectral_free"] is True


def test_invalid_state_exits_2(capsys):
    code, _, err = run_cli(capsys, "work", "--state", '{"modes": 1, "covariance": [0.4, 0, 0, 0.4]}')
    assert code == 2
    assert "0.4" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["work", "--state", "preset:fock:2"], None),
        (["entropy", "--state", "preset:fock:2"], None),
        (["relent", "--state", "preset:vacuum", "--state2", "preset:fock:1"],
         "relative_entropy sigma takes a GaussianState, got FockDensity"),
        (["decompose", "--state", "preset:fock:2"], None),
        (["freecheck", "--state", "preset:fock:2"], None),
        (["channel", "--state", "preset:fock:2", "--eta", "0.8"],
         "phase_space_loss_channel takes a GaussianState, got FockDensity"),
        (["relent", "--state", "preset:fock:2", "--state2", "preset:thermal:1"], None),
    ],
    ids=["work", "entropy", "relent", "decompose", "freecheck", "channel", "relent-fock-state"],
)
def test_gaussian_commands_refuse_fock_states(capsys, argv, message):
    """Only a Fock --state2 of relent and the phase-space channel refuse a density, each with its library call's
    message; every other state command reads a density as its library call does."""
    code, out, err = run_cli(capsys, *argv, "--fock-dim", "8")
    if message is None:
        assert (code, err) == (0, "") and out
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_non_finite_covariance_exits_2_with_a_clear_message(capsys):
    code, out, err = run_cli(capsys, "work", "--state", '{"modes": 1, "covariance": [NaN, 0, 0, 1]}')
    assert code == 2
    assert out == ""
    assert err == "error: covariance matrix must be a finite real square matrix of even size, got a non-finite entry\n"


def test_unknown_command_exits_64(capsys):
    for argv in (
        ["frobnicate"],
        ["demo", "distill-work", "--tol", "1e-3"],
        ["work", "--state", "preset:vacuum", "--tol", "1e-3"],
        ["demo", "fock-postselect", "--fock-dim", "60"],
        ["sweep", "--count", "2", "--fock-dim", "60"],
    ):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 64, argv


def record_of(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


ACTIVITY_KEYS = {"activity", "certified", "coherence", "b", "eig_residual"}
KRAUS_KEYS = {"route", "output_nbar", "output_trace", "input_leak", "completeness_deficit", "unitarity_residual"}
DECOMPOSE_KEYS = {
    "symplectic_eigenvalues",
    "symplectic",
    "bm_o_out",
    "bm_squeezing",
    "bm_o_in",
    "williamson_residual",
    "symplectic_residual",
}


@pytest.mark.parametrize(
    "argv, command, keys",
    [
        (["activity", "--state", "preset:squeezed:0.5"], "activity", ACTIVITY_KEYS),
        (["activity", "--state", "preset:tms:0.5"], "activity", ACTIVITY_KEYS | {"theta", "delta_phi"}),
        (
            ["activity", "--state", "preset:fock:2", "--fock-dim", "20"],
            "activity",
            {"activity", "certified", "coherence", "b", "eig_residual", "route", "leak"},
        ),
        (["work", "--state", "preset:tms:0.5"], "work", {"quadratic", "displacement", "total"}),
        (["entropy", "--state", "preset:thermal:1"], "entropy", {"entropy"}),
        (["decompose", "--state", "preset:tms:0.5"], "decompose", DECOMPOSE_KEYS),
        (["relent", "--state", "preset:vacuum", "--state2", "preset:thermal:1"], "relent", {"relative_entropy"}),
        (["relent", "--state", "preset:thermal:1", "--state2", "preset:vacuum"], "relent", {"relative_entropy"}),
        (["freecheck", "--state", "preset:thermal:2"], "freecheck", {"spectral_free", "structural_form", "gap"}),
        (["channel", "--state", "preset:vacuum", "--eta", "0.6"], "channel", {"route", "displacement", "covariance"}),
        (["channel", "--state", "preset:thermal:1", "--eta", "0.8", "--kraus"], "channel", KRAUS_KEYS),
        (
            ["demo", "distill-activity"],
            "demo distill-activity",
            {"input_activity", "output_activity", "output_covariance"},
        ),
        (["demo", "distill-work"], "demo distill-work", {"input_pair_work", "output_pair_work"}),
        (
            ["demo", "fock-postselect"],
            "demo fock-postselect",
            {"probability", "fidelity_two_photon", "activity_gain"},
        ),
        (["sweep", "--count", "3"], "sweep nogo", {"instances", "max_activity_gain", "max_work_gain"}),
    ],
    ids=[
        "activity-1mode",
        "activity-2mode",
        "activity-fock",
        "work",
        "entropy",
        "decompose",
        "relent-finite",
        "relent-inf",
        "freecheck",
        "channel-phase-space",
        "channel-kraus",
        "demo-distill-activity",
        "demo-distill-work",
        "demo-fock-postselect",
        "sweep",
    ],
)
def test_every_route_emits_one_record_shape(capsys, argv, command, keys):
    record = record_of(capsys, *argv)
    assert record.keys() == {"command", "inputs_digest", "outputs", "seed", "version"}
    assert record["command"] == command
    assert record["outputs"].keys() == keys
    # Only sweep reads a seed; every other record carries null.
    assert record["version"] == gw.__version__ and record["seed"] == (0 if command == "sweep nogo" else None)
    if argv[-1] == "preset:vacuum":
        assert record["outputs"]["relative_entropy"] == "inf"


def test_uncertified_activity_prints_its_record_and_exits_3(capsys, monkeypatch):
    certified = gw.local_activity
    monkeypatch.setattr(gw, "local_activity", lambda state: dataclasses.replace(certified(state), certified=False))
    code, out, err = run_cli(capsys, "activity", "--state", "preset:tms:0.5", "--json")
    assert (code, err) == (cli.EXIT_UNCERTIFIED, "")
    assert json.loads(out)["outputs"]["certified"] is False
    code, out, err = run_cli(capsys, "activity", "--state", "preset:tms:0.5")
    assert (code, err) == (3, "")
    assert "certified     False" in out


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["channel", "--state", "preset:thermal:1", "--eta", "0.8"], ["--kraus"]),
        (["work", "--state", "preset:tms:0.5"], ["--fock-dim", "30"]),
    ],
    ids=["kraus", "fock-dim"],
)
def test_inputs_digest_covers_every_parsed_argument(capsys, argv, extra):
    assert record_of(capsys, *argv)["inputs_digest"] != record_of(capsys, *argv, *extra)["inputs_digest"]


def test_inputs_digest_leaves_the_seed_to_its_own_field(capsys):
    one = record_of(capsys, "sweep", "--count", "2", "--seed", "1")
    two = record_of(capsys, "sweep", "--count", "2", "--seed", "2")
    assert one["inputs_digest"] == two["inputs_digest"]
    assert (one["seed"], two["seed"]) == (1, 2)


def test_inputs_digest_covers_the_document_of_a_state_file(capsys, tmp_path):
    path = tmp_path / "state.json"
    digests = []
    for nbar in (1.0, 2.0):
        path.write_text(json.dumps({"preset": "thermal", "nbar": nbar}))
        digests.append(record_of(capsys, "entropy", "--state", str(path))["inputs_digest"])
    assert digests[0] != digests[1]


def test_inputs_digest_covers_the_document_parsed_from_a_state_file(capsys, tmp_path, monkeypatch):
    """A state file rewritten while the command runs: the digest is that of the document parsed."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"preset": "thermal", "nbar": 1.0}))
    expected = record_of(capsys, "entropy", "--state", str(path))["inputs_digest"]
    entropy = gw.von_neumann_entropy

    def rewrite_then_entropy(state):
        path.write_text(json.dumps({"preset": "thermal", "nbar": 2.0}))
        return entropy(state)

    monkeypatch.setattr(gw, "von_neumann_entropy", rewrite_then_entropy)
    record = record_of(capsys, "entropy", "--state", str(path))
    assert record["inputs_digest"] == expected
    assert record["outputs"]["entropy"] == entropy(gw.thermal(1.0))


def test_inputs_digest_of_inline_and_preset_states_is_unchanged(capsys):
    """An inline document or a preset: shorthand enters the digest as given, so these digests stay fixed."""
    assert record_of(capsys, "work", "--state", "preset:tms:0.5")["inputs_digest"] == "d6e132d7a5e90019"
    inline = record_of(capsys, "relent", "--state", '{"preset": "vacuum"}', "--state2", "preset:thermal:1")
    assert inline["inputs_digest"] == "39a6f54966ac0f1d"


@pytest.mark.parametrize(
    "shorthand, message",
    [
        ("preset:thermal:1,7", "preset 'thermal' takes at most 1 value(s), got 2"),
        ("preset:tms:0.5,1,2", "preset 'tms' takes at most 1 value(s), got 3"),
        ("preset:coherent:1,2,3", "preset 'coherent' takes at most 2 value(s), got 3"),
    ],
)
def test_shorthand_refuses_more_values_than_its_preset_takes(capsys, shorthand, message):
    code, out, err = run_cli(capsys, "work", "--state", shorthand)
    assert (code, out, err) == (cli.EXIT_INVALID, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "state, message",
    [
        ("preset:fock:1.5", "photon number must be an integer in [0, 39], got 1.5"),
        ('{"preset": "fock", "n": 2.7}', "photon number must be an integer in [0, 39], got 2.7"),
        ("preset:vacuum:1.5", "number of modes must be an integer in [1, inf), got 1.5"),
        ('{"preset": "vacuum", "modes": true}', "number of modes must be an integer in [1, inf), got True"),
        ('{"modes": 1.5, "covariance": [1, 0, 0, 1]}', "modes must be an integer in [1, inf), got 1.5"),
    ],
)
def test_a_count_that_is_not_an_integer_exits_2(capsys, state, message):
    code, out, err = run_cli(capsys, "activity", "--state", state)
    assert (code, out, err) == (cli.EXIT_INVALID, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "state, message",
    [
        ('{"preset": "squeezed", "r": 400.0}', "squeezing must be a real number in [-177, 177], got 400.0"),
        ('{"preset": "squeezed", "r": 400}', "squeezing must be a real number in [-177, 177], got 400"),
        ("preset:squeezed:400", "squeezing must be a real number in [-177, 177], got 400"),
        ("preset:squeezed:400.0", "squeezing must be a real number in [-177, 177], got 400.0"),
        ("preset:thermal:-1", "mean photon number must be a real number in [0, inf), got -1"),
        ('{"preset": "tms", "r": -4e2}', "squeezing must be a real number in [-177, 177], got -400.0"),
    ],
)
def test_a_refused_real_preset_value_is_echoed_as_written(capsys, state, message):
    # Only a count reads an integral float as an int: a real parameter meets its rule, and is named, as written.
    code, out, err = run_cli(capsys, "entropy", "--state", state)
    assert (code, out, err) == (cli.EXIT_INVALID, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "state, n_modes",
    [
        ("preset:vacuum:2", 2),
        ('{"preset": "vacuum", "modes": 2.0}', 2),
        ('{"modes": 1.0, "covariance": [1, 0, 0, 1]}', 1),
    ],
)
def test_an_integral_float_count_is_accepted(state, n_modes):
    assert cli.parse_state(state).n_modes == n_modes


def test_an_integral_float_photon_number_is_accepted():
    rho = cli.parse_state('{"preset": "fock", "n": 2.0}', fock_dim=5)
    assert rho.matrix[2, 2] == 1.0


@pytest.mark.parametrize("argv", [["work", "--state", "preset:vacuum"], ["demo", "distill-work"]])
def test_only_sweep_takes_a_seed(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "1")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert "unrecognized arguments: --seed 1" in err


def test_sweep_refuses_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, "sweep", "--count", "2", "--seed", "-1", "--json")
    assert (code, out) == (cli.EXIT_INVALID, "")
    assert err == "error: --seed must be an integer in [0, inf), got -1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("preset:squeezd:0.5", "unknown preset 'squeezd'"),
        ('{"modes": 1, "covariance": [0.5, 0, 0]}', "4\\*N\\^2 = 4 entries, got 3"),
    ],
)
def test_parse_refusals(text, message):
    with pytest.raises(cli.StateParseError, match=message):
        cli.parse_state(text)


PRESETS = "fock, vacuum, thermal, coherent, squeezed, tms"


@pytest.mark.parametrize(
    "shorthand, document, message",
    [
        ("preset:cat", '{"preset": "cat"}', f"unknown preset 'cat'; choose from {PRESETS}"),
        ("preset:cat:1", '{"preset": "cat", "r": 1}', f"unknown preset 'cat'; choose from {PRESETS}"),
        (None, '{"preset": "fock", "n": 2, "dim": 3}', "preset 'fock' takes no parameter 'dim'; it takes n"),
        (None, '{"preset": "squeezed", "r": 1, "t": 0}', "preset 'squeezed' takes no parameter 't'; it takes r, phi"),
        ("preset:squeezed", '{"preset": "squeezed", "phi": 0.3}', "preset 'squeezed' needs parameter 'r'"),
        ("preset:thermal", '{"preset": "thermal"}', "preset 'thermal' needs parameter 'nbar'"),
    ],
    ids=[
        "unknown-preset",
        "unknown-preset-with-values",
        "unknown-parameter-fock-dim",
        "unknown-parameter",
        "missing-parameter",
        "missing-only-parameter",
    ],
)
def test_both_state_inputs_share_one_preset_refusal(capsys, shorthand, document, message):
    """The shorthand and the JSON document of one fault give one text.

    The shorthand names no parameter, so it cannot hold an unknown one: those rows run the document alone.
    """
    for text in filter(None, (shorthand, document)):
        with pytest.raises(cli.StateParseError) as refused:
            cli.parse_state(text)
        assert str(refused.value) == message
        code, out, err = run_cli(capsys, "activity", "--state", text)
        assert (code, out, err) == (cli.EXIT_INVALID, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "state, message",
    [
        # The shorthand's re,im with text in it hands the text on, as the document does.
        ("preset:coherent:1,x", "each part of the coherent amplitude must be a real number in (-inf, inf), got 'x'"),
        # A preset parameter is a JSON number: numeric text is no number to its builder either.
        ('{"preset": "thermal", "nbar": "1"}', "mean photon number must be a real number in [0, inf), got '1'"),
        ('{"preset": "fock", "n": "2"}', "photon number must be an integer in [0, 39], got '2'"),
    ],
    ids=["coherent-re-im-text", "numeric-text", "numeric-text-fock"],
)
def test_a_preset_value_meets_its_builders_rule(capsys, state, message):
    # Every other wrong value of each preset parameter is a row of tests/test_argument_rules.py.
    with pytest.raises(cli.StateValidationError, match=f"^{re.escape(message)}$"):
        cli.parse_state(state)
    assert run_cli(capsys, "activity", "--state", state) == (cli.EXIT_INVALID, "", f"error: {message}\n")


def test_parse_coherent_shorthand_takes_real_and_imaginary_parts():
    state = cli.parse_state("preset:coherent:1,-2")
    np.testing.assert_allclose(state.displacement, np.sqrt(2.0) * np.array([1.0, -2.0]))


@pytest.mark.parametrize("count", ["0", "-3"])
def test_sweep_refuses_a_count_below_one(capsys, count):
    # --count 0 used to print -Infinity, which is not JSON.
    code, out, err = run_cli(capsys, "sweep", f"--count={count}", "--json")
    assert (code, out) == (cli.EXIT_INVALID, "")
    assert err == f"error: --count must be an integer in [1, inf), got {count}\n"


def test_json_records_are_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "activity", "--state", "preset:tms:0.4", "--json")
    _, out2, _ = run_cli(capsys, "activity", "--state", "preset:tms:0.4", "--json")
    assert out1 == out2


def test_decompose_record_with_residual_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "decompose", "--state", "preset:tms:0.4", "--json")
    _, out2, _ = run_cli(capsys, "decompose", "--state", "preset:tms:0.4", "--json")
    assert out1 == out2
    assert "williamson_residual" in json.loads(out1)["outputs"]


def test_json_floats_roundtrip_losslessly(capsys):
    _, out, _ = run_cli(capsys, "work", "--state", "preset:squeezed:0.83", "--json")
    record = json.loads(out)
    value = record["outputs"]["quadratic"]
    assert value == float(repr(value))
    assert json.loads(json.dumps(record)) == record


LAYERS = ("activity", "distill", "fock", "free", "states", "symplectic", "work")

# The public namespace: every layer function and class, then the layers.
PUBLIC = set(
    """ActivityReport gaussian_coherence local_activity photon_overlap_matrix
    relaxed_subadditivity_gap DistillationOutcome activity_distillation_demo
    dft_unitary process_two_copies_single_mode work_swap_demo FockDensity
    KrausSet apply_kraus_channel fock_from_gaussian fock_moments
    fock_number_state fock_postselect_demo fock_single_mode_activity fock_thermal
    gaussian_postselect phase_space_loss_channel thermal_loss_kraus FreeCovariance
    FreenessReport free_cm is_free_cm GaussianState apply_gaussian_unitary coherent
    energy mean_photon_numbers mutual_information partial_trace
    relative_entropy squeezed tensor thermal thermal_entropy two_mode_squeezed vacuum
    von_neumann_entropy BeamSplitter BlochMessiahDecomposition PassiveCircuit PhaseShifter
    WilliamsonDecomposition bloch_messiah compile_passive_circuit is_orthosymplectic
    is_symplectic rotation squeezer_direct_sum symplectic_eigenvalues symplectic_form
    unitary_to_orthosymplectic validate_cm williamson ExtractionProtocol WorkReport
    extractable_work extraction_protocol superadditivity_gap""".split()
) | set(LAYERS)


def run_probe(probe):
    """Run ``probe`` in a fresh interpreter with this checkout's sources; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "probe, package, absent",
    [
        # Every layer, reached through the namespace, runs on numpy alone.
        (
            f"import gausswork, gausswork.cli\nfor layer in {LAYERS!r}: getattr(gausswork, layer)",
            {"gausswork", "gausswork.cli", *(f"gausswork.{layer}" for layer in LAYERS)},
            {"scipy"},
        ),
        ("import gausswork", {"gausswork"}, {"numpy"}),
        (
            "import gausswork.cli\ngausswork.cli.build_parser()",
            {"gausswork", "gausswork.cli"},
            {"hashlib", "_hashlib"},
        ),
        (
            "import gausswork.cli\ngausswork.cli.main(['entropy', '--state', 'preset:squeezed:0.3'])",
            None,
            {"gausswork.fock", "gausswork.distill"},
        ),
        # The Fock layer loads only for a FockDensity.
        (
            "import gausswork.cli\ngausswork.cli.main(['activity', '--state', 'preset:tms:0.5'])",
            None,
            {"gausswork.fock", "gausswork.distill"},
        ),
        # The entry budget sits with the argument rules: a Gaussian builder checks its size without the Fock layer.
        (
            "import gausswork as gw\ngw.vacuum(2), gw.symplectic_form(2), gw.dft_unitary(2)\n"
            "gw.compile_passive_circuit(gw.PassiveCircuit(2))",
            None,
            {"gausswork.fock"},
        ),
    ],
    ids=["every-layer", "namespace", "parser", "entropy", "activity", "count-sized-builders"],
)
def test_import_loads_no_scipy(probe, package, absent):
    """Each call loads the gausswork modules ``package`` (when given) and no ``absent`` module."""
    out = run_probe(f"{probe}\nimport sys\nprint('MODULES', *sorted(sys.modules))")
    loaded = set(out.split("MODULES", 1)[1].split())
    if package is not None:
        assert {m for m in loaded if m.split(".")[0] == "gausswork"} == package
    assert not {m for m in loaded if m.split(".")[0] in absent or m in absent}


def test_namespace_matches_layer_exports():
    probe = (
        "import json, gausswork\n"
        "names = [n for n in dir(gausswork) if not n.startswith('_')]\n"
        "star = {}\n"
        "exec('from gausswork import *', star)\n"
        "print(json.dumps([names, gausswork.__all__, sorted(set(star) - {'__builtins__'})]))"
    )
    names, exported, star = json.loads(run_probe(probe))
    assert set(names) == PUBLIC and len(names) == len(PUBLIC) == 69
    assert sorted(exported) == sorted(PUBLIC)
    assert set(star) == PUBLIC
    for name in PUBLIC - set(LAYERS):
        value = getattr(gw, name)
        assert value.__module__ in {f"gausswork.{layer}" for layer in LAYERS}, name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    for layer in LAYERS:
        assert getattr(gw, layer) is importlib.import_module(f"gausswork.{layer}")
    for gone in ("no_such_name", "bs_matrix_element"):  # the checked beam-splitter blocks are read in fock alone
        with pytest.raises(AttributeError, match=f"^module 'gausswork' has no attribute '{gone}'$"):
            getattr(gw, gone)
