import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gausswork as gw
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
    state = gw.two_mode_squeezed(0.8)
    text = cli.serialize_state(state)
    again = cli.serialize_state(cli.parse_state(text))
    assert text == again


def test_work_command(capsys):
    code, out, _ = run_cli(capsys, "work", "--state", "preset:tms:1")
    assert code == 0
    quadratic = float(out.splitlines()[0].split()[-1])
    assert quadratic == pytest.approx(2 * math.sinh(1.0) ** 2, rel=1e-9)


def test_activity_command_reports_spectrum(capsys):
    code, out, _ = run_cli(capsys, "activity", "--state", "preset:tms:0.5", "--json")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["activity"] == pytest.approx(gw.preset_activity("tms", 0.5), abs=1e-12)
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
    assert record["outputs"]["activity"] == pytest.approx(gw.preset_activity("fock", 2), abs=1e-9)


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


def test_freecheck_free_state(capsys):
    code, out, _ = run_cli(capsys, "freecheck", "--state", "preset:thermal:2", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["outputs"]["spectral_free"] is True


def test_invalid_state_exits_2(capsys):
    code, _, err = run_cli(capsys, "work", "--state", '{"modes": 1, "covariance": [0.4, 0, 0, 0.4]}')
    assert code == 2
    assert "0.4" in err


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


def test_json_records_are_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "activity", "--state", "preset:tms:0.4", "--seed", "7", "--json")
    _, out2, _ = run_cli(capsys, "activity", "--state", "preset:tms:0.4", "--seed", "7", "--json")
    assert out1 == out2


def test_json_floats_roundtrip_losslessly(capsys):
    _, out, _ = run_cli(capsys, "work", "--state", "preset:squeezed:0.83", "--json")
    record = json.loads(out)
    value = record["outputs"]["quadratic"]
    assert value == float(repr(value))
    assert json.loads(json.dumps(record)) == record


def test_import_loads_no_scipy():
    probe = "import gausswork.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
