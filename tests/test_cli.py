import importlib
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
    cm = gw.two_mode_squeezed(0.7).cm
    assert 0.0 <= record["outputs"]["williamson_residual"] <= gw.symplectic.TOL_RECON * max(1.0, np.linalg.norm(cm))


def test_decompose_reuses_the_validated_spectrum(capsys, monkeypatch):
    # One eigh of cm at validation, one of its companion in Williamson, one in bloch_messiah.
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    code, _, _ = run_cli(capsys, "decompose", "--state", "preset:tms:0.5", "--json")
    assert code == 0
    assert len(calls) == 3


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
    "argv",
    [
        ["work", "--state", "preset:fock:2"],
        ["entropy", "--state", "preset:fock:2"],
        ["relent", "--state", "preset:vacuum", "--state2", "preset:fock:1"],
        ["decompose", "--state", "preset:fock:2"],
        ["freecheck", "--state", "preset:fock:2"],
        ["channel", "--state", "preset:fock:2", "--eta", "0.8"],
    ],
    ids=lambda argv: argv[0],
)
def test_gaussian_commands_refuse_fock_states(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--fock-dim", "8")
    assert code == 2
    assert out == ""
    assert "expects a Gaussian state" in err


def test_non_finite_covariance_exits_2_with_a_clear_message(capsys):
    code, out, err = run_cli(capsys, "work", "--state", '{"modes": 1, "covariance": [NaN, 0, 0, 1]}')
    assert code == 2
    assert out == ""
    assert err == "error: covariance matrix must be finite\n"


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
    """ActivityReport gaussian_coherence local_activity photon_overlap_matrix preset_activity
    relaxed_subadditivity_gap DistillationOutcome activity_distillation_demo
    conversion_rate_bound dft_unitary process_two_copies_single_mode work_swap_demo FockDensity
    KrausSet apply_kraus_channel bs_matrix_element fock_from_gaussian fock_moments
    fock_number_state fock_postselect_demo fock_single_mode_activity fock_thermal
    gaussian_postselect phase_space_loss_channel thermal_loss_kraus FreeCovariance
    FreenessReport convex_combine free_cm is_free_cm GaussianState apply_gaussian_unitary coherent
    energy gibbs_matrix make_state mean_photon_numbers mutual_information partial_trace
    relative_entropy squeezed tensor thermal thermal_entropy two_mode_squeezed vacuum
    von_neumann_entropy BeamSplitter BlochMessiahDecomposition PassiveCircuit PhaseShifter
    WilliamsonDecomposition bloch_messiah compile_passive_circuit is_orthosymplectic
    is_symplectic rotation squeezer squeezer_direct_sum symplectic_eigenvalues symplectic_form
    symplectic_trace unitary_to_orthosymplectic validate_cm williamson ExtractionProtocol
    WorkReport extractable_work extraction_protocol is_work_free quadratic_work
    superadditivity_gap""".split()
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
    ],
    ids=["every-layer", "namespace", "parser", "entropy"],
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
    assert set(names) == PUBLIC and len(names) == len(PUBLIC) == 79
    assert sorted(exported) == sorted(PUBLIC)
    assert set(star) == PUBLIC
    for name in PUBLIC - set(LAYERS):
        value = getattr(gw, name)
        assert value.__module__ in {f"gausswork.{layer}" for layer in LAYERS}, name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    for layer in LAYERS:
        assert getattr(gw, layer) is importlib.import_module(f"gausswork.{layer}")
    with pytest.raises(AttributeError, match=r"^module 'gausswork' has no attribute 'no_such_name'$"):
        gw.no_such_name
