"""Self-tests of the benchmark's oracles: each accepts a right result and
rejects a perturbed one, so a zero failure count means something.

    python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gausswork as gw  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

OFF = Tracer(False)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_gaussian_check_rejects_perturbed_results(rng, n):
    inp = wl.random_state(rng, n, pure=False, r_max=wl.GAUSS_R_MAX)
    out = wl.gaussian_op(OFF, inp)
    assert wl.check_gaussian(inp, out) == []

    shift = 1e-6 * (1.0 + wl.energy(inp.d, inp.cm))
    bad = dict(out, relent=out["relent"] + shift)
    assert wl.check_gaussian(inp, bad)
    work = out["work"]
    bad = dict(out, work=dataclasses.replace(work, total=work.total + shift))
    assert wl.check_gaussian(inp, bad)
    bad = dict(out, work=dataclasses.replace(work, total=-shift))
    assert wl.check_gaussian(inp, bad)
    protocol = out["protocol"]
    not_free = dataclasses.replace(protocol.final_cm, cm=np.array(inp.cm))
    bad = dict(out, protocol=dataclasses.replace(protocol, final_cm=not_free))
    assert wl.check_gaussian(inp, bad)
    if n <= 2:
        bad = dict(out, activity=out["coherence"] + shift)
        assert wl.check_gaussian(inp, bad)


def test_activity_check_rejects_perturbed_results(rng):
    inp = wl.activity_cycle(rng, 0)[0]
    st = gw.GaussianState(inp.d, inp.cm)
    m = gw.photon_overlap_matrix(st) + 0.5 * np.eye(3)
    value = -gw.von_neumann_entropy(st) + float(np.sum(wl.g(np.linalg.eigvalsh(m))))
    good = {"state": st, "report": gw.ActivityReport(value=value), "coherence": gw.gaussian_coherence(st)}
    assert wl.check_activity(inp, good) == []

    assert wl.check_activity(inp, dict(good, report=gw.ActivityReport(value=value + 1e-6)))
    assert wl.check_activity(inp, dict(good, report=gw.ActivityReport(value=value, certified=False)))
    assert wl.check_activity(inp, dict(good, coherence=value - 1e-6))


def test_activity_check_accepts_library_result(rng):
    inp = wl.activity_cycle(rng, 0)[0]
    assert wl.check_activity(inp, wl.activity_op(OFF, inp)) == []


def test_fock_check_rejects_perturbed_results(rng):
    pt = wl.fock_point(rng, 20, 20)
    out = wl.fock_op(OFF, pt)
    assert out["errors"] == []
    assert wl.check_fock(pt, out) == []

    k, st, rho, res, act = out["runs"][0]
    scaled = gw.FockDensity(res.matrix * (1.0 + 1e-6), dim=res.dim)
    assert wl.check_fock(pt, {"runs": [(k, st, rho, scaled, act)]})
    # The unchanneled input has the right trace but the wrong photon number.
    assert wl.check_fock(pt, {"runs": [(k, st, rho, rho, act)]})
    assert wl.check_fock(pt, {"runs": [(k, st, rho, res, float("nan"))]})


@pytest.mark.parametrize("dim, max_mn", wl.FOCK_SIZES)
def test_fock_inputs_are_all_accepted(dim, max_mn):
    # Inputs on which no operation is refused; the refusal of pure squeezed
    # states is measured by fock.pure_squeezed_accept_ratio instead.
    rng = np.random.default_rng(dim + max_mn)
    for _ in range(3):
        pt = wl.fock_point(rng, dim, max_mn)
        out = wl.fock_op(OFF, pt)
        assert out["errors"] == []
        assert wl.check_fock(pt, out) == []


def _cli_result(outputs, code=0):
    return {"code": code, "stdout": json.dumps({"outputs": outputs}), "stderr": ""}


@pytest.mark.parametrize("label", ["work", "activity", "relent", "decompose", "freecheck",
                                   "channel_kraus", "demo_distill_work"])
def test_cli_check_rejects_perturbed_results(rng, label):
    inp = wl.cli_input(rng, label)
    want = wl.cli_expected(inp)
    assert wl.check_cli(inp, _cli_result(want)) == []

    key, value = next((k, v) for k, v in want.items() if not isinstance(v, bool))
    bumped = (np.asarray(value) + 1e-6 * (1.0 + np.abs(value))).tolist()
    assert wl.check_cli(inp, _cli_result(dict(want, **{key: bumped})))
    assert wl.check_cli(inp, _cli_result({k: v for k, v in want.items() if k != key}))
    assert wl.check_cli(inp, {"code": 0, "stdout": "not json", "stderr": ""})


def test_cli_sweep_check_rejects_a_gain(rng):
    inp = wl.cli_input(rng, "sweep_nogo")
    assert wl.check_cli(inp, _cli_result({"max_activity_gain": -0.1, "max_work_gain": 0.0})) == []
    assert wl.check_cli(inp, _cli_result({"max_activity_gain": 1e-6, "max_work_gain": 0.0}))


def test_cli_refusal_fails_the_operation(rng):
    def refusing_cli(argv):
        return {"code": 2, "stdout": "", "stderr": "error: refused"}

    inp = wl.cli_input(rng, "work")
    loop = run.Loop(wl.WORKLOADS["cli_cold"], 0)
    loop.run_one(OFF, refusing_cli, inp)
    assert (loop.attempted, len(loop.failures), loop.wrong) == (1, 1, 0)


def test_wrong_result_counts_as_wrong_and_failed(rng):
    w = dataclasses.replace(wl.WORKLOADS["gaussian_scaling"],
                            check=lambda inp, out: ["deliberately wrong"])
    loop = run.Loop(w, 0)
    loop.run_one(OFF, None, wl.random_state(rng, 1, pure=True, r_max=1.0))
    assert (loop.attempted, len(loop.failures), loop.wrong) == (1, 1, 1)


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == wl.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, u) for m, u, _, _ in run.PER_LAYER]
    assert run.FOCK_SIZES == wl.FOCK_SIZES
