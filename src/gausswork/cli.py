"""Command-line front end.

State inputs are JSON documents (a file path or an inline ``{...}`` string) with either
``{"preset": name, ...params}`` or explicit ``{"modes": N, "displacement": [2N floats],
"covariance": [4N^2 floats, row-major]}``; the shorthand ``preset:name:arg1[,arg2]`` stands for the
preset document, and one table, ``_PRESETS``, builds and refuses both preset forms alike.  Each
command returns its outputs; one emitter prints them as an aligned table, or as a JSON record under
``--json`` that round-trips at full double precision.  Only ``sweep`` takes a ``--seed``; every
other record carries ``"seed": null``.

Exit codes: 0 success, 2 parse/validation failure, 3 activity
eigendecomposition residual above tolerance, 64 usage errors.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

import gausswork as gw

from . import __version__

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNCERTIFIED = 3
EXIT_USAGE = 64

# Each preset's library builder, its parameter names in ``preset:name:a,b`` order and how many lead and are required.
_PRESETS = {
    "fock": ("fock_number_state", ("n",), 1),  # in --fock-dim dimensions
    "vacuum": ("vacuum", ("modes",), 0),
    "thermal": ("thermal", ("nbar",), 1),
    "coherent": ("coherent", ("alpha",), 1),
    "squeezed": ("squeezed", ("r", "phi"), 1),
    "tms": ("two_mode_squeezed", ("r",), 1),
}


class StateParseError(ValueError):
    pass


class StateValidationError(ValueError):
    pass


def _number(text: str):
    """A shorthand value as a float; text that is no number stays text, for the preset check to refuse."""
    try:
        return float(text)
    except ValueError:
        return text


def _shorthand(text: str) -> dict:
    """The ``{"preset": name, ...}`` document that ``preset:name:a,b`` stands for."""
    _, name, *values = text.split(":", 2)
    if name not in _PRESETS:  # refused with the JSON document's message
        return {"preset": name}
    names = _PRESETS[name][1]
    values = [_number(a) for a in values[0].split(",")] if values and values[0] else []
    most = 2 if name == "coherent" else len(names)  # preset:coherent:re,im
    if len(values) > most:
        raise StateParseError(f"preset {name!r} takes at most {most} value(s), got {len(values)}")
    if len(values) == 2 and name == "coherent":  # text that is no number goes on, to be refused
        values = [v for v in values if isinstance(v, str)][:1] or [complex(*values)]
    return {"preset": name, **dict(zip(names, values))}


def _file_document(text: str):
    """The text of the state file ``text`` names; None for a ``preset:`` shorthand or inline JSON."""
    if text.startswith("preset:") or text.lstrip().startswith("{"):
        return None
    with open(text, "r", encoding="utf-8") as fh:
        return fh.read()


def _whole(value):
    """An integral float as an int (the shorthand parses ``preset:fock:2`` as n = 2.0); any other value as is."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def parse_state(text: str, fock_dim: int = 40, document=None):
    """Parse a state argument into a GaussianState or FockDensity; ``document`` is its state file's text, if read."""
    from .symplectic import _check_int

    try:
        doc = _shorthand(text) if text.startswith("preset:") else json.loads(document or _file_document(text) or text)
        if "preset" in doc:
            name, params = doc["preset"], {k: v for k, v in doc.items() if k != "preset"}
            if name not in _PRESETS:
                raise StateParseError(f"unknown preset {name!r}; choose from {', '.join(_PRESETS)}")
            builder, names, required = _PRESETS[name]
            for key in [*params, *names[:required]]:
                if key not in names:
                    raise StateParseError(f"preset {name!r} takes no parameter {key!r}; it takes {', '.join(names)}")
                if key not in params:
                    raise StateParseError(f"preset {name!r} needs parameter {key!r}")
                value = params[key]  # a JSON true is an int to Python, and no number; complex only from re,im
                if isinstance(value, bool) or not isinstance(value, (int, float, complex)):
                    raise StateParseError(f"preset {name!r} parameter {key!r} must be a number, got {value!r}")
            values = [_whole(params[k]) for k in names if k in params]
            return getattr(gw, builder)(*values, *([fock_dim] if name == "fock" else []))
        modes = _check_int(_whole(doc["modes"]), "modes", 1)
        d = np.asarray(doc.get("displacement", [0.0] * (2 * modes)), dtype=float)
        cov = np.asarray(doc["covariance"], dtype=float)
        if cov.size != 4 * modes * modes:
            raise StateParseError(f"covariance must have 4*N^2 = {4 * modes * modes} entries, got {cov.size}")
        return gw.GaussianState(d, cov.reshape(2 * modes, 2 * modes))
    except StateParseError:
        raise
    except (OSError, json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise StateParseError(f"malformed state document: {exc}") from exc
    except ValueError as exc:
        raise StateValidationError(str(exc)) from exc


def _state(args, key="state"):
    """Parse the state argument ``key``; each command refuses what its library call refuses."""
    text = getattr(args, key)
    document = _file_document(text)  # read once: the digest covers a state file as its name and the text parsed
    setattr(args, key, text if document is None else (text, document))
    return parse_state(text, args.fock_dim, document)


def _emit(args, outputs: dict):
    """Print ``outputs`` as an aligned table, or under ``--json`` as the result record."""
    if args.json:
        import hashlib

        # Every parsed argument but the output switch, the seed (a field of its own) and the handler.
        inputs = sorted((k, v) for k, v in vars(args).items() if k not in ("json", "seed", "func"))
        record = {
            "command": " ".join([args.command, *(getattr(args, k) for k in ("which", "kind") if hasattr(args, k))]),
            "inputs_digest": hashlib.sha256(repr(inputs).encode()).hexdigest()[:16],
            "outputs": outputs,
            "version": __version__,
            "seed": getattr(args, "seed", None),
        }
        print(json.dumps(record, indent=2, sort_keys=True))
        return
    width = max(len(k) for k in outputs)
    for key, val in outputs.items():
        if isinstance(val, list):
            val = np.array2string(np.asarray(val), precision=9, suppress_small=True)
        elif isinstance(val, float):
            val = f"{val:.12g}"
        print(f"{key.ljust(width)}  {val}")


def _cmd_activity(args) -> dict:
    state = _state(args)
    report = gw.local_activity(state)
    outputs = {"activity": report.value, "certified": report.certified, "coherence": gw.gaussian_coherence(state),
               "b": report.params["b"].tolist(), "eig_residual": report.params["eig_residual"]}
    if not isinstance(state, gw.GaussianState):
        outputs.update(route="fock", leak=1.0 - state.trace)
    outputs.update((key, report.params[key]) for key in ("theta", "delta_phi") if key in report.params)
    return outputs


def _cmd_work(args) -> dict:
    return asdict(gw.extractable_work(_state(args)))


def _cmd_entropy(args) -> dict:
    return {"entropy": gw.von_neumann_entropy(_state(args))}


def _cmd_relent(args) -> dict:
    value = gw.relative_entropy(_state(args), _state(args, "state2"))
    return {"relative_entropy": value if math.isfinite(value) else "inf"}


def _cmd_decompose(args) -> dict:
    dec = gw.williamson(_state(args))  # reads the kept spectrum; its split is the Bloch-Messiah one
    return {
        "symplectic_eigenvalues": dec.nu.tolist(),
        "symplectic": dec.symplectic.tolist(),
        "bm_o_out": dec.bloch_messiah.o_out.tolist(),
        "bm_squeezing": dec.bloch_messiah.r.tolist(),
        "bm_o_in": dec.bloch_messiah.o_in.tolist(),
        "williamson_residual": dec.residual,
        "symplectic_residual": dec.symplectic_residual,
    }


def _cmd_freecheck(args) -> dict:
    return asdict(gw.is_free_cm(_state(args)))


def _cmd_channel(args) -> dict:
    if not args.kraus:
        out = gw.phase_space_loss_channel(_state(args), args.eta, args.nbar_bath)
        return {
            "route": "phase-space",
            "displacement": out.displacement.tolist(),
            "covariance": out.cm.reshape(-1).tolist(),
        }
    state = _state(args)
    if isinstance(state, gw.GaussianState):
        if state.n_modes != 1:  # refused before a dim^(2N) Fock tensor is built
            raise ValueError(f"the Kraus channel acts on one mode, got {state.n_modes}")
        state = gw.fock_from_gaussian(state, args.fock_dim)
    kraus = gw.thermal_loss_kraus(args.eta, args.nbar_bath, args.fock_dim, args.max_mn)
    out, deficit = gw.apply_kraus_channel(state, kraus)
    return {
        "route": "fock-kraus",
        "output_nbar": float(np.real(np.diag(out.matrix)) @ np.arange(out.dim)),
        "output_trace": out.trace,
        "input_leak": 1.0 - state.trace,
        "completeness_deficit": deficit,
        "unitarity_residual": kraus.unitarity_residual,
    }


def _cmd_demo(args) -> dict:
    if args.which == "distill-activity":
        outcome = gw.activity_distillation_demo()
        return {
            "input_activity": outcome.input_value,
            "output_activity": outcome.output_value,
            "output_covariance": outcome.output_state.cm.reshape(-1).tolist(),
        }
    if args.which == "distill-work":
        outcome = gw.work_swap_demo(gw.squeezed(1.0).cm, gw.vacuum(1).cm)
        return {"input_pair_work": outcome.input_value, "output_pair_work": outcome.output_value}
    output, probability, gain = gw.fock_postselect_demo()
    return {
        "probability": probability,
        "fidelity_two_photon": float(np.real(output.matrix[2, 2])),
        "activity_gain": gain,
    }


def _cmd_sweep(args) -> dict:
    from .symplectic import _check_int
    _check_int(args.count, "--count", 1)
    rng = np.random.default_rng(_check_int(args.seed, "--seed", 0))
    worst_activity, worst_work = -math.inf, -math.inf
    for _ in range(args.count):
        nu = rng.uniform(0.5, 2.5)
        r = rng.uniform(0.0, 1.0)
        rot = gw.rotation(rng.uniform(0, 2 * np.pi))
        gamma = rot @ gw.squeezer_direct_sum(r) @ (nu * np.eye(2)) @ gw.squeezer_direct_sum(r) @ rot.T
        theta = rng.uniform(0, 2 * np.pi)
        phis = rng.uniform(0, 2 * np.pi, size=4)
        g1, g2 = gw.process_two_copies_single_mode(gamma, theta, phis)
        base, *outs = (gw.GaussianState(np.zeros(2), cm) for cm in (gamma, g1, g2))
        base_act, base_work = gw.local_activity(base).value, gw.extractable_work(base).quadratic
        for out in outs:
            worst_activity = max(worst_activity, gw.local_activity(out).value - base_act)
            worst_work = max(worst_work, gw.extractable_work(out).quadratic - base_work)
    return {"instances": args.count, "max_activity_gain": worst_activity, "max_work_gain": worst_work}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gausswork", description="Local Gaussian work extraction toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, state=True):
        p = sub.add_parser(name, help=help)
        if state:
            p.add_argument("--state", required=True, help="state file, inline JSON, or preset:name:args")
            p.add_argument("--fock-dim", type=int, default=40)
        p.add_argument("--json", action="store_true", help="emit a JSON result record")
        p.set_defaults(func=func)
        return p

    command("activity", _cmd_activity, "relative entropy of local activity")
    command("work", _cmd_work, "local Gaussian extractable work")
    command("entropy", _cmd_entropy, "von Neumann entropy")
    p = command("relent", _cmd_relent, "relative entropy from a state to a Gaussian state")
    p.add_argument("--state2", required=True)
    command("decompose", _cmd_decompose, "Williamson and Bloch-Messiah decompositions")
    command("freecheck", _cmd_freecheck, "spectral and structural freeness tests")

    p = command("channel", _cmd_channel, "thermal-loss channel (phase space or Fock Kraus)")
    p.add_argument("--eta", type=float, required=True, help="amplitude transmittance in (0, 1]")
    p.add_argument("--nbar-bath", type=float, default=0.0)
    p.add_argument("--kraus", action="store_true", help="use the truncated Kraus route")
    p.add_argument("--max-mn", type=int, default=20)

    p = command("demo", _cmd_demo, "built-in distillation and post-selection demonstrations", state=False)
    p.add_argument("which", choices=["distill-activity", "distill-work", "fock-postselect"])

    p = command("sweep", _cmd_sweep, "seeded property sweeps", state=False)
    p.add_argument("--kind", choices=["nogo"], default="nogo")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        outputs = args.func(args)
    except (ValueError, OSError) as exc:  # StateParseError, StateValidationError and an unreadable state file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _emit(args, outputs)
    return EXIT_UNCERTIFIED if outputs.get("certified") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
