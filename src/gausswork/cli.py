"""Command-line front end.

State inputs are JSON documents (a file path or an inline ``{...}`` string)
with either ``{"preset": name, ...params}`` or explicit ``{"modes": N,
"displacement": [2N floats], "covariance": [4N^2 floats, row-major]}``;
the shorthand ``preset:name:arg1[,arg2]`` is also accepted.  Results print
as aligned tables, or as a JSON record under ``--json`` that round-trips
at full double precision.

Exit codes: 0 success, 2 parse/validation failure, 3 activity
eigendecomposition residual above tolerance, 64 usage errors.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

import gausswork as gw

from . import __version__

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNCERTIFIED = 3
EXIT_USAGE = 64


class StateParseError(ValueError):
    pass


class StateValidationError(ValueError):
    pass


@dataclass
class ResultRecord:
    command: str
    inputs_digest: str
    outputs: dict = field(default_factory=dict)
    version: str = __version__
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "inputs_digest": self.inputs_digest,
                "outputs": self.outputs,
                "version": self.version,
                "seed": self.seed,
            },
            indent=2,
            sort_keys=True,
        )


def _digest(*parts) -> str:
    import hashlib

    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _parse_preset(name: str, args: list):
    name = name.lower()
    if name == "fock":
        return ("fock", int(float(args[0])))
    if name == "vacuum":
        return gw.make_state("vacuum", modes=int(float(args[0])) if args else 1)
    if name == "thermal":
        return gw.make_state("thermal", nbar=float(args[0]))
    if name == "coherent":
        return gw.make_state("coherent", alpha=complex(float(args[0]), float(args[1]) if len(args) > 1 else 0.0))
    if name == "squeezed":
        return gw.make_state("squeezed", r=float(args[0]), phi=float(args[1]) if len(args) > 1 else 0.0)
    if name == "tms":
        return gw.make_state("tms", r=float(args[0]))
    raise StateParseError(f"unknown preset {name!r}")


def parse_state(text: str, fock_dim: int = 40):
    """Parse a state argument into a GaussianState or FockDensity."""
    try:
        if text.startswith("preset:"):
            parts = text.split(":")
            args = parts[2].split(",") if len(parts) > 2 and parts[2] else []
            parsed = _parse_preset(parts[1], args)
        else:
            if text.lstrip().startswith("{"):
                doc = json.loads(text)
            else:
                with open(text, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            if "preset" in doc:
                params = {k: v for k, v in doc.items() if k != "preset"}
                name = doc["preset"]
                if name == "fock":
                    parsed = ("fock", int(params["n"]))
                else:
                    parsed = gw.make_state(name, **params)
            else:
                modes = int(doc["modes"])
                d = np.asarray(doc.get("displacement", [0.0] * (2 * modes)), dtype=float)
                cov = np.asarray(doc["covariance"], dtype=float)
                if cov.size != 4 * modes * modes:
                    raise StateParseError(
                        f"covariance must have 4*N^2 = {4 * modes * modes} entries, got {cov.size}"
                    )
                parsed = gw.GaussianState(d, cov.reshape(2 * modes, 2 * modes))
    except StateParseError:
        raise
    except (OSError, json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise StateParseError(f"malformed state document: {exc}") from exc
    except ValueError as exc:
        raise StateValidationError(str(exc)) from exc
    if isinstance(parsed, tuple) and parsed[0] == "fock":
        return gw.fock_number_state(parsed[1], fock_dim)
    return parsed


def serialize_state(state: "gw.GaussianState") -> str:
    return json.dumps(
        {
            "modes": state.n_modes,
            "displacement": state.displacement.tolist(),
            "covariance": state.cm.reshape(-1).tolist(),
        }
    )


def _print_table(rows):
    width = max(len(k) for k, _ in rows)
    for key, val in rows:
        if isinstance(val, float):
            val = f"{val:.12g}"
        print(f"{key.ljust(width)}  {val}")


def _emit(record: ResultRecord, as_json: bool):
    if as_json:
        print(record.to_json())
    else:
        rows = []
        for key, val in record.outputs.items():
            if isinstance(val, list):
                val = np.array2string(np.asarray(val), precision=9, suppress_small=True)
            rows.append((key, val))
        _print_table(rows)
    return EXIT_OK


def _require_gaussian(state, what: str):
    if not isinstance(state, gw.GaussianState):
        raise StateValidationError(f"{what} expects a Gaussian state")


def _cmd_activity(args) -> int:
    state = parse_state(args.state, fock_dim=args.fock_dim)
    if isinstance(state, gw.GaussianState):
        report = gw.local_activity(state)
        outputs = {
            "activity": report.value,
            "certified": report.certified,
            "coherence": gw.gaussian_coherence(state),
            "b": report.params["b"].tolist(),
            "eig_residual": report.params["eig_residual"],
        }
        if state.n_modes == 2:
            outputs["theta"] = report.params["theta"]
            outputs["delta_phi"] = report.params["delta_phi"]
        certified = report.certified
    else:
        value = gw.fock_single_mode_activity(state)
        outputs = {"activity": value, "route": "fock"}
        certified = True
    record = ResultRecord("activity", _digest(args.state), outputs, seed=args.seed)
    code = _emit(record, args.json)
    return code if certified else EXIT_UNCERTIFIED


def _cmd_work(args) -> int:
    state = parse_state(args.state, fock_dim=args.fock_dim)
    _require_gaussian(state, "work command")
    report = gw.extractable_work(state)
    outputs = {
        "quadratic": report.quadratic,
        "displacement": report.displacement,
        "total": report.total,
    }
    return _emit(ResultRecord("work", _digest(args.state), outputs, seed=args.seed), args.json)


def _cmd_entropy(args) -> int:
    state = parse_state(args.state, fock_dim=args.fock_dim)
    _require_gaussian(state, "entropy command")
    outputs = {"entropy": gw.von_neumann_entropy(state)}
    return _emit(ResultRecord("entropy", _digest(args.state), outputs, seed=args.seed), args.json)


def _cmd_relent(args) -> int:
    rho = parse_state(args.state, fock_dim=args.fock_dim)
    sigma = parse_state(args.state2, fock_dim=args.fock_dim)
    for state in (rho, sigma):
        _require_gaussian(state, "relent command")
    value = gw.relative_entropy(rho, sigma)
    outputs = {"relative_entropy": value if math.isfinite(value) else "inf"}
    return _emit(
        ResultRecord("relent", _digest(args.state, args.state2), outputs, seed=args.seed), args.json
    )


def _cmd_decompose(args) -> int:
    state = parse_state(args.state, fock_dim=args.fock_dim)
    _require_gaussian(state, "decompose command")
    dec = gw.symplectic._williamson(state.cm, state._spectrum)  # the spectrum validation kept
    bm = gw.bloch_messiah(dec.symplectic)
    outputs = {
        "symplectic_eigenvalues": dec.nu.tolist(),
        "symplectic": dec.symplectic.tolist(),
        "bm_o_out": bm.o_out.tolist(),
        "bm_squeezing": bm.r.tolist(),
        "bm_o_in": bm.o_in.tolist(),
        "williamson_residual": dec.residual,
    }
    return _emit(ResultRecord("decompose", _digest(args.state), outputs, seed=args.seed), args.json)


def _cmd_freecheck(args) -> int:
    state = parse_state(args.state, fock_dim=args.fock_dim)
    _require_gaussian(state, "freecheck command")
    report = gw.is_free_cm(state.cm, tol_free=args.tol)
    outputs = {
        "spectral_free": report.spectral_free,
        "structural_form": report.structural_form,
        "gap": report.gap,
    }
    return _emit(ResultRecord("freecheck", _digest(args.state), outputs, seed=args.seed), args.json)


def _cmd_channel(args) -> int:
    state = parse_state(args.state, fock_dim=args.fock_dim)
    if args.kraus:
        if isinstance(state, gw.GaussianState):
            if state.n_modes != 1:  # refused before a dim^(2N) Fock tensor is built
                raise ValueError(f"the Kraus channel acts on one mode, got {state.n_modes}")
            state = gw.fock_from_gaussian(state, args.fock_dim)
        kraus = gw.thermal_loss_kraus(args.eta, args.nbar_bath, args.fock_dim, args.max_mn)
        out, deficit = gw.apply_kraus_channel(state, kraus)
        nbar = float(np.real(np.diag(out.matrix)) @ np.arange(out.dim))
        outputs = {
            "route": "fock-kraus",
            "output_nbar": nbar,
            "output_trace": out.trace,
            "input_leak": 1.0 - state.trace,
            "completeness_deficit": deficit,
            "unitarity_residual": kraus.unitarity_residual,
        }
    else:
        _require_gaussian(state, "phase-space channel")
        out = gw.phase_space_loss_channel(state, args.eta, args.nbar_bath)
        outputs = {
            "route": "phase-space",
            "displacement": out.displacement.tolist(),
            "covariance": out.cm.reshape(-1).tolist(),
        }
    return _emit(
        ResultRecord("channel", _digest(args.state, args.eta, args.nbar_bath), outputs, seed=args.seed),
        args.json,
    )


def _cmd_demo(args) -> int:
    if args.which == "distill-activity":
        outcome = gw.activity_distillation_demo()
        outputs = {
            "input_activity": outcome.input_value,
            "output_activity": outcome.output_value,
            "output_covariance": outcome.output_state.cm.reshape(-1).tolist(),
        }
    elif args.which == "distill-work":
        outcome = gw.work_swap_demo(gw.squeezed(1.0).cm, gw.vacuum(1).cm)
        outputs = {
            "input_pair_work": outcome.input_value,
            "output_pair_work": outcome.output_value,
        }
    elif args.which == "fock-postselect":
        output, probability, gain = gw.fock_postselect_demo()
        outputs = {
            "probability": probability,
            "fidelity_two_photon": float(np.real(output.matrix[2, 2])),
            "activity_gain": gain,
        }
    else:
        raise StateParseError(f"unknown demo {args.which!r}")
    return _emit(ResultRecord(f"demo {args.which}", _digest(args.which), outputs, seed=args.seed), args.json)


def _cmd_sweep(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "nogo":
        worst_activity, worst_work = -math.inf, -math.inf
        for _ in range(args.count):
            nu = rng.uniform(0.5, 2.5)
            r = rng.uniform(0.0, 1.0)
            rot = gw.rotation(rng.uniform(0, 2 * np.pi))
            gamma = rot @ gw.squeezer(r) @ (nu * np.eye(2)) @ gw.squeezer(r) @ rot.T
            theta = rng.uniform(0, 2 * np.pi)
            phis = rng.uniform(0, 2 * np.pi, size=4)
            g1, g2 = gw.process_two_copies_single_mode(gamma, theta, phis)
            base_act = _cm_activity(gamma)
            base_work = gw.quadratic_work(gamma)
            for out in (g1, g2):
                worst_activity = max(worst_activity, _cm_activity(out) - base_act)
                worst_work = max(worst_work, gw.quadratic_work(out) - base_work)
        outputs = {
            "instances": args.count,
            "max_activity_gain": worst_activity,
            "max_work_gain": worst_work,
        }
    else:
        raise StateParseError(f"unknown sweep kind {args.kind!r}")
    return _emit(ResultRecord(f"sweep {args.kind}", _digest(args.kind, args.count), outputs, seed=args.seed), args.json)


def _cm_activity(gamma: np.ndarray) -> float:
    return gw.local_activity(gw.GaussianState(np.zeros(2), gamma)).value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gausswork", description="Local Gaussian work extraction toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state=True):
        if state:
            p.add_argument("--state", required=True, help="state file, inline JSON, or preset:name:args")
            p.add_argument("--fock-dim", type=int, default=40)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", help="emit a JSON result record")

    p = sub.add_parser("activity", help="relative entropy of local activity")
    common(p)
    p.set_defaults(func=_cmd_activity)

    p = sub.add_parser("work", help="local Gaussian extractable work")
    common(p)
    p.set_defaults(func=_cmd_work)

    p = sub.add_parser("entropy", help="von Neumann entropy")
    common(p)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("relent", help="relative entropy between two Gaussian states")
    common(p)
    p.add_argument("--state2", required=True)
    p.set_defaults(func=_cmd_relent)

    p = sub.add_parser("decompose", help="Williamson and Bloch-Messiah decompositions")
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("freecheck", help="spectral and structural freeness tests")
    common(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_freecheck)

    p = sub.add_parser("channel", help="thermal-loss channel (phase space or Fock Kraus)")
    common(p)
    p.add_argument("--eta", type=float, required=True, help="amplitude transmittance in (0, 1]")
    p.add_argument("--nbar-bath", type=float, default=0.0)
    p.add_argument("--kraus", action="store_true", help="use the truncated Kraus route")
    p.add_argument("--max-mn", type=int, default=20)
    p.set_defaults(func=_cmd_channel)

    p = sub.add_parser("demo", help="built-in distillation and post-selection demonstrations")
    p.add_argument("which", choices=["distill-activity", "distill-work", "fock-postselect"])
    common(p, state=False)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("sweep", help="seeded property sweeps")
    p.add_argument("--kind", choices=["nogo"], default="nogo")
    p.add_argument("--count", type=int, default=500)
    common(p, state=False)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (StateParseError, StateValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
