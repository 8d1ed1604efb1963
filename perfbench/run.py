"""Layered end-to-end benchmark of gausswork.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gaussian_scaling --seed 1 --seconds 30 --trace 0

Workloads: gaussian_scaling, fock_channel and cli_cold, which BENCHMARK.json
lists, and activity_3mode, which is run by hand only (see perfbench/README.md).
The library is imported from the checkout's ``src``.

With ``--trace 0`` the run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it runs the workload untraced for half the time, replays
the same operations traced, probes any layer metric the workload did not
reach, and reports the per-layer metrics and the tracing overhead.  Every
operation is checked against an oracle; ``failed`` counts operations that
were refused or failed their check, and ``correct`` is false when any result
was wrong.  The last line of standard output is the
result as one JSON object; a record with the machine description, the
metrics, the latencies and (traced runs) the spans is written to
perfbench/out/.
"""

import argparse
import glob
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Fresh set-up processes per run, half before and half after the timed loop,
# so that the median spans the run rather than one moment of the host.
SETUP_REPS = 6
IMPORT_REPS = 3
# Seed kept out of all tuning, for checking later claims.
HELDOUT_SEED = 4242

END_TO_END = {
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _span_metrics():
    """Per-call latency metrics: (name, unit, source, probe).  ``probe`` names
    the operation that reaches the call when the workload does not."""
    specs = []

    def add(metric, unit, layer, name, key, scale, probe):
        specs.append((metric, unit, ("span", layer, name, key, scale), probe))

    for fn in ("validate_cm", "symplectic_eigenvalues", "williamson", "bloch_messiah"):
        for n in (2, 8, 32, 64):
            add(f"symplectic.{fn}.N{n}.p50_us", "us", "symplectic", fn, f"N{n}", 1e6, ("gauss", n))
    for layer, fns in (("states", ("GaussianState", "von_neumann_entropy", "relative_entropy")),
                       ("free", ("is_free_cm",)),
                       ("work", ("extractable_work", "extraction_protocol"))):
        for fn in fns:
            for n in (2, 64):
                add(f"{layer}.{fn}.N{n}.p50_us", "us", layer, fn, f"N{n}", 1e6, ("gauss", n))
    add("activity.local_activity.N3.p50_ms", "ms", "activity", "local_activity", "N3", 1e3,
        ("activity", 3))
    add("activity.gaussian_coherence.N3.p50_us", "us", "activity", "gaussian_coherence", "N3", 1e6,
        ("activity", 3))
    add("activity.local_activity.N2.p50_us", "us", "activity", "local_activity", "N2", 1e6,
        ("gauss", 2))
    for dim, max_mn in FOCK_SIZES:
        key = f"d{dim}m{max_mn}"
        for fn in ("thermal_loss_kraus", "apply_kraus_channel"):
            add(f"fock.{fn}.{key}.p50_ms", "ms", "fock", fn, key, 1e3, ("fock", (dim, max_mn)))
    for dim in (20, 40):
        add(f"fock.fock_from_gaussian.d{dim}.p50_ms", "ms", "fock", "fock_from_gaussian", f"d{dim}",
            1e3, ("fock", (dim, 20)))
    add("fock.fock_single_mode_activity.p50_us", "us", "fock", "fock_single_mode_activity", "", 1e6,
        ("fock", (20, 20)))
    for label in ("work", "activity", "decompose", "freecheck", "channel_kraus",
                  "demo_distill_activity", "sweep_nogo"):
        add(f"cli.{label}.p50_ms", "ms", "cli", label, "", 1e3, ("cli", label))
    return specs


# Must match workloads.FOCK_SIZES; the self-tests check it.
FOCK_SIZES = ((20, 20), (40, 20), (40, 40))

# The probe that reaches a layer the workload itself never calls.
PROBES_OF_LAYER = {"symplectic": ("gauss", 8), "states": ("gauss", 8), "free": ("gauss", 8),
                   "work": ("gauss", 8), "activity": ("gauss", 2), "fock": ("fock", (20, 20))}

PER_LAYER = (
    [(f"{layer}.busy_s", "s", ("busy", layer), None) for layer in PROBES_OF_LAYER]
    + _span_metrics()
    + [(f"fock.kraus_mb.d{dim}m{max_mn}", "MB", ("count", f"fock.kraus_mb.d{dim}m{max_mn}"),
        ("fock", (dim, max_mn))) for dim, max_mn in FOCK_SIZES]
    + [
        ("fock.kraus_fill_ratio", "ratio", ("fill",), ("fock", (20, 20))),
        ("fock.pure_squeezed_accept_ratio", "ratio", ("run", "pure_squeezed_accept_ratio"), None),
        ("activity.certified_ratio", "ratio", ("mean", "activity.certified"), ("activity", 3)),
        ("cli.interpreter_s", "s", ("import", "pass"), None),
        ("cli.import_floor_s", "s", ("import", "import numpy, scipy.linalg, scipy.special"), None),
        ("cli.import_gausswork_s", "s", ("import", "import gausswork"), None),
        ("proc.cpu_wall_ratio", "ratio", ("run", "cpu_wall_ratio"), None),
        ("trace.overhead_ratio", "ratio", ("run", "overhead_ratio"), None),
    ]
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_library():
    """Import gausswork and the workloads from this checkout, or exit with code 1."""
    if not (SRC / "gausswork" / "__init__.py").is_file():
        sys.exit(f"error: no gausswork sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gausswork

    if Path(gausswork.__file__).resolve().parent != SRC / "gausswork":
        sys.exit(f"error: imported gausswork from {gausswork.__file__}, not from {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# Machine record


def blas_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"),
              "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ}}
    import ctypes

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                record["threads"] = fn()
                return record
    record["threads"] = "unknown (default)"
    return record


def source_id():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown (not a git checkout)"


def machine_record(args, why):
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas": blas_record(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": source_id(),
        "platform": platform.platform(),
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Timed loop


class Loop:
    """Closed loop with one client over a workload's seeded cycles."""

    def __init__(self, workload, seed, keep=False):
        self.w = workload
        self.rng = np.random.default_rng(seed)
        self.keep = keep  # keep the inputs of past cycles for a traced replay
        self.cycles = []
        self.attempted = 0
        self.wrong = 0
        self.latencies = []
        self.keys = []
        self.failures = []

    def cycle(self, index):
        while len(self.cycles) <= index:
            if self.cycles and not self.keep:
                self.cycles[-1] = None  # the inputs would add to peak_rss_mb
            self.cycles.append(self.w.cycle(self.rng, len(self.cycles)))
        return self.cycles[index]

    def run_one(self, tracer, cli, inp, w=None):
        """Run and check one operation of ``w`` (default: this loop's
        workload); return its latency in seconds.

        A refusal (an exception, or parts listed under ``errors``) fails the
        operation; a result that fails its oracle also counts as wrong."""
        w = w or self.w
        self.attempted += 1
        tracer.op_id += 1
        start = time.perf_counter()
        try:
            result = w.op(tracer, inp, cli)
        except Exception as exc:  # a refused operation is counted, not fatal
            result, errors = None, [f"{type(exc).__name__}: {exc}"]
        latency = time.perf_counter() - start
        if result is not None:
            errors = result.pop("errors", [])
            try:
                wrong = w.check(inp, result)
            except Exception as exc:
                wrong = [f"check raised {type(exc).__name__}: {exc}"]
            if wrong:
                self.wrong += 1
                errors = errors + wrong
        if errors:
            self.failures.append("; ".join(errors))
        return latency

    def run(self, tracer, cli, seconds=None, n_cycles=None):
        """Run whole cycles until ``seconds`` of wall time or ``n_cycles`` cycles."""
        latencies = []
        start = time.perf_counter()
        index = 0
        while (n_cycles is None and time.perf_counter() - start < seconds) or (
                n_cycles is not None and index < n_cycles):
            for inp in self.cycle(index):
                latencies.append(self.run_one(tracer, cli, inp))
                self.keys.append(inp.key)
            index += 1
        self.latencies += latencies
        return latencies, index, time.perf_counter() - start

    def shares(self):
        """Per input class (mode number, Fock size, subcommand): operation
        count, median latency in ms and share of the operation time."""
        by_key = {}
        for key, latency in zip(self.keys, self.latencies):
            by_key.setdefault(key, []).append(latency)
        total = sum(self.latencies)
        return {key: [len(lat), round(1e3 * statistics.median(lat), 3), round(sum(lat) / total, 3)]
                for key, lat in by_key.items()}


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb(cli):
    if cli.peak_rss_kb:
        return cli.peak_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_walls(argv, child_env, reps, ready=False):
    """Wall times of fresh processes; with ``ready``, up to their 'ready' line."""
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        with proc:
            line = proc.stdout.readline() if ready else ""
            stop = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if not ready:
            stop = time.perf_counter()
        if code != 0 or (ready and line.strip() != "ready"):
            raise RuntimeError(f"child {argv[1:3]} failed with exit code {code}")
        walls.append(stop - start)
    return walls


# ---------------------------------------------------------------------------
# Runs


def plain_run(wl, args, w, cli):
    setup_argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child", "--workload",
                  args.workload, "--seed", str(args.seed)]
    child_env = wl.child_env(str(SRC))
    setups = child_walls(setup_argv, child_env, SETUP_REPS // 2, ready=True)
    tracer = Tracer(False)
    w.warmup(tracer)
    cli.peak_rss_kb = 0
    loop = Loop(w, args.seed)
    lat, _, _ = loop.run(tracer, cli, seconds=args.seconds)
    rss = peak_rss_mb(cli)
    setups += child_walls(setup_argv, child_env, SETUP_REPS - SETUP_REPS // 2, ready=True)

    metrics = {"peak_rss_mb": rss, "setup_s": statistics.median(setups)}
    # Printed, not gated: the host's speed moves the throughput and latency of
    # whole runs by more than the largest bound (perfbench/README.md, Steadiness).
    info = {"ops_per_s": len(lat) / sum(lat), "samples": len(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "fail_ratio": len(loop.failures) / loop.attempted}
    if len(lat) >= 100:
        info["op_p90_ms"] = 1e3 * float(np.percentile(lat, 90))
    info["by_class"] = loop.shares()
    # The refusal the workload inputs avoid, reported on every run.
    info["pure_squeezed_accept_ratio"] = wl.pure_squeezed_acceptance(
        np.random.default_rng([args.seed, 2]))
    return loop, metrics, info, None


def probe_input(wl, rng, request):
    kind, param = request
    if kind == "gauss":
        return "gaussian_scaling", wl.random_state(rng, param, pure=False, r_max=wl.GAUSS_R_MAX)
    if kind == "activity":
        return "activity_3mode", wl.activity_cycle(rng, 0)[0]
    if kind == "fock":
        return "fock_channel", wl.fock_point(rng, *param)
    return "cli_cold", wl.cli_input(rng, param)


def layer_value(tracer, source, extra):
    kind = source[0]
    if kind == "busy":
        return tracer.busy(source[1]) if tracer.reached(source[1]) else None
    if kind == "span":
        _, layer, name, key, scale = source
        p50 = tracer.p50(layer, name, key)
        return None if p50 is None else p50 * scale
    if kind == "count":
        found = tracer.counts.get(source[1])
        return statistics.median(found) if found else None
    if kind == "fill":
        stored = sum(tracer.counts.get("fock.kraus_stored", []))
        return sum(tracer.counts["fock.kraus_nonzero"]) / stored if stored else None
    if kind == "mean":
        found = tracer.counts.get(source[1])
        return sum(found) / len(found) if found else None
    return extra[source[1]]


def traced_run(wl, args, w, cli):
    child_env = wl.child_env(str(SRC))
    extra = {}
    for _, _, source, _ in PER_LAYER:
        if source[0] == "import":
            extra[source[1]] = statistics.median(
                child_walls([sys.executable, "-c", source[1]], child_env, IMPORT_REPS))
    tracer_off = Tracer(False)
    w.warmup(tracer_off)
    loop = Loop(w, args.seed, keep=True)
    cpu0 = cpu_seconds()
    lat_off, n_cycles, wall = loop.run(tracer_off, cli, seconds=args.seconds / 2)
    extra["cpu_wall_ratio"] = (cpu_seconds() - cpu0) / wall
    tracer = Tracer(True)
    lat_on, _, _ = loop.run(tracer, cli, n_cycles=n_cycles)
    extra["overhead_ratio"] = sum(lat_on) / sum(lat_off)
    extra["pure_squeezed_accept_ratio"] = wl.pure_squeezed_acceptance(np.random.default_rng([args.seed, 2]))

    # Probes fill only the metrics the replay left empty, from their own
    # tracer, so a replay figure never includes probe time.
    probe_tracer = Tracer(True)
    requests = set()
    for _, _, source, probe in PER_LAYER:
        if layer_value(tracer, source, extra) is None:
            requests.add(probe or PROBES_OF_LAYER[source[1]])
    probe_rng = np.random.default_rng([args.seed, 1])
    for request in sorted(requests):
        name, inp = probe_input(wl, probe_rng, request)
        loop.run_one(probe_tracer, cli, inp, wl.WORKLOADS[name])
    metrics, from_probes = {}, []
    for metric, _, source, _ in PER_LAYER:
        metrics[metric] = layer_value(tracer, source, extra)
        if metrics[metric] is None:
            metrics[metric] = layer_value(probe_tracer, source, extra)
            from_probes.append(metric)
    info = {"samples": len(lat_off), "probes": [list(map(str, r)) for r in sorted(requests)],
            "from_probes": from_probes, "fail_ratio": len(loop.failures) / loop.attempted}
    return loop, metrics, info, (tracer, probe_tracer)


def setup_child(args):
    wl = load_library()
    wl.WORKLOADS[args.workload].warmup(Tracer(False))
    print("ready", flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.setup_child:
        return setup_child(args)
    wl = load_library()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    record = {"machine": machine_record(args, w.why)}
    cli = wl.CliRunner(str(SRC))
    run = traced_run if args.trace else plain_run
    loop, metrics, info, tracers = run(wl, args, w, cli)
    units = {m: u for m, u, _, _ in PER_LAYER} if args.trace else END_TO_END

    missing = [m for m, v in metrics.items() if v is None]
    if missing:
        sys.exit(f"error: no measurement for {missing}")
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    for name, value in info.items():
        print(f"{name:45s} {value}")
    for failure in loop.failures[:10]:
        print(f"FAILED: {failure}")

    record.update(metrics=metrics, info=info, attempted=loop.attempted, wrong=loop.wrong,
                  failures=loop.failures, latencies_s=loop.latencies)
    if tracers is not None:
        replay, probes = tracers
        record.update(spans=replay.spans, counts=dict(replay.counts), probe_spans=probes.spans,
                      probe_counts=dict(probes.counts))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str))
    print(f"{'machine':45s} {json.dumps(record['machine'])}")

    result = {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
