"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads gaussian_scaling,fock_channel --seeds 1-10

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), the figure a bound in
BENCHMARK.json must exceed.  It does the same for the figures an untraced
run prints but does not gate (``ops_per_s``, ``op_p50_ms``), read from the
run's record in perfbench/out/.  Each run's result line and wall time go to
perfbench/out/spread-<workloads>-<seeds>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRINTED = ("ops_per_s", "op_p50_ms")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = {}
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{args.trace}.json"
            info = json.loads(record.read_text())["info"]
            result["printed"] = {k: info[k] for k in PRINTED if k in info}
            runs.setdefault(workload, []).append({"seed": seed, "wall_s": wall, **result})
            print(f"{workload} seed {seed}: {wall:.1f} s, failed {result['failed']}/"
                  f"{result['attempted']}, correct {result['correct']}", flush=True)

    for workload, results in runs.items():
        print(f"\n{workload}")
        figures = [(name, [r["metrics"][name]["value"] for r in results], "")
                   for name in results[0]["metrics"]]
        figures += [(name, [r["printed"][name] for r in results], " (printed, not gated)")
                    for name in results[0]["printed"]]
        for name, values, note in figures:
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:45s} median {median:12.6g}  spread {spread:7.4f}{note}")
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    name = f"spread-{args.workloads.replace(',', '+')}-{args.seeds}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
