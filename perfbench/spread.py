#!/usr/bin/env python3
"""Run the host-cost benchmark several times, one seed per run, and report
each metric's median and its spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median.
For end-to-end metrics the spread is shown beside the bound that
BENCHMARK.json fixes for it, and marked when it exceeds a third of the
bound.  On the workloads the seed does not change, every run must end in
the same simulated digest; the script exits 1 when they differ.

    python3 perfbench/spread.py --workload stream-lw-sat --runs 10
    python3 perfbench/spread.py --workload debug-session --runs 5 --trace 1

Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Workloads whose simulated work the seed does not change.
FIXED = {"stream-lw-sat", "cpu-bound", "paper-regen"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    units = {}
    digests = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        summary = next((l for l in lines if l.startswith("units:")), "")
        digests.add(summary.rsplit(" ", 1)[-1])
        print(f"seed {seed}: {summary}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}, {args.runs} runs of {seconds} s, trace {args.trace}")
    print(f"{'metric':34} {'median':>14} {'spread':>8} {'bound':>6}  unit")
    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            worst = max(worst, spread / bound)
            mark = "  OVER a third of the bound" if spread > bound / 3 else ""
        b = f"{bound:6.3f}" if bound is not None else "     -"
        print(f"{name:34} {med:14.6g} {spread:8.4f} {b}  {units[name]}{mark}")
        if args.verbose:
            print("    " + " ".join(f"{v:.4g}" for v in vs))
    if args.trace == "0":
        print(f"worst spread / bound: {worst:.3f}")
    if args.workload in FIXED and len(digests) != 1:
        sys.exit(f"simulated digest differs across runs: {' '.join(sorted(digests))}")
    if args.workload in FIXED:
        print(f"simulated digest identical across runs: {digests.pop()}")


if __name__ == "__main__":
    main()
