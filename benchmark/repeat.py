#!/usr/bin/env python3
"""Runs the benchmark as BENCHMARK.json describes it, once per seed and
workload, and reports each metric's median and spread.

The spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median; a steady
end-to-end metric keeps it below a third of its bound.

Run from the repository root:

    python3 benchmark/repeat.py --seeds 10 --out benchmark/results/set-a.jsonl

With --same-seed every run uses --first-seed, so the spread is the
host's alone. Every run's result line is appended to --out, one JSON
object per line.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true",
                    help="run --seeds times at --first-seed")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--workload", action="append", help="repeatable; default all")
    ap.add_argument("--out", help="append result lines to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    if args.same_seed:
        seeds = [args.first_seed] * args.seeds
    else:
        seeds = range(args.first_seed, args.first_seed + args.seeds)

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    failures = 0
    # Seeds outermost, so slow drift of the host spreads over every workload.
    for seed in seeds:
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                failures += 1
                print(f"{w} seed {seed}: INCORRECT\n{proc.stderr}", file=sys.stderr)
            for name, v in result["metrics"].items():
                values[w][name].append(v["value"])
            if args.out:
                with open(args.out, "a") as f:
                    row = {"workload": w, "seed": seed, "trace": int(args.trace),
                           "result": result}
                    f.write(json.dumps(row) + "\n")
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if args.trace == "0"), file=sys.stderr)

    print(f"{'workload':16} {'metric':32} {'median':>14} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for m in metrics:
            xs = values[w][m["name"]]
            med = statistics.median(xs)
            if len(xs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(xs, n=4)
                spread = f"{(q3 - q1) / abs(med):.4f}"
            else:
                spread = "-"
            bound = f"{m['bound']:.2f}" if "bound" in m else ""
            print(f"{w:16} {m['name']:32} {med:14.6g} {spread:>8} {bound:>6}")
    if failures:
        sys.exit(f"{failures} incorrect runs")


if __name__ == "__main__":
    main()
