#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload serve_knn --seeds 1-10

Runs perfbench/run.py once per seed (untraced) and prints, for every
end-to-end metric, the median, the quartiles and the spread (Q3 - Q1) as
a share of the median, next to the metric's bound from BENCHMARK.json.
A spread at or above a third of its bound is marked "WIDE"; setup_s is
only compared on its median, so its spread is shown but never marked.
Exits 1 if any run fails or any spread is marked.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds_from(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run failed ({proc.returncode})", file=sys.stderr)
            sys.exit(1)
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        for name in values:
            values[name].append(metrics[name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()),
              file=sys.stderr)

    wide = False
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        mark = ""
        if m["name"] != "setup_s" and spread >= m["bound"] / 3:
            mark, wide = "WIDE", True
        print(f"{m['name']:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} "
              f"{m['bound']:>6} {mark}")
    sys.exit(1 if wide else 0)


if __name__ == "__main__":
    main()
