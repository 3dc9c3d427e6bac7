#!/usr/bin/env python3
"""Records the benchmark's baseline run sets.

Runs every workload in BENCHMARK.json several times in two sets, set A
and set B alternating run by run, each run with its own seed, and
prints for every end-to-end metric and workload each set's median and
quartiles, the quartile spread as a share of the median, and how far
the two medians lie apart. It flags a spread or a median difference
that exceeds the metric's bound (setup_s is exempt from the spread
rule). Each workload's run wall times go to standard error. Run it
from the repository root:

    python3 bench/baseline.py [--runs 10] [--workloads sweep-hot,...]

The quartiles are statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"]:
        sys.exit(f"{workload} seed {seed}: failed run\n{p.stdout}")
    return {k: v["value"] for k, v in out["metrics"].items()}, wall


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    ok = True
    print("| workload | metric | set A median [q1, q3] | A spread | set B median [q1, q3] | B spread | median diff | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w in args.workloads.split(","):
        sets = {"A": [], "B": []}
        walls = []
        for i in range(args.runs):
            for name, base in (("A", 1), ("B", 1001)):
                values, wall = run_once(bench["command"], w, base + i, bench["run_seconds"])
                sets[name].append(values)
                walls.append(wall)
        for m in metrics:
            cells = []
            meds = []
            for name in ("A", "B"):
                med, q1, q3 = summary([r[m["name"]] for r in sets[name]])
                spread = (q3 - q1) / med
                meds.append(med)
                if m["name"] != "setup_s" and spread > m["bound"]:
                    ok = False
                cells += [f"{med:.6g} [{q1:.6g}, {q3:.6g}]", f"{100 * spread:.1f}%"]
            a, b = meds
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            if worse > m["bound"]:
                ok = False
            print(f"| {w} | {m['name']} | {' | '.join(cells)} | {100 * abs(b - a) / a:.1f}% | {100 * m['bound']:.0f}% |")
        print(f"# {w}: run wall time median {statistics.median(walls):.1f} s, max {max(walls):.1f} s", file=sys.stderr)
        sys.stdout.flush()
    if not ok:
        sys.exit("some spread or median difference exceeds its bound")


if __name__ == "__main__":
    main()
