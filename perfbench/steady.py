#!/usr/bin/env python3
"""Steadiness report for the perfbench benchmark.

Runs the named workloads repeatedly with seeds 1..RUNS for BENCHMARK.json's
run_seconds each, interleaved (seed 1 of every workload, then seed 2 of
every workload, ...) so a slow period of the host falls on every workload
alike. It then prints for every end-to-end metric its median, first and
third quartile (Python's statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json. Run from
the repository root:

    python3 perfbench/steady.py --runs 10 rt-cluster compare-sweep service-churn

A spread above a third of its bound is flagged; one above the bound, a
run that is not correct or has failed operations, makes the exit code 1.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ok = True
    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in args.workloads}
    for seed in range(1, args.runs + 1):
        for w in args.workloads:
            r = run_once(bench, w, seed)
            if not r["correct"] or r["failed"]:
                ok = False
                print(f"{w} seed {seed}: correct={r['correct']} failed={r['failed']}")
            for name, xs in values[w].items():
                xs.append(r["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={r['metrics'][n]['value']:.5g}" for n in values[w]), flush=True)
    for w in args.workloads:
        print(f"\n{w}: {args.runs} runs, seeds 1..{args.runs}")
        print(f"  {'metric':<22} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            q1, med, q3 = statistics.quantiles(values[w][m["name"]], n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > m["bound"]:
                flag, ok = "  > bound", False
            elif spread > m["bound"] / 3:
                flag = "  > bound/3"
            print(f"  {m['name']:<22} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>8.2%} {m['bound']:>6.0%}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
