#!/usr/bin/env python3
"""Spread report: runs one workload repeatedly, with a different seed each
time, and prints every metric's median and quartiles against its bound.

    python3 perfbench/spread.py --workload serve --runs 10 [--trace 0|1]

Run it from the repository root.  The command, run length and bounds come
from BENCHMARK.json, and run i uses seed i.  The spread of a metric is the
distance between its first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of its median; a bound is met
when the spread stays below it.  The host fingerprint each run prints goes
out with that run's line.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    shares = []
    for i in range(args.runs):
        seed = i + 1
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        host = next((l for l in proc.stderr.splitlines() if l.startswith("host:")), "host: ?")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run {i + 1} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            sys.exit(1)
        result = json.loads(lines[-1])
        share = result["failed"] / result["attempted"]
        shares.append(share)
        print(f"run {i + 1:2d} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"share={share:.9f} | {host}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, trace={args.trace}")
    print(f"{'metric':36s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else ("within" if spread <= bound else "OVER")
        print(f"{name:36s} {units[name]:6s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6} {flag}")
    print(f"failed share: {'identical' if len(set(shares)) == 1 else 'DIFFERS'} across runs "
          f"({sorted(set(shares))[:3]})")


if __name__ == "__main__":
    main()
