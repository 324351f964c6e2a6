#!/usr/bin/env python3
"""Exact-count repeatability check (a few minutes).

Run from the repository root:

    python3 perfbench/tests/repeatability.py [--seed N] [--workload W ...]

Runs every workload's traced run (--trace 1) twice with the same seed at
its full input size and requires every per-layer count to be identical:
interner calls, new and live nodes, logical and physical solver checks,
evaluation counters, IncStats (refired rules, reused strata), verdict
tallies, serve.payload_bytes, and the ratios made from them. Counts are
averaged over a fixed window of ops, so the run length does not matter;
a gain claimed on one of these counts is then a difference between two
programs, not between two runs. Times (ms, us) and trace_overhead are
not compared.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
EXACT_UNITS = {"count", "bytes", "ratio"}


def traced(workload, seed):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload}: traced run not correct: {res}")
    return res["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    exact = [m["name"] for m in bench["per_layer"]
             if m["unit"] in EXACT_UNITS and m["name"] != "trace_overhead"]
    bad = 0
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        first, second = traced(name, args.seed), traced(name, args.seed)
        diff = [m for m in exact if first[m]["value"] != second[m]["value"]]
        moved = [m for m in exact if first[m]["value"] != 0]
        print(f"{name}: {len(moved)} non-zero counts, "
              + ("identical" if not diff else "DIFFER: " + ", ".join(
                  f"{m} {first[m]['value']} vs {second[m]['value']}" for m in diff)),
              flush=True)
        bad += bool(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
