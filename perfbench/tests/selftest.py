#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes (about a minute).

Run from the repository root:

    python3 perfbench/tests/selftest.py

Checks, for every workload in BENCHMARK.json:
  1. the result line has exactly the keys correct/attempted/failed/metrics,
     the run is correct with no failed op, and it emits every declared
     end-to-end metric (--trace 0) or per-layer metric (--trace 1), each
     with its declared unit and nothing else;
  2. the ops executed for a seed are the same whatever the run length:
     the op log of a short run is a prefix of a longer run's;
and for table4, that a corrupted expected checksum turns every op into
a failed op.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
TINY = {"table4": 20, "whatif": 12, "serve": 12, "verify": 8}

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, seed, seconds, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", str(TINY[workload]), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for w in bench["workloads"]:
            name = w["name"]
            for trace in (0, 1):
                res = run(name, 5, 1, trace)
                check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                      f"{name} trace={trace}: result keys")
                check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                      f"{name} trace={trace}: correct, {res['attempted']} attempted,"
                      f" {res['failed']} failed")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                check(got == declared[trace],
                      f"{name} trace={trace}: every declared metric, with its unit")
                if trace == 0:
                    check(all(v["value"] > 0 for v in res["metrics"].values()),
                          f"{name}: end-to-end metrics are non-zero")

            logs = []
            for seconds in (1, 3):
                log = os.path.join(tmp, f"{name}-{seconds}.log")
                run(name, 7, seconds, 0, "--op-log", log)
                with open(log) as f:
                    logs.append(f.read().splitlines())
            short, long_ = logs
            check(len(short) < len(long_) and long_[:len(short)] == short,
                  f"{name}: op sequence of a {len(short)}-op run is a prefix of"
                  f" a {len(long_)}-op run's")

        corrupt = os.path.join(tmp, "table4-corrupt.txt")
        with open(os.path.join(BENCH_DIR, "expected", "table4.txt")) as f:
            lines = f.read().splitlines()
        with open(corrupt, "w") as f:
            for line in lines:
                parts = line.split()
                if parts and parts[0] == str(TINY["table4"]):
                    parts[-1] = format(int(parts[-1], 16) ^ 1, "016x")
                    line = " ".join(parts)
                f.write(line + "\n")
        res = run("table4", 5, 1, 0, "--expected", corrupt)
        check(not res["correct"] and res["failed"] == res["attempted"] > 0,
              f"table4: corrupted checksum fails every op"
              f" ({res['failed']}/{res['attempted']})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
