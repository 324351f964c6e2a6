#!/usr/bin/env python3
"""Golden output checksums for the `faure` CLI's rendering paths.

Runs every combination of the shipped sample inputs through the three
commands that print derived c-tables:

    faure run    <db> <program>
    faure whatif <db> <program> <edits>       (edits: whatif_edits.fl,
                                               whatif_churn.fl)
    faure whatif <db> <program> --scenarios whatif_scenarios.fl

for <db> in data/*.fdb and <program> in data/*.fl (combinations that do
not parse simply record their exit code and empty output), and records
one line per command: the 64-bit FNV-1a checksum of its stdout, its
exit code and the command. The recorded file pins the rendered bytes
of c-tables, conditions and values: a change to the renderer, to the
table layout or to evaluation order shows up as a mismatch.

    python3 tools/golden_outputs.py --faure build/tools/faure
    python3 tools/golden_outputs.py --faure build/tools/faure --threads 4
    python3 tools/golden_outputs.py --faure build/tools/faure --record

Without --record the checksums are compared against the golden file
(default tests/cli_golden_outputs.txt) and every differing command is
listed; the exit code is 1 on any difference. Outputs are byte-identical
at every thread count, join plan, solver cache setting and chaos seed,
so one file serves them all.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EDIT_SCRIPTS = ("whatif_edits.fl", "whatif_churn.fl")
SCENARIOS = "whatif_scenarios.fl"


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def commands(data_dir):
    """-> the argv tails in a fixed order, paths relative to `data_dir`."""
    files = sorted(os.listdir(data_dir))
    dbs = [f for f in files if f.endswith(".fdb")]
    progs = [f for f in files if f.endswith(".fl")]
    out = []
    for db in dbs:
        for prog in progs:
            out.append(["run", db, prog])
            for edits in EDIT_SCRIPTS:
                out.append(["whatif", db, prog, edits])
            out.append(["whatif", db, prog, "--scenarios", SCENARIOS])
    return out


def run(faure, data_dir, cmd, threads):
    argv = [faure] + [
        os.path.join(data_dir, a) if a.endswith((".fdb", ".fl")) else a
        for a in cmd
    ]
    if threads is not None:
        argv.append(f"-j{threads}")
    # Budgets legitimately change what a run prints, so they are cleared.
    # Every other knob (FAURE_THREADS, FAURE_INCREMENTAL, FAURE_PLAN,
    # FAURE_SOLVER_CACHE, FAURE_CHAOS_SEED) is promised not to move a
    # byte, so it is left for the caller's environment to turn.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("FAURE_MAX_", "FAURE_DEADLINE",
                                "FAURE_FAIL_AFTER"))}
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=600)
    return fnv1a(proc.stdout), proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--faure", required=True, help="path to the faure binary")
    ap.add_argument("--data", default=os.path.join(ROOT, "data"))
    ap.add_argument("--golden",
                    default=os.path.join(ROOT, "tests", "cli_golden_outputs.txt"))
    ap.add_argument("--threads", type=int, default=None,
                    help="pass -jN to every command (default: none)")
    ap.add_argument("--record", action="store_true",
                    help="write the golden file instead of checking it")
    args = ap.parse_args()

    lines = []
    for cmd in commands(args.data):
        checksum, code = run(args.faure, args.data, cmd, args.threads)
        lines.append(f"{checksum:016x} {code} {' '.join(cmd)}")

    if args.record:
        with open(args.golden, "w") as f:
            f.write("\n".join(lines) + "\n")
        print(f"recorded {len(lines)} checksums to {args.golden}")
        return 0

    with open(args.golden) as f:
        want = [l.rstrip("\n") for l in f if l.strip()]
    if want == lines:
        print(f"golden outputs match ({len(lines)} commands)")
        return 0
    want_by_cmd = {l.split(" ", 2)[2]: l for l in want}
    for line in lines:
        key = line.split(" ", 2)[2]
        if want_by_cmd.get(key) != line:
            print(f"mismatch: {line}  (golden: {want_by_cmd.get(key)})")
    if len(want) != len(lines):
        print(f"golden has {len(want)} commands, this run {len(lines)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
