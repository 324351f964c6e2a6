#!/usr/bin/env python3
"""Byte-level determinism gate for the CLI's results.

The thread count (FAURE_THREADS, DESIGN.md "Parallelism lives at
scenario fan-out") sets only the scenario fan-out width; `run` and
`whatif` bytes must not depend on it, nor on the verdict cache, the join
planner or supervised fault injection. This script enforces that end to
end through the CLI: for each (database, program) pair it runs

    faure run <db> <program> --stats          (plain output + counters)
    faure run <db> <program> --metrics        (machine-readable report)

once per requested FAURE_THREADS value and fails if

  * the plain stdout (tables, conditions, counter lines — wall-clock
    seconds on the stats lines are masked first) differs by a single
    byte from the serial run, or the exit code differs, or
  * the logical counters of the run report differ. Physical metrics are
    normalized away first: `eval.plan.*` (join-planner telemetry — it
    differs between plan modes by design), `solver.cache.*` (hit/miss
    traffic differs between cached and uncached runs), all
    gauges/histograms (timings), span trees and wall clocks. Everything logical — derivations, inserts, prunes,
    per-rule breakdowns, solver.* checks/unsat/enumerations — must
    match exactly.

Each (threads) variant is additionally run with the solver verdict
cache disabled (FAURE_SOLVER_CACHE=0); cached and uncached runs must
agree byte for byte too — the cache is a physical optimisation with no
logical footprint (DESIGN.md "Condition performance").

With --chaos-seed N the whole matrix runs under seeded fault injection
(FAURE_CHAOS_SEED, DESIGN.md §9): the supervised solver's primary
backend suffers deterministic crashes/timeouts/spurious Unknowns and
fails over to the native fallback. The default chaos plan only ever
faults the primary, so every *result* bit must still match the
baseline — that is the supervision transparency contract this mode
enforces. Fault-handling telemetry is physical, not logical: the
`supervise:` stats line, `solver.supervise.*` / `events.supervise.*`
counters, and `supervise.*` events are masked before comparison (which
checks reach a backend — and hence can fault — depends on cache hits,
and in a scenario batch on which fork reaches a formula first).

With --edit-script EDITS the gate targets the incremental engine's
oracle contract (DESIGN.md §10) instead: for each (database, program)
pair it replays the edit script through `faure whatif` under every
{--incremental, --full-recompute} x threads x cache combination and
byte-compares the raw epoch output (whatif prints no timings, so no
normalization is needed) against the full-recompute serial cached
baseline. It then runs `whatif --metrics` once per mode and asserts
the point of incrementality from the `eval.inc.*` counters: both modes
complete the same number of epochs, the incremental run re-fires
strictly fewer rules than the oracle, and at least one stratum was
reused verbatim. --edit-script and --chaos-seed are mutually
exclusive — chaos failover is supervised-run telemetry, while the
oracle contract is about retained-state reuse.

With --scenarios FILE the gate targets the concurrent scenario engine
(DESIGN.md §12): the baseline is N single-scenario `faure whatif` runs,
one per `---`-delimited block of FILE (serial, cache on, defaults), and
every {--incremental, --full-recompute} x threads x cache (x plan with
--plan) variant of `faure whatif --scenarios FILE` must reproduce each
block's stdout byte for byte (and its exit code) inside its
`=== scenario I: exit E ===` frame — the fan-out width (FAURE_THREADS)
must be invisible in the bytes. One `faure serve` round-trip (EVAL/GO/
QUIT over stdin at the widest thread count) must answer the same bytes
through RESULT frames. --scenarios composes with --chaos-seed: the
batch then runs under seeded fault injection while the baselines stay
chaos-free, extending the supervision transparency contract to the
scenario service.

Usage:
    determinism_check.py --faure build/tools/faure [--threads 1,2,8] \
        [--chaos-seed N | --edit-script edits.fl] [--scenarios FILE] \
        db1.fdb prog1.fl [db2.fdb prog2.fl ...]

Exit status: 0 when every pair is deterministic, 1 otherwise (with a
unified diff of the first divergence on stderr).
"""

import argparse
import difflib
import json
import os
import re
import subprocess
import sys

# Wall-clock fields on the `stats:` / `solver:` lines — the only
# legitimately thread-dependent bytes in `run --stats` output.
SECONDS = re.compile(r"\b(sql|solver|in) \d+\.\d+s|\b\d+\.\d+s\b")


def run_cli(faure, args, threads, cache=True, chaos_seed=None, plan=None):
    env = dict(os.environ)
    env["FAURE_THREADS"] = str(threads)
    if not cache:
        env["FAURE_SOLVER_CACHE"] = "0"
    # The plan sweep pins FAURE_PLAN per variant; an inherited value
    # must not leak into the variants that rely on the CLI default.
    env.pop("FAURE_PLAN", None)
    if plan is not None:
        env["FAURE_PLAN"] = plan
    # Fault-injection knobs would make charge clocks (and thus trip
    # points) schedule-dependent; determinism is only promised without
    # them (tests/faurelog/eval_budget_test.cpp pins those serial).
    env.pop("FAURE_FAIL_AFTER", None)
    # Solver chaos is different: seeded, formula-keyed, and failover-
    # transparent — the matrix either runs entirely under one seed
    # (--chaos-seed) or entirely without it, never mixed.
    for knob in ("FAURE_CHAOS_SEED", "FAURE_RETRIES",
                 "FAURE_SOLVER_TIMEOUT_MS", "FAURE_FAILOVER"):
        env.pop(knob, None)
    # The whatif matrix pins the mode per variant via --incremental /
    # --full-recompute; an inherited FAURE_INCREMENTAL must not leak
    # into the runs that rely on the CLI default.
    env.pop("FAURE_INCREMENTAL", None)
    if chaos_seed is not None:
        env["FAURE_CHAOS_SEED"] = str(chaos_seed)
    proc = subprocess.run(
        [faure] + args, env=env, capture_output=True, text=True, timeout=600
    )
    return proc.returncode, proc.stdout


def normalize_stats(text):
    """Masks wall-clock seconds on stats lines; everything else — every
    table row, condition, and counter — stays byte-compared. The
    `supervise:` fault-telemetry line is physical (see module doc) and
    masked entirely."""
    out = []
    for line in text.splitlines(keepends=True):
        if line.startswith("supervise:"):
            continue  # absent entirely from unsupervised runs
        if line.startswith(("stats:", "solver:")):
            line = SECONDS.sub("<t>", line)
        out.append(line)
    return "".join(out)


def normalize_report(text):
    """Reduces a run report to its thread-count-invariant core."""
    report = json.loads(text)
    counters = {
        name: value
        for name, value in report.get("metrics", {}).get("counters", {}).items()
        if not name.startswith(
            ("eval.plan.", "solver.cache.",
             "solver.supervise.", "events.supervise.")
        )
    }
    info = {
        key: value
        for key, value in report.get("info", {}).items()
        if key not in ("threads", "supervision", "chaos_seed", "plan")
    }
    # Events keep name + detail (budget trips and their machine-readable
    # reasons are part of the contract) but drop timestamps and span ids.
    # `supervise.*` events (retries, faults, failovers) are per-backend-
    # touch telemetry and dropped wholesale.
    events = [
        {"name": e.get("name"), "detail": e.get("detail")}
        for e in report.get("events", [])
        if not str(e.get("name", "")).startswith("supervise.")
    ]
    return json.dumps(
        {
            "schema": report.get("schema"),
            "command": report.get("command"),
            "info": info,
            "counters": counters,
            "events": events,
        },
        indent=1,
        sort_keys=True,
    )


def diff(label, serial, other):
    lines = difflib.unified_diff(
        serial.splitlines(keepends=True),
        other.splitlines(keepends=True),
        fromfile=f"{label} [baseline]",
        tofile=f"{label} [variant]",
    )
    return "".join(lines)


def check_pair(faure, db, prog, thread_counts, chaos_seed=None,
               plan_sweep=False):
    # The baseline is serial + cache; every other (threads, cache)
    # combination must match it after normalization. Under --chaos-seed
    # the baseline additionally runs *without* injection while every
    # variant runs with it — so one sweep enforces both cross-thread
    # determinism and the fault plan's output transparency. Under --plan
    # every (threads, cache) combination runs once with the join planner
    # on and once with it off; the planner is a physical layer, so both
    # must match the baseline byte for byte.
    plans = ("on", "off") if plan_sweep else (None,)
    variants = [
        (t, c, p) for p in plans for c in (True, False) for t in thread_counts
    ]
    failures = []
    for mode, args, normalize in (
        ("run --stats", [db, prog, "--stats"], normalize_stats),
        ("run --metrics", [db, prog, "--metrics"], normalize_report),
    ):
        baseline = None
        if chaos_seed is not None:
            code, out = run_cli(faure, ["run"] + args, thread_counts[0])
            baseline = ("no-chaos baseline", code,
                        normalize(out) if normalize else out)
        for threads, cache, plan in variants:
            code, out = run_cli(faure, ["run"] + args, threads, cache,
                                chaos_seed, plan)
            view = normalize(out) if normalize else out
            label = f"threads={threads} cache={'on' if cache else 'off'}"
            if plan is not None:
                label += f" plan={plan}"
            if chaos_seed is not None:
                label += f" chaos_seed={chaos_seed}"
            if baseline is None:
                baseline = (label, code, view)
                continue
            base_label, base_code, base_view = baseline
            if code != base_code:
                failures.append(
                    f"{db} + {prog} ({mode}): exit {base_code} at "
                    f"{base_label} but {code} at {label}"
                )
            if view != base_view:
                failures.append(
                    f"{db} + {prog} ({mode}): output diverges at {label}\n"
                    + diff(f"{prog} ({mode})", base_view, view)
                )
    return failures


def inc_counters(report_text):
    """-> the eval.inc.* counters of a whatif --metrics run report."""
    report = json.loads(report_text)
    counters = report.get("metrics", {}).get("counters", {})
    return {
        name[len("eval.inc."):]: value
        for name, value in counters.items()
        if name.startswith("eval.inc.")
    }


def check_whatif_pair(faure, db, prog, edits, thread_counts,
                      plan_sweep=False):
    """Oracle-contract sweep: every {mode, threads, cache} variant of
    `faure whatif` must print byte-identical epochs, and the metrics
    reports must show the incremental mode actually skipping work. With
    plan_sweep the matrix additionally crosses FAURE_PLAN on/off — the
    planner's persistent indexes survive across epochs, so this leg is
    what proves their maintenance never changes an epoch's bytes."""
    failures = []
    args = [db, prog, edits]
    plans = ("on", "off") if plan_sweep else (None,)
    baseline = None
    for mode_flag in ("--full-recompute", "--incremental"):
        for threads in thread_counts:
            for cache in (True, False):
                for plan in plans:
                    code, out = run_cli(
                        faure, ["whatif"] + args + [mode_flag], threads,
                        cache, None, plan
                    )
                    label = (
                        f"{mode_flag} threads={threads} "
                        f"cache={'on' if cache else 'off'}"
                    )
                    if plan is not None:
                        label += f" plan={plan}"
                    if baseline is None:
                        baseline = (label, code, out)
                        continue
                    base_label, base_code, base_out = baseline
                    if code != base_code:
                        failures.append(
                            f"{db} + {prog} + {edits} (whatif): exit "
                            f"{base_code} at {base_label} but {code} at "
                            f"{label}"
                        )
                    if out != base_out:
                        failures.append(
                            f"{db} + {prog} + {edits} (whatif): output "
                            f"diverges at {label}\n"
                            + diff(f"{prog} (whatif)", base_out, out)
                        )

    # Firings assertion (serial, cache on): eval.inc.* counters are
    # recorded in both modes, so the reports quantify the reuse.
    counters = {}
    for mode_flag in ("--full-recompute", "--incremental"):
        code, out = run_cli(
            faure, ["whatif"] + args + [mode_flag, "--metrics"],
            thread_counts[0],
        )
        if code != 0:
            failures.append(
                f"{db} + {prog} + {edits} (whatif --metrics "
                f"{mode_flag}): exit {code}"
            )
            return failures
        counters[mode_flag] = inc_counters(out)
    full, inc = counters["--full-recompute"], counters["--incremental"]
    if not full or not inc:
        failures.append(
            f"{db} + {prog} + {edits}: whatif --metrics reports carry no "
            f"eval.inc.* counters"
        )
        return failures
    if inc.get("epochs") != full.get("epochs"):
        failures.append(
            f"{db} + {prog} + {edits}: epoch counts differ — "
            f"incremental {inc.get('epochs')} vs oracle {full.get('epochs')}"
        )
    if not inc.get("refired_rules", 0) < full.get("refired_rules", 0):
        failures.append(
            f"{db} + {prog} + {edits}: incremental mode re-fired "
            f"{inc.get('refired_rules')} rules, not strictly fewer than "
            f"the oracle's {full.get('refired_rules')} — no work was saved"
        )
    if not inc.get("reused_strata", 0) > 0:
        failures.append(
            f"{db} + {prog} + {edits}: incremental mode reused no strata"
        )
    if not failures:
        print(
            f"  reuse: incremental re-fired {inc['refired_rules']} rules "
            f"vs oracle {full['refired_rules']}, reused "
            f"{inc['reused_strata']} strata over {inc['epochs']} epochs"
        )
    return failures


def split_scenarios(path):
    """One block per `---` delimiter line; mirrors fl::parseScenarioFile
    (src/faurelog/scenario.cpp): a leading or trailing whitespace-only
    block is dropped, interior empty blocks are epoch-0-only scenarios."""
    with open(path) as fh:
        text = fh.read()
    blocks, cur = [], []
    for line in text.splitlines(keepends=True):
        if line.strip() == "---":
            blocks.append("".join(cur))
            cur = []
        else:
            cur.append(line)
    blocks.append("".join(cur))
    if blocks and not blocks[0].strip():
        blocks = blocks[1:]
    if blocks and not blocks[-1].strip():
        blocks = blocks[:-1]
    return blocks


FRAME = re.compile(r"^=== scenario (\S+): exit (\d+) ===$")


def parse_batch_frames(stdout):
    """-> [(id, exit, body)] from `whatif --scenarios` framed output."""
    frames, cur, body = [], None, []
    for line in stdout.splitlines(keepends=True):
        m = FRAME.match(line.rstrip("\n"))
        if m:
            if cur is not None:
                frames.append((cur[0], cur[1], "".join(body)))
            cur, body = (m.group(1), int(m.group(2))), []
        elif cur is not None:
            body.append(line)
    if cur is not None:
        frames.append((cur[0], cur[1], "".join(body)))
    return frames


def run_serve(faure, db, prog, blocks, threads, chaos_seed=None):
    """Pipes an EVAL/GO/QUIT conversation through `faure serve` on
    stdin/stdout; -> [(id, exit, body)] parsed from the RESULT frames."""
    lines = []
    for i, block in enumerate(blocks):
        # The wire format translates ';' back into newlines, so comment
        # lines (which may themselves contain ';') cannot ride along.
        script = ";".join(
            ln for ln in block.splitlines()
            if ln.strip() and not ln.lstrip().startswith("%")
        )
        lines.append(f"EVAL {i + 1} {script}")
    lines += ["GO", "QUIT", ""]
    env = dict(os.environ)
    env["FAURE_THREADS"] = str(threads)
    for knob in ("FAURE_CHAOS_SEED", "FAURE_RETRIES",
                 "FAURE_SOLVER_TIMEOUT_MS", "FAURE_FAILOVER",
                 "FAURE_INCREMENTAL", "FAURE_PLAN", "FAURE_FAIL_AFTER"):
        env.pop(knob, None)
    if chaos_seed is not None:
        env["FAURE_CHAOS_SEED"] = str(chaos_seed)
    proc = subprocess.run(
        [faure, "serve", db, prog],
        input="\n".join(lines).encode(),
        env=env, capture_output=True, timeout=600,
    )
    out = proc.stdout
    if proc.returncode != 0 or not out.startswith(b"READY\n"):
        raise RuntimeError(
            f"serve exited {proc.returncode}; stdout head "
            f"{out[:80]!r}, stderr {proc.stderr[:200]!r}"
        )
    pos = len(b"READY\n")
    results = []
    header = re.compile(rb"^RESULT (\S+) (\d+) (\d+)(?: [^\n]*)?\n")
    while pos < len(out):
        m = header.match(out[pos:])
        if m is None:
            raise RuntimeError(f"unparseable serve frame at {out[pos:pos+60]!r}")
        nbytes = int(m.group(3))
        pos += m.end()
        results.append(
            (m.group(1).decode(), int(m.group(2)),
             out[pos:pos + nbytes].decode())
        )
        pos += nbytes
    return results


def check_scenarios_pair(faure, db, prog, scenarios, thread_counts,
                         chaos_seed=None, plan_sweep=False):
    """Scenario-service sweep (DESIGN.md §12): batch and serve output
    must be byte-identical to N single-scenario whatif runs at every
    fan-out width, mode, cache and plan setting — and, with chaos_seed,
    under seeded fault injection against chaos-free baselines."""
    failures = []
    blocks = split_scenarios(scenarios)
    if not blocks:
        return [f"{scenarios}: no scenario blocks found"]

    # Baseline: one single-scenario whatif run per block — serial,
    # cache on, CLI defaults, never under chaos.
    singles = []
    for i, block in enumerate(blocks):
        # PID-qualified so concurrent checkers (e.g. two ctest trees
        # sharing one source checkout) never collide on the temp file.
        tmp = f"{scenarios}.tmp_scenario_{os.getpid()}_{i + 1}"
        with open(tmp, "w") as fh:
            fh.write(block)
        try:
            code, out = run_cli(faure, ["whatif", db, prog, tmp],
                                thread_counts[0])
        finally:
            os.unlink(tmp)
        singles.append((code, out))
    agg = (1 if any(c == 1 for c, _ in singles)
           else 2 if any(c == 2 for c, _ in singles) else 0)

    def compare(frames, label, batch_code=None):
        if len(frames) != len(singles):
            failures.append(
                f"{db} + {prog} + {scenarios} ({label}): {len(frames)} "
                f"frames for {len(singles)} scenarios"
            )
            return
        if batch_code is not None and batch_code != agg:
            failures.append(
                f"{db} + {prog} + {scenarios} ({label}): process exit "
                f"{batch_code}, expected aggregate {agg}"
            )
        for i, ((sid, ex, body), (scode, sout)) in enumerate(
                zip(frames, singles)):
            if sid != str(i + 1):
                failures.append(
                    f"{db} + {prog} + {scenarios} ({label}): frame {i} "
                    f"carries id {sid!r}, expected {i + 1}"
                )
            if ex != scode:
                failures.append(
                    f"{db} + {prog} + {scenarios} ({label}): scenario "
                    f"{i + 1} exit {ex}, single run exits {scode}"
                )
            if body != sout:
                failures.append(
                    f"{db} + {prog} + {scenarios} ({label}): scenario "
                    f"{i + 1} output diverges from its single run\n"
                    + diff(f"scenario {i + 1}", sout, body)
                )

    plans = ("on", "off") if plan_sweep else (None,)
    for mode_flag in ("--full-recompute", "--incremental"):
        for threads in thread_counts:
            for cache in (True, False):
                for plan in plans:
                    code, out = run_cli(
                        faure,
                        ["whatif", db, prog, "--scenarios", scenarios,
                         mode_flag],
                        threads, cache, chaos_seed, plan,
                    )
                    label = (
                        f"batch {mode_flag} threads={threads} "
                        f"cache={'on' if cache else 'off'}"
                    )
                    if plan is not None:
                        label += f" plan={plan}"
                    if chaos_seed is not None:
                        label += f" chaos_seed={chaos_seed}"
                    compare(parse_batch_frames(out), label, code)

    # Serve round-trip at the widest fan-out: the line protocol must
    # answer the same bytes the batch (and hence each single run) prints.
    try:
        frames = run_serve(faure, db, prog, blocks, thread_counts[-1],
                           chaos_seed)
    except RuntimeError as e:
        failures.append(f"{db} + {prog} + {scenarios} (serve): {e}")
    else:
        compare(frames, f"serve threads={thread_counts[-1]}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--faure", required=True, help="path to the faure CLI")
    parser.add_argument(
        "--threads",
        default="1,2,8",
        help="comma-separated FAURE_THREADS values (default: 1,2,8)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="run the matrix under FAURE_CHAOS_SEED=N and also compare "
        "against a no-chaos baseline (supervision transparency gate)",
    )
    parser.add_argument(
        "--edit-script",
        default=None,
        metavar="EDITS",
        help="gate `faure whatif` with this edit script instead of "
        "`faure run`: {--incremental, --full-recompute} x threads x "
        "cache must be byte-identical (the oracle contract) and the "
        "incremental mode must re-fire strictly fewer rules",
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        metavar="FILE",
        help="gate the concurrent scenario engine with this ---"
        "-delimited scenarios file: `whatif --scenarios` batches and a "
        "`serve` round-trip must be byte-identical, scenario by "
        "scenario, to N single whatif runs across the whole matrix",
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help="cross the matrix with FAURE_PLAN on/off: the cost-based "
        "join planner (persistent indexes, literal reordering) must be "
        "byte-invisible in the results at every thread count, in both "
        "run and whatif modes",
    )
    parser.add_argument(
        "pairs",
        nargs="+",
        help="alternating database / program paths (db1 prog1 db2 prog2 ...)",
    )
    opts = parser.parse_args()
    if len(opts.pairs) % 2 != 0:
        parser.error("expected an even number of db/program paths")
    if opts.edit_script is not None and opts.chaos_seed is not None:
        parser.error(
            "--edit-script and --chaos-seed are mutually exclusive "
            "(see module doc)"
        )
    if opts.edit_script is not None and opts.scenarios is not None:
        parser.error(
            "--edit-script and --scenarios are mutually exclusive "
            "(each selects a different whatif gate)"
        )
    thread_counts = [int(t) for t in opts.threads.split(",") if t]
    if len(thread_counts) < 2:
        parser.error("need at least two thread counts to compare")

    chaos = (
        f" chaos_seed={opts.chaos_seed}" if opts.chaos_seed is not None else ""
    )
    if opts.plan:
        chaos += " x plan on/off"
    failures = []
    for i in range(0, len(opts.pairs), 2):
        db, prog = opts.pairs[i], opts.pairs[i + 1]
        if opts.scenarios is not None:
            pair_failures = check_scenarios_pair(
                opts.faure, db, prog, opts.scenarios, thread_counts,
                opts.chaos_seed, opts.plan
            )
        elif opts.edit_script is not None:
            pair_failures = check_whatif_pair(
                opts.faure, db, prog, opts.edit_script, thread_counts,
                opts.plan
            )
        else:
            pair_failures = check_pair(
                opts.faure, db, prog, thread_counts, opts.chaos_seed,
                opts.plan
            )
        failures += pair_failures
        status = "DIVERGED" if pair_failures else "identical"
        if opts.scenarios is not None:
            tag = f" + {os.path.basename(opts.scenarios)}"
        elif opts.edit_script is not None:
            tag = f" + {os.path.basename(opts.edit_script)}"
        else:
            tag = ""
        print(
            f"{os.path.basename(db)} + {os.path.basename(prog)}{tag}: "
            f"threads {opts.threads}{chaos} -> {status}"
        )

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    if opts.scenarios is not None:
        print(
            f"scenario determinism holds across threads {opts.threads}"
            f"{chaos} (batch + serve vs single-scenario runs)"
        )
    elif opts.edit_script is not None:
        print(
            f"incremental determinism holds across threads {opts.threads}"
        )
    else:
        print(f"determinism holds across threads {opts.threads}{chaos}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
