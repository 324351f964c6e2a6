#!/usr/bin/env python3
"""Bench-regression gate over a bench-harness run report.

Two report families are understood (--family):

  table4       BENCH_table4.json from bench/table4_reachability:
               `table4[N].wall_seconds` plus `threads[T].` / `nocache.`
               variants, gated against bench/baseline_table4.json.
  incremental  BENCH_incremental.json from bench/whatif_incremental:
               `incremental[N].wall_seconds` (the full-recompute
               oracle) plus the `inc.` variant (delta propagation on),
               gated against bench/baseline_incremental.json.
  join         BENCH_join.json from bench/join_planner:
               `join[N].wall_seconds` (cost-based planning on) plus the
               `noplan.` variant (pristine program-order joins), gated
               against bench/baseline_join.json. A planner regression
               shows up directly; a noplan-relative regression means
               the speedup collapsed.

Compares the fresh report against the committed baseline and fails
when any measured wall time regressed beyond the tolerance. Because absolute seconds are
machine-dependent (CI runners differ run to run, let alone from the
box that recorded the baseline), times are *calibrated* first: every
comparison is done on times rescaled by a machine speed unit, so a
uniformly slower runner moves nothing while a regression confined to
some entries still moves theirs. For table4 the unit is the median of
the per-entry current/baseline ratios and every entry is gated, so one
entry that alone runs fast or slow cannot shift the others. The other
families take the serial wall of the smallest common size as the unit,
and that calibration entry itself is exempt.

    bench_check.py --current BENCH_table4.json \
        --baseline bench/baseline_table4.json \
        [--family table4] [--tolerance 0.30] [--diff-out diff.json] \
        [--update] [--allow-missing]

Exit status: 0 when every entry is within tolerance (improvements are
reported, never fatal), 1 on regression or missing entries. --update
rewrites the baseline from the current report instead of comparing
(commit the result deliberately). --allow-missing downgrades baseline
entries absent from the current report to a warning — for CI legs that
deliberately run a reduced matrix (e.g. the chaos job skips the
threaded repeats). Malformed inputs (absent files, non-JSON, a report
without the expected gauges) are diagnosed on stderr with a next-step
hint, never a traceback.
"""

import argparse
import json
import re
import statistics
import sys


def fail(message, hint=None):
    """Diagnose a usage/input problem without a traceback."""
    print(f"bench_check: error: {message}", file=sys.stderr)
    if hint:
        print(f"bench_check: hint: {hint}", file=sys.stderr)
    sys.exit(1)


def load_json(path, role, family="table4"):
    """Reads a JSON file with friendly diagnostics for the two ways this
    goes wrong in CI: the file was never produced (harness crashed or the
    artifact was not downloaded) or it is not JSON (truncated upload)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        hint = (
            f"run `{FAMILIES[family]['harness']}` to produce a report"
            if role == "current"
            else "regenerate it with `bench_check.py --update` and commit "
            "the result"
        )
        fail(f"{role} report not found: {path}", hint)
    except OSError as e:
        fail(f"cannot read {role} report {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        fail(
            f"{role} report {path} is not valid JSON "
            f"(line {e.lineno}: {e.msg})",
            "the file may be truncated; regenerate it",
        )

# Per-family report shape. `wall` parses gauge names into
# (size, threads, variant) keys: group 1 = size, group 2 = thread count
# (absent = 1), group 3 = the variant tag (table4's cache-off control /
# the incremental engine's delta-propagation run). `median` selects the
# median-ratio calibration; otherwise the calibration entry is the
# smallest un-tagged serial row — the full-recompute oracle for the
# incremental family.
FAMILIES = {
    "table4": {
        "wall": re.compile(
            r"^table4\[(\d+)\]\.(?:threads\[(\d+)\]\.|(nocache)\.)?"
            r"wall_seconds$"
        ),
        "variant": "nocache",
        "example": "table4[8].wall_seconds",
        "harness": "bench/table4_reachability",
        "median": True,
    },
    "incremental": {
        "wall": re.compile(
            r"^incremental\[(\d+)\]\.(?:()(inc)\.)?wall_seconds$"
        ),
        "variant": "inc",
        "example": "incremental[80].wall_seconds",
        "harness": "bench/whatif_incremental",
    },
    "join": {
        "wall": re.compile(r"^join\[(\d+)\]\.(?:()(noplan)\.)?wall_seconds$"),
        "variant": "noplan",
        "example": "join[600].wall_seconds",
        "harness": "bench/join_planner",
    },
    "scenario": {
        "wall": re.compile(
            r"^scenario\[(\d+)\]\.(?:()(batch)\.)?wall_seconds$"
        ),
        "variant": "batch",
        "example": "scenario[8].wall_seconds",
        "harness": "bench/scenario_batch",
    },
}


def extract(report_path, family):
    """-> {(size, threads, variant): wall_seconds} from a run report.

    table4 records one serial row per size (solver verdict cache on),
    the threaded repeats, and one `nocache.` serial control; the
    incremental family records the full-recompute oracle wall and the
    `inc.` delta-propagation wall per size.
    """
    spec = FAMILIES[family]
    report = load_json(report_path, "current", family)
    walls = {}
    for name, value in report.get("metrics", {}).get("gauges", {}).items():
        m = spec["wall"].match(name)
        if m:
            size = int(m.group(1))
            threads = int(m.group(2)) if m.group(2) else 1
            variant = m.group(3) is not None
            walls[(size, threads, variant)] = float(value)
    if not walls:
        fail(
            f"no {family}[...].wall_seconds gauges in {report_path}",
            f"is this really a {family} harness report? expected "
            f"metrics.gauges keys like `{spec['example']}`",
        )
    return walls


def key_str(key, variant_label):
    size, threads, variant = key
    return f"size={size} threads={threads}" + (
        f" {variant_label}" if variant else ""
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", required=True)
    parser.add_argument("--baseline", required=True)
    parser.add_argument(
        "--family",
        choices=sorted(FAMILIES),
        default="table4",
        help="which harness report shape to gate (default: table4)",
    )
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument("--diff-out", help="write a JSON comparison artifact")
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from --current instead of comparing",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="warn (instead of fail) when baseline entries are absent "
        "from the current report",
    )
    opts = parser.parse_args()

    variant = FAMILIES[opts.family]["variant"]
    current = extract(opts.current, opts.family)
    if opts.update:
        payload = {
            "comment": "regenerate with: bench_check.py --update "
            "(committed values are calibrated, not absolute; see tool doc)",
            "family": opts.family,
            "walls": {
                key_str(k, variant): v for k, v in sorted(current.items())
            },
        }
        with open(opts.baseline, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"baseline rewritten: {opts.baseline} ({len(current)} entries)")
        return 0

    baseline_doc = load_json(opts.baseline, "baseline")
    if "walls" not in baseline_doc:
        fail(
            f"baseline {opts.baseline} has no `walls` object",
            "regenerate it with `bench_check.py --update`",
        )
    if baseline_doc.get("family", "table4") != opts.family:
        fail(
            f"baseline {opts.baseline} was recorded for family "
            f"{baseline_doc.get('family', 'table4')!r}, not {opts.family!r}",
            "point --baseline at the matching file or re-record it with "
            "`bench_check.py --update --family " + opts.family + "`",
        )
    baseline = {}
    for text, value in baseline_doc["walls"].items():
        m = re.match(rf"size=(\d+) threads=(\d+)( {variant})?$", text)
        if m is None:
            fail(
                f"baseline {opts.baseline} has an unparseable entry key: "
                f"{text!r}",
                "expected keys like `size=8 threads=2`; regenerate with "
                "`bench_check.py --update`",
            )
        key = (int(m.group(1)), int(m.group(2)), m.group(3) is not None)
        baseline[key] = float(value)

    common = sorted(set(current) & set(baseline))
    missing = sorted(set(baseline) - set(current))
    if not common:
        fail(
            "no overlapping (size, threads) entries to compare",
            "the current report and the baseline measure disjoint "
            "configurations; re-record the baseline or fix the harness "
            "invocation",
        )

    if FAMILIES[opts.family].get("median"):
        # Calibration unit: the median per-entry ratio. No entry is exempt.
        cal = None
        scale = statistics.median(current[k] / baseline[k] for k in common)
    else:
        # Calibration unit: cached serial wall of the smallest common size.
        serial = [k for k in common if k[1] == 1 and not k[2]]
        if not serial:
            fail(
                "no common serial cached entry to calibrate against",
                "both reports need at least one `size=N threads=1` row "
                "(no nocache suffix)",
            )
        cal = min(serial)
        scale = current[cal] / baseline[cal]

    rows, regressions = [], []
    for key in common:
        drift = current[key] / baseline[key] / scale - 1.0
        verdict = "calibration" if key == cal else (
            "REGRESSED" if drift > opts.tolerance else
            "improved" if drift < -opts.tolerance else "ok"
        )
        rows.append(
            {
                "entry": key_str(key, variant),
                "current_seconds": current[key],
                "baseline_seconds": baseline[key],
                "calibrated_drift": round(drift, 4),
                "verdict": verdict,
            }
        )
        if verdict == "REGRESSED":
            regressions.append(key)
        print(
            f"{key_str(key, variant):28s} {current[key]:9.4f}s vs "
            f"{baseline[key]:9.4f}s  drift {drift:+7.1%}  {verdict}"
        )
    for key in missing:
        tag = "missing (allowed)" if opts.allow_missing else "MISSING"
        print(f"{key_str(key, variant):28s} {tag} from current report")

    if opts.diff_out:
        with open(opts.diff_out, "w") as fh:
            json.dump(
                {
                    "schema": "faure.bench_diff/1",
                    "tolerance": opts.tolerance,
                    "calibration_entry": (
                        "median ratio" if cal is None
                        else key_str(cal, variant)
                    ),
                    "rows": rows,
                    "missing": [key_str(k, variant) for k in missing],
                },
                fh,
                indent=1,
            )
            fh.write("\n")

    fatal_missing = [] if opts.allow_missing else missing
    if regressions or fatal_missing:
        print(
            f"FAIL: {len(regressions)} regression(s), "
            f"{len(fatal_missing)} missing entr(ies) "
            f"(tolerance ±{opts.tolerance:.0%})",
            file=sys.stderr,
        )
        return 1
    skipped = f", {len(missing)} skipped" if missing else ""
    print(
        f"bench gate passed ({len(common)} entries{skipped}, "
        f"±{opts.tolerance:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
