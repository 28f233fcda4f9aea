#!/usr/bin/env python3
"""Regression tripwire over google-benchmark JSON output.

Diffs a benchmark run against a checked-in baseline and FAILS (exit 1)
when a gated benchmark regressed by more than the gate percentage.
Improvements never fail; benchmarks present in only one file are reported
and skipped.

Gated benchmarks (override with --benchmarks REGEX):
    BM_FullPipeline/1000, BM_EngineGrid* (incl. the shard-streamed /
    whole-view pair), BM_GenerateWorld* (streamed world generation),
    and the ingestion ladder (BM_IngestCsv*, BM_ReadColumnar*,
    BM_OpenColumnarMmap*, BM_WriteColumnar*).

Benchmarks carrying a peak_rss_mb user counter (the memory-relevant
rows: I/O ladder, engine grids, out-of-core generation) additionally get
an informational residency delta table — printed always, gated never.
On Linux each row's value is the VmHWM high-water mark since that
benchmark started (bench_throughput resets it per row); elsewhere, and in
baselines recorded before the reset existed, it is the process
high-water mark, which depends on what ran earlier.

Flakiness control: absolute wall times only compare meaningfully on the
hardware the baseline was recorded on. In the default mode (auto) the gate
ARMS itself only when the run's recorded hardware context (num_cpus,
mhz_per_cpu) matches the baseline's; on foreign hardware it prints the
comparison, warns, and exits 0. Modes (--mode or MOBIPRIV_BENCH_GATE):
    auto     enforce iff hardware contexts match (default)
    require  always enforce (same-machine CI runners, perf labs)
    skip     never fail, report only

Because absolute-time gating disarms on foreign hardware, --invariants
adds RATIO checks that hold on ANY machine and are always enforced:
    * the engine grid beats the independent (non-memoized) grid,
    * mmap open is >= 10x faster than the CSV parse of the same data
      (the columnar format's acceptance bar),
    * the parallel end-to-end run never pays more than the gate
      percentage over the serial run (inline-when-serial contract).
CI runs both: the baseline diff (auto-armed) and the invariants
(always armed) — a regression that flips a structural property fails the
build on every runner; absolute-time drift fails only on baseline-class
hardware.

Refreshing the baseline: rerun the CI bench filter on the reference
machine and copy the JSON over bench/BENCH_ci_baseline.json (or run this
script with --update, which does the copy for you after printing the
diff).

Usage:
    scripts/compare_bench.py bench/BENCH_ci_baseline.json BENCH_ci.json \
        [--gate-pct 25] [--mode auto|require|skip] [--benchmarks REGEX] \
        [--update]
"""

import argparse
import json
import os
import re
import shutil
import sys

DEFAULT_GATED = (
    r"^BM_(FullPipeline/1000|EngineGrid[^/]*/\d+|IngestCsv[^/]*/\d+"
    r"|ReadColumnar/\d+|OpenColumnarMmap[^/]*/\d+|WriteColumnar/\d+"
    r"|GenerateWorld/\d+"
    r"|MixZoneEncounterScan/\d+|Kernel[^/]*/\d+)$"
)
# mhz_per_cpu drifts a little run to run on throttling hosts; num_cpus
# must match exactly.
MHZ_TOLERANCE = 0.15


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    times = {}
    rss = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        times[bench["name"]] = float(bench["real_time"])
        if "peak_rss_mb" in bench:
            rss[bench["name"]] = float(bench["peak_rss_mb"])
    return doc.get("context", {}), times, rss


def hardware_matches(base_ctx, cur_ctx):
    if base_ctx.get("num_cpus") != cur_ctx.get("num_cpus"):
        return False, "num_cpus %s vs %s" % (
            base_ctx.get("num_cpus"), cur_ctx.get("num_cpus"))
    base_mhz = float(base_ctx.get("mhz_per_cpu") or 0)
    cur_mhz = float(cur_ctx.get("mhz_per_cpu") or 0)
    if base_mhz and cur_mhz:
        drift = abs(cur_mhz - base_mhz) / base_mhz
        if drift > MHZ_TOLERANCE:
            return False, "mhz_per_cpu %.0f vs %.0f (%.0f%% drift)" % (
                base_mhz, cur_mhz, 100 * drift)
    return True, ""


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--gate-pct", type=float, default=25.0,
                        help="fail when a gated benchmark is this many "
                             "percent slower than the baseline (default 25)")
    parser.add_argument("--mode",
                        choices=("auto", "require", "skip"),
                        default=os.environ.get("MOBIPRIV_BENCH_GATE", "auto"),
                        help="gate arming mode (default: auto, or "
                             "MOBIPRIV_BENCH_GATE)")
    parser.add_argument("--benchmarks", default=DEFAULT_GATED,
                        help="regex selecting the gated benchmark names")
    parser.add_argument("--update", action="store_true",
                        help="after reporting, copy current over baseline")
    parser.add_argument("--invariants", action="store_true",
                        help="also enforce hardware-independent ratio "
                             "invariants on the current run (always armed)")
    args = parser.parse_args()

    base_ctx, base, base_rss = load(args.baseline)
    cur_ctx, cur, cur_rss = load(args.current)
    gated = re.compile(args.benchmarks)

    matched, reason = hardware_matches(base_ctx, cur_ctx)
    armed = args.mode == "require" or (args.mode == "auto" and matched)

    regressions = []
    rows = []
    for name in sorted(set(base) | set(cur)):
        if not gated.search(name):
            continue
        if name not in base or name not in cur:
            rows.append((name, "only in %s" %
                         ("current" if name in cur else "baseline")))
            continue
        ratio = cur[name] / base[name] if base[name] > 0 else float("inf")
        delta_pct = 100.0 * (ratio - 1.0)
        verdict = "ok"
        if delta_pct > args.gate_pct:
            verdict = "REGRESSION"
            regressions.append((name, delta_pct))
        elif delta_pct < -args.gate_pct:
            verdict = "improved"
        rows.append((name, "%10.3f -> %10.3f ms  %+7.1f%%  %s" %
                     (base[name], cur[name], delta_pct, verdict)))

    width = max((len(name) for name, _ in rows), default=0)
    print("bench gate: +/-%.0f%% on %d benchmarks (mode=%s, %s)" % (
        args.gate_pct, len(rows), args.mode,
        "armed" if armed else "DISARMED: " + (reason or "skip requested")))
    for name, text in rows:
        print("  %-*s  %s" % (width, name, text))

    if not armed:
        # Foreign hardware (or skip mode): absolute gating is off, but the
        # deltas are still the most useful signal the run produces — print
        # the FULL table (every benchmark in both files, gated or not) so
        # perf drift stays visible in the logs of every runner.
        common = sorted(set(base) & set(cur))
        if common:
            full_width = max(len(name) for name in common)
            print("delta table (gate disarmed; informational, "
                  "%d benchmarks):" % len(common))
            for name in common:
                ratio = cur[name] / base[name] if base[name] > 0 \
                    else float("inf")
                print("  %-*s  %10.3f -> %10.3f ms  %+7.1f%%" % (
                    full_width, name, base[name], cur[name],
                    100.0 * (ratio - 1.0)))

    # Peak RSS rides along as a user counter (peak_rss_mb) on the
    # memory-relevant benchmarks. It is NEVER gated: on non-Linux rows
    # (and in baselines recorded before the per-benchmark reset) it is a
    # process high-water mark shaped by whatever ran earlier — the table
    # exists to make residency drift visible, not to fail builds.
    rss_names = sorted(set(base_rss) | set(cur_rss))
    if rss_names:
        rss_width = max(len(name) for name in rss_names)
        print("peak rss (informational, never gated, %d benchmarks):"
              % len(rss_names))
        for name in rss_names:
            if name in base_rss and name in cur_rss and base_rss[name] > 0:
                delta = 100.0 * (cur_rss[name] / base_rss[name] - 1.0)
                print("  %-*s  %9.1f -> %9.1f MB  %+7.1f%%" % (
                    rss_width, name, base_rss[name], cur_rss[name], delta))
            else:
                side = "current" if name in cur_rss else "baseline"
                value = cur_rss.get(name, base_rss.get(name, 0.0))
                print("  %-*s  %9.1f MB (only in %s)" % (
                    rss_width, name, value, side))

    invariant_failures = []
    invariants_checked = [0]
    if args.invariants:
        def check(name, ok, detail):
            invariants_checked[0] += 1
            print("  invariant %-44s %s  (%s)" %
                  (name, "ok" if ok else "VIOLATED", detail))
            if not ok:
                invariant_failures.append(name)

        for size in ("20", "50", "100", "1000"):
            grid = cur.get("BM_EngineGrid/" + size)
            indep = cur.get("BM_EngineGridIndependent/" + size)
            if grid is not None and indep is not None:
                check("EngineGrid/%s < EngineGridIndependent" % size,
                      grid < indep,
                      "%.1f vs %.1f ms" % (grid, indep))
            serial = cur.get("BM_EndToEndSerial/" + size)
            par = cur.get("BM_EndToEndParallel/" + size)
            if serial is not None and par is not None:
                limit = serial * (1.0 + args.gate_pct / 100.0)
                check("EndToEndParallel/%s <= serial +%d%%" %
                      (size, args.gate_pct),
                      par <= limit,
                      "%.2f vs %.2f ms serial" % (par, serial))
            mmap_open = cur.get("BM_OpenColumnarMmap/" + size)
            csv = cur.get("BM_IngestCsv/" + size)
            if mmap_open is not None and csv is not None:
                check("OpenColumnarMmap/%s >= 10x faster than CSV" % size,
                      mmap_open * 10.0 <= csv,
                      "%.3f vs %.2f ms" % (mmap_open, csv))
        print("invariants: %d checked, %d violated" %
              (invariants_checked[0], len(invariant_failures)))

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print("baseline updated: %s" % args.baseline)

    if invariant_failures:
        print("FAIL: %d structural invariant(s) violated" %
              len(invariant_failures))
        return 1
    if regressions and armed:
        print("FAIL: %d gated benchmark(s) regressed beyond %.0f%%" % (
            len(regressions), args.gate_pct))
        return 1
    if regressions:
        print("note: regressions observed but the gate is disarmed "
              "(foreign hardware or skip mode)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
