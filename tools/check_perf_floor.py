#!/usr/bin/env python3
"""CI gate for the perf bench lanes.

Default (E4) mode validates a BENCH_e4_runtime.json:

1. the engine knobs are bit-identical: `sweeps` and `spanner_m` agree for
   every (algo, n, f, k) between the main file and every supplied A/B file
   (--batch/--masked off) — the knobs may never change decisions;
2. no config regressed by more than the budget vs the checked-in per-config
   floor (bench/ci_perf_floor.json): seconds <= floor_seconds * (1 + slack).

--e16 mode validates a BENCH_e16_scale.json from the large-instance sweep.
E16 floor entries are keyed on (family, scale, f, k) and carry two
gates per config: `seconds` (wall-clock, with the same relative slack) and
`max_peak_rss_mb` (a hard memory ceiling — no slack; RSS regressions at
scale are the failure mode this lane exists to catch).  An entry may also
pin `spanner_m`: the generators are seeded deterministically, so the built
spanner size must reproduce exactly run over run.  An entry may also set
`max_alloc_calls`, a hard ceiling on the bench's binary-local operator-new
count during the build — the gate that proves a linked-but-disabled obs
layer allocates nothing on the hot path.  Floor entries with no
matching row are reported but do not fail — the per-push lane runs only the
smallest large config while the nightly sweep covers every scale.

--e18 mode validates a BENCH_e18_churn.json from the churn-maintenance
lane.  E18 entries are keyed on (family, n, f, k, model) and gate the
machine-independent service contract, never wall-clock: `checkpoints_ok`
must be true (the maintained spanner passed verify_sampled at every
staleness checkpoint), `speedup_vs_rebuild` must be at least
`min_speedup_vs_rebuild` (incremental maintenance has to beat
full-rebuild-per-update by a wide margin or the service is pointless),
and the run must have covered at least `min_updates` / `min_queries`
(a row measured on a toy workload proves nothing).

--e17 mode validates a BENCH_e17_attack.json from the stretch-under-attack
shootout.  E17 entries are keyed on (algo, model, scenario, n, f, k) and pin
*results*, not wall-clock: `max_stretch` must reproduce within 1e-6 (null
means the storm disconnected some pair — pinned as null), and
`disconnected_trials` / `spanner_m` must reproduce exactly.  Every seeded
config is deterministic end to end (generator, construction, scenario
draws), so any drift means decisions changed somewhere in the stack.

--e13 mode validates a BENCH_e13_shootout.json from the algorithm-zoo
shootout (every construction in spanner/registry.h x fault model x scenario
x workload).  Same result-pinning discipline as E17 with the workload name
added to the key — entries are keyed on (algo, model, scenario, graph, n,
f, k) and pin max_stretch (within 1e-6, null = disconnected),
disconnected_trials, and spanner_m exactly.  Wall-clock columns
(build_seconds, seconds) are never gated.

Usage:
  check_perf_floor.py MAIN.json --floor bench/ci_perf_floor.json \
      [--e13 | --e16 | --e17 | --e18] [--ab AB1.json AB2.json ...] \
      [--slack 0.25]

The floor file is an object {"e4": [...], "e13": [...], "e16": [...],
"e17": [...], "e18": [...]}; a
bare list is accepted as e4-only for compatibility.  Exits non-zero with a per-failure
report; prints the measured rows so the CI log shows the perf trajectory
at a glance.  Both modes also print a per-config delta table (config,
measured, floor, budget, headroom %) and mirror it as markdown into
$GITHUB_STEP_SUMMARY when CI provides one, so the remaining headroom is
visible from the run summary without opening the log.
"""

import argparse
import json
import os
import sys


def emit_delta_table(title, deltas):
    """Prints the per-config floor-delta table (config, metric, measured,
    floor, budget, headroom %) to stdout, and appends the same table as
    markdown to $GITHUB_STEP_SUMMARY when CI sets it, so every perf-lane run
    shows how much room is left before the gate trips."""
    if not deltas:
        return
    print("\n%s:" % title)
    print("  %-44s %-8s %12s %12s %12s %9s"
          % ("config", "metric", "measured", "floor", "budget", "headroom"))
    for cfg, metric, measured, floor_value, budget in deltas:
        headroom = (1.0 - measured / budget) * 100.0 if budget > 0 else 0.0
        print("  %-44s %-8s %12.4f %12.4f %12.4f %+8.1f%%"
              % (cfg, metric, measured, floor_value, budget, headroom))
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write("### %s\n\n" % title)
            fh.write("| config | metric | measured | floor | budget "
                     "| headroom |\n|---|---|---:|---:|---:|---:|\n")
            for cfg, metric, measured, floor_value, budget in deltas:
                headroom = ((1.0 - measured / budget) * 100.0
                            if budget > 0 else 0.0)
                fh.write("| `%s` | %s | %.4f | %.4f | %.4f | %+.1f%% |\n"
                         % (cfg, metric, measured, floor_value, budget,
                            headroom))
            fh.write("\n")


def config_key(row):
    return (row["algo"], row["n"], row["f"], row["k"])


def e16_key(row):
    return (row["family"], row["scale"], row["f"], row["k"])


def load(path):
    with open(path) as fh:
        return json.load(fh)


def load_floors(path, section):
    floors = load(path)
    if isinstance(floors, list):  # legacy flat file: e4 entries only
        return floors if section == "e4" else []
    return floors.get(section, [])


def check_e16(rows, floors, slack):
    """Gate an E16 sweep: wall-clock with slack, RSS as a hard ceiling,
    spanner_m pinned exactly when the floor entry records it."""
    failures = []
    deltas = []
    indexed = {e16_key(r): r for r in rows}
    checked = 0
    for floor in floors:
        key = e16_key(floor)
        row = indexed.pop(key, None)
        if row is None:
            print("  (floor config %s not in this run — nightly-only)"
                  % (key,))
            continue
        checked += 1
        cfg = "%s scale=%d f=%d k=%d" % key
        budget = floor["seconds"] * (1.0 + slack)
        deltas.append((cfg, "seconds", row["seconds"], floor["seconds"],
                       budget))
        if row["seconds"] > budget:
            failures.append(
                "%s: %.2fs exceeds the floor %.2fs + %d%% slack (= %.2fs)"
                % (key, row["seconds"], floor["seconds"],
                   round(slack * 100), budget))
        ceiling = floor.get("max_peak_rss_mb")
        if ceiling is not None:
            deltas.append((cfg, "rss_mb", row["peak_rss_mb"], float(ceiling),
                           float(ceiling)))
        if ceiling is not None and row["peak_rss_mb"] > ceiling:
            failures.append(
                "%s: peak RSS %.0f MB exceeds the hard ceiling %.0f MB"
                % (key, row["peak_rss_mb"], ceiling))
        alloc_ceiling = floor.get("max_alloc_calls")
        if alloc_ceiling is not None:
            deltas.append((cfg, "allocs", float(row["alloc_calls"]),
                           float(alloc_ceiling), float(alloc_ceiling)))
            if row["alloc_calls"] > alloc_ceiling:
                failures.append(
                    "%s: %d operator-new calls exceed the hard ceiling %d — "
                    "per-decision heap churn came back (or a disabled obs "
                    "layer is allocating on the hot path)"
                    % (key, row["alloc_calls"], alloc_ceiling))
        pinned = floor.get("spanner_m")
        if pinned is not None and row["spanner_m"] != pinned:
            failures.append(
                "%s: spanner_m %d != pinned %d — a seeded run is no longer "
                "deterministic (or decisions changed)"
                % (key, row["spanner_m"], pinned))
    if checked == 0:
        failures.append("no E16 row matched any floor config — the sweep "
                        "measured nothing the gate covers")
    for key in indexed:
        failures.append("E16 row %s has no floor entry — add one to "
                        "ci_perf_floor.json before landing a new config"
                        % (key,))
    for r in sorted(rows, key=e16_key):
        print("  %-10s scale=%-2d f=%d k=%d  %8.2fs  gen %6.2fs  "
              "rss %6.0f MB  m(H)=%d  grafts=%d"
              % (r["family"], r["scale"], r["f"], r["k"],
                 r["seconds"], r["gen_seconds"], r["peak_rss_mb"],
                 r["spanner_m"], r["tree_extends"]))
    emit_delta_table("E16 scale floor deltas", deltas)
    return failures


def e17_key(row):
    return (row["algo"], row["model"], row["scenario"], row["n"], row["f"],
            row["k"])


def check_e17(rows, floors, tolerance=1e-6):
    """Gate an E17 attack shootout: max_stretch pinned within tolerance (null
    = disconnected, pinned as null), disconnected_trials and spanner_m pinned
    exactly.  No wall-clock gates — this lane pins results."""
    failures = []
    indexed = {e17_key(r): r for r in rows}
    checked = 0
    for floor in floors:
        key = (floor["algo"], floor["model"], floor["scenario"], floor["n"],
               floor["f"], floor["k"])
        row = indexed.pop(key, None)
        if row is None:
            print("  (floor config %s not in this run — nightly-only)"
                  % (key,))
            continue
        checked += 1
        pinned = floor["max_stretch"]
        measured = row["max_stretch"]
        if (pinned is None) != (measured is None):
            failures.append(
                "%s: max_stretch %s != pinned %s — a seeded storm flipped "
                "between finite stretch and disconnection"
                % (key, measured, pinned))
        elif pinned is not None and abs(measured - pinned) > tolerance:
            failures.append(
                "%s: max_stretch %.9f != pinned %.9f (tolerance %g) — a "
                "seeded scenario storm is no longer deterministic (or the "
                "construction/scenario decisions changed)"
                % (key, measured, pinned, tolerance))
        if row["disconnected_trials"] != floor["disconnected_trials"]:
            failures.append(
                "%s: disconnected_trials %d != pinned %d"
                % (key, row["disconnected_trials"],
                   floor["disconnected_trials"]))
        pinned_m = floor.get("spanner_m")
        if pinned_m is not None and row["spanner_m"] != pinned_m:
            failures.append(
                "%s: spanner_m %d != pinned %d — a seeded construction is no "
                "longer deterministic" % (key, row["spanner_m"], pinned_m))
    if checked == 0:
        failures.append("no E17 row matched any floor config — the shootout "
                        "measured nothing the gate covers")
    for key in indexed:
        failures.append("E17 row %s has no floor entry — add one to "
                        "ci_perf_floor.json before landing a new config"
                        % (key,))
    for r in sorted(rows, key=e17_key):
        print("  %-12s %-6s %-8s n=%-4d f=%d k=%d  p50=%-6s max=%-6s "
              "disc=%-2d ok=%s"
              % (r["algo"], r["model"], r["scenario"], r["n"], r["f"], r["k"],
                 "inf" if r["p50_stretch"] is None
                 else "%.2f" % r["p50_stretch"],
                 "inf" if r["max_stretch"] is None
                 else "%.2f" % r["max_stretch"],
                 r["disconnected_trials"], r["ok"]))
    return failures


def e13_key(row):
    return (row["algo"], row["model"], row["scenario"], row["graph"],
            row["n"], row["f"], row["k"])


def check_e13(rows, floors, tolerance=1e-6):
    """Gate an E13 zoo shootout: per (algo, model, scenario, graph) cell,
    max_stretch pinned within tolerance (null = disconnected, pinned as
    null), disconnected_trials and spanner_m pinned exactly.  spanner_m is
    the load-bearing pin — it proves every registered construction is still
    deterministic through the dispatch table."""
    failures = []
    indexed = {e13_key(r): r for r in rows}
    checked = 0
    for floor in floors:
        key = (floor["algo"], floor["model"], floor["scenario"],
               floor["graph"], floor["n"], floor["f"], floor["k"])
        row = indexed.pop(key, None)
        if row is None:
            print("  (floor config %s not in this run — nightly-only)"
                  % (key,))
            continue
        checked += 1
        pinned = floor["max_stretch"]
        measured = row["max_stretch"]
        if (pinned is None) != (measured is None):
            failures.append(
                "%s: max_stretch %s != pinned %s — a seeded storm flipped "
                "between finite stretch and disconnection"
                % (key, measured, pinned))
        elif pinned is not None and abs(measured - pinned) > tolerance:
            failures.append(
                "%s: max_stretch %.9f != pinned %.9f (tolerance %g) — a "
                "seeded scenario storm is no longer deterministic (or the "
                "construction/scenario decisions changed)"
                % (key, measured, pinned, tolerance))
        if row["disconnected_trials"] != floor["disconnected_trials"]:
            failures.append(
                "%s: disconnected_trials %d != pinned %d"
                % (key, row["disconnected_trials"],
                   floor["disconnected_trials"]))
        if row["spanner_m"] != floor["spanner_m"]:
            failures.append(
                "%s: spanner_m %d != pinned %d — a seeded construction is no "
                "longer deterministic through the registry"
                % (key, row["spanner_m"], floor["spanner_m"]))
    if checked == 0:
        failures.append("no E13 row matched any floor config — the shootout "
                        "measured nothing the gate covers")
    for key in indexed:
        failures.append("E13 row %s has no floor entry — add one to "
                        "ci_perf_floor.json before landing a new config"
                        % (key,))
    for r in sorted(rows, key=e13_key):
        print("  %-12s %-6s %-8s %-5s n=%-4d f=%d k=%d  m(H)=%-4d "
              "p50=%-6s max=%-6s disc=%-2d ok=%s"
              % (r["algo"], r["model"], r["scenario"], r["graph"], r["n"],
                 r["f"], r["k"], r["spanner_m"],
                 "inf" if r["p50_stretch"] is None
                 else "%.2f" % r["p50_stretch"],
                 "inf" if r["max_stretch"] is None
                 else "%.2f" % r["max_stretch"],
                 r["disconnected_trials"], r["ok"]))
    return failures


def e18_key(row):
    return (row["family"], row["n"], row["f"], row["k"], row["model"])


def check_e18(rows, floors):
    """Gate an E18 churn run on the service contract: every staleness
    checkpoint verified, the incremental-vs-rebuild speedup ratio holds, and
    the workload met the floor's minimum size.  No wall-clock gates — the
    speedup is a ratio of two times measured on the same machine."""
    failures = []
    deltas = []
    indexed = {e18_key(r): r for r in rows}
    checked = 0
    for floor in floors:
        key = (floor["family"], floor["n"], floor["f"], floor["k"],
               floor["model"])
        row = indexed.pop(key, None)
        if row is None:
            print("  (floor config %s not in this run — nightly-only)"
                  % (key,))
            continue
        checked += 1
        cfg = "%s n=%d f=%d k=%d %s" % key
        if not row["checkpoints_ok"]:
            failures.append(
                "%s: a staleness checkpoint FAILED verify_sampled — the "
                "maintained spanner stopped being an f-FT spanner under "
                "churn; throughput numbers from a broken structure are void"
                % (key,))
        min_speedup = floor.get("min_speedup_vs_rebuild")
        if min_speedup is not None:
            # Headroom reads inverted for a >= gate: report the floor as the
            # budget so the table shows how far above the minimum we sit.
            deltas.append((cfg, "speedup", float(min_speedup),
                           float(row["speedup_vs_rebuild"]),
                           float(row["speedup_vs_rebuild"])))
            if row["speedup_vs_rebuild"] < min_speedup:
                failures.append(
                    "%s: speedup_vs_rebuild %.1fx is below the %.0fx floor — "
                    "incremental maintenance no longer pays for itself"
                    % (key, row["speedup_vs_rebuild"], min_speedup))
        if row["updates"] < floor.get("min_updates", 0):
            failures.append(
                "%s: only %d updates applied (floor requires >= %d)"
                % (key, row["updates"], floor["min_updates"]))
        if row["queries"] < floor.get("min_queries", 0):
            failures.append(
                "%s: only %d queries measured (floor requires >= %d)"
                % (key, row["queries"], floor["min_queries"]))
    if checked == 0:
        failures.append("no E18 row matched any floor config — the churn "
                        "lane measured nothing the gate covers")
    for key in indexed:
        failures.append("E18 row %s has no floor entry — add one to "
                        "ci_perf_floor.json before landing a new config"
                        % (key,))
    for r in sorted(rows, key=e18_key):
        print("  %-6s n=%-6d f=%d k=%d %-6s  upd/s=%-8.0f qry/s=%-8.0f "
              "p50=%.1fus p99=%.1fus  speedup=%.0fx  checkpoints=%s"
              % (r["family"], r["n"], r["f"], r["k"], r["model"],
                 r["updates_per_s"], r["queries_per_s"], r["p50_query_us"],
                 r["p99_query_us"], r["speedup_vs_rebuild"],
                 "ok" if r["checkpoints_ok"] else "FAILED"))
    emit_delta_table("E18 churn floor deltas", deltas)
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("main", help="bench JSON from the perf lane")
    parser.add_argument("--floor", required=True,
                        help="checked-in per-config floor (ci_perf_floor.json)")
    parser.add_argument("--e13", action="store_true",
                        help="validate a BENCH_e13_shootout.json instead of E4")
    parser.add_argument("--e16", action="store_true",
                        help="validate a BENCH_e16_scale.json instead of E4")
    parser.add_argument("--e17", action="store_true",
                        help="validate a BENCH_e17_attack.json instead of E4")
    parser.add_argument("--e18", action="store_true",
                        help="validate a BENCH_e18_churn.json instead of E4")
    parser.add_argument("--ab", nargs="*", default=[],
                        help="A/B run JSONs that must keep sweeps/spanner_m")
    parser.add_argument("--slack", type=float, default=0.25,
                        help="allowed regression over the floor (default 25%%)")
    args = parser.parse_args()

    rows = load(args.main)
    failures = []

    if args.e13:
        floors = load_floors(args.floor, "e13")
        print("e13 zoo lane: %d rows, %d floor configs"
              % (len(rows), len(floors)))
        failures = check_e13(rows, floors)
        if failures:
            print("\nFAILURES:", file=sys.stderr)
            for failure in failures:
                print("  - " + failure, file=sys.stderr)
            return 1
        print("all checks passed: every registered construction reproduced "
              "its pinned size and stretch profile through the dispatch")
        return 0

    if args.e18:
        floors = load_floors(args.floor, "e18")
        print("e18 churn lane: %d rows, %d floor configs"
              % (len(rows), len(floors)))
        failures = check_e18(rows, floors)
        if failures:
            print("\nFAILURES:", file=sys.stderr)
            for failure in failures:
                print("  - " + failure, file=sys.stderr)
            return 1
        print("all checks passed: every checkpoint verified, incremental "
              "maintenance beats rebuild-per-update by the required margin")
        return 0

    if args.e17:
        floors = load_floors(args.floor, "e17")
        print("e17 attack lane: %d rows, %d floor configs"
              % (len(rows), len(floors)))
        failures = check_e17(rows, floors)
        if failures:
            print("\nFAILURES:", file=sys.stderr)
            for failure in failures:
                print("  - " + failure, file=sys.stderr)
            return 1
        print("all checks passed: every seeded storm reproduced its pinned "
              "stretch profile")
        return 0

    if args.e16:
        floors = load_floors(args.floor, "e16")
        print("e16 scale lane: %d rows, %d floor configs"
              % (len(rows), len(floors)))
        failures = check_e16(rows, floors, args.slack)
        if failures:
            print("\nFAILURES:", file=sys.stderr)
            for failure in failures:
                print("  - " + failure, file=sys.stderr)
            return 1
        print("all checks passed: within floor, under RSS ceiling, "
              "deterministic")
        return 0

    # 1. Bit-identity across the A/B knob files.
    reference = {config_key(r): (r["sweeps"], r["spanner_m"]) for r in rows}
    for path in args.ab:
        for r in load(path):
            key = config_key(r)
            if key not in reference:
                failures.append("%s: config %s absent from %s"
                                % (path, key, args.main))
            elif reference[key] != (r["sweeps"], r["spanner_m"]):
                failures.append(
                    "%s: config %s gives sweeps/spanner_m %s but the main "
                    "run gave %s — an A/B knob changed decisions"
                    % (path, key, (r["sweeps"], r["spanner_m"]),
                       reference[key]))

    # 2. Regression gate against the checked-in floor.
    floors = load_floors(args.floor, "e4")
    deltas = []
    indexed = {config_key(r): r for r in rows}
    for floor in floors:
        key = config_key(floor)
        row = indexed.get(key)
        if row is None:
            failures.append("floor config %s missing from %s" % (key, args.main))
            continue
        budget = floor["seconds"] * (1.0 + args.slack)
        deltas.append(("%s n=%d f=%d k=%d" % key, "seconds",
                       row["seconds"], floor["seconds"], budget))
        if row["seconds"] > budget:
            failures.append(
                "%s: %.4fs exceeds the floor %.4fs + %d%% slack (= %.4fs)"
                % (key, row["seconds"], floor["seconds"],
                   round(args.slack * 100), budget))

    print("e4 runtime lane: %d rows, %d floor configs, %d A/B files"
          % (len(rows), len(floors), len(args.ab)))
    emit_delta_table("E4 runtime floor deltas", deltas)

    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures:
            print("  - " + failure, file=sys.stderr)
        return 1
    print("all checks passed: bit-identical across knobs, within floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
