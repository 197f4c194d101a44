#!/usr/bin/env python3
"""CI gate for the one parallel path ftspan keeps: the verifier storm.

verify_sampled fans its fault sets over the shared worker pool, so
`ftspan_cli verify --threads N` must beat `--threads 1` on a storm big
enough to amortize the fan-out.  The gate:

1. requires at least `threads` CPUs (a smaller runner cannot measure the
   speedup, so it fails instead of passing vacuously);
2. generates a seeded G(n, p), builds its modified-greedy spanner, and times
   the sampled verify storm at 1 thread and at `threads`, best of `reps`
   runs each;
3. requires every verify report to be byte-identical (the report depends
   on neither the thread count nor the run);
4. requires wall-clock speedup (best 1-thread time / best `threads` time)
   >= `min_speedup`.

The storm and its floor are the "verify_storm" object of the floor file:
{"n", "p", "seed", "k", "f", "trials", "threads", "reps", "min_speedup"}.

Usage:
  check_verify_speedup.py FTSPAN_CLI FLOOR.json

Exits non-zero with a per-failure report.
"""

import json
import os
import subprocess
import sys
import tempfile
import time


def run(cmd):
    """Runs cmd, returning (seconds, stdout); raises on a non-zero exit."""
    start = time.perf_counter()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return time.perf_counter() - start, out.stdout


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cli, floor_path = sys.argv[1], sys.argv[2]
    with open(floor_path) as fh:
        storm = json.load(fh)["verify_storm"]

    cpus = os.cpu_count() or 1
    if cpus < storm["threads"]:
        print("FAILURE: %d CPUs; the storm needs >= %d to measure a "
              "%d-thread speedup" % (cpus, storm["threads"], storm["threads"]),
              file=sys.stderr)
        return 1

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        g = os.path.join(tmp, "g.graph")
        h = os.path.join(tmp, "h.graph")
        run([cli, "gen", "--out", g, "--family", "gnp", "--n",
             str(storm["n"]), "--p", str(storm["p"]), "--seed",
             str(storm["seed"])])
        run([cli, "build", "--in", g, "--out", h, "--k", str(storm["k"]),
             "--f", str(storm["f"])])
        best = {}
        reports = set()
        for threads in (1, storm["threads"]):
            times = []
            for _ in range(storm["reps"]):
                seconds, report = run(
                    [cli, "verify", "--in", g, "--spanner", h, "--k",
                     str(storm["k"]), "--f", str(storm["f"]), "--trials",
                     str(storm["trials"]), "--threads", str(threads)])
                times.append(seconds)
                reports.add(report)
            best[threads] = min(times)
            print("  threads=%-2d %s s" % (threads, " ".join(
                "%.3f" % t for t in times)))

    if len(reports) != 1:
        failures.append("the verify reports differ across runs and thread "
                        "counts:\n" + "\n--\n".join(sorted(reports)))
    speedup = best[1] / best[storm["threads"]]
    print("verify storm G(n=%d, p=%g) f=%d k=%d, %d trials: best %.3f s at 1 "
          "thread, %.3f s at %d -> %.2fx (floor %.2fx)"
          % (storm["n"], storm["p"], storm["f"], storm["k"], storm["trials"],
             best[1], best[storm["threads"]], storm["threads"], speedup,
             storm["min_speedup"]))
    if speedup < storm["min_speedup"]:
        failures.append("speedup %.2fx is below the %.2fx floor — the "
                        "verifier no longer pays for its threads"
                        % (speedup, storm["min_speedup"]))

    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures:
            print("  - " + failure, file=sys.stderr)
        return 1
    print("all checks passed: identical reports, speedup above the floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
