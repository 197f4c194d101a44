#!/usr/bin/env python3
"""The ftspan benchmark: builds the load generator and runs one workload.

    python3 perfbench/run.py --workload kron_build|geo_verify|gnp_churn \
        --seed N --seconds S --trace 0|1 [--keep] [--record-pins]

Run from the repository root.  Every run configures and builds
perfbench/CMakeLists.txt (the ftspan library from src/ plus the load
generator, Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later runs rebuild only
what changed.  Build output goes to stderr.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones (see perfbench/README.md).  The
line before it carries the provenance block, the correctness checks and the
sample counts.  Known seeds are checked against perfbench/pins.json;
--record-pins rewrites that seed's entry instead.

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("kron_build", "geo_verify", "gnp_churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import summarize  # noqa: E402


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures and builds the load generator; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "ftspan_perfbench")


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def load_pins():
    if not os.path.exists(PINS):
        return {}
    with open(PINS, encoding="utf-8") as f:
        return json.load(f)


def check_pins(result, workload, seed, mode, record):
    """Compares the run's checks with the pinned values for this seed, if
    any; returns the number of mismatches (each counts as a failed check)."""
    pins = load_pins()
    checks = result["checks"]
    if record:
        pins.setdefault(workload, {}).setdefault(str(seed), {})[mode] = checks
        with open(PINS, "w", encoding="utf-8") as f:
            json.dump(pins, f, indent=2, sort_keys=True)
            f.write("\n")
        return 0
    pinned = pins.get(workload, {}).get(str(seed), {}).get(mode)
    if pinned is None:
        return -1
    mismatches = 0
    for key, want in pinned.items():
        if checks.get(key) != want:
            mismatches += 1
            log(f"pin mismatch: {workload} seed {seed} {key}: "
                f"got {checks.get(key)!r}, pinned {want!r}")
    return mismatches


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--keep", action="store_true",
                    help="keep the run directory (trace files) after the run")
    ap.add_argument("--record-pins", action="store_true",
                    help="write this seed's checks into perfbench/pins.json")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    units = declared_metrics(args.trace == 1)
    bdir = build_dir()
    binary = build(bdir)
    run_dir = os.path.join(bdir, "runs", f"{args.workload}-{args.seed}-"
                           f"{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", "."],
            cwd=run_dir, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"ftspan_perfbench exited {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if args.trace:
            with open(os.path.join(run_dir, "layers.json"), "w",
                      encoding="utf-8") as f:
                json.dump(result["metrics"], f)
            measured = summarize.summarize(run_dir)
            summarize.print_table(measured, out=sys.stderr)
        else:
            measured = result["metrics"]
    finally:
        if not args.keep:
            shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    for reason in result["failures"].values():
        log("failed: " + reason)
    mismatches = check_pins(result, args.workload, args.seed,
                            "trace" if args.trace else "end_to_end",
                            args.record_pins)
    if mismatches >= 0:
        attempted += 1
        failed += 1 if mismatches else 0
    missing = sorted(set(units) - set(measured))
    if missing:
        raise RuntimeError("metrics not measured: " + ", ".join(missing))

    provenance = dict(result["provenance"], git_sha=git_sha(),
                      pinned_seed=mismatches >= 0)
    print(json.dumps({"provenance": provenance, "checks": result["checks"],
                      "samples": result["samples"]}))
    print(json.dumps({
        "correct": bool(result["correct"]) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"perfbench: {err}")
        sys.exit(1)
