#!/usr/bin/env python3
"""Per-layer table from a traced perfbench run.

Reads the Chrome trace and the ftobs metrics snapshot that
`ftspan_perfbench --trace 1` writes, plus the per-layer values the program
measured itself (layers.json), and prints one row per layer with its self
time: a span's duration minus the time its child spans on the same thread
cover.  Span categories map to layers: the benchmark's own spans are named
after the layer they wrap, and the library's own spans (sweep, tree, graft,
repair, verify, service) are folded into the layer that emits them.

    python3 perfbench/summarize.py RUN_DIR

where RUN_DIR holds trace.json, obs_metrics.json and layers.json (run.py
keeps them with --keep).
"""

import json
import os
import sys

LAYERS = ("graph", "core", "fault", "service", "ftspand")
LAYER_OF_CATEGORY = {
    "graph": "graph",
    "core": "core",
    "sweep": "core",
    "tree": "core",
    "graft": "core",
    "repair": "core",
    "fault": "fault",
    "verify": "fault",
    "service": "service",
    "ftspand": "ftspand",
}


def iter_events(trace_path):
    """Yields trace events one at a time: the exporter writes one event per
    line, so a large trace never has to be held in memory as one document."""
    with open(trace_path, encoding="utf-8") as f:
        for line in f:
            line = line.strip().strip(",")
            if line.startswith("{") and not line.startswith('{"traceEvents"'):
                yield json.loads(line)


def self_times_ms(trace_path):
    """Self time per layer, in milliseconds, summed over every thread."""
    totals = {layer: 0.0 for layer in LAYERS}
    stacks = {}  # tid -> [[layer, begin_us, child_us], ...]
    for ev in iter_events(trace_path):
        phase = ev.get("ph")
        stack = stacks.setdefault(ev.get("tid"), [])
        if phase == "B":
            layer = LAYER_OF_CATEGORY.get(ev.get("cat"), "other")
            stack.append([layer, float(ev["ts"]), 0.0])
        elif phase == "E" and stack:
            layer, begin, child = stack.pop()
            duration = float(ev["ts"]) - begin
            if layer in totals:
                totals[layer] += (duration - child) / 1000.0
            if stack:
                stack[-1][2] += duration
    return totals


def summarize(run_dir):
    """The per-layer metric dict of one traced run."""
    with open(os.path.join(run_dir, "layers.json"), encoding="utf-8") as f:
        metrics = json.load(f)
    with open(os.path.join(run_dir, "obs_metrics.json"), encoding="utf-8") as f:
        snapshot = json.load(f)
    for layer, ms in self_times_ms(os.path.join(run_dir, "trace.json")).items():
        metrics[layer + ".self_ms"] = ms
    metrics["obs.dropped_events"] = snapshot.get("obs.dropped_events", 0)
    return metrics


def print_table(metrics, out=sys.stdout):
    for layer in LAYERS + ("obs",):
        rows = sorted(k for k in metrics if k.startswith(layer + "."))
        cells = ", ".join(f"{k.split('.', 1)[1]}={metrics[k]:.6g}" for k in rows)
        print(f"{layer:8s} {cells}", file=out)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print_table(summarize(sys.argv[1]))
