#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size pass of every workload.

    python3 perfbench/selftest.py

For each workload (those in BENCHMARK.json and `live`) it runs
perfbench/run.py at self-test sizing untraced and traced, and asserts that
  * every end-to-end metric of BENCHMARK.json (untraced) and every per-layer
    metric (traced) is on the last output line with its unit;
  * every end-to-end metric the workload defines is printed with a unit and
    a sample count;
  * the same seed generates byte-identical inputs (same input digest) and a
    different seed generates different ones.
Exits non-zero on the first failed assertion.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# The end-to-end metrics each workload reports by its own names.
WORKLOAD_METRICS = {
    "detect": ["scan_series_per_s", "run_ms_p50", "run_ms_p90", "recall", "precision",
               "failed_frac", "setup_s", "peak_rss_mb"],
    "ingest": ["ingest_pts_per_s", "ack_ms_p50", "ack_ms_p90", "failed_frac", "setup_s",
               "peak_rss_mb"],
    "live": ["scan_series_per_s", "run_ms_p50", "run_ms_p90", "ack_ms_p90", "ack_ms_p99",
             "failed_frac", "setup_s", "peak_rss_mb"],
}
# Per-layer metrics only `live` exercises (ingest beside /run, an open-loop
# schedule); BENCHMARK.json gates the other workloads and leaves them out.
LIVE_PER_LAYER = [{"name": "service.acks_during_run_frac", "unit": "fraction"},
                  {"name": "loadgen.late_ms_max", "unit": "ms"}]
METRIC_LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+)\s+(\S+)\s+n=(\d+)$")


def run(workload, seed, trace):
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", "2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s\n%s" % (" ".join(command[1:]), proc.returncode,
                                              proc.stdout[-3000:], proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    digest = re.search(r"inputs=([0-9a-f]+)", lines[0]).group(1)
    printed = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = (match.group(3), int(match.group(4)))
    return json.loads(lines[-1]), printed, digest


def check(condition, message):
    if not condition:
        sys.exit("FAIL " + message)


def check_metrics(result, expected, label):
    check(result["correct"] is True and result["failed"] == 0, label + ": run not correct")
    check(result["attempted"] >= 1, label + ": nothing attempted")
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        check(got is not None, "%s: %s missing" % (label, metric["name"]))
        check(got["unit"] == metric["unit"], "%s: %s has unit %s, want %s"
              % (label, metric["name"], got["unit"], metric["unit"]))
        check(isinstance(got["value"], (int, float)), label + ": non-numeric " + metric["name"])
    check(len(result["metrics"]) == len(expected), label + ": unexpected extra metrics")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in WORKLOAD_METRICS:
        untraced, printed, digest = run(workload, 1, 0)
        check_metrics(untraced, bench["end_to_end"], workload + " untraced")
        for name in WORKLOAD_METRICS[workload]:
            check(name in printed, "%s: %s not printed with unit and samples" % (workload, name))
        traced, _, traced_digest = run(workload, 1, 1)
        per_layer = bench["per_layer"] + (LIVE_PER_LAYER if workload == "live" else [])
        check_metrics(traced, per_layer, workload + " traced")
        check(traced_digest == digest, workload + ": same seed, different inputs")
        _, _, other_digest = run(workload, 2, 0)
        check(other_digest != digest, workload + ": different seeds, same inputs")
        print("ok %s (inputs %s)" % (workload, digest))
    print("selftest passed")


if __name__ == "__main__":
    main()
