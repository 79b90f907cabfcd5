#!/usr/bin/env python3
"""Builds and runs the end-to-end service benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload detect --seed 1 --seconds 15 --trace 0

On first use this configures and builds the fbdetect libraries and the
benchmark binary from this checkout's sources into .bench_build/perfbench.
It then runs one workload and relays the binary's report: every end-to-end metric
with its unit and sample count, and as the last line one JSON object.
Result files (result.json, spans, ground truth) go to
.bench_out/<workload>-seed<seed>-trace<0|1>/.

Exits non-zero without a result when the sources are missing, the build
fails, the run hits its wall-time cap, or an output check fails.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Wall-time cap for one run of one workload, set-up and replay included.
WALL_CAP_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no fbdetect sources under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_stamp():
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    return "git:%s,src:%s" % (commit, digest.hexdigest()[:16])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["detect", "ingest", "live"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizing")
    args = parser.parse_args()

    build()
    out = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out,
               "--scratch", scratch, "--sha", source_stamp()]
    if args.tiny:
        command.append("--tiny")
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=WALL_CAP_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        # The durable directories live here; remove them on every exit path.
        shutil.rmtree(scratch, ignore_errors=True)
    if code is None:
        fail("%s hit the %d s wall-time cap and was stopped" % (args.workload, WALL_CAP_S))
    sys.exit(code)


if __name__ == "__main__":
    main()
