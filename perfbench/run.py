#!/usr/bin/env python3
"""Wire-level benchmark of the GeoGrid serving edge.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <ingest|query|live> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the `perfbench` executable (and the GeoGrid libraries it links)
into .bench_build/ with CMake, runs the model self-test after a build, then
runs one workload and prints its result as the last line of stdout: one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  Build
output and the benchmark's own diagnostics go to stderr.
"""
import argparse
import ctypes
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def die_with_parent():
    """Child side of fork: get SIGTERM if this script dies first."""
    libc = ctypes.CDLL("libc.so.6", use_errno=True)
    libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


def run(cmd, timeout):
    """Runs cmd with stdout to stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            preexec_fn=die_with_parent)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -1


def build():
    """Configures once, builds incrementally; True when the binary changed."""
    before = os.stat(EXE).st_mtime_ns if os.path.exists(EXE) else None
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run(["cmake", "-S", SOURCE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"], 300) != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
           840) != 0:
        return None
    if not os.path.exists(EXE):
        return None
    return os.stat(EXE).st_mtime_ns != before


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    changed = build()
    if changed is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if changed or args.selftest:
        if run([EXE, "selftest"], 120) != 0:
            print("perfbench: self-test failed", file=sys.stderr)
            return 3
    if args.selftest:
        return 0
    if not args.workload:
        ap.error("--workload is required")

    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            preexec_fn=die_with_parent, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 5
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
