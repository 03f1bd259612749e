#!/usr/bin/env python3
"""Build and run the qmh benchmark of record.

Run from the root of a qmh checkout:

    python3 perfbench/run.py --workload sweep-shared --seed 1 \
        --seconds 15 --trace 0

The script configures and builds perfbench/ (which compiles the
checkout's src/ in Release) into $CARGO_TARGET_DIR, default
.bench_build, then runs one workload in its own process. Standard
output ends with one JSON line: correct, attempted, failed, metrics.
Build output goes to standard error. Traced runs (--trace 1) also
write their spans as Chrome trace-event JSON under the build
directory.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("sweep-shared", "sweep-distinct", "sweep-pressure",
             "serve-mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def source_digest(src):
    """sha256 over every file under src/, in sorted path order."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's scratch files stay inside the build directory.
    scratch = os.path.join(build_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if configure.returncode != 0:
            return False
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "qmh_perfbench"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    return compiled.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        return fail("--seed must be non-negative")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "api", "session.hh")):
        return fail("no qmh sources under " + src +
                    "; run from the root of a qmh checkout")
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(root, build_dir):
        return fail("build failed")

    command = [os.path.join(build_dir, "qmh_perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--git-sha", git_sha(root),
               "--src-digest", source_digest(src)]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--spans-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
