#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Workloads: build, serve (see perfbench/README.md). The last line of
standard output is the result object
{"correct", "attempted", "failed", "metrics"}; build output goes to
standard error. `--selftest` builds and runs the benchmark's own unit tests
instead of a workload.
"""

import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# Files that make up the program under test, hashed into the provenance
# record so results from non-git checkouts stay attributable.
SOURCE_ROOTS = ("src", "tools", "cmake", "CMakeLists.txt")


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build(targets):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] +
                     targets)


def source_digest(root):
    digest = hashlib.sha256()
    for entry in SOURCE_ROOTS:
        path = os.path.join(root, entry)
        files = []
        if os.path.isfile(path):
            files.append(path)
        for dirpath, _, names in os.walk(path):
            files.extend(os.path.join(dirpath, n) for n in names)
        for name in sorted(files):
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    # The ceiling keeps git from picking up a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    root = os.path.dirname(BENCH_DIR)
    if "--selftest" in argv:
        if not build(["perfbench_test"]):
            log("perfbench: build failed")
            return 2
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")]
                              ).returncode
    if not build(["perfbench"]):
        log("perfbench: build failed")
        return 2
    cmd = [os.path.join(BUILD_DIR, "perfbench")] + argv + [
        "--commit", git_commit(root), "--source-digest", source_digest(root)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
