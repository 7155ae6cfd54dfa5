#!/usr/bin/env python3
"""Builds and runs the V-ETL benchmark (perfbench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test      # build and run the benchmark's tests

Run from anywhere inside a source checkout. The program and the benchmark
are compiled from source into the build directory ($CARGO_TARGET_DIR when
set, else .bench_build, relative to the checkout root) on first use; later
runs only rebuild what changed. The last line of standard output is the
result JSON object printed by the benchmark binary; build output goes to
standard error. Exit status: the binary's (0 = every check passed), 2 when
the build fails, 3 when the run exceeds its time limit.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: build step timed out: " + " ".join(cmd), file=sys.stderr)
        return False
    return proc.returncode == 0


def build(target):
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", BENCH_DIR, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    if not run_checked(["cmake", "--build", out, "-j", jobs, "--target", target],
                       BUILD_TIMEOUT_S):
        return None
    binary = os.path.join(out, target)
    return binary if os.path.exists(binary) else None


def git_commit():
    if shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the program's and the benchmark's sources, so a result
    names the code it measured even in a checkout without git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


def main(argv):
    if argv == ["--test"]:
        binary = build("perfbench_test")
        return 2 if binary is None else run([binary])
    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out = os.path.join(build_dir(), "out")
    os.makedirs(out, exist_ok=True)
    sys.stdout.flush()
    return run([binary] + argv + ["--out", out, "--commit", git_commit(),
                                  "--source-digest", source_digest()])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
