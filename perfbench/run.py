#!/usr/bin/env python3
"""The repo benchmark's entry point.

    python3 perfbench/run.py --workload alg5-n6400|ds-n800|daemon-mix \
        --seed N --seconds S --trace 0|1 [--smoke] [--inject-failure]

Builds the dr82 libraries, the dr82d daemon and the perfbench binary from
the sources next to this directory (into $CARGO_TARGET_DIR, default
.bench_build), then runs one workload. The last line of standard output is
the result object; the line before it holds the run's metadata (hash
backend, cores, git SHA, digest of src/). Exits non-zero without a result
when the build fails, and non-zero with a result when a check fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("alg5-n6400", "ds-n800", "daemon-mix")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then (re)builds the two binaries; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "dr82d", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(cmd))
            return False
    return True


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def source_digest():
    """SHA-256 over the program's sources (src/), path by path: names the
    program measured where there is no git checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    parser.add_argument("--inject-failure", action="store_true",
                        help="corrupt one expected value (tests)")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dr82d", os.path.join(build_dir, "dr82", "dr82d"),
           "--trace-dir", trace_dir,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_failure:
        cmd.append("--inject-failure")
    # Its own process group, so a timeout also takes down the daemon
    # processes daemon-mix spawns.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench timed out after", RUN_TIMEOUT_S, "s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
