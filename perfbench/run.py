#!/usr/bin/env python3
"""Build the serving benchmark from the repository sources and run it.

    python3 perfbench/run.py --workload long_scan --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) in Release under .bench_build/
at the repository root, then runs the benchmark binary. Its standard
output passes through unchanged: a host block, the metrics as text, and
as the last line one JSON object with the keys correct, attempted,
failed and metrics. See perfbench/BENCH.md.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"

WORKLOADS = ("long_scan", "short_batch", "dict_stream", "paper_chip")
DEFAULT_SEED = 1
HELD_OUT_SEED = 8191  # kept out of tuning; for checking later claims
RUN_TIMEOUT_S = 170


def git_sha():
    """The checked-out commit, read from .git without leaving the repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no repository sources next to perfbench/",
              file=sys.stderr)
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "spm_perfbench", "-j", jobs])
    log_path = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("perfbench: build failed:\n" + "\n".join(tail),
                      file=sys.stderr)
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; the held-out"
                         f" seed for checking claims is {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (the quick test's size)")
    args = ap.parse_args()

    if not build():
        return 2
    cmd = [str(BUILD / "spm_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: benchmark binary exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
