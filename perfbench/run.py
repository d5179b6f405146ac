#!/usr/bin/env python3
"""Build and run the mrsc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src) in
Release mode under $CARGO_TARGET_DIR (default .bench_build); later calls
rebuild incrementally. Build output goes to standard error. The benchmark
binary's report lines and its final result line go to standard output.
Exits non-zero when the sources are missing, the build fails, or the run
fails a check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
MAX_JOBS = 4


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = CHECKOUT / target
    return target / "perfbench"


def run_quiet(command):
    """Runs a build step with its output on stderr; fails the run on error."""
    completed = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if completed.returncode != 0:
        fail(f"build step failed: {' '.join(str(c) for c in command)}")


def build(target):
    if not (CHECKOUT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {CHECKOUT / 'src'}")
    out = build_dir()
    run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(MAX_JOBS, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    return out / target


def source_record():
    """Commit and content digest of the library sources, for the report."""
    sha = "unknown"
    if (CHECKOUT / ".git").exists():
        completed = subprocess.run(["git", "-C", str(CHECKOUT), "rev-parse",
                                    "HEAD"], capture_output=True, text=True)
        if completed.returncode == 0:
            sha = completed.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((CHECKOUT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(CHECKOUT)).encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        return subprocess.run([str(binary)]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("mrsc_perfbench")
    sha, digest = source_record()
    print("# source " + json.dumps({"git_sha": sha, "src_sha256": digest}),
          flush=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--git-sha", sha]
    if args.trace:
        spans = build_dir() / "spans" / f"{args.workload}-{args.seed}.tsv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
