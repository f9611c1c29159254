#!/usr/bin/env python3
"""End-to-end benchmark of the PLiM compiler.

Builds perfbench (this directory's CMake package, which compiles the
repository's src/ tree) and runs one workload:

    python3 perfbench/run.py --workload <table1_serial|banked_decoupled|
                              serve_mixed> --seed <n> --seconds <s>
                              --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build)/perfbench; generated inputs go to a per-run
directory beside it that is removed afterwards. The last line of stdout
is the JSON result; build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("table1_serial", "banked_decoupled", "serve_mixed")
# A run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(source_dir, "..", "src", "driver",
                                       "driver.hpp")):
        sys.exit("perfbench: the compiler sources (src/) are missing")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        binary = build(source_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    # Relative, so the server's Unix socket path stays short.
    run_dir = os.path.relpath(
        os.path.join(os.path.abspath(target), f"run-{os.getpid()}"))
    os.makedirs(run_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--run-dir", run_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(f"perfbench: {args.workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.exit("perfbench: no result line")


if __name__ == "__main__":
    main()
