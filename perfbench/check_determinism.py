#!/usr/bin/env python3
"""Checks that the benchmark's count metrics repeat exactly for one seed.

    python3 perfbench/check_determinism.py --workload <name> \
        [--seed 1] [--second-seed 7] [--seconds 1]

Runs the workload twice with --seed, untraced and traced, and requires
every count metric (program quality, and the rewriting, scheduler and
cache counters of the traced run) to be identical between the two. Then
runs --second-seed, untraced and traced, and requires a complete,
error-free result: the "claim holds on an unseen seed" check. Exits 1 on
any difference or failure.
"""

import argparse
import json
import os
import subprocess
import sys

# Metrics that count work or measure the compiled program; everything
# else is wall-clock or memory and may differ between runs.
COUNT_METRICS = {
    "instructions_geomean", "rrams_geomean", "steps_geomean",
    "makespan_cycles_geomean", "mig.gates_after", "mig.depth_after",
    "core.peak_live_rrams", "sched.refine_moves_tried",
    "sched.refine_full_evals", "sched.refine_keep_ratio", "sched.transfers",
    "sched.sync_tokens", "sched.bus_stalls",
    "sched.stream_reorder_saved_cycles", "serve.evictions", "serve.hit_rate",
}

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def complete(result):
    return (result["correct"] and result["failed"] == 0
            and result["attempted"] > 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--second-seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()

    ok = True
    for trace in (0, 1):
        first = run(args.workload, args.seed, args.seconds, trace)
        second = run(args.workload, args.seed, args.seconds, trace)
        for result in (first, second):
            if not complete(result):
                print(f"seed {args.seed} trace {trace}: run failed: "
                      f"{json.dumps(result)}")
                ok = False
        for name in sorted(COUNT_METRICS & first["metrics"].keys()):
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "same" if a == b else "DIFFERS"
            ok = ok and a == b
            print(f"seed {args.seed} trace {trace}: {name} {a!r} {b!r} "
                  f"{status}")
        unseen = run(args.workload, args.second_seed, args.seconds, trace)
        print(f"seed {args.second_seed} trace {trace}: "
              f"correct={unseen['correct']} attempted={unseen['attempted']} "
              f"failed={unseen['failed']}")
        ok = ok and complete(unseen)
    print("deterministic" if ok else "NOT deterministic or failing")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
