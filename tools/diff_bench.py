#!/usr/bin/env python3
"""Compare a fresh sched_speedup trajectory against the committed one.

Fails (exit 1) when any benchmark configuration regresses by more than
the tolerance in `steps`, `transfers`, or `makespan_cycles` (the
cycle-level figure of merit of the decoupled execution model), or when
`refine_steps_saved` — the steps the refinement passes bought, the
higher-is-better yield the incremental evaluator's 10x pass budget
pays for — shrinks by more than the tolerance (skipped when the
committed run saved nothing, so zero-yield configs cannot trap noise).
The top-level headline `average_decoupled_speedup_4_banks` is gated
the same way: shrinking it by more than the tolerance fails the diff
(missing on either side is noted and skipped).

Compile cost is gated through the deterministic refinement work
counters, which do not depend on the machine: `refine_moves_tried`
(trial moves priced) or `refine_full_evals` (exact re-schedules)
growing by more than WORK_TOLERANCE (10%) fails the diff.
A configuration whose committed counter is 0 or missing is skipped for
that counter (no refinement ran there, so there is no baseline).
Configurations are matched by (benchmark, mode, banks, bus_width); a
key that appears twice in one file is a schema error (exit 2), since
one of its blocks would never be compared. Entries present on only one
side are reported but do not fail the diff (benchmarks and sweep shapes
may legitimately grow), and a metric missing on either side is noted
and skipped (the JSON schema may grow).

Wall-clock is reported, never gated: after the verdict, every matched
configuration's `schedule_ms` committed -> fresh ratio is printed with
the geometric mean of the ratios. The exit code ignores them.

Every per-configuration block is one plim::StatsReport — the schema
shared with `plimc --json` / `plimc --batch`: schedule metrics live in
the nested "schedule" object. A block without one is a schema error
(exit 2), never read as flat metrics.

Usage: diff_bench.py committed.json fresh.json [--tolerance 0.05]
"""

import argparse
import json
import math
import sys


# Deterministic refinement work counters gated against growth, and the
# relative growth that fails the diff.
WORK_COUNTERS = ("refine_moves_tried", "refine_full_evals")
WORK_TOLERANCE = 0.10


class SchemaError(Exception):
    """A trajectory block that is not a StatsReport with a schedule."""


def sched(block):
    """Schedule metrics of one config block (its nested "schedule")."""
    if not isinstance(block.get("schedule"), dict):
        raise SchemaError("config block without a nested \"schedule\" "
                          f"object: {json.dumps(block)[:120]}")
    return block["schedule"]


def schedule_ms(block):
    """Scheduling wall-clock of one config block, or None."""
    for source in (block.get("metrics"), sched(block)):
        if isinstance(source, dict) and isinstance(
                source.get("schedule_ms"), (int, float)):
            return source["schedule_ms"]
    return None


def entries(trajectory):
    """Map (benchmark, mode, banks, bus_width) -> config block.

    Two blocks under one key would hide one of them from the diff, so a
    duplicate key is a schema error.
    """
    blocks = {}

    def add(key, block):
        if key in blocks:
            raise SchemaError(f"duplicate configuration {key}")
        blocks[key] = block

    for bench in trajectory.get("benchmarks", []):
        name = bench.get("benchmark", "?")
        for mode, payload in bench.items():
            if mode == "benchmark":
                continue
            if isinstance(payload, dict) and isinstance(
                    payload.get("banks"), list):
                for block in payload["banks"]:
                    entry = sched(block)
                    add((name, mode, entry["banks"],
                         entry.get("bus_width", 0)), block)
                for block in payload.get("bus_4banks", []):
                    add((name, mode, 4, sched(block).get("bus_width", 0)),
                        block)
            elif isinstance(payload, dict):
                # single-config blocks (e.g. cap60)
                entry = sched(payload)
                add((name, mode, entry.get("banks", 0),
                     entry.get("bus_width", 0)), payload)
    return blocks


def report_wall_clock(committed, fresh):
    """Print schedule_ms committed -> fresh per config and the geomean."""
    ratios = []
    for key, old in sorted(committed.items()):
        new = fresh.get(key)
        before = schedule_ms(old)
        after = schedule_ms(new) if new is not None else None
        if not before or not after or before <= 0 or after <= 0:
            continue
        ratios.append(after / before)
        name, mode, banks, bus = key
        print(f"wall-clock: {name} ({mode}, {banks} banks, bus {bus}) "
              f"schedule_ms {before:.3f} -> {after:.3f} "
              f"(x{after / before:.3f})")
    if ratios:
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print(f"wall-clock: schedule_ms geomean ratio x{geomean:.3f} over "
              f"{len(ratios)} configurations (reported, not gated)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("committed")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed relative regression (default 5%%)")
    args = parser.parse_args()

    with open(args.committed) as f:
        committed_top = json.load(f)
    with open(args.fresh) as f:
        fresh_top = json.load(f)
    try:
        committed_blocks = entries(committed_top)
        fresh_blocks = entries(fresh_top)
    except SchemaError as e:
        print(f"diff_bench: {e}")
        return 2
    committed = {k: sched(b) for k, b in committed_blocks.items()}
    fresh = {k: sched(b) for k, b in fresh_blocks.items()}

    regressions = []
    compared = 0
    missing_metrics = set()
    for key, old in sorted(committed.items()):
        new = fresh.get(key)
        if new is None:
            print(f"note: {key} only in committed trajectory")
            continue
        compared += 1
        for metric in ("steps", "transfers", "makespan_cycles"):
            if metric not in old or metric not in new:
                missing_metrics.add(metric)
                continue
            before, after = old[metric], new[metric]
            if after > before * (1.0 + args.tolerance):
                regressions.append((key, metric, before, after))
        # Higher-is-better: refinement yield must not collapse.
        metric = "refine_steps_saved"
        if metric not in old or metric not in new:
            missing_metrics.add(metric)
        elif old[metric] > 0 and new[metric] < old[metric] * (
                1.0 - args.tolerance):
            regressions.append((key, metric, old[metric], new[metric]))
        # Deterministic compile-cost counters: work must not grow.
        for metric in WORK_COUNTERS:
            before = old.get(metric, 0)
            if not before:
                continue  # no committed baseline for this config
            if metric not in new:
                missing_metrics.add(metric)
            elif new[metric] > before * (1.0 + WORK_TOLERANCE):
                regressions.append((key, metric, before, new[metric]))
    for metric in sorted(missing_metrics):
        print(f"note: metric {metric} missing on one side, skipped")
    for key in sorted(set(fresh) - set(committed)):
        print(f"note: {key} only in fresh trajectory")

    # Top-level headline: the average 4-bank decoupled cycle speedup
    # (higher is better) must not shrink beyond the tolerance.
    metric = "average_decoupled_speedup_4_banks"
    if metric not in committed_top or metric not in fresh_top:
        print(f"note: top-level metric {metric} missing on one side, skipped")
    else:
        before, after = committed_top[metric], fresh_top[metric]
        if after < before * (1.0 - args.tolerance):
            regressions.append((("<suite>", "post", 4, 0), metric,
                                round(before, 5), round(after, 5)))

    if compared == 0:
        print("diff_bench: no comparable configurations — wrong files?")
        return 1
    for key, metric, before, after in regressions:
        name, mode, banks, bus = key
        print(f"REGRESSION: {name} ({mode}, {banks} banks, bus {bus}) "
              f"{metric} {before} -> {after} "
              f"({100.0 * (after - before) / max(before, 1):+.1f}%)")
    if regressions:
        print(f"diff_bench: {len(regressions)} regression(s) over "
              f"{compared} configurations")
    else:
        print(f"diff_bench: OK — {compared} configurations within "
              f"{args.tolerance:.0%} (work counters within "
              f"{WORK_TOLERANCE:.0%})")
    report_wall_clock(committed_blocks, fresh_blocks)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
