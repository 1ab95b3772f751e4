#!/usr/bin/env python3
"""Alternating benchmark pairs of two source trees, summarized per metric.

Usage:

    python3 scripts/ab_pairs.py PARENT_ROOT CHANGE_ROOT --workload W
                                [--pairs 10] [--seconds 6] [--seed 0]

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
each root, ``--pairs`` times; pair p uses seed ``--seed + p`` on both sides
and runs the parent first when p is even, the change first when p is odd.
Each run's last line of standard output is its JSON result.  For every
end-to-end metric that the parent root's ``BENCHMARK.json`` declares, the
script prints each pair's two readings, then both sides' medians and
quartiles and the number of pairs in which the change read better, in the
direction the metric declares; ties count for neither side.  Exits 1 when
any run exits non-zero, prints no JSON result, reports itself incorrect or
counts a failed operation.  The benchmark runs as a program in its own
root; this script never imports it.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def read_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a benchmark run's
    output; ValueError when there is none."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ValueError(f"last line is not JSON: {lines[-1][:80]!r}") from None
    if not isinstance(result, dict):
        raise ValueError("last line is not a JSON object")
    return result


def run_problem(result: dict) -> str | None:
    """Why a run's result does not count, or None when it is correct with
    no failed operation."""
    if not result.get("correct"):
        return "run reports itself incorrect"
    if result.get("failed"):
        return f"{result['failed']} failed operations"
    return None


def summarize(pairs, metrics) -> list[dict]:
    """One row per metric present in every run: both sides' medians and
    quartiles and the change's win count.

    ``pairs`` holds (parent, change) metric dicts, each mapping a metric
    name to its value; ``metrics`` holds (name, better) with better
    "lower" or "higher"."""
    rows = []
    for name, better in metrics:
        if not all(name in parent and name in change for parent, change in pairs):
            continue
        parent = np.array([p[name] for p, _ in pairs], dtype=float)
        change = np.array([c[name] for _, c in pairs], dtype=float)
        wins = change < parent if better == "lower" else change > parent
        rows.append({
            "metric": name,
            "parent": tuple(np.percentile(parent, [50, 25, 75]).tolist()),
            "change": tuple(np.percentile(change, [50, 25, 75]).tolist()),
            "wins": int(wins.sum()),
            "pairs": len(pairs),
        })
    return rows


def format_row(row: dict) -> str:
    (pm, pq1, pq3), (cm, cq1, cq3) = row["parent"], row["change"]
    return (f"{row['metric']:<12} parent {pm:.4g} [{pq1:.4g}, {pq3:.4g}]  "
            f"change {cm:.4g} [{cq1:.4g}, {cq3:.4g}]  "
            f"change better in {row['wins']}/{row['pairs']}")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``root``; its metric values by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        raise ValueError(f"exit {proc.returncode}: " + " | ".join(tail))
    result = read_result(proc.stdout)
    problem = run_problem(result)
    if problem:
        raise ValueError(problem)
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    declared = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in declared["end_to_end"]]
    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    for p in range(args.pairs):
        seed = args.seed + p
        order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            try:
                got[side] = run_once(sides[side], args.workload, seed, args.seconds)
            except ValueError as err:
                print(f"pair {p} seed {seed}: {side} run failed: {err}")
                return 1
        pairs.append((got["parent"], got["change"]))
        readings = "  ".join(
            f"{name} {got['parent'][name]:.4g} / {got['change'][name]:.4g}"
            for name, _ in metrics
            if name in got["parent"] and name in got["change"])
        print(f"pair {p} seed {seed} ({order[0]} first): {readings}", flush=True)

    print(f"{args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}, "
          f"parent {args.parent}, change {args.change}")
    for row in summarize(pairs, metrics):
        print(format_row(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
