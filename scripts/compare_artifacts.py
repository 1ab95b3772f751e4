#!/usr/bin/env python3
"""Byte-compare the Kepler run artifacts of two source trees.

Usage:

    python3 scripts/compare_artifacts.py PARENT_ROOT CHANGE_ROOT

Runs ``mgode run`` on the acceptance #12 Kepler config (model kepler_2body,
T = 2, mcG q = 2, k = 0.1, solver tolerance 1e-11 at quad_depth 1, adapt
tolerance 1e-4, 2 rounds, k in [1e-3, 0.5]; the benchmark's kepler_run at
seed 0) once per tree, each in its own subprocess with PYTHONPATH=<root>/src
and BLAS pinned to one thread.  Then it compares the eight artifacts byte for
byte and names each one that differs.  Exits 0 when all eight are identical,
1 on any difference or failed run.  Everything is written under a temporary
directory, removed at the end.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = {
    "model": "kepler_2body", "T": 2.0, "methods": "mcG",
    "orders": 2, "steps": 0.1,
    "solver": {"tolerance": 1e-11, "quad_depth": 1},
    "adapt": {"tol": 1e-4, "max_rounds": 2, "k_min": 1e-3, "k_max": 0.5},
}
ARTIFACTS = ("trajectory.csv", "dual.csv", "error_report.json",
             "error_summary.csv", "adapt_log.jsonl", "partition.json",
             "trajectory.json", "dual.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def start_run(root: Path, config: Path, out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               **{var: "1" for var in THREAD_VARS})
    return subprocess.Popen(
        [sys.executable, "-m", "mgode.cli", "run", "--config", str(config),
         "--out", str(out)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Byte-compare the Kepler run artifacts of two source trees.")
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    args = parser.parse_args()
    roots = {"parent": args.parent_root.resolve(),
             "change": args.change_root.resolve()}
    for name, root in roots.items():
        if not (root / "src" / "mgode").is_dir():
            print(f"error: {name} root {root} has no src/mgode", file=sys.stderr)
            return 1

    with tempfile.TemporaryDirectory(prefix="mgode-compare-") as tmp:
        tmp = Path(tmp)
        config = tmp / "kepler.json"
        config.write_text(json.dumps(CONFIG))
        outs = {name: tmp / name for name in roots}
        runs = {name: start_run(root, config, outs[name])
                for name, root in roots.items()}
        failed = False
        for name, proc in runs.items():
            _, err = proc.communicate()
            # 2 means the run finished without meeting its tolerance
            if proc.returncode not in (0, 2):
                print(f"{name}: mgode run exited {proc.returncode}: "
                      f"{err.strip()}", file=sys.stderr)
                failed = True
        if failed:
            return 1

        differ = []
        for artifact in ARTIFACTS:
            a, b = (outs[name] / artifact for name in roots)
            if not (a.is_file() and b.is_file()
                    and a.read_bytes() == b.read_bytes()):
                differ.append(artifact)
    for artifact in differ:
        print(f"differs: {artifact}")
    print(f"{len(ARTIFACTS) - len(differ)} of {len(ARTIFACTS)} artifacts identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
