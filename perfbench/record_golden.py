#!/usr/bin/env python3
"""Record the golden numbers that run.py compares every operation against.

    python3 perfbench/record_golden.py [workload ...]

Runs each workload's operation once per input variant and stores, per
workload and variant, the estimator report numbers (E0..E5, E_G, E_C, E_Q,
total, explicit_total) and u(T) in golden.json.  The numbers are the
"same numbers" baseline: re-record them only in a change that is meant to
alter them, and say so.
"""

import json
import sys
import tempfile
from pathlib import Path

import run  # pins the thread count before numpy loads


def main() -> int:
    run.import_mgode()
    import workloads

    names = sys.argv[1:] or list(workloads.WORKLOADS)
    golden = workloads.load_golden()
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix="golden-") as tmp:
        for name in names:
            per_variant = golden.setdefault(name, {})
            for variant in range(workloads.VARIANTS):
                wl = workloads.WORKLOADS[name](variant, Path(tmp))
                outcome = wl.check(wl.run())
                if outcome.failures:
                    print(f"{name} variant {variant}: {outcome.failures}")
                    return 1
                per_variant[str(variant)] = outcome.numbers
                print(f"{name} variant {variant}: err_T {outcome.err_T:.6e}",
                      flush=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
