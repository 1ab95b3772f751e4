#!/usr/bin/env python3
"""The mgode benchmark: one command, three workloads, every metric.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload kepler_run|chain_solve|effectivity_grid|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload (see workloads.py for what it runs and why) repeats its
operation in a closed loop for about ``--seconds`` seconds, at least once,
and checks every operation's outputs.  Readable lines go first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with tracing off:

    wall_s       median wall seconds of one operation, corrected for CPU
                 contention (speed.py; the raw times are printed too)
    setup_s      median over fresh processes of ``import mgode`` plus the
                 workload's first tableau/partition/problem construction,
                 corrected for CPU contention like wall_s
    peak_rss_mb  peak resident memory of this process
    err_T        2-norm error of u(T) against the reference

and also prints failed_frac, bound_valid_frac and report_rel_dev, which are
correctness gates rather than metrics: any failed operation, any invalid
bound and any deviation from the golden numbers above 1e-10 marks the run
incorrect.

``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of tracing.py (self times, medians over the traced
operations; counts, which must repeat exactly), the tracing overhead
(traced over untraced median raw wall time, minus one; it is small next to
the machine's contention noise, so read it as an order of magnitude) and the
share of the operation no layer span covers, which must stay below 5%.  The
spans are written to .perfbench/spans-<workload>-seed<seed>.jsonl.

The BLAS/OpenMP thread count is pinned to 1 before numpy loads, so the load
is one single-threaded process.  The benchmark imports mgode from the
checkout's src/ directory and exits with status 1, printing no result, when
that is missing.  Operations write their files to a temporary directory under
.perfbench/, removed at the end.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("kepler_run", "chain_solve", "effectivity_grid")
SETUP_PROBES = 5
MAX_UNCOVERED_FRAC = 0.05

# Runs in a fresh interpreter: times importing mgode and the workload's first
# construction, corrected for CPU contention, raw and corrected seconds.
_SETUP_PROBE = """
import pathlib, sys
sys.path[:0] = [{src!r}, {bench!r}]
import speed

def setup():
    import mgode
    import workloads
    workloads.WORKLOADS[{name!r}]({seed}, pathlib.Path({workdir!r}))

_, raw, corrected = speed.SpeedProbe(speed.PYTHON_KERNEL).time(setup)
print(repr(raw), repr(corrected))
"""


def import_mgode():
    """Import mgode from this checkout's src/ or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import mgode
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mgode from {SRC}: {exc}")
    if Path(mgode.__file__).resolve().parent != SRC / "mgode":
        sys.exit(f"perfbench: mgode was imported from {mgode.__file__}, "
                 f"not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_seconds(name: str, seed: int, workdir: Path) -> list[tuple[float, float]]:
    """(raw, contention-corrected) set-up seconds of fresh processes."""
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name,
                               seed=seed, workdir=str(workdir))
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw, corrected = proc.stdout.split()[-2:]
        times.append((float(raw), float(corrected)))
    return times


class Run:
    """Operations of one workload in one invocation, and what they gave."""

    def __init__(self, name: str, seed: int, workdir: Path, trace: bool):
        import workloads
        from speed import SpeedProbe, numpy_kernel
        self.workload = workloads.WORKLOADS[name](seed, workdir)
        # untraced runs correct for CPU contention; traced runs compare raw
        # traced and untraced times
        self.trace = trace
        self.probe = None if trace else SpeedProbe(numpy_kernel())
        self.golden = workloads.load_golden().get(name, {}).get(
            str(self.workload.variant))
        self.name = name
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.op_s: list[float] = []
        self.corrected_op_s: list[float] = []
        self.traced_op_s: list[float] = []
        self.err_T: list[float] = []
        self.bounds = [0, 0]            # valid, checked
        self.rel_dev = 0.0
        self.tracers = []

    def op(self, tracer=None) -> None:
        import workloads
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is not None:
                out = tracer.traced(f"bench.{self.name}", self.workload.run)
            elif self.probe is not None:
                out, _, corrected = self.probe.time(self.workload.run)
                self.corrected_op_s.append(corrected)
            else:
                out = self.workload.run()
            elapsed = time.perf_counter() - start
            outcome = self.workload.check(out)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            outcome = workloads.Outcome()
            outcome.failures.append("operation raised (traceback above)")
        (self.op_s if tracer is None else self.traced_op_s).append(elapsed)
        if outcome.numbers:
            dev = workloads.golden_deviation(outcome.numbers, self.golden)
            self.rel_dev = max(self.rel_dev, dev)
            outcome.require(dev <= workloads.GOLDEN_REL_TOL,
                            f"deviation {dev:.3e} from the golden numbers "
                            f"of variant {self.workload.variant}")
        if not math.isnan(outcome.err_T):
            self.err_T.append(outcome.err_T)
        self.bounds[0] += outcome.bounds_valid
        self.bounds[1] += outcome.bounds_checked
        if tracer is not None and tracer.spans:
            tracer.counts["cli.bytes_written"] = outcome.bytes_written
            self.tracers.append(tracer)
        if outcome.failures:
            self.failed += 1
            self.failures.extend(outcome.failures)

    def loop(self, seconds: float) -> None:
        """Closed loop: the next step starts after the previous one ended,
        while the run is still more than half a step from ``seconds``.  A
        traced run's step is an untraced and a traced operation."""
        from tracing import Tracer
        start = time.perf_counter()
        steps = []
        while True:
            t = time.perf_counter()
            self.op()
            if self.trace:
                self.op(Tracer())
            steps.append(time.perf_counter() - t)
            if time.perf_counter() - start + 0.5 * statistics.median(steps) >= seconds:
                break


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> dict:
    return {
        "wall_s": (statistics.median(run.corrected_op_s) if run.corrected_op_s else None, "s"),
        "setup_s": (statistics.median(c for _, c in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "err_T": (max(run.err_T) if run.err_T else None, "l2"),
    }


def per_layer(run: Run) -> dict:
    from tracing import COUNT_METRICS
    if not run.tracers:
        return {}
    per_op = [t.metrics() for t in run.tracers]
    for other in per_op[1:]:
        for key in COUNT_METRICS:
            if other[key] != per_op[0][key]:
                run.failures.append(f"{key} differs between traced operations: "
                                    f"{per_op[0][key]} != {other[key]}")
    uncovered = max(t.uncovered_frac() for t in run.tracers)
    if uncovered > MAX_UNCOVERED_FRAC:
        run.failures.append(f"layer spans leave {uncovered:.1%} of the "
                            "operation uncovered")
    out = {key: (per_op[0][key], "count") for key in COUNT_METRICS}
    out["cli.bytes_written"] = (per_op[0]["cli.bytes_written"], "bytes")
    for key in (k for k in per_op[0] if k not in COUNT_METRICS):
        out[key] = (statistics.median(m[key] for m in per_op), "s")
    overhead = statistics.median(run.traced_op_s) / statistics.median(run.op_s) - 1.0
    out["trace.overhead_frac"] = (overhead, "frac")
    out["trace.uncovered_frac"] = (uncovered, "frac")
    return out


def write_spans(run: Run, seed: int, run_id: str, env: dict) -> Path:
    path = OUT_DIR / f"spans-{run.name}-seed{seed}.jsonl"
    lines = [json.dumps({"run": run_id, "workload": run.name, "seed": seed,
                         **env})]
    for op, tracer in enumerate(run.tracers):
        for span_id, name, start, end, parent in tracer.spans:
            lines.append(json.dumps({"run": run_id, "op": op, "id": span_id,
                                     "name": name, "start": start, "end": end,
                                     "parent": parent}))
    path.write_text("\n".join(lines) + "\n")
    return path


def report(run: Run, metrics: dict, setup: list[tuple[float, float]],
           trace: bool) -> None:
    """Readable lines: every metric with its unit, then the gates."""
    from workloads import GOLDEN_REL_TOL
    print(f"  operations: {run.attempted} attempted, {run.failed} failed "
          f"(failed_frac {run.failed / run.attempted:g})")
    print(f"  op seconds: {', '.join(f'{t:.3f}' for t in run.op_s)}")
    if run.corrected_op_s:
        print(f"  op seconds, contention-corrected: "
              f"{', '.join(f'{t:.3f}' for t in run.corrected_op_s)}")
    if trace:
        print(f"  traced op seconds: {', '.join(f'{t:.3f}' for t in run.traced_op_s)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {'n/a' if value is None else f'{value:.6g}':<14} {unit}")
    if setup:
        print(f"  setup seconds, raw: {', '.join(f'{r:.4f}' for r, _ in setup)}; "
              f"contention-corrected: {', '.join(f'{c:.4f}' for _, c in setup)}")
    valid, checked = run.bounds
    print(f"  bound_valid_frac: "
          f"{f'{valid / checked:g} ({valid}/{checked})' if checked else 'n/a (no bound computed)'}")
    print(f"  report_rel_dev: {run.rel_dev:.3e} (gate {GOLDEN_REL_TOL:g})")
    for message in run.failures:
        print(f"  FAILED: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description="mgode benchmark")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_mgode()
    sys.path.insert(0, str(BENCH_DIR))
    env = environment()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    run_id = f"{os.getpid()}-{time.time_ns()}"
    OUT_DIR.mkdir(exist_ok=True)
    print(f"perfbench seed={args.seed} trace={args.trace} seconds={args.seconds:g} "
          + " ".join(f"{k}={v}" for k, v in env.items()))

    results = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        for name in names:
            workdir = Path(tmp) / name
            workdir.mkdir()
            setup = [] if trace else setup_seconds(name, args.seed, workdir)
            run = Run(name, args.seed, workdir, trace)
            print(f"{name} (variant {run.workload.variant})", flush=True)
            run.loop(args.seconds)
            metrics = per_layer(run) if trace else end_to_end(run, setup)
            if trace:
                spans = write_spans(run, args.seed, run_id, env)
                print(f"  spans: {spans.relative_to(ROOT)}")
            report(run, metrics, setup, trace)
            results.append((run, metrics))

    prefix = len(results) > 1
    result = {
        "correct": all(not run.failures for run, _ in results),
        "attempted": sum(run.attempted for run, _ in results),
        "failed": sum(run.failed for run, _ in results),
        "metrics": {
            (f"{run.name}.{key}" if prefix else key): {"value": value, "unit": unit}
            for run, metrics in results for key, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
