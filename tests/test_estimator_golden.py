"""Golden error reports of the estimator.

Two small multirate cases run through solve, solve_dual and estimate, and
every number of the report is compared with ``estimator_golden.json``, which
was recorded before the estimator was restructured.  E_C and E_Q are
rounding-level quantities, so a change in the order of any floating-point
operation behind them shows up here; the tolerance is the benchmark's
relative 1e-10.

Scalars compare relative to their recorded value, profiles in the max norm
relative to the recorded profile's max norm.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from mgode.dual import DualSpec, dual_partition_for, solve_dual
from mgode.estimator import estimate
from mgode.models import model
from mgode.partition import build_partition
from mgode.solver import SolveSettings, solve

GOLDEN_PATH = Path(__file__).with_name("estimator_golden.json")
REL_TOL = 1e-10

CASES = {
    # dual refined twice: dual pieces cut the primal intervals
    "linear_system": dict(model="linear_system", T=None,
                          methods=("mcG", "mdG"), orders=[2, 1],
                          steps=[0.1, 0.05], refine=2),
    "lorenz": dict(model="lorenz", T=0.5, methods="mcG", orders=2,
                   steps=[0.05, 0.025, 0.05], refine=1),
}

PROFILES = ("r", "rbar", "rc", "rq_bound", "alpha")


def case_report(name):
    case = CASES[name]
    prob = model(case["model"]).problem(T=case["T"], methods=case["methods"])
    part = build_partition(case["steps"], case["orders"], prob.T,
                           methods=prob.methods)
    settings = SolveSettings(tolerance=1e-12, quad_depth=1)
    traj = solve(prob, part, settings)
    n = prob.dimension
    spec = DualSpec(problem=prob, primal=traj, phi_T=np.full(n, 1.0 / np.sqrt(n)))
    dual = solve_dual(spec, dual_partition_for(part, 1, case["refine"]), settings)
    return estimate(prob, traj, dual)


def report_numbers(report) -> dict:
    """The compared numbers of one report, keyed by name."""
    blob = report.to_json_dict()
    nums = dict(blob["estimates"])
    for key in ("E_G", "E_C", "E_Q", "total", "explicit_total"):
        nums[key] = blob[key]
    for key, value in blob["stability_factors"].items():
        nums[f"stability.{key}"] = value
    for i, comp in enumerate(blob["components"]):
        for key in PROFILES:
            nums[f"component{i}.{key}"] = comp[key]
    return nums


def deviation(value, ref) -> float:
    ref = np.asarray(ref, dtype=float)
    val = np.asarray(value, dtype=float)
    if ref.shape != val.shape:
        return math.inf
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    diff = float(np.max(np.abs(val - ref))) if ref.size else 0.0
    if scale > 0.0:
        return diff / scale
    return 0.0 if diff == 0.0 else math.inf


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    nums = report_numbers(case_report(name))
    assert set(nums) == set(golden)
    devs = {key: deviation(nums[key], golden[key]) for key in golden}
    off = {key: dev for key, dev in devs.items() if not dev <= REL_TOL}
    assert not off, f"deviations above {REL_TOL}: {off}"
