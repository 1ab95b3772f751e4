"""The benchmark's per-layer tracer still sees the solver and the estimator.

``perfbench/tracing.py`` swaps wrappers in for module attributes it looks up
by name (``owner.__dict__[attr]``).  Renaming one of them breaks the traced
benchmark run, and a caller that bypasses the module attribute leaves its
span empty; both show up here as a lookup error or a zero self time.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

import mgode.estimator
from mgode.dual import DualSpec, dual_partition_for, solve_dual
from mgode.estimator import estimate
from mgode.models import model
from mgode.partition import build_partition, build_slabs
from mgode.solver import SolveSettings, solve

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_estimator_spans_are_filled():
    tracing = load_tracing()
    prob = model("linear_system").problem(methods=("mcG", "mdG"))
    part = build_partition([0.25, 0.125], [1, 0], prob.T, methods=prob.methods)
    traj = solve(prob, part, SolveSettings(tolerance=1e-12))
    dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0, 0.0]),
                      dual_partition_for(part), SolveSettings(tolerance=1e-12))
    tracer = tracing.Tracer()
    report = tracer.traced("bench.estimate", lambda: estimate(prob, traj, dual))
    assert np.isfinite(report.total)
    metrics = tracer.metrics()
    for name in ("estimator.galerkin_s", "estimator.eg_s",
                 "estimator.ec_s", "estimator.eq_s",
                 "estimator.residual_calls"):
        assert metrics[name] > 0, name


def test_solver_spans_and_lagrange_calls_are_counted():
    # the tracer wraps mgode.solver.solve_slab, OdeProblem.eval_rhs and
    # mgode.solver.lagrange_matrix; the slab solver makes one Lagrange call
    # per (slab, component, order of the component's slab intervals)
    tracing = load_tracing()
    prob = model("linear_system").problem(methods=("mcG", "mdG"))
    orders = [[1, 2, 2, 1], [0, 1, 1, 0, 2, 2, 0, 1]]
    part = build_partition([0.25, 0.125], orders, prob.T, methods=prob.methods)
    settings = SolveSettings(tolerance=1e-12, quad_depth=1)
    solve(prob, part, settings)      # builds and caches the tableaus
    tracer = tracing.Tracer()
    traj = tracer.traced("bench.solve", lambda: solve(prob, part, settings))
    assert np.all(np.isfinite(traj.end_state()))
    metrics = tracer.metrics()
    assert metrics["solver.sweeps"] > 0
    assert metrics["solver.rhs_calls"] > 0
    classes = sum(len(set(part.orders[c][lo:hi].tolist()))
                  for slab in build_slabs(part)
                  for c, (lo, hi) in enumerate(slab.spans))
    assert classes > len(build_slabs(part)) * prob.dimension
    assert metrics["tableau.lagrange_calls"] == classes


def test_traced_solve_fills_the_slab_spans():
    # solve hands every slab its store of slab tables through the
    # solve_slab attribute the tracer wraps: every slab gets a span, the
    # tracer's sweeps are the trajectory's, and slabs of a repeated layout
    # make no Lagrange call
    tracing = load_tracing()
    prob = model("linear_system").problem(methods="mcG")
    part = build_partition(0.1, 2, prob.T, methods=prob.methods)
    tracer = tracing.Tracer()
    traj = tracer.traced("bench.solve", lambda: solve(
        prob, part, SolveSettings(tolerance=1e-13)))
    slabs = [span for span in tracer.spans if span[1] == "solver.slab"]
    assert len(slabs) == len(traj.report.slabs) == len(build_slabs(part))
    metrics = tracer.metrics()
    assert metrics["solver.slab_calls"] == len(slabs)
    assert metrics["solver.sweeps"] == sum(s.sweeps for s in traj.report.slabs)
    assert 0 < metrics["tableau.lagrange_calls"] < prob.dimension * len(slabs)


def test_a_columnwise_solve_makes_one_rhs_call_per_sweep():
    # a declared rhs takes each sweep's whole slab in one call: the calls
    # fall to the sweeps, while the columns evaluated stay those of one
    # call per interval
    tracing = load_tracing()
    prob = model("kepler_2body").problem(T=1.0)
    part = build_partition([0.05] * 2 + [0.2] * 2 + [0.05] * 2 + [0.2] * 2, 2,
                           prob.T, methods=prob.methods)
    settings = SolveSettings(tolerance=1e-12)
    metrics = {}
    for columnwise in (True, False):
        problem = dataclasses.replace(prob, columnwise=columnwise)
        tracer = tracing.Tracer()
        tracer.traced("bench.solve", lambda: solve(problem, part, settings))
        metrics[columnwise] = tracer.metrics()
    declared, undeclared = metrics[True], metrics[False]
    assert declared["solver.rhs_calls"] == declared["solver.sweeps"]
    assert undeclared["solver.rhs_calls"] > undeclared["solver.sweeps"]
    for name in ("solver.sweeps", "solver.rhs_cols"):
        assert declared[name] == undeclared[name] > 0, name


def test_one_point_residual_reads_are_counted_as_lagrange_calls():
    # the Brent root-search steps of the estimator read the residual one
    # point at a time; such a read must still reach lagrange_matrix through
    # the module attribute the tracer wraps, or its time lands in the
    # caller's span
    tracing = load_tracing()
    prob = model("linear_system").problem(methods=("mcG", "mdG"))
    part = build_partition([0.25, 0.125], [1, 0], prob.T, methods=prob.methods)
    traj = solve(prob, part, SolveSettings(tolerance=1e-12))
    for s in (0.3, np.float64(0.3), np.array(0.3), np.array([0.3])):
        tracer = tracing.Tracer()
        R = tracer.traced("bench.residual", lambda: mgode.estimator.interval_residual(
            traj, prob, 0, 1, s))
        assert R.shape == (1,)
        metrics = tracer.metrics()
        assert metrics["estimator.residual_calls"] == 1
        assert metrics["tableau.lagrange_calls"] >= 1
