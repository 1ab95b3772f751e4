"""Step-size selection from stability factors and residual profiles.

One adaptation round solves the problem, solves its dual, computes the
explicit stage of the estimator, and checks the per-component-max form of the
bound against the tolerance; if it misses, each component's steps are
re-chosen to equalize the local contributions, and the loop repeats on the
new partition.  Only the round that is returned completes its full error
report, which extends that round's stage; ``propose_steps`` reads a stage.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dual import (DualSolution, DualSpec, dual_partition_for, solve_dual,
                   terminal_weight)
from .estimator import ErrorReport, ExplicitEstimates, estimate, explicit_estimates
from .partition import Partition, _check_integer, _check_intervals
from .solver import OdeProblem, SolveSettings, Trajectory, solve
from .tableau import tableau

# Most intervals one component packs into one synchronized slab window.
_MAX_RATIO = 32


@dataclass
class AdaptSettings:
    """Controls of the solve/estimate/refine loop."""

    tol: float
    theta: float = 0.5
    max_rounds: int = 10
    k_min: float = 1e-8
    k_max: float = 1.0
    dual_order_increment: int = 1
    dual_refine: int = 1
    phi_T: np.ndarray | None = None
    solver: SolveSettings = field(default_factory=SolveSettings)

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta!r}")
        _check_integer("max_rounds", self.max_rounds, 1)
        _check_integer("dual_order_increment", self.dual_order_increment, 0)
        _check_integer("dual_refine", self.dual_refine, 1)
        if not 0.0 < self.k_min <= self.k_max:
            raise ValueError("step bounds must satisfy 0 < k_min <= k_max, "
                             f"got k_min={self.k_min!r}, k_max={self.k_max!r}")


def propose_steps(report: ExplicitEstimates,
                  settings: AdaptSettings) -> list[Callable[[float], float]]:
    """New per-component step-size functions from the bound's local form.

    Reads the ``methods``, ``partition``, ``rbar`` and ``s_deriv`` of the
    estimator's explicit stage; a full report extends the stage, so it is
    read alike.

    Each component receives the budget theta * tol / N; on every old interval
    the step solving  S_i * C_q * k^p * rbar = budget  is proposed, with the
    jump-augmented residual rbar (p = q for the continuous family, whose
    jumps are exactly 0.0, so its rbar is r; q + 1 for the discontinuous
    one), clamped to the configured bounds.  A step function is constant on
    each old interval, the one ``Partition.point`` finds to the right of t
    (clamped to the first and last).
    """
    part = report.partition
    n = len(report.methods)
    budget = settings.theta * settings.tol / n
    fns = []
    degenerate = []
    for i in range(n):
        method = report.methods[i]
        qs = part.orders[i]
        res = report.rbar[i]
        s_i = float(report.s_deriv[i])
        new_steps = np.empty(len(qs))
        for j, q in enumerate(qs):
            tab = tableau(method, int(q))
            denom = s_i * tab.interp_const * float(res[j])
            if denom <= 0.0 or not np.isfinite(denom):
                new_steps[j] = settings.k_max
                degenerate.append(i)
            else:
                new_steps[j] = (budget / denom) ** (1.0 / tab.deriv_order)
        np.clip(new_steps, settings.k_min, settings.k_max, out=new_steps)
        fns.append(lambda t, i=i, ks=new_steps:
                   float(ks[part.point(i, t, "right")[0]]))
    if degenerate:
        warnings.warn(
            "vanishing stability factor or residual for component(s) "
            f"{sorted(set(degenerate))}; steps clamp to the maximum bound",
            RuntimeWarning, stacklevel=2)
    return fns


def synchronized_partition(step_fns: Sequence, orders: Sequence[int], T: float,
                           k_min: float, k_max: float) -> Partition:
    """Build a partition from per-component step functions with regular
    synchronization.

    The slowest component's proposed step sets each slab window; every other
    component subdivides the window into 2^m equal intervals to meet its own
    target.  This keeps every slab's interval count bounded (the sweep count
    of the slab solver grows with the intervals a sweep must propagate
    across), at the cost of steps up to a factor 2 below their proposals.
    When proposals spread by more than ``_MAX_RATIO``, the window shrinks so
    no component packs more than that many intervals into one slab; the
    slowest components then step below their proposals.

    Raises PartitionError as soon as the windows, or one component's
    intervals, number more than the partition's interval cap.
    """
    n = len(step_fns)
    windows = [0.0]
    wants = []      # per window, each component's proposal floored at k_min
    t = 0.0
    while True:
        wants.append([max(float(fn(t)), k_min) for fn in step_fns])
        props = [min(want, k_max) for want in wants[-1]]
        k_slab = min(max(props), _MAX_RATIO * min(props))
        remaining = T - t
        if remaining <= 1.5 * k_slab:
            windows.append(T)
            break
        t += k_slab
        windows.append(t)
        _check_intervals(len(windows) - 1, "step proposals, slab windows")
    windows = np.asarray(windows)

    breakpoints = []
    for i in range(n):
        pts = [0.0]
        for a, b, want in zip(windows[:-1], windows[1:], wants):
            m = max(0, int(np.ceil(np.log2(max((b - a) / want[i], 1.0)))))
            parts = 1 << m
            sub = a + (b - a) * np.arange(1, parts + 1) / parts
            sub[-1] = b
            pts.extend(float(x) for x in sub)
            _check_intervals(len(pts) - 1, f"step proposals, component {i}")
        pts[-1] = T
        breakpoints.append(np.asarray(pts))
    order_arrays = tuple(
        np.full(len(bp) - 1, int(orders[i]), dtype=int)
        for i, bp in enumerate(breakpoints)
    )
    return Partition(T=float(T), breakpoints=tuple(breakpoints),
                     orders=order_arrays)


@dataclass
class AdaptResult:
    trajectory: Trajectory
    dual: DualSolution
    report: ErrorReport
    partition: Partition
    rounds: int
    met: bool
    log: list[dict]

    def log_lines(self) -> list[str]:
        return [json.dumps(entry) for entry in self.log]


def _default_phi_T(n: int) -> np.ndarray:
    return np.full(n, 1.0 / np.sqrt(n))


def adapt(problem: OdeProblem, partition: Partition,
          settings: AdaptSettings) -> AdaptResult:
    """Iterate solve -> dual solve -> explicit stage until the
    per-component-max bound E3 + E_C + E_Q is finite and satisfies the
    tolerance, or the round budget runs out.

    Each round computes only the estimator's explicit stage, which holds the
    bound and every number ``propose_steps`` reads; the round that is
    returned (tolerance met or budget exhausted) completes it into the full
    report with ``estimate``.  The returned result flags whether the
    criterion was met; an exhausted budget still returns the last round's
    artifacts.  Each round's dual partition is built once, before that
    round's solve: from the given partition before the first round, and
    after each re-partition; a dual partition past the interval cap raises
    PartitionError before the first solve, with any round budget.

    The re-partition keeps one order per component, so with more than one
    round every component must have a single order on all its intervals,
    and a dual order that cannot supply the derivative order p of its
    component's scheme (which leaves the bound NaN) is refused; both raise
    ValueError before the first solve.  A single round solves the partition
    as given, profile included, and reports a low dual order as flags and a
    NaN bound.
    """
    # a bad terminal weight, order profile, dual partition or dual order
    # fails before any solve
    phi_T = (_default_phi_T(problem.dimension) if settings.phi_T is None
             else terminal_weight(settings.phi_T, problem.dimension))
    if settings.max_rounds > 1:
        for i, qs in enumerate(partition.orders):
            if len(np.unique(qs)) > 1:
                raise ValueError(f"component {i} has orders {np.unique(qs).tolist()}; "
                                 "adapt keeps one order per component")
    dual_part = dual_partition_for(partition, settings.dual_order_increment,
                                   settings.dual_refine)
    if settings.max_rounds > 1:
        for i, (method, qs, dqs) in enumerate(zip(problem.methods, partition.orders,
                                                 dual_part.orders)):
            q, dq = int(qs[0]), int(np.min(dqs))
            p = tableau(method, q).deriv_order
            if dq < p:
                raise ValueError(f"component {i} ({method}, q={q}) has dual order "
                                 f"{dq} < required derivative order p={p}; "
                                 "its bound would be NaN")
    orders = [int(qs[0]) for qs in partition.orders]
    log: list[dict] = []
    met = False
    traj = dual = report = None
    rounds = 0
    for rounds in range(1, settings.max_rounds + 1):
        traj = solve(problem, partition, settings.solver)
        dual_spec = DualSpec(problem=problem, primal=traj, phi_T=phi_T)
        dual = solve_dual(dual_spec, dual_part, settings.solver)
        explicit = explicit_estimates(problem, traj, dual)
        bound = explicit.explicit_total
        log.append({
            "round": rounds,
            "bound": bound,
            "tol": settings.tol,
            "total_intervals": partition.total_intervals,
            "per_component_max_k": [
                float(np.max(partition.steps(i)))
                for i in range(partition.n_components)
            ],
        })
        # an overflowed bound bounds nothing, even under tol = inf
        met = bool(np.isfinite(bound) and bound <= settings.tol)
        if met or rounds == settings.max_rounds:
            report = estimate(problem, traj, dual, explicit)
            break
        step_fns = propose_steps(explicit, settings)
        partition = synchronized_partition(step_fns, orders, problem.T,
                                           settings.k_min, settings.k_max)
        dual_part = dual_partition_for(partition, settings.dual_order_increment,
                                       settings.dual_refine)
    return AdaptResult(trajectory=traj, dual=dual, report=report,
                       partition=partition, rounds=rounds, met=met, log=log)
