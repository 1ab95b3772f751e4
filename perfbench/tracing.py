"""Per-layer tracing of one benchmark operation, from outside the package.

``Tracer.installed()`` replaces, for the duration of one operation, the public
names through which mgode's layers call each other (``mgode.solver.solve``,
``mgode.controller.estimate``, ``OdeProblem.eval_rhs``, ...) with wrappers
that open a span around the call.  A span has a name ``<layer>.<what>``, a
start, an end and its parent span; run.py adds the run id when it writes
them out.  A span's self time is its
duration minus the time its child spans cover; a layer's time is the self
time of all its spans.

Layer-boundary spans are kept in memory and written out at the end of the
run.  Calls made hundreds of thousands of times per operation (Lagrange
evaluations, model right-hand sides and Jacobians, Jacobian averages) get
spans too, so their time is taken out of their caller's self time, but they
are folded into counters and per-name totals instead of being stored one by
one.

Metrics of one traced operation:

* ``solver.solve_s``, ``dual.solve_s``, ``estimator.estimate_s`` and
  ``partition.build_s`` are the self time of the whole layer.  A ``solve``
  inside ``solve_dual`` belongs to the dual: ``solver.*`` is the primal only.
* ``estimator.galerkin_s``/``eg_s``/``ec_s``/``eq_s`` are the self times of
  ``galerkin_estimates``, ``eg_residual_zero``, ``computational_error`` and
  ``quadrature_error``; ``controller.propose_s`` of ``propose_steps`` and
  ``synchronized_partition``.
* ``tableau.lagrange_s``, ``models.rhs_s`` and ``models.jac_s`` are the time
  in ``lagrange_matrix`` and in the model right-hand side (through
  ``OdeProblem.eval_rhs``) and Jacobian (through ``jstar``).
* ``cli.final_dual_s`` is the whole duration of the dual re-solve that
  ``run_command`` makes after ``adapt``; its parts also count in ``dual.*``,
  ``tableau.*`` and ``models.*``.  ``cli.write_s`` is the rest of
  ``run_command`` after it, which only writes artifacts, and ``cli.run_s``
  the self time of ``run_command`` before it.
* Counts: ``*_calls`` are calls, ``*.rhs_cols`` right-hand side columns
  (states) evaluated on behalf of the layer, ``sweeps`` fixed-point sweeps
  summed over slabs, ``partition.intervals``/``slabs`` the intervals and
  slabs of every primal solve, ``controller.final_intervals`` those of the
  adapted partition.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import mgode.cli
import mgode.controller
import mgode.dual
import mgode.estimator
import mgode.partition
import mgode.solver
import mgode.tableau

_clock = time.perf_counter

# Count metrics per layer; every one of them must repeat exactly.
COUNT_METRICS = (
    "tableau.lagrange_calls",
    "partition.intervals", "partition.slabs",
    "solver.slab_calls", "solver.sweeps", "solver.sweeps_per_slab_max",
    "solver.rhs_calls", "solver.rhs_cols",
    "dual.sweeps", "dual.jstar_calls", "dual.jac_calls", "dual.rhs_cols",
    "estimator.residual_calls", "estimator.rhs_cols",
    "controller.rounds", "controller.final_intervals",
    "cli.bytes_written",
)


class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.spans: list[tuple] = []    # (id, name, start, end, parent id)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.final_dual_s = 0.0
        self._stack: list[list] = []    # [id, name, start, child seconds]
        self._next_id = 0
        self._in_dual = 0
        self._final_dual_end = None
        self._jac_wrappers: dict = {}

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, _clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, keep: bool) -> float:
        end = _clock()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if keep:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None))
        return end

    def caller_layer(self) -> str:
        return self._stack[-1][1].split(".", 1)[0] if self._stack else "bench"

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a kept span; ``name`` may be a callable of no
        arguments deciding the name at call time.  ``after(args, result,
        frame, end)`` runs when the call returns."""
        def wrapper(*args, **kwargs):
            frame = self._enter(name() if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._exit(frame, keep=True)
            if after is not None:
                after(args, result, frame, end)
            return result
        return wrapper

    def leaf(self, name: str, count: str, fn):
        """Span around a call that opens no spans itself, folded into totals."""
        stack, self_s, counts = self._stack, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                self_s[name] += dur
                counts[count] += 1
                if stack:
                    stack[-1][3] += dur
        return wrapper

    # -- wrappers for the mgode layers ------------------------------------

    def _wrap_jac(self, jac):
        wrapped = self._jac_wrappers.get(jac)
        if wrapped is None:
            wrapped = self.leaf("models.jac", "dual.jac_calls", jac)
            self._jac_wrappers[jac] = wrapped
        return wrapped

    def _patches(self):
        """(owner, attribute, replacement) for every wrapped name."""
        counts = self.counts

        def in_dual_or_solver(what):
            return lambda: ("dual." if self._in_dual else "solver.") + what

        lagrange = self.leaf("tableau.lagrange", "tableau.lagrange_calls",
                             mgode.tableau.lagrange_matrix)

        def after_solve(args, traj, frame, end):
            if not self._in_dual:
                counts["partition.intervals"] += args[1].total_intervals

        solve = self.span(in_dual_or_solver("solve"),
                          mgode.solver.solve, after=after_solve)

        def after_slab(args, result, frame, end):
            sweeps = result[1].sweeps
            layer = "dual" if self._in_dual else "solver"
            counts[f"{layer}.sweeps"] += sweeps
            if layer == "solver":
                counts["solver.slab_calls"] += 1
                counts["solver.sweeps_per_slab_max"] = max(
                    counts["solver.sweeps_per_slab_max"], sweeps)

        def after_slabs(args, slabs, frame, end):
            if not self._in_dual:
                counts["partition.slabs"] += len(slabs)

        eval_rhs = mgode.solver.OdeProblem.eval_rhs

        def traced_eval_rhs(problem, U, t):
            caller = self.caller_layer()
            if self._in_dual:
                counts["dual.rhs_cols"] += U.shape[1]
                name = "dual.rhs"
            else:
                counts[f"{caller}.rhs_calls"] += 1
                counts[f"{caller}.rhs_cols"] += U.shape[1]
                name = "models.rhs"
            frame = self._enter(name)
            try:
                return eval_rhs(problem, U, t)
            finally:
                self._exit(frame, keep=False)

        def enter_dual(fn):
            def wrapper(*args, **kwargs):
                final = self.caller_layer() == "cli"
                self._in_dual += 1
                frame = self._enter("dual.solve_dual")
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = self._exit(frame, keep=True)
                    self._in_dual -= 1
                    if final:
                        self.final_dual_s += end - frame[2]
                        self._final_dual_end = end
            return wrapper

        jstar = mgode.dual.jstar

        def traced_jstar(v1, v2, t, jac, s_points=3):
            counts["dual.jstar_calls"] += 1
            frame = self._enter("dual.jstar")
            try:
                return jstar(v1, v2, t, self._wrap_jac(jac), s_points)
            finally:
                self._exit(frame, keep=False)

        def residual_counter(fn):
            def wrapper(*args, **kwargs):
                counts["estimator.residual_calls"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def after_adapt(args, result, frame, end):
            counts["controller.rounds"] += result.rounds
            counts["controller.final_intervals"] += result.partition.total_intervals

        def after_run(args, status, frame, end):
            # everything run_command does after the final dual re-solve is
            # writing artifacts: account it as its own (synthetic) child span
            if self._final_dual_end is not None:
                write = end - self._final_dual_end
                self.self_s["cli.run"] -= write
                self.self_s["cli.write"] += write
                self._next_id += 1
                self.spans.append((self._next_id, "cli.write",
                                   self._final_dual_end, end, frame[0]))
                self._final_dual_end = None

        solve_dual = enter_dual(mgode.dual.solve_dual)
        estimate = self.span("estimator.estimate", mgode.estimator.estimate)
        build_partition = self.span("partition.build",
                                    mgode.partition.build_partition)
        return [
            (mgode.tableau, "lagrange_matrix", lagrange),
            (mgode.solver, "lagrange_matrix", lagrange),
            (mgode.estimator, "lagrange_matrix", lagrange),
            (mgode.partition, "build_partition", build_partition),
            (mgode.cli, "build_partition", build_partition),
            (mgode.solver, "build_slabs",
             self.span("partition.slabs", mgode.solver.build_slabs,
                       after=after_slabs)),
            (mgode.solver, "solve", solve),
            (mgode.controller, "solve", solve),
            (mgode.dual, "solve", solve),
            (mgode.solver, "solve_slab",
             self.span(in_dual_or_solver("slab"),
                       mgode.solver.solve_slab, after=after_slab)),
            (mgode.solver.OdeProblem, "eval_rhs", traced_eval_rhs),
            (mgode.dual, "solve_dual", solve_dual),
            (mgode.controller, "solve_dual", solve_dual),
            (mgode.dual, "jstar", traced_jstar),
            (mgode.estimator, "estimate", estimate),
            (mgode.controller, "estimate", estimate),
            (mgode.estimator, "galerkin_estimates",
             self.span("estimator.galerkin", mgode.estimator.galerkin_estimates)),
            (mgode.estimator, "eg_residual_zero",
             self.span("estimator.eg", mgode.estimator.eg_residual_zero)),
            (mgode.estimator, "computational_error",
             self.span("estimator.ec", mgode.estimator.computational_error)),
            (mgode.estimator, "quadrature_error",
             self.span("estimator.eq", mgode.estimator.quadrature_error)),
            (mgode.estimator, "interval_residual",
             residual_counter(mgode.estimator.interval_residual)),
            (mgode.controller, "propose_steps",
             self.span("controller.propose_steps", mgode.controller.propose_steps)),
            (mgode.controller, "synchronized_partition",
             self.span("controller.synchronized_partition",
                       mgode.controller.synchronized_partition)),
            (mgode.cli, "adapt",
             self.span("controller.adapt", mgode.cli.adapt, after=after_adapt)),
            (mgode.cli, "run_command",
             self.span("cli.run", mgode.cli.run_command, after=after_run)),
        ]

    @contextmanager
    def installed(self):
        """Swap the wrappers in, and the original names back on exit."""
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def traced(self, name: str, fn):
        """Run ``fn()`` as the root span ``name`` with the wrappers in place."""
        with self.installed():
            return self.span(name, fn)()

    # -- results ----------------------------------------------------------

    def layer_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix)), 0.0)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced operation."""
        s = self.self_s
        out = {name: int(self.counts[name]) for name in COUNT_METRICS}
        out.update({
            "tableau.lagrange_s": s["tableau.lagrange"],
            "partition.build_s": self.layer_s("partition"),
            "solver.solve_s": self.layer_s("solver"),
            "dual.solve_s": self.layer_s("dual"),
            "estimator.estimate_s": self.layer_s("estimator"),
            "estimator.galerkin_s": s["estimator.galerkin"],
            "estimator.eg_s": s["estimator.eg"],
            "estimator.ec_s": s["estimator.ec"],
            "estimator.eq_s": s["estimator.eq"],
            "controller.propose_s": (s["controller.propose_steps"]
                                     + s["controller.synchronized_partition"]),
            "cli.run_s": s["cli.run"],
            "cli.final_dual_s": self.final_dual_s,
            "cli.write_s": s["cli.write"],
            "models.rhs_s": s["models.rhs"],
            "models.jac_s": s["models.jac"],
        })
        return out

    def root(self) -> tuple:
        """The outermost span: the whole operation."""
        return next(sp for sp in self.spans if sp[4] is None)

    def uncovered_frac(self) -> float:
        """Share of the operation no layer span accounts for."""
        _, name, start, end, _ = self.root()
        return self.self_s[name] / (end - start)
