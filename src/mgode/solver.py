"""Slab-wise solution of the multirate Galerkin collocation equations.

Each time-slab couples the nodal values of all components between two
synchronized levels.  The nonlinear system is solved by a damped Jacobi-style
fixed-point sweep: every interval update reads only the previous sweep's
coefficients, which makes the iteration deterministic and embarrassingly
parallel within a sweep.  Trajectories are piecewise polynomials in a nodal
Lagrange representation; continuous-family components share their interval
end values bitwise, discontinuous-family components carry genuine one-sided
limits at every breakpoint.

A slab keeps one flat state array, one incoming-value slot per component
(the value entering the slab) followed by its intervals' nodal values, and
the rhs inputs in one buffer of contiguous (N, P) blocks, one per rhs call.
The cross-component stencils are built once per slab layout
within a ``solve`` call, with one lagrange_matrix call per (component,
order), and grouped by (node count, column count); the call keeps the
tables of at most 4 layouts of at most 64 KiB each (see ``_build_work``).
Each sweep fills the whole input buffer with one
stacked np.matmul per class, through gather and scatter index arrays.  A
stacked matmul rounds each row exactly like that group's own ``values @ L``,
so the numbers do not depend on the batching.  The rhs calls of a sweep are
its rhs batches: a problem that declares its rhs ``columnwise`` gets one
call on the slab's whole (N, sum P) input, any other one call per interval,
since a batched ``A @ U`` over the slab's columns rounds differently from
the per-interval products, and the estimator's rounding-level terms would
move.  One precomputed index keeps each time's own component's row, in one
flat array; the nodal update of all intervals of one scheme class (method,
order), which share one ``scheme_rule`` W, is one stacked np.matmul, which
rounds each row like that interval's own ``W @ f``.

Who decides what.  The partition alone decides where a time reads a
component: the interval (``Partition.point`` for one time, ``.locate`` for
many), the side another component is read from at a breakpoint
(``.read`` / ``.reads``: the right limit at the reader's own interval start,
the left limit elsewhere), the local coordinate (``.coordinate``) and the
snapping of times near a breakpoint (``.snap``).  The slab solver and the
residual pick the times: the slab's quadrature times, snapped, and the
residual's raw times, not snapped -- the one difference between the two
reads.  The trajectory reads every component's polynomial by one rule:
one contraction per (component, interval) group, ``interval_values``' one
lagrange_matrix call and one ``coeffs @ L`` over exactly that group's
columns.  A lagrange column depends only on its own point, but BLAS rounds
``coeffs @ L`` by its column count, so a read depends on the other times
asked for on the same (component, interval) in the same call, and on no
other time.  The trajectory's two entries, ``values`` (one component, as the
dual asks) and ``cross_state`` (the state the residual reads), locate a
single time, as the estimator's root searches ask for, by bisect
(``.point`` / ``.read``) instead of searchsorted; that is all a single time
changes.  The slab sweep's stencils are the other contraction rule (above).

A problem may declare which components each f_i reads
(``OdeProblem.dependencies``).  The residual then locates and interpolates
only those, for one time or many, and fills the other rows of the rhs input
with u0.  The numbers stay bit for bit: each row is read as its own
groups' products, and row i of f reads only rows that are unchanged.  The
slab sweep still builds every component's stencils.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .partition import (Partition, TimeSlab, _check_integer, _is_integer,
                        build_slabs)
from .tableau import (
    MCG,
    MAX_QUAD_DEPTH,
    METHODS,
    lagrange_matrix,
    min_order,
    scheme_rule,
    tableau,
)


class SolverError(RuntimeError):
    """Base class for failures during a solve."""


class NonFiniteRHS(SolverError):
    """The right-hand side produced a non-finite value."""


class ConvergenceFailure(SolverError):
    """A slab's fixed-point iteration did not reach tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _user_error(what: str, fn: Callable, exc: Exception) -> SolverError:
    """The SolverError that reports an exception from a user callable: it
    names the callable and the exception's type and message."""
    name = getattr(fn, "__qualname__", type(fn).__name__)
    return SolverError(f"{what} {name} raised {type(exc).__name__}: {exc}")


@dataclass
class SolveSettings:
    """Fixed-point iteration controls for the slab solver."""

    tolerance: float = 1e-10
    max_sweeps: int = 500
    damping: float = 1.0
    quad_depth: int = 0

    def __post_init__(self):
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError(
                f"tolerance must be positive and finite, got {self.tolerance!r}")
        _check_integer("max_sweeps", self.max_sweeps, 1)
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping!r}")
        # the estimator integrates one dyadic level finer than the solver
        _check_integer("quad_depth", self.quad_depth, 0, MAX_QUAD_DEPTH - 1)


@dataclass
class OdeProblem:
    """An initial value problem u' = f(u, t), u(0) = u0 on (0, T].

    ``methods`` tags every component with its scheme family.  ``vectorized``
    declares that ``rhs`` (and ``jacobian``) accept stacked states of shape
    (N, P) together with a time array of shape (P,).

    ``dependencies`` is the sparsity pattern of f: entry i lists the
    components f_i reads.  f_i may always read u_i, so the own component is
    added; each entry is normalised to a sorted tuple of unique indices.
    ``None`` means every f_i may read every component.  Row i of f must not
    change when a component outside entry i changes: the residual reads
    only those components (see ``interval_rhs``).

    ``columnwise`` declares that column p of ``rhs(U, t)`` depends only on
    column p of U and on t[p], with the same bits whatever other columns
    the call holds; it requires ``vectorized``.  The slab solver then makes
    one rhs call per sweep over the whole slab instead of one per interval
    (see ``solve_slab``).  A product such as ``A @ U`` does not qualify:
    BLAS rounds each column by the number of columns in the call.
    """

    rhs: Callable
    u0: np.ndarray
    T: float
    jacobian: Callable | None = None
    methods: Sequence[str] | str = MCG
    vectorized: bool = False
    name: str = ""
    dependencies: Sequence[Sequence[int]] | None = None
    columnwise: bool = False

    def __post_init__(self):
        self.u0 = np.asarray(self.u0, dtype=float).reshape(-1)
        if not (self.T > 0.0 and np.isfinite(self.T)):
            raise ValueError(f"horizon must be positive and finite, got {self.T!r}")
        if not np.all(np.isfinite(self.u0)):
            raise ValueError("initial value u0 must be finite")
        n = len(self.u0)
        if not n:
            raise ValueError("initial value u0 has no components")
        if isinstance(self.methods, str):
            self.methods = (self.methods,) * n
        else:
            self.methods = tuple(self.methods)
        if len(self.methods) != n:
            raise ValueError(
                f"{len(self.methods)} method tags for {n} components"
            )
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method tag {m!r}")
        if self.dependencies is not None:
            self.dependencies = _dependency_lists(self.dependencies, n)
        if not isinstance(self.columnwise, bool):
            raise ValueError(f"columnwise must be a bool, got {self.columnwise!r}")
        # a per-column rhs gets strided U[:, p] views, and BLAS may round a
        # strided column differently
        if self.columnwise and not self.vectorized:
            raise ValueError("columnwise=True requires vectorized=True")

    @property
    def dimension(self) -> int:
        return len(self.u0)

    def eval_rhs(self, U: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Right-hand side at stacked states U (N, P) and times t (P,).

        An exception from ``rhs`` other than a SolverError is raised again
        as a SolverError (see ``_user_error``)."""
        try:
            if self.vectorized:
                F = np.asarray(self.rhs(U, t), dtype=float)
            else:
                F = np.empty_like(U)
                for p in range(U.shape[1]):
                    F[:, p] = np.asarray(self.rhs(U[:, p], float(t[p])), dtype=float)
        except SolverError:
            raise
        except Exception as exc:
            raise _user_error("right-hand side", self.rhs, exc) from exc
        if F.shape != U.shape:
            raise SolverError(
                f"vectorized rhs returned shape {F.shape}, expected {U.shape}"
            )
        return F

    def jacobian_or_fd(self) -> Callable:
        """The analytic Jacobian, or a central finite-difference fallback with
        step cbrt(eps) * (1 + |u_i|)."""
        if self.jacobian is not None:
            return self.jacobian
        rhs = self.rhs
        base = np.cbrt(np.finfo(float).eps)

        def fd_jacobian(u, t):
            u = np.asarray(u, dtype=float)
            n = len(u)
            J = np.empty((n, n))
            for idx in range(n):
                h = base * (1.0 + abs(u[idx]))
                up = u.copy()
                um = u.copy()
                up[idx] += h
                um[idx] -= h
                J[:, idx] = (np.asarray(rhs(up, t)) - np.asarray(rhs(um, t))) / (2.0 * h)
            return J

        return fd_jacobian


def _dependency_lists(deps, n: int) -> tuple[tuple[int, ...], ...]:
    """One sorted tuple of unique component indices per component, each
    holding its own index; raises ValueError unless ``deps`` has one entry
    per component and every index is an integer (not a bool) in [0, n)."""
    try:
        entries = [list(entry) for entry in deps]
    except TypeError:
        raise ValueError("dependencies must hold one list of indices per "
                         "component") from None
    if len(entries) != n:
        raise ValueError(f"{len(entries)} dependency lists for {n} components")
    for i, entry in enumerate(entries):
        for c in entry:
            if not _is_integer(c):
                raise ValueError(
                    f"dependencies[{i}] holds {c!r}, not a component index")
            if not 0 <= c < n:
                raise ValueError(f"dependencies[{i}] holds {c}, outside [0, {n})")
    return tuple(tuple(sorted({i, *map(int, entry)}))
                 for i, entry in enumerate(entries))


@dataclass(frozen=True)
class SlabReport:
    index: int
    t_start: float
    t_end: float
    sweeps: int
    final_increment: float
    converged: bool


@dataclass(frozen=True)
class SolveReport:
    slabs: tuple[SlabReport, ...]

    @property
    def converged(self) -> bool:
        return all(s.converged for s in self.slabs)


def _interval_groups(j: np.ndarray):
    """(interval, selector) pairs grouping the positions of the interval
    indices j by interval, in increasing interval order."""
    if len(j) == 1 or (len(j) and (j == j[0]).all()):
        # one interval: no np.unique, no masks
        return ((int(j[0]), slice(None)),)
    return ((int(jc), j == jc) for jc in np.unique(j))


class Trajectory:
    """Piecewise-polynomial solution over a partition.

    Nodal coefficients are stored per component and interval; evaluation is by
    Lagrange interpolation on the scheme nodes.  Instances are immutable once
    a solve has produced them.  ``report`` is that solve's per-slab
    iteration report, and ``settings`` its settings; the estimator reads
    their ``quad_depth``.
    """

    def __init__(self, partition: Partition, methods: Sequence[str],
                 u0: np.ndarray, coeffs, report: SolveReport, *,
                 settings: SolveSettings):
        self.partition = partition
        self.methods = tuple(methods)
        self.u0 = np.asarray(u0, dtype=float).reshape(-1)
        self.u0.setflags(write=False)
        self._coeffs = tuple(tuple(arr for arr in comp) for comp in coeffs)
        for comp in self._coeffs:
            for arr in comp:
                arr.setflags(write=False)
        self.report = report
        self.settings = settings
        self._orders = tuple(qs.tolist() for qs in partition.orders)

    @property
    def dimension(self) -> int:
        return len(self.methods)

    @property
    def T(self) -> float:
        return self.partition.T

    def order(self, i: int, j: int) -> int:
        return self._orders[i][j]

    def coefficients(self, i: int, j: int) -> np.ndarray:
        """Nodal values of component i on its interval j (length q_ij + 1)."""
        return self._coeffs[i][j]

    def node_times(self, i: int, j: int) -> np.ndarray:
        t0, t1 = self.partition.span(i, j)
        return t0 + (t1 - t0) * tableau(self.methods[i], self.order(i, j)).nodes

    def incoming_value(self, i: int, j: int) -> float:
        """Left limit of component i at the start of its interval j."""
        if j == 0:
            return float(self.u0[i])
        return float(self._coeffs[i][j - 1][-1])

    def interval_values(self, i: int, j: int, s, order: int = 0) -> np.ndarray:
        """Component i's polynomial on interval j, or its order-th time
        derivative, at local coordinates s."""
        return self._contract(i, j, self._lagrange(i, j, s), order)

    def _lagrange(self, i: int, j: int, s) -> np.ndarray:
        return lagrange_matrix(tableau(self.methods[i], self.order(i, j)).nodes, s)

    def _contract(self, i: int, j: int, L: np.ndarray, order: int = 0) -> np.ndarray:
        """Values (order 0) or order-th time derivatives of component i's
        polynomial on interval j from the Lagrange factors L of its nodes."""
        vals = self._coeffs[i][j]
        if not order:
            return vals @ L
        D = tableau(self.methods[i], self.order(i, j)).diff
        for _ in range(order):
            vals = D @ vals
        return (vals @ L) / self.partition.step(i, j) ** order

    def evaluate(self, comps: Sequence[int], ts: np.ndarray, js: Sequence[np.ndarray],
                 order: int = 0) -> np.ndarray:
        """Values, or order-th time derivatives, of the components ``comps``
        at the times ``ts``, row r taken from component comps[r] on the
        intervals js[r] (one index per time); shape (len(comps), len(ts)).

        This is the one multi-time evaluator.  Times are grouped per
        (component, interval), and each group is one ``interval_values``
        read: one lagrange_matrix call and one ``coeffs @ L`` over that
        group's own columns.  BLAS rounds a matrix-vector product
        differently depending on how many columns one call receives, so a
        group is never split or merged with another; regrouping the
        contraction moves rounding-level estimator terms (E_Q, E_C) by tens
        of percent.
        """
        out = np.empty((len(comps), len(ts)))
        for row, (c, j) in enumerate(zip(comps, js)):
            for jc, sel in _interval_groups(j):
                out[row, sel] = self.interval_values(
                    c, jc, self.partition.coordinate(c, jc, ts[sel]), order)
        return out

    def values(self, i: int, ts: np.ndarray, side: str, order: int) -> np.ndarray:
        """Component i's values, or order-th time derivatives, at the times
        ``ts`` (a 1-d array), each on the interval ``Partition.locate`` finds
        with ``side`` (times outside [0, T] clamp to the end intervals).  A
        single time is located by ``Partition.point`` (bisect) instead of
        searchsorted, and read by the same per-group contraction."""
        if len(ts) == 1:
            return self.interval_values(
                i, *self.partition.point(i, float(ts[0]), side), order)
        return self.evaluate((i,), ts, (self.partition.locate(i, ts, side),), order)[0]

    def cross_state(self, i: int, j: int, s, comps: Sequence[int]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The multirate state seen by component i on its interval j at the
        local coordinates s: the times t0 + k s, the state (N, P) and the
        Lagrange factors (n, P) of s on the interval's nodes.

        Row i is the interval's own polynomial at s.  Every other component
        of ``comps`` is read where ``Partition.reads`` puts each time (the
        right limit at t0, the left limit elsewhere), one contraction per
        (component, interval) group; the rows outside ``comps`` hold u0.  A
        single s is located per component by ``Partition.read`` (bisect)
        instead of ``.reads``."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t0, t1 = self.partition.span(i, j)
        times = t0 + (t1 - t0) * s
        L = self._lagrange(i, j, s)
        others = [c for c in comps if c != i]
        if len(s) == 1:
            t = float(times[0])
            U = self.u0[:, None].copy()
            for c in others:
                U[c] = self.interval_values(c, *self.partition.read(c, t, t0))
        else:
            js = [self.partition.reads(c, times, t0) for c in others]
            U = np.repeat(self.u0[:, None], len(times), axis=1)
            U[others] = self.evaluate(others, times, js)
        # own component from this interval's polynomial (matters at breakpoints)
        U[i] = self._contract(i, j, L)
        return times, U, L

    def value(self, i: int, t: float, side: str = "left") -> float:
        """Component i at time t with the requested one-sided convention."""
        if side == "left" and t == 0.0:
            return float(self.u0[i])
        j = self.partition.interval_at(i, t, side)
        return float(self.interval_values(i, j, self.partition.coordinate(i, j, t))[0])

    def state(self, t: float, side: str = "left") -> np.ndarray:
        """Full solution vector at time t."""
        return np.array([self.value(i, t, side) for i in range(self.dimension)])

    def sample_states(self, ts, side: str = "left") -> np.ndarray:
        """Solution matrix (N, P) at an array of times.  side="left" resolves
        breakpoints to the interval ending there (with the incoming value at
        t = 0)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        comps = range(self.dimension)
        U = self.evaluate(comps, ts, [self.partition.locate(i, ts, side)
                                      for i in comps])
        if side == "left":
            U[:, ts == 0.0] = self.u0[:, None]
        return U

    def end_state(self) -> np.ndarray:
        """Left-limit solution vector at the horizon T."""
        return np.array([float(self._coeffs[i][-1][-1]) for i in range(self.dimension)])

    def jump(self, i: int, j: int) -> float:
        """Right minus left limit of component i at breakpoint t_{i,j},
        0 <= j < M_i, for either family.  A continuous-family jump is exactly
        0.0: ``solve_slab`` pins each interval's first nodal value to its
        incoming value bit for bit, and the Lagrange column at s = 0 on the
        Lobatto nodes is e_0 (up to signed zeros)."""
        M = self.partition.n_intervals(i)
        if not 0 <= j < M:
            raise ValueError(f"breakpoint index {j} outside [0, {M})")
        left = self.incoming_value(i, j)
        right = float(self.interval_values(i, j, 0.0)[0])
        return right - left


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def interval_rhs(traj: Trajectory, problem: OdeProblem, i: int, j: int,
                 s) -> tuple[np.ndarray, np.ndarray]:
    """f_i on component i's interval j at local coordinates s, under the
    within-interval cross state, and the Lagrange factors of s on the
    interval's nodes.  The residual and the estimator's rhs integrals both
    start from this one quantity; ``Trajectory.cross_state`` forms the
    state, for one s (as a root search asks for) or many.

    Only the components f_i reads (``problem.dependencies``, all of them by
    default) are located and interpolated; the other rows of the rhs input
    hold u0, finite values whose output rows are discarded.  This is bit for
    bit: row i of f reads only rows that are unchanged, and each of those
    rows is read as its own groups' products (see the module docstring)."""
    comps = (range(traj.dimension) if problem.dependencies is None
             else problem.dependencies[i])
    times, U, L = traj.cross_state(i, j, s, comps)
    return problem.eval_rhs(U, times)[i], L


def interval_residual(traj: Trajectory, problem: OdeProblem, i: int, j: int,
                      s) -> np.ndarray:
    """Residual of component i on its interval j at local coordinates s,
    evaluated with the within-interval limit at the left endpoint."""
    f, L = interval_rhs(traj, problem, i, j, s)
    return traj._contract(i, j, L, 1) - f


def residual(traj: Trajectory, problem: OdeProblem, i: int, t: float) -> float:
    """Residual of component i at a time interior to one of its intervals."""
    bp = traj.partition.breakpoints[i]
    if t in bp:
        raise ValueError(
            f"t={t!r} is a breakpoint of component {i}; evaluate one-sided "
            "or inside the interval"
        )
    j = traj.partition.interval_at(i, t, "left")
    s = traj.partition.coordinate(i, j, t)
    return float(interval_residual(traj, problem, i, j, s)[0])


# ---------------------------------------------------------------------------
# Slab solve
# ---------------------------------------------------------------------------

# A sweep whose increment exceeds this multiple of the first sweep's (and the
# tolerance) ends the slab as diverged.  Converging slabs of the test suite
# and the benchmark never exceed 1.42 times their first increment, while they
# may grow for up to 10 sweeps in a row, so growth alone is no signal.
_DIVERGED = 1e4


# A solve keeps the tables of at most this many slab layouts, first in first
# out, and never those of a layout whose tables and key take more than
# _LAYOUT_BYTES: the layouts of a uniform partition alternate between a few
# ulp-shifted variants, while a slab of many components (tens of kilobytes
# to megabytes of tables) rarely repeats and would only hold memory.
_LAYOUTS_KEPT = 4
_LAYOUT_BYTES = 64 * 1024


@dataclass
class _IntervalWork:
    i: int
    order: int
    t0: float
    k: float                     # step
    times: np.ndarray            # (P,) quadrature times
    at: int                      # offset of its nodal values in the slab state


@dataclass
class _Stencils:
    """One stacked contraction per (node count, column count) class: the rhs
    inputs at ``scatter`` (G, m) are np.matmul(state[gather] (G, n) as row
    vectors, L (G, n, m))."""

    gather: np.ndarray
    L: np.ndarray
    scatter: np.ndarray


@dataclass
class _Updates:
    """One stacked nodal update per scheme class (method, order): the work
    items ``ws`` (G,) share the weights W (n_solved, P) and read their rhs
    rows at ``fidx`` (G, P) of the slab's flat rhs-row array and their
    incoming values at ``inc`` (G,); they solve the state at ``solved``
    (G, n_solved) and pin it at ``pinned`` (G, n_pinned) to the incoming
    value.  Each item scales its update by its own step."""

    W: np.ndarray
    ws: np.ndarray
    fidx: np.ndarray
    inc: np.ndarray
    solved: np.ndarray
    pinned: np.ndarray


@dataclass
class _RhsBatches:
    """The rhs calls of one sweep: batch b takes the concatenated times
    ``cuts[b]:cuts[b + 1]``, its (N, width) block of the input buffer starts
    at N * cuts[b], and the slab's flat rhs-row array keeps, at those
    times, the entries ``keep[cuts[b]:cuts[b + 1]]`` of the batch's
    flattened output: each time's own component's row."""

    cuts: np.ndarray
    keep: np.ndarray


def _build_work(problem, partition, slab, settings, layouts):
    """Precompute quadrature times, cross-component evaluation stencils and
    the nodal-update tables for every interval in the slab.

    The slab state opens with one incoming-value slot per component; an
    interval's incoming value is its predecessor's end value or, first in
    the slab, its component's slot.

    Every quadrature time lies in the slab, so the stencils of a component
    only read its own intervals in the slab.  ``Partition.snap`` moves the
    slab's times within the synchronization tolerance onto a component's
    breakpoints, and ``Partition.reads`` and ``.coordinate`` place them, with
    the residual's side rule; the snap is the one difference from the
    residual's reads.

    The work items (their times and steps) and each component's snapped
    source intervals ``src`` and local coordinates ``s`` are made for every
    slab.  The stencil and update tables depend only on the slab's layout:
    the interval orders, the interval count of each component, ``src`` and
    ``s``, and on the problem's methods, its ``columnwise`` declaration and
    the quadrature depth.  The store ``layouts`` maps a layout's key, those
    seven with the arrays as exact bytes, to its tables; a layout found
    there reuses them, the same arrays and so the same bits, and a new one
    is built (``_slab_tables``) and kept, within _LAYOUTS_KEPT and
    _LAYOUT_BYTES.

    Returns the work items, their concatenated quadrature times, the
    stencil classes, the update classes and the rhs batches.
    """
    N = problem.dimension
    work: list[_IntervalWork] = []
    first = []                   # work index of each component's first interval
    at = N
    for i in range(N):
        first.append(len(work))
        lo, hi = slab.spans[i]
        for j in range(lo, hi):
            q = int(partition.orders[i][j])
            pts, _ = scheme_rule(problem.methods[i], q, settings.quad_depth)
            t0, t1 = partition.span(i, j)
            k = t1 - t0
            work.append(_IntervalWork(i=i, order=q, t0=t0, k=k, times=t0 + k * pts,
                                      at=at))
            at += q + 1

    counts = np.array([len(item.times) for item in work])
    times = np.concatenate([item.times for item in work])
    starts = np.repeat([item.t0 for item in work], counts)
    src = np.empty((N, len(times)), dtype=int)   # source work index per time
    s = np.empty((N, len(times)))                # local coordinate in it
    for c in range(N):
        tt = partition.snap(c, times)
        jc = partition.reads(c, tt, starts)
        src[c] = first[c] - slab.spans[c][0] + jc
        s[c] = partition.coordinate(c, jc, tt)

    # a layout whose key alone exceeds the bound is never kept, so it is not
    # looked up either
    if src.nbytes + s.nbytes > _LAYOUT_BYTES:
        return work, times, *_slab_tables(problem, settings, work, first,
                                          counts, src, s)
    key = (tuple(item.order for item in work),
           tuple(hi - lo for lo, hi in slab.spans), src.tobytes(), s.tobytes(),
           problem.methods, problem.columnwise, settings.quad_depth)
    tables = layouts.get(key)
    if tables is None:
        tables = _slab_tables(problem, settings, work, first, counts, src, s)
        stencils, updates, batches = tables
        size = src.nbytes + s.nbytes + sum(
            a.nbytes for table in [*stencils, *updates, batches]
            for a in vars(table).values())
        if size <= _LAYOUT_BYTES:
            if len(layouts) == _LAYOUTS_KEPT:
                del layouts[next(iter(layouts))]
            layouts[key] = tables
    return work, times, *tables


def _slab_tables(problem, settings, work, first, counts, src, s):
    """The stencil classes, the update classes and the rhs batches of a
    slab's layout (see ``_build_work``).

    A columnwise rhs takes the whole slab in one batch, any other rhs one
    batch per item; a batch's input block holds, component-major, the
    inputs of its times, so an item's inputs are a contiguous (N, P) block
    exactly when its batch is the item alone.

    Each item's times increase, so a stencil group -- the times of one item
    that one source interval covers -- is a run of equal (item, interval) in
    the concatenated times, and its Lagrange factors are a column slice of
    one lagrange_matrix call per (component, order).  The intervals of one
    scheme class (method, order) share one ``scheme_rule`` W, so each class
    gets one ``_Updates`` table, in the order the classes first occur; an
    interval's rhs row sits in the flat rhs-row array at its first time's
    position in the concatenated times.
    """
    N = problem.dimension
    methods = problem.methods
    orders = np.array([item.order for item in work])
    bounds = [*first, len(work)]

    # Lagrange factors per (component, order); the blocks of one node count
    # are concatenated in (component, time) order, so column col[x] of
    # factors[n] belongs to entry x of the flattened (N, P) tables
    nodes = (orders + 1)[src]
    factors: dict[int, list] = {}
    for c in range(N):
        for q in sorted(set(orders[bounds[c]:bounds[c + 1]].tolist())):
            factors.setdefault(q + 1, []).append(lagrange_matrix(
                tableau(methods[c], q).nodes, s[c, nodes[c] == q + 1]))
    nodes = nodes.ravel()
    col = np.empty(len(nodes), dtype=int)
    for n, blocks in factors.items():
        of_n = nodes == n
        col[of_n] = np.arange(np.count_nonzero(of_n))
        factors[n] = np.concatenate(blocks, axis=1)

    owner = np.repeat(np.arange(len(work)), counts)
    ends = np.cumsum(counts)
    offsets = ends - counts                      # each item's first time
    # each time's rhs batch starts at time b0 and spans width times; the
    # input of (component c, time x) sits at N b0 + c width + x - b0
    cuts = np.concatenate(([0], ends[-1:] if problem.columnwise else ends))
    batch = np.zeros_like(owner) if problem.columnwise else owner
    b0, width = cuts[batch], np.diff(cuts)[batch]
    own = np.array([item.i for item in work])[owner]
    batches = _RhsBatches(cuts=cuts, keep=own * width + np.arange(len(owner)) - b0)

    # stencil groups: runs of equal (item, source interval); a new component
    # always changes the source
    srcf = src.ravel()
    cut = np.ones(len(srcf) + 1, dtype=bool)
    cut[1:-1] = srcf[1:] != srcf[:-1]
    cut[:-1].reshape(N, -1)[:, offsets] = True
    edge = np.flatnonzero(cut)
    head, m = edge[:-1], edge[1:] - edge[:-1]
    n = nodes[head]
    ats = np.array([item.at for item in work])
    gather = ats[srcf[head]]
    # rhs-input offset of (component, time) in its batch's block
    scatter = ((N - 1) * b0 + np.arange(len(owner))
               + np.arange(N)[:, None] * width).ravel()[head]
    stencils = []
    for nc, mc in sorted(set(zip(n.tolist(), m.tolist()))):
        sel = (n == nc) & (m == mc)
        cols = col[head[sel]][:, None] + np.arange(mc)
        stencils.append(_Stencils(
            gather=gather[sel][:, None] + np.arange(nc),
            L=np.ascontiguousarray(factors[nc][:, cols].transpose(1, 0, 2)),
            scatter=scatter[sel][:, None] + np.arange(mc),
        ))

    # W has one row per solved nodal value, so an interval pins its first
    # order + 1 - len(W) values to its incoming value: 1 for mcG, 0 for mdG
    classes: dict[tuple, list] = {}
    inc_at = np.empty(len(work), dtype=int)
    for w, item in enumerate(work):
        classes.setdefault((methods[item.i], item.order), []).append(w)
        inc_at[w] = item.i if w == first[item.i] else item.at - 1
    updates = []
    for (method, q), ws in classes.items():
        pts, W = scheme_rule(method, q, settings.quad_depth)
        ws = np.array(ws)
        pin = q + 1 - len(W)
        updates.append(_Updates(
            W=W, ws=ws, fidx=offsets[ws][:, None] + np.arange(len(pts)),
            inc=inc_at[ws],
            solved=ats[ws][:, None] + np.arange(pin, q + 1),
            pinned=ats[ws][:, None] + np.arange(pin),
        ))
    return stencils, updates, batches


def solve_slab(problem: OdeProblem, partition: Partition, slab: TimeSlab,
               coeffs, settings: SolveSettings,
               layouts: dict) -> tuple[list, SlabReport]:
    """Solve one slab's nodal equations by damped Jacobi fixed-point sweeps.

    ``coeffs`` holds the already-accepted per-component interval coefficient
    arrays up to the slab start.  Returns the new interval coefficient arrays
    (appended per component, in interval order) and an iteration report.
    ``layouts`` is the store of slab tables that ``solve`` shares between
    the slabs of one call (see ``_build_work``); a new dict gives the slab
    tables of its own.

    Each sweep fills every interval's rhs inputs from the previous sweep's
    state and runs the rhs over every rhs batch (see ``_RhsBatches``: the
    whole slab in one call for a ``columnwise`` problem, else one call per
    interval) before it checks the rhs rows it keeps: a non-finite one
    raises NonFiniteRHS naming the first such interval in work order
    (component, then interval).  It then
    makes the nodal update xi = xi_0 + k W f of all intervals of one scheme
    class in one stacked np.matmul (see ``_Updates``).

    The slab converges once a sweep's damped increment is at most damping *
    tolerance; it stops unconverged when a sweep leaves the state bit for
    bit unchanged, since every later sweep would repeat it.  Raises
    ConvergenceFailure, carrying this slab's report, as soon as a sweep's
    increment is non-finite or exceeds both that threshold and _DIVERGED
    times the first sweep's.
    """
    N = problem.dimension
    work, times, stencils, updates, batches = _build_work(
        problem, partition, slab, settings, layouts)
    steps = np.array([item.k for item in work])
    ks = [steps[up.ws][:, None] for up in updates]
    # the incoming-value slots, and every nodal value starting from its
    # component's (constant extrapolation)
    incoming = np.array([problem.u0[i] if lo == 0 else coeffs[i][lo - 1][-1]
                         for i, (lo, _) in enumerate(slab.spans)])
    state = np.concatenate([incoming] + [np.full(item.order + 1, incoming[item.i])
                                         for item in work])
    new_state = state.copy()
    inputs = np.empty(N * len(times))
    # each interval's own rhs row, in work order
    frows = np.empty(len(times))
    calls = [(inputs[N * a:N * b].reshape(N, b - a), times[a:b], frows[a:b],
              batches.keep[a:b])
             for a, b in zip(batches.cuts[:-1].tolist(), batches.cuts[1:].tolist())]
    item_increments = np.empty(len(work))

    # damping * tolerance bounds the damped increment as tolerance bounds
    # the undamped step; the increment is the damped step before it is
    # added, so a step that a tiny damping rounds away in the state counts
    damping = settings.damping
    threshold = damping * settings.tolerance
    increment = np.inf
    first_increment = None
    sweeps = 0
    converged = diverged = False
    while sweeps < settings.max_sweeps:
        sweeps += 1
        for st in stencils:
            inputs[st.scatter] = np.matmul(state[st.gather][:, None, :], st.L)[:, 0]
        # keep is in range, and a mode other than "raise" lets take write
        # into row without a buffer
        for block, t, row, keep in calls:
            problem.eval_rhs(block, t).take(keep, out=row, mode="clip")
        if not np.isfinite(frows).all():
            # the item of the first non-finite time
            ends = np.cumsum([len(item.times) for item in work])
            bad = work[np.searchsorted(ends, np.argmin(np.isfinite(frows)), "right")]
            raise NonFiniteRHS(
                f"non-finite right-hand side for component {bad.i} in "
                f"slab {slab.index} near t={bad.t0!r}"
            )
        for up, k in zip(updates, ks):
            inc = state[up.inc]
            target = inc[:, None] + k * np.matmul(
                up.W, frows[up.fidx][:, :, None])[:, :, 0]
            old = state[up.solved]
            step = damping * (target - old)
            item_increments[up.ws] = np.abs(step).max(axis=1)
            new_state[up.solved] = old + step
            new_state[up.pinned] = inc[:, None]
        state, new_state = new_state, state
        increment = float(item_increments.max())
        if increment <= threshold:
            converged = True
            break
        # a sweep is deterministic: an unchanged state repeats it exactly
        if np.array_equal(state, new_state):
            break
        if first_increment is None:
            first_increment = increment
        diverged = not (np.isfinite(increment)
                        and increment <= _DIVERGED * first_increment)
        if diverged:
            break

    report = SlabReport(
        index=slab.index, t_start=slab.t_start, t_end=slab.t_end,
        sweeps=sweeps, final_increment=increment, converged=converged,
    )
    if diverged:
        worst = work[int(np.argmax(item_increments))]
        raise ConvergenceFailure(
            f"slab {slab.index} ({slab.t_start!r}, {slab.t_end!r}] diverged "
            f"at sweep {sweeps}: increment {increment:.3e} (first sweep "
            f"{first_increment:.3e}), largest update in component {worst.i} "
            f"near t={worst.t0!r}",
            report=SolveReport(slabs=(report,)),
        )

    # accept: pin bitwise to the incoming value (a predecessor's end value is
    # solved, never pinned), then write back in interval order
    for up in updates:
        state[up.pinned] = state[up.inc][:, None]
    out = [[] for _ in range(N)]
    for item in work:
        out[item.i].append(state[item.at:item.at + item.order + 1].copy())
    return out, report


def solve(problem: OdeProblem, partition: Partition,
          settings: SolveSettings | None = None) -> Trajectory:
    """Solve the problem over the partition, slab by slab.

    Continuous-family components start from u0; discontinuous-family
    components take u0 as their incoming left limit at t = 0.  Raises
    ConvergenceFailure, carrying the reports of the slabs solved so far,
    when a slab diverges or exhausts its sweep budget.

    The slabs share one store of slab tables, so a slab whose layout
    repeats an earlier one's reuses its tables (see ``_build_work``); the
    store dies with the call.
    """
    settings = settings or SolveSettings()
    if partition.n_components != problem.dimension:
        raise ValueError(
            f"partition has {partition.n_components} components, problem has "
            f"{problem.dimension}"
        )
    if partition.T != problem.T:
        raise ValueError(
            f"partition horizon {partition.T!r} != problem horizon {problem.T!r}")
    for i, m in enumerate(problem.methods):
        lo = min_order(m)
        if np.any(partition.orders[i] < lo):
            raise ValueError(
                f"component {i}: orders below minimum {lo} for {m}"
            )

    coeffs = [[] for _ in range(problem.dimension)]
    reports = []
    layouts: dict = {}           # the slab tables kept by layout, see _build_work
    for slab in build_slabs(partition):
        try:
            new, report = solve_slab(problem, partition, slab, coeffs, settings,
                                     layouts)
        except ConvergenceFailure as exc:
            exc.report = SolveReport(slabs=tuple(reports) + exc.report.slabs)
            raise
        reports.append(report)
        if not report.converged:
            raise ConvergenceFailure(
                f"slab {slab.index} ({slab.t_start!r}, {slab.t_end!r}] did not "
                f"converge: increment {report.final_increment:.3e} after "
                f"{report.sweeps} sweeps (threshold damping * tolerance = "
                f"{settings.damping * settings.tolerance:.3e})",
                report=SolveReport(slabs=tuple(reports)),
            )
        for i in range(problem.dimension):
            coeffs[i].extend(new[i])
    return Trajectory(partition, problem.methods, problem.u0, coeffs,
                      report=SolveReport(slabs=tuple(reports)), settings=settings)
