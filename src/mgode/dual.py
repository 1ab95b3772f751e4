"""Backward linearized (dual) problems and their solution by time reversal.

The dual weights residuals of a computed trajectory into global error
estimates.  Its right-hand side couples through the transpose of the Jacobian
of the primal right-hand side, averaged along the segment between two states;
the backward system is turned into a forward one by the substitution
sigma = T - t and handed to the regular solver.

``DualSolution`` reads phi through one pair of methods: ``values(i, ts,
side, order)`` for an array of times and ``value(i, t, side, order)`` for
one.  ``order`` selects the time derivative (0 for phi itself); both read the
reversed trajectory psi at sigma = T - t and apply the sign (-1)^order of
the time reversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .partition import Partition, _check_integer, _check_intervals, _check_side
from .solver import (OdeProblem, SolveSettings, SolverError, Trajectory,
                     _user_error, solve)
from .tableau import MCG, MAX_ORDER, gauss_rule_01


def terminal_weight(phi_T, n: int) -> np.ndarray:
    """phi_T as a flat float array, checked: finite, one entry per component."""
    phi_T = np.asarray(phi_T, dtype=float).reshape(-1)
    if len(phi_T) != n:
        raise ValueError(f"phi_T has length {len(phi_T)}, expected {n}")
    if not np.all(np.isfinite(phi_T)):
        raise ValueError("phi_T must be finite")
    return phi_T


@dataclass
class DualSpec:
    """Data of a backward linearized problem.

    ``phi_T`` is the terminal weight, ``g`` an optional forcing (callable of
    time, defaults to zero).  The linearization runs along the computed
    trajectory ``primal``; passing ``reference`` (e.g. a finer solve standing
    in for the exact solution) makes the Jacobian average run along the
    segment between the two trajectories, by ``jstar``'s default rule.
    """

    problem: OdeProblem
    primal: Trajectory
    phi_T: np.ndarray
    g: Callable | None = None
    reference: Trajectory | None = None

    def __post_init__(self):
        self.phi_T = terminal_weight(self.phi_T, self.problem.dimension)
        want = (self.problem.dimension, self.problem.T)
        for name, traj in (("primal", self.primal), ("reference", self.reference)):
            if traj is not None and (traj.dimension, traj.T) != want:
                raise ValueError(f"{name} has {traj.dimension} components up to "
                                 f"T = {traj.T!r}, the problem {want[0]} up to "
                                 f"T = {want[1]!r}")


def jstar(v1, v2, t: float, jac: Callable, s_points: int = 3) -> np.ndarray:
    """Transpose of the Jacobian averaged along the segment from v2 to v1,

        ( integral_0^1 df/du(s v1 + (1-s) v2, t) ds )^T,

    by an s_points Gauss-Legendre rule; exact whenever df/du is polynomial of
    degree <= 2 s_points - 1 along the segment.  An exception from ``jac``
    other than a SolverError is raised again as a SolverError."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    same = np.array_equal(v1, v2)
    try:
        if same:
            J = np.asarray(jac(v1, t), dtype=float)
        else:
            xs, ws = gauss_rule_01(s_points)
            acc = np.zeros((len(v1), len(v1)))
            for x, w in zip(xs, ws):
                acc += w * np.asarray(jac(x * v1 + (1.0 - x) * v2, t), dtype=float)
    except SolverError:
        raise
    except Exception as exc:
        raise _user_error("Jacobian", jac, exc) from exc
    if same:
        if not np.all(np.isfinite(J)):
            raise ValueError(f"non-finite Jacobian at t={t!r}")
        return J.T
    if not np.all(np.isfinite(acc)):
        raise ValueError(f"non-finite Jacobian average at t={t!r}")
    return acc.T


def dual_partition_for(partition: Partition, order_increment: int = 1,
                       refine: int = 1) -> Partition:
    """Default dual partition: the primal breakpoints (optionally refined by
    an integer factor per interval) with every order raised by
    ``order_increment``, capped at the supported maximum.

    Each interval [a, b] is cut as np.linspace(a, b, refine + 1) cuts it,
    at a + i ((b - a) / refine) with b itself as the last point, so
    ``refine == 1`` gives back the primal breakpoints."""
    _check_integer("order_increment", order_increment, 0)
    _check_integer("refine", refine, 1)
    for i in range(partition.n_components):
        _check_intervals(refine * partition.n_intervals(i),
                         f"refine {refine}, component {i} dual intervals")
    breakpoints = []
    orders = []
    for bp, qs in zip(partition.breakpoints, partition.orders):
        sub = (np.arange(1, refine + 1) * (np.diff(bp) / refine)[:, None]
               + bp[:-1, None])
        sub[:, -1] = bp[1:]
        sub[-1, -1] = partition.T
        breakpoints.append(np.concatenate(([0.0], sub.ravel())))
        # an increment past MAX_ORDER would overflow the int array
        orders.append(np.repeat(
            np.minimum(qs + min(order_increment, MAX_ORDER), MAX_ORDER), refine))
    return Partition(T=partition.T, breakpoints=tuple(breakpoints),
                     orders=tuple(orders))


def _reverse_partition(partition: Partition) -> Partition:
    T = partition.T
    breakpoints = []
    orders = []
    for bp, qs in zip(partition.breakpoints, partition.orders):
        rev = (T - bp[::-1]).copy()
        rev[0] = 0.0
        rev[-1] = T
        breakpoints.append(rev)
        orders.append(qs[::-1].copy())
    return Partition(T=T, breakpoints=tuple(breakpoints), orders=tuple(orders))


class DualSolution:
    """The dual trajectory phi(t), stored as the forward solve psi of the
    time-reversed system, psi(sigma) = phi(T - sigma), with the reversed
    problem ``psi_problem`` that psi solves."""

    def __init__(self, psi: Trajectory, psi_problem: OdeProblem):
        self.psi = psi
        self.psi_problem = psi_problem
        self.T = psi.partition.T

    @property
    def dimension(self) -> int:
        return self.psi.dimension

    def local_order(self, i: int, t0: float, t1: float) -> int:
        """Smallest dual polynomial order among component i's pieces
        overlapping (t0, t1)."""
        part = self.psi.partition
        lo = part.interval_at(i, self.T - t1, "right")
        hi = part.interval_at(i, self.T - t0, "left")
        return int(np.min(part.orders[i][lo:hi + 1]))

    def value(self, i: int, t: float, side: str = "left", order: int = 0) -> float:
        """phi_i(t), or its order-th time derivative, with the requested
        one-sided convention; at the ends of [0, T] the interior limit is
        returned regardless of side."""
        return float(self.values(i, min(max(t, 0.0), self.T), side, order)[0])

    def state(self, t: float, side: str = "left") -> np.ndarray:
        return np.array([self.value(i, t, side) for i in range(self.dimension)])

    def values(self, i: int, ts, side: str = "left", order: int = 0) -> np.ndarray:
        """phi_i, or its order-th time derivative, at an array of times: the
        reversed trajectory's at sigma = T - t, where a left limit in t is a
        right limit in sigma, times (-1)^order.  Times outside the breakpoint
        range clamp to the end intervals."""
        _check_side(side)
        sigma = self.T - np.atleast_1d(np.asarray(ts, dtype=float))
        out = self.psi.values(i, sigma, "right" if side == "left" else "left",
                              order)
        return -out if order % 2 else out

    def breakpoints(self, i: int) -> np.ndarray:
        """Dual breakpoints of component i in forward time, increasing."""
        return self.T - self.psi.partition.breakpoints[i][::-1]

    def piece_boundaries(self, i: int, t0: float, t1: float) -> np.ndarray:
        """Dual breakpoints of component i strictly inside (t0, t1), in
        forward time order."""
        bp = self.breakpoints(i)
        return bp[(bp > t0) & (bp < t1)]


def solve_dual(spec: DualSpec, dual_partition: Partition,
               settings: SolveSettings | None = None) -> DualSolution:
    """Solve the backward linearized problem on the given t-space partition.

    Substituting sigma = T - t yields a forward system for
    psi(sigma) = phi(T - sigma) with psi(0) = phi_T, which the regular solver
    integrates; the returned object exposes phi(t) = psi(T - t).
    """
    problem = spec.problem
    primal = spec.primal
    T = problem.T
    if abs(dual_partition.T - T) > 0.0:
        raise ValueError(
            f"dual partition horizon {dual_partition.T!r} != problem horizon {T!r}"
        )
    jac = problem.jacobian_or_fd()
    reference = spec.reference
    g = spec.g
    N = problem.dimension

    # the linearization (and forcing) along the fixed primal trajectory does
    # not change between sweeps, so cache them per quadrature time, and the
    # same time arrays come back every sweep: stack their linearization
    # once, (P, N, N) with the forcing (N, P) alongside
    _frozen: dict[float, tuple[np.ndarray, np.ndarray | None]] = {}
    _stacked: dict[bytes, tuple[np.ndarray, np.ndarray | None]] = {}

    def _stacked_at(sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        key = sigmas.tobytes()
        if key not in _stacked:
            ts = T - sigmas
            # only the missing times are sampled, on purpose: a primal read
            # depends on the other times of its (component, interval) group
            # in the same call (see the solver module), so sampling each new
            # time array whole would read a time again among other times and
            # could change its bits
            missing = [p for p, t in enumerate(ts) if float(t) not in _frozen]
            if missing:
                tm = ts[missing]
                U = primal.sample_states(tm, "left")
                V = reference.sample_states(tm, "left") if reference is not None else U
                for col, p in enumerate(missing):
                    t = float(ts[p])
                    _frozen[t] = (jstar(V[:, col], U[:, col], t, jac),
                                  None if g is None
                                  else np.asarray(g(t), dtype=float).reshape(-1))
            pairs = [_frozen[float(t)] for t in ts]
            # np.stack keeps the matrices' common memory layout, which
            # decides how BLAS rounds each product (tests/test_dual.py)
            Jts = np.stack([Jt for Jt, _ in pairs])
            G = None if g is None else np.stack([gv for _, gv in pairs], axis=1)
            _stacked[key] = (Jts, G)
            # keep each matrix once: the per-time cache now views the stack
            for p, t in enumerate(ts):
                _frozen[float(t)] = (Jts[p], None if G is None else G[:, p])
        return _stacked[key]

    def psi_rhs(psi, sigma):
        # stacked form: psi (N, P), sigma (P,); plain vectors (from
        # jacobian_or_fd) accepted too.  BLAS rounds each column by the
        # state's memory layout, so every state is taken in C order and as
        # (N, P): one np.matmul then rounds each column as Jt @ psi[:, p]
        # alone does on a C-ordered psi, whatever layout the caller passed,
        # and a vector rounds as its stacked single column (tests/test_dual.py).
        psi_mat = np.ascontiguousarray(psi, dtype=float).reshape(N, -1)
        Jts, G = _stacked_at(np.atleast_1d(np.asarray(sigma, dtype=float)))
        out = np.ascontiguousarray(np.matmul(Jts, psi_mat.T[:, :, None])[:, :, 0].T)
        if G is not None:
            out += G
        return out if np.ndim(psi) > 1 else out[:, 0]

    psi_problem = OdeProblem(
        rhs=psi_rhs,
        u0=spec.phi_T,
        T=T,
        methods=MCG,
        vectorized=True,
        name=f"dual({problem.name})" if problem.name else "dual",
    )
    reversed_partition = _reverse_partition(dual_partition)
    psi = solve(psi_problem, reversed_partition, settings or SolveSettings())
    return DualSolution(psi=psi, psi_problem=psi_problem)
