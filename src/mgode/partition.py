"""Per-component time partitions and their synchronized time-slabs.

A partition assigns every solution component its own breakpoint sequence on
[0, T] and a polynomial order per interval.  Intervals are left-open and
right-closed.  Slabs group the intervals of all components between
consecutive synchronized levels, i.e. time points that are breakpoints of
every component.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tableau import MAX_ORDER, _is_integer, min_order

#: Relative tolerance (times the horizon) under which breakpoints of
#: different components are considered one synchronized level and merged
#: to a common value.
SYNC_REL_TOL = 1e-12

#: Hard cap on the intervals of one component, and on the slab windows of a
#: re-partition, checked before or while they are generated.
_MAX_INTERVALS = 10_000_000

StepSpec = float | Sequence[float] | Callable[[float], float]


def _is_scalar(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating))


def _check_intervals(count, what: str) -> None:
    """Raise PartitionError when ``count`` passes the interval cap."""
    if count > _MAX_INTERVALS:
        raise PartitionError(f"{what}: too many intervals, more than {_MAX_INTERVALS}")


def _check_integer(name: str, value, least: int, most: float = np.inf) -> None:
    """Raise ValueError unless value is an integer in [least, most]."""
    if not (_is_integer(value) and least <= value <= most):
        raise ValueError(f"{name} must be an integer in [{least}, {most}], "
                         f"got {value!r}")


def _check_side(side: str) -> None:
    """Raise ValueError unless side is "left" or "right"."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _check_time(t: float, T: float) -> None:
    """Raise ValueError unless 0 <= t <= T."""
    if not 0.0 <= t <= T:
        raise ValueError(f"t={t!r} outside [0, {T!r}]")


class PartitionError(ValueError):
    """Invalid partition construction input."""


@dataclass(frozen=True)
class Partition:
    """Per-component breakpoints and interval orders on (0, T].

    The partition alone decides where a time falls on a component: the
    interval (``point`` for one time, ``locate`` for many; both clamp a
    time outside the breakpoint range to the end interval, and a reader
    that refuses such a time checks it with ``_check_time``), the side a
    reader takes at a breakpoint (``reads``, ``read``), the local
    coordinate in the interval (``coordinate``) and the snapping of
    near-breakpoint times (``snap``).  Callers pick the times and evaluate
    there.
    """

    T: float
    breakpoints: tuple[np.ndarray, ...]
    orders: tuple[np.ndarray, ...]

    def __post_init__(self):
        for arr in self.breakpoints + self.orders:
            arr.setflags(write=False)
        # the locators below bisect Python lists and search the interior
        # breakpoints; partitions are immutable, so both are built once
        object.__setattr__(self, "_bp_lists",
                           tuple(bp.tolist() for bp in self.breakpoints))
        object.__setattr__(self, "_interior",
                           tuple(bp[1:-1] for bp in self.breakpoints))

    @property
    def n_components(self) -> int:
        return len(self.breakpoints)

    def n_intervals(self, i: int) -> int:
        return len(self.breakpoints[i]) - 1

    @property
    def total_intervals(self) -> int:
        return sum(self.n_intervals(i) for i in range(self.n_components))

    def step(self, i: int, j: int) -> float:
        return float(self.breakpoints[i][j + 1] - self.breakpoints[i][j])

    def steps(self, i: int) -> np.ndarray:
        return np.diff(self.breakpoints[i])

    def span(self, i: int, j: int) -> tuple[float, float]:
        bp = self.breakpoints[i]
        return float(bp[j]), float(bp[j + 1])

    def point(self, i: int, t: float, side: str) -> tuple[int, float]:
        """``locate`` for one time, by bisect on the breakpoint list, and the
        local coordinate of t in that interval (``coordinate``)."""
        _check_side(side)
        bp = self._bp_lists[i]
        j = (bisect_left if side == "left" else bisect_right)(bp, t, 1, len(bp) - 1) - 1
        return j, self.coordinate(i, j, t)

    def locate(self, i: int, ts: np.ndarray, side: str = "left") -> np.ndarray:
        """Interval index of component i at each time: with the left-open
        right-closed intervals, side="left" resolves a breakpoint to the
        interval ending there, side="right" to the one starting there, and
        times outside the breakpoint range clamp to the first or last
        interval."""
        _check_side(side)
        # counting interior breakpoints is searchsorted(bp) - 1 clamped
        return self._interior[i].searchsorted(ts, side)

    def reads(self, i: int, ts: np.ndarray, t0) -> np.ndarray:
        """The interval of component i that a reader starting at t0 reads at
        each time: the one starting there (the right limit) at a time equal
        to t0, the one ending at or after it (the left limit) elsewhere.

        This is the one cross-read side rule of the multirate state.  ``t0``
        is one start or one per time; the indices clamp as in ``locate``."""
        return np.where(ts == t0, self.locate(i, ts, "right"), self.locate(i, ts))

    def read(self, i: int, t: float, t0: float) -> tuple[int, float]:
        """``reads`` for one time, through ``point``: the interval and the
        local coordinate of t in it."""
        return self.point(i, t, "right" if t == t0 else "left")

    def coordinate(self, i: int, j, ts):
        """The local coordinate (t - t_j) / (t_{j+1} - t_j) of each time on
        component i's interval j, one index or one per time."""
        bp = self.breakpoints[i] if isinstance(j, np.ndarray) else self._bp_lists[i]
        return (ts - bp[j]) / (bp[j + 1] - bp[j])

    def snap(self, i: int, ts: np.ndarray) -> np.ndarray:
        """The times with each one within SYNC_REL_TOL * T of a breakpoint of
        component i replaced by that breakpoint, the left neighbour first."""
        bp = self.breakpoints[i]
        tol = SYNC_REL_TOL * self.T
        idx = bp.searchsorted(ts)
        left = bp[np.maximum(idx - 1, 0)]
        right = bp[np.minimum(idx, len(bp) - 1)]
        return np.where(np.abs(left - ts) <= tol, left,
                        np.where(np.abs(right - ts) <= tol, right, ts))

    def synchronized_levels(self) -> np.ndarray:
        """Time levels that are breakpoints of every component (exact after
        construction merging); always contains 0 and T."""
        levels = self.breakpoints[0]
        for bp in self.breakpoints[1:]:
            levels = np.intersect1d(levels, bp)
        return levels

    def to_json_dict(self) -> dict:
        return {
            "T": float(self.T),
            "components": [
                {
                    "breakpoints": [float(t) for t in bp],
                    "orders": [int(q) for q in qs],
                }
                for bp, qs in zip(self.breakpoints, self.orders)
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Partition":
        comps = data["components"]
        return Partition(
            T=float(data["T"]),
            breakpoints=tuple(np.asarray(c["breakpoints"], dtype=float) for c in comps),
            orders=tuple(np.asarray(c["orders"], dtype=int) for c in comps),
        )


@dataclass(frozen=True)
class TimeSlab:
    """Intervals of all components between two synchronized levels.

    ``spans[i] = (lo, hi)`` is the half-open range of interval indices of
    component i lying inside (t_start, t_end].
    """

    index: int
    t_start: float
    t_end: float
    spans: tuple[tuple[int, int], ...]

    def intervals(self, i: int) -> range:
        lo, hi = self.spans[i]
        return range(lo, hi)


def _walk_steps(spec: StepSpec, T: float) -> np.ndarray:
    """Normalize one component's step spec to explicit breakpoints ending
    exactly at T.

    Constant steps divide [0, T] uniformly into round(T/k) intervals, so the
    realized step stays within ~10% of the request away from degenerate
    k ~ T cases.  For callables the walk shrinks or merges the final step to
    land exactly on T.  Explicit lists must already sum to T up to half a
    final step; the last breakpoint is then pinned to T.
    """
    if callable(spec):
        bps = [0.0]
        t = 0.0
        while True:
            k = float(spec(t))
            if not (k > 0.0 and np.isfinite(k)):
                raise PartitionError(f"nonpositive or non-finite step {k!r} at t={t!r}")
            remaining = T - t
            if remaining <= 1.5 * k:
                if remaining >= 0.5 * k or len(bps) == 1:
                    bps.append(T)
                else:
                    bps[-1] = T  # merge the sliver into the previous step
                break
            t += k
            bps.append(t)
            _check_intervals(len(bps) - 1, "step walk")
        return np.asarray(bps, dtype=float)

    if _is_scalar(spec):
        k = float(spec)
        if not (k > 0.0 and np.isfinite(k)):
            raise PartitionError(f"nonpositive or non-finite step {k!r}")
        # compare before rounding: T / k overflows to inf for subnormal k
        _check_intervals(T / k, f"constant step {k!r}")
        return np.linspace(0.0, T, max(1, round(T / k)) + 1)

    explicit = [float(k) for k in np.asarray(spec, dtype=float)]
    if not explicit:
        raise PartitionError("empty step list")
    bps = [0.0]
    for k in explicit:
        if not (k > 0.0 and np.isfinite(k)):
            raise PartitionError(f"nonpositive or non-finite step {k!r}")
        bps.append(bps[-1] + k)
    if abs(bps[-1] - T) > 0.5 * explicit[-1]:
        raise PartitionError(
            f"explicit steps sum to {bps[-1]!r}, too far from T={T!r}"
        )
    bps[-1] = T
    if bps[-1] - bps[-2] <= 0.0:
        raise PartitionError("explicit steps overshoot T")
    return np.asarray(bps, dtype=float)


def _normalize_orders(orders, counts: list[int], methods) -> list[np.ndarray]:
    """One int array of interval orders per component; raises PartitionError
    for an order that is not an integer (a bool, a float, a string) or lies
    outside [min_order, MAX_ORDER], checked before the int cast."""
    n_components = len(counts)
    orders = [orders] * n_components if _is_scalar(orders) else list(orders)
    if len(orders) != n_components:
        raise PartitionError(
            f"orders given for {len(orders)} components, expected {n_components}"
        )
    out = []
    for i, spec in enumerate(orders):
        arr = np.asarray(spec, dtype=object)
        if not all(_is_integer(q) for q in arr.flat):
            raise PartitionError(f"component {i}: orders must be integers, "
                                 f"got {spec!r}")
        lo = min_order(methods[i]) if methods is not None else 0
        if not all(lo <= q <= MAX_ORDER for q in arr.flat):
            raise PartitionError(
                f"component {i}: orders must lie in [{lo}, {MAX_ORDER}]")
        if arr.ndim == 0:
            arr = np.full(counts[i], arr.item())
        elif len(arr) != counts[i]:
            raise PartitionError(
                f"component {i}: {len(arr)} orders for {counts[i]} intervals"
            )
        out.append(arr.astype(int))
    return out


def _merge_close_levels(breakpoints: list[np.ndarray], T: float) -> None:
    """Snap breakpoints of different components that lie within the
    synchronization tolerance to one common value (in place)."""
    tol = SYNC_REL_TOL * T
    tagged = sorted(
        (float(bp[j]), i, j)
        for i, bp in enumerate(breakpoints)
        for j in range(len(bp))
    )
    cluster: list[tuple[float, int, int]] = []
    for item in tagged + [(np.inf, -1, -1)]:
        if cluster and item[0] - cluster[-1][0] > tol:
            if len({i for _, i, _ in cluster}) > 1:
                rep = cluster[0][0]
                for _, i, j in cluster:
                    breakpoints[i][j] = rep
            cluster = []
        cluster.append(item)


def build_partition(steps, orders, T: float, methods=None) -> Partition:
    """Construct a partition from per-component step and order specs.

    ``steps`` may be a single spec applied to every component or a sequence
    of per-component specs; each spec is a constant step, an explicit step
    list, or a callable t -> step.  ``orders`` broadcasts the same way.  When
    ``methods`` is given, interval orders are validated against the
    per-component scheme family.
    """
    if not (T > 0.0 and np.isfinite(T)):
        raise PartitionError(f"horizon must be positive and finite, got {T!r}")
    if methods is not None and not len(methods):
        raise PartitionError("no components: the method list is empty")
    # A scalar or callable spec broadcasts over components; a sequence is one
    # spec per component (a single component's explicit list is written
    # [[k1, k2, ...]]).
    if callable(steps) or _is_scalar(steps):
        n = len(methods) if methods is not None else 1
        per_component = [steps] * n
    else:
        per_component = list(steps)
        if not per_component:
            raise PartitionError("empty step spec")
        if methods is not None and len(per_component) != len(methods):
            raise PartitionError(
                f"{len(per_component)} step specs for {len(methods)} components"
            )

    breakpoints = [_walk_steps(spec, T) for spec in per_component]
    tol = SYNC_REL_TOL * T
    for i, bp in enumerate(breakpoints):
        if np.any(np.diff(bp) <= 2.0 * tol):
            raise PartitionError(
                f"component {i} has a step at or below the merge resolution"
            )
    _merge_close_levels(breakpoints, T)

    counts = [len(bp) - 1 for bp in breakpoints]
    return Partition(
        T=float(T),
        breakpoints=tuple(breakpoints),
        orders=tuple(_normalize_orders(orders, counts, methods)),
    )


def build_slabs(partition: Partition) -> tuple[TimeSlab, ...]:
    """Slabs between consecutive synchronized levels, in time order.

    Every interval of every component lands in exactly one slab, and the slab
    spans tile (0, T].
    """
    levels = partition.synchronized_levels()
    slabs = []
    for s, (t_a, t_b) in enumerate(zip(levels[:-1], levels[1:])):
        spans = []
        for i in range(partition.n_components):
            bp = partition.breakpoints[i]
            lo = bisect_left(bp, t_a)
            hi = bisect_left(bp, t_b)
            spans.append((lo, hi))
        slabs.append(TimeSlab(index=s, t_start=float(t_a), t_end=float(t_b),
                              spans=tuple(spans)))
    return tuple(slabs)
