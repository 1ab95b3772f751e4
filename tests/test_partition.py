import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgode.partition import (
    SYNC_REL_TOL,
    Partition,
    PartitionError,
    build_partition,
    build_slabs,
)


class TestBuildPartition:
    def test_constant_step_count(self):
        p = build_partition(0.1, 1, 1.0, methods=("mcG",))
        assert p.n_intervals(0) == 10
        assert p.breakpoints[0][0] == 0.0
        assert p.breakpoints[0][-1] == 1.0

    def test_two_components_synchronized_at_ends(self):
        p = build_partition([0.5, 1/3], 1, 1.0, methods=("mcG", "mcG"))
        assert p.n_intervals(0) == 2 and p.n_intervals(1) == 3
        np.testing.assert_array_equal(p.synchronized_levels(), [0.0, 1.0])

    def test_interior_synchronized_level(self):
        # oracle: intersection of the two breakpoint sets
        p = build_partition([0.5, 0.25], 1, 1.0, methods=("mcG", "mcG"))
        np.testing.assert_array_equal(p.synchronized_levels(), [0.0, 0.5, 1.0])

    def test_nonpositive_step_rejected(self):
        with pytest.raises(PartitionError):
            build_partition(-0.1, 1, 1.0, methods=("mcG",))

    @pytest.mark.parametrize("steps", [0.1, []], ids=["scalar", "list"])
    def test_zero_components_rejected(self, steps):
        with pytest.raises(PartitionError, match="no components"):
            build_partition(steps, 1, 1.0, methods=())

    def test_subnormal_step_rejected(self):
        # T / k overflows to inf and must not reach round()
        with pytest.raises(PartitionError, match="too many intervals"):
            build_partition(1e-320, 1, 1.0, methods=("mcG",))

    def test_order_out_of_range(self):
        with pytest.raises(PartitionError):
            build_partition(0.1, 0, 1.0, methods=("mcG",))
        with pytest.raises(PartitionError):
            build_partition(0.1, -1, 1.0, methods=("mdG",))

    def test_explicit_steps(self):
        p = build_partition([[0.2, 0.3, 0.5]], [2], 1.0, methods=("mcG",))
        np.testing.assert_allclose(p.breakpoints[0], [0.0, 0.2, 0.5, 1.0])

    def test_callable_steps_land_on_horizon(self):
        p = build_partition(lambda t: 0.13, 1, 1.0, methods=("mcG",))
        assert p.breakpoints[0][-1] == 1.0
        steps = p.steps(0)
        # all but the closing step stay at the request
        np.testing.assert_allclose(steps[:-1], 0.13, atol=1e-12)
        assert 0.5 * 0.13 <= steps[-1] <= 1.5 * 0.13

    def test_final_step_within_ten_percent_for_small_steps(self):
        p = build_partition(0.03, 1, 1.0, methods=("mcG",))
        steps = p.steps(0)
        assert np.all(np.abs(steps - 0.03) <= 0.1 * 0.03)

    def test_snapping_merges_close_levels(self):
        eps = 1e-14
        p = build_partition([[0.5, 0.5], [0.5 + eps, 0.5 - eps]], 1, 1.0,
                            methods=("mcG", "mcG"))
        levels = p.synchronized_levels()
        assert 0.5 in levels

    def test_orders_per_interval(self):
        p = build_partition([[0.5, 0.5]], [[1, 3]], 1.0, methods=("mcG",))
        np.testing.assert_array_equal(p.orders[0], [1, 3])

    # orders must be integers, as a config writes them, not floats
    # truncated to an order or bools taken as 0 and 1
    @pytest.mark.parametrize("orders", [
        1.5, 2.0, True, np.float64(2.0), [1.7, 2.2], [1, True], [[1, 2.0], 1],
        [np.array([True, False]), 1], ["1", 1], [None, 1]])
    def test_non_integer_orders_rejected(self, orders):
        with pytest.raises(PartitionError, match="orders must be integers"):
            build_partition([0.5, 0.5], orders, 1.0, methods=("mcG", "mcG"))

    @pytest.mark.parametrize("orders", [
        np.int64(2), [np.int16(1), 2], np.array([1, 2]),
        [np.array([1, 2], dtype=np.uint8), 3]])
    def test_numpy_integer_orders_taken(self, orders):
        p = build_partition([0.5, 0.5], orders, 1.0, methods=("mcG", "mcG"))
        assert all(qs.dtype == int for qs in p.orders)
        assert p.orders[1].tolist() in ([2, 2], [3, 3])

    @pytest.mark.parametrize("steps,orders,T,methods,message", [
        (lambda t: 0.0, 1, 1.0, None, "nonpositive or non-finite step 0.0 at t=0.0"),
        ([[]], 1, 1.0, None, "empty step list"),
        ([[0.3, 0.3]], 1, 1.0, None, "explicit steps sum to 0.6, too far from T=1.0"),
        # the tiny last step vanishes in the running sum
        ([[1.0, 1e-20]], 1, 1.0, None, "explicit steps overshoot T"),
        (0.1, [1, 2], 1.0, None, "orders given for 2 components, expected 1"),
        (0.1, [[1, 1, 1]], 1.0, None, "component 0: 3 orders for 10 intervals"),
        (0.1, 1, 0.0, None, "horizon must be positive and finite, got 0.0"),
        ([], 1, 1.0, None, "empty step spec"),
        ([0.1, 0.2], 1, 1.0, ("mcG",), "2 step specs for 1 components"),
        ([[1.0 - 1e-13, 1e-13]], 1, 1.0, None,
         "component 0 has a step at or below the merge resolution"),
    ], ids=["callable_step", "empty_list", "sum_off_horizon", "overshoot",
            "order_specs", "order_count", "horizon", "empty_spec", "spec_count",
            "merge_resolution"])
    def test_malformed_spec_names_the_fault(self, steps, orders, T, methods,
                                            message):
        with pytest.raises(PartitionError, match=re.escape(message)):
            build_partition(steps, orders, T, methods=methods)

    def test_callable_walk_merges_a_final_sliver(self):
        # from t = 0.6 the step 1.0 leaves 0.4 < 0.5 * 1.0: the sliver joins
        # the previous step instead of becoming its own interval
        p = build_partition(lambda t: 0.3 if t < 0.5 else 1.0, 1, 1.0)
        np.testing.assert_array_equal(p.breakpoints[0], [0.0, 0.3, 1.0])

    # an integer past int64 is out of range, not an OverflowError in the cast
    @pytest.mark.parametrize("steps,orders", [
        ([0.5], 2**70), ([0.5], [2**70]), ([0.5], -2**70),
        ([[0.5, 0.5]], [[1, 2**70]]), ([0.5], 13)],
        ids=["huge", "huge_listed", "huge_negative", "huge_per_interval",
             "above_max"])
    def test_out_of_range_orders_name_the_component(self, steps, orders):
        with pytest.raises(PartitionError,
                           match=r"component 0: orders must lie in \[0, 12\]"):
            build_partition(steps, orders, 1.0)


class TestIntervalAt:
    @pytest.fixture
    def part(self):
        return build_partition(0.25, 1, 1.0, methods=("mcG",))

    def test_breakpoint_left_is_closing_interval(self, part):
        assert part.interval_at(0, 0.5, "left") == 1

    def test_breakpoint_right_is_opening_interval(self, part):
        assert part.interval_at(0, 0.5, "right") == 2

    def test_zero_right(self, part):
        assert part.interval_at(0, 0.0, "right") == 0

    def test_errors(self, part):
        with pytest.raises(ValueError):
            part.interval_at(0, 1.0, "right")
        with pytest.raises(ValueError):
            part.interval_at(0, 0.0, "left")
        with pytest.raises(ValueError):
            part.interval_at(0, 1.5, "left")
        with pytest.raises(ValueError):
            part.interval_at(0, 0.5, "middle")

    @pytest.mark.parametrize("side", ["Left", "middle", None])
    def test_point_rejects_an_invalid_side(self, part, side):
        with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
            part.point(0, 0.5, side)

    # interval_at, point and locate are one rule: left-open right-closed
    # intervals, with side choosing the interval at a breakpoint

    @pytest.fixture
    def uneven(self):
        return build_partition([[0.1, 0.3, 0.05, 0.35, 0.2], 1.0 / 7], 1, 1.0,
                               methods=("mcG", "mdG"))

    @staticmethod
    def brute_force(bp, t, side):
        """The j with bp[j] < t <= bp[j+1] (left) or bp[j] <= t < bp[j+1]
        (right), by a scan over every interval; None when there is none."""
        for j in range(len(bp) - 1):
            a, b = bp[j], bp[j + 1]
            if (a < t <= b) if side == "left" else (a <= t < b):
                return j
        return None

    @staticmethod
    def _check_point(part, i, t, side, j):
        bp = part.breakpoints[i]
        got_j, s = part.point(i, t, side)
        assert got_j == j
        assert int(part.locate(i, np.array([t]), side)[0]) == j
        assert s == (t - bp[j]) / (bp[j + 1] - bp[j])

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_locators_agree_inside(self, uneven, side):
        for i in range(uneven.n_components):
            bp = uneven.breakpoints[i]
            M = uneven.n_intervals(i)
            ts = np.concatenate([bp, 0.5 * (bp[:-1] + bp[1:]),
                                 np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)])
            ts = ts[(ts >= 0.0) & (ts <= uneven.T)]
            located = uneven.locate(i, ts, side)
            for t, j_vec in zip(ts.tolist(), located.tolist()):
                ref = self.brute_force(bp, t, side)
                if ref is None:
                    # t = 0 from the left or T from the right: point and
                    # locate clamp to the end interval, interval_at raises
                    assert t == (0.0 if side == "left" else uneven.T)
                    ref = 0 if side == "left" else M - 1
                    with pytest.raises(ValueError):
                        uneven.interval_at(i, t, side)
                else:
                    assert uneven.interval_at(i, t, side) == ref
                assert j_vec == ref
                self._check_point(uneven, i, t, side, ref)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_outside_clamps_and_interval_at_raises(self, uneven, side):
        for i in range(uneven.n_components):
            last = uneven.n_intervals(i) - 1
            for t in (-0.5, -1e-12, 1.0 + 1e-12, 2.0):
                with pytest.raises(ValueError):
                    uneven.interval_at(i, t, side)
                self._check_point(uneven, i, t, side, 0 if t < 0.0 else last)


class TestReads:
    """``reads``, ``read`` and ``coordinate`` against the three formulations
    of the cross-read side rule they replaced, copied in as oracles."""

    @staticmethod
    def one_time_oracle(part, i, ts, t0s):
        # the residual reader's one-point call, one time at a time
        return np.array([part.point(i, t, "right" if t == t0 else "left")[0]
                         for t, t0 in zip(ts.tolist(), t0s.tolist())])

    @staticmethod
    def at_left_oracle(part, i, times, t0):
        # the residual reader's multi-point read
        js = part.locate(i, times, "left")
        at_left = times == t0
        if at_left.any():
            js = np.where(at_left, part.locate(i, times, "right"), js)
        return js

    @staticmethod
    def slab_oracle(part, i, tt, starts):
        # the slab solver's stencil build, after snapping
        return np.where(tt == starts, part.locate(i, tt, "right"),
                        part.locate(i, tt))

    @pytest.fixture
    def part(self):
        return build_partition([[0.1, 0.3, 0.05, 0.35, 0.2], 1.0 / 7, 0.03],
                               1, 1.0, methods=("mcG", "mdG", "mcG"))

    @staticmethod
    def random_times(part, rng, n=400):
        """Exact breakpoints, times within 1e-13 of one, times inside and
        outside [0, T], shuffled."""
        bp = np.concatenate(part.breakpoints)
        near = rng.choice(bp, n) + rng.uniform(-1e-13, 1e-13, n)
        ts = np.concatenate([bp, near, rng.uniform(0.0, part.T, n),
                             rng.uniform(-0.5, 0.0, 20),
                             rng.uniform(part.T, part.T + 0.5, 20)])
        return rng.permutation(ts)

    @pytest.mark.parametrize("seed", range(5))
    def test_reads_equal_the_three_oracles(self, part, seed):
        rng = np.random.default_rng(seed)
        ts = self.random_times(part, rng)
        bp = np.concatenate(part.breakpoints)
        starts = [
            float(rng.choice(bp)),                   # on a breakpoint
            float(rng.uniform(0.0, part.T)),         # off one
            np.where(rng.random(len(ts)) < 0.5, ts,  # one per time
                     rng.choice(bp, len(ts))),
        ]
        right_limits = 0
        for t0 in starts:
            t0s = np.broadcast_to(t0, ts.shape)
            for i in range(part.n_components):
                got = part.reads(i, ts, t0)
                right_limits += np.count_nonzero(got != part.locate(i, ts))
                assert got.dtype.kind == "i"
                assert np.array_equal(got, self.one_time_oracle(part, i, ts, t0s))
                assert np.array_equal(got, self.at_left_oracle(part, i, ts, t0))
                assert np.array_equal(got, self.slab_oracle(part, i, ts, t0))
        assert right_limits > 10

    @pytest.mark.parametrize("seed", range(3))
    def test_read_agrees_with_reads_and_coordinate(self, part, seed):
        rng = np.random.default_rng(seed)
        ts = self.random_times(part, rng)
        t0s = np.where(rng.random(len(ts)) < 0.5, ts,
                       rng.choice(np.concatenate(part.breakpoints), len(ts)))
        for i in range(part.n_components):
            bp = part.breakpoints[i]
            js = part.reads(i, ts, t0s)
            s = part.coordinate(i, js, ts)
            assert np.array_equal(s, (ts - bp[js]) / (bp[js + 1] - bp[js]))
            one = [part.read(i, t, t0) for t, t0 in zip(ts.tolist(), t0s.tolist())]
            assert np.array_equal([j for j, _ in one], js)
            assert np.array_equal([x for _, x in one], s)
            for t, j in zip(ts.tolist()[:50], js.tolist()[:50]):
                assert part.coordinate(i, j, t) == (t - bp[j]) / (bp[j + 1] - bp[j])


class TestSnap:
    # Partition(...) directly: build_partition would merge or reject
    # breakpoints this close, and its step sums are not the exact 0.15
    T = 2.0
    TOL = SYNC_REL_TOL * T

    @pytest.fixture
    def part(self):
        bps = (np.array([0.0, 0.1, 0.15, 0.3, self.T]),
               np.array([0.0, 0.5, 0.5 + self.TOL, self.T]))
        return Partition(T=self.T, breakpoints=bps,
                         orders=tuple(np.ones(len(bp) - 1, dtype=int) for bp in bps))

    def test_breakpoints_unchanged(self, part):
        # steps above twice the tolerance, as build_partition guarantees
        built = build_partition([0.1, 1 / 7], 1, self.T, methods=("mcG", "mdG"))
        for p, i in [(part, 0), (built, 0), (built, 1)]:
            bp = p.breakpoints[i]
            assert np.array_equal(p.snap(i, bp), bp)

    @pytest.mark.parametrize("b", [0.1, 0.15, 0.3])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_within_tolerance_snaps(self, part, b, sign):
        ts = np.array([b + sign * 0.9 * self.TOL, b + sign * 1.1 * self.TOL])
        got = part.snap(0, ts)
        assert got[0] == b
        assert got[1] == ts[1]

    def test_left_neighbour_wins(self, part):
        # 0.5 + TOL/2 lies within TOL of both 0.5 and 0.5 + TOL
        assert part.snap(1, np.array([0.5 + 0.5 * self.TOL]))[0] == 0.5
        # only the right one is in range
        t = 0.5 + 1.5 * self.TOL
        assert part.snap(1, np.array([t]))[0] == 0.5 + self.TOL

    def test_past_horizon_snaps_to_T(self, part):
        got = part.snap(0, np.array([self.T + 0.5 * self.TOL, -0.5 * self.TOL]))
        assert got.tolist() == [self.T, 0.0]

    def test_rounded_sum_snaps(self, part):
        t = 0.1 + 0.1 * 0.5
        assert t == 0.15000000000000002
        assert part.snap(0, np.array([t]))[0] == 0.15
        # component 1 has no breakpoint there
        assert part.snap(1, np.array([t]))[0] == t


class TestSlabs:
    def test_single_component_one_slab_per_interval(self):
        p = build_partition(0.25, 1, 1.0, methods=("mcG",))
        slabs = build_slabs(p)
        assert len(slabs) == 4
        assert [s.spans[0] for s in slabs] == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_two_to_one_ratio(self):
        # oracle: breakpoint intersection gives levels {0, 1/2, 1}
        p = build_partition([0.5, 0.25], 1, 1.0, methods=("mcG", "mcG"))
        slabs = build_slabs(p)
        assert len(slabs) == 2
        assert slabs[0].spans == ((0, 1), (0, 2))
        assert slabs[1].spans == ((1, 2), (2, 4))

    def test_incommensurate_steps_one_slab(self):
        p = build_partition([[np.sqrt(2)/2, 1 - np.sqrt(2)/2], [0.3, 0.3, 0.4]],
                            1, 1.0, methods=("mcG", "mcG"))
        slabs = build_slabs(p)
        assert len(slabs) == 1
        assert slabs[0].spans == ((0, 2), (0, 3))

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_membership_bijection(self, counts):
        # every interval of every component lands in exactly one slab
        steps = [1.0 / c for c in counts]
        p = build_partition(steps, 1, 1.0, methods=("mcG",) * len(counts))
        slabs = build_slabs(p)
        assert slabs[0].t_start == 0.0 and slabs[-1].t_end == 1.0
        for s0, s1 in zip(slabs[:-1], slabs[1:]):
            assert s0.t_end == s1.t_start
        for i in range(p.n_components):
            seen = []
            for slab in slabs:
                seen.extend(slab.intervals(i))
            assert seen == list(range(p.n_intervals(i)))

    def test_tiling_invariant(self):
        p = build_partition([0.1, 1/7, 0.25], 1, 1.0,
                            methods=("mcG",) * 3)
        for i in range(3):
            assert abs(p.steps(i).sum() - 1.0) <= 1e-12


class TestSerialization:
    def test_round_trip(self):
        p = build_partition([[0.5, 0.5], 0.25], [[1, 2], 3], 1.0,
                            methods=("mcG", "mdG"))
        blob = json.dumps(p.to_json_dict())
        q = Partition.from_json_dict(json.loads(blob))
        assert q.T == p.T
        for a, b in zip(q.breakpoints, p.breakpoints):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(q.orders, p.orders):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_non_finite_explicit_step_rejected(bad):
    # a NaN step used to become NaN breakpoints, an infinite one was cut to T
    with pytest.raises(PartitionError, match="non-finite"):
        build_partition([[0.5, bad, 0.5]], 1, 1.0, methods=("mcG",))
    with pytest.raises(PartitionError, match="non-finite"):
        build_partition([[bad]], 1, 1.0, methods=("mcG",))
