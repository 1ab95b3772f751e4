"""Contract of the piecewise-polynomial evaluator.

The batched evaluator must reproduce, bit for bit, the per-interval loop it
replaced: locate each time's interval, group the times per interval, and
contract each group's coefficients with the Lagrange factors of that group
alone.  The estimator's rounding-level terms depend on those exact bits, so
every comparison here is ``np.array_equal``, not a tolerance.
"""

import copy
import dataclasses
import pickle
import sys

import numpy as np
import pytest

from mgode.dual import DualSpec, dual_partition_for, solve_dual
from mgode.models import model
from mgode.partition import Partition, build_partition, build_slabs
from mgode.controller import AdaptSettings, propose_steps
from mgode.estimator import (ErrorReport, ExplicitEstimates, GalerkinEstimates,
                             StabilityFactors, _integral_of_rhs, estimate,
                             explicit_estimates)
from mgode.solver import (OdeProblem, SolveSettings, Trajectory,
                          _build_work, _interval_groups, interval_residual,
                          residual_reader, solve)
from mgode.tableau import (MAX_ORDER, METHODS, integration_rule, lagrange_matrix,
                           lobatto_nodes, min_order, radau_nodes, tableau)


def lagrange_loop(nodes, x):
    """The factor-by-factor product formula for the cardinal functions."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    if n == 1:
        return np.ones((1, len(xs)))
    diff = xs[None, :] - nodes[:, None]
    denom = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(denom, 1.0)
    out = np.empty((n, len(xs)))
    idx = np.arange(n)
    for m in range(n):
        mask = idx != m
        out[m] = np.prod(diff[mask] / denom[m, mask][:, None], axis=0)
    return out


NODE_SETS = ([("lobatto", q, lobatto_nodes(q)) for q in range(1, MAX_ORDER + 1)]
             + [("radau", q, radau_nodes(q)) for q in range(0, MAX_ORDER + 1)])

# every node set a tableau reads a basis on
TABLEAU_NODE_SETS = [(f"{m}{q}-{attr}", getattr(tableau(m, q), attr))
                     for m in METHODS for q in range(min_order(m), MAX_ORDER + 1)
                     for attr in ("nodes", "test_nodes", "residual_zeros")]


class TestLagrangeMatrix:
    @pytest.mark.parametrize("kind,q,nodes", NODE_SETS,
                             ids=[f"{k}{q}" for k, q, _ in NODE_SETS])
    def test_bitwise_equal_to_loop_formula(self, kind, q, nodes):
        rng = np.random.default_rng(q)
        inside = rng.uniform(0.0, 1.0, 7)
        outside = np.array([-0.75, -1e-9, 1.0 + 1e-9, 1.5])
        for x in (inside, outside, nodes.copy(),
                  np.concatenate([nodes, inside, outside])):
            assert np.array_equal(lagrange_matrix(nodes, x), lagrange_loop(nodes, x))
        for x in (0.3, float(nodes[-1]), -0.2):
            assert np.array_equal(lagrange_matrix(nodes, x), lagrange_loop(nodes, x))

    @pytest.mark.parametrize("nodes", [n for _, n in TABLEAU_NODE_SETS],
                             ids=[name for name, _ in TABLEAU_NODE_SETS])
    def test_one_point_column_equal_to_loop_formula(self, nodes):
        # a float, a numpy float, a 0-d and a 1-element array all read one
        # column, made with the same roundings as the factor-by-factor loop
        inside = np.random.default_rng(len(nodes)).uniform(0.0, 1.0, 5)
        outside = [-0.75, -1e-9, 1.0 + 1e-9, 1.5]
        for x in [*inside, *nodes, 0.0, 1.0, *outside]:
            want = lagrange_loop(nodes, x)
            for arg in (float(x), np.float64(x), np.array(x), np.array([x])):
                got = lagrange_matrix(nodes, arg)
                assert got.shape == (len(nodes), 1) and got.dtype == np.float64
                assert np.array_equal(got, want), (x, type(arg))
        xs = np.concatenate([inside, nodes, [0.0, 1.0], outside])
        assert np.array_equal(lagrange_matrix(nodes, xs), lagrange_loop(nodes, xs))
        assert np.array_equal(lagrange_matrix(nodes, xs[:2]), lagrange_loop(nodes, xs[:2]))

    def test_one_node_basis_is_exactly_one(self):
        xs = np.array([-0.5, 0.0, 0.3, 0.7, 1.0, 1.5])
        assert np.array_equal(lagrange_matrix(np.array([0.3]), xs),
                              np.ones((1, len(xs))))

    def test_columns_independent_of_batch(self):
        nodes = lobatto_nodes(4)
        x = np.linspace(-0.1, 1.1, 23)
        L = lagrange_matrix(nodes, x)
        for p in range(len(x)):
            assert np.array_equal(L[:, p], lagrange_matrix(nodes, x[p])[:, 0])


# -- a multirate trajectory with mixed families and per-interval orders ---------

def _orders(n_intervals, base, lo):
    return [max(lo, base + (j % 3) - 1) for j in range(n_intervals)]


@pytest.fixture(scope="module")
def multirate():
    entry = model("harmonic")
    methods = ("mcG", "mdG", "mcG", "mdG")
    prob = entry.problem(T=1.0, methods=methods)
    steps = [0.25, 0.125, 0.0625, 0.25]
    orders = [_orders(round(1.0 / k), 2, 1 if m == "mcG" else 0)
              for k, m in zip(steps, methods)]
    part = build_partition(steps, orders, 1.0, methods=methods)
    traj = solve(prob, part, SolveSettings(tolerance=1e-13))
    return prob, traj


def _grouped_loop(traj, i, ts, j, fn):
    """Per-interval reference: one fn(i, jc, s) call per interval group."""
    out = np.empty(len(ts))
    for jc in np.unique(j):
        sel = j == jc
        t0, t1 = traj.partition.span(i, int(jc))
        out[sel] = fn(i, int(jc), (ts[sel] - t0) / (t1 - t0))
    return out


def _straddling_times(part):
    """Every breakpoint with points just before and after it, plus a few
    interior points, in unsorted order."""
    bp = np.unique(np.concatenate(part.breakpoints))
    pts = np.concatenate([bp, bp - 1e-3, bp + 1e-3, [0.3, 0.61, 0.07]])
    pts = pts[(pts >= 0.0) & (pts <= part.T)]
    return np.random.default_rng(5).permutation(pts)


class TestTrajectoryEvaluator:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_sample_states_matches_per_interval_loop(self, multirate, side):
        _, traj = multirate
        ts = _straddling_times(traj.partition)
        assert 0.0 in ts
        U = traj.sample_states(ts, side)
        for i in range(traj.dimension):
            bp = traj.partition.breakpoints[i]
            j = np.clip(np.searchsorted(bp, ts, side=side) - 1, 0,
                        traj.partition.n_intervals(i) - 1)
            ref = _grouped_loop(traj, i, ts, j, traj.interval_values)
            if side == "left":
                ref[ts == 0.0] = traj.u0[i]
            assert np.array_equal(U[i], ref)

    def test_cross_state_matches_per_interval_loop(self, multirate):
        # component 0's interval [0.25, 0.5] holds breakpoints of the three
        # others; s = m/16 puts times exactly on them.  The residual
        # reader's rhs sees the cross state: a recording rhs keeps it
        prob, traj = multirate
        seen = []

        def record(U, t):
            seen.append((U.copy(), t.copy()))
            return np.zeros_like(U)

        recorder = dataclasses.replace(prob, rhs=record, vectorized=True,
                                       dependencies=None)
        i, j = 0, 1
        s = np.linspace(0.0, 1.0, 17)
        residual_reader(traj, recorder, i, j).rhs(s)
        [(U, times)] = seen
        t0, t1 = traj.partition.span(i, j)
        assert np.array_equal(times, t0 + (t1 - t0) * s)
        assert np.array_equal(U[i], traj.interval_values(i, j, s))
        on_breakpoint = 0
        for c in range(traj.dimension):
            if c == i:
                continue
            bp = traj.partition.breakpoints[c]
            on_breakpoint += np.isin(times[1:-1], bp).sum()
            jl = np.searchsorted(bp, times, side="left") - 1
            j_right = np.searchsorted(bp, times, side="right") - 1
            jl = np.where(times == t0, j_right, jl)
            ref = _grouped_loop(traj, c, times, jl, traj.interval_values)
            assert np.array_equal(U[c], ref)
        assert on_breakpoint > 0

    def test_single_point_and_single_interval(self, multirate):
        _, traj = multirate
        for t in (0.5, 0.3125, 1e-3, 1.0):
            U = traj.sample_states(np.array([t]))
            assert np.array_equal(U[:, 0], traj.state(t))


class TestDualEvaluator:
    @pytest.fixture(scope="class")
    def dual(self, multirate):
        prob, traj = multirate
        spec = DualSpec(problem=prob, primal=traj, phi_T=np.full(4, 0.5))
        return solve_dual(spec, dual_partition_for(traj.partition),
                          SolveSettings(tolerance=1e-13))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_values_and_derivatives_match_per_interval_loop(self, dual, side):
        psi = dual.psi
        ts = _straddling_times(psi.partition)
        sigma = dual.T - ts
        flip = "right" if side == "left" else "left"
        for i in range(dual.dimension):
            bp = psi.partition.breakpoints[i]
            j = np.clip(np.searchsorted(bp, sigma, side=flip) - 1, 0,
                        psi.partition.n_intervals(i) - 1)
            ref = _grouped_loop(psi, i, sigma, j, psi.interval_values)
            assert np.array_equal(dual.values(i, ts, side), ref)
            for order in (1, 2):
                ref = _grouped_loop(
                    psi, i, sigma, j,
                    lambda c, jc, s: psi.interval_values(c, jc, s, order=order))
                assert np.array_equal(dual.values(i, ts, side, order),
                                      (-1.0) ** order * ref)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_scalar_accessors_match_single_interval_polynomial(self, dual, side):
        psi = dual.psi
        ts = np.concatenate([[0.0, dual.T], _straddling_times(psi.partition)[:12]])
        for i in range(dual.dimension):
            for t in ts:
                if t <= 0.0:
                    sigma, flip = dual.T, "left"
                elif t >= dual.T:
                    sigma, flip = 0.0, "right"
                else:
                    sigma, flip = dual.T - t, "right" if side == "left" else "left"
                j = psi.partition.interval_at(i, sigma, flip)
                s0, s1 = psi.partition.span(i, j)
                s = (sigma - s0) / (s1 - s0)
                assert dual.value(i, t, side) == psi.interval_values(i, j, s)[0]
                assert (dual.value(i, t, side, 1)
                        == -psi.interval_values(i, j, s, order=1)[0])


# -- the one f_i owner against the two bodies it replaced ---------------------

def seed_interval_residual(traj, problem, i, j, s):
    """The seed's residual body."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t0, t1 = traj.partition.span(i, j)
    times = t0 + (t1 - t0) * s
    L = traj._lagrange(i, j, s)
    du = traj._contract(i, j, L, 1)
    U = oracle_cross_state(traj, times, left_endpoint=t0)
    U[i] = traj._contract(i, j, L)
    F = problem.eval_rhs(U, times)
    return du - F[i]


def seed_integral_of_rhs(traj, problem, i, j, depth):
    """The seed's rhs integral body, with its own cross state and t0 pin."""
    t0, t1 = traj.partition.span(i, j)
    k = t1 - t0
    s, w = integration_rule(traj.methods[i], traj.order(i, j), depth)
    times = t0 + k * s
    if len(times) and s[0] == 0.0:
        times[0] = t0
    U = oracle_cross_state(traj, times, left_endpoint=t0)
    U[i] = traj.interval_values(i, j, s)
    F = problem.eval_rhs(U, times)
    return k * float(w @ F[i])


@pytest.fixture(scope="module")
def irregular():
    """Mixed families on non-dyadic breakpoints, where t0 + k s rounds, and
    a model whose f_i reads u_i (harmonic's does not)."""
    methods = ("mdG", "mcG", "mdG")
    prob = model("lorenz").problem(T=0.3, methods=methods)
    part = build_partition([0.03, 0.3 / 7, 0.05], [1, 2, 0], 0.3,
                           methods=methods)
    return prob, solve(prob, part, SolveSettings(tolerance=1e-13))


class TestIntervalRhs:
    @pytest.fixture(params=["multirate", "irregular"])
    def case(self, request):
        return request.getfixturevalue(request.param)

    @staticmethod
    def _local_points(part, i, j):
        """Both ends, interior points, and every other component's
        breakpoint inside the interval, in local coordinates."""
        t0, t1 = part.span(i, j)
        bp = np.unique(np.concatenate(part.breakpoints))
        inner = bp[(bp > t0) & (bp < t1)]
        return np.concatenate([[0.0, 1.0, 0.37, 0.5], (inner - t0) / (t1 - t0)])

    def test_residual_matches_seed_body(self, case):
        prob, traj = case
        part = traj.partition
        on_breakpoints = 0
        for i in range(traj.dimension):
            for j in range(part.n_intervals(i)):
                s = self._local_points(part, i, j)
                on_breakpoints += len(s) - 4
                assert np.array_equal(interval_residual(traj, prob, i, j, s),
                                      seed_interval_residual(traj, prob, i, j, s))
                for x in (0.0, 1.0, 0.25):
                    assert np.array_equal(interval_residual(traj, prob, i, j, x),
                                          seed_interval_residual(traj, prob, i, j, x))
        assert on_breakpoints > 0

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_integral_matches_seed_body(self, case, depth):
        prob, traj = case
        for i in range(traj.dimension):
            for j in range(traj.partition.n_intervals(i)):
                assert (_integral_of_rhs(traj, prob, i, j, depth)
                        == seed_integral_of_rhs(traj, prob, i, j, depth))

    def test_factors_are_the_interval_lagrange_matrix(self, multirate):
        # the residual is the derivative contraction of the interval's own
        # Lagrange factors minus the reader's rhs
        prob, traj = multirate
        s = np.array([0.0, 0.3, 1.0])
        f = residual_reader(traj, prob, 1, 3).rhs(s)
        assert f.shape == (3,)
        assert np.array_equal(interval_residual(traj, prob, 1, 3, s),
                              traj._contract(1, 3, traj._lagrange(1, 3, s), 1) - f)


# -- slab stencils against the per-point lookup they replaced -----------------

def _snap_time(t, bp, tol):
    """The breakpoint within tol of t, the left neighbour first, else t."""
    idx = np.searchsorted(bp, t)
    for cand in (idx - 1, idx):
        if 0 <= cand < len(bp) and abs(float(bp[cand]) - t) <= tol:
            return float(bp[cand])
    return t


STENCIL_METHODS = [("mcG", "mdG", "mcG", "mdG"), ("mdG", "mcG", "mdG", "mcG")]


def _stencil_groups(work, stencils, batches, n_comp):
    """Decode the stacked stencil tables into groups (positions, source work
    index, L) per (work index, component): the rows of each class read the
    source interval's nodal values and write a contiguous run of one
    component's row of one item's times in its rhs batch's input block."""
    by_at = {item.at: w for w, item in enumerate(work)}
    block_starts = n_comp * batches.cuts
    item_starts = np.cumsum([0] + [len(item.times) for item in work])
    groups = {}
    for st in stencils:
        for gather, L, scatter in zip(st.gather, st.L, st.scatter):
            src = by_at[int(gather[0])]
            assert np.array_equal(gather, work[src].at + np.arange(len(gather)))
            b = int(np.searchsorted(block_starts, scatter[0], "right")) - 1
            width = batches.cuts[b + 1] - batches.cuts[b]
            c, x = divmod(scatter - block_starts[b], width)
            assert (c == c[0]).all() and c[0] < n_comp
            x += batches.cuts[b]
            w = int(np.searchsorted(item_starts, x[0], "right")) - 1
            assert x[-1] < item_starts[w + 1]
            groups.setdefault((w, int(c[0])), []).append((x - item_starts[w], src, L))
    return groups


class TestSlabStencils:
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("methods", STENCIL_METHODS,
                             ids=["-".join(m) for m in STENCIL_METHODS])
    def test_match_per_point_lookup(self, methods, depth):
        self._check_per_point_lookup(methods, depth, columnwise=False)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("methods", STENCIL_METHODS,
                             ids=["-".join(m) for m in STENCIL_METHODS])
    def test_match_per_point_lookup_in_one_slab_batch(self, methods, depth):
        # a columnwise rhs takes the slab's inputs as one (N, sum P) block
        self._check_per_point_lookup(methods, depth, columnwise=True)

    @staticmethod
    def _check_per_point_lookup(methods, depth, columnwise):
        # The oracle works per point: snap within 1e-12 T, take the interval
        # starting there at the integrated interval's start and the one
        # ending at or after the time elsewhere, then map to local s.  At
        # T = 0.7 every case has quadrature times within rounding of another
        # component's breakpoint, so the snap is exercised.
        T = 0.7
        steps = [0.1, 0.1 / 3, 0.05, 0.025]
        orders = [_orders(round(T / k), 2, 1 if m == "mcG" else 0)
                  for k, m in zip(steps, methods)]
        part = build_partition(steps, orders, T, methods=methods)
        prob = OdeProblem(rhs=lambda u, t: -u, u0=np.ones(4), T=T, methods=methods,
                          vectorized=columnwise, columnwise=columnwise)
        settings = SolveSettings(quad_depth=depth)
        snapped = 0
        for slab in build_slabs(part):
            work, _, stencils, _, batches = _build_work(prob, part, slab,
                                                        settings, {})
            table = _stencil_groups(work, stencils, batches, part.n_components)
            for w, item in enumerate(work):
                P = len(item.times)
                for c in range(part.n_components):
                    js, ss = np.empty(P, dtype=int), np.empty(P)
                    for p, t in enumerate(item.times):
                        tt = _snap_time(float(t), part.breakpoints[c], 1e-12 * T)
                        snapped += tt != t
                        side = "right" if tt == item.t0 else "left"
                        js[p] = part.interval_at(c, tt, side)
                        tc0, tc1 = part.span(c, js[p])
                        ss[p] = (tt - tc0) / (tc1 - tc0)
                    groups = table[w, c]
                    cover = np.zeros(P, dtype=int)
                    for sel, widx, L in groups:
                        cover[sel] += 1
                        src = work[widx]
                        # an interval start names the interval of component c
                        assert all((src.i, src.t0) == (c, part.span(c, jc)[0])
                                   for jc in js[sel])
                        nodes = (lobatto_nodes if methods[src.i] == "mcG"
                                 else radau_nodes)(src.order)
                        assert np.array_equal(L, lagrange_matrix(nodes, ss[sel]))
                    assert np.array_equal(cover, np.ones(P, dtype=int))
                    # one group, hence one contraction, per source interval
                    assert len({widx for _, widx, _ in groups}) == len(groups)
        assert snapped > 0


# -- the one-time paths against the general evaluator they bypass -------------
#
# The oracles below are the bodies of Trajectory.evaluate, the cross state,
# the interval rhs and DualSolution._evaluate from before the one-time path:
# every call, whatever its number of times, went through the grouped
# evaluator.
# They locate with Partition.locate, the same rule the old Trajectory.locate
# applied.

def _oracle_groups(j):
    if len(j) == 1 or (len(j) and (j == j[0]).all()):
        return ((int(j[0]), slice(None)),)
    return ((int(jc), j == jc) for jc in np.unique(j))


def test_interval_groups_match_the_unique_form():
    # _interval_groups groups through a set of Python ints; the groups,
    # their order, their selectors and the ids' type are the np.unique
    # form's
    rng = np.random.default_rng(33)
    arrays = [np.empty(0, dtype=np.intp), np.array([4]), np.array([0]),
              np.array([3, 3, 3]), np.array([2, 0, 2, 1, 0]),
              np.array([5, 4, 3, 2, 1, 0])]
    for size in (2, 3, 7, 40, 200):
        for high in (1, 2, 5, 50):
            arrays.append(rng.integers(0, high, size))
            arrays.append(np.sort(rng.integers(0, high, size)))
    for j in arrays:
        got, expected = list(_interval_groups(j)), list(_oracle_groups(j))
        assert [jc for jc, _ in got] == [jc for jc, _ in expected]
        assert all(type(jc) is int for jc, _ in got)
        for (_, sel), (_, ref) in zip(got, expected):
            if isinstance(ref, slice):
                assert sel == ref
            else:
                assert sel.dtype == bool and np.array_equal(sel, ref)


def oracle_evaluate(traj, comps, ts, js, order=0):
    out = np.empty((len(comps), len(ts)))
    batches = {}
    for row, (c, j) in enumerate(zip(comps, js)):
        bp = traj.partition.breakpoints[c]
        for jc, sel in _oracle_groups(j):
            t0, t1 = float(bp[jc]), float(bp[jc + 1])
            s = (ts[sel] - t0) / (t1 - t0)
            key = (traj.methods[c], traj.order(c, jc))
            batches.setdefault(key, []).append((row, c, jc, sel, s))
    for (method, q), items in batches.items():
        L = lagrange_matrix(tableau(method, q).nodes,
                            np.concatenate([item[4] for item in items]))
        start = 0
        for row, c, jc, sel, s in items:
            stop = start + len(s)
            out[row, sel] = traj._contract(
                c, jc, np.ascontiguousarray(L[:, start:stop]), order)
            start = stop
    return out


def oracle_cross_state(traj, times, left_endpoint):
    comps = range(traj.dimension)
    js = [traj.partition.locate(c, times, "left") for c in comps]
    if left_endpoint is not None:
        at_left = times == left_endpoint
        if at_left.any():
            js = [np.where(at_left, traj.partition.locate(c, times, "right"), j)
                  for c, j in zip(comps, js)]
    return oracle_evaluate(traj, comps, times, js)


def oracle_interval_rhs(traj, problem, i, j, s):
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t0, t1 = traj.partition.span(i, j)
    times = t0 + (t1 - t0) * s
    L = traj._lagrange(i, j, s)
    U = oracle_cross_state(traj, times, left_endpoint=t0)
    U[i] = traj._contract(i, j, L)
    return problem.eval_rhs(U, times)[i], L


def oracle_dual_evaluate(dual, i, ts, order, side):
    sigma = dual.T - np.atleast_1d(np.asarray(ts, dtype=float))
    j = dual.psi.partition.locate(i, sigma, "right" if side == "left" else "left")
    return oracle_evaluate(dual.psi, (i,), sigma, (j,), order)[0]


ONE_TIME_METHODS = ("mcG", "mdG", "mcG", "mcG", "mdG", "mcG", "mdG", "mcG")


def _one_time_case(depth):
    """Kepler on a mixed-family multirate partition with per-interval orders
    and non-dyadic steps, solved at the given quadrature depth, and its dual
    on a twice refined partition.  On component 2's interval
    [0.325, 0.88], t0 + k * 1.0 rounds below t1."""
    T = 0.88
    prob = model("kepler_2body").problem(T=T, methods=ONE_TIME_METHODS)
    steps = [0.1, 0.06, [0.325, 0.555], T / 7, 0.05, 0.1, T / 9, 0.15]
    uniform = build_partition(steps, 1, T)
    orders = [_orders(uniform.n_intervals(i), 2, 1 if m == "mcG" else 0)
              for i, m in enumerate(ONE_TIME_METHODS)]
    part = build_partition(steps, orders, T, methods=ONE_TIME_METHODS)
    traj = solve(prob, part, SolveSettings(tolerance=1e-13, quad_depth=depth))
    spec = DualSpec(problem=prob, primal=traj, phi_T=np.full(8, 0.35))
    dual = solve_dual(spec, dual_partition_for(part, 1, 2),
                      SolveSettings(tolerance=1e-13))
    return prob, traj, dual


@pytest.fixture(scope="module", params=[0, 1, 2], ids=lambda d: f"depth{d}")
def one_time(request):
    return _one_time_case(request.param)


def _hit(t0, k, b):
    """A local coordinate s with t0 + k s == b exactly, or None."""
    s = (b - t0) / k
    for cand in (s, np.nextafter(s, 0.0), np.nextafter(s, 1.0)):
        if t0 + k * cand == b:
            return float(cand)
    return None


class TestOneTime:
    def test_interval_rhs_and_residual(self, one_time):
        prob, traj, _ = one_time
        part = traj.partition
        bp = np.unique(np.concatenate(part.breakpoints))
        inexact_end = on_breakpoint = 0
        for i in range(traj.dimension):
            for j in range(part.n_intervals(i)):
                t0, t1 = part.span(i, j)
                k = t1 - t0
                inexact_end += t0 + k * 1.0 != t1
                rule = integration_rule(traj.methods[i], traj.order(i, j),
                                        traj.settings.quad_depth)[0]
                hits = [_hit(t0, k, b) for b in bp[(bp > t0) & (bp < t1)]]
                hits = [s for s in hits if s is not None]
                on_breakpoint += len(hits)
                reader = residual_reader(traj, prob, i, j)
                for s in [0.0, 1.0, 0.37, *rule.tolist(), *hits]:
                    for x in (s, np.array([s])):
                        f = reader.rhs(x)
                        f_ref, L_ref = oracle_interval_rhs(traj, prob, i, j, x)
                        assert f.shape == (1,)
                        assert np.array_equal(f, f_ref)
                        expected = traj._contract(i, j, L_ref, 1) - f_ref
                        assert np.array_equal(
                            interval_residual(traj, prob, i, j, x), expected)
                    assert reader(float(s)) == expected[0]
        assert inexact_end > 0 and on_breakpoint > 0

    def test_dual_values_and_derivatives(self, one_time):
        _, traj, dual = one_time
        T = dual.T
        dual_bp = np.unique(np.concatenate(
            [T - b[::-1] for b in dual.psi.partition.breakpoints]))
        primal_bp = np.unique(np.concatenate(traj.partition.breakpoints))
        ts = np.concatenate([dual_bp, primal_bp, [-0.25, -1e-9, T + 1e-9,
                                                  T + 0.25, 0.123, 0.4567]])
        assert len(np.setdiff1d(dual_bp, primal_bp)) > 0
        for i in range(dual.dimension):
            for side in ("left", "right"):
                for t in ts:
                    for x in (float(t), np.array([t])):
                        assert np.array_equal(
                            dual.values(i, x, side),
                            oracle_dual_evaluate(dual, i, x, 0, side))
                        for order in range(4):
                            assert np.array_equal(
                                dual.values(i, x, side, order),
                                (-1.0) ** order
                                * oracle_dual_evaluate(dual, i, x, order, side))
                # the multi-point path is unchanged
                assert np.array_equal(dual.values(i, ts, side),
                                      oracle_dual_evaluate(dual, i, ts, 0, side))


def test_one_time_path_is_taken_and_traced(monkeypatch):
    # During an estimate every single-time residual request takes the
    # residual reader's one-point call, which calls no Trajectory.evaluate;
    # so only multi-point reads reach Trajectory.evaluate from the reader's
    # array read.  (A one-node rule at depth 0 would read one time there;
    # this case, at depth 1, has none.)  The dual's reads, of one time or
    # many, go through Trajectory.values.  The benchmark's
    # estimator.residual_calls, counted through the module attribute
    # mgode.estimator.interval_residual, must count every interval_residual
    # call; the reader's probes make none.
    from test_traced_names import load_tracing

    prob, traj, dual = _one_time_case(1)
    general = Trajectory.evaluate
    callers = []

    def spy(self, comps, ts, js, order=0):
        callers.append((sys._getframe(1).f_code.co_name, len(ts)))
        return general(self, comps, ts, js, order)

    code = interval_residual.__code__
    plain = 0

    def count(frame, event, arg):
        nonlocal plain
        if event == "call" and frame.f_code is code:
            plain += 1

    monkeypatch.setattr(Trajectory, "evaluate", spy)
    tracer = load_tracing().Tracer()
    sys.setprofile(count)
    try:
        tracer.traced("bench.estimate", lambda: estimate(prob, traj, dual))
    finally:
        sys.setprofile(None)

    assert ("_read", 1) not in callers
    assert {name for name, n in callers if n > 1} >= {"_read", "values"}
    assert ("values", 1) in callers
    assert plain > 0
    assert tracer.metrics()["estimator.residual_calls"] == plain


# -- the dependency pattern against the dense cross state ---------------------
#
# With OdeProblem.dependencies the residual locates and interpolates only
# the components f_i reads and fills the other rows with u0.  Every number
# must equal the dense evaluation's, bit for bit.

def _dense(prob):
    return dataclasses.replace(prob, dependencies=None)


def _pattern_points(traj, i, j):
    """Local coordinates 0, 1, an interior point, the interval's rule
    points and every other component's breakpoint that t0 + k s hits."""
    part = traj.partition
    t0, t1 = part.span(i, j)
    bp = np.unique(np.concatenate(part.breakpoints))
    hits = [_hit(t0, t1 - t0, b) for b in bp[(bp > t0) & (bp < t1)]]
    rule = integration_rule(traj.methods[i], traj.order(i, j),
                            traj.settings.quad_depth)[0]
    return [0.0, 1.0, 0.37, *rule.tolist(), *(s for s in hits if s is not None)]


def _assert_reports_equal(a, b, name="report"):
    """Every field of two estimator records, recursing into dataclasses,
    lists and tuples."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), name
        for field in dataclasses.fields(a):
            _assert_reports_equal(getattr(a, field.name),
                                  getattr(b, field.name), field.name)
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), name
        for x, y in zip(a, b):
            _assert_reports_equal(x, y, name)
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), name
    else:
        assert a == b, name


@pytest.fixture(scope="module")
def kepler_mixed():
    return _one_time_case(1)


@pytest.fixture(scope="module")
def harmonic_mixed(multirate):
    prob, traj = multirate
    spec = DualSpec(problem=prob, primal=traj, phi_T=np.full(4, 0.5))
    return prob, traj, solve_dual(spec, dual_partition_for(traj.partition),
                                  SolveSettings(tolerance=1e-13))


@pytest.fixture(scope="module")
def lorenz_mixed(irregular):
    prob, traj = irregular
    spec = DualSpec(problem=prob, primal=traj, phi_T=np.ones(3))
    return prob, traj, solve_dual(spec, dual_partition_for(traj.partition),
                                  SolveSettings(tolerance=1e-13))


class TestDependencyPattern:
    @pytest.fixture(params=["kepler_mixed", "harmonic_mixed", "lorenz_mixed"])
    def case(self, request):
        return request.getfixturevalue(request.param)

    def test_interval_rhs_and_residual_on_both_paths(self, case):
        prob, traj, _ = case
        dense = _dense(prob)
        assert prob.dependencies is not None
        part = traj.partition
        for i in range(traj.dimension):
            for j in range(part.n_intervals(i)):
                pts = _pattern_points(traj, i, j)
                reader = residual_reader(traj, prob, i, j)
                dense_reader = residual_reader(traj, dense, i, j)
                for x in (*pts, np.array(pts), np.array([0.0, 1.0])):
                    assert np.array_equal(reader.rhs(x), dense_reader.rhs(x))
                    assert np.array_equal(interval_residual(traj, prob, i, j, x),
                                          interval_residual(traj, dense, i, j, x))
                for x in pts:
                    assert reader(x) == dense_reader(x)

    def test_estimate_reports(self, case):
        prob, traj, dual = case
        _assert_reports_equal(estimate(prob, traj, dual),
                              estimate(_dense(prob), traj, dual))

    def test_only_dependencies_are_read(self, kepler_mixed, monkeypatch):
        # a pattern the evaluator silently ignored would pass the equality
        # tests above; here the reader's one-point call locates, and its
        # multi-point read evaluates, only the other components f_i reads
        prob, traj, _ = kepler_mixed
        point, evaluate = Partition.point, Trajectory.evaluate
        seen = []

        def spy_point(self, c, t, side):
            seen.append(c)
            return point(self, c, t, side)

        def spy_evaluate(self, comps, ts, js, order=0):
            seen.extend(comps)
            return evaluate(self, comps, ts, js, order)

        monkeypatch.setattr(Partition, "point", spy_point)
        monkeypatch.setattr(Trajectory, "evaluate", spy_evaluate)
        for p in (prob, _dense(prob)):
            for i in range(traj.dimension):
                reads = (set(p.dependencies[i]) if p.dependencies is not None
                         else set(range(traj.dimension))) - {i}
                reader = residual_reader(traj, p, i, 1)
                for read in (lambda: reader(0.3), lambda: reader.rhs(0.3),
                             lambda: reader.rhs(np.array([0.0, 0.3, 1.0]))):
                    seen.clear()
                    read()
                    assert set(seen) == reads
                    assert len(seen) == len(reads)


# -- a report is the explicit stage it completes --------------------------------

@pytest.fixture(scope="module")
def kepler_round():
    """A shortened first round of the acceptance #12 Kepler run: mcG(2) at
    k = 0.1 and quadrature depth 1, with the dual adapt solves."""
    prob = model("kepler_2body").problem(T=0.6, methods="mcG")
    part = build_partition(0.1, 2, 0.6, methods=prob.methods)
    settings = SolveSettings(tolerance=1e-11, quad_depth=1)
    traj = solve(prob, part, settings)
    spec = DualSpec(problem=prob, primal=traj, phi_T=np.full(8, 8 ** -0.5))
    return prob, traj, solve_dual(spec, dual_partition_for(part, 1), settings)


class TestReportExtendsTheStage:
    """``estimate`` completes the explicit stage into a report that is that
    stage without its payload: ``propose_steps`` reads it as it reads the
    stage, and ``estimate`` refuses it as a stage to complete."""

    @pytest.fixture(scope="class", params=["kepler_round", "harmonic_mixed"])
    def case(self, request):
        prob, traj, dual = request.getfixturevalue(request.param)
        stage = explicit_estimates(prob, traj, dual)
        return prob, traj, dual, stage, estimate(prob, traj, dual, stage)

    def test_a_report_is_a_stage(self, case):
        *_, stage, report = case
        assert isinstance(report, ExplicitEstimates)
        assert type(stage) is ExplicitEstimates

    def test_propose_steps_reads_a_report_as_its_stage(self, case):
        _, traj, _, stage, report = case
        settings = AdaptSettings(tol=1e-6, k_min=1e-6, k_max=0.5)
        got, want = propose_steps(report, settings), propose_steps(stage, settings)
        part = traj.partition
        for i in range(part.n_components):
            for j in range(part.n_intervals(i)):
                t = 0.5 * sum(part.span(i, j))
                assert np.float64(got[i](t)).tobytes() == np.float64(want[i](t)).tobytes()

    def test_a_report_is_refused_as_a_stage(self, case):
        prob, traj, dual, _, report = case
        assert report.payload is None
        with pytest.raises(ValueError, match="explicit stage"):
            estimate(prob, traj, dual, explicit=report)

    def test_a_report_pickles_without_its_inputs(self, case):
        # a report holds no payload, so it pickles whole
        *_, report = case
        dup = pickle.loads(pickle.dumps(report))
        _assert_reports_equal(dup, report)
        assert dup.to_json_dict() == report.to_json_dict()

    def test_a_stage_pickles_without_its_payload(self, case):
        prob, traj, dual, stage, _ = case
        for dup in (pickle.loads(pickle.dumps(stage)), copy.copy(stage),
                    copy.deepcopy(stage)):
            assert dup.payload is None and stage.payload is not None
            _assert_reports_equal(dup, dataclasses.replace(stage, payload=None))
            with pytest.raises(ValueError, match="explicit stage"):
                estimate(prob, traj, dual, explicit=dup)

    def test_a_stage_without_all_three_inputs_is_refused(self, case):
        # a stage's payload names the problem, trajectory and dual it read,
        # and nothing less may pass for them
        prob, traj, dual, stage, _ = case
        inputs, intervals = stage.payload
        for payload in (None, ((), intervals), (inputs[:2], intervals)):
            with pytest.raises(ValueError, match="explicit stage"):
                estimate(prob, traj, dual,
                         explicit=dataclasses.replace(stage, payload=payload))

    def test_no_record_redeclares_a_stage_field(self):
        stage = {f.name for f in dataclasses.fields(ExplicitEstimates)}
        for record in (GalerkinEstimates, StabilityFactors):
            assert not stage & {f.name for f in dataclasses.fields(record)}
        # the report inherits the stage's and the completion's fields and
        # declares only what neither holds
        completion = {f.name for f in dataclasses.fields(GalerkinEstimates)}
        assert not (stage | completion) & set(ErrorReport.__annotations__)
