import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import mgode.tableau as tb
from mgode.models import model
from mgode.partition import build_partition, build_slabs
from mgode.solver import (
    ConvergenceFailure,
    NonFiniteRHS,
    OdeProblem,
    SolveReport,
    SolveSettings,
    SolverError,
    Trajectory,
    interval_residual,
    residual,
    residual_reader,
    solve,
    solve_slab,
)

from conftest import fit_slope, reference_single_rate

A2 = np.array([[-1.0, 2.0], [0.5, -3.0]])


def decay_problem(method="mcG"):
    return OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0,
                      jacobian=lambda u, t: np.array([[-1.0]]),
                      methods=method, vectorized=True)


def linear2_problem(method="mcG"):
    return OdeProblem(rhs=lambda u, t: A2 @ u, u0=[1.0, -0.5], T=1.0,
                      jacobian=lambda u, t: A2, methods=method,
                      vectorized=False)


def _problem3(dependencies):
    return OdeProblem(rhs=lambda u, t: -u, u0=np.ones(3), T=1.0,
                      dependencies=dependencies)


class TestDependencies:
    def test_normalised_with_the_own_component(self):
        prob = _problem3([[2, 1, 2], [], (np.int64(0), 2)])
        assert prob.dependencies == ((0, 1, 2), (1,), (0, 2))
        assert all(type(c) is int for entry in prob.dependencies for c in entry)
        prob.__post_init__()  # re-validation keeps the normalised form
        assert prob.dependencies == ((0, 1, 2), (1,), (0, 2))
        assert _problem3(None).dependencies is None
        assert _problem3(np.array([[1], [2], [0]])).dependencies == (
            (0, 1), (1, 2), (0, 2))

    @pytest.mark.parametrize("deps,message", [
        ([[0], [1]], "2 dependency lists for 3 components"),
        ([[0], [1], [3]], "outside [0, 3)"),
        ([[-1], [1], [2]], "outside [0, 3)"),
        ([[0], [1.0], [2]], "not a component index"),
        ([[0], [True], [2]], "not a component index"),
        ([[0], [np.bool_(True)], [2]], "not a component index"),
        ([[0], ["1"], [2]], "not a component index"),
        ([[0], 1, [2]], "one list of indices per component"),
        ([[0], "1", [2]], "not a component index"),
        (3, "one list of indices per component"),
        ("012", "not a component index"),
    ], ids=["short", "too_large", "negative", "float", "bool", "numpy_bool",
            "string_index", "bare_index", "string_entry", "scalar", "string"])
    def test_malformed_pattern_rejected(self, deps, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _problem3(deps)

    def test_u0_of_another_length_rejected(self):
        prob = _problem3([[1], [2], [0]])
        prob.u0 = np.ones(4)
        prob.methods = "mcG"
        with pytest.raises(ValueError, match="3 dependency lists for 4"):
            prob.__post_init__()


# Dependency patterns at and past the schema's edges: indices in and out of
# range, numpy integers, bools, floats, strings and None, as lists, tuples,
# arrays, bare scalars and strings, with one entry too few or too many; and
# well-formed patterns of in-range Python and numpy integers.
_ODD_INDEX = st.one_of(st.integers(-2, 5), st.booleans(), st.just(np.bool_(True)),
                       st.floats(), st.text(max_size=2), st.none())


@st.composite
def _dependency_cases(draw):
    n = draw(st.integers(1, 4))
    index = st.one_of(st.integers(0, n - 1), st.integers(0, n - 1).map(np.int64))
    valid = st.one_of(st.lists(index, max_size=5),
                      st.lists(index, max_size=5).map(tuple),
                      st.lists(st.integers(0, n - 1), max_size=4).map(np.array))
    odd = st.one_of(valid, st.lists(st.one_of(index, _ODD_INDEX), max_size=5),
                    _ODD_INDEX)
    deps = draw(st.one_of(
        st.none(), _ODD_INDEX,
        st.lists(valid, min_size=n, max_size=n),
        st.lists(odd, min_size=n - 1, max_size=n + 1),
        arrays(st.sampled_from([np.int64, np.float64, np.bool_]),
               array_shapes(min_dims=0, max_dims=3, max_side=4))))
    return n, deps


@settings(max_examples=300, deadline=None)
@given(case=_dependency_cases())
def test_fuzzed_dependencies_normalise_or_raise_value_error(case):
    n, deps = case
    try:
        prob = OdeProblem(rhs=lambda u, t: -u, u0=np.ones(n), T=1.0,
                          dependencies=deps)
    except ValueError:
        return
    if deps is None:
        assert prob.dependencies is None
        return
    assert len(prob.dependencies) == n
    for i, (got, given_entry) in enumerate(zip(prob.dependencies, deps)):
        assert all(type(c) is int and 0 <= c < n for c in got)
        assert list(got) == sorted({i, *(int(c) for c in given_entry)})


class TestBasicSolves:
    def test_zero_rhs_single_sweep(self):
        prob = OdeProblem(rhs=lambda u, t: 0.0 * u, u0=[2.0], T=1.0,
                          methods="mcG", vectorized=True)
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        traj = solve(prob, part)
        assert all(s.sweeps == 1 for s in traj.report.slabs)
        assert traj.value(0, 0.6) == 2.0

    def test_mdg0_matches_backward_euler_recursion(self):
        # oracle: xi_{n+1} = xi_n / 1.1 for step 0.1 on u' = -u
        prob = decay_problem("mdG")
        part = build_partition(0.1, 0, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14, max_sweeps=200))
        assert traj.end_state()[0] == pytest.approx((1 / 1.1) ** 10, abs=1e-13)

    def test_mcg1_decay_accuracy(self):
        prob = decay_problem()
        part = build_partition(0.01, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        assert traj.end_state()[0] == pytest.approx(np.exp(-1.0), abs=1e-5)

    def test_dimension_mismatch(self):
        prob = linear2_problem()
        part = build_partition(0.1, 1, 1.0, methods=("mcG",))
        with pytest.raises(ValueError):
            solve(prob, part)

    def test_horizon_mismatch(self):
        # a T = 2 partition would integrate a T = 1 problem up to t = 2
        prob = OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0)
        part = build_partition(0.1, 1, 2.0, methods=("mcG",))
        with pytest.raises(ValueError, match=re.escape(
                "partition horizon 2.0 != problem horizon 1.0")):
            solve(prob, part)

    def test_empty_u0_rejected(self):
        with pytest.raises(ValueError, match="u0 has no components"):
            OdeProblem(rhs=lambda u, t: u, u0=[], T=1.0)

    def test_nonfinite_rhs_aborts(self):
        prob = OdeProblem(rhs=lambda u, t: u / (0.5 - t), u0=[1.0], T=1.0,
                          methods="mcG", vectorized=False)
        part = build_partition(0.25, 1, 1.0, methods=prob.methods)
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            with pytest.raises(NonFiniteRHS):
                solve(prob, part)

    def test_nonfinite_rhs_names_the_first_interval_in_work_order(self):
        # In slab 0 (0, 0.1], component 2's interval (0.025, 0.05] goes
        # non-finite earlier in time than component 1's (0.05, 0.1]; the
        # error names component 1's, first in work order (component, then
        # interval), after the rhs of every interval in the slab has run.
        self._check_nonfinite_rhs(columnwise=False)

    def test_nonfinite_columnwise_rhs_names_the_same_interval(self):
        # the same slab in one rhs call
        self._check_nonfinite_rhs(columnwise=True)

    @staticmethod
    def _check_nonfinite_rhs(columnwise):
        calls = []

        def rhs(U, t):
            calls.append(t[0])
            F = -U
            F[1, t > 0.07] = np.nan
            F[2, (t > 0.03) & (t < 0.045)] = np.inf
            return F

        prob = OdeProblem(rhs=rhs, u0=[1.0, 0.5, -0.3], T=0.2,
                          methods=("mcG", "mdG", "mcG"), vectorized=True,
                          columnwise=columnwise)
        part = build_partition([0.1, 0.05, 0.025], 2, 0.2, methods=prob.methods)
        slab = build_slabs(part)[0]
        t0 = part.span(1, 1)[0]
        with pytest.raises(NonFiniteRHS) as err:
            solve(prob, part)
        assert str(err.value) == (f"non-finite right-hand side for component 1 "
                                  f"in slab {slab.index} near t={t0!r}")
        assert sum(hi - lo for lo, hi in slab.spans) == 7
        assert len(calls) == (1 if columnwise else 7)

    def test_nonconvergence_reported(self):
        # stiff decay with a huge step: the plain iteration diverges
        prob = OdeProblem(rhs=lambda u, t: -50.0 * u, u0=[1.0], T=1.0,
                          methods="mcG", vectorized=True)
        part = build_partition(1.0, 1, 1.0, methods=prob.methods)
        with pytest.raises(ConvergenceFailure) as err:
            solve(prob, part, SolveSettings(tolerance=1e-12, max_sweeps=30))
        assert err.value.report is not None
        assert not err.value.report.slabs[-1].converged


class TestSingleRateEquivalence:
    @pytest.mark.parametrize("method,q", [("mcG", 1), ("mcG", 2), ("mcG", 3),
                                          ("mdG", 0), ("mdG", 1), ("mdG", 2)])
    def test_matches_reference(self, method, q):
        prob = linear2_problem(method)
        n = 8
        part = build_partition(1.0 / n, q, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14, max_sweeps=400))
        ref = reference_single_rate(method, q, prob.rhs, prob.u0, 1.0, n)
        ends = np.array([
            [traj.coefficients(i, j)[-1] for i in range(2)]
            for j in range(n)
        ])
        np.testing.assert_allclose(ends, ref[1:], atol=1e-12)

    def test_merged_partition_slab_structure(self):
        # one slab holds one coarse and two fine intervals
        prob = linear2_problem()
        part = build_partition([0.5, 0.25], 2, 1.0, methods=prob.methods)
        slabs = build_slabs(part)
        assert slabs[0].spans == ((0, 1), (0, 2))
        traj = solve(prob, part, SolveSettings(tolerance=1e-14, max_sweeps=400))
        # both-fine single-rate run agrees with the reference at the end
        part_sr = build_partition(0.25, 2, 1.0, methods=prob.methods)
        traj_sr = solve(prob, part_sr, SolveSettings(tolerance=1e-14, max_sweeps=400))
        ref = reference_single_rate("mcG", 2, prob.rhs, prob.u0, 1.0, 4)
        np.testing.assert_allclose(traj_sr.end_state(), ref[-1], atol=1e-12)
        # and the multirate run is close at discretization-error level
        np.testing.assert_allclose(traj.end_state(), ref[-1], atol=1e-3)


class TestEval:
    def test_nodal_reproduction(self):
        prob = linear2_problem()
        part = build_partition(0.2, 3, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        for i in (0, 1):
            for j in (0, 2, 4):
                times = traj.node_times(i, j)
                vals = traj.coefficients(i, j)
                for t, v in zip(times[1:], vals[1:]):
                    got = traj.value(i, float(t), "left")
                    assert got == pytest.approx(v, rel=1e-14, abs=1e-300)

    def test_mcg1_midpoint_average(self):
        prob = decay_problem()
        part = build_partition(0.5, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        v0 = traj.coefficients(0, 0)[0]
        v1 = traj.coefficients(0, 0)[1]
        assert traj.value(0, 0.25) == pytest.approx(0.5 * (v0 + v1), abs=1e-14)

    def test_mcg_sides_agree_at_breakpoints(self):
        prob = decay_problem()
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        assert traj.value(0, 0.5, "left") == pytest.approx(
            traj.value(0, 0.5, "right"), abs=1e-14)

    def test_mdg_breakpoint_limits_differ_by_jump(self):
        prob = decay_problem("mdG")
        part = build_partition(0.25, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        t = 0.5
        left = traj.value(0, t, "left")
        right = traj.value(0, t, "right")
        assert right - left == pytest.approx(traj.jump(0, 2), abs=1e-15)
        assert abs(right - left) > 1e-8

    def test_outside_domain(self):
        prob = decay_problem()
        part = build_partition(0.25, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part)
        with pytest.raises(ValueError):
            traj.value(0, 1.5)

    def test_left_value_at_zero_is_u0(self):
        # an mdG polynomial starts at its right limit, not at u0
        prob = decay_problem("mdG")
        part = build_partition(0.25, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        assert traj.value(0, 0.0) == 1.0
        right = traj.value(0, 0.0, "right")
        assert right == traj.interval_values(0, 0, 0.0)[0] != 1.0


class TestRejectedInput:
    def test_method_tag_count(self):
        with pytest.raises(ValueError, match="3 method tags for 2 components"):
            OdeProblem(rhs=lambda u, t: -u, u0=[1.0, 2.0], T=1.0,
                       methods=("mcG", "mdG", "mcG"))

    def test_unknown_method_tag(self):
        with pytest.raises(ValueError, match="unknown method tag 'cG'"):
            OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0, methods="cG")

    def test_vectorized_rhs_of_the_wrong_shape(self):
        prob = OdeProblem(rhs=lambda u, t: np.zeros(3), u0=[1.0, 2.0], T=1.0,
                          vectorized=True)
        with pytest.raises(SolverError, match=re.escape(
                "vectorized rhs returned shape (3,), expected (2, 1)")):
            prob.eval_rhs(np.ones((2, 1)), np.zeros(1))

    def test_jump_index_outside_the_breakpoints(self):
        prob = decay_problem()
        traj = solve(prob, build_partition(0.25, 1, 1.0, methods=prob.methods))
        with pytest.raises(ValueError, match=re.escape(
                "breakpoint index 4 outside [0, 4)")):
            traj.jump(0, 4)

    def test_orders_below_the_method_minimum(self):
        # a partition built without methods admits order 0; an mcG solve
        # refuses it
        part = build_partition(0.25, 0, 1.0)
        with pytest.raises(ValueError, match="component 0: orders below "
                                             "minimum 1 for mcG"):
            solve(decay_problem("mcG"), part)


class TestDeterminism:
    def test_bitwise_identical_solves(self):
        prob = linear2_problem()
        part = build_partition([0.2, 0.1], 2, 1.0, methods=prob.methods)
        s = SolveSettings(tolerance=1e-12, max_sweeps=300)
        t1 = solve(prob, part, s)
        t2 = solve(prob, part, s)
        for i in range(2):
            for j in range(part.n_intervals(i)):
                assert np.array_equal(t1.coefficients(i, j),
                                      t2.coefficients(i, j))

    def test_mcg_continuity_bitwise(self):
        prob = linear2_problem()
        part = build_partition([0.2, 0.1], 2, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-12))
        for i in range(2):
            for j in range(1, part.n_intervals(i)):
                assert traj.coefficients(i, j)[0] == traj.coefficients(i, j - 1)[-1]


class TestResidual:
    def test_manufactured_zero_residual(self):
        # f depends on t only and lies in the test space: U reproduces u
        prob = OdeProblem(rhs=lambda u, t: np.atleast_1d(2.0 * t)[None, :]
                          if np.ndim(u) > 1 else np.array([2.0 * t]),
                          u0=[0.0], T=1.0, methods="mcG", vectorized=True)
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        for t in (0.1, 0.3, 0.6, 0.9):
            assert abs(residual(traj, prob, 0, t)) < 1e-12

    def test_mcg1_residual_linear_in_t(self):
        prob = decay_problem()
        part = build_partition(0.5, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        r = interval_residual(traj, prob, 0, 0, np.array([0.2, 0.5, 0.8]))
        # three points on a line: second difference vanishes
        assert r[0] - 2 * r[1] + r[2] == pytest.approx(0.0, abs=1e-12)

    def test_breakpoint_rejected(self):
        prob = decay_problem()
        part = build_partition(0.25, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part)
        with pytest.raises(ValueError):
            residual(traj, prob, 0, 0.5)

    @pytest.mark.parametrize("method,q", [("mcG", 2), ("mcG", 3), ("mdG", 1)])
    def test_galerkin_orthogonality(self, method, q):
        # linear same-step problem: the scheme quadrature is exact, so the
        # orthogonality holds to fixed-point tolerance times the step
        prob = linear2_problem(method)
        tol = 1e-12
        part = build_partition(0.1, q, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=tol))
        xg, wg = tb.gauss_rule_01(q + 3)
        worst = 0.0
        for i in (0, 1):
            for j in (0, 4, 9):
                k = part.step(i, j)
                r = interval_residual(traj, prob, i, j, xg)
                if method == "mcG":
                    degrees = range(q)
                    jmp = 0.0
                else:
                    degrees = range(q + 1)
                    jmp = traj.jump(i, j)
                for p in degrees:
                    v0 = 1.0 if p == 0 else 0.0
                    extra = jmp * v0 if method == "mdG" else 0.0
                    worst = max(worst, abs(extra + k * float(wg @ (r * xg**p))))
        assert worst <= 100 * tol * 0.1


def _reader_cases():
    """(name, problem, trajectory) on multirate partitions whose components
    break inside each other's intervals: kepler_2body and lorenz with their
    dependency patterns and dense, and a mixed mcG/mdG linear_system."""
    kepler = model("kepler_2body").problem(T=0.6)
    kepler_steps = [0.1, 0.07, [0.13, 0.05, 0.17, 0.25], 0.09, 0.05, 0.11, 0.6 / 7, 0.15]
    lorenz = model("lorenz").problem(T=0.2)
    mixed = model("linear_system").problem(methods=("mcG", "mdG"))
    built = [
        ("kepler_2body", kepler, kepler_steps, 2, SolveSettings(1e-12, quad_depth=1)),
        ("lorenz", lorenz, [0.03, 0.05, 0.07], [2, 3, 1], SolveSettings(1e-12)),
        ("linear_system", mixed, [[0.03] * 10 + [0.07] * 10, 0.1], [2, 1],
         SolveSettings(1e-13, quad_depth=1)),
    ]
    cases = []
    for name, prob, steps, orders, settings in built:
        part = build_partition(steps, orders, prob.T, methods=prob.methods)
        traj = solve(prob, part, settings)
        cases.append((name, prob, traj))
        if prob.dependencies is not None:
            cases.append((name + "-dense",
                          dataclasses.replace(prob, dependencies=None), traj))
    return cases


@pytest.fixture(scope="module", params=_reader_cases(), ids=lambda c: c[0])
def reader_case(request):
    return request.param[1:]


def _old_one_point_residual(traj, problem, i, j, s):
    """The one-point residual read that residual_reader replaced:
    Trajectory.cross_state's single-time path (a u0 column, every other
    component located by Partition.read) and the derivative contraction of
    row i."""
    comps = (range(traj.dimension) if problem.dependencies is None
             else problem.dependencies[i])
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t0, t1 = traj.partition.span(i, j)
    times = t0 + (t1 - t0) * s
    L = traj._lagrange(i, j, s)
    t = float(times[0])
    U = traj.u0[:, None].copy()
    for c in comps:
        if c != i:
            U[c] = traj.interval_values(c, *traj.partition.read(c, t, t0))
    U[i] = traj._contract(i, j, L)
    f = problem.eval_rhs(U, times)[i]
    return float((traj._contract(i, j, L, 1) - f)[0])


def _reader_points(traj, i, j, rng):
    """Seeded local coordinates, 0.0 and 1.0, and for every other
    component's breakpoint inside the interval the coordinate that lands on
    it and the coordinates one ulp either side."""
    part = traj.partition
    t0, t1 = part.span(i, j)
    k = t1 - t0
    points = [0.0, 1.0, *rng.uniform(0.0, 1.0, 6).tolist()]
    bp = np.unique(np.concatenate(part.breakpoints))
    for b in bp[(bp > t0) & (bp < t1)].tolist():
        s = (b - t0) / k
        s = min((s, np.nextafter(s, 0.0), np.nextafter(s, 1.0)),
                key=lambda x: abs(t0 + k * x - b))
        points += [float(s), float(np.nextafter(s, 0.0)),
                   float(np.nextafter(s, 1.0))]
    return points


class TestResidualReader:
    def test_equal_to_the_old_one_point_read(self, reader_case):
        prob, traj = reader_case
        rng = np.random.default_rng(31)
        part = traj.partition
        crossings = 0
        for i in range(traj.dimension):
            for j in range(part.n_intervals(i)):
                R_at = residual_reader(traj, prob, i, j)
                points = _reader_points(traj, i, j, rng)
                crossings += len(points) - 8
                for s in points:
                    expected = _old_one_point_residual(traj, prob, i, j, s)
                    got = R_at(s)
                    assert type(got) is float
                    assert got == expected, (i, j, s)
                    assert np.array_equal(
                        interval_residual(traj, prob, i, j, s), [expected])
        assert crossings > 0

    def test_eg_point_equal_to_its_product_at_one_point(self, monkeypatch):
        # explicit_estimates and eg_residual_zero hand integrate_splitting a
        # one-point reader; each must equal fn at that point, bit for bit
        import mgode.estimator as est
        from mgode.dual import DualSpec, dual_partition_for, solve_dual

        rng = np.random.default_rng(32)
        for name, prob, traj in _reader_cases()[::2]:
            spec = DualSpec(problem=prob, primal=traj,
                            phi_T=np.full(prob.dimension, 0.35))
            dual = solve_dual(spec, dual_partition_for(traj.partition, 1, 2),
                              SolveSettings(tolerance=1e-13))
            # each stage reads one reader per interval, in (i, j) order
            order = [(i, j) for i in range(traj.dimension)
                     for j in range(traj.partition.n_intervals(i))]
            seen = []
            split = est.integrate_splitting

            def recording(fn, a, b, *, point=None, **kwargs):
                if point is not None:
                    i, j = order[len(seen) % len(order)]
                    for s in _reader_points(traj, i, j, rng):
                        assert point(s) == float(fn(np.array([s]))[0]), (name, i, j, s)
                    seen.append((i, j))
                return split(fn, a, b, point=point, **kwargs)

            monkeypatch.setattr(est, "integrate_splitting", recording)
            est.estimate(prob, traj, dual)
            monkeypatch.undo()
            assert len(seen) == 2 * len(order)


class TestJump:
    def test_mcg_jump_zero(self):
        # exactly 0.0 at every breakpoint of every mcG component, also beside
        # an mdG component on a multirate partition
        prob = decay_problem()
        trajs = [solve(prob, build_partition(0.25, 1, 1.0, methods=prob.methods))]
        prob = model("linear_system").problem(methods=("mcG", "mdG"))
        part = build_partition([[0.03] * 10 + [0.07] * 10, [0.1] * 10], [2, 1],
                               prob.T, methods=prob.methods)
        trajs.append(solve(prob, part,
                           SolveSettings(tolerance=1e-13, quad_depth=1)))
        for traj in trajs:
            for i in range(traj.dimension):
                if traj.methods[i] == "mcG":
                    assert all(traj.jump(i, j) == 0.0
                               for j in range(traj.partition.n_intervals(i)))

    def test_mdg0_jump_closed_form(self):
        # oracle: one-step recursion xi_{n+1} = xi_n / 1.1
        prob = decay_problem("mdG")
        part = build_partition(0.1, 0, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        xs = (1 / 1.1) ** np.arange(11)
        for j in range(1, 10):
            assert traj.jump(0, j) == pytest.approx(xs[j + 1] - xs[j], abs=1e-12)

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_jump_decay_rate(self, q):
        # jumps shrink like 2^(q+1) under step halving on a smooth problem
        def rhs(u, t):
            return -u + np.cos(t)

        maxima = []
        for k in (0.05, 0.025):
            prob = OdeProblem(rhs=rhs, u0=[1.0], T=1.0, methods="mdG",
                              vectorized=True)
            part = build_partition(k, q, 1.0, methods=prob.methods)
            traj = solve(prob, part, SolveSettings(tolerance=1e-14, quad_depth=2))
            maxima.append(max(abs(traj.jump(0, j))
                              for j in range(2, part.n_intervals(0))))
        ratio = maxima[0] / maxima[1]
        assert 2 ** (q + 1) * 0.7 <= ratio <= 2 ** (q + 1) * 1.3


class TestConvergenceOrders:
    @pytest.mark.parametrize("method,q", [("mcG", 1), ("mcG", 2), ("mcG", 3),
                                          ("mdG", 0), ("mdG", 1), ("mdG", 2)])
    def test_order(self, method, q):
        # u' = -u + cos t; exact u = e^{-t}/2 + (cos t + sin t)/2
        def rhs(u, t):
            return -u + np.cos(t)

        def exact(t):
            return 0.5 * np.exp(-t) + 0.5 * (np.cos(t) + np.sin(t))

        errs, ks = [], []
        for r in range(4):
            k = 0.2 / 2**r
            prob = OdeProblem(rhs=rhs, u0=[1.0], T=1.0, methods=method,
                              vectorized=True)
            part = build_partition(k, q, 1.0, methods=prob.methods)
            traj = solve(prob, part,
                         SolveSettings(tolerance=1e-14, max_sweeps=400,
                                       quad_depth=2))
            errs.append(abs(traj.end_state()[0] - exact(1.0)))
            ks.append(k)
        slope = fit_slope(ks, errs)
        expected = 2 * q if method == "mcG" else 2 * q + 1
        assert abs(slope - expected) <= 0.2


class TestEnergyAndMonotonicity:
    def test_energy_conservation_multirate_pairs(self):
        # two uncoupled oscillators with paired position/velocity steps
        def rhs(u, t):
            return np.stack([u[2], u[3], -u[0], -4.0 * u[1]])

        def energy(u):
            return 0.5 * (u[2]**2 + u[3]**2) + 0.5 * (u[0]**2 + 4.0 * u[1]**2)

        prob = OdeProblem(rhs=rhs, u0=[1.0, 1.0, 0.0, 0.0], T=10.0,
                          methods="mcG", vectorized=True)
        part = build_partition([0.1, 0.05, 0.1, 0.05], 2, 10.0,
                               methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-12, max_sweeps=500,
                                               quad_depth=3))
        E0 = energy(prob.u0)
        for t in part.synchronized_levels()[1:]:
            assert abs(energy(traj.state(float(t), "left")) - E0) <= \
                10 * 1e-12 * part.total_intervals

    def test_monotone_contraction(self):
        from mgode.models import model

        entry = model("monotone_gradient")
        prob1 = entry.problem(T=2.0, methods="mdG")
        prob2 = entry.problem(T=2.0, u0=entry.u0 + np.array([0.4, -0.3, 0.2]),
                              methods="mdG")
        part = build_partition([0.1, 0.05, 0.2], 1, 2.0, methods=prob1.methods)
        s = SolveSettings(tolerance=1e-12, max_sweeps=400)
        t1 = solve(prob1, part, s)
        t2 = solve(prob2, part, s)
        d_prev = np.linalg.norm(prob1.u0 - prob2.u0)
        for t in part.synchronized_levels()[1:]:
            d = np.linalg.norm(t1.state(float(t), "left")
                               - t2.state(float(t), "left"))
            assert d <= d_prev + 1e-10
            d_prev = d


class TestMixedMethods:
    def test_mixed_families_converge(self):
        import scipy.linalg as sla

        prob = OdeProblem(rhs=lambda u, t: A2 @ u, u0=[1.0, -0.5], T=1.0,
                          jacobian=lambda u, t: A2, methods=("mcG", "mdG"))
        part = build_partition([0.05, 0.025], [2, 1], 1.0,
                               methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        exact = sla.expm(A2) @ prob.u0
        np.testing.assert_allclose(traj.end_state(), exact, atol=1e-4)
        # the discontinuous component has genuine jumps, the continuous none
        assert traj.jump(0, 3) == 0.0
        assert any(abs(traj.jump(1, j)) > 0 for j in range(1, 10))

    def test_two_decay_copies_contract(self):
        # monotone scalar dynamics duplicated at different rates: distances
        # between two starts are nonincreasing at synchronized levels
        def rhs(u, t):
            return -u

        part = build_partition([0.1, 0.25], 1, 1.0, methods=("mdG", "mdG"))
        s = SolveSettings(tolerance=1e-13)
        p1 = OdeProblem(rhs=rhs, u0=[1.0, -0.5], T=1.0, methods="mdG",
                        vectorized=True)
        p2 = OdeProblem(rhs=rhs, u0=[0.2, 0.7], T=1.0, methods="mdG",
                        vectorized=True)
        t1 = solve(p1, part, s)
        t2 = solve(p2, part, s)
        d_prev = np.linalg.norm(p1.u0 - p2.u0)
        for t in part.synchronized_levels()[1:]:
            d = np.linalg.norm(t1.state(float(t), "left")
                               - t2.state(float(t), "left"))
            assert d <= d_prev + 1e-10
            d_prev = d


class TestColumnwise:
    @pytest.mark.parametrize("value,message", [
        (1, "columnwise must be a bool, got 1"),
        (np.bool_(True), "columnwise must be a bool, got np.True_"),
        ("yes", "columnwise must be a bool, got 'yes'"),
        (None, "columnwise must be a bool, got None"),
    ])
    def test_declaration_must_be_a_bool(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0, vectorized=True,
                       columnwise=value)

    def test_declaration_requires_a_vectorized_rhs(self):
        # a per-point rhs gets strided U[:, p] views, which BLAS may round
        # by their stride
        with pytest.raises(ValueError,
                           match=r"^columnwise=True requires vectorized=True$"):
            OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0, columnwise=True)
        assert not OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0).columnwise

    @pytest.mark.parametrize("name,steps,orders,methods", [
        # the fast inner orbit at a quarter of the outer one's step
        ("kepler_2body", [0.05] * 2 + [0.2] * 2 + [0.05] * 2 + [0.2] * 2,
         2, "mcG"),
        ("lorenz", [0.01, 0.03, 0.02], [2, 1, 3], ("mcG", "mdG", "mcG")),
    ])
    @pytest.mark.parametrize("depth", [0, 1])
    def test_one_call_per_sweep_keeps_every_bit(self, name, steps, orders,
                                                methods, depth):
        # the whole slab in one rhs call gives the coefficients and reports
        # of one call per interval, bit for bit
        declared = model(name).problem(T=0.6, methods=methods)
        assert declared.columnwise
        undeclared = dataclasses.replace(declared, columnwise=False)
        part = build_partition(steps, orders, 0.6, methods=declared.methods)
        settings = SolveSettings(tolerance=1e-12, quad_depth=depth)
        a, b = solve(declared, part, settings), solve(undeclared, part, settings)
        assert a.report == b.report
        for i in range(declared.dimension):
            for j in range(part.n_intervals(i)):
                assert np.array_equal(a.coefficients(i, j), b.coefficients(i, j))


class TestHeterogeneousOrders:
    def test_orders_may_vary_per_interval(self):
        prob = decay_problem()
        part = build_partition([[0.25, 0.25, 0.25, 0.25]], [[1, 2, 3, 2]],
                               1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        assert traj.coefficients(0, 0).shape == (2,)
        assert traj.coefficients(0, 2).shape == (4,)
        # accuracy limited by the lowest-order piece
        assert abs(traj.end_state()[0] - np.exp(-1.0)) < 1e-3

    def test_estimates_with_varying_orders(self):
        from mgode.dual import DualSpec, dual_partition_for, solve_dual
        from mgode.estimator import estimate

        prob = decay_problem()
        part = build_partition([[0.25, 0.25, 0.25, 0.25]], [[1, 2, 2, 1]],
                               1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0]),
                          dual_partition_for(part, 1),
                          SolveSettings(tolerance=1e-13))
        e0, e1, e2, e3, e4, e5 = estimate(prob, traj, dual).chain
        assert e0 <= e1 + 1e-10 and e1 <= e2 + 1e-10 and e2 <= e3 + 1e-10
        assert e3 <= e4 + 1e-10 and e2 <= e5 + 1e-10


class TestDyadicDepthConsistency:
    def test_exact_quadrature_invariant_under_refinement(self):
        # linear same-step problems are integrated exactly at depth 0, so
        # deeper composite rules must reproduce the same trajectory
        prob = linear2_problem()
        part = build_partition(0.125, 2, 1.0, methods=prob.methods)
        t0 = solve(prob, part, SolveSettings(tolerance=1e-14, quad_depth=0))
        t2 = solve(prob, part, SolveSettings(tolerance=1e-14, quad_depth=2))
        for i in (0, 1):
            for j in range(part.n_intervals(i)):
                np.testing.assert_allclose(t0.coefficients(i, j),
                                           t2.coefficients(i, j), atol=1e-13)


class TestDamping:
    def test_damping_rescues_marginal_iteration(self):
        # lambda k = -2 makes the plain sweep a 2-cycle; damping 0.5 kills it
        prob = OdeProblem(rhs=lambda u, t: -50.0 * u, u0=[1.0], T=0.4,
                          methods="mcG", vectorized=True)
        part = build_partition(0.04, 1, 0.4, methods=prob.methods)
        with pytest.raises(ConvergenceFailure) as err:
            solve(prob, part, SolveSettings(tolerance=1e-12, max_sweeps=100,
                                            damping=1.0))
        # the 2-cycle's increments stay constant: no early stop
        assert err.value.report.slabs[-1].sweeps == 100
        traj = solve(prob, part, SolveSettings(tolerance=1e-12, max_sweeps=200,
                                               damping=0.5))
        # trapezoid amplification at lambda k = -2 is exactly zero
        assert traj.end_state()[0] == 0.0

    def test_tiny_damping_does_not_accept_an_unsolved_slab(self):
        # damping 1e-300 rounds every update away, so the state keeps its
        # initial value and the damped increment is 1e-301: above damping *
        # tolerance, and the unchanged state ends the slab after one sweep
        prob = OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0,
                          methods="mcG", vectorized=True)
        part = build_partition(0.1, 1, 1.0, methods=prob.methods)
        with pytest.raises(ConvergenceFailure) as err:
            solve(prob, part, SolveSettings(damping=1e-300))
        slab = err.value.report.slabs[-1]
        assert slab.index == 0 and slab.sweeps == 1 and not slab.converged
        assert "threshold damping * tolerance = 1.000e-310" in str(err.value)

    def test_diverging_slab_stops_early(self):
        # lambda k = -5: the increments grow 5.0, 12.5, ... by 2.5 per sweep
        # and pass 1e4 times the first one at sweep 12
        prob = OdeProblem(rhs=lambda u, t: -50.0 * u, u0=[1.0], T=0.3,
                          methods="mcG", vectorized=True)
        part = build_partition(0.1, 1, 0.3, methods=prob.methods)
        with pytest.raises(ConvergenceFailure) as err:
            solve(prob, part, SolveSettings(tolerance=1e-12))
        slab = err.value.report.slabs[-1]
        assert len(err.value.report.slabs) == 1
        assert not slab.converged
        assert 10 < slab.sweeps <= 12
        assert slab.final_increment > 1e4 * 5.0
        message = str(err.value)
        assert "component 0" in message
        assert f"sweep {slab.sweeps}" in message and "slab 0" in message

    def test_divergence_report_keeps_earlier_slabs(self):
        # component 1 turns stiff after t = 0.3; the slabs before it converge
        def rhs(u, t):
            return np.array([-u[0], (-50.0 if t > 0.3 else -1.0) * u[1]])
        prob = OdeProblem(rhs=rhs, u0=[1.0, 1.0], T=0.6, methods="mcG")
        part = build_partition(0.1, 1, 0.6, methods=prob.methods)
        with pytest.raises(ConvergenceFailure) as err:
            solve(prob, part, SolveSettings(tolerance=1e-12))
        slabs = err.value.report.slabs
        assert [s.converged for s in slabs] == [True] * (len(slabs) - 1) + [False]
        assert len(slabs) == 4
        assert "component 1" in str(err.value)

    def test_nonfinite_increment_stops_at_once(self):
        # a finite rhs whose update k * f overflows
        prob = OdeProblem(rhs=lambda u, t: 1e308 + 0.0 * u, u0=[1.0], T=4.0,
                          methods="mdG", vectorized=True)
        part = build_partition(4.0, 0, 4.0, methods=prob.methods)
        with pytest.raises(ConvergenceFailure) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            solve(prob, part, SolveSettings(tolerance=1e-12))
        assert err.value.report.slabs[-1].sweeps == 1


class TestSolveSlabDriver:
    def test_manual_slab_driving_matches_solve(self):
        prob = linear2_problem()
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        settings = SolveSettings(tolerance=1e-13, max_sweeps=300)
        coeffs, reports = [[], []], []
        for slab in build_slabs(part):
            new, report = solve_slab(prob, part, slab, coeffs, settings, {})
            assert report.converged
            reports.append(report)
            for i in range(2):
                coeffs[i].extend(new[i])
        manual = Trajectory(part, prob.methods, prob.u0, coeffs,
                            SolveReport(slabs=tuple(reports)), settings=settings)
        auto = solve(prob, part, settings)
        assert manual.report == auto.report
        for i in range(2):
            for j in range(part.n_intervals(i)):
                np.testing.assert_array_equal(manual.coefficients(i, j),
                                              auto.coefficients(i, j))

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolveSettings(tolerance=0.0)
        with pytest.raises(ValueError):
            SolveSettings(damping=1.5)
        with pytest.raises(ValueError):
            SolveSettings(max_sweeps=0)
        with pytest.raises(ValueError):
            SolveSettings(quad_depth=-1)
        # the estimator integrates one level finer than the solver
        SolveSettings(quad_depth=tb.MAX_QUAD_DEPTH - 1)
        with pytest.raises(ValueError, match="quad_depth"):
            SolveSettings(quad_depth=tb.MAX_QUAD_DEPTH)
        with pytest.raises(ValueError, match="quad_depth"):
            SolveSettings(quad_depth=40)

    def test_infinite_tolerance_rejected(self):
        # an infinite tolerance would accept every slab after one sweep
        with pytest.raises(ValueError, match="positive and finite"):
            SolveSettings(tolerance=np.inf)

    # integer settings fail when they are built, where the CLI checks them,
    # not in scheme_rule mid-solve (quad_depth) or by rounding the sweep
    # budget up (max_sweeps)
    @pytest.mark.parametrize("name", ["max_sweeps", "quad_depth"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None])
    def test_integer_settings_reject_non_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolveSettings(**{name: value})

    @pytest.mark.parametrize("name", ["max_sweeps", "quad_depth"])
    def test_integer_settings_take_numpy_integers(self, name):
        assert getattr(SolveSettings(**{name: np.int32(2)}), name) == 2
