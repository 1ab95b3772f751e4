import dataclasses
import json

import numpy as np
import pytest

import mgode.controller
import mgode.estimator
import mgode.partition
from mgode.cli import main
from mgode.controller import (
    AdaptSettings,
    adapt,
    propose_steps,
    synchronized_partition,
)
from mgode.estimator import estimate
from mgode.dual import DualSpec, dual_partition_for, solve_dual
from mgode.models import model
from mgode.partition import PartitionError, build_partition
from mgode.solver import SolveSettings, solve
from mgode.tableau import interp_constant


def _report_for(prob, part, tol=1e-12):
    traj = solve(prob, part, SolveSettings(tolerance=tol))
    n = prob.dimension
    dual = solve_dual(
        DualSpec(problem=prob, primal=traj,
                 phi_T=np.full(n, 1.0 / np.sqrt(n))),
        dual_partition_for(part, 1), SolveSettings(tolerance=tol))
    return traj, estimate(prob, traj, dual)


def settings(**kw):
    defaults = dict(tol=1e-6, theta=0.5, max_rounds=8, k_min=1e-6, k_max=0.5,
                    solver=SolveSettings(tolerance=1e-12))
    defaults.update(kw)
    return AdaptSettings(**defaults)


class TestProposeSteps:
    def test_halved_residual_grows_steps(self):
        entry = model("linear_decay")
        prob = entry.problem()
        part = build_partition(0.1, 2, 1.0, methods=prob.methods)
        _, report = _report_for(prob, part)
        st = settings()
        fns1 = propose_steps(report, st)
        # an mcG report's rbar is its r; propose_steps reads rbar
        report.r[0][:] = report.r[0] / 2.0
        report.rbar[0][:] = report.r[0]
        fns2 = propose_steps(report, st)
        for t in (0.05, 0.45, 0.95):
            # q = 2: steps scale by 2^(1/2) when the residual halves
            assert fns2[0](t) / fns1[0](t) == pytest.approx(2 ** 0.5, rel=1e-12)

    def test_residual_ratio_sets_step_ratio(self):
        entry = model("linear_system")
        prob = entry.problem()
        part = build_partition(0.1, 2, 1.0, methods=prob.methods)
        _, report = _report_for(prob, part)
        # impose a factor-1000 residual imbalance with equal stability factors
        report.r[0][:] = report.rbar[0][:] = 1.0
        report.r[1][:] = report.rbar[1][:] = 1000.0
        report.s_deriv[:] = 1.0
        st = settings(k_min=1e-12, k_max=1e6)
        fns = propose_steps(report, st)
        ratio = fns[0](0.5) / fns[1](0.5)
        assert ratio == pytest.approx(1000 ** 0.5, rel=1e-10)

    def test_zero_residual_clamps_to_max_and_warns(self):
        entry = model("linear_decay")
        prob = entry.problem()
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        _, report = _report_for(prob, part)
        report.r[0][:] = report.rbar[0][:] = 0.0
        st = settings()
        with pytest.warns(RuntimeWarning, match="clamp"):
            fns = propose_steps(report, st)
        assert fns[0](0.3) == st.k_max

    def test_mdg_uses_jump_augmented_residual_and_order(self):
        entry = model("linear_decay")
        prob = entry.problem(methods="mdG")
        part = build_partition(0.1, 1, 1.0, methods=prob.methods)
        _, report = _report_for(prob, part)
        st = settings(k_min=1e-12, k_max=1e6)
        fns = propose_steps(report, st)
        budget = st.theta * st.tol / 1
        j = 5
        denom = report.s_deriv[0] * interp_constant(1) * report.rbar[0][j]
        expect = (budget / denom) ** (1.0 / 2.0)
        assert fns[0](float(report.partition.breakpoints[0][j])) == \
            pytest.approx(expect, rel=1e-12)

    def test_mcg_rbar_is_r_and_mdg_rbar_bounds_r(self):
        # the identity that lets propose_steps read rbar for both families:
        # an mcG jump is exactly 0.0, so rbar = r + 0.0 / k is r bit for bit
        prob = model("linear_system").problem(methods=["mcG", "mdG"])
        part = build_partition([1 / 24, 1 / 32], [2, 1], 1.0,
                               methods=prob.methods)
        _, report = _report_for(prob, part)
        assert np.array_equal(report.rbar[0], report.r[0])
        assert np.all(report.rbar[1] >= report.r[1])
        assert np.any(report.rbar[1] > report.r[1])


class TestSynchronizedPartition:
    def test_dyadic_subdivision(self):
        fns = [lambda t: 0.4, lambda t: 0.09]
        part = synchronized_partition(fns, [2, 2], 1.0, 1e-6, 1.0)
        levels = part.synchronized_levels()
        # the slow component's breakpoints are levels for both
        np.testing.assert_allclose(levels, part.breakpoints[0], atol=0)
        # the fast component packs a power-of-two count into each window
        for a, b in zip(levels[:-1], levels[1:]):
            lo = np.searchsorted(part.breakpoints[1], a)
            hi = np.searchsorted(part.breakpoints[1], b)
            assert (hi - lo) in (1, 2, 4, 8)

    def test_ratio_cap_shrinks_window(self, monkeypatch):
        monkeypatch.setattr(mgode.controller, "_MAX_RATIO", 8)
        fns = [lambda t: 1.0, lambda t: 1e-3]
        part = synchronized_partition(fns, [1, 1], 1.0, 1e-6, 1.0)
        for slab_len in np.diff(part.breakpoints[0]):
            assert slab_len <= 8e-3 * 1.5

    def test_each_step_function_is_called_once_per_window(self):
        starts = [[], []]

        def recording(i, k):
            def fn(t):
                starts[i].append(t)
                return k
            return fn

        part = synchronized_partition([recording(0, 0.25), recording(1, 0.05)],
                                      [1, 1], 1.0, 1e-6, 1.0)
        windows = part.synchronized_levels()[:-1].tolist()
        assert windows == [0.0, 0.25, 0.5, 0.75]
        assert starts == [windows, windows]

    # the partition's interval cap, checked while generating: a 1e-8 step
    # proposal would otherwise build about 1e8 intervals before failing
    def test_windows_past_the_cap_raise(self, monkeypatch):
        monkeypatch.setattr(mgode.partition, "_MAX_INTERVALS", 8)
        part = synchronized_partition([lambda t: 0.125], [1], 1.0, 1e-8, 1.0)
        assert part.n_intervals(0) == 8
        with pytest.raises(PartitionError, match="slab windows: too many "
                                                 "intervals, more than 8"):
            synchronized_partition([lambda t: 1e-8], [1], 1.0, 1e-8, 1.0)

    def test_component_intervals_past_the_cap_raise(self, monkeypatch):
        monkeypatch.setattr(mgode.partition, "_MAX_INTERVALS", 10)
        # 2 windows of 0.5, the fast component packs 8 into each
        fns = [lambda t: 0.5, lambda t: 0.0625]
        with pytest.raises(PartitionError, match="component 1: too many "
                                                 "intervals, more than 10"):
            synchronized_partition(fns, [1, 1], 1.0, 1e-8, 1.0)

    def test_run_past_the_cap_is_one_line_error(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(mgode.partition, "_MAX_INTERVALS", 50)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "model": "linear_decay", "orders": 1, "steps": 0.1,
            "adapt": {"tol": 1e-12, "max_rounds": 2}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "50" in err
        assert not out.exists()


PROFILE = [[1] * 5 + [3] * 5, [2] * 10]


class TestOrderProfile:
    """The re-partition keeps one order per component, so a per-interval
    order profile is refused before the first solve of a multi-round run
    instead of being cut to each component's first order."""

    def test_refused_before_the_first_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called before the orders were checked")

        monkeypatch.setattr(mgode.controller, "solve", no_solve)
        prob = model("linear_system").problem()
        part = build_partition(0.1, PROFILE, 1.0, methods=prob.methods)
        with pytest.raises(ValueError, match=r"component 0 has orders \[1, 3\]"):
            adapt(prob, part, settings(max_rounds=2))

    def test_single_round_keeps_the_profile(self):
        prob = model("linear_system").problem()
        part = build_partition(0.1, PROFILE, 1.0, methods=prob.methods)
        res = adapt(prob, part, settings(tol=1e3, max_rounds=1))
        assert [qs.tolist() for qs in res.trajectory.partition.orders] == PROFILE

    def test_cli_prints_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "model": "linear_system", "orders": PROFILE, "steps": 0.1,
            "adapt": {"tol": 1e-12, "max_rounds": 2}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: component 0 has orders [1, 3]"), err
        assert err.count("\n") == 1
        assert not out.exists()


class TestDualOrder:
    """A dual order below the derivative order p of its component's scheme
    leaves E3, and with it the bound adapt steers on, NaN; a multi-round
    run refuses it before the first solve."""

    def problem_and_partition(self):
        prob = model("linear_system").problem(methods="mdG")
        return prob, build_partition(0.1, 1, 1.0, methods=prob.methods)

    def test_refused_before_the_first_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called before the dual order was checked")

        monkeypatch.setattr(mgode.controller, "solve", no_solve)
        prob, part = self.problem_and_partition()
        with pytest.raises(ValueError, match=(
                r"^component 0 \(mdG, q=1\) has dual order 1 < required "
                r"derivative order p=2; its bound would be NaN$")):
            adapt(prob, part, settings(max_rounds=3, dual_order_increment=0))

    def test_single_round_keeps_the_flagged_report(self):
        prob, part = self.problem_and_partition()
        res = adapt(prob, part, settings(max_rounds=1, dual_order_increment=0))
        assert res.rounds == 1 and not res.met
        assert res.report.flags and np.isnan(res.report.explicit_total)


class TestDualPartition:
    """adapt builds each round's dual partition once, before that round's
    solve: first from the given partition, then after each re-partition."""

    def run(self, steps=0.25):
        prob = model("linear_decay").problem()
        return prob, build_partition(steps, 2, 1.0, methods=prob.methods)

    def test_refused_before_the_first_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called before the dual partition was built")

        monkeypatch.setattr(mgode.controller, "solve", no_solve)
        # 10 intervals refined 2e6 times pass the interval cap
        prob, part = self.run(steps=0.1)
        with pytest.raises(PartitionError, match="dual intervals: too many"):
            adapt(prob, part, settings(max_rounds=1, dual_refine=2_000_000))

    @pytest.mark.parametrize("max_rounds,builds", [(1, 1), (2, 2)])
    def test_one_build_per_round(self, monkeypatch, max_rounds, builds):
        made = []

        def counting(*args):
            made.append(dual_partition_for(*args))
            return made[-1]

        monkeypatch.setattr(mgode.controller, "dual_partition_for", counting)
        prob, part = self.run()
        res = adapt(prob, part, settings(tol=1e-5, max_rounds=max_rounds))
        assert res.rounds == max_rounds and len(made) == builds
        assert res.dual.psi.partition.n_intervals(0) == made[-1].n_intervals(0)


def assert_same_report(got, want):
    """Equal JSON texts, and equal bits in every per-interval profile and
    stability factor."""
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    for name in ("r", "rbar", "rc", "rq_bound", "alphas"):
        a, b = getattr(got, name), getattr(want, name)
        assert len(a) == len(b) and all(
            np.array_equal(x, y) for x, y in zip(a, b)), name
    for field in dataclasses.fields(want.factors):
        assert np.array_equal(getattr(got.factors, field.name),
                              getattr(want.factors, field.name)), field.name


def decay_run():
    prob = model("linear_decay").problem()
    return prob, build_partition(0.25, 2, 1.0, methods=prob.methods)


def mixed_multirate_run():
    prob = model("linear_system").problem(methods=("mcG", "mdG"))
    return prob, build_partition([0.1, 0.05], [2, 1], prob.T,
                                 methods=prob.methods)


# name -> (run, adapt settings, met, rounds); decay meets 1e-5 in round 2,
# the mixed multirate run misses 1e-3 in rounds 1-5 and meets it in round 6
COMPLETION_PATHS = {
    "met_on_the_last_round": (decay_run, dict(tol=1e-5, max_rounds=2), True, 2),
    "met_before_the_budget": (decay_run, dict(tol=1e-5, max_rounds=3), True, 2),
    "single_round_unmet": (decay_run, dict(tol=1e-5, max_rounds=1), False, 1),
    "multirate_unmet": (mixed_multirate_run,
                        dict(tol=1e-3, max_rounds=2, k_min=1e-3), False, 2),
    "multirate_met": (mixed_multirate_run,
                      dict(tol=1e-3, max_rounds=8, k_min=1e-3), True, 6),
}


class TestCompletion:
    """adapt computes the explicit stage each round and completes only the
    round it returns, into the report estimate makes from scratch."""

    @pytest.mark.parametrize("name", list(COMPLETION_PATHS))
    def test_report_equals_estimate(self, name):
        run, kw, met, rounds = COMPLETION_PATHS[name]
        prob, part = run()
        res = adapt(prob, part, settings(**kw))
        assert (res.met, res.rounds) == (met, rounds)
        assert res.log[-1]["bound"] == res.report.explicit_total
        assert_same_report(res.report, estimate(prob, res.trajectory, res.dual))

    def test_only_the_returned_round_runs_eg(self, monkeypatch):
        calls = []
        eg = mgode.estimator.eg_residual_zero

        def counting(*args, **kwargs):
            calls.append(args)
            return eg(*args, **kwargs)

        monkeypatch.setattr(mgode.estimator, "eg_residual_zero", counting)
        run, kw, _, _ = COMPLETION_PATHS["multirate_unmet"]
        res = adapt(*run(), settings(**kw))
        assert res.rounds == 2 and len(res.log) == 2
        assert len(calls) == 1 and calls[0][0] is res.trajectory


class TestAdapt:
    def test_huge_tolerance_single_round(self):
        entry = model("linear_decay")
        prob = entry.problem()
        part = build_partition(0.1, 1, 1.0, methods=prob.methods)
        res = adapt(prob, part, settings(tol=1e3))
        assert res.met and res.rounds == 1
        assert res.partition.n_intervals(0) == 10

    def test_decay_meets_tolerance_and_bounds_error(self):
        entry = model("linear_decay")
        prob = entry.problem()
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        res = adapt(prob, part, settings(tol=1e-6))
        assert res.met
        assert res.report.explicit_total <= 1e-6
        e_T = abs(res.trajectory.end_state()[0] - np.exp(-1.0))
        assert e_T <= res.report.explicit_total

    def test_overflowed_bound_is_not_met(self):
        # a huge terminal weight overflows the bound to inf; tol = inf stays
        # legal, but an infinite bound meets no tolerance
        prob = model("linear_decay").problem()
        part = build_partition(0.1, 1, 1.0, methods=prob.methods)
        with np.errstate(over="ignore", invalid="ignore"):
            res = adapt(prob, part, settings(tol=np.inf, max_rounds=1,
                                             phi_T=np.array([1e308])))
        assert res.report.explicit_total == np.inf
        assert not res.met and res.rounds == 1

    def test_budget_exhaustion_flagged(self):
        entry = model("linear_decay")
        prob = entry.problem()
        part = build_partition(0.25, 1, 1.0, methods=prob.methods)
        res = adapt(prob, part, settings(tol=1e-13, max_rounds=1))
        assert not res.met
        assert res.rounds == 1
        assert res.report is not None

    def test_tolerance_sweep_monotone_work(self):
        entry = model("linear_decay")
        prob = entry.problem()
        counts = []
        errors = []
        for tol in (1e-4, 1e-6, 1e-8):
            part = build_partition(0.25, 2, 1.0, methods=prob.methods)
            res = adapt(prob, part, settings(tol=tol, k_min=1e-4))
            assert res.met
            counts.append(res.partition.total_intervals)
            errors.append(abs(res.trajectory.end_state()[0] - np.exp(-1.0)))
        assert counts[0] <= counts[1] * 1.1 and counts[1] <= counts[2] * 1.1
        assert errors[0] >= errors[1] >= errors[2]

    def test_deterministic(self):
        entry = model("linear_decay")
        prob = entry.problem()
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        r1 = adapt(prob, part, settings(tol=1e-6))
        r2 = adapt(prob, part, settings(tol=1e-6))
        assert r1.log == r2.log
        np.testing.assert_array_equal(r1.partition.breakpoints[0],
                                      r2.partition.breakpoints[0])

    def test_round_log_schema(self):
        entry = model("linear_decay")
        prob = entry.problem()
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        res = adapt(prob, part, settings(tol=1e-6))
        for entry_ in res.log:
            assert set(entry_) == {"round", "bound", "tol", "total_intervals",
                                   "per_component_max_k"}

    @pytest.mark.slow
    def test_kepler_two_rate_assignment(self):
        # the inner (fast) orbit must end up with strictly smaller steps
        entry = model("kepler_2body")
        prob = entry.problem(T=2.0, methods="mcG")
        part = build_partition(0.1, 2, 2.0, methods=prob.methods)
        st = AdaptSettings(tol=1e-4, max_rounds=2, k_min=1e-3, k_max=0.5,
                           solver=SolveSettings(tolerance=1e-11, quad_depth=1))
        res = adapt(prob, part, st)
        med = [float(np.median(res.partition.steps(i))) for i in range(8)]
        fast = [0, 1, 4, 5]
        slow = [2, 3, 6, 7]
        assert max(med[i] for i in fast) < min(med[i] for i in slow)

    # integer settings fail when they are built, where the CLI checks them,
    # not with a TypeError or IndexError in the middle of adapt
    @pytest.mark.parametrize("name,value", [
        (name, value)
        for name, least in (("max_rounds", 1), ("dual_order_increment", 0),
                            ("dual_refine", 1))
        for value in (2.5, 2.0, True, "2", None, least - 1)])
    def test_integer_settings_reject_non_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            AdaptSettings(tol=1.0, **{name: value})

    @pytest.mark.parametrize("name", [
        "max_rounds", "dual_order_increment", "dual_refine"])
    def test_integer_settings_take_numpy_integers(self, name):
        assert getattr(AdaptSettings(tol=1.0, **{name: np.int64(2)}), name) == 2

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            AdaptSettings(tol=0.0)
        with pytest.raises(ValueError):
            AdaptSettings(tol=1.0, theta=1.5)
        with pytest.raises(ValueError):
            AdaptSettings(tol=1.0, k_min=1.0, k_max=0.5)
