import dataclasses
import gc
import math
import weakref
from collections import namedtuple
from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla

import mgode.estimator
import mgode.tableau as tb
from mgode.dual import DualSolution, DualSpec, dual_partition_for, solve_dual
from mgode.estimator import (
    _integral_of_rhs,
    computational_error,
    computational_residual,
    eg_residual_zero,
    error_representation,
    estimate,
    explicit_estimates,
    galerkin_estimates,
    integrate_splitting,
    quadrature_error,
    quadrature_residual,
    stability_factor_error,
)
from mgode.models import model
from mgode.partition import build_partition, build_slabs
from mgode.solver import (
    OdeProblem,
    SolveReport,
    SolveSettings,
    Trajectory,
    solve,
    solve_slab,
)
from mgode.tableau import interp_constant, radau_polynomial, tableau

A2 = np.array([[-1.0, 2.0], [0.5, -3.0]])
CHAIN_SLACK = 1e-10


def linear2(method="mcG"):
    return OdeProblem(rhs=lambda u, t: A2 @ u, u0=[1.0, -0.5], T=1.0,
                      jacobian=lambda u, t: A2, methods=method)


def decay(method="mcG"):
    return OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0,
                      jacobian=lambda u, t: np.array([[-1.0]]),
                      methods=method, vectorized=True)


def run_with_dual(prob, q, k, *, incr=1, refine=2, tol=1e-13, phi_T=None,
                  g=None, depth=0):
    part = build_partition(k, q, prob.T, methods=prob.methods)
    traj = solve(prob, part, SolveSettings(tolerance=tol, max_sweeps=500,
                                           quad_depth=depth))
    if phi_T is None:
        n = prob.dimension
        phi_T = np.full(n, 1.0 / np.sqrt(n))
    dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=phi_T, g=g),
                      dual_partition_for(part, incr, refine),
                      SolveSettings(tolerance=tol, max_sweeps=500))
    return part, traj, dual


class TestInterpConstant:
    @pytest.mark.parametrize("q,value", [(0, 1.0), (1, 0.5), (3, 1.0 / 48.0)])
    def test_values(self, q, value):
        assert interp_constant(q) == pytest.approx(value, abs=0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            interp_constant(-1)


class TestIntegrateSplitting:
    def test_abs_integral_with_sign_change(self):
        # int_0^1 |x - 0.3| dx = (0.3^2 + 0.7^2) / 2
        signed, absval, pieces = integrate_splitting(lambda x: x - 0.3, 0.0, 1.0,
                                                     npts=6, n_scan=30)
        assert signed == pytest.approx(0.2, abs=1e-14)
        assert absval == pytest.approx(0.5 * (0.09 + 0.49), abs=1e-13)
        # one piece, whose root is kept with fn at the Gauss nodes of each
        # sub-piece it cuts
        [(lo, hi, (root,), vals)] = pieces
        assert (lo, hi) == (0.0, 1.0)
        assert root == pytest.approx(0.3, abs=1e-12)
        xg, _ = tb.gauss_rule_01(6)
        assert len(vals) == 2
        for (s0, s1), v in zip([(0.0, root), (root, 1.0)], vals):
            assert v.tolist() == ((s0 + (s1 - s0) * xg) - 0.3).tolist()

    def test_hard_splits_respected(self):
        f = lambda x: np.where(x < 0.5, 1.0, -1.0)  # noqa: E731
        signed, absval, pieces = integrate_splitting(f, 0.0, 1.0, npts=4,
                                                     n_scan=9, splits=(0.5,))
        assert signed == pytest.approx(0.0, abs=1e-14)
        assert absval == pytest.approx(1.0, abs=1e-14)
        assert [piece[:2] for piece in pieces] == [(0.0, 0.5), (0.5, 1.0)]

    def test_a_piece_without_a_root_keeps_its_gauss_values(self):
        xg, _ = tb.gauss_rule_01(4)
        _, _, pieces = integrate_splitting(lambda x: 1.0 + x, 0.0, 1.0, npts=4,
                                           n_scan=9, splits=(0.5,))
        assert [piece[:3] for piece in pieces] == [(0.0, 0.5, ()), (0.5, 1.0, ())]
        for lo, hi, _, (vals,) in pieces:
            assert vals.tolist() == (1.0 + (lo + (hi - lo) * xg)).tolist()


class TestErrorRepresentation:
    def test_manufactured_solution_zero(self):
        prob = OdeProblem(rhs=lambda u, t: np.atleast_2d(2.0 * t)
                          if np.ndim(u) > 1 else np.array([2.0 * t]),
                          u0=[0.0], T=1.0,
                          jacobian=lambda u, t: np.zeros((1, 1)),
                          methods="mcG", vectorized=True)
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0]),
                          dual_partition_for(part, 1),
                          SolveSettings(tolerance=1e-14))
        rep = error_representation(traj, dual, prob, depth=2)
        assert abs(rep) < 1e-12

    def test_scalar_decay_terminal_error(self):
        # oracle: closed-form e(T); sign-aligned terminal weight makes the
        # pairing equal |e(T)|
        prob = decay()
        part = build_partition(0.05, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        eT = traj.end_state()[0] - np.exp(-1.0)
        dual = solve_dual(
            DualSpec(problem=prob, primal=traj, phi_T=[np.sign(eT)]),
            dual_partition_for(part, 2, refine=8),
            SolveSettings(tolerance=1e-14))
        rep = error_representation(traj, dual, prob, depth=3)
        assert rep == pytest.approx(abs(eT), rel=1e-6)

    def test_l1_error_via_forcing(self):
        # terminal weight zero, forcing e/|e| measured against the closed
        # form: the pairing equals the time integral of |e|, checked against
        # a per-interval quadrature oracle (|e| has kinks at breakpoints)
        prob = linear2()
        part = build_partition(0.05, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))

        def err_at(t):
            side = "left" if t > 0 else "right"
            U = np.array([traj.value(i, float(t), side) for i in (0, 1)])
            return U - sla.expm(A2 * t) @ prob.u0

        def g(t):
            e = err_at(t)
            n = np.linalg.norm(e)
            return e / n if n > 0.0 else 0.0 * e

        dual = solve_dual(DualSpec(problem=prob, primal=traj,
                                   phi_T=[0.0, 0.0], g=g),
                          dual_partition_for(part, 2, refine=4),
                          SolveSettings(tolerance=1e-13))
        rep = error_representation(traj, dual, prob, depth=3)
        xg, wg = tb.gauss_rule_01(20)
        oracle = 0.0
        for j in range(part.n_intervals(0)):
            t0, t1 = part.span(0, j)
            oracle += (t1 - t0) * float(np.sum(
                wg * [np.linalg.norm(err_at(t0 + (t1 - t0) * x)) for x in xg]))
        assert rep == pytest.approx(oracle, rel=0.01)

    @pytest.mark.parametrize("method,q,k,refine", [
        ("mcG", 1, 0.05, 4), ("mcG", 2, 0.05, 4), ("mcG", 3, 0.2, 4),
        ("mdG", 0, 0.025, 16), ("mdG", 1, 0.05, 4), ("mdG", 2, 0.1, 4),
    ])
    def test_linear_system_terminal_error(self, method, q, k, refine):
        prob = linear2(method)
        part = build_partition(k, q, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        eT = traj.end_state() - sla.expm(A2) @ prob.u0
        phi_T = eT / np.linalg.norm(eT)
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=phi_T),
                          dual_partition_for(part, 1, refine),
                          SolveSettings(tolerance=1e-13))
        rep = error_representation(traj, dual, prob, depth=3)
        assert rep == pytest.approx(np.linalg.norm(eT), rel=1e-4)


class TestGalerkinEstimates:
    def test_manufactured_all_zero(self):
        prob = OdeProblem(rhs=lambda u, t: np.atleast_2d(2.0 * t)
                          if np.ndim(u) > 1 else np.array([2.0 * t]),
                          u0=[0.0], T=1.0,
                          jacobian=lambda u, t: np.zeros((1, 1)),
                          methods="mcG", vectorized=True)
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0]),
                          dual_partition_for(part, 1),
                          SolveSettings(tolerance=1e-14))
        for v in estimate(prob, traj, dual).chain:
            assert abs(v) < 1e-11

    @pytest.mark.parametrize("method,q", [("mcG", 1), ("mcG", 2), ("mdG", 0),
                                          ("mdG", 1)])
    def test_chain_property(self, method, q):
        prob = linear2(method)
        _, traj, dual = run_with_dual(prob, q, 0.1)
        e0, e1, e2, e3, e4, e5 = estimate(prob, traj, dual).chain
        assert e0 <= e1 + CHAIN_SLACK
        assert e1 <= e2 + CHAIN_SLACK
        assert e2 <= e3 + CHAIN_SLACK
        assert e3 <= e4 + CHAIN_SLACK
        assert e2 <= e5 + CHAIN_SLACK

    def test_e3_brute_force_reassembly(self):
        # independent recomputation: dense trapezoid integrals for r, a
        # polynomial fit of sampled dual values for its derivative factor
        from mgode.solver import interval_residual

        prob = decay()
        q = 2
        _, traj, dual = run_with_dual(prob, q, 0.125)
        stage = explicit_estimates(prob, traj, dual)
        part = traj.partition
        s_total = 0.0
        max_term = 0.0
        grid = np.linspace(0.0, 1.0, 4001)
        for j in range(part.n_intervals(0)):
            t0, t1 = part.span(0, j)
            k = t1 - t0
            r_vals = np.abs(interval_residual(traj, prob, 0, j, grid))
            r_ij = np.trapezoid(r_vals, grid)
            # the dual is piecewise polynomial on the twice-refined intervals
            s_int = 0.0
            for a, b in ((t0, 0.5 * (t0 + t1)), (0.5 * (t0 + t1), t1)):
                ts = np.linspace(a, b, 201)
                phi_vals = dual.values(0, 0.5 * (ts[:-1] + ts[1:]))
                coeff = np.polyfit(0.5 * (ts[:-1] + ts[1:]), phi_vals, q + 1)
                dcoeff = np.polyder(coeff, q)
                tt = np.linspace(a, b, 801)
                s_int += np.trapezoid(np.abs(np.polyval(dcoeff, tt)), tt)
            s_total += s_int
            max_term = max(max_term, interp_constant(q - 1) * k**q * r_ij)
        brute = s_total * max_term
        assert stage.e3 == pytest.approx(brute, rel=1e-4)

    def test_one_norm_dominates_two_norm(self):
        prob = linear2()
        _, traj, dual = run_with_dual(prob, 2, 0.1)
        stage = explicit_estimates(prob, traj, dual)
        est = galerkin_estimates(traj, dual, prob, stage)
        assert stage.s_deriv.sum() >= est.factors.s1_global - 1e-12

    def test_test_space_pairing_vanishes_globally(self):
        # replacing the dual by any test-space function in the pairing
        # reduces it to the accumulated fixed-point defect
        from mgode.solver import interval_residual

        prob = linear2()
        tol = 1e-12
        part = build_partition(0.1, 2, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=tol))
        xg, wg = tb.gauss_rule_01(6)
        total = 0.0
        n_equations = 0
        for i in (0, 1):
            for j in range(part.n_intervals(i)):
                k = part.step(i, j)
                r = interval_residual(traj, prob, i, j, xg)
                # test function 1 - s on each interval (degree < q)
                total += k * float(wg @ (r * (1.0 - xg)))
                n_equations += 2
        assert abs(total) <= tol * n_equations

    def test_degraded_dual_order_flagged(self):
        prob = decay()
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        # a first-order dual cannot supply the second derivative
        low_part = build_partition(0.25, 1, 1.0, methods=("mcG",))
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0]),
                          low_part, SolveSettings(tolerance=1e-13))
        stage = explicit_estimates(prob, traj, dual)
        est = galerkin_estimates(traj, dual, prob, stage)
        assert stage.flags
        assert np.isnan(est.e2) and np.isnan(est.e5)
        assert np.isfinite(est.e0) and np.isfinite(est.e1)

    def test_mdg_extra_step_factor(self):
        # on matching runs the ratio E2(mdG)/E2(mcG) scales like the step
        ratios = []
        ks = (0.1, 0.05, 0.025)
        for k in ks:
            vals = {}
            for method in ("mcG", "mdG"):
                prob = linear2(method)
                _, traj, dual = run_with_dual(prob, 1, k)
                vals[method] = galerkin_estimates(
                    traj, dual, prob, explicit_estimates(prob, traj, dual)).e2
            ratios.append(vals["mdG"] / vals["mcG"])
        slope = np.polyfit(np.log(ks), np.log(ratios), 1)[0]
        assert abs(slope - 1.0) <= 0.3


def seed_s1_global_scalar(traj, dual):
    """The seed's global derivative factor for N = 1: the absolute integral
    of the dual derivative by the sign-splitting integrator, per elementary
    segment."""
    from mgode.estimator import _elementary_segments, _sign_change_roots
    from mgode.tableau import gauss_rule_01

    def splitting_abs(fn, a, b, npts, n_scan):
        total = 0.0
        xg, wg = gauss_rule_01(npts)
        sub = [a] + _sign_change_roots(fn, a, b, n_scan) + [b]
        for s0, s1 in zip(sub[:-1], sub[1:]):
            h = s1 - s0
            if h <= 0.0:
                continue
            total += abs(h * float(wg @ fn(s0 + h * xg)))
        return total

    s1 = 0.0
    segs = _elementary_segments(traj, dual)
    for a, b in zip(segs[:-1], segs[1:]):
        q = traj.order(0, traj.partition.point(0, 0.5 * (a + b), "left")[0])
        p = tableau(traj.methods[0], q).deriv_order
        fn = lambda ts: dual.values(0, ts, order=p)  # noqa: E731
        s1 += splitting_abs(fn, a, b, 2 * (max(1, q) + 2), 8 * (max(1, q) + 2))
    return s1


class TestGlobalFactorScalar:
    """For N = 1 the global factor sums |integral| over the pieces of the
    sign-splitting integrator, bit for bit as the seed did.  The norm path of
    N > 1 integrates |f| instead: the two agree only where every piece is
    single-signed, and on mcG(3) with k = 1/6 a scan cell on [1/4, 1/3]
    hides two sign changes of the dual's third derivative, where they differ
    by 1.4e-5 relative."""

    @staticmethod
    def oscillating(method):
        w = 2.0 * np.pi
        return OdeProblem(rhs=lambda u, t: np.cos(w * t) * u, u0=[1.0], T=1.0,
                          jacobian=lambda u, t: np.array([[np.cos(w * t)]]),
                          methods=method, vectorized=True)

    @pytest.mark.parametrize("method,q", [("mcG", 1), ("mcG", 2), ("mcG", 3),
                                          ("mdG", 0), ("mdG", 1), ("mdG", 2)])
    def test_bitwise_equal_to_seed_branch(self, method, q):
        prob = self.oscillating(method)
        for k in (0.1, 1.0 / 6.0):
            _, traj, dual = run_with_dual(prob, q, k, refine=2, tol=1e-12)
            p = q if method == "mcG" else q + 1
            d = dual.values(0, np.linspace(0.0, 1.0, 201), order=p)
            assert d.min() < 0.0 < d.max()       # the derivative changes sign
            got = galerkin_estimates(traj, dual, prob, explicit_estimates(
                prob, traj, dual)).factors.s1_global
            assert got == seed_s1_global_scalar(traj, dual)


class TestComputationalResidual:
    def test_converged_solve_small_defect(self):
        prob = linear2()
        part = build_partition(0.1, 2, 1.0, methods=prob.methods)
        tol = 1e-13
        traj = solve(prob, part, SolveSettings(tolerance=tol))
        for i in (0, 1):
            for j in (0, 5):
                rc = computational_residual(traj, prob, i, j)
                assert abs(rc) <= 100 * tol / part.step(i, j)

    def test_under_iterated_defect_decreases_with_sweeps(self):
        prob = linear2()
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        defects = []
        for sweeps in (1, 2, 4, 8):
            settings = SolveSettings(tolerance=1e-30, max_sweeps=sweeps)
            coeffs, reports = [[], []], []
            for slab in build_slabs(part):
                new, report = solve_slab(prob, part, slab, coeffs, settings, {})
                reports.append(report)
                for i in range(2):
                    coeffs[i].extend(new[i])
            traj = Trajectory(part, prob.methods, prob.u0, coeffs,
                              SolveReport(slabs=tuple(reports)),
                              settings=settings)
            defects.append(max(
                abs(computational_residual(traj, prob, i, j, depth=1))
                for i in (0, 1) for j in range(4)
            ))
        assert defects[0] > defects[1] > defects[2] > defects[3]

    def test_ec_assembly(self):
        prob = linear2()
        _, traj, dual = run_with_dual(prob, 2, 0.1)
        stage = explicit_estimates(prob, traj, dual)
        ec = computational_error(traj, prob, stage.s_mean)
        by_hand = sum(
            stage.s_mean[i] * np.max(ec.profiles[i]) for i in (0, 1)
        )
        assert ec.value == pytest.approx(by_hand, rel=1e-12)


class TestQuadratureResidual:
    def test_polynomial_rhs_exact(self):
        # degree <= 2q - 1 integrands leave no quadrature residual
        def rhs(u, t):
            val = t**3
            return np.broadcast_to(val, np.shape(u)).astype(float)

        prob = OdeProblem(rhs=rhs, u0=[0.0], T=1.0, methods="mcG",
                          vectorized=True)
        part = build_partition(0.25, 2, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        for m in (0, 1, 2):
            rq = quadrature_residual(traj, prob, 0, 1, m)
            assert abs(rq.delta) < 1e-14
            assert rq.bound < 1e-13

    @pytest.mark.parametrize("method,q", [("mcG", 1), ("mcG", 2),
                                          ("mdG", 1), ("mdG", 2)])
    def test_dyadic_ratio(self, method, q):
        def rhs(u, t):
            val = np.sin(10.0 * t)
            return np.broadcast_to(val, np.shape(u)).astype(float)

        prob = OdeProblem(rhs=rhs, u0=[0.0], T=1.0, methods=method,
                          vectorized=True)
        part = build_partition(0.25, q, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        deltas = [quadrature_residual(traj, prob, 0, 1, m).delta
                  for m in range(5)]
        target = 2.0 ** (-2 * q) if method == "mcG" else 2.0 ** (-1 - 2 * q)
        ratio = abs(deltas[4]) / abs(deltas[3])
        assert abs(ratio - target) <= 0.2 * target

    def test_bound_validity_against_deep_oracle(self):
        def rhs(u, t):
            val = np.sin(10.0 * t)
            return np.broadcast_to(val, np.shape(u)).astype(float)

        prob = OdeProblem(rhs=rhs, u0=[0.0], T=1.0, methods="mcG",
                          vectorized=True)
        part = build_partition(0.25, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        k = part.step(0, 1)
        deep = _integral_of_rhs(traj, prob, 0, 1, 8)
        for m in (0, 1, 2):
            true_rq = (_integral_of_rhs(traj, prob, 0, 1, m) - deep) / k
            bound = quadrature_residual(traj, prob, 0, 1, m).bound
            assert abs(true_rq) <= bound

    def test_eq_assembly(self):
        prob = linear2()
        _, traj, dual = run_with_dual(prob, 2, 0.1)
        eq = quadrature_error(traj, prob,
                              explicit_estimates(prob, traj, dual).s_mean)
        assert eq.value >= 0.0
        assert all(np.all(p >= 0.0) for p in eq.profiles)


class TestResidualZero:
    @pytest.mark.parametrize("q", range(0, 13))
    def test_radau_polynomial_exact_at_minus_one(self, q):
        # the removable singularity's limit P_q'(-1) + P_{q+1}'(-1)
        limit = (-1) ** q * (q + 1)
        assert radau_polynomial(q, -1.0)[0] == limit
        mixed = radau_polynomial(q, np.array([0.5, -1.0, -0.25, -1.0]))
        assert mixed[1] == mixed[3] == limit
        assert mixed[0] == radau_polynomial(q, 0.5)[0]
        assert mixed[2] == radau_polynomial(q, -0.25)[0]

    @pytest.mark.parametrize("q", range(1, 7))
    def test_radau_orthogonality(self, q):
        # the degree-q shape polynomial annihilates (x+1)^p for p = 1..q
        xg, wg = np.polynomial.legendre.leggauss(q + 6)
        vals = radau_polynomial(q, xg)
        for p in range(1, q + 1):
            integral = float(wg @ (vals * (xg + 1.0) ** p))
            assert abs(integral) < 1e-12

    @pytest.mark.parametrize("method,q", [("mcG", 2), ("mcG", 3),
                                          ("mdG", 1), ("mdG", 2)])
    def test_residual_is_shape_polynomial(self, method, q):
        # linear autonomous scalar: the residual is a multiple of the
        # Legendre (continuous) or Radau (discontinuous) shape polynomial
        prob = OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=0.4,
                          jacobian=lambda u, t: np.array([[-1.0]]),
                          methods=method, vectorized=True)
        part = build_partition(0.2, q, 0.4, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-14))
        from mgode.solver import interval_residual

        xg, wg = tb.gauss_rule_01(q + 4)
        R = interval_residual(traj, prob, 0, 1, xg)
        if method == "mcG":
            shape = tb.legendre_eval(q, 2 * xg - 1)
        else:
            shape = radau_polynomial(q, 2 * xg - 1)
        c = float(wg @ (R * shape)) / float(wg @ (shape * shape))
        dev = np.max(np.abs(R - c * shape)) / np.max(np.abs(R))
        assert dev < 1e-9

    @pytest.mark.parametrize("method,q,factor", [
        ("mcG", 1, 2.0), ("mcG", 2, 2.0), ("mcG", 3, 2.0),
        ("mdG", 0, 2.0), ("mdG", 1, 4.0), ("mdG", 2, 6.0),
    ])
    def test_cross_estimator_comparison(self, method, q, factor):
        # measured factors between the directly evaluated term and the
        # interpolation-constant estimate; the discontinuous family carries
        # jump terms in E1 that the residual-zero interpolant eliminates
        prob = decay(method)
        _, traj, dual = run_with_dual(prob, q, 0.1)
        est = galerkin_estimates(traj, dual, prob,
                                 explicit_estimates(prob, traj, dual))
        eg = eg_residual_zero(traj, dual, prob)
        assert eg.value <= est.e1 * (1 + 1e-12)
        assert est.e1 <= factor * eg.value

    def test_sign_uniformity_and_shortcut(self):
        prob = decay()
        _, traj, dual = run_with_dual(prob, 2, 0.1)
        eg = eg_residual_zero(traj, dual, prob)
        # no cancellation: |sum| equals the sum of magnitudes
        assert eg.value == pytest.approx(eg.abs_sum, rel=1e-10)
        # endpoint product shortcut reproduces the integrals within percents
        assert eg.shortcut == pytest.approx(eg.abs_sum, rel=0.05)

    def test_product_constants(self):
        # continuous-family constant equals 1/(2q+1) analytically
        for q in (1, 2, 3, 5):
            assert tableau("mcG", q).product_constant == pytest.approx(
                1.0 / (2 * q + 1), abs=1e-13)
        assert tableau("mdG", 0).product_constant > 0.0


class TestTotalError:
    @pytest.mark.parametrize("method,q,k", [
        ("mcG", 1, 0.1), ("mcG", 1, 0.05), ("mcG", 1, 0.025),
        ("mcG", 2, 0.1), ("mcG", 2, 0.05), ("mcG", 2, 0.025),
        ("mdG", 1, 0.1), ("mdG", 1, 0.05), ("mdG", 1, 0.025),
    ])
    def test_bound_validity_grid(self, method, q, k):
        prob = linear2(method)
        part = build_partition(k, q, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        eT = traj.end_state() - sla.expm(A2) @ prob.u0
        phi_T = eT / np.linalg.norm(eT)
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=phi_T),
                          dual_partition_for(part, 1, 4),
                          SolveSettings(tolerance=1e-13))
        report = estimate(prob, traj, dual)
        enorm = float(np.linalg.norm(eT))
        assert report.total >= enorm
        assert report.explicit_total >= enorm
        effectivity = report.total / enorm
        assert effectivity < 1e3
        print(f"effectivity {method}({q}) k={k}: {effectivity:.2f}")

    def test_report_serialization(self):
        prob = linear2()
        _, traj, dual = run_with_dual(prob, 1, 0.25)
        report = estimate(prob, traj, dual)
        blob = report.to_json_dict()
        assert set(blob["estimates"]) == {"E0", "E1", "E2", "E3", "E4", "E5"}
        assert blob["total"] == report.total
        rows = report.csv_summary_rows()
        assert len(rows) == 2 and rows[0]["component"] == 0


class TestMismatchedInputs:
    """Every estimator entry rejects a problem or a dual whose component
    count or horizon differs from the trajectory's."""

    @pytest.fixture(scope="class")
    def runs(self):
        prob = linear2()
        _, traj, dual = run_with_dual(prob, 1, 0.25)
        _, _, dual_n1 = run_with_dual(decay(), 1, 0.25)
        half = OdeProblem(rhs=prob.rhs, u0=prob.u0, T=0.5,
                          jacobian=prob.jacobian, methods=prob.methods)
        _, _, dual_t_half = run_with_dual(half, 1, 0.25)
        return {
            "problem": (decay(), traj, dual,
                        "problem, trajectory and dual have 1, 2 and 2 components"),
            "dual_dimension": (prob, traj, dual_n1,
                               "problem, trajectory and dual have 2, 2 and 1 components"),
            "dual_horizon": (prob, traj, dual_t_half,
                             "problem, trajectory and dual horizons differ: "
                             "1.0, 1.0 and 0.5"),
        }

    @pytest.mark.parametrize("entry", [
        lambda prob, traj, dual: estimate(prob, traj, dual),
        lambda prob, traj, dual: error_representation(traj, dual, prob),
        lambda prob, traj, dual: galerkin_estimates(
            traj, dual, prob, explicit_estimates(prob, traj, dual)),
        lambda prob, traj, dual: eg_residual_zero(traj, dual, prob),
        lambda prob, traj, dual: explicit_estimates(prob, traj, dual),
    ], ids=["estimate", "error_representation", "galerkin_estimates",
            "eg_residual_zero", "explicit_estimates"])
    @pytest.mark.parametrize("case", ["problem", "dual_dimension", "dual_horizon"])
    def test_mismatch_is_a_value_error(self, runs, entry, case):
        prob, traj, dual, message = runs[case]
        with pytest.raises(ValueError) as err:
            entry(prob, traj, dual)
        assert str(err.value) == message


class TestStabilityFactorError:
    def test_zero_residual_zero_bound(self):
        # constant dual: f and g vanish identically
        prob = OdeProblem(rhs=lambda u, t: 0.0 * u, u0=[1.0], T=1.0,
                          jacobian=lambda u, t: np.zeros((1, 1)),
                          methods="mcG")
        part = build_partition(0.25, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part)
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0]),
                          dual_partition_for(part),
                          SolveSettings(tolerance=1e-14))
        sfe = stability_factor_error(dual)
        assert sfe.bound < 1e-12

    def test_bound_shrinks_with_refinement(self):
        prob = linear2()
        part = build_partition(0.1, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        bounds = []
        for refine in (1, 2, 4):
            dual = solve_dual(
                DualSpec(problem=prob, primal=traj, phi_T=[1.0, 0.0]),
                dual_partition_for(part, 0, refine),
                SolveSettings(tolerance=1e-13))
            bounds.append(stability_factor_error(dual).bound)
        # first-order dual: the residual integral halves per refinement
        assert bounds[0] > bounds[1] > bounds[2]
        assert bounds[0] / bounds[2] == pytest.approx(4.0, rel=0.2)

    def test_bound_validity_against_refined_reference(self):
        prob = linear2()
        part = build_partition(0.1, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        ref = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0, 0.0]),
                         dual_partition_for(part, 2, 16),
                         SolveSettings(tolerance=1e-13))
        s_ref = stability_factor_error(ref).s_phi
        for refine in (1, 2, 4):
            dual = solve_dual(
                DualSpec(problem=prob, primal=traj, phi_T=[1.0, 0.0]),
                dual_partition_for(part, 0, refine),
                SolveSettings(tolerance=1e-13))
            sfe = stability_factor_error(dual)
            rel = abs(sfe.s_phi - s_ref) / s_ref
            assert rel <= sfe.bound

    def test_discontinuous_dual_rejected(self):
        prob = linear2()
        part = build_partition(0.1, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-12))
        dual = solve_dual(DualSpec(problem=prob, primal=traj,
                                   phi_T=[1.0, 0.0]),
                          dual_partition_for(part, 0),
                          SolveSettings(tolerance=1e-12))
        # solve_dual integrates with mcG only; re-solve its reversed problem
        # with the discontinuous family
        psi_problem = dataclasses.replace(dual.psi_problem, methods="mdG")
        psi = solve(psi_problem, dual.psi.partition, SolveSettings(tolerance=1e-12))
        with pytest.raises(ValueError):
            stability_factor_error(DualSolution(psi=psi, psi_problem=psi_problem))

    def test_dual_of_dual_constant(self):
        prob = linear2()
        part = build_partition(0.1, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-12))
        dual = solve_dual(DualSpec(problem=prob, primal=traj,
                                   phi_T=[1.0, 0.0]),
                          dual_partition_for(part, 1),
                          SolveSettings(tolerance=1e-12))
        # a second dual standing in for the dual of the dual
        omega = solve_dual(DualSpec(problem=prob, primal=traj,
                                    phi_T=[0.0, 1.0]),
                           dual_partition_for(part, 1),
                           SolveSettings(tolerance=1e-12))
        sfe = stability_factor_error(dual, dual_of_dual=omega)
        assert sfe.constant > 0.0
        assert sfe.bound == pytest.approx(sfe.constant * sfe.residual_l1,
                                          rel=1e-12)


# -- the E0/E1 split against the product search it replaced ------------------
#
# parent_galerkin_estimates is galerkin_estimates as it was when E0/E1
# root-searched the product R (phi - pi phi) with its own scan and brentq,
# and returned the whole chain with r, rbar and every factor.  The split at
# the sign changes of each factor may move only E0 and E1; every other
# number, which feeds the controller or the other bounds, must stay bit for
# bit, whether the explicit stage or the completion holds it now.

OracleEstimates = namedtuple("OracleEstimates", "e0 e1 e2 e3 e4 e5 r rbar "
                             "component_max factors flags")
OracleFactors = namedtuple("OracleFactors", "s_deriv s_mean s_interp "
                           "s1_global s2_global s_phi")


def parent_galerkin_estimates(traj, dual, problem):
    """The product-splitting galerkin_estimates, copied as the oracle."""
    from mgode.estimator import (_check_matching, _elementary_segments,
                                 _gauss_integral, _residual_zero_interpolant,
                                 _sign_change_roots, _taylor_interpolant)
    from mgode.solver import interval_residual

    _check_matching(problem, traj, dual)
    part = traj.partition
    N = traj.dimension
    flags = []

    e0_signed = 0.0
    e1 = 0.0
    e2 = 0.0
    r_prof = [np.zeros(part.n_intervals(i)) for i in range(N)]
    rbar_prof = [np.zeros(part.n_intervals(i)) for i in range(N)]
    comp_max = np.zeros(N)
    s_deriv = np.zeros(N)
    s_mean = np.zeros(N)
    s_interp = np.zeros(N)
    l2_weighted_sq = 0.0
    s2_sq = 0.0
    degraded = False

    for i in range(N):
        method = traj.methods[i]
        for j in range(part.n_intervals(i)):
            t0, t1 = part.span(i, j)
            k = t1 - t0
            q = traj.order(i, j)
            tab = tableau(method, q)
            p, cq = tab.deriv_order, tab.interp_const
            npts = 2 * (q + 2)
            n_scan = 8 * (q + 2)

            if dual.local_order(i, t0, t1) < p:
                degraded = True
                flags.append(
                    f"component {i} interval {j}: dual degree "
                    f"{dual.local_order(i, t0, t1)} < required derivative order {p}"
                )

            Rfn = lambda s: interval_residual(traj, problem, i, j, s)  # noqa: E731
            phi_loc = lambda s: dual.values(i, t0 + k * s, "left")  # noqa: E731
            _, r_abs, _ = integrate_splitting(Rfn, 0.0, 1.0, npts=npts,
                                              n_scan=n_scan)
            r_ij = r_abs
            jmp = traj.jump(i, j)
            rbar_ij = r_ij + abs(jmp) / k
            r_prof[i][j] = r_ij
            rbar_prof[i][j] = rbar_ij

            dfn = partial(dual.values, i, side="left", order=p)
            cuts = dual.piece_boundaries(i, t0, t1)
            _, s_abs, _ = integrate_splitting(dfn, t0, t1, npts=npts,
                                              n_scan=n_scan, splits=cuts)
            s_ij = s_abs / k
            s_deriv[i] += k * s_ij

            pi_fn = _taylor_interpolant(dual, i, 0.5 * (t0 + t1), p - 1)
            prod = lambda s: Rfn(s) * (phi_loc(s) - pi_fn(t0 + k * s))  # noqa: E731
            signed, absval, _ = integrate_splitting(
                prod, 0.0, 1.0, npts=npts, n_scan=n_scan,
                splits=part.coordinate(i, j, cuts))
            e0_signed += k * signed
            e1 += k * absval
            dphi0 = dual.value(i, t0, "left") - float(pi_fn(t0)[0])
            e0_signed += jmp * dphi0
            e1 += abs(jmp) * abs(dphi0)

            comp_max[i] = max(comp_max[i], cq * k**p * rbar_ij)
            e2 += cq * k ** (p + 1) * rbar_ij * s_ij

            R2 = lambda s: Rfn(s) ** 2  # noqa: E731
            int_R2 = k * _gauss_integral(R2, 0.0, 1.0, npts)
            c_over_k = abs(jmp) / k
            int_rbar2 = int_R2 + 2.0 * c_over_k * (k * r_ij) + c_over_k**2 * k
            l2_weighted_sq += (cq * k**p) ** 2 * int_rbar2

            d2 = lambda ts: dfn(ts) ** 2  # noqa: E731
            pieces = [t0] + list(cuts) + [t1]
            for a, b in zip(pieces[:-1], pieces[1:]):
                s2_sq += _gauss_integral(d2, a, b, npts)

            mean = _gauss_integral(lambda ts: dual.values(i, ts, "left"),
                                   t0, t1, 6) / k
            s_mean[i] += k * abs(mean)
            pi_rz = _residual_zero_interpolant(dual, traj, i, j)
            diff = lambda s: np.abs(phi_loc(s) - pi_rz(s))  # noqa: E731
            s_interp[i] += k ** (1 - p) * _gauss_integral(diff, 0.0, 1.0,
                                                          2 * (q + 3))

    s1_global = 0.0
    s_phi = 0.0
    phi_norm = lambda ts: np.sqrt(np.sum(np.stack(  # noqa: E731
        [dual.values(i, ts, "left") for i in range(N)])**2, axis=0))
    segs = _elementary_segments(traj, dual)
    for a, b in zip(segs[:-1], segs[1:]):
        mid = 0.5 * (a + b)
        fns = []
        qmax = 1
        for i in range(N):
            q = traj.order(i, part.point(i, mid, "left")[0])
            qmax = max(qmax, q)
            fns.append(partial(dual.values, i,
                               order=tableau(traj.methods[i], q).deriv_order))
        npts = 2 * (qmax + 2)
        n_scan = 8 * (qmax + 2)
        if N == 1:
            s1_global += integrate_splitting(fns[0], a, b, npts=npts,
                                             n_scan=n_scan)[1]
        else:
            cuts = [c for fn in fns for c in _sign_change_roots(fn, a, b, n_scan)]
            norm = lambda ts: np.sqrt(np.sum(np.stack([fn(ts) for fn in fns])**2,
                                             axis=0))  # noqa: E731
            pieces = [a] + sorted(c for c in cuts if a < c < b) + [b]
            for lo, hi in zip(pieces[:-1], pieces[1:]):
                s1_global += _gauss_integral(norm, lo, hi, npts)
        s_phi += _gauss_integral(phi_norm, a, b, 8)

    e0 = abs(e0_signed)
    e3 = float(np.sum(s_deriv * comp_max))
    e4 = s1_global * math.sqrt(N) * float(np.max(comp_max)) if N else 0.0
    s2_global = math.sqrt(s2_sq)
    e5 = s2_global * math.sqrt(l2_weighted_sq)
    if degraded:
        e2 = e3 = e4 = e5 = float("nan")
    factors = OracleFactors(s_deriv=s_deriv, s_mean=s_mean,
                            s_interp=s_interp, s1_global=s1_global,
                            s2_global=s2_global, s_phi=s_phi)
    return OracleEstimates(e0=e0, e1=e1, e2=e2, e3=e3, e4=e4, e5=e5,
                           r=r_prof, rbar=rbar_prof, component_max=comp_max,
                           factors=factors, flags=flags)


MIXED_METHODS = ("mcG", "mdG", "mcG", "mcG", "mdG", "mcG", "mdG", "mcG")


def kepler_mixed_run():
    """Kepler on a mixed-family multirate partition with per-interval orders
    and non-dyadic steps, its dual on a twice refined partition."""
    T = 0.88
    prob = model("kepler_2body").problem(T=T, methods=MIXED_METHODS)
    steps = [0.1, 0.06, [0.325, 0.555], T / 7, 0.05, 0.1, T / 9, 0.15]
    uniform = build_partition(steps, 1, T)
    orders = [[max(1 if m == "mcG" else 0, 1 + j % 3)
               for j in range(uniform.n_intervals(i))]
              for i, m in enumerate(MIXED_METHODS)]
    part = build_partition(steps, orders, T, methods=MIXED_METHODS)
    traj = solve(prob, part, SolveSettings(tolerance=1e-13, quad_depth=1))
    dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=np.full(8, 0.35)),
                      dual_partition_for(part, 1, 2),
                      SolveSettings(tolerance=1e-13))
    return prob, traj, dual


def kepler_uniform_run():
    """Kepler from the acceptance #12 start: mcG(2), k = 0.1, T = 2,
    quad_depth 1."""
    prob = model("kepler_2body").problem(T=2.0, methods="mcG")
    part = build_partition(0.1, 2, 2.0, methods=prob.methods)
    traj = solve(prob, part, SolveSettings(tolerance=1e-11, quad_depth=1))
    dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=np.full(8, 0.35)),
                      dual_partition_for(part, 1, 1),
                      SolveSettings(tolerance=1e-11))
    return prob, traj, dual


def single_rate_run(method, q, problem=linear2):
    prob = problem(method)
    _, traj, dual = run_with_dual(prob, q, 0.1)
    return prob, traj, dual


def mixed_order_multirate_run():
    """linear_system with (mcG, mdG), orders [2, 1] and steps [1/24, 1/32]:
    the elementary segments are finer than the stage's pieces, and the
    lower-order component's scan differs from its own on every segment."""
    prob = model("linear_system").problem(methods=("mcG", "mdG"))
    part = build_partition([1 / 24, 1 / 32], [2, 1], prob.T,
                           methods=prob.methods)
    settings = SolveSettings(tolerance=1e-13)
    traj = solve(prob, part, settings)
    dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[0.6, 0.8]),
                      dual_partition_for(part, 1, 2), settings)
    return prob, traj, dual


SPLIT_CASES = {
    "kepler_mixed": kepler_mixed_run,
    "kepler_mcG2": kepler_uniform_run,
    "linear_mcG1": lambda: single_rate_run("mcG", 1),
    "linear_mcG2": lambda: single_rate_run("mcG", 2),
    "linear_mdG0": lambda: single_rate_run("mdG", 0),
    "linear_mdG1": lambda: single_rate_run("mdG", 1),
    "linear_mdG2": lambda: single_rate_run("mdG", 2),
    "linear_mixed_multirate": mixed_order_multirate_run,
    # N = 1: at mcG(2) each segment is a stage piece, at mdG(0) q != qmax
    "decay_mcG2": lambda: single_rate_run("mcG", 2, decay),
    "decay_mdG0": lambda: single_rate_run("mdG", 0, decay),
}


SINGLE_RATE = [name for name in SPLIT_CASES
               if name not in ("kepler_mixed", "linear_mixed_multirate")]


class TestFactorSplit:
    @pytest.fixture(scope="class")
    def pairs(self):
        """Case name -> (the explicit stage, galerkin_estimates completing
        it, the oracle) on that run."""
        out = {}
        for name, run in SPLIT_CASES.items():
            prob, traj, dual = run()
            stage = explicit_estimates(prob, traj, dual)
            out[name] = (stage, galerkin_estimates(traj, dual, prob, stage),
                         parent_galerkin_estimates(traj, dual, prob))
        return out

    @pytest.mark.parametrize("name", list(SPLIT_CASES))
    def test_all_but_e0_e1_bit_for_bit(self, pairs, name):
        stage, got, ref = pairs[name]
        for a, b in zip(stage.r + stage.rbar, ref.r + ref.rbar):
            assert np.array_equal(a, b)
        assert np.array_equal(stage.component_max, ref.component_max)
        # the stage holds the derivative and mean factors, the completion
        # the rest
        for field, want in ref.factors._asdict().items():
            holder = stage if field in ("s_deriv", "s_mean") else got.factors
            assert np.array_equal(getattr(holder, field), want), field
        assert (got.e2, stage.e3, got.e4, got.e5) == (ref.e2, ref.e3, ref.e4,
                                                      ref.e5)
        assert stage.flags == ref.flags

    # on the multirate case R jumps inside a reader's intervals, and E0/E1
    # move by more
    @pytest.mark.parametrize("name", SINGLE_RATE)
    def test_e0_e1_agree_on_single_rate_runs(self, pairs, name):
        _, got, ref = pairs[name]
        assert got.e0 == pytest.approx(ref.e0, rel=1e-10, abs=0.0)
        assert got.e1 == pytest.approx(ref.e1, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("name", list(SPLIT_CASES))
    def test_e1_dominates_e0(self, pairs, name):
        _, got, _ = pairs[name]
        assert got.e1 >= got.e0


def test_no_residual_point_set_is_evaluated_twice(monkeypatch):
    # R is read once per interval on each point set: the scan, each Brent
    # step of its own roots, the Gauss nodes of each piece of r (which E0/E1
    # and E5 reuse), and only the E0/E1 pieces that a dual cut or a root of
    # phi - pi phi splits further
    prob, traj, dual = kepler_uniform_run()
    seen = []
    residual = mgode.estimator.interval_residual

    def recording(traj_, problem, i, j, s):
        seen.append((i, j, tuple(np.atleast_1d(s).tolist())))
        return residual(traj_, problem, i, j, s)

    monkeypatch.setattr(mgode.estimator, "interval_residual", recording)
    galerkin_estimates(traj, dual, prob, explicit_estimates(prob, traj, dual))
    assert len(seen) > traj.partition.total_intervals
    assert len(set(seen)) == len(seen)


def grid_run():
    """The effectivity grid's mcG(2), k = 0.1 case: linear_system, the
    terminal weight along the true error, the dual refined 4 times."""
    entry = model("linear_system")
    prob = entry.problem(methods="mcG")
    part = build_partition(0.1, 2, prob.T, methods=prob.methods)
    settings = SolveSettings(tolerance=1e-13)
    traj = solve(prob, part, settings)
    e = entry.closed_form(prob.T) - traj.end_state()
    dual = solve_dual(DualSpec(problem=prob, primal=traj,
                               phi_T=e / np.linalg.norm(e)),
                      dual_partition_for(part, 1, 4), settings)
    return prob, traj, dual


def recording_dual_reads(monkeypatch):
    """Record each DualSolution.values call as (component, times, side,
    order)."""
    reads = []
    values = DualSolution.values

    def recording(self, i, ts, side="left", order=0):
        reads.append((i, np.atleast_1d(ts).tobytes(), side, order))
        return values(self, i, ts, side, order)

    monkeypatch.setattr(DualSolution, "values", recording)
    return reads


def test_the_completion_reads_no_dual_derivative_the_stage_read(monkeypatch):
    # the stage's pieces of phi_i^(p) are the grid's elementary segments: the
    # completion takes their roots and Gauss values from the stage
    prob, traj, dual = grid_run()
    reads = recording_dual_reads(monkeypatch)
    stage = explicit_estimates(prob, traj, dual)
    stage_reads = set(reads)
    del reads[:]
    galerkin_estimates(traj, dual, prob, stage)
    derivative_reads = [key for key in reads if key[3] >= 1]
    assert derivative_reads
    assert not stage_reads.intersection(derivative_reads)


def test_segments_that_are_no_stage_piece_are_scanned(monkeypatch):
    # on the mixed-order multirate run the segment loop scans the dual
    # derivatives itself (test_all_but_e0_e1_bit_for_bit checks its numbers
    # against the oracle)
    prob, traj, dual = mixed_order_multirate_run()
    stage = explicit_estimates(prob, traj, dual)
    scans = []
    roots = mgode.estimator._sign_change_roots

    def recording(fn, a, b, n_scan):
        if isinstance(fn, partial):          # a dual derivative
            scans.append(fn.args[0])
        return roots(fn, a, b, n_scan)

    monkeypatch.setattr(mgode.estimator, "_sign_change_roots", recording)
    galerkin_estimates(traj, dual, prob, stage)
    assert set(scans) == {0, 1}


def multirate_linear_cases(count):
    """Random mixed-family multirate linear systems with a closed form,
    drawn from np.random.default_rng(0): N in {2, 3}, A = normal(N, N) -
    1.5 I, u0 normal, a family per component with both families present, q
    in {1, 2} for mcG and {0, 1, 2} for mdG, and steps base / d with base in
    {0.1, 0.05, 0.125} and a different d in {1, 2, 3, 4} per component, so
    no two components step alike."""
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(count):
        n = int(rng.choice([2, 3]))
        A = rng.normal(size=(n, n)) - 1.5 * np.eye(n)
        u0 = rng.normal(size=n)
        methods = [str(m) for m in rng.choice(["mcG", "mdG"], size=n)]
        if len(set(methods)) == 1:
            methods[int(rng.integers(n))] = "mdG" if methods[0] == "mcG" else "mcG"
        orders = [int(rng.choice([1, 2] if m == "mcG" else [0, 1, 2]))
                  for m in methods]
        base = float(rng.choice([0.1, 0.05, 0.125]))
        steps = [base / int(d) for d in rng.choice([1, 2, 3, 4], size=n,
                                                   replace=False)]
        cases.append((A, u0, tuple(methods), orders, steps))
    return cases


MULTIRATE_CASES = multirate_linear_cases(8)


@pytest.mark.parametrize("case", MULTIRATE_CASES, ids=[
    f"{n}-" + "-".join(f"{m}{q}" for m, q in zip(c[2], c[3]))
    for n, c in enumerate(MULTIRATE_CASES)])
def test_explicit_bound_covers_mixed_family_multirate_error(case):
    # the slabs here pin mcG and solve mdG intervals side by side; the
    # explicit bound (E3 + E_C + E_Q) that adapt reads must cover the exact
    # error e(T), with the terminal weight along e(T)
    A, u0, methods, orders, steps = case
    T = 1.0
    prob = OdeProblem(rhs=lambda U, t: A @ U, u0=u0, T=T,
                      jacobian=lambda u, t: A, methods=methods, vectorized=True)
    part = build_partition(steps, orders, T, methods=methods)
    settings = SolveSettings(tolerance=1e-13)
    traj = solve(prob, part, settings)
    e = sla.expm(A * T) @ u0 - traj.end_state()
    dual = solve_dual(DualSpec(problem=prob, primal=traj,
                               phi_T=e / np.linalg.norm(e)),
                      dual_partition_for(part, 1, 4), settings)
    assert estimate(prob, traj, dual).explicit_total >= np.linalg.norm(e)


def mixed_multirate_run():
    """linear_system with (mcG, mdG) on a multirate partition, orders
    [2, 1], and its dual on a twice refined partition."""
    prob = model("linear_system").problem(methods=("mcG", "mdG"))
    part = build_partition([[0.03] * 10 + [0.07] * 10, [0.1] * 10], [2, 1],
                           prob.T, methods=prob.methods)
    settings = SolveSettings(tolerance=1e-13, quad_depth=1)
    traj = solve(prob, part, settings)
    dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0, 0.0]),
                      dual_partition_for(part, 1, 2), settings)
    return prob, traj, dual


def degraded_run():
    """mdG(1) with a dual of order 1, which cannot supply p = 2."""
    prob = linear2("mdG")
    _, traj, dual = run_with_dual(prob, 1, 0.1, incr=0)
    return prob, traj, dual


STAGE_CASES = {
    "linear_mcG2": lambda: single_rate_run("mcG", 2),
    "linear_mdG1": lambda: single_rate_run("mdG", 1),
    "mixed_multirate": mixed_multirate_run,
    "degraded_mdG1": degraded_run,
}


def same(a, b):
    return np.array_equal(a, b, equal_nan=True)


class TestExplicitStage:
    """The explicit stage, which adapt steers on in every round, holds the
    bits of the report that estimate completes from it."""

    @pytest.fixture(scope="class")
    def stages(self):
        """Case name -> (explicit stage, estimate's report) on that run."""
        out = {}
        for name, run in STAGE_CASES.items():
            prob, traj, dual = run()
            out[name] = (explicit_estimates(prob, traj, dual),
                         estimate(prob, traj, dual))
        return out

    @pytest.mark.parametrize("name", list(STAGE_CASES))
    def test_bits_equal_to_the_report(self, stages, name):
        stage, report = stages[name]
        assert same(stage.explicit_total, report.explicit_total)
        assert same(stage.e3, report.e3)
        assert same(stage.e_c, report.e_c) and same(stage.e_q, report.e_q)
        for field in ("r", "rbar", "rc", "rq_bound"):
            got, want = getattr(stage, field), getattr(report, field)
            assert len(got) == len(want)
            assert all(same(a, b) for a, b in zip(got, want)), field
        assert same(stage.s_deriv, report.s_deriv)
        assert same(stage.s_mean, report.s_mean)
        assert stage.flags == report.flags

    def test_degraded_dual_flags_a_nan_bound(self, stages):
        stage, report = stages["degraded_mdG1"]
        assert stage.flags
        assert math.isnan(stage.e3) and math.isnan(stage.explicit_total)
        assert math.isnan(report.e3) and math.isnan(report.explicit_total)

    def test_completing_a_stage_gives_the_same_report(self):
        prob, traj, dual = mixed_multirate_run()
        stage = explicit_estimates(prob, traj, dual)
        got = estimate(prob, traj, dual, stage)
        want = estimate(prob, traj, dual)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.rc is stage.rc and got.s_deriv is stage.s_deriv

    def test_stage_of_another_run_is_refused(self):
        # equal numbers, other objects: a stage is tied to what it read
        prob, traj, dual = single_rate_run("mcG", 1)
        _, traj2, dual2 = single_rate_run("mcG", 1)
        stage = explicit_estimates(prob, traj2, dual2)
        for args in ((prob, traj, dual2), (prob, traj2, dual),
                     (linear2("mcG"), traj2, dual2)):
            with pytest.raises(ValueError, match="explicit stage was computed "
                               "for another problem, trajectory or dual"):
                estimate(*args, stage)


def test_an_estimate_keeps_no_run_alive():
    # the root search leaves no reference cycle over the residual: the
    # trajectory and the dual die when the caller drops them, without the
    # cyclic collector
    prob = model("linear_decay").problem()
    gc.disable()
    try:
        _, traj, dual = run_with_dual(prob, 1, 0.25)
        report = estimate(prob, traj, dual)
        refs = [weakref.ref(traj), weakref.ref(dual)]
        del traj, dual
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert alive == [False, False]
    assert math.isfinite(report.total)
