"""Acceptance battery: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line; the detailed per-feature behavior lives
in the dedicated module tests.  Run with -s (or read the captured output) to
see the verdict lines and the logged effectivity indices.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

import mgode.tableau as tb
from mgode.controller import AdaptSettings, adapt
from mgode.dual import DualSpec, dual_partition_for, solve_dual
from mgode.estimator import (
    _integral_of_rhs,
    estimate,
    error_representation,
    quadrature_residual,
    stability_factor_error,
)
from mgode.models import model
from mgode.partition import build_partition
from mgode.solver import OdeProblem, SolveSettings, solve
from mgode.tableau import radau_polynomial

A2 = np.array([[-1.0, 2.0], [0.5, -3.0]])
CHAIN_SLACK = 1e-10


def _verdict(num, name, ok):
    print(f"\nACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {num} failed: {name}"


def linear2(method="mcG"):
    return OdeProblem(rhs=lambda u, t: A2 @ u, u0=[1.0, -0.5], T=1.0,
                      jacobian=lambda u, t: A2, methods=method)


def test_01_node_oracles():
    start = time.time()
    ok = True
    ok &= np.allclose(tb.lobatto_nodes(2), [0.0, 0.5, 1.0], atol=1e-12)
    ok &= np.allclose(
        tb.lobatto_nodes(3),
        [0.0, (1 - 1/np.sqrt(5)) / 2, (1 + 1/np.sqrt(5)) / 2, 1.0],
        atol=1e-12)
    ok &= np.allclose(tb.radau_nodes(1), [1/3, 1.0], atol=1e-12)
    ok &= np.allclose(
        tb.radau_nodes(2),
        [(4 - np.sqrt(6)) / 10, (4 + np.sqrt(6)) / 10, 1.0], atol=1e-12)
    ok &= (time.time() - start) < 1.0
    _verdict(1, "Lobatto/Radau node oracles at 1e-12 in under 1 s", ok)


def test_02_coefficient_identities():
    ok = True
    for q in range(1, 13):
        tab = tb.tableau(tb.MCG, q)
        xg, wg = tb.gauss_rule_01(q + 2)
        dtrial = tb.differentiation_matrix(tab.nodes).T @ tb.lagrange_matrix(tab.nodes, xg)
        a_col0 = (tb.lagrange_matrix(tab.test_nodes, xg) * wg) @ dtrial[0]
        ok &= bool(np.max(np.abs(tab.amat_inv @ a_col0 + 1.0)) <= 1e-11)
    for q in range(0, 13):
        tab = tb.tableau(tb.MDG, q)
        lam0 = tb.lagrange_matrix(tab.nodes, 0.0)[:, 0]
        ok &= bool(np.max(np.abs(tab.amat_inv @ lam0 - 1.0)) <= 1e-11)
    _verdict(2, "inverse-coefficient identities for q <= 12 at 1e-11", ok)


def test_03_convergence_orders():
    def rhs(u, t):
        return -u + np.cos(t)

    def exact(t):
        return 0.5 * np.exp(-t) + 0.5 * (np.cos(t) + np.sin(t))

    start = time.time()
    ok = True
    for method, qs in (("mcG", (1, 2, 3)), ("mdG", (0, 1, 2))):
        for q in qs:
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
            slope = float(np.polyfit(np.log(ks), np.log(errs), 1)[0])
            target = 2 * q if method == "mcG" else 2 * q + 1
            ok &= abs(slope - target) <= 0.2
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    _verdict(3, f"orders 2q / 2q+1 within 0.2 in {elapsed:.1f} s (< 30 s)", ok)


def test_04_energy_conservation():
    # two Hamiltonian systems with paired position/velocity steps and a
    # 2:1 step ratio between the pairs; depth-3 composite quadrature
    harmonic = model("harmonic")

    kappa = 0.8

    def spring_rhs(u, t):
        d = u[0] - u[1]
        return np.stack([u[2], u[3], -u[0] - kappa * d, -u[1] + kappa * d])

    def spring_energy(u):
        return (0.5 * (u[2]**2 + u[3]**2) + 0.5 * (u[0]**2 + u[1]**2)
                + 0.5 * kappa * (u[0] - u[1])**2)

    systems = [
        ("oscillators", harmonic.rhs, harmonic.invariant,
         np.array([1.0, 1.0, 0.0, 0.0])),
        ("coupled pair", spring_rhs, spring_energy,
         np.array([1.0, -0.5, 0.0, 0.3])),
    ]
    ok = True
    worst = 0.0
    for _, rhs, energy, u0 in systems:
        prob = OdeProblem(rhs=rhs, u0=u0, T=10.0, methods="mcG",
                          vectorized=True)
        for q in (1, 2, 3):
            part = build_partition([0.1, 0.05, 0.1, 0.05], q, 10.0,
                                   methods=prob.methods)
            traj = solve(prob, part,
                         SolveSettings(tolerance=1e-12, max_sweeps=800,
                                       quad_depth=3))
            E0 = energy(u0)
            dev = max(abs(energy(traj.state(float(t), "left")) - E0)
                      for t in part.synchronized_levels()[1:])
            worst = max(worst, dev)
            ok &= dev <= 1e-8
    _verdict(4, f"energy drift at synchronized levels {worst:.2e} <= 1e-8", ok)


def test_05_contraction_for_monotone_rhs():
    entry = model("monotone_gradient")
    ok = True
    for q in (0, 1, 2):
        prob1 = entry.problem(T=2.0, methods="mdG")
        prob2 = entry.problem(T=2.0, u0=entry.u0 + np.array([0.4, -0.3, 0.2]),
                              methods="mdG")
        part = build_partition([0.1, 0.05, 0.2], q, 2.0, methods=prob1.methods)
        s = SolveSettings(tolerance=1e-12, max_sweeps=500)
        t1 = solve(prob1, part, s)
        t2 = solve(prob2, part, s)
        d_prev = np.linalg.norm(prob1.u0 - prob2.u0)
        for t in part.synchronized_levels()[1:]:
            d = np.linalg.norm(t1.state(float(t), "left")
                               - t2.state(float(t), "left"))
            ok &= d <= d_prev + 1e-10
            d_prev = d
    _verdict(5, "solution distance nonincreasing for monotone systems", ok)


@pytest.mark.parametrize("method,q,k,refine", [
    ("mcG", 1, 0.05, 4), ("mcG", 2, 0.05, 4), ("mcG", 3, 0.2, 4),
    ("mdG", 0, 0.025, 16), ("mdG", 1, 0.05, 4), ("mdG", 2, 0.1, 4),
])
def test_06_error_representation(method, q, k, refine):
    prob = linear2(method)
    part = build_partition(k, q, 1.0, methods=prob.methods)
    traj = solve(prob, part, SolveSettings(tolerance=1e-13))
    eT = traj.end_state() - sla.expm(A2) @ prob.u0
    dual = solve_dual(
        DualSpec(problem=prob, primal=traj, phi_T=eT / np.linalg.norm(eT)),
        dual_partition_for(part, 1, refine), SolveSettings(tolerance=1e-13))
    rep = error_representation(traj, dual, prob, depth=3)
    rel = abs(rep - np.linalg.norm(eT)) / np.linalg.norm(eT)
    _verdict(6, f"representation {method}({q}) rel err {rel:.2e} <= 1e-4",
             rel <= 1e-4)


def test_07_estimate_chain_matrix():
    models_under_test = [model("linear_system"), model("monotone_gradient")]
    ok = True
    for entry in models_under_test:
        for method, qs in (("mcG", (1, 2, 3)), ("mdG", (0, 1, 2))):
            for q in qs:
                prob = entry.problem(methods=method)
                part = build_partition(0.1, q, prob.T, methods=prob.methods)
                traj = solve(prob, part, SolveSettings(tolerance=1e-12))
                n = prob.dimension
                dual = solve_dual(
                    DualSpec(problem=prob, primal=traj,
                             phi_T=np.full(n, 1.0 / np.sqrt(n))),
                    dual_partition_for(part, 1, 2),
                    SolveSettings(tolerance=1e-12))
                e0, e1, e2, e3, e4, e5 = estimate(prob, traj, dual).chain
                ok &= e0 <= e1 + CHAIN_SLACK
                ok &= e1 <= e2 + CHAIN_SLACK
                ok &= e2 <= e3 + CHAIN_SLACK
                ok &= e3 <= e4 + CHAIN_SLACK
                ok &= e2 <= e5 + CHAIN_SLACK
    _verdict(7, "estimate chain on the 12-run matrix (slack 1e-10)", ok)


def test_08_bound_validity_and_effectivity():
    ok = True
    effectivities = []
    for method, q in (("mcG", 1), ("mcG", 2), ("mdG", 1)):
        for k in (0.1, 0.05, 0.025):
            prob = linear2(method)
            part = build_partition(k, q, 1.0, methods=prob.methods)
            traj = solve(prob, part, SolveSettings(tolerance=1e-13))
            eT = traj.end_state() - sla.expm(A2) @ prob.u0
            dual = solve_dual(
                DualSpec(problem=prob, primal=traj,
                         phi_T=eT / np.linalg.norm(eT)),
                dual_partition_for(part, 1, 4),
                SolveSettings(tolerance=1e-13))
            report = estimate(prob, traj, dual)
            enorm = float(np.linalg.norm(eT))
            ok &= report.total >= enorm
            effectivities.append(report.total / enorm)
    print("\neffectivity indices:",
          " ".join(f"{e:.2f}" for e in effectivities))
    _verdict(8, "total bound >= |e(T)| on all closed-form runs", ok)


@pytest.mark.parametrize("method,q", [("mcG", 1), ("mcG", 2),
                                      ("mdG", 1), ("mdG", 2)])
def test_09_dyadic_quadrature_law(method, q):
    def rhs(u, t):
        val = np.sin(10.0 * t)
        return np.broadcast_to(val, np.shape(u)).astype(float)

    prob = OdeProblem(rhs=rhs, u0=[0.0], T=1.0, methods=method,
                      vectorized=True)
    part = build_partition(0.25, q, 1.0, methods=prob.methods)
    traj = solve(prob, part, SolveSettings(tolerance=1e-14))
    deltas = [quadrature_residual(traj, prob, 0, 1, m).delta for m in range(5)]
    target = 2.0 ** (-2 * q) if method == "mcG" else 2.0 ** (-1 - 2 * q)
    ratio = abs(deltas[4]) / abs(deltas[3])
    ok = abs(ratio - target) <= 0.2 * target
    # bound validity against the depth-8 reference
    k = part.step(0, 1)
    deep = _integral_of_rhs(traj, prob, 0, 1, 8)
    for m in (0, 1, 2):
        true_rq = (_integral_of_rhs(traj, prob, 0, 1, m) - deep) / k
        ok &= abs(true_rq) <= quadrature_residual(traj, prob, 0, 1, m).bound
    _verdict(9, f"dyadic ratio {method}({q}) {ratio:.4f} ~ {target:.4f} "
                "and bound validity", ok)


def test_10_radau_orthogonality():
    ok = True
    for q in range(1, 7):
        xg, wg = np.polynomial.legendre.leggauss(q + 6)
        vals = radau_polynomial(q, xg)
        for p in range(1, q + 1):
            ok &= abs(float(wg @ (vals * (xg + 1.0) ** p))) <= 1e-12
    _verdict(10, "shape-polynomial orthogonality for q <= 6 at 1e-12", ok)


def test_11_stability_factor_bound():
    prob = linear2()
    part = build_partition(0.1, 1, 1.0, methods=prob.methods)
    traj = solve(prob, part, SolveSettings(tolerance=1e-13))
    phi_T = np.array([1.0, 0.0])
    coarse = dual_partition_for(part, 0, 1)
    reference = dual_partition_for(part, 0, 4)
    dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=phi_T),
                      coarse, SolveSettings(tolerance=1e-13))
    ref = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=phi_T),
                     reference, SolveSettings(tolerance=1e-13))
    sfe = stability_factor_error(dual, constant=1.0)
    s_ref = stability_factor_error(ref).s_phi
    rel = abs(sfe.s_phi - s_ref) / s_ref
    _verdict(11, f"stability-factor error {rel:.2e} <= bound {sfe.bound:.2e}",
             rel <= sfe.bound)


@pytest.mark.slow
def test_12_controller():
    # scalar tolerance-driven run
    entry = model("linear_decay")
    prob = entry.problem()
    part = build_partition(0.25, 2, 1.0, methods=prob.methods)
    st = AdaptSettings(tol=1e-6, max_rounds=8, k_min=1e-6, k_max=0.5,
                       solver=SolveSettings(tolerance=1e-12))
    res = adapt(prob, part, st)
    e_T = abs(res.trajectory.end_state()[0] - np.exp(-1.0))
    ok = res.met and res.report.explicit_total <= 1e-6
    ok &= e_T <= res.report.explicit_total

    # two-rate orbital run: the fast pair must receive smaller steps
    kentry = model("kepler_2body")
    kprob = kentry.problem(T=2.0, methods="mcG")
    kpart = build_partition(0.1, 2, 2.0, methods=kprob.methods)
    kst = AdaptSettings(tol=1e-4, max_rounds=2, k_min=1e-3, k_max=0.5,
                        solver=SolveSettings(tolerance=1e-11, quad_depth=1))
    kres = adapt(kprob, kpart, kst)
    med = [float(np.median(kres.partition.steps(i))) for i in range(8)]
    fast = [0, 1, 4, 5]
    slow = [2, 3, 6, 7]
    ok &= max(med[i] for i in fast) < min(med[i] for i in slow)
    _verdict(12, "adaptation meets tolerance and separates the time scales", ok)
