import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from mgode.dual import DualSpec, _reverse_partition, dual_partition_for, jstar, solve_dual
from mgode.partition import PartitionError, build_partition
from mgode.solver import OdeProblem, SolveSettings, solve

A2 = np.array([[-1.0, 2.0], [0.5, -3.0]])


def solved_linear(method="mcG", q=2, k=0.02):
    prob = OdeProblem(rhs=lambda u, t: A2 @ u, u0=[1.0, -0.5], T=1.0,
                      jacobian=lambda u, t: A2, methods=method)
    part = build_partition(k, q, 1.0, methods=prob.methods)
    traj = solve(prob, part, SolveSettings(tolerance=1e-13))
    return prob, part, traj


class TestJstar:
    def test_linear_rhs_gives_transpose(self):
        jac = lambda u, t: A2  # noqa: E731
        for sp in (1, 2, 5):
            J = jstar([1.0, 2.0], [0.5, -1.0], 0.3, jac, sp)
            np.testing.assert_allclose(J, A2.T, atol=1e-15)

    def test_segment_average_identity_for_quadratic(self, rng):
        # transpose-average applied to the difference reproduces the
        # right-hand side difference
        f = lambda u, t: np.array([u[0]**2 + u[1], u[0] * u[1]])  # noqa: E731
        jac = lambda u, t: np.array([[2 * u[0], 1.0], [u[1], u[0]]])  # noqa: E731
        for _ in range(10):
            v1 = rng.normal(size=2)
            v2 = rng.normal(size=2)
            J = jstar(v1, v2, 0.0, jac, 2)
            np.testing.assert_allclose(J.T @ (v1 - v2), f(v1, 0) - f(v2, 0),
                                       atol=1e-13)

    def test_degenerate_segment(self):
        jac = lambda u, t: np.array([[u[0], 0.0], [1.0, u[1]]])  # noqa: E731
        v = np.array([0.3, -0.4])
        np.testing.assert_allclose(jstar(v, v, 0.0, jac, 4), jac(v, 0).T,
                                   atol=0)

    def test_nonfinite_rejected(self):
        jac = lambda u, t: np.array([[np.nan]])  # noqa: E731
        with pytest.raises(ValueError):
            jstar([1.0], [2.0], 0.0, jac, 2)


class TestSolveDual:
    def test_scalar_decay_closed_form(self):
        prob = OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0,
                          jacobian=lambda u, t: np.array([[-1.0]]),
                          methods="mcG")
        part = build_partition(0.05, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0]),
                          dual_partition_for(part, 1),
                          SolveSettings(tolerance=1e-13))
        for t in np.linspace(0.0, 1.0, 9):
            assert dual.value(0, float(t)) == pytest.approx(
                np.exp(-(1.0 - t)), abs=5e-6)

    def test_matrix_exponential_oracle(self):
        prob, part, traj = solved_linear()
        phi_T = np.array([0.3, 0.7])
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=phi_T),
                          dual_partition_for(part, 1),
                          SolveSettings(tolerance=1e-13))
        oracle = sla.expm(A2.T) @ phi_T
        np.testing.assert_allclose(dual.state(0.0), oracle, atol=1e-12)

    def test_zero_problem_constant_dual(self):
        prob = OdeProblem(rhs=lambda u, t: 0.0 * u, u0=[1.0, 2.0], T=1.0,
                          jacobian=lambda u, t: np.zeros((2, 2)),
                          methods="mcG")
        part = build_partition(0.25, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part)
        dual = solve_dual(DualSpec(problem=prob, primal=traj,
                                   phi_T=[0.5, -1.0]),
                          dual_partition_for(part))
        for t in (0.0, 0.3, 0.77, 1.0):
            assert dual.value(0, t) == pytest.approx(0.5, abs=1e-13)
            assert dual.value(1, t) == pytest.approx(-1.0, abs=1e-13)

    def test_forcing_enters(self):
        # f = 0, g = 1: phi(t) = phi_T + (T - t)
        prob = OdeProblem(rhs=lambda u, t: 0.0 * u, u0=[1.0], T=1.0,
                          jacobian=lambda u, t: np.zeros((1, 1)),
                          methods="mcG")
        part = build_partition(0.25, 1, 1.0, methods=prob.methods)
        traj = solve(prob, part)
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0],
                                   g=lambda t: np.array([1.0])),
                          dual_partition_for(part),
                          SolveSettings(tolerance=1e-13))
        for t in (0.0, 0.5, 1.0):
            assert dual.value(0, t) == pytest.approx(2.0 - t, abs=1e-12)

    def test_finite_difference_jacobian_fallback(self):
        prob = OdeProblem(rhs=lambda u, t: -u**3, u0=[1.0], T=0.5,
                          methods="mcG")
        part = build_partition(0.05, 1, 0.5, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-12))
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0]),
                          dual_partition_for(part, 1),
                          SolveSettings(tolerance=1e-10))
        assert np.isfinite(dual.value(0, 0.0))

    def test_reference_linearization_accepted(self):
        prob, part, traj = solved_linear()
        fine_part = build_partition(0.01, 2, 1.0, methods=prob.methods)
        fine = solve(prob, fine_part, SolveSettings(tolerance=1e-13))
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0, 0.0],
                                   reference=fine),
                          dual_partition_for(part, 1),
                          SolveSettings(tolerance=1e-12))
        # linear problem: linearization point is irrelevant
        base = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0, 0.0]),
                          dual_partition_for(part, 1),
                          SolveSettings(tolerance=1e-12))
        assert dual.value(0, 0.0) == pytest.approx(base.value(0, 0.0), abs=1e-11)

    def test_phi_T_validation(self):
        prob, part, traj = solved_linear()
        with pytest.raises(ValueError):
            DualSpec(problem=prob, primal=traj, phi_T=[1.0])
        with pytest.raises(ValueError):
            DualSpec(problem=prob, primal=traj, phi_T=[np.inf, 0.0])

    def test_mismatched_primal_or_reference_rejected(self):
        # a primal or reference of another size or horizon fails at once,
        # not after a dual solve
        prob, _, traj = solved_linear()
        scalar = OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0, methods="mcG")
        longer = OdeProblem(rhs=lambda u, t: A2 @ u, u0=[1.0, -0.5], T=2.0,
                            methods="mcG")
        narrow = solve(scalar, build_partition(0.25, 1, 1.0, methods=scalar.methods))
        long = solve(longer, build_partition(0.25, 1, 2.0, methods=longer.methods))
        for name, bad, want in (("primal", narrow, "1 components up to T = 1.0"),
                                ("primal", long, "2 components up to T = 2.0"),
                                ("reference", narrow, "1 components up to T = 1.0"),
                                ("reference", long, "2 components up to T = 2.0")):
            kwargs = {"primal": traj, name: bad}
            with pytest.raises(ValueError, match=f"^{name} has {want}, the "
                               "problem 2 up to T = 1.0$"):
                DualSpec(problem=prob, phi_T=[1.0, 0.0], **kwargs)


class TestReversalBookkeeping:
    def test_double_reversal_reproduces_structure(self):
        part = build_partition([[0.2, 0.3, 0.5], 0.25], [[1, 2, 1], 3], 1.0,
                               methods=("mcG", "mcG"))
        back = _reverse_partition(_reverse_partition(part))
        assert back.T == part.T
        for a, b in zip(back.orders, part.orders):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(back.breakpoints, part.breakpoints):
            np.testing.assert_allclose(a, b, atol=1e-15)
            assert a[0] == 0.0 and a[-1] == part.T

    def test_derivative_sign_convention(self):
        # phi(t) = exp(-(T - t)) has positive first and second derivatives
        prob = OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0,
                          jacobian=lambda u, t: np.array([[-1.0]]),
                          methods="mcG")
        part = build_partition(0.05, 2, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-13))
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[1.0]),
                          dual_partition_for(part, 1),
                          SolveSettings(tolerance=1e-13))
        assert dual.value(0, 0.5, order=1) == pytest.approx(np.exp(-0.5), rel=1e-4)
        assert dual.value(0, 0.5, order=2) == pytest.approx(np.exp(-0.5), rel=1e-2)

    def test_dual_partition_refinement(self):
        part = build_partition(0.5, 1, 1.0, methods=("mcG",))
        fine = dual_partition_for(part, order_increment=2, refine=4)
        assert fine.n_intervals(0) == 8
        np.testing.assert_array_equal(fine.orders[0], 3)
        assert fine.breakpoints[0][-1] == 1.0

    def test_dual_refinement_capped_before_allocating(self):
        part = build_partition(0.1, 1, 1.0, methods=("mcG",))
        assert part.n_intervals(0) == 10
        tracemalloc.start()
        try:
            with pytest.raises(PartitionError, match="dual intervals"):
                dual_partition_for(part, refine=2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2e7 breakpoints would take 160 MB as float64
        assert peak < 1_000_000

    def test_batched_accessors_match_scalar(self):
        prob, part, traj = solved_linear()
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[0.3, 0.7]),
                          dual_partition_for(part, 1),
                          SolveSettings(tolerance=1e-12))
        ts = np.array([0.0, 0.13, 0.5, 0.98, 1.0])
        for i in (0, 1):
            batch = dual.values(i, ts)
            for t, v in zip(ts, batch):
                assert dual.value(i, float(t)) == pytest.approx(v, abs=0)
            dbatch = dual.values(i, ts, order=1)
            for t, v in zip(ts, dbatch):
                assert dual.value(i, float(t), order=1) == pytest.approx(v, abs=0)

    @pytest.mark.parametrize("side", ["Left", "middle", None])
    def test_invalid_side_rejected_for_one_time_and_many(self, side):
        # a typo must not read the other limit, on the primal or the dual
        prob, part, traj = solved_linear("mdG", q=1, k=0.25)
        dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=[0.3, 0.7]),
                          dual_partition_for(part, 1),
                          SolveSettings(tolerance=1e-12))
        message = "side must be 'left' or 'right'"
        for ts in (np.array([0.5]), np.array([0.25, 0.5])):
            with pytest.raises(ValueError, match=message):
                traj.values(0, ts, side, 0)
            with pytest.raises(ValueError, match=message):
                dual.values(0, ts, side)
        with pytest.raises(ValueError, match=message):
            dual.value(0, 0.5, side)


class TestStackedDualRhs:
    # The dual rhs applies the frozen linearization of all P times of one
    # call with a single stacked np.matmul.  BLAS rounds a matrix-vector
    # product by the matrix's memory layout, so the stacked product must
    # equal the column loop Jt @ psi[:, p] it replaced for Jt as the
    # F-ordered J.T view jstar returns for a C-ordered Jacobian, and as a
    # C-ordered array (a Jacobian returned in F order).
    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    @pytest.mark.parametrize("jt_order", ["F", "C"])
    def test_matches_column_loop(self, jt_order, forced):
        rng = np.random.default_rng(11)
        for N in range(1, 17):
            mats, calls = {}, []

            def jac(u, t):
                calls.append(t)
                J = mats.setdefault(t, 0.05 * rng.normal(size=(N, N)))
                return J if jt_order == "F" else np.asfortranarray(J)

            g = (lambda t: np.cos(np.arange(N) + t)) if forced else None
            prob = OdeProblem(rhs=lambda u, t: -u, u0=np.ones(N), T=1.0,
                              jacobian=jac, vectorized=True)
            part = build_partition([0.5] * N, 2, 1.0)
            traj = solve(prob, part)
            dual = solve_dual(DualSpec(problem=prob, primal=traj,
                                       phi_T=np.ones(N), g=g), part)
            psi_rhs = dual.psi_problem.rhs
            for P in range(1, 14):
                sigma = rng.uniform(0.0, 1.0, P)
                psi = rng.normal(size=(N, P))
                before = len(calls)
                out = psi_rhs(psi, sigma)
                assert len(calls) == before + P
                assert np.array_equal(psi_rhs(psi, sigma), out)
                assert len(calls) == before + P  # both caches hold
                ref = np.empty((N, P))
                for p in range(P):
                    t = float(1.0 - sigma[p])
                    Jt = jstar(np.zeros(N), np.zeros(N), t, jac)
                    assert Jt.flags[f"{jt_order}_CONTIGUOUS"]
                    ref[:, p] = Jt @ psi[:, p]
                    if forced:
                        ref[:, p] += g(t)
                assert np.array_equal(out, ref)
                # a vector rounds as its stacked single column
                assert np.array_equal(psi_rhs(psi[:, -1], sigma[-1]),
                                      psi_rhs(psi[:, -1:], sigma[-1:])[:, 0])
                # a time array already seen in another order stacks the
                # cached matrices, which view the first stack; the state
                # comes C-ordered, as the slab solver passes it
                perm = rng.permutation(P)
                seen = len(calls)
                assert np.array_equal(
                    psi_rhs(np.ascontiguousarray(psi[:, perm]), sigma[perm]),
                    ref[:, perm])
                assert len(calls) == seen

    # The same state in any memory layout gives the same bits: the stacked
    # product takes the state in C order.  F-ordered and fancy-indexed states
    # used to round differently at these N.
    @pytest.mark.parametrize("N", [6, 7, 10, 11, 14, 15])
    def test_state_layout_does_not_change_rounding(self, N):
        rng = np.random.default_rng(N)
        A = 0.05 * rng.normal(size=(N, N))
        prob = OdeProblem(rhs=lambda U, t: A @ U, u0=np.ones(N), T=1.0,
                          jacobian=lambda u, t: A, vectorized=True)
        part = build_partition([0.25] * N, 1, 1.0)
        dual = solve_dual(DualSpec(problem=prob, primal=solve(prob, part),
                                   phi_T=np.ones(N)), part)
        psi_rhs = dual.psi_problem.rhs
        for _ in range(20):
            P = int(rng.integers(2, 14))
            sigma = rng.uniform(0.0, 1.0, P)
            psi = rng.normal(size=(N, P))
            out = psi_rhs(psi, sigma)
            fancy = psi[:, np.arange(P)]
            assert not fancy.flags.c_contiguous
            for state in (np.asfortranarray(psi), fancy):
                assert np.array_equal(psi_rhs(state, sigma), out)

    # A plain vector, strided or not, gives the bits of the same state as a
    # stacked C-ordered single column.  A strided column psi[:, p] used to
    # round by its stride at these N.
    @pytest.mark.parametrize("N", [6, 7, 10, 11, 14, 15])
    def test_vector_rounds_as_its_stacked_column(self, N):
        rng = np.random.default_rng(N)
        A = 0.05 * rng.normal(size=(N, N))
        prob = OdeProblem(rhs=lambda U, t: A @ U, u0=np.ones(N), T=1.0,
                          jacobian=lambda u, t: A, vectorized=True)
        part = build_partition([0.25] * N, 1, 1.0)
        dual = solve_dual(DualSpec(problem=prob, primal=solve(prob, part),
                                   phi_T=np.ones(N)), part)
        psi_rhs = dual.psi_problem.rhs
        for _ in range(200):
            P = int(rng.integers(2, 14))
            psi = rng.normal(size=(N, P))
            p = int(rng.integers(P))
            s = float(rng.uniform(0.0, 1.0))
            column = np.ascontiguousarray(psi[:, p])[:, None]
            assert np.array_equal(psi_rhs(psi[:, p], s),
                                  psi_rhs(column, [s])[:, 0])


# -- one refinement path: the seed's two paths as the oracle -------------------

def seed_dual_partition_for(partition, order_increment=1, refine=1):
    """The seed's dual partition: a copy at refine 1, else a per-interval
    np.linspace loop."""
    from mgode.tableau import MAX_ORDER
    breakpoints, orders = [], []
    for bp, qs in zip(partition.breakpoints, partition.orders):
        if refine == 1:
            breakpoints.append(bp.copy())
            orders.append(np.minimum(qs + order_increment, MAX_ORDER))
        else:
            pts, new_q = [0.0], []
            for j in range(len(bp) - 1):
                sub = np.linspace(bp[j], bp[j + 1], refine + 1)[1:]
                pts.extend(sub.tolist())
                new_q.extend([min(int(qs[j]) + order_increment, MAX_ORDER)] * refine)
            pts[-1] = partition.T
            breakpoints.append(np.asarray(pts))
            orders.append(np.asarray(new_q, dtype=int))
    return breakpoints, orders


def _irregular_partitions():
    rng = np.random.default_rng(7)
    methods = ("mcG", "mdG", "mcG")
    for T in (1.0, 0.7, 2.0 * np.pi):
        steps = []
        for n in (3, 7, 11):
            k = rng.uniform(0.2, 1.0, n)
            steps.append((k / k.sum() * T).tolist())
        orders = [rng.integers(1, 13, len(s)).tolist() for s in steps]
        yield build_partition(steps, orders, T, methods=methods)
    yield build_partition([0.1, 0.05, 1.0 / 3.0], [2, 0, 12], 1.0, methods=methods)


@pytest.mark.parametrize("refine", [1, 2, 3, 4, 5])
def test_dual_partition_matches_linspace_loop(refine):
    for part in _irregular_partitions():
        for inc in (0, 1, 2):
            got = dual_partition_for(part, inc, refine)
            bps, qs = seed_dual_partition_for(part, inc, refine)
            for i in range(part.n_components):
                assert np.array_equal(got.breakpoints[i], bps[i])
                assert np.array_equal(got.orders[i], qs[i])
                assert got.orders[i].dtype.kind == "i"
                if refine == 1:
                    assert np.array_equal(got.breakpoints[i], part.breakpoints[i])
                # the per-interval linspace loop at refine 1 too
                loop = np.concatenate([[0.0]] + [
                    np.linspace(a, b, refine + 1)[1:]
                    for a, b in zip(part.breakpoints[i][:-1],
                                    part.breakpoints[i][1:])])
                loop[-1] = part.T
                assert np.array_equal(got.breakpoints[i], loop)
