import numpy as np
import pytest

from mgode.models import _kepler_position, model, model_names
from mgode.partition import build_partition
from mgode.solver import OdeProblem, SolveSettings, solve

EXPECTED_NAMES = {"linear_decay", "linear_system", "harmonic", "kepler_2body",
                  "lorenz", "monotone_gradient"}


class TestCatalog:
    def test_names(self):
        assert set(model_names()) == EXPECTED_NAMES

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            model("three_body")

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_jacobian_matches_finite_differences(self, name, rng):
        entry = model(name)
        fd = OdeProblem(rhs=entry.rhs, u0=entry.u0, T=1.0,
                        vectorized=True).jacobian_or_fd()
        for _ in range(5):
            u = entry.u0 + 0.3 * rng.normal(size=entry.dimension)
            t = float(rng.uniform(0.1, 0.9))
            Ja = np.asarray(entry.jacobian(u, t), dtype=float)
            Jf = fd(u, t)
            scale = 1.0 + np.max(np.abs(Ja))
            assert np.max(np.abs(Ja - Jf)) / scale < 1e-5

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_rhs_vectorization_consistent(self, name, rng):
        entry = model(name)
        U = entry.u0[:, None] + 0.1 * rng.normal(size=(entry.dimension, 7))
        ts = np.linspace(0.1, 0.9, 7)
        batch = entry.rhs(U, ts)
        for p in range(7):
            np.testing.assert_allclose(batch[:, p],
                                       entry.rhs(U[:, p], float(ts[p])),
                                       atol=1e-14)


class TestClosedForms:
    def test_linear_decay(self):
        entry = model("linear_decay")
        np.testing.assert_allclose(entry.closed_form(0.7), [np.exp(-0.7)],
                                   atol=1e-15)

    def test_linear_system_solves_ode(self):
        entry = model("linear_system")
        h = 1e-6
        t = 0.37
        du = (entry.closed_form(t + h) - entry.closed_form(t - h)) / (2 * h)
        np.testing.assert_allclose(du, entry.rhs(entry.closed_form(t), t),
                                   atol=1e-7)

    def test_harmonic_energy_constant_along_closed_form(self):
        entry = model("harmonic")
        E0 = entry.invariant(entry.u0)
        for t in np.linspace(0, 5, 11):
            assert entry.invariant(entry.closed_form(float(t))) == \
                pytest.approx(E0, abs=1e-12)

    def test_kepler_period(self):
        # eccentric-anomaly oracle: the inner orbit closes after 2 pi a^(3/2)
        entry = model("kepler_2body")
        period = 2.0 * np.pi
        u = entry.closed_form(period)
        np.testing.assert_allclose(u[[0, 1, 4, 5]], entry.u0[[0, 1, 4, 5]],
                                   atol=1e-10)
        # ... while the outer orbit (a = 4) needs 8x longer
        outer = entry.closed_form(8.0 * period)
        np.testing.assert_allclose(outer[[2, 3, 6, 7]], entry.u0[[2, 3, 6, 7]],
                                   atol=1e-9)

    def test_kepler_position_conserves_energy(self):
        for t in np.linspace(0, 10, 7):
            x, y, vx, vy = _kepler_position(1.0, 0.5, float(t))
            E = 0.5 * (vx**2 + vy**2) - 1.0 / np.hypot(x, y)
            assert E == pytest.approx(-0.5, abs=1e-12)

    def test_kepler_closed_form_matches_solver(self):
        entry = model("kepler_2body")
        prob = entry.problem(T=1.0)
        part = build_partition(0.01, 2, 1.0, methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-12, quad_depth=2))
        np.testing.assert_allclose(traj.end_state(), entry.closed_form(1.0),
                                   atol=1e-7)

    def test_kepler_energy_drift_small(self):
        # gravitational forces are not integrated exactly by the node rule,
        # so the drift floor is set by the composite quadrature accuracy
        entry = model("kepler_2body")
        prob = entry.problem(T=2.0)
        part = build_partition([0.02, 0.02, 0.08, 0.08] * 2, 2, 2.0,
                               methods=prob.methods)
        traj = solve(prob, part, SolveSettings(tolerance=1e-12, max_sweeps=600,
                                               quad_depth=3))
        E0 = entry.invariant(entry.u0)
        for t in part.synchronized_levels()[1:]:
            assert abs(entry.invariant(traj.state(float(t), "left")) - E0) <= 1e-10

    def test_kepler_rhs_matches_row_by_row_formulation(self):
        # The rhs fuses its row writes and powers; on stacked (8, P) states
        # it keeps the bits, sign bits included, of one write and one power
        # per row.
        def row_by_row(u):
            x1, y1, x2, y2 = u[0], u[1], u[2], u[3]
            r1 = (x1**2 + y1**2) ** 1.5
            r2 = (x2**2 + y2**2) ** 1.5
            out = np.empty((8,) + np.shape(x1))
            out[0], out[1], out[2], out[3] = u[4], u[5], u[6], u[7]
            out[4], out[5] = -x1 / r1, -y1 / r1
            out[6], out[7] = -x2 / r2, -y2 / r2
            return out

        rhs = model("kepler_2body").rhs
        rng = np.random.default_rng(12)
        states = [rng.standard_normal((8, P)) * rng.uniform(0.1, 4.0)
                  for P in rng.integers(1, 20, size=2000)]
        signed = rng.standard_normal((8, 5))
        signed[[0, 3, 4, 7]] = [[0.0], [-0.0], [-0.0], [0.0]]
        for u in states + [signed]:
            got = rhs(u, 0.0)
            assert np.array_equal(got.view(np.int64), row_by_row(u).view(np.int64))
            # one state as a vector, as a per-point problem passes it: the
            # bits of its column in the stacked call
            col = rhs(u[:, -1], 0.0)
            assert col.shape == (8,)
            assert np.array_equal(col.view(np.int64), got[:, -1].view(np.int64))

class TestMonotone:
    def test_monotonicity_certificate(self, rng):
        entry = model("monotone_gradient")
        u = rng.normal(size=(3, 10_000))
        v = rng.normal(size=(3, 10_000))
        fu = entry.rhs(u, 0.0)
        fv = entry.rhs(v, 0.0)
        dots = np.sum((fu - fv) * (u - v), axis=0)
        assert np.max(dots) <= 0.0


class TestProblemFactory:
    def test_overrides(self):
        entry = model("linear_decay")
        prob = entry.problem(T=2.5, u0=[3.0], methods="mdG")
        assert prob.T == 2.5
        assert prob.u0[0] == 3.0
        assert prob.methods == ("mdG",)


# The np.stack bodies the catalog rhs replaced, kept as oracles: each rhs now
# fills a preallocated array row by row with the same expressions.
def _stack_harmonic(u, t):
    w2 = 2.0
    return np.stack([u[2], u[3], -u[0], -(w2**2) * u[1]])


def _stack_kepler(u, t):
    x1, y1, x2, y2 = u[0], u[1], u[2], u[3]
    r1 = (x1**2 + y1**2) ** 1.5
    r2 = (x2**2 + y2**2) ** 1.5
    return np.stack([u[4], u[5], u[6], u[7],
                     -x1 / r1, -y1 / r1, -x2 / r2, -y2 / r2])


def _stack_lorenz(u, t):
    sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0
    return np.stack([
        sigma * (u[1] - u[0]),
        u[0] * (rho - u[2]) - u[1],
        u[0] * u[1] - beta * u[2],
    ])


STACK_ORACLES = {"harmonic": _stack_harmonic, "kepler_2body": _stack_kepler,
                 "lorenz": _stack_lorenz}
SPARSE_MODELS = sorted(STACK_ORACLES)


class TestRowFilledRhs:
    @pytest.mark.parametrize("cols", [None, 1, 7], ids=["N", "Nx1", "NxP"])
    @pytest.mark.parametrize("name", SPARSE_MODELS)
    def test_equals_stack_formula(self, name, cols, rng):
        entry = model(name)
        shape = (entry.dimension,) if cols is None else (entry.dimension, cols)
        u0 = entry.u0 if cols is None else entry.u0[:, None]
        for _ in range(5):
            u = u0 + 0.3 * rng.normal(size=shape)
            t = 0.4 if cols is None else np.linspace(0.1, 0.9, cols)
            new, ref = entry.rhs(u, t), STACK_ORACLES[name](u, t)
            assert new.shape == ref.shape == shape
            assert new.dtype == ref.dtype
            assert np.array_equal(new, ref)


class TestDependencies:
    def test_declared_for_the_sparse_models(self):
        declared = {n for n in model_names() if model(n).dependencies is not None}
        assert declared == set(SPARSE_MODELS)
        prob = model("kepler_2body").problem(u0=model("kepler_2body").u0 * 2.0)
        assert prob.dependencies == ((0, 4), (1, 5), (2, 6), (3, 7),
                                     (0, 1, 4), (0, 1, 5), (2, 3, 6), (2, 3, 7))
        assert model("linear_system").problem().dependencies is None

    @pytest.mark.parametrize("name", SPARSE_MODELS)
    def test_pattern_holds_at_random_states(self, name, rng):
        # Jacobian zero outside the pattern, and rhs row i bitwise unchanged
        # when the components outside entry i change
        entry = model(name)
        deps = entry.problem().dependencies
        N = entry.dimension
        for _ in range(20):
            u = entry.u0 + 0.5 * rng.normal(size=N)
            t = float(rng.uniform(0.0, 1.0))
            J = np.asarray(entry.jacobian(u, t), dtype=float)
            f = entry.rhs(u, t)
            for i in range(N):
                outside = np.setdiff1d(np.arange(N), deps[i])
                assert not J[i, outside].any()
                v = u.copy()
                v[outside] = 3.0 * rng.normal(size=len(outside))
                assert np.array_equal(entry.rhs(v, t)[i], f[i])


COLUMNWISE_MODELS = ["harmonic", "kepler_2body", "linear_decay", "lorenz"]


class TestColumnwise:
    def test_declared_for_the_elementwise_models(self):
        declared = {n for n in model_names() if model(n).columnwise}
        assert declared == set(COLUMNWISE_MODELS)
        assert model("lorenz").problem().columnwise
        # both multiply by a matrix, which BLAS rounds by column count
        for name in ("linear_system", "monotone_gradient"):
            assert not model(name).problem().columnwise

    @pytest.mark.parametrize("name", COLUMNWISE_MODELS)
    def test_a_column_has_the_same_bits_alone_and_in_a_batch(self, name):
        # the declaration's promise, as the slab solver relies on it: every
        # column of a call of 1-400 columns equals the same state's call
        # on that column alone
        entry = model(name)
        rng = np.random.default_rng(30)
        for P in (1, 2, 3, 7, 16, 33, 150, 400):
            U = entry.u0[:, None] + 0.5 * rng.normal(size=(entry.dimension, P))
            ts = rng.uniform(0.0, entry.T_default, size=P)
            batch = entry.rhs(U, ts)
            for p in range(P):
                alone = entry.rhs(np.ascontiguousarray(U[:, p:p + 1]), ts[p:p + 1])
                assert np.array_equal(batch[:, p:p + 1], alone), (P, p)
