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

    def test_suggested_ratios_mark_fast_components(self):
        entry = model("kepler_2body")
        ratios = np.asarray(entry.suggested_step_ratios)
        # inner-orbit components move faster and get smaller relative steps
        assert np.all(ratios[[0, 1, 4, 5]] < ratios[[2, 3, 6, 7]])
