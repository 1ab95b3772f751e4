"""Built-in test problems with analytic right-hand sides and Jacobians.

Every entry carries what the solver and the test batteries need: a vectorized
right-hand side, its Jacobian, default initial data and horizon, and where
available a closed-form solution, a conserved energy and, where f is
sparse, the components each f_i reads.  Each rhs fills a preallocated array
row by row.  An entry whose rhs computes every column by elementwise
arithmetic alone declares it ``columnwise`` (see ``OdeProblem``); the
entries built on a matrix product do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .solver import OdeProblem
from .tableau import _brent_root


@dataclass(frozen=True)
class ModelCatalogEntry:
    """One catalog problem; ``rhs``/``jacobian`` are pure callables and the
    entry itself is immutable."""

    name: str
    dimension: int
    rhs: Callable
    jacobian: Callable
    u0: np.ndarray
    T_default: float
    description: str = ""
    closed_form: Callable | None = None
    invariant: Callable | None = None
    dependencies: tuple[tuple[int, ...], ...] | None = None
    columnwise: bool = False

    def problem(self, T: float | None = None, u0=None,
                methods="mcG") -> OdeProblem:
        u0 = np.asarray(self.u0 if u0 is None else u0, dtype=float)
        if u0.size != self.dimension:
            raise ValueError(
                f"model {self.name!r} has dimension {self.dimension}, "
                f"got {u0.size} initial values"
            )
        return OdeProblem(
            rhs=self.rhs,
            u0=u0,
            T=self.T_default if T is None else float(T),
            jacobian=self.jacobian,
            methods=methods,
            vectorized=True,
            name=self.name,
            dependencies=self.dependencies,
            columnwise=self.columnwise,
        )


def _linear_decay() -> ModelCatalogEntry:
    def rhs(u, t):
        return -u

    def jac(u, t):
        return np.array([[-1.0]])

    return ModelCatalogEntry(
        name="linear_decay", dimension=1, rhs=rhs, jacobian=jac,
        u0=np.array([1.0]), T_default=1.0,
        description="scalar decay u' = -u with closed form u0 exp(-t)",
        closed_form=lambda t: np.array([np.exp(-t)]),
        columnwise=True,
    )


_LINSYS_A = np.array([[-1.0, 2.0], [0.5, -3.0]])


def _linear_system() -> ModelCatalogEntry:
    A = _LINSYS_A

    def rhs(u, t):
        return A @ u

    def jac(u, t):
        return A

    u0 = np.array([1.0, -0.5])

    def closed(t):
        from scipy.linalg import expm

        return expm(A * float(t)) @ u0

    return ModelCatalogEntry(
        name="linear_system", dimension=2, rhs=rhs, jacobian=jac,
        u0=u0, T_default=1.0,
        description="2x2 nonsymmetric stable linear system, matrix-exponential closed form",
        closed_form=closed,
    )


_HARMONIC_OMEGA2 = 2.0  # second pair oscillates twice as fast


def _harmonic() -> ModelCatalogEntry:
    w2 = _HARMONIC_OMEGA2

    def rhs(u, t):
        out = np.empty((4,) + np.shape(u[0]))
        out[0] = u[2]
        out[1] = u[3]
        out[2] = -u[0]
        out[3] = -(w2**2) * u[1]
        return out

    def jac(u, t):
        J = np.zeros((4, 4))
        J[0, 2] = 1.0
        J[1, 3] = 1.0
        J[2, 0] = -1.0
        J[3, 1] = -(w2**2)
        return J

    u0 = np.array([1.0, 1.0, 0.0, 0.0])

    def closed(t):
        x1 = u0[0] * np.cos(t) + u0[2] * np.sin(t)
        v1 = -u0[0] * np.sin(t) + u0[2] * np.cos(t)
        x2 = u0[1] * np.cos(w2 * t) + u0[3] / w2 * np.sin(w2 * t)
        v2 = -w2 * u0[1] * np.sin(w2 * t) + u0[3] * np.cos(w2 * t)
        return np.array([x1, x2, v1, v2])

    def energy(u):
        u = np.asarray(u, dtype=float)
        return 0.5 * (u[2]**2 + u[3]**2) + 0.5 * (u[0]**2 + w2**2 * u[1]**2)

    return ModelCatalogEntry(
        name="harmonic", dimension=4, rhs=rhs, jacobian=jac,
        u0=u0, T_default=10.0,
        description="two uncoupled oscillators [x1, x2, v1, v2], frequencies 1 and 2",
        closed_form=closed, invariant=energy,
        dependencies=((2,), (3,), (0,), (1,)),
        columnwise=True,
    )


_KEPLER_ECC = 0.5
_KEPLER_A = (1.0, 4.0)  # semi-major axes: inner (fast) and outer (slow) orbit


def _kepler_position(a: float, e: float, t: float) -> tuple[float, float, float, float]:
    """Position and velocity on a Kepler ellipse started at perihelion,
    gravitational parameter 1, via the eccentric-anomaly equation."""
    n_mean = a ** (-1.5)
    M = n_mean * t
    M = np.mod(M + np.pi, 2.0 * np.pi) - np.pi

    def kepler_eq(E):
        return E - e * np.sin(E) - M

    E = _brent_root(kepler_eq, M - 1.1 * e - 1e-9, M + 1.1 * e + 1e-9,
                    1e-15, 8.9e-16)
    x = a * (np.cos(E) - e)
    y = a * np.sqrt(1.0 - e**2) * np.sin(E)
    r = a * (1.0 - e * np.cos(E))
    dE = n_mean * a / r
    vx = -a * np.sin(E) * dE
    vy = a * np.sqrt(1.0 - e**2) * np.cos(E) * dE
    return x, y, vx, vy


def _kepler_2body() -> ModelCatalogEntry:
    e = _KEPLER_ECC
    a_in, a_out = _KEPLER_A

    def rhs(u, t):
        # positions (x1, y1, x2, y2) in rows 0-3, velocities in rows 4-7;
        # r holds |x_b|^3 of both bodies, one row each
        x = u[:4]
        sq = x * x
        r = (sq[0::2] + sq[1::2]) ** 1.5
        out = np.empty((8,) + np.shape(x)[1:])
        out[:4] = u[4:8]
        np.divide(-x, r.repeat(2, axis=0), out=out[4:])
        return out

    def _grav_block(x, y):
        r2 = x**2 + y**2
        r3 = r2**1.5
        r5 = r2**2.5
        return np.array([
            [-1.0 / r3 + 3.0 * x * x / r5, 3.0 * x * y / r5],
            [3.0 * x * y / r5, -1.0 / r3 + 3.0 * y * y / r5],
        ])

    def jac(u, t):
        J = np.zeros((8, 8))
        J[0, 4] = J[1, 5] = J[2, 6] = J[3, 7] = 1.0
        J[4:6, 0:2] = _grav_block(u[0], u[1])
        J[6:8, 2:4] = _grav_block(u[2], u[3])
        return J

    # both orbits start at perihelion on the x axis
    u0 = np.array([
        a_in * (1.0 - e), 0.0,
        a_out * (1.0 - e), 0.0,
        0.0, np.sqrt((1.0 + e) / (a_in * (1.0 - e))),
        0.0, np.sqrt((1.0 + e) / (a_out * (1.0 - e))),
    ])

    def closed(t):
        x1, y1, vx1, vy1 = _kepler_position(a_in, e, float(t))
        x2, y2, vx2, vy2 = _kepler_position(a_out, e, float(t))
        return np.array([x1, y1, x2, y2, vx1, vy1, vx2, vy2])

    def energy(u):
        u = np.asarray(u, dtype=float)
        k = 0.5 * (u[4]**2 + u[5]**2 + u[6]**2 + u[7]**2)
        p = -1.0 / np.hypot(u[0], u[1]) - 1.0 / np.hypot(u[2], u[3])
        return k + p

    return ModelCatalogEntry(
        name="kepler_2body", dimension=8, rhs=rhs, jacobian=jac,
        u0=u0, T_default=2.0 * np.pi,
        description="two independent Kepler orbits (fast inner, slow outer), "
                    "eccentricity 0.5",
        closed_form=closed, invariant=energy,
        dependencies=((4,), (5,), (6,), (7,), (0, 1), (0, 1), (2, 3), (2, 3)),
        columnwise=True,
    )


_LORENZ_PARAMS = (10.0, 28.0, 8.0 / 3.0)


def _lorenz() -> ModelCatalogEntry:
    sigma, rho, beta = _LORENZ_PARAMS

    def rhs(u, t):
        out = np.empty((3,) + np.shape(u[0]))
        out[0] = sigma * (u[1] - u[0])
        out[1] = u[0] * (rho - u[2]) - u[1]
        out[2] = u[0] * u[1] - beta * u[2]
        return out

    def jac(u, t):
        return np.array([
            [-sigma, sigma, 0.0],
            [rho - u[2], -1.0, -u[0]],
            [u[1], u[0], -beta],
        ])

    return ModelCatalogEntry(
        name="lorenz", dimension=3, rhs=rhs, jacobian=jac,
        u0=np.array([1.0, 1.0, 1.0]), T_default=1.0,
        description="Lorenz system, conventional parameters (10, 28, 8/3)",
        dependencies=((1,), (0, 2), (0, 1)),
        columnwise=True,
    )


_MONOTONE_Q = np.array([
    [2.0, 0.5, 0.0],
    [0.5, 1.5, 0.3],
    [0.0, 0.3, 1.0],
])


def _monotone_gradient() -> ModelCatalogEntry:
    Q = _MONOTONE_Q

    def rhs(u, t):
        nrm2 = np.sum(u * u, axis=0)
        return -(Q @ u) - nrm2 * u

    def jac(u, t):
        u = np.asarray(u, dtype=float)
        return -(Q + np.dot(u, u) * np.eye(3) + 2.0 * np.outer(u, u))

    return ModelCatalogEntry(
        name="monotone_gradient", dimension=3, rhs=rhs, jacobian=jac,
        u0=np.array([1.0, -1.0, 0.5]), T_default=1.0,
        description="negative gradient of the convex potential "
                    "u.Qu/2 + |u|^4/4 (monotone right-hand side)",
    )


_FACTORIES = (
    _linear_decay,
    _linear_system,
    _harmonic,
    _kepler_2body,
    _lorenz,
    _monotone_gradient,
)

_CATALOG = {entry.name: entry for entry in (f() for f in _FACTORIES)}


def model_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def model(name: str) -> ModelCatalogEntry:
    """Look up a catalog entry by name."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(_CATALOG)}"
        ) from None
