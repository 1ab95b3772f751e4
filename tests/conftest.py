"""Shared oracles and helpers for the test suite.

The single-rate reference integrator below deliberately avoids the package's
partition/slab/evaluation machinery: it steps all components together on one
uniform grid, solving each step's stage system by plain fixed-point iteration
straight from the tableau data.  It is the independent second route for the
equivalence checks.
"""

import numpy as np
import pytest

from mgode.tableau import MCG, tableau


def reference_single_rate(method, q, rhs, u0, T, n_steps,
                          tol=1e-14, max_iter=500):
    """Uniform-step implicit stepper from the raw tableau.

    Returns the array of step-end states, shape (n_steps + 1, N); for the
    discontinuous family these are the left limits at the grid points.
    """
    tab = tableau(method, q)
    s = tab.nodes
    W = tab.quad_weights
    u = np.asarray(u0, dtype=float).copy()
    k = T / n_steps
    out = [u.copy()]
    t0 = 0.0
    for _ in range(n_steps):
        t_nodes = t0 + k * s
        X = np.tile(u[:, None], (1, len(s)))
        for _ in range(max_iter):
            F = np.stack([np.asarray(rhs(X[:, n], float(t_nodes[n])), dtype=float)
                          for n in range(len(s))], axis=1)
            solved = u[:, None] + k * (F @ W.T)
            if method == MCG:
                new = np.concatenate([u[:, None], solved], axis=1)
            else:
                new = solved
            delta = float(np.max(np.abs(new - X)))
            X = new
            if delta <= tol:
                break
        u = X[:, -1].copy()
        t0 += k
        out.append(u.copy())
    return np.array(out)


def fit_slope(hs, errs):
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240611)
