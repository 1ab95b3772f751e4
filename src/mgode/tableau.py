"""Order-dependent polynomial machinery for the Galerkin time-stepping schemes.

Everything that depends only on (method, polynomial order) lives here: Legendre
polynomials, the Lobatto and Radau nodes, the local coefficient matrices of the
continuous (mcG) and discontinuous (mdG) families, their polynomial weight
functions, the folded nodal quadrature weights, and the numbers the estimator
and the step controller read per interval (derivative order, interpolation
constant, residual-zero points, product-quadrature constant, dyadic ratio).
Tableaus are built once per (method, order), checked against their defining
identities, and cached immutably, so they are safe to share across threads;
no other module keeps a per-(method, order) cache.

A node set is a read-only float array on [0, 1] (``lobatto_nodes``,
``radau_nodes``, ``MethodTableau.nodes``).  A Lagrange basis on nodes s is
read through two functions: ``lagrange_matrix(s, x)`` gives every cardinal
function at the points x, and ``differentiation_matrix(s).T @
lagrange_matrix(s, x)`` their first derivatives.  ``lagrange_matrix`` reads
one point in plain Python floats and many in one array operation; both paths
make the same roundings in the same order, from the off-diagonal factors it
caches once per node set.  Its results are read-only: a bounded LRU cache per
(node set, point set) hands the same array to every caller that asks for the
same points, since a column depends only on its own point.

The bracketed root searches live here too: a safeguarded Newton iteration
finds the node sets, and ``_brent_root``, scipy's ``brentq`` in plain Python
floats, finds the estimator's sign changes and the Kepler closed form's
eccentric anomaly.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MCG = "mcG"
MDG = "mdG"
METHODS = (MCG, MDG)

# Highest polynomial order built in double precision.  Above this the node
# residuals and the inversion of the local coefficient matrix start to eat
# into the guard digits required by the construction checks.
MAX_ORDER = 12

# Deepest dyadic refinement of the node rules: depth d has 2**d pieces, so
# this bounds a rule at 1024 pieces of at most MAX_ORDER + 1 points.
MAX_QUAD_DEPTH = 10

# Entries of the Lagrange cache, one per (node set, point set), and the most
# points an entry may hold, so that the cache stays within a few megabytes.
_LAGRANGE_CACHE_SIZE = 256
_LAGRANGE_CACHE_POINTS = 256

_NODE_RESIDUAL_TOL = 1e-13
_IDENTITY_TOL = 1e-12


class TableauError(ValueError):
    """A node set or method tableau failed one of its construction checks."""


def _is_integer(x) -> bool:
    """An int or numpy integer, and not a bool: what integer settings take."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# Legendre polynomials
# ---------------------------------------------------------------------------

def _legendre(q: int, x):
    """(P_q(x), P_q'(x)) by the three-term recurrence and the derivative
    recurrence P'_{n+1} = P'_{n-1} + (2n+1) P_n, for scalars or arrays."""
    p_prev, p = 1.0, x
    dp_prev, dp = 0.0, 1.0
    if q == 0:
        return 1.0, 0.0
    for n in range(1, q):
        p, p_prev, dp, dp_prev = (((2 * n + 1) * x * p - n * p_prev) / (n + 1), p,
                                  dp_prev + (2 * n + 1) * p, dp)
    return p, dp


def legendre_eval(q: int, x):
    """Evaluate the Legendre polynomial P_q at x via the three-term recurrence.

    Accepts scalars or arrays; x is expected in [-1, 1] but the recurrence is
    evaluated as given everywhere.
    """
    if q < 0:
        raise ValueError(f"Legendre order must be nonnegative, got {q}")
    xs = np.asarray(x, dtype=float)
    p = _legendre(q, xs)[0]
    return float(p) if xs.ndim == 0 else np.broadcast_to(p, xs.shape).copy()


def radau_polynomial(q: int, x) -> np.ndarray:
    """The degree-q polynomial (P_q(x) + P_{q+1}(x)) / (x + 1) on [-1, 1],
    with the removable singularity at x = -1 filled by its limit."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    num = legendre_eval(q, xs) + legendre_eval(q + 1, xs)
    out = np.empty_like(xs)
    at_end = xs == -1.0
    out[~at_end] = num[~at_end] / (xs[~at_end] + 1.0)
    # the limit is P_q'(-1) + P_{q+1}'(-1) = (-1)^q (q + 1)
    out[at_end] = (-1.0) ** q * (q + 1)
    return out


def interp_constant(q: int) -> float:
    """Midpoint Taylor interpolation constant 1 / (2^q q!)."""
    if q < 0:
        raise ValueError(f"order must be >= 0, got {q}")
    return 1.0 / (2.0**q * math.factorial(q))


# ---------------------------------------------------------------------------
# Node sets
# ---------------------------------------------------------------------------

def _safeguarded_newton(fun_dfun, lo, hi, flo, fhi, tol=1e-15, max_iter=100):
    """Newton iteration constrained to a sign-change bracket, bisecting whenever
    a step leaves the bracket or stalls."""
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        f, df = fun_dfun(x)
        if f == 0.0:
            return x
        # shrink the bracket
        if (f > 0) == (fhi > 0):
            hi, fhi = x, f
        else:
            lo, flo = x, f
        step = f / df if df != 0.0 else np.inf
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= tol * max(1.0, abs(x)):
            return x_new
        x = x_new
    return x


def _brent_value(f, x: float, args: tuple) -> float:
    """f(x, *args) as a float; a NaN raises ValueError."""
    fx = float(f(x, *args))
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x!r} is NaN")
    return fx


def _brent_root(f, a, b, xtol, rtol, maxiter=100, args=()):
    """A root of f(x, *args) in the sign-change bracket [a, b] by Brent's
    method, the steps of scipy's ``brentq`` transcribed float for float.

    f is read at a, then at b, then once per iteration, at a Python float.
    An end where f is exactly 0 is returned.  Ends whose values share a sign
    bit, or a NaN value of f, raise ValueError; running out of maxiter
    iterations raises RuntimeError.  Each iteration keeps the bracket
    [xcur, xblk] with |f(xcur)| <= |f(xblk)|, and stops when f(xcur) is 0 or
    the bracket's half width falls below delta = (xtol + rtol |xcur|) / 2.
    It takes the inverse-quadratic or secant step if that step is short
    enough, else bisects, and moves by at least delta."""
    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    fpre = _brent_value(f, xpre, args)
    fcur = _brent_value(f, xcur, args)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf                  # bisect unless a short step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:         # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                    # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass                     # C's inf or NaN step fails the test below
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _brent_value(f, xcur, args)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, "
                       f"value is {xcur!r}")


def _bracketed_roots(fun_dfun, count: int, what: str) -> np.ndarray:
    """Roots of a polynomial on the open interval (-1, 1) by a Chebyshev-spaced
    sign scan followed by safeguarded Newton in each bracket."""
    if count == 0:
        return np.empty(0)
    n_scan = 16 * (count + 1)
    grid = np.cos(np.pi * np.arange(n_scan, 0, -1) / (n_scan + 1))
    vals = np.array([fun_dfun(x)[0] for x in grid])
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            roots.append(_safeguarded_newton(fun_dfun, a, b, fa, fb))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    if len(roots) != count:
        raise TableauError(
            f"expected {count} interior {what} roots, found {len(roots)}"
        )
    return np.array(roots)


def lobatto_nodes(q: int) -> np.ndarray:
    """The q+1 Lobatto points on [0, 1], read-only: endpoints plus the
    interior zeros of x P_q(x) - P_{q-1}(x) mapped affinely from [-1, 1]."""
    if q < 1:
        raise ValueError(f"Lobatto node set needs order >= 1, got {q}")
    if q > MAX_ORDER:
        raise ValueError(f"order {q} above supported maximum {MAX_ORDER}")

    def g(x):
        pq, dpq = _legendre(q, x)
        pq1, dpq1 = _legendre(q - 1, x)
        return x * pq - pq1, pq + x * dpq - dpq1

    interior = _bracketed_roots(g, q - 1, "Lobatto")
    for x in interior:
        if abs(g(x)[0]) > _NODE_RESIDUAL_TOL:
            raise TableauError(f"Lobatto node residual too large at x={x!r}")
    nodes = np.concatenate(([0.0], (interior + 1.0) / 2.0, [1.0]))
    if not np.all(np.diff(nodes) > 0.0):
        raise TableauError("Lobatto nodes not strictly increasing")
    nodes.setflags(write=False)
    return nodes


def radau_nodes(q: int) -> np.ndarray:
    """The q+1 right-Radau points on [0, 1], read-only: zeros of
    P_q(x) + P_{q+1}(x) with time reversed so the right endpoint is
    included."""
    if q < 0:
        raise ValueError(f"Radau node set needs order >= 0, got {q}")
    if q > MAX_ORDER:
        raise ValueError(f"order {q} above supported maximum {MAX_ORDER}")

    def h(x):
        pq, dpq = _legendre(q, x)
        pq1, dpq1 = _legendre(q + 1, x)
        return pq + pq1, dpq + dpq1

    interior = _bracketed_roots(h, q, "Radau")
    for x in interior:
        if abs(h(x)[0]) > _NODE_RESIDUAL_TOL:
            raise TableauError(f"Radau node residual too large at x={x!r}")
    # x = -1 is always a root; reversal maps it to the right endpoint 1.
    nodes = np.sort(np.concatenate(((1.0 - interior) / 2.0, [1.0])))
    nodes[-1] = 1.0
    if not np.all(np.diff(nodes) > 0.0):
        raise TableauError("Radau nodes not strictly increasing")
    nodes.setflags(write=False)
    return nodes


# ---------------------------------------------------------------------------
# Lagrange bases
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _lagrange_factors(node_bytes: bytes) -> tuple:
    """The off-diagonal factors of a node set s: for each cardinal function
    m, the pairs (s_k, s_m - s_k) with k != m in index order, as tuples of
    Python floats and as two read-only (n, n - 1, 1) arrays."""
    nodes = np.frombuffer(node_bytes)
    n = len(nodes)
    off = ~np.eye(n, dtype=bool)
    sk = np.broadcast_to(nodes, (n, n))[off].reshape(n, n - 1, 1)
    den = (nodes[:, None] - nodes[None, :])[off].reshape(n, n - 1, 1)
    sk.setflags(write=False)
    den.setflags(write=False)
    pairs = tuple(tuple(zip(s.ravel().tolist(), d.ravel().tolist()))
                  for s, d in zip(sk, den))
    return pairs, sk, den


def lagrange_matrix(nodes: np.ndarray, x) -> np.ndarray:
    """Cardinal-function values out[n, p] = lambda_n(x[p]) for the Lagrange
    basis on the given distinct nodes, read-only.

    x is one real point (a Python or numpy float or int, a 0-d or a
    1-element array) or a 1-d sequence of them; ValueError for more
    dimensions, TypeError for anything else (None, strings, complex or
    boolean values).  One point gives one column.

    lambda_m(x) is the product of the ratios (x - s_k) / (s_m - s_k), k != m,
    multiplied in index order.  One point is read in plain Python floats,
    many in one array operation; both make the same roundings in the same
    order, so every column depends on its own point only.  The factors are
    cached once per node set, and the result once per (node set, point
    set), keyed by the float64 bytes of both, so -0.0 and 0.0 are apart: a
    repeated call returns the same array.  The cache keeps the 256 most
    recently used results of at most 256 points each.  On one node the
    product is empty, so the basis is exactly 1.
    """
    node_bytes = np.asarray(nodes, dtype=float).tobytes()
    if isinstance(x, float):
        return _cached_lagrange(node_bytes, _pack_double(x))
    xs = np.asarray(x)
    if xs.dtype != np.float64:
        if xs.dtype.kind not in "fiu":
            raise TypeError(f"Lagrange points must be real numbers, got {x!r}")
        xs = xs.astype(float)
    if xs.ndim > 1:
        raise ValueError(f"Lagrange points must be a 1-d array, got shape {xs.shape}")
    if xs.size > _LAGRANGE_CACHE_POINTS:
        return _lagrange_columns(node_bytes, xs)
    return _cached_lagrange(node_bytes, xs.tobytes())


_pack_double = struct.Struct("d").pack


@lru_cache(maxsize=_LAGRANGE_CACHE_SIZE)
def _cached_lagrange(node_bytes: bytes, point_bytes: bytes) -> np.ndarray:
    return _lagrange_columns(node_bytes, np.frombuffer(point_bytes))


def _lagrange_columns(node_bytes: bytes, xs: np.ndarray) -> np.ndarray:
    """The read-only Lagrange matrix of the node set at the 1-d float64
    points xs: one point in plain Python floats, many in one array
    operation."""
    pairs, sk, den = _lagrange_factors(node_bytes)
    if xs.size == 1:
        x = xs.item()
        out = []
        for row in pairs:
            p = 1.0
            for s, d in row:
                p *= (x - s) / d
            out.append(p)
        out = np.array(out)[:, None]
    else:
        out = np.multiply.reduce((xs - sk) / den, axis=1)
    out.setflags(write=False)
    return out


def differentiation_matrix(nodes: np.ndarray) -> np.ndarray:
    """Spectral differentiation matrix D[m, n] = lambda_n'(s_m) from
    barycentric weights."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    if n == 1:
        return np.zeros((1, 1))
    w = np.ones(n)
    for m in range(n):
        for j in range(n):
            if j != m:
                w[m] /= nodes[m] - nodes[j]
    D = np.zeros((n, n))
    for m in range(n):
        for j in range(n):
            if j != m:
                D[m, j] = (w[j] / w[m]) / (nodes[m] - nodes[j])
        D[m, m] = -np.sum(D[m, :])
    return D


@lru_cache(maxsize=None)
def gauss_rule_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [0, 1] (exact through degree 2n-1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# ---------------------------------------------------------------------------
# Method tableaus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodTableau:
    """Per-(method, order) scheme data: every number that depends only on
    the family and the order q.  The solver, the estimator and the step
    controller read them here.

    The nodal update on an interval of length k reads, with xi0 the incoming
    value (shared end value for mcG, left limit for mdG),

        xi_m = xi0 + k * sum_n quad_weights[m, n] * f(t(nodes[n])),

    where the rows m run over the solved degrees of freedom (m = 1..q for
    mcG, m = 0..q for mdG).  The rows of ``amat_inv`` are the coefficients
    of the polynomial weight functions w_m in the Lagrange basis on
    ``test_nodes``; folding the interpolatory node rule into them yields
    ``quad_weights``, which is ``scheme_rule``'s matrix at depth 0, the same
    array, made once.  ``diff`` is ``differentiation_matrix(nodes)``.

    The a posteriori numbers: the interpolation estimate of the dual uses
    its ``deriv_order``-th derivative p (q for mcG, q + 1 for mdG) with the
    constant ``interp_const`` C_q (``interp_constant`` of degree p - 1);
    the residual vanishes, to leading order, at ``residual_zeros`` (the
    interior Legendre zeros for mcG; for mdG the interval start plus the
    mirror images of the interior nodes, since the residual vanishes where
    the unreversed Radau polynomial does); ``product_constant`` c satisfies
    int_0^1 |shape_R * shape_phi| ds = c * |shape_R(1)| * |shape_phi(1)| for
    the residual and interpolation-defect shapes; and the node rule
    converges dyadically with ratio ``dyadic_ratio`` (2^(-2q) for mcG,
    2^(-1-2q) for mdG).
    """

    method: str
    order: int
    nodes: np.ndarray
    test_nodes: np.ndarray
    node_weights: np.ndarray
    amat: np.ndarray
    amat_inv: np.ndarray
    diff: np.ndarray
    deriv_order: int
    interp_const: float
    residual_zeros: np.ndarray
    product_constant: float
    dyadic_ratio: float

    def __post_init__(self):
        for arr in (self.nodes, self.test_nodes, self.node_weights,
                    self.amat, self.amat_inv, self.diff, self.residual_zeros):
            arr.setflags(write=False)

    @property
    def quad_weights(self) -> np.ndarray:
        """The folded nodal weights: ``scheme_rule``'s matrix at depth 0."""
        return scheme_rule(self.method, self.order, 0)[1]

    def weight_values(self, s) -> np.ndarray:
        """Values w_m(s) of every weight function, one row per solved nodal
        value."""
        return self.amat_inv @ lagrange_matrix(self.test_nodes, s)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "q": self.order,
            "nodes": [float(s) for s in self.nodes],
            "quad_weights": [[float(w) for w in row] for row in self.quad_weights],
        }


def build_mcg_tableau(q: int) -> MethodTableau:
    """Continuous-family tableau of order q >= 1 on the Lobatto points.

    The local q-by-q system couples the trial basis derivatives against a
    degree q-1 test basis; its inverse yields the weight functions, and the
    q+1 point Lobatto node rule folds them into nodal quadrature weights.
    """
    if q < 1:
        raise ValueError(f"mcG order must be >= 1, got {q}")
    nodes = lobatto_nodes(q)
    # degree-0 test space for q = 1: the constant
    test_nodes = lobatto_nodes(q - 1) if q >= 2 else np.array([1.0])

    xg, wg = gauss_rule_01(q + 2)
    diff = differentiation_matrix(nodes)
    vals = lagrange_matrix(nodes, xg)           # (q+1, G)
    dtrial = diff.T @ vals
    tvals = lagrange_matrix(test_nodes, xg)     # (q, G)
    a_full = (tvals * wg) @ dtrial.T            # a_full[m-1, n] = int l'_n l_{m-1}
    amat = a_full[:, 1:].copy()
    amat_inv = np.linalg.inv(amat)

    identity = amat_inv @ a_full[:, 0]
    if np.max(np.abs(identity + 1.0)) > _IDENTITY_TOL:
        raise TableauError(
            f"mcG({q}) end-value identity violated: max deviation "
            f"{np.max(np.abs(identity + 1.0)):.3e}"
        )

    rho = vals @ wg                             # interpolatory node weights

    # the residual and interpolation-defect shapes are both P_q
    xp, wp = gauss_rule_01(2 * (q + 2))
    shape = legendre_eval(q, 2.0 * xp - 1.0)
    end = legendre_eval(q, 1.0)
    return MethodTableau(
        method=MCG,
        order=q,
        nodes=nodes,
        test_nodes=test_nodes,
        node_weights=rho,
        amat=amat,
        amat_inv=amat_inv,
        diff=diff,
        deriv_order=q,
        interp_const=interp_constant(q - 1),
        residual_zeros=gauss_rule_01(q)[0],
        product_constant=float(wp @ (shape * shape)) / (end * end),
        dyadic_ratio=2.0 ** (-2 * q),
    )


def build_mdg_tableau(q: int) -> MethodTableau:
    """Discontinuous-family tableau of order q >= 0 on the right-Radau points.

    The (q+1)-square system includes the left-end jump coupling; exactness on
    constants and the incoming-value identity are checked after inversion.
    """
    if q < 0:
        raise ValueError(f"mdG order must be >= 0, got {q}")
    nodes = radau_nodes(q)
    lam0 = lagrange_matrix(nodes, 0.0)[:, 0]

    xg, wg = gauss_rule_01(q + 2)
    diff = differentiation_matrix(nodes)
    vals = lagrange_matrix(nodes, xg)
    dvals = diff.T @ vals
    amat = (vals * wg) @ dvals.T + np.outer(lam0, lam0)
    amat_inv = np.linalg.inv(amat)

    identity = amat_inv @ lam0
    if np.max(np.abs(identity - 1.0)) > _IDENTITY_TOL:
        raise TableauError(
            f"mdG({q}) incoming-value identity violated: max deviation "
            f"{np.max(np.abs(identity - 1.0)):.3e}"
        )

    rho = vals @ wg

    # the two shapes are the Radau polynomial and (x + 1) times it
    xp, wp = gauss_rule_01(2 * (q + 2))
    shape = radau_polynomial(q, 2.0 * xp - 1.0)
    end = float(radau_polynomial(q, 1.0)[0])
    return MethodTableau(
        method=MDG,
        order=q,
        nodes=nodes,
        test_nodes=nodes,
        node_weights=rho,
        amat=amat,
        amat_inv=amat_inv,
        diff=diff,
        deriv_order=q + 1,
        interp_const=interp_constant(q),
        residual_zeros=np.concatenate(([0.0], np.sort(1.0 - nodes[:-1]))),
        product_constant=float(wp @ (xp * shape * shape)) / (end * end),
        dyadic_ratio=2.0 ** (-1 - 2 * q),
    )


@lru_cache(maxsize=None, typed=True)
def tableau(method: str, q: int) -> MethodTableau:
    """The cached tableau for one (method, order).  q is any integer but a
    bool (ValueError otherwise) and is built as a Python int; the cache keys
    each argument type apart, so no caller's type reaches another's."""
    if not _is_integer(q):
        raise ValueError(f"order must be an integer, got {q!r}")
    q = int(q)
    if method == MCG:
        return build_mcg_tableau(q)
    if method == MDG:
        return build_mdg_tableau(q)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def min_order(method: str) -> int:
    return 1 if method == MCG else 0


@lru_cache(maxsize=None)
def scheme_rule(method: str, q: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite form of the nodal update rule at dyadic depth.

    Returns (points, W): the points of ``integration_rule`` and a matrix W
    with one row per solved nodal value such that
    xi_m = xi0 + k * W[m] . f(points).  At depth 0 the points are the nodes
    and W is ``MethodTableau.quad_weights``.
    """
    points, wq = integration_rule(method, q, depth)
    W = tableau(method, q).weight_values(points) * wq[None, :]
    W.setflags(write=False)
    return points, W


@lru_cache(maxsize=None)
def integration_rule(method: str, q: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite interpolatory node rule at dyadic depth for plain integrals
    over the reference interval; weights sum to 1."""
    if not 0 <= depth <= MAX_QUAD_DEPTH:
        raise ValueError(
            f"dyadic depth must lie in [0, {MAX_QUAD_DEPTH}], got {depth}")
    tab = tableau(method, q)
    pieces = 1 << depth
    s = tab.nodes
    points = (np.arange(pieces)[:, None] + s[None, :]).ravel() / pieces
    weights = np.tile(tab.node_weights / pieces, pieces)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights
