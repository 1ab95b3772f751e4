import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgode.tableau as tb


class TestLegendre:
    def test_p0(self):
        assert tb.legendre_eval(0, 0.37) == 1.0

    def test_p1(self):
        assert tb.legendre_eval(1, -0.5) == -0.5

    def test_p2_at_one(self):
        # oracle: explicit polynomial (3x^2 - 1) / 2
        assert tb.legendre_eval(2, 1.0) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(-1.0, 1.0))
    def test_p3_matches_explicit(self, x):
        explicit = 0.5 * (5.0 * x**3 - 3.0 * x)
        assert tb.legendre_eval(3, x) == pytest.approx(explicit, abs=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            tb.legendre_eval(-1, 0.0)


class TestNodes:
    def test_lobatto_q1(self):
        assert np.array_equal(tb.lobatto_nodes(1), [0.0, 1.0])

    def test_lobatto_q2(self):
        np.testing.assert_allclose(tb.lobatto_nodes(2), [0.0, 0.5, 1.0],
                                   atol=1e-12)

    def test_lobatto_q3(self):
        # oracle: factor (5x^2 - 1)(x^2 - 1) / 2 of the defining polynomial
        expect = [0.0, (1 - 1/np.sqrt(5)) / 2, (1 + 1/np.sqrt(5)) / 2, 1.0]
        np.testing.assert_allclose(tb.lobatto_nodes(3), expect, atol=1e-12)

    def test_radau_q0(self):
        assert np.array_equal(tb.radau_nodes(0), [1.0])

    def test_radau_q1(self):
        # oracle: factor (3x - 1)(x + 1) / 2, reversed and mapped
        np.testing.assert_allclose(tb.radau_nodes(1), [1/3, 1.0],
                                   atol=1e-12)

    def test_radau_q2(self):
        expect = [(4 - np.sqrt(6)) / 10, (4 + np.sqrt(6)) / 10, 1.0]
        np.testing.assert_allclose(tb.radau_nodes(2), expect, atol=1e-12)

    @pytest.mark.parametrize("q", range(1, 13))
    def test_lobatto_defining_residual(self, q):
        nodes = tb.lobatto_nodes(q)
        x = 2.0 * nodes[1:-1] - 1.0
        res = x * tb.legendre_eval(q, x) - tb.legendre_eval(q - 1, x)
        assert np.all(np.abs(res) < 1e-13)

    @pytest.mark.parametrize("q", range(0, 13))
    def test_radau_defining_residual(self, q):
        nodes = tb.radau_nodes(q)
        x = 1.0 - 2.0 * nodes[:-1]
        res = tb.legendre_eval(q, x) + tb.legendre_eval(q + 1, x)
        assert np.all(np.abs(res) < 1e-13)

    @pytest.mark.parametrize("q", range(1, 13))
    def test_node_sets_well_formed(self, q):
        lob = tb.lobatto_nodes(q)
        assert lob[0] == 0.0 and lob[-1] == 1.0
        assert len(lob) == q + 1
        assert np.all(np.diff(lob) > 0)
        rad = tb.radau_nodes(q)
        assert rad[-1] == 1.0
        assert len(rad) == q + 1
        assert np.all(rad > 0.0)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            tb.lobatto_nodes(tb.MAX_ORDER + 1)


class TestLagrange:
    def test_linear_hat(self):
        vals = tb.lagrange_matrix(np.array([0.0, 1.0]), 0.25)
        assert vals[0, 0] == pytest.approx(0.75, abs=1e-15)

    def test_cardinality(self):
        nodes = tb.lobatto_nodes(5)
        vals = tb.lagrange_matrix(nodes, nodes)
        np.testing.assert_allclose(vals, np.eye(6), atol=1e-14)

    def test_quadratic_value(self):
        # oracle: lambda_1 on {0, 1/2, 1} is 4 s (1 - s)
        vals = tb.lagrange_matrix(np.array([0.0, 0.5, 1.0]), 0.25)
        assert vals[1, 0] == pytest.approx(0.75, abs=1e-14)

    def test_derivative_values(self):
        nodes = np.array([0.0, 0.5, 1.0])
        dvals = tb.differentiation_matrix(nodes).T @ tb.lagrange_matrix(nodes, 0.25)
        # lambda_1 = 4 s (1 - s), derivative 4 - 8 s
        assert dvals[1, 0] == pytest.approx(2.0, abs=1e-12)


def _apply(tab, xi0, k, fvals):
    """One nodal update from the folded quadrature weights."""
    return xi0 + k * (tab.quad_weights @ fvals)


class TestMcgTableau:
    def test_trapezoid_row(self):
        # oracle: hand-solved 1x1 system with the 2-point end-point rule
        tab = tb.tableau(tb.MCG, 1)
        np.testing.assert_allclose(tab.quad_weights, [[0.5, 0.5]], atol=1e-14)

    def test_simpson_end_row(self):
        # oracle: exact integration of the 2x2 system
        tab = tb.tableau(tb.MCG, 2)
        np.testing.assert_allclose(tab.quad_weights[-1], [1/6, 4/6, 1/6],
                                   atol=1e-14)
        np.testing.assert_allclose(tab.quad_weights[0], [5/24, 1/3, -1/24],
                                   atol=1e-14)

    @pytest.mark.parametrize("q", range(1, 13))
    def test_zero_rhs_is_constant(self, q):
        tab = tb.tableau(tb.MCG, q)
        xi = _apply(tab, 0.7, 0.3, np.zeros(q + 1))
        np.testing.assert_allclose(xi, 0.7, atol=1e-13)

    @pytest.mark.parametrize("q", range(1, 13))
    def test_rows_integrate_constants(self, q):
        tab = tb.tableau(tb.MCG, q)
        xi = _apply(tab, 0.0, 1.0, np.ones(q + 1))
        np.testing.assert_allclose(xi, tab.nodes[1:], atol=1e-12)

    @pytest.mark.parametrize("q", range(1, 7))
    def test_end_row_quadrature_exactness(self, q):
        tab = tb.tableau(tb.MCG, q)
        s = tab.nodes
        for d in range(2 * q):
            approx = tab.quad_weights[-1] @ s**d
            assert approx == pytest.approx(1.0 / (d + 1), abs=1e-12)

    @given(st.integers(1, 6), st.lists(st.floats(-2, 2), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_end_row_exact_on_low_degree(self, q, coeffs):
        # the end value reproduces the integral for degree <= 2q - 1
        coeffs = coeffs[:2 * q]
        tab = tb.tableau(tb.MCG, q)
        s = tab.nodes
        fvals = sum(c * s**d for d, c in enumerate(coeffs))
        exact = sum(c / (d + 1) for d, c in enumerate(coeffs))
        approx = float(tab.quad_weights[-1] @ fvals)
        assert approx == pytest.approx(exact, abs=1e-12)


class TestMdgTableau:
    def test_backward_euler(self):
        # oracle: hand derivation with the single right-end node
        tab = tb.tableau(tb.MDG, 0)
        assert np.array_equal(tab.nodes, [1.0])
        np.testing.assert_allclose(tab.quad_weights, [[1.0]], atol=1e-15)
        xi = _apply(tab, np.array([2.0]), 0.5, np.array([-3.0]))
        assert xi[0] == pytest.approx(2.0 + 0.5 * -3.0, abs=1e-15)

    def test_q1_constant_forcing(self):
        # exactness on constants, against the direct weak-form solve
        tab = tb.tableau(tb.MDG, 1)
        xi = _apply(tab, 0.0, 1.0, np.ones(2))
        np.testing.assert_allclose(xi, [1/3, 1.0], atol=1e-14)

    @pytest.mark.parametrize("q", range(0, 13))
    def test_zero_rhs_is_incoming(self, q):
        tab = tb.tableau(tb.MDG, q)
        xi = _apply(tab, -1.3, 0.7, np.zeros(q + 1))
        np.testing.assert_allclose(xi, -1.3, atol=1e-13)

    @pytest.mark.parametrize("q", range(0, 13))
    def test_rows_integrate_constants(self, q):
        tab = tb.tableau(tb.MDG, q)
        xi = _apply(tab, 0.0, 1.0, np.ones(q + 1))
        np.testing.assert_allclose(xi, tab.nodes, atol=1e-12)

    @pytest.mark.parametrize("q", range(0, 7))
    def test_end_row_quadrature_exactness(self, q):
        tab = tb.tableau(tb.MDG, q)
        s = tab.nodes
        for d in range(2 * q + 1):
            approx = tab.quad_weights[-1] @ s**d
            assert approx == pytest.approx(1.0 / (d + 1), abs=1e-12)


class TestIdentities:
    @pytest.mark.parametrize("q", range(1, 13))
    def test_mcg_end_value_identity(self, q):
        tab = tb.tableau(tb.MCG, q)
        xg, wg = tb.gauss_rule_01(q + 2)
        dtrial = tb.differentiation_matrix(tab.nodes).T @ tb.lagrange_matrix(tab.nodes, xg)
        a_col0 = (tb.lagrange_matrix(tab.test_nodes, xg) * wg) @ dtrial[0]
        np.testing.assert_allclose(tab.amat_inv @ a_col0, -np.ones(q),
                                   atol=1e-11)

    @pytest.mark.parametrize("q", range(0, 13))
    def test_mdg_incoming_identity(self, q):
        tab = tb.tableau(tb.MDG, q)
        lam0 = tb.lagrange_matrix(tab.nodes, 0.0)[:, 0]
        np.testing.assert_allclose(tab.amat_inv @ lam0, np.ones(q + 1),
                                   atol=1e-11)


ALL_ORDERS = ([(tb.MCG, q) for q in range(1, tb.MAX_ORDER + 1)]
              + [(tb.MDG, q) for q in range(0, tb.MAX_ORDER + 1)])


class TestRules:
    def test_scheme_rule_depth0_matches_quad_weights(self):
        tab = tb.tableau(tb.MCG, 2)
        pts, W = tb.scheme_rule(tb.MCG, 2, 0)
        np.testing.assert_allclose(pts, tab.nodes, atol=0)
        np.testing.assert_allclose(W, tab.quad_weights, atol=1e-15)

    # the nodal weights have one maker: the tableau hands out the rule's array
    @pytest.mark.parametrize("method,q", ALL_ORDERS)
    def test_quad_weights_are_the_depth0_scheme_rule(self, method, q):
        assert tb.tableau(method, q).quad_weights is tb.scheme_rule(method, q, 0)[1]

    @pytest.mark.parametrize("method,q", [(tb.MCG, 2), (tb.MDG, 1)])
    def test_scheme_rule_depth_preserves_constants(self, method, q):
        tab = tb.tableau(method, q)
        _, W = tb.scheme_rule(method, q, 3)
        want = tab.nodes[1:] if method == tb.MCG else tab.nodes
        np.testing.assert_allclose(W.sum(axis=1), want, atol=1e-13)

    def test_integration_rule_weights_sum_to_one(self):
        for depth in (0, 1, 3):
            _, w = tb.integration_rule(tb.MDG, 2, depth)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-13)

    def test_integration_rule_depth_capped(self):
        # only the rejection: a rule at depth 40 would need terabytes
        for depth in (-1, tb.MAX_QUAD_DEPTH + 1, 40):
            with pytest.raises(ValueError, match="depth"):
                tb.integration_rule(tb.MCG, 2, depth)
        with pytest.raises(ValueError, match="depth"):
            tb.scheme_rule(tb.MDG, 1, 40)

    def test_json_dump_shape(self):
        d = tb.tableau(tb.MCG, 1).to_json_dict()
        assert d["method"] == tb.MCG and d["q"] == 1
        assert d["nodes"] == [0.0, 1.0]
        np.testing.assert_allclose(d["quad_weights"], [[0.5, 0.5]], atol=1e-15)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            tb.tableau("xg", 1)


# -- one Legendre recurrence: the seed's two recurrences as oracles ------------

def seed_legendre_eval(q, x):
    """The seed's array recurrence for P_q."""
    xs = np.asarray(x, dtype=float)
    p_prev = np.ones_like(xs)
    if q == 0:
        return float(p_prev) if xs.ndim == 0 else p_prev
    p = xs.copy()
    for n in range(1, q):
        p, p_prev = ((2 * n + 1) * xs * p - n * p_prev) / (n + 1), p
    return float(p) if xs.ndim == 0 else p


def seed_value_and_derivative(q, x):
    """The seed's scalar (P_q, P_q') recurrence used by the node iterations."""
    p_prev, p = 1.0, x
    dp_prev, dp = 0.0, 1.0
    if q == 0:
        return 1.0, 0.0
    for n in range(1, q):
        p_next = ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
        dp_next = dp_prev + (2 * n + 1) * p
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
    return p, dp


def seed_lobatto(q):
    def g(x):
        pq, dpq = seed_value_and_derivative(q, x)
        pq1, dpq1 = seed_value_and_derivative(q - 1, x)
        return x * pq - pq1, pq + x * dpq - dpq1
    interior = tb._bracketed_roots(g, q - 1, "Lobatto")
    return np.concatenate(([0.0], (interior + 1.0) / 2.0, [1.0]))


def seed_radau(q):
    def h(x):
        pq, dpq = seed_value_and_derivative(q, x)
        pq1, dpq1 = seed_value_and_derivative(q + 1, x)
        return pq + pq1, dpq + dpq1
    interior = tb._bracketed_roots(h, q, "Radau")
    nodes = np.sort(np.concatenate(((1.0 - interior) / 2.0, [1.0])))
    nodes[-1] = 1.0
    return nodes


class TestOneLegendreRecurrence:
    @pytest.mark.parametrize("q", range(1, tb.MAX_ORDER + 1))
    def test_lobatto_nodes_bitwise(self, q):
        assert np.array_equal(tb.lobatto_nodes(q), seed_lobatto(q))

    @pytest.mark.parametrize("q", range(0, tb.MAX_ORDER + 1))
    def test_radau_nodes_bitwise(self, q):
        assert np.array_equal(tb.radau_nodes(q), seed_radau(q))

    @pytest.mark.parametrize("q", range(0, tb.MAX_ORDER + 2))
    def test_legendre_eval_bitwise(self, q):
        rng = np.random.default_rng(q)
        for x in (np.linspace(-1.0, 1.0, 41), rng.uniform(-1.2, 1.2, (3, 5)),
                  np.array([-0.0, 0.0, 1.0, -1.0]), np.array([0.25])):
            got = tb.legendre_eval(q, x)
            ref = seed_legendre_eval(q, x)
            assert got.shape == x.shape and got.dtype == np.float64
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
        for x in (0.37, -1.0, 1.0, -0.0, 1.1):
            got = tb.legendre_eval(q, x)
            assert isinstance(got, float) and got == seed_legendre_eval(q, x)

    def test_legendre_eval_returns_a_fresh_array(self):
        x = np.array([0.1, 0.2])
        for q in (0, 1, 2):
            out = tb.legendre_eval(q, x)
            out[:] = 9.0
            assert x.tolist() == [0.1, 0.2]


# -- per-(method, order) numbers: the estimator's former formulas as oracles --

def estimator_order_numbers(method, q):
    """(p, C_q, residual-zero points, product constant, dyadic ratio) by the
    formulas the estimator evaluated before the tableau held them."""
    degree = q - 1 if method == tb.MCG else q
    xg, wg = tb.gauss_rule_01(2 * (q + 2))
    if method == tb.MCG:
        zeros = tb.gauss_rule_01(q)[0]
        vals = tb.legendre_eval(q, 2.0 * xg - 1.0)
        integral = float(wg @ (vals * vals))
        end = tb.legendre_eval(q, 1.0)
        ratio = 2.0 ** (-2 * q)
    else:
        nodes = tb.tableau(tb.MDG, q).nodes
        zeros = np.concatenate(([0.0], np.sort(1.0 - nodes[:-1])))
        vals = tb.radau_polynomial(q, 2.0 * xg - 1.0)
        integral = float(wg @ (xg * vals * vals))
        end = float(tb.radau_polynomial(q, 1.0)[0])
        ratio = 2.0 ** (-1 - 2 * q)
    return (q if method == tb.MCG else q + 1,
            1.0 / (2.0**degree * math.factorial(degree)),
            zeros, integral / (end * end), ratio)


class TestOrderNumbers:
    @pytest.mark.parametrize("method,q", ALL_ORDERS)
    def test_fields_equal_the_estimator_formulas(self, method, q):
        tab = tb.tableau(method, q)
        p, cq, zeros, product, ratio = estimator_order_numbers(method, q)
        assert type(tab.deriv_order) is int and tab.deriv_order == p
        assert tab.interp_const == cq
        assert np.array_equal(tab.residual_zeros, zeros)
        assert tab.product_constant == product
        assert tab.dyadic_ratio == ratio
        assert np.array_equal(tab.diff, tb.differentiation_matrix(tab.nodes))
        for arr in (tab.nodes, tab.test_nodes, tab.quad_weights,
                    tab.node_weights, tab.amat, tab.amat_inv, tab.diff,
                    tab.residual_zeros):
            assert not arr.flags.writeable

    def test_numpy_integer_order_gives_python_numbers(self):
        # the cache must not hand the first caller's integer type to later
        # callers: their tableaus would not serialize to JSON
        tb.tableau.cache_clear()
        first = tb.tableau(tb.MDG, np.int64(2))
        later = tb.tableau(tb.MDG, 2)
        for tab in (first, later):
            assert type(tab.order) is int and type(tab.deriv_order) is int
            assert type(tab.interp_const) is float
            assert type(tab.dyadic_ratio) is float
            json.dumps(tab.to_json_dict())
        assert np.array_equal(first.quad_weights, later.quad_weights)

    @pytest.mark.parametrize("q", [True, 1.0, "1"])
    def test_non_integer_order_rejected(self, q):
        tb.tableau(tb.MDG, 1)     # a cached order 1 must not answer for q
        with pytest.raises(ValueError, match="order must be an integer"):
            tb.tableau(tb.MDG, q)


# -- the Lagrange cache: the uncached kernel as the oracle ----------------------

def uncached_lagrange(nodes, x):
    """The Lagrange kernel as it ran before its results were cached: one
    point in plain Python floats, many in one array operation."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    off = ~np.eye(n, dtype=bool)
    sk = np.broadcast_to(nodes, (n, n))[off].reshape(n, n - 1, 1)
    den = (nodes[:, None] - nodes[None, :])[off].reshape(n, n - 1, 1)
    if isinstance(x, np.ndarray) and x.shape in ((), (1,)):
        x = x.item()
    if isinstance(x, float):
        x = float(x)
        out = []
        for s_row, d_row in zip(sk, den):
            p = 1.0
            for s, d in zip(s_row.ravel().tolist(), d_row.ravel().tolist()):
                p *= (x - s) / d
            out.append(p)
        return np.array(out)[:, None]
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return np.multiply.reduce((xs - sk) / den, axis=1)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# every node set a basis is read on: mcG q = 1..12, mdG q = 0..12
CACHE_NODE_SETS = [(f"{m}{q}-{attr}", getattr(tb.tableau(m, q), attr))
                   for m in tb.METHODS
                   for q in range(tb.min_order(m), tb.MAX_ORDER + 1)
                   for attr in ("nodes", "test_nodes", "residual_zeros")]


class TestLagrangeCache:
    @pytest.mark.parametrize("nodes", [n for _, n in CACHE_NODE_SETS],
                             ids=[name for name, _ in CACHE_NODE_SETS])
    def test_equal_to_the_uncached_kernel(self, nodes):
        tb._cached_lagrange.cache_clear()
        rng = np.random.default_rng(len(nodes))
        points = [*rng.uniform(0.0, 1.0, 4), *nodes, 0.0, -0.0, 1.0,
                  -0.75, -1e-9, 1.0 + 1e-9, 1.5]
        for x in points:
            want = uncached_lagrange(nodes, float(x))
            for arg in (float(x), np.array(x), np.array([x])):
                for _ in range(2):          # a miss, then a hit
                    assert_same_bits(tb.lagrange_matrix(nodes, arg), want)
        for size in (0, 2, 3, 17, 200, 257):
            xs = rng.uniform(-0.5, 1.5, size)
            want = uncached_lagrange(nodes, xs)
            for _ in range(2):
                assert_same_bits(tb.lagrange_matrix(nodes, xs), want)

    def test_signed_zeros_are_apart(self):
        nodes = tb.lobatto_nodes(2)
        plus, minus = tb.lagrange_matrix(nodes, 0.0), tb.lagrange_matrix(nodes, -0.0)
        assert plus is not minus
        assert not np.array_equal(np.signbit(plus), np.signbit(minus))
        assert_same_bits(plus, uncached_lagrange(nodes, 0.0))
        assert_same_bits(minus, uncached_lagrange(nodes, -0.0))

    @pytest.mark.parametrize("x", [0.3, np.array([0.1, 0.7]), np.zeros(300)],
                             ids=["one", "batch", "over-the-entry-limit"])
    def test_results_are_read_only(self, x):
        out = tb.lagrange_matrix(tb.radau_nodes(2), x)
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0] = 1.0

    def test_a_repeated_call_returns_the_cached_array(self):
        nodes = tb.lobatto_nodes(3)
        xs = np.array([0.125, 0.5, 0.875])
        assert tb.lagrange_matrix(nodes, xs) is tb.lagrange_matrix(nodes.copy(), xs.copy())
        assert tb.lagrange_matrix(nodes, 0.25) is tb.lagrange_matrix(nodes, np.array([0.25]))

    def test_cache_is_bounded(self):
        maxsize = tb._cached_lagrange.cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize < 10_000


class TestLagrangePoints:
    @pytest.mark.parametrize("x", [
        0.25, np.float64(0.25), np.float32(0.1), np.array(0.25), np.array([0.25]),
        np.array([0.1], dtype=np.float32), 1, np.int64(1), [0.25, 0.5, 2],
        np.array([0.1, 0.3], dtype=np.float32), np.array([0, 1]), []])
    def test_real_points_keep_their_columns(self, x):
        nodes = tb.lobatto_nodes(3)
        assert_same_bits(tb.lagrange_matrix(nodes, x), uncached_lagrange(nodes, x))

    @pytest.mark.parametrize("x", [np.zeros((2, 2)), [[0.25]], np.zeros((1, 1, 3))])
    def test_more_than_one_dimension_rejected(self, x):
        with pytest.raises(ValueError, match="1-d"):
            tb.lagrange_matrix(tb.lobatto_nodes(2), x)

    @pytest.mark.parametrize("x", [None, "0.25", b"0.25", 0.25j, np.array([0.5 + 0j]),
                                   [0.5, None], True, np.array([True, False])],
                             ids=["None", "str", "bytes", "complex", "complex-array",
                                  "object-list", "bool", "bool-array"])
    def test_non_real_points_rejected(self, x):
        with pytest.raises(TypeError, match="real numbers"):
            tb.lagrange_matrix(tb.lobatto_nodes(2), x)


def recorded(f):
    """f and the list of points it is read at, in order."""
    reads = []

    def g(x, *args):
        reads.append(x)
        return f(x, *args)
    return g, reads


def brent_brackets(seed, count):
    """(f, a, b) for seeded polynomial and transcendental functions, each
    with a sign change on [a, b]."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            c = rng.standard_normal(rng.integers(2, 9))
            f = lambda x, c=c: float(np.polyval(c, x))
        elif kind == 1:
            w, p, s = rng.uniform(0.5, 20.0), rng.uniform(0.0, 6.0), rng.uniform(-0.9, 0.9)
            f = lambda x, w=w, p=p, s=s: math.sin(w * x + p) - s + 0.1 * x * x
        else:
            k, s = rng.uniform(-3.0, 3.0), rng.uniform(0.01, 5.0)
            f = lambda x, k=k, s=s: math.exp(k * x) - s
        a, b = np.sort(rng.uniform(-3.0, 3.0, 2))
        if f(a) * f(b) < 0.0:
            out.append((f, float(a), float(b)))
    return out


class TestBrentRoot:
    # scipy's brentq is the reference; the package itself never imports it
    brentq = staticmethod(pytest.importorskip("scipy.optimize").brentq)

    @pytest.mark.parametrize("xtol, rtol", [(1e-15, 8.9e-16), (None, None)],
                             ids=["estimator", "scipy-default"])
    def test_same_root_and_reads_as_brentq(self, xtol, rtol):
        tols = {} if xtol is None else {"xtol": xtol, "rtol": rtol}
        for f, a, b in brent_brackets(7, 600):
            f1, reads1 = recorded(f)
            f2, reads2 = recorded(f)
            want = self.brentq(f1, a, b, **tols)
            got = tb._brent_root(f2, a, b, tols.get("xtol", 2e-12),
                                 tols.get("rtol", 4 * np.finfo(float).eps))
            assert type(got) is float
            assert got == want, (a, b)
            assert reads2 == reads1

    @pytest.mark.parametrize("scale", [1e-160, 1e-300])
    def test_underflowing_step_denominator_bisects(self, scale):
        # at values this small the inverse-quadratic step's denominator
        # underflows to 0, where C divides to inf or NaN and bisects
        for g in (lambda x: x ** 3 - 0.1, lambda x: math.exp(x) - 1.5,
                  lambda x: math.sin(5.0 * x + 1.0)):
            f1, reads1 = recorded(lambda x: scale * g(x))
            f2, reads2 = recorded(lambda x: scale * g(x))
            assert tb._brent_root(f2, -1.0, 1.0, 1e-15, 8.9e-16) == self.brentq(
                f1, -1.0, 1.0, xtol=1e-15, rtol=8.9e-16)
            assert reads2 == reads1

    def test_args_are_passed_after_x(self):
        f = lambda x, c, d: x * x - c * d
        want = self.brentq(f, 0.0, 3.0, args=(2.0, 3.0), xtol=1e-15, rtol=8.9e-16)
        assert tb._brent_root(f, 0.0, 3.0, 1e-15, 8.9e-16, args=(2.0, 3.0)) == want

    def test_same_sign_ends_raise(self):
        f = lambda x: x * x + 1.0
        with pytest.raises(ValueError):
            self.brentq(f, -1.0, 1.0)
        with pytest.raises(ValueError, match="different signs"):
            tb._brent_root(f, -1.0, 1.0, 1e-15, 8.9e-16)

    @pytest.mark.parametrize("where", ["a", "b", "inside"])
    def test_nan_raises(self, where):
        a, b = -1.0, 2.0
        nan_at = {"a": lambda x: x == a, "b": lambda x: x == b,
                  "inside": lambda x: a < x < b}[where]
        f = lambda x: math.nan if nan_at(x) else x
        with pytest.raises(ValueError):
            self.brentq(f, a, b)
        with pytest.raises(ValueError, match="NaN"):
            tb._brent_root(f, a, b, 1e-15, 8.9e-16)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 0.0), (0.0, 0.0)])
    def test_exact_zero_at_an_end_is_returned(self, a, b):
        f, reads = recorded(lambda x: x)
        got = tb._brent_root(f, a, b, 1e-15, 8.9e-16)
        assert got == self.brentq(lambda x: x, a, b) == (a if a == 0.0 else b)
        assert reads == [a, b]

    def test_running_out_of_iterations_raises(self):
        f = lambda x: x ** 3 - 2.0
        with pytest.raises(RuntimeError):
            self.brentq(f, 0.0, 2.0, maxiter=3)
        with pytest.raises(RuntimeError, match="after 3 iterations"):
            tb._brent_root(f, 0.0, 2.0, 1e-15, 8.9e-16, maxiter=3)
        assert tb._brent_root(f, 0.0, 2.0, 1e-15, 8.9e-16) == self.brentq(
            f, 0.0, 2.0, xtol=1e-15, rtol=8.9e-16)
