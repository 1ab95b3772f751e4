"""The batched slab sweep against the per-group, per-interval loop it
replaced.

``solve_slab`` contracts the slab state with the stencils' Lagrange factors in
one stacked ``np.matmul`` per (node count, column count) class, and makes the
nodal update of all intervals of one scheme class (method, order) in one
stacked ``np.matmul`` with that class's W.  The oracle below is the per-group
sweep: one ``lagrange_matrix`` call and one ``state[widx] @ L`` per (work
item, component, source interval), with every group's times selected by a
mask, and one ``W @ frow`` update per interval.  The fast partition puts 16
intervals of one class in every slab.  Every comparison is
``np.array_equal`` or ``==``: the estimator's rounding-level terms and the
controller's partitions depend on those exact bits.

A ``columnwise`` problem's sweep makes one rhs call for the whole slab; the
oracle still makes one per interval.

``solve`` hands its slabs one store of slab tables, kept by layout; the
tests at the end drive slabs through such a store, so later slabs reuse the
tables of earlier ones, and check the store's bounds.
"""

import weakref

import numpy as np
import pytest

import mgode.solver
from mgode.dual import _reverse_partition, dual_partition_for
from mgode.models import model
from mgode.partition import build_partition, build_slabs
from mgode.solver import (
    _LAYOUT_BYTES,
    _LAYOUTS_KEPT,
    OdeProblem,
    SlabReport,
    SolveSettings,
    _build_work,
    solve,
    solve_slab,
)
from mgode.tableau import MCG, lagrange_matrix, scheme_rule, tableau


class _Item:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def _oracle_work(problem, partition, slab, settings, coeffs):
    """Work items whose stencil groups (comp, sel, widx, L) each hold their
    own Lagrange factors."""
    methods, u0 = problem.methods, problem.u0
    work, first = [], []
    for i in range(problem.dimension):
        first.append(len(work))
        lo, hi = slab.spans[i]
        for j in range(lo, hi):
            q = int(partition.orders[i][j])
            pts, W = scheme_rule(methods[i], q, settings.quad_depth)
            t0, t1 = partition.span(i, j)
            times = t0 + (t1 - t0) * pts
            if pts[0] == 0.0:
                times[0] = t0
            if j > lo:
                pred, incoming = len(work) - 1, None
            else:
                pred, incoming = None, float(u0[i] if j == 0 else coeffs[i][j - 1][-1])
            work.append(_Item(i=i, j=j, widx=len(work), method=methods[i],
                              order=q, t0=t0, k=t1 - t0, W=W, times=times,
                              pred=pred, incoming_fixed=incoming, groups=[]))
    counts = [len(item.times) for item in work]
    bounds = np.cumsum([0] + counts)
    times = np.concatenate([item.times for item in work])
    starts = np.repeat([item.t0 for item in work], counts)
    snap_tol = 1e-12 * partition.T
    for c in range(problem.dimension):
        lo, hi = slab.spans[c]
        bp = partition.breakpoints[c][lo:hi + 1]
        orders = partition.orders[c][lo:hi]
        idx = bp.searchsorted(times)
        left = bp[np.maximum(idx - 1, 0)]
        right = bp[np.minimum(idx, len(bp) - 1)]
        tt = np.where(np.abs(left - times) <= snap_tol, left,
                      np.where(np.abs(right - times) <= snap_tol, right, times))
        jl = np.where(tt == starts, bp.searchsorted(tt, "right"),
                      bp.searchsorted(tt)) - 1
        s = (tt - bp[jl]) / (bp[jl + 1] - bp[jl])
        for item, a, b in zip(work, bounds, bounds[1:]):
            for j in np.unique(jl[a:b]):
                sel = jl[a:b] == j
                L = lagrange_matrix(tableau(methods[c], int(orders[j])).nodes,
                                    s[a:b][sel])
                item.groups.append((c, sel, first[c] + int(j), L))
    return work


def oracle_solve_slab(problem, partition, slab, coeffs, settings):
    """The per-group damped Jacobi sweep."""
    u0 = problem.u0
    work = _oracle_work(problem, partition, slab, settings, coeffs)
    incoming = np.empty(problem.dimension)
    for i in range(problem.dimension):
        first_j = slab.spans[i][0]
        incoming[i] = u0[i] if first_j == 0 else float(coeffs[i][first_j - 1][-1])
    state = [np.full(item.order + 1, incoming[item.i]) for item in work]
    increment, sweeps, converged = np.inf, 0, False
    while sweeps < settings.max_sweeps:
        sweeps += 1
        new_state, increment = [], 0.0
        for item in work:
            inc = item.incoming_fixed
            if inc is None:
                inc = float(state[item.pred][-1])
            U = np.empty((problem.dimension, len(item.times)))
            for c, sel, widx, L in item.groups:
                U[c, sel] = state[widx] @ L
            frow = problem.eval_rhs(U, item.times)[item.i]
            target = inc + item.k * (item.W @ frow)
            off = 1 if item.method == MCG else 0
            old = state[item.widx][off:]
            upd = old + settings.damping * (target - old)
            increment = max(increment, float(np.max(np.abs(upd - old))))
            new_state.append(np.concatenate(([inc], upd)) if off else upd)
        state = new_state
        if increment <= settings.tolerance:
            converged = True
            break
    report = SlabReport(index=slab.index, t_start=slab.t_start, t_end=slab.t_end,
                        sweeps=sweeps, final_increment=increment,
                        converged=converged)
    out = [[] for _ in range(problem.dimension)]
    for item in work:
        arr = state[item.widx].copy()
        if item.method == MCG:
            if item.j == 0:
                arr[0] = u0[item.i]
            elif item.pred is not None:
                arr[0] = out[item.i][-1][-1]
            else:
                arr[0] = coeffs[item.i][item.j - 1][-1]
        out[item.i].append(arr)
    return out, report


# -- a 3-component multirate partition with mixed families -------------------

A3 = np.array([[-1.0, 0.5, 0.1], [0.3, -2.0, 0.4], [0.0, 0.7, -1.5]])
T3 = 0.7
METHODS3 = [("mcG", "mdG", "mcG"), ("mdG", "mcG", "mdG")]


def _partition(methods):
    steps = [0.1, 0.1 / 3, 0.025]
    orders = [[max(1 if m == "mcG" else 0, 1 + j % 3) for j in range(round(T3 / k))]
              for k, m in zip(steps, methods)]
    return build_partition(steps, orders, T3, methods=methods)


def _fast_partition(methods):
    # component 1 at k/16 beside two slow ones, all of order 2: each slab
    # holds one scheme class of 16 intervals, a stacked update with G = 16
    return build_partition([0.1, 0.1 / 16, 0.1], 2, T3, methods=methods)


# the partition function and the methods of each case; a case's id is its
# methods, prefixed by "fast-" for the fast partition
CASES3 = ([pytest.param(_partition, m, id="-".join(m)) for m in METHODS3]
          + [pytest.param(_fast_partition, m, id="fast-" + "-".join(m))
             for m in METHODS3])


def _nonlinear(U, t):
    return A3 @ U + np.sin(3.0 * t) * U * U


def _elementwise(U, t):
    # _nonlinear with A3's couplings written out, so that every column is
    # computed alone
    F = np.sin(3.0 * t) * U * U
    for i in range(3):
        for c in range(3):
            if A3[i, c]:
                F[i] += A3[i, c] * U[c]
    return F


RHS = {
    "vectorized": lambda methods: OdeProblem(
        rhs=_nonlinear, u0=[1.0, 0.5, -0.3], T=T3, methods=methods,
        vectorized=True),
    "per_point": lambda methods: OdeProblem(
        rhs=_nonlinear, u0=[1.0, 0.5, -0.3], T=T3, methods=methods,
        vectorized=False),
    "linear_system": lambda methods: OdeProblem(
        rhs=lambda U, t: A3 @ U, u0=[1.0, 0.5, -0.3], T=T3, methods=methods,
        vectorized=True),
    # one rhs call per slab sweep, against the oracle's one per interval
    "columnwise": lambda methods: OdeProblem(
        rhs=_elementwise, u0=[1.0, 0.5, -0.3], T=T3, methods=methods,
        vectorized=True, columnwise=True),
}


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("rhs", list(RHS))
@pytest.mark.parametrize("partition,methods", CASES3)
def test_batched_sweep_matches_per_group_loop(partition, methods, rhs, depth):
    prob = RHS[rhs](methods)
    part = partition(methods)
    settings = SolveSettings(tolerance=1e-13, quad_depth=depth)
    coeffs = [[] for _ in methods]
    for slab in build_slabs(part):
        new, report = solve_slab(prob, part, slab, coeffs, settings, {})
        ref, ref_report = oracle_solve_slab(prob, part, slab, coeffs, settings)
        assert report == ref_report
        assert report.converged
        for i in range(len(methods)):
            assert len(new[i]) == len(ref[i])
            for a, b in zip(new[i], ref[i]):
                assert np.array_equal(a, b)
            coeffs[i].extend(new[i])


def test_under_iterated_slab_matches_per_group_loop():
    # a sweep budget too small to converge: the same partial iterate
    prob = RHS["vectorized"](METHODS3[0])
    part = _partition(METHODS3[0])
    settings = SolveSettings(tolerance=1e-13, max_sweeps=3, quad_depth=1)
    slab = build_slabs(part)[0]
    new, report = solve_slab(prob, part, slab, [[], [], []], settings, {})
    ref, ref_report = oracle_solve_slab(prob, part, slab, [[], [], []], settings)
    assert report == ref_report and not report.converged
    for a, b in zip(sum(new, []), sum(ref, [])):
        assert np.array_equal(a, b)


def test_stacked_matmul_equals_per_slice_products():
    # The premise of the batched sweep: a stacked matmul over contiguous
    # column slices rounds exactly like each slice's own vector-matrix
    # product.  A numpy or BLAS build that breaks this fails here.
    rng = np.random.default_rng(7)
    G = 3
    for n in range(2, 14):
        for m in range(1, 34):
            full = rng.standard_normal((n, G * m + 2))
            slices = [np.ascontiguousarray(full[:, 1 + g * m:1 + (g + 1) * m])
                      for g in range(G)]
            V = rng.standard_normal((G, n))
            R = np.matmul(V[:, None, :], np.stack(slices))
            for g in range(G):
                assert np.array_equal(R[g, 0], V[g] @ slices[g]), (n, m, g)


@pytest.mark.parametrize("G", [1, 2, 7, 40])
def test_stacked_matvec_equals_per_row_products(G):
    # The premise of the stacked nodal update: one scheme class's W times a
    # stack of G rhs rows rounds each row exactly like that row's own
    # W @ f.  Every scheme rule the solver can take is covered.
    rng = np.random.default_rng(G)
    for method, orders in (("mcG", range(1, 13)), ("mdG", range(0, 13))):
        for q in orders:
            for depth in range(3):
                _, W = scheme_rule(method, q, depth)
                F = rng.standard_normal((G, W.shape[1]))
                R = np.matmul(W, F[:, :, None])[:, :, 0]
                for g in range(G):
                    assert np.array_equal(R[g], W @ F[g]), (method, q, depth, g)


# -- slab tables reused through one store, as solve does ---------------------

def _uniform(k, methods):
    return build_partition(k, [2 if m == "mcG" else 1 for m in methods], T3,
                           methods=methods)


def _grid_dual():
    # the effectivity grid's dual as solve_dual integrates it: mcG(2),
    # k = 0.1, dual refined 4 times with orders raised by one, reversed
    prob = model("linear_system").problem(methods="mcG")
    primal = build_partition(0.1, 2, prob.T, methods=prob.methods)
    return prob, _reverse_partition(dual_partition_for(primal, 1, 4))


def _case(partition, methods, T=T3):
    return lambda: (OdeProblem(rhs=_nonlinear, u0=[1.0, 0.5, -0.3], T=T,
                               methods=methods, vectorized=True),
                    partition(methods))


def _fast_dyadic(methods):
    # the fast partition on binary steps: 16 intervals of component 1 per
    # slab, whose layouts repeat within T = 1 (those of 0.1 / 16 do not)
    return build_partition([0.125, 0.125 / 16, 0.125], 2, 1.0, methods=methods)


SHARED_CASES = {
    "uniform-0.1-mcG": _case(lambda m: _uniform(0.1, m), ("mcG",) * 3),
    "uniform-0.05-mixed": _case(lambda m: _uniform(0.05, m), METHODS3[0]),
    "uniform-0.1-mdG": _case(lambda m: _uniform(0.1, m), ("mdG",) * 3),
    "grid-dual": _grid_dual,
    "fast-mcG-mdG-mcG": _case(_fast_dyadic, METHODS3[0], 1.0),
    "fast-mdG-mcG-mdG": _case(_fast_dyadic, METHODS3[1], 1.0),
}


def _counting_tables(monkeypatch):
    """Count the slab-table builds, each a store miss."""
    built = []
    tables = mgode.solver._slab_tables

    def counting(*args):
        built.append(None)
        return tables(*args)

    monkeypatch.setattr(mgode.solver, "_slab_tables", counting)
    return built


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("name", list(SHARED_CASES))
def test_reused_tables_match_per_group_loop(monkeypatch, name, depth):
    prob, part = SHARED_CASES[name]()
    settings = SolveSettings(tolerance=1e-13, quad_depth=depth)
    built = _counting_tables(monkeypatch)
    layouts = {}
    coeffs = [[] for _ in range(prob.dimension)]
    slabs = build_slabs(part)
    for slab in slabs:
        new, report = solve_slab(prob, part, slab, coeffs, settings, layouts)
        ref, ref_report = oracle_solve_slab(prob, part, slab, coeffs, settings)
        assert report == ref_report
        assert report.converged
        for i in range(prob.dimension):
            assert len(new[i]) == len(ref[i])
            for a, b in zip(new[i], ref[i]):
                assert np.array_equal(a, b)
            coeffs[i].extend(new[i])
    assert len(built) < len(slabs)       # at least one slab reused tables


def _chain64():
    # the benchmark's chain: 64 diffusion-coupled components, the last one
    # at a quarter of the common step
    n = 64
    u0 = 1.0 + 0.5 * np.cos(np.pi * np.linspace(0.0, 1.0, n))

    def rhs(U, t):
        F = -U
        F[1:] += 0.5 * U[:-1]
        F[:-1] += 0.5 * U[1:]
        return F

    prob = OdeProblem(rhs=rhs, u0=u0, T=1.0, methods="mcG", vectorized=True)
    return prob, build_partition([0.1] * (n - 1) + [0.025], 2, 1.0,
                                 methods=prob.methods)


def test_a_chain_slab_is_never_kept():
    prob, part = _chain64()
    layouts = {}
    _, _, stencils, _, _ = _build_work(prob, part, build_slabs(part)[0],
                                       SolveSettings(), layouts)
    assert sum(st.L.nbytes for st in stencils) > _LAYOUT_BYTES
    assert layouts == {}


def test_the_store_holds_at_most_its_layout_cap(monkeypatch):
    # per-interval orders 1 + j % 3 give the slabs of the multirate
    # partition more layouts than the store keeps
    sizes = []
    slab_solve = mgode.solver.solve_slab

    def checking(*args):
        result = slab_solve(*args)
        sizes.append(len(args[-1]))
        return result

    monkeypatch.setattr(mgode.solver, "solve_slab", checking)
    built = _counting_tables(monkeypatch)
    methods = METHODS3[0]
    solve(RHS["vectorized"](methods), _partition(methods),
          SolveSettings(tolerance=1e-13))
    assert len(built) > _LAYOUTS_KEPT
    assert max(sizes) == _LAYOUTS_KEPT


def test_a_layout_one_ulp_off_is_a_miss():
    # on a uniform partition the slabs' local coordinates differ by ulps;
    # two layouts equal but for one ulp in one coordinate are kept apart
    prob = OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0, methods="mcG")
    part = build_partition(0.1, 2, 1.0, methods=prob.methods)
    layouts, kept = {}, []
    for slab in build_slabs(part):
        _build_work(prob, part, slab, SolveSettings(), layouts)
        kept += [key for key in layouts if key not in kept]
    one_ulp = 0
    for n, a in enumerate(kept):
        for b in kept[n + 1:]:
            sa, sb = np.frombuffer(a[3]), np.frombuffer(b[3])
            off = np.flatnonzero(sa != sb)
            if a[:3] == b[:3] and len(off) == 1:
                one_ulp += np.nextafter(sa[off[0]], sb[off[0]]) == sb[off[0]]
    assert one_ulp > 0


def test_a_finished_solve_frees_its_tables(monkeypatch):
    kept = []
    slab_solve = mgode.solver.solve_slab

    def watching(*args):
        result = slab_solve(*args)
        kept.extend(weakref.ref(st.L) for stencils, *_ in args[-1].values()
                    for st in stencils)
        return result

    monkeypatch.setattr(mgode.solver, "solve_slab", watching)
    prob, part = SHARED_CASES["uniform-0.1-mcG"]()
    traj = solve(prob, part, SolveSettings(tolerance=1e-13))
    assert kept and np.all(np.isfinite(traj.end_state()))
    assert all(ref() is None for ref in kept)


def test_a_shared_store_keeps_methods_and_depths_apart():
    # one store across solves of other methods and quadrature depths gives
    # each the tables a store of its own gives
    part = build_partition(0.1, 2, 1.0, methods=("mcG",))
    slab = build_slabs(part)[0]
    shared = {}
    for methods in ("mcG", "mdG"):
        prob = OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0, methods=methods)
        for depth in (0, 1):
            settings = SolveSettings(quad_depth=depth)
            _, _, got, got_up, _ = _build_work(prob, part, slab, settings, shared)
            _, _, ref, ref_up, _ = _build_work(prob, part, slab, settings, {})
            assert [st.L.tolist() for st in got] == [st.L.tolist() for st in ref]
            assert [up.W.tolist() for up in got_up] == [up.W.tolist() for up in ref_up]
    assert len(shared) == 4
