"""A posteriori error machinery.

Turns a computed trajectory and a dual solution into computable global error
information: the exact residual/dual error representation, the interpolation
constant bound chain E0..E5, computational and quadrature residuals with
their dyadic estimates, the residual-zero direct evaluation of the Galerkin
term, stability factors, the assembled total bound, and the a posteriori
bound on stability factors computed from approximate duals.

The estimate comes in two stages.  ``explicit_estimates`` returns the
explicit stage, ``ExplicitEstimates``: r, rbar, the derivative and mean
factors, E3, E_C, E_Q and the explicit bound, with a payload that only the
completion reads.  ``estimate`` completes it; its ``ErrorReport`` extends the
stage's record and the completion's ``GalerkinEstimates``, adds E_G, and
leaves the payload out, so each number of a report is declared and held
once and a report reads as a stage but completes no second report.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dual import DualSolution
from .partition import Partition
from .solver import OdeProblem, Trajectory, interval_residual, interval_rhs
from .tableau import (
    MAX_ORDER,
    MCG,
    MDG,
    _brent_root,
    gauss_rule_01,
    lagrange_matrix,
    tableau,
    integration_rule,
)


# ---------------------------------------------------------------------------
# Quadrature with sign-change splitting
# ---------------------------------------------------------------------------

def _one_point(x: float, fn) -> float:
    """fn at the single point x.  ``_brent_root`` takes it with
    ``args=(fn,)``, so no bracket builds a closure over fn, and fn's
    trajectory and dual die with the caller's last reference, without the
    cyclic collector."""
    return float(fn(np.array([x]))[0])


def _sign_change_roots(fn, a: float, b: float, n_scan: int) -> list[float]:
    """Roots of fn inside (a, b) located from sign changes on a uniform scan."""
    xs = np.linspace(a, b, n_scan)
    # the scan loop runs on Python floats, which compare and multiply
    # faster than numpy scalars, to the same bits
    xs, vals = xs.tolist(), fn(xs).tolist()
    roots = []
    for x0, x1, f0, f1 in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if f0 == 0.0 and x0 != a:
            roots.append(x0)
        elif f0 * f1 < 0.0:
            try:
                roots.append(_brent_root(_one_point, x0, x1, 1e-15, 8.9e-16,
                                         args=(fn,)))
            except ValueError:
                # noise-level values can flip sign between batched and
                # pointwise evaluation; the piece is negligible either way
                roots.append(0.5 * (x0 + x1))
    return roots


def integrate_splitting(fn, a: float, b: float, *, npts: int, n_scan: int,
                        splits=()) -> tuple[float, float, tuple]:
    """(signed, absolute) integral of fn over [a, b] by Gauss-Legendre on
    pieces cut at the given split points and at detected sign changes, and
    the pieces between the split points.

    fn must accept an array of points.  Each final piece is single-signed (up
    to scan resolution), so the absolute integral is the sum of |piece|.
    Each piece between the split points is returned as (lo, hi, roots,
    values): the sign changes found there and fn at the Gauss nodes of each
    nonempty sub-piece they cut it into, one array per sub-piece in order.
    """
    cuts = [a, *sorted({p for p in splits if a < p < b}), b]
    signed = 0.0
    absolute = 0.0
    pieces = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        roots = _sign_change_roots(fn, lo, hi, n_scan)
        sub = [lo] + roots + [hi]
        vals = []
        for s0, s1 in zip(sub[:-1], sub[1:]):
            if s1 > s0:
                val, v = _gauss_piece(fn, s0, s1, npts, None)
                vals.append(v)
                signed += val
                absolute += abs(val)
        pieces.append((float(lo), float(hi), tuple(roots), tuple(vals)))
    return signed, absolute, tuple(pieces)


def _gauss_piece(fn, a: float, b: float, npts: int, vals):
    """The npts-point Gauss-Legendre integral of fn over [a, b], and fn at
    the rule's nodes: ``vals`` when it is not None (fn read there before),
    else read here."""
    xg, wg = gauss_rule_01(npts)
    if vals is None:
        vals = fn(a + (b - a) * xg)
    return (b - a) * float(wg @ vals), vals


def _gauss_integral(fn, a: float, b: float, npts: int) -> float:
    return _gauss_piece(fn, a, b, npts, None)[0]


# ---------------------------------------------------------------------------
# Interpolation of the dual
# ---------------------------------------------------------------------------

def _taylor_interpolant(dual: DualSolution, i: int, t_mid: float, degree: int):
    """Taylor expansion of the dual's local polynomial around the interval
    midpoint, as a callable of time."""
    coeffs = [dual.value(i, t_mid, "left", order) / math.factorial(order)
              for order in range(degree + 1)]

    def fn(ts):
        ts = np.atleast_1d(ts)
        dt = ts - t_mid
        out = np.zeros_like(dt)
        for order in range(degree, -1, -1):
            out = out * dt + coeffs[order]
        return out

    return fn


# ---------------------------------------------------------------------------
# Error representation
# ---------------------------------------------------------------------------

def _check_matching(problem: OdeProblem, traj: Trajectory,
                    dual: DualSolution) -> None:
    """Raise ValueError unless the problem, the trajectory and the dual
    share the component count N and the horizon T."""
    if not problem.dimension == traj.dimension == dual.dimension:
        raise ValueError(f"problem, trajectory and dual have {problem.dimension}, "
                         f"{traj.dimension} and {dual.dimension} components")
    if not problem.T == traj.T == dual.T:
        raise ValueError(f"problem, trajectory and dual horizons differ: "
                         f"{problem.T!r}, {traj.T!r} and {dual.T!r}")


def error_representation(traj: Trajectory, dual: DualSolution,
                         problem: OdeProblem, depth: int = 2) -> float:
    """Evaluate the residual/dual pairing

        sum_ij [ int_{I_ij} R_i phi_i dt + [U_i] phi_i(interval start) ],

    with composite node-rule quadrature at the given dyadic depth per
    interval.  The integrand cancels heavily (the residual is orthogonal to
    the test space), so integration is cut at the dual's piece boundaries and
    the rule order is raised to cover the local residual-dual product degree.
    The jump term is the same for both families; a continuous-family jump is
    exactly 0.0, so it adds an exact zero there.
    """
    _check_matching(problem, traj, dual)
    total = 0.0
    part = traj.partition
    for i in range(traj.dimension):
        for j in range(part.n_intervals(i)):
            t0, t1 = part.span(i, j)
            k = t1 - t0
            q = traj.order(i, j)
            dual_deg = dual.local_order(i, t0, t1)
            p_rule = min(MAX_ORDER, max(q + 1, (q + dual_deg + 2) // 2))
            s, w = integration_rule(MCG, p_rule, depth)
            pieces = np.concatenate(
                ([t0], dual.piece_boundaries(i, t0, t1), [t1]))
            for a, b in zip(pieces[:-1], pieces[1:]):
                s_loc = part.coordinate(i, j, a) + (b - a) / k * s
                R = interval_residual(traj, problem, i, j, s_loc)
                phi = dual.values(i, t0 + k * s_loc, "left")
                total += (b - a) * float(w @ (R * phi))
            total += traj.jump(i, j) * dual.value(i, t0, "left")
    return total


# ---------------------------------------------------------------------------
# Interpolation-constant estimates E0..E5 and stability factors
# ---------------------------------------------------------------------------

@dataclass
class StabilityFactors:
    """The integrals of the dual solution that the completion adds to the
    explicit stage's derivative and mean factors ``s_deriv`` and ``s_mean``.

    ``s_interp[i]`` integrates k^(-p) |phi_i - pi phi_i| with the
    residual-zero interpolant.  The global factors integrate the Euclidean
    norm of the derivative vector and of the dual itself.
    """

    s_interp: np.ndarray
    s1_global: float
    s2_global: float
    s_phi: float

    def to_json_dict(self) -> dict:
        return {
            "per_component_interp": [float(x) for x in self.s_interp],
            "global_l1": float(self.s1_global),
            "global_l2": float(self.s2_global),
            "dual_l1": float(self.s_phi),
        }


@dataclass
class GalerkinEstimates:
    """What the completion adds to the explicit stage's E3: the rest of the
    chain E0..E5 and the stability factors the stage does not hold."""

    e0: float
    e1: float
    e2: float
    e4: float
    e5: float
    factors: StabilityFactors


@dataclass
class ExplicitEstimates:
    """The explicit stage: the explicit form of the bound, E3 + E_C + E_Q,
    with everything ``propose_steps`` reads (``methods``, ``partition``,
    ``rbar``, ``s_deriv``) and what the completion in ``estimate`` reuses.
    It holds the residual profiles r and rbar, the derivative and mean
    factors, the weighted residual maxima, E3 (NaN with a flag per interval
    whose dual degree cannot supply the required derivative), E_C and E_Q
    with their profiles.  ``s_deriv[i]`` integrates |phi_i^(p_i)| with p_i
    the per-interval derivative order (q for the continuous family, q+1 for
    the discontinuous one); ``s_mean[i]`` is the piecewise-constant
    surrogate sum_j k_ij |mean(phi_i)|.

    ``payload`` is read by ``galerkin_estimates`` alone: weak references to
    the problem, trajectory and dual the stage read, which identify them
    without keeping them alive, and per interval I_ij what the completion
    reads again there: R's one piece of r's integral over [0, 1], the jump,
    the derivative factor s_ij and the pieces of s_ij's integral, all pieces
    as ``integrate_splitting`` returns them: (lo, hi), the roots found there
    and the integrand's values at the Gauss nodes of each nonempty sub-piece
    they cut.  A report, and a pickled or copied stage, hold None there:
    they still read as records but complete no report.
    """

    methods: tuple[str, ...]
    partition: Partition
    r: list[np.ndarray]
    rbar: list[np.ndarray]
    s_deriv: np.ndarray
    s_mean: np.ndarray
    component_max: np.ndarray
    e3: float
    e_c: float
    e_q: float
    rc: list[np.ndarray]
    rq_bound: list[np.ndarray]
    explicit_total: float
    flags: list[str]
    payload: tuple | None = field(repr=False)

    def __getstate__(self) -> dict:
        return {**vars(self), "payload": None}


def _interval_rule(traj: Trajectory, i: int, j: int) -> tuple:
    """Interval I_ij's (t0, t1, k, q, p, C_q) and the Gauss and scan point
    counts of its integrals."""
    t0, t1 = traj.partition.span(i, j)
    q = traj.order(i, j)
    tab = tableau(traj.methods[i], q)
    return (t0, t1, t1 - t0, q, tab.deriv_order, tab.interp_const,
            2 * (q + 2), 8 * (q + 2))


def explicit_estimates(problem: OdeProblem, traj: Trajectory,
                       dual: DualSolution) -> ExplicitEstimates:
    """The explicit stage of the estimator: one pass over the intervals for
    r, rbar, the derivative and mean factors and E3, then E_C and E_Q.  Its
    ``explicit_total`` E3 + E_C + E_Q is the bound ``adapt`` steers on;
    ``estimate`` completes a report from it.

    Each interval takes r's integral of |R| and the dual derivative factor
    s, split at the dual's own piece boundaries, from
    ``integrate_splitting``, and keeps both records of pieces, roots and
    Gauss values for the completion."""
    _check_matching(problem, traj, dual)
    part = traj.partition
    N = traj.dimension
    flags: list[str] = []
    r_prof = [np.zeros(part.n_intervals(i)) for i in range(N)]
    rbar_prof = [np.zeros(part.n_intervals(i)) for i in range(N)]
    comp_max = np.zeros(N)
    s_deriv = np.zeros(N)
    s_mean = np.zeros(N)
    intervals = []

    for i in range(N):
        kept = []
        for j in range(part.n_intervals(i)):
            t0, t1, k, q, p, cq, npts, n_scan = _interval_rule(traj, i, j)
            degree = dual.local_order(i, t0, t1)
            if degree < p:
                flags.append(
                    f"component {i} interval {j}: dual degree "
                    f"{degree} < required derivative order {p}"
                )

            # R's roots, found once, cut r = (1/k) int |R| dt = int |R(s)| ds
            Rfn = lambda s: interval_residual(traj, problem, i, j, s)  # noqa: E731
            _, r_ij, (rpiece,) = integrate_splitting(Rfn, 0.0, 1.0, npts=npts,
                                                     n_scan=n_scan)
            # one jump rule serves both families, here, in the completion's
            # E0/E1 and E5 terms and in error_representation: an mcG jump is
            # exactly 0.0 (see Trajectory.jump), so rbar == r and each jump
            # term adds an exact zero
            jmp = traj.jump(i, j)
            rbar_ij = r_ij + abs(jmp) / k
            r_prof[i][j] = r_ij
            rbar_prof[i][j] = rbar_ij

            # dual derivative factor, split at the dual's own piece
            # boundaries; the completion reads each piece's roots and Gauss
            # values again
            dfn = partial(dual.values, i, side="left", order=p)
            _, s_abs, dpieces = integrate_splitting(
                dfn, t0, t1, npts=npts, n_scan=n_scan,
                splits=dual.piece_boundaries(i, t0, t1))
            s_ij = s_abs / k
            s_deriv[i] += k * s_ij

            # weighted residual C_q k^p rbar
            comp_max[i] = max(comp_max[i], cq * k**p * rbar_ij)

            # piecewise-constant surrogate k |mean(phi_i)|
            mean = _gauss_integral(lambda ts: dual.values(i, ts, "left"),
                                   t0, t1, 6) / k
            s_mean[i] += k * abs(mean)
            kept.append((rpiece, jmp, s_ij, dpieces))
        intervals.append(kept)

    e3 = float("nan") if flags else float(np.sum(s_deriv * comp_max))
    ec = computational_error(traj, problem, s_mean)
    eq = quadrature_error(traj, problem, s_mean)
    return ExplicitEstimates(
        methods=traj.methods, partition=part, r=r_prof, rbar=rbar_prof,
        s_deriv=s_deriv, s_mean=s_mean, component_max=comp_max, e3=e3,
        e_c=ec.value, e_q=eq.value, rc=ec.profiles, rq_bound=eq.profiles,
        explicit_total=e3 + ec.value + eq.value, flags=flags,
        payload=(tuple(weakref.ref(x) for x in (problem, traj, dual)), intervals),
    )


def galerkin_estimates(traj: Trajectory, dual: DualSolution,
                       problem: OdeProblem,
                       explicit: ExplicitEstimates) -> GalerkinEstimates:
    """Complete the interpolation-constant estimate chain and the stability
    factors: E0, E1, E2, E4, E5 and the factors the stage does not hold.

    The explicit stage ``explicit``, made by ``explicit_estimates`` for the
    same problem, trajectory and dual, supplies r, rbar, the derivative and
    mean factors and E3 and keeps them; this completion makes a second pass
    over each component's intervals for the midpoint Taylor interpolation
    terms feeding E0 and E1, E2, the L2 pieces of E5 and the residual-zero
    interpolation factor, and one pass over the elementary segments for the
    global derivative-norm factor and the L1 norm of the dual.  Each sum adds
    its terms interval by interval in the order of the pass.  The chain
    E0 <= E1 <= E2 <= E3 <= E4 and E2 <= E5 then follows from the assembled
    sums.  When the dual's local degree cannot supply the required
    derivative, E2..E5 degrade to NaN and a flag records the deficiency.  A
    stage whose payload does not hold live references to exactly this
    problem, trajectory and dual (one made from other inputs, a report, or a
    pickled or copied stage) raises ValueError.

    E0/E1 integrate R (phi - pi phi), which changes sign only where R or
    phi - pi phi does, so no root search runs on the product.  The E0/E1
    integral is cut at R's roots from the pass, at the dual's piece
    boundaries and at the sign changes of phi - pi phi, which a scan and a
    Brent root search on the dual alone find.  An E0/E1 piece that no dual
    cut or root of phi - pi phi splits further is a piece of r and reuses
    R's values at its Gauss nodes from the pass, as E5's L2 rule does when R
    has no root; so R is read once per point set and no root-search step on
    the product reads it.

    The L2 factor s2 integrates phi_i^(p) squared on the stage's pieces of
    s_ij, and a piece without a root takes its Gauss values from the stage.
    For N > 1, on an elementary segment that is one of a component's stage
    pieces, scanned with the same n_scan and derivative order, the
    component takes the roots found there, and when no component has a root
    on the segment the Gauss values too; every other segment, and every
    segment for N = 1, is scanned and read here.  Each reuse is the same
    read at points made by the same expression, so the numbers are those of
    reading again.
    """
    inputs, intervals = explicit.payload or ((), None)
    if [id(ref()) for ref in inputs] != list(map(id, (problem, traj, dual))):
        raise ValueError("the explicit stage was computed for another problem, "
                         "trajectory or dual, or is a report or a pickled copy")
    part = traj.partition
    N = traj.dimension

    e0_signed = 0.0
    e1 = 0.0
    e2 = 0.0
    s_interp = np.zeros(N)
    l2_weighted_sq = 0.0   # int of (C k^p residual-with-jump)^2 dt, summed
    s2_sq = 0.0

    for i in range(N):
        for j, ((_, _, rroots, Rvs), jmp, s_ij, dpieces) in enumerate(intervals[i]):
            t0, t1, k, q, p, cq, npts, n_scan = _interval_rule(traj, i, j)
            r_ij, rbar_ij = float(explicit.r[i][j]), float(explicit.rbar[i][j])

            Rfn = lambda s: interval_residual(traj, problem, i, j, s)  # noqa: E731
            phi_loc = lambda s: dual.values(i, t0 + k * s, "left")  # noqa: E731
            cuts = dual.piece_boundaries(i, t0, t1)
            # E0/E1 integrate R (phi - pi phi), pi the midpoint Taylor
            # interpolant of degree p - 1 in the test space, cut where a
            # factor changes sign; the cuts of phi - pi phi read no residual
            pi_fn = _taylor_interpolant(dual, i, 0.5 * (t0 + t1), p - 1)
            dphi = lambda s: phi_loc(s) - pi_fn(t0 + k * s)  # noqa: E731
            dpts = [0.0, *part.coordinate(i, j, cuts), 1.0]
            dcuts = {*dpts[1:-1], *(x for a, b in zip(dpts[:-1], dpts[1:])
                                    for x in _sign_change_roots(dphi, a, b, n_scan))}
            # an E0/E1 piece that nothing else cuts is a piece of r
            xg, wg = gauss_rule_01(npts)
            signed = absval = 0.0
            rpts = [0.0, *rroots, 1.0]
            rpieces = [(a, b) for a, b in zip(rpts[:-1], rpts[1:]) if b > a]
            for (a, b), Rv in zip(rpieces, Rvs):
                sub = [a, *sorted(c for c in dcuts if a < c < b), b]
                for s0, s1 in zip(sub[:-1], sub[1:]):
                    x = s0 + (s1 - s0) * xg
                    R = Rv if len(sub) == 2 else Rfn(x)
                    val = (s1 - s0) * float(wg @ (R * dphi(x)))
                    signed += val
                    absval += abs(val)

            # E0/E1 with the jump term at the interval start
            e0_signed += k * signed
            e1 += k * absval
            dphi0 = dual.value(i, t0, "left") - float(pi_fn(t0)[0])
            e0_signed += jmp * dphi0
            e1 += abs(jmp) * abs(dphi0)

            e2 += cq * k ** (p + 1) * rbar_ij * s_ij

            # L2 pieces for E5; without a root of R, r's one piece holds
            # R's values at this rule's nodes
            int_R2 = k * float(wg @ (Rfn(xg) if rroots else Rvs[0]) ** 2)
            c_over_k = abs(jmp) / k
            int_rbar2 = int_R2 + 2.0 * c_over_k * (k * r_ij) + c_over_k**2 * k
            l2_weighted_sq += (cq * k**p) ** 2 * int_rbar2

            # the stage's pieces of phi_i^(p); one without a root holds its
            # values at this rule's nodes
            d2 = lambda ts: dual.values(i, ts, "left", p) ** 2  # noqa: E731
            for a, b, roots, dvals in dpieces:
                s2_sq += _gauss_piece(d2, a, b, npts,
                                      None if roots else dvals[0] ** 2)[0]

            # the integral of k^(-p) |phi_i - pi phi_i| with the
            # residual-zero interpolant
            pi_rz = _residual_zero_interpolant(dual, traj, i, j)
            diff = lambda s: np.abs(phi_loc(s) - pi_rz(s))  # noqa: E731
            s_interp[i] += k ** (1 - p) * _gauss_integral(diff, 0.0, 1.0,
                                                          2 * (q + 3))

    # On the elementary segments every component's dual is one polynomial:
    # the global factor integrates the Euclidean norm of the derivative
    # vector with per-component sign splits (the per-component sum for
    # N = 1), s_phi the norm of the dual itself.
    s1_global = 0.0
    s_phi = 0.0
    phi_norm = lambda ts: np.sqrt(np.sum(np.stack(  # noqa: E731
        [dual.values(i, ts, "left") for i in range(N)])**2, axis=0))
    segs = _elementary_segments(traj, dual)
    for a, b, js in zip(segs[:-1], segs[1:], _segment_intervals(part, segs)):
        qs = [traj.order(i, j) for i, j in enumerate(js)]
        fns = [partial(dual.values, i,
                       order=tableau(traj.methods[i], q).deriv_order)
               for i, q in enumerate(qs)]
        qmax = max([1, *qs])
        npts = 2 * (qmax + 2)
        n_scan = 8 * (qmax + 2)
        if N == 1:
            s1_global += integrate_splitting(fns[0], a, b, npts=npts,
                                             n_scan=n_scan)[1]
        else:
            # a segment that is one of a component's stage pieces, scanned
            # with the same n_scan (so q == qmax) and the same derivative
            # order (that of its interval), takes the roots found there, and
            # the Gauss values of a piece without one
            stage = [next((piece[2:] for piece in intervals[i][j][3]
                           if piece[:2] == (a, b)), None) if q == qmax else None
                     for i, (j, q) in enumerate(zip(js, qs))]
            roots = [_sign_change_roots(fn, a, b, n_scan) if got is None
                     else got[0] for fn, got in zip(fns, stage)]
            kept = [None if got is None or got[0] else got[1][0] for got in stage]
            norm = lambda ts: np.sqrt(np.sum(np.stack([fn(ts) for fn in fns])**2,
                                             axis=0))  # noqa: E731
            pieces = [a] + sorted(c for r in roots for c in r if a < c < b) + [b]
            if len(pieces) == 2:
                # no component changes sign on the segment
                vals = [_gauss_piece(fn, a, b, npts, got)[1]
                        for fn, got in zip(fns, kept)]
                s1_global += _gauss_piece(norm, a, b, npts, np.sqrt(
                    np.sum(np.stack(vals)**2, axis=0)))[0]
            else:
                for lo, hi in zip(pieces[:-1], pieces[1:]):
                    s1_global += _gauss_integral(norm, lo, hi, npts)
        s_phi += _gauss_integral(phi_norm, a, b, 8)

    e0 = abs(e0_signed)
    e4 = s1_global * math.sqrt(N) * float(np.max(explicit.component_max))
    s2_global = math.sqrt(s2_sq)
    e5 = s2_global * math.sqrt(l2_weighted_sq)

    if explicit.flags:
        e2 = e4 = e5 = float("nan")

    factors = StabilityFactors(s_interp=s_interp, s1_global=s1_global,
                               s2_global=s2_global, s_phi=s_phi)
    return GalerkinEstimates(e0=e0, e1=e1, e2=e2, e4=e4, e5=e5, factors=factors)


def _segment_intervals(part: Partition, segs: np.ndarray) -> list[list[int]]:
    """Per segment between consecutive points of ``segs``, the interval of
    every component that holds it: one ``Partition.locate`` call per
    component at the segment midpoints."""
    mids = 0.5 * (segs[:-1] + segs[1:])
    return np.array([part.locate(i, mids) for i in range(part.n_components)]
                    ).T.tolist()


def _elementary_segments(traj: Trajectory, dual: DualSolution) -> np.ndarray:
    """All primal breakpoints and dual piece boundaries merged, so every
    component's dual derivative is a single polynomial on each segment."""
    pts = [np.asarray([0.0, traj.T])]
    for i in range(traj.dimension):
        pts.append(np.asarray(traj.partition.breakpoints[i]))
        pts.append(dual.breakpoints(i))
    merged = np.unique(np.concatenate(pts))
    return merged[(merged >= 0.0) & (merged <= traj.T)]


# ---------------------------------------------------------------------------
# Computational and quadrature residuals
# ---------------------------------------------------------------------------

def _integral_of_rhs(traj: Trajectory, problem: OdeProblem, i: int, j: int,
                     depth: int) -> float:
    """Quadrature value of int_{I_ij} f_i(U, .) dt at the given dyadic depth
    of the interval's own node rule."""
    s, w = integration_rule(traj.methods[i], traj.order(i, j), depth)
    f, _ = interval_rhs(traj, problem, i, j, s)
    return traj.partition.step(i, j) * float(w @ f)


def computational_residual(traj: Trajectory, problem: OdeProblem, i: int,
                           j: int, depth: int | None = None) -> float:
    """Defect of the end-value update equation on interval I_ij,

        (1/k) [ (xi_q - xi_0) - int f_i dt ],

    with the integral one dyadic depth finer than the solver used (or at the
    explicitly given depth)."""
    if depth is None:
        depth = traj.settings.quad_depth + 1
    xi = traj.coefficients(i, j)
    inc = traj.incoming_value(i, j)
    k = traj.partition.step(i, j)
    return ((float(xi[-1]) - inc) - _integral_of_rhs(traj, problem, i, j, depth)) / k


@dataclass
class QuadratureResidual:
    """Dyadic difference estimate of one interval's quadrature residual."""

    delta: float   # (quad at depth m - quad at depth m+1) / k
    bound: float   # geometric-series bound on |R^Q at depth m|


def quadrature_residual(traj: Trajectory, problem: OdeProblem, i: int, j: int,
                        m: int | None = None) -> QuadratureResidual:
    """Estimate the interval's quadrature residual from depths m and m+1.

    The node rule converges dyadically with the tableau's ``dyadic_ratio``,
    giving the computable bound |R^Q_m| <= |R^Q_m - R^Q_{m+1}| / (1 - ratio)."""
    if m is None:
        m = traj.settings.quad_depth
    k = traj.partition.step(i, j)
    qm = _integral_of_rhs(traj, problem, i, j, m)
    qm1 = _integral_of_rhs(traj, problem, i, j, m + 1)
    delta = (qm - qm1) / k
    ratio = tableau(traj.methods[i], traj.order(i, j)).dyadic_ratio
    return QuadratureResidual(delta=delta, bound=abs(delta) / (1.0 - ratio))


@dataclass
class DefectReport:
    """Per-interval defect magnitudes with their stability-weighted sum."""

    profiles: list[np.ndarray]
    value: float


def _weighted_max(profiles: list[np.ndarray], s_mean: np.ndarray) -> DefectReport:
    """sum_i s_mean[i] * max_j profiles[i][j]."""
    total = 0.0
    for i, vals in enumerate(profiles):
        total += s_mean[i] * (float(np.max(vals)) if len(vals) else 0.0)
    return DefectReport(profiles=profiles, value=total)


def computational_error(traj: Trajectory, problem: OdeProblem,
                        s_mean: np.ndarray) -> DefectReport:
    """E_C = sum_i s_mean[i] * max_j |R^C_ij|, with ``s_mean`` the
    per-component mean factors."""
    return _weighted_max([
        np.abs(np.array([computational_residual(traj, problem, i, j)
                         for j in range(traj.partition.n_intervals(i))]))
        for i in range(traj.dimension)
    ], s_mean)


def quadrature_error(traj: Trajectory, problem: OdeProblem,
                     s_mean: np.ndarray) -> DefectReport:
    """E_Q = sum_i s_mean[i] * max_j bound(R^Q_ij), with ``s_mean`` as in
    ``computational_error``."""
    return _weighted_max([
        np.array([quadrature_residual(traj, problem, i, j).bound
                  for j in range(traj.partition.n_intervals(i))])
        for i in range(traj.dimension)
    ], s_mean)


# ---------------------------------------------------------------------------
# Residual-zero interpolation: direct evaluation of the Galerkin term
# ---------------------------------------------------------------------------

def _residual_zero_interpolant(dual: DualSolution, traj: Trajectory,
                               i: int, j: int):
    """Interpolant of phi_i on interval j through the tableau's
    residual-zero points, as a callable of the local coordinate."""
    t0, t1 = traj.partition.span(i, j)
    k = t1 - t0
    pts = tableau(traj.methods[i], traj.order(i, j)).residual_zeros
    vals = dual.values(i, t0 + k * pts, "left")

    def fn(s):
        L = lagrange_matrix(pts, s)
        return vals @ L

    return fn


@dataclass
class ResidualZeroReport:
    """Directly evaluated Galerkin term with sign bookkeeping."""

    value: float                 # |sum of per-interval signed terms|
    signed: float
    abs_sum: float               # sum of |per-interval terms|
    alphas: list[np.ndarray]
    shortcut: float              # endpoint product-quadrature shortcut sum


def eg_residual_zero(traj: Trajectory, dual: DualSolution,
                     problem: OdeProblem) -> ResidualZeroReport:
    """Evaluate int R (phi - pi phi) per interval with the dual interpolated
    at the points where the projected residual vanishes; for discontinuous
    components the interval start is interpolated exactly, so no jump terms
    remain."""
    _check_matching(problem, traj, dual)
    part = traj.partition
    signed_total = 0.0
    abs_total = 0.0
    shortcut = 0.0
    alphas = []
    for i in range(traj.dimension):
        method = traj.methods[i]
        a_i = np.zeros(part.n_intervals(i))
        for j in range(part.n_intervals(i)):
            t0, t1 = part.span(i, j)
            k = t1 - t0
            q = traj.order(i, j)
            pi_fn = _residual_zero_interpolant(dual, traj, i, j)
            fn = lambda s: (interval_residual(traj, problem, i, j, s)  # noqa: E731
                            * (dual.values(i, t0 + k * s, "left") - pi_fn(s)))
            cuts = part.coordinate(i, j, dual.piece_boundaries(i, t0, t1))
            signed, _, _ = integrate_splitting(fn, 0.0, 1.0, npts=2 * (q + 3),
                                               n_scan=8 * (q + 3), splits=cuts)
            term = k * signed
            signed_total += term
            abs_total += abs(term)
            a_i[j] = np.sign(term)
            r_end = float(interval_residual(traj, problem, i, j, 1.0)[0])
            dphi_end = dual.value(i, t1, "left") - float(pi_fn(1.0)[0])
            shortcut += (tableau(method, q).product_constant * k
                         * abs(r_end) * abs(dphi_end))
        alphas.append(a_i)
    return ResidualZeroReport(
        value=abs(signed_total), signed=signed_total, abs_sum=abs_total,
        alphas=alphas, shortcut=shortcut,
    )


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

@dataclass
class ErrorReport(GalerkinEstimates, ExplicitEstimates):
    """The explicit stage completed: everything the adaptation loop and the
    batch front end consume.  It takes the stage's fields and the
    completion's (the rest of the chain E0..E5 and the stability factors the
    stage does not hold) from the two records, and declares only E_G, the
    total bound and the sign bookkeeping of E_G.  Its ``payload`` is None,
    so it completes no second report."""

    e_g: float
    total: float
    alphas: list[np.ndarray]
    eg_signed: float
    eg_abs_sum: float
    eg_shortcut: float
    #: bound over true error, fillable by callers holding a reference solution
    effectivity: float | None = None

    @property
    def chain(self) -> tuple[float, ...]:
        return (self.e0, self.e1, self.e2, self.e3, self.e4, self.e5)

    def to_json_dict(self) -> dict:
        part = self.partition
        return {
            "methods": list(self.methods),
            "estimates": {f"E{n}": e for n, e in enumerate(self.chain)},
            "E_G": self.e_g,
            "E_C": self.e_c,
            "E_Q": self.e_q,
            "total": self.total,
            "explicit_total": self.explicit_total,
            "eg_signed": self.eg_signed,
            "eg_abs_sum": self.eg_abs_sum,
            "eg_shortcut": self.eg_shortcut,
            "effectivity": self.effectivity,
            "stability_factors": {
                "per_component_derivative": [float(x) for x in self.s_deriv],
                "per_component_mean": [float(x) for x in self.s_mean],
                **self.factors.to_json_dict(),
            },
            "components": [
                {
                    "method": self.methods[i],
                    "interval_starts": [float(x) for x in part.breakpoints[i][:-1]],
                    "steps": [float(x) for x in part.steps(i)],
                    "orders": [int(x) for x in part.orders[i]],
                    "interp_constants": [
                        tableau(self.methods[i], int(q)).interp_const
                        for q in part.orders[i]
                    ],
                    "r": [float(x) for x in self.r[i]],
                    "rbar": [float(x) for x in self.rbar[i]],
                    "rc": [float(x) for x in self.rc[i]],
                    "rq_bound": [float(x) for x in self.rq_bound[i]],
                    "alpha": [float(x) for x in self.alphas[i]],
                }
                for i in range(len(self.methods))
            ],
            "flags": list(self.flags),
        }

    def csv_summary_rows(self) -> list[dict]:
        rows = []
        for i in range(len(self.methods)):
            rows.append({
                "component": i,
                "method": self.methods[i],
                "intervals": self.partition.n_intervals(i),
                "max_step": max((float(x) for x in self.partition.steps(i)),
                                default=0.0),
                "max_r": max((float(x) for x in self.r[i]), default=0.0),
                "max_rbar": max((float(x) for x in self.rbar[i]), default=0.0),
                "max_rc": max((float(x) for x in self.rc[i]), default=0.0),
                "max_rq_bound": max((float(x) for x in self.rq_bound[i]), default=0.0),
                "stability_deriv": float(self.s_deriv[i]),
                "stability_mean": float(self.s_mean[i]),
            })
        return rows


def estimate(problem: OdeProblem, traj: Trajectory, dual: DualSolution,
             explicit: ExplicitEstimates | None = None) -> ErrorReport:
    """Run the full estimator pipeline and assemble one report: the total
    bound adds the Galerkin, computational and quadrature parts, and its
    explicit form replaces the Galerkin part by the per-component max E3.

    The report is the explicit stage (``explicit``, made by
    ``explicit_estimates`` for the same problem, trajectory and dual, or one
    made here) completed by ``galerkin_estimates`` and ``eg_residual_zero``:
    it carries the stage's fields as they are, except the payload, which it
    leaves out.  A stage made from other inputs, a pickled or copied stage
    and a report raise ValueError."""
    if explicit is None:
        explicit = explicit_estimates(problem, traj, dual)
    est = galerkin_estimates(traj, dual, problem, explicit)
    eg = eg_residual_zero(traj, dual, problem)
    return ErrorReport(
        **{**vars(explicit), "payload": None}, **vars(est), e_g=eg.value,
        total=eg.value + explicit.e_c + explicit.e_q, alphas=eg.alphas,
        eg_signed=eg.signed, eg_abs_sum=eg.abs_sum, eg_shortcut=eg.shortcut,
    )


# ---------------------------------------------------------------------------
# A posteriori bound for stability factors from approximate duals
# ---------------------------------------------------------------------------

@dataclass
class StabilityFactorError:
    """Relative-error bound on the L1 stability factor of an approximate dual."""

    bound: float
    residual_l1: float
    constant: float
    s_phi: float


def stability_factor_error(dual: DualSolution,
                           dual_of_dual: DualSolution | None = None,
                           constant: float = 1.0) -> StabilityFactorError:
    """Bound |S_Phi - S_phi| / S_phi <= C * int ||R_Phi|| dt for a continuous
    approximate dual Phi.

    The default constant is 1; when a dual-of-dual solve is supplied, C is
    replaced by max_t ||omega(t)|| / S_Phi(T).  Discontinuous-family duals are
    rejected (the bound needs a continuous approximation)."""
    psi = dual.psi
    if any(m == MDG for m in psi.methods):
        raise ValueError("stability factor bound requires a continuous dual")
    part = psi.partition
    N = psi.dimension

    res_l1 = 0.0
    segs = np.unique(np.concatenate([part.breakpoints[i] for i in range(N)]))
    for a, b, idx in zip(segs[:-1], segs[1:], _segment_intervals(part, segs)):
        qmax = max([1, *(psi.order(i, j) for i, j in enumerate(idx))])

        def norm(sigmas):
            vals = np.empty((N, len(sigmas)))
            for i in range(N):
                s = part.coordinate(i, idx[i], sigmas)
                vals[i] = interval_residual(psi, dual.psi_problem, i, idx[i], s)
            return np.sqrt(np.sum(vals**2, axis=0))

        res_l1 += _gauss_integral(norm, a, b, 2 * (qmax + 3))

    s_phi = 0.0
    normv = lambda ts: np.linalg.norm(psi.sample_states(ts, "left"), axis=0)  # noqa: E731
    for a, b in zip(segs[:-1], segs[1:]):
        s_phi += _gauss_integral(normv, a, b, 8)

    C = constant
    if dual_of_dual is not None:
        sample = np.linspace(0.0, dual_of_dual.T, 257)
        omega = np.array([dual_of_dual.values(i, sample)
                          for i in range(dual_of_dual.dimension)])
        omega_max = float(np.max(np.linalg.norm(omega, axis=0)))
        C = omega_max / s_phi if s_phi > 0.0 else float("inf")
    return StabilityFactorError(
        bound=C * res_l1, residual_l1=res_l1, constant=C, s_phi=s_phi,
    )
