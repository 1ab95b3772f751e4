#!/usr/bin/env python3
"""Byte-compare the Kepler run artifacts, the effectivity-grid reports, the
multirate cases, a chain solve, the catalog's closed forms and the scheme
tableaus of two source trees.

Usage:

    python3 scripts/compare_artifacts.py PARENT_ROOT CHANGE_ROOT

Runs ``mgode run`` on the acceptance #12 Kepler config (model kepler_2body,
T = 2, mcG q = 2, k = 0.1, solver tolerance 1e-11 at quad_depth 1, adapt
tolerance 1e-4, 2 rounds, k in [1e-3, 0.5]; the benchmark's kepler_run at
seed 0) once per tree, which meets its tolerance on the last round of its
budget, and the same config with a budget of 3 rounds, written to a
``max_rounds3`` subdirectory, which meets it in round 2 before its budget
runs out, so ``adapt`` completes its report from a stage that it first
tested against the tolerance, and the same config with a budget of 1 round
(the CLI default), written to a ``max_rounds1`` subdirectory, where
``adapt`` builds the dual partition before the only solve and reports
without re-partitioning.  It also runs the effectivity grid (model
linear_system, mcG and mdG x q in {1, 2} x k in {0.1, 0.05, 0.025}, dual
refine 4, tolerance 1e-13, terminal weight along the true error; the
benchmark's effectivity_grid at seed 0), each in its own subprocess with
PYTHONPATH=<root>/src and BLAS pinned to one thread; at most one
subprocess per CPU the script may run on is alive at a time.  The grid is
the only compared run with mdG jump terms.  The grid's subprocess then runs
two mixed-family multirate cases (model linear_system, steps
[0.03]*10 + [0.07]*10 and [0.1]*10, orders [2, 1], methods (mcG, mdG) and
(mdG, mcG), quad_depth 1, tolerance 1e-13, dual refine 2, terminal weight
[1, 0]): the only compared runs with an mdG multirate partition, whose
nodes land an ulp off another component's breakpoint.  On each it also
dumps the readers that nothing in the pipeline calls: ``Trajectory.value``,
``state``, ``values`` at orders 0..q and ``sample_states``,
``DualSolution.value`` and ``values`` at orders 0..p, at every interior
breakpoint from both sides, at the midpoints, at 0 from the right and at T
from the left, and ``local_order`` on each primal interval.  One more subprocess
per tree runs twelve N = 1 cases (model linear_decay, steps [0.1]*3 +
[0.35]*2, mcG q in {1, 2, 3} and mdG q in {0, 1, 2}, quad_depth 1,
tolerance 1e-13, dual refine 1 and 3, terminal weight [1]; see
``DECAY_CASES``): the only compared runs whose completion takes the N = 1
branch of its segment loop.  One more subprocess
per tree runs the forward solve of the benchmark's chain_solve at seed 0,
built here (64-component diffusion chain, last component at k/4, mcG q =
2, k = 0.1, T = 1, solver tolerance 1e-12; see ``chain_texts``): the only
compared run that is a solve alone, with many intervals per slab.  One more
subprocess per tree evaluates the ``closed_form`` of every catalog model
that has one at the fractions ``CLOSED_FORM_FRACTIONS`` of its default
horizon: kepler_2body solves Kepler's equation by the package's Brent root
search, and linear_system takes a matrix exponential.  Then it
compares the eight artifacts of each of the three Kepler runs, the twelve
grid ``ErrorReport.to_json_dict()`` JSON texts and dual coefficients (of
``DualSolution.psi``), each multirate case's coefficients, dual
coefficients, report JSON and reader dump and the chain's coefficients and
``SolveReport``, the twelve N = 1 report JSON texts and each closed form's
values byte for byte, and
names each one that differs.  One more
subprocess per tree dumps every
tableau (mcG q = 1..12, mdG q = 0..12: ``MethodTableau.to_json_dict()``,
``test_nodes``, ``node_weights``, ``amat`` and ``amat_inv``) and its
``scheme_rule`` and ``integration_rule`` at dyadic depths 0-3, and its
per-order numbers (the derivative order p, the interpolation constant C_q,
the residual-zero points and the product-quadrature constant; see
``order_numbers``), which covers the orders no compared run reaches; JSON
writes each float exactly, so equal texts are equal bits.  For each error
report that differs (a Kepler ``error_report.json``, a grid case, a
multirate report, an N = 1 case) it also prints each differing field, how
many of its entries differ and their largest relative deviation, in the
max norm relative to the parent's field, as the golden gates measure it.  One
summary line says whether the numbers of the first Kepler run that feed
``propose_steps`` are identical: each component's r and r-bar, the per-component derivative
factor, ``partition.json`` and the trajectory and dual coefficients; the
numerical contract keeps these bit for bit.  Exits 0 when all are
identical, 1 on any difference or failed run.  Everything is
written under a temporary directory, removed at the end.
"""

import argparse
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = {
    "model": "kepler_2body", "T": 2.0, "methods": "mcG",
    "orders": 2, "steps": 0.1,
    "solver": {"tolerance": 1e-11, "quad_depth": 1},
    "adapt": {"tol": 1e-4, "max_rounds": 2, "k_min": 1e-3, "k_max": 0.5},
}
ARTIFACTS = ("trajectory.csv", "dual.csv", "error_report.json",
             "error_summary.csv", "adapt_log.jsonl", "partition.json",
             "trajectory.json", "dual.json")
HANDOFF_CONFIG = {**CONFIG, "adapt": {**CONFIG["adapt"], "max_rounds": 3}}
HANDOFF_DIR = "max_rounds3"
HANDOFF_ARTIFACTS = tuple(f"{HANDOFF_DIR}/{name}" for name in ARTIFACTS)
ONE_ROUND_CONFIG = {**CONFIG, "adapt": {**CONFIG["adapt"], "max_rounds": 1}}
ONE_ROUND_DIR = "max_rounds1"
ONE_ROUND_ARTIFACTS = tuple(f"{ONE_ROUND_DIR}/{name}" for name in ARTIFACTS)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
GRID_CASES = [(method, q, k) for method in ("mcG", "mdG") for q in (1, 2)
              for k in (0.1, 0.05, 0.025)]
GRID_DUAL_TEXTS = [f"{method}-q{q}-k{k}-dual" for method, q, k in GRID_CASES]
MULTIRATE_METHODS = [("mcG", "mdG"), ("mdG", "mcG")]
MULTIRATE_TEXTS = [f"multirate-{a}-{b}-{text}" for a, b in MULTIRATE_METHODS
                   for text in ("coefficients", "dual", "report", "readers")]
CHAIN_TEXTS = ("chain-coefficients", "chain-report")
DECAY_CASES = [(method, q, refine) for method, orders in (("mcG", (1, 2, 3)),
                                                         ("mdG", (0, 1, 2)))
               for q in orders for refine in (1, 3)]
CLOSED_FORM_FRACTIONS = (0.0, 0.1, 0.25, 0.37, 0.5, 0.63, 0.83, 1.0)
TABLEAU_CASES = ([("mcG", q) for q in range(1, 13)]
                 + [("mdG", q) for q in range(0, 13)])
RULE_DEPTHS = [0, 1, 2, 3]


def order_numbers(tab) -> dict:
    """p, C_q, the residual-zero points and the product-quadrature constant
    of one tableau, read from its own fields."""
    return {"p": tab.deriv_order, "C_q": tab.interp_const,
            "residual_zeros": tab.residual_zeros.tolist(),
            "product_constant": tab.product_constant}


# Prints one line per tableau, one per (tableau, rule depth) and one with the
# tableau's per-order numbers: the name, a tab, the JSON text.
TABLEAU_SCRIPT = f"""
import json
from mgode.tableau import integration_rule, scheme_rule, tableau

{inspect.getsource(order_numbers)}

for method, q in {TABLEAU_CASES!r}:
    tab = tableau(method, q)
    fields = tab.to_json_dict()
    for name in ("test_nodes", "node_weights", "amat", "amat_inv"):
        fields[name] = getattr(tab, name).tolist()
    print(f"{{method}}-q{{q}}\\t" + json.dumps(fields))
    for depth in {RULE_DEPTHS!r}:
        rules = {{rule.__name__: [a.tolist() for a in rule(method, q, depth)]
                 for rule in (scheme_rule, integration_rule)}}
        print(f"{{method}}-q{{q}}-depth{{depth}}\\t" + json.dumps(rules))
    print(f"{{method}}-q{{q}}-numbers\\t"
          + json.dumps(order_numbers(tab)))
"""


def chain_texts() -> dict[str, str]:
    """Name -> JSON text of the coefficients and the ``SolveReport`` of the
    forward solve of benchmark chain_solve at seed 0: u' = A u with A the
    64-component diffusion chain (coefficient 0.5 between neighbours, an
    extra decay of 4 on the last component), u0 = 1 + cos(pi x) / 2 on a
    uniform grid x of [0, 1], mcG(2) on k = 0.1 and k / 4 for the last
    component, T = 1, solver tolerance 1e-12."""
    import dataclasses

    import numpy as np
    from mgode.partition import build_partition
    from mgode.solver import OdeProblem, SolveSettings, solve

    n, d, lam, k = 64, 0.5, 4.0, 0.1

    def rhs(u, t):
        f = -2.0 * d * u
        f[1:] += d * u[:-1]
        f[:-1] += d * u[1:]
        f[0] += d * u[0]
        f[-1] += (d - lam) * u[-1]
        return f

    u0 = 1.0 + 0.5 * np.cos(np.pi * np.linspace(0.0, 1.0, n))
    prob = OdeProblem(rhs=rhs, u0=u0, T=1.0, methods="mcG", vectorized=True)
    part = build_partition([k] * (n - 1) + [k / 4], 2, 1.0, methods=prob.methods)
    traj = solve(prob, part, SolveSettings(tolerance=1e-12))
    coeffs = [[traj.coefficients(i, j).tolist()
               for j in range(part.n_intervals(i))] for i in range(n)]
    return dict(zip(CHAIN_TEXTS, (json.dumps(coeffs),
                                  json.dumps(dataclasses.asdict(traj.report)))))


# Prints one line per chain text: the name, a tab, the JSON text.
CHAIN_SCRIPT = f"""
import json

CHAIN_TEXTS = {CHAIN_TEXTS!r}

{inspect.getsource(chain_texts)}

for name, text in chain_texts().items():
    print(name + "\\t" + text)
"""
# Prints one line per catalog model with a closed form: the name, a tab, the
# JSON text of its values at the fractions of its default horizon.
CLOSED_FORM_SCRIPT = f"""
import json
from mgode.models import model, model_names

for name in model_names():
    entry = model(name)
    if entry.closed_form is not None:
        print(f"closed-{{name}}\\t" + json.dumps(
            [entry.closed_form(f * entry.T_default).tolist()
             for f in {CLOSED_FORM_FRACTIONS!r}]))
"""
# Prints one line per N = 1 case: the name, a tab, the report's JSON text.
DECAY_SCRIPT = f"""
import json
import numpy as np
from mgode.dual import DualSpec, dual_partition_for, solve_dual
from mgode.estimator import estimate
from mgode.models import model
from mgode.partition import build_partition
from mgode.solver import SolveSettings, solve

settings = SolveSettings(tolerance=1e-13, quad_depth=1)
for method, q, refine in {DECAY_CASES!r}:
    prob = model("linear_decay").problem(methods=method)
    part = build_partition([[0.1] * 3 + [0.35] * 2], q, prob.T,
                           methods=prob.methods)
    traj = solve(prob, part, settings)
    dual = solve_dual(DualSpec(problem=prob, primal=traj, phi_T=np.array([1.0])),
                      dual_partition_for(part, 1, refine), settings)
    report = estimate(prob, traj, dual)
    print(f"decay-{{method}}-q{{q}}-refine{{refine}}\\t"
          + json.dumps(report.to_json_dict()))
"""
# Prints one line per grid case, per grid case's dual coefficients and per
# multirate text: the name, a tab, the JSON text.
GRID_SCRIPT = f"""
import json
import numpy as np
from scipy.linalg import expm
from mgode.dual import DualSpec, dual_partition_for, solve_dual
from mgode.estimator import estimate
from mgode.models import model
from mgode.partition import build_partition
from mgode.solver import SolveSettings, solve

def coefficients(traj):
    return json.dumps([[traj.coefficients(i, j).tolist()
                        for j in range(traj.partition.n_intervals(i))]
                       for i in range(traj.dimension)])

entry = model("linear_system")
reference = expm(entry.jacobian(entry.u0, 0.0) * entry.T_default) @ entry.u0
settings = SolveSettings(tolerance=1e-13)
for method, q, k in {GRID_CASES!r}:
    prob = entry.problem(methods=method)
    part = build_partition(k, q, prob.T, methods=prob.methods)
    traj = solve(prob, part, settings)
    e_T = traj.end_state() - reference
    dual = solve_dual(DualSpec(problem=prob, primal=traj,
                               phi_T=e_T / np.linalg.norm(e_T)),
                      dual_partition_for(part, 1, 4), settings)
    report = estimate(prob, traj, dual)
    print(f"{{method}}-q{{q}}-k{{k}}\\t" + json.dumps(report.to_json_dict()))
    print(f"{{method}}-q{{q}}-k{{k}}-dual\\t" + coefficients(dual.psi))

settings = SolveSettings(tolerance=1e-13, quad_depth=1)
for methods in {MULTIRATE_METHODS!r}:
    prob = entry.problem(methods=methods)
    part = build_partition([[0.03] * 10 + [0.07] * 10, [0.1] * 10], [2, 1],
                           prob.T, methods=prob.methods)
    traj = solve(prob, part, settings)
    dual = solve_dual(DualSpec(problem=prob, primal=traj,
                               phi_T=np.array([1.0, 0.0])),
                      dual_partition_for(part, 1, 2), settings)
    report = estimate(prob, traj, dual)
    name = "multirate-" + "-".join(methods)
    print(f"{{name}}-coefficients\\t" + coefficients(traj))
    print(f"{{name}}-dual\\t" + coefficients(dual.psi))
    print(f"{{name}}-report\\t" + json.dumps(report.to_json_dict()))
    # the single-time readers and their array forms at every interior
    # breakpoint from both sides, at the midpoints, at 0 from the right and
    # at T from the left
    bp = np.unique(np.concatenate(part.breakpoints))
    mid = 0.5 * (bp[:-1] + bp[1:])
    times = {{"left": np.sort(np.concatenate([bp[1:], mid])),
             "right": np.sort(np.concatenate([bp[:-1], mid]))}}
    readers = {{"local_order": [[dual.local_order(i, *part.span(i, j))
                                for j in range(part.n_intervals(i))]
                               for i in range(2)]}}
    for side, ts in times.items():
        readers[f"state-{{side}}"] = [traj.state(t, side).tolist()
                                     for t in ts.tolist()]
        readers[f"sample_states-{{side}}"] = traj.sample_states(ts, side).tolist()
        for i in range(2):
            readers[f"value-{{side}}-{{i}}"] = [traj.value(i, t, side)
                                              for t in ts.tolist()]
            for order in range(int(part.orders[i].max()) + 1):
                readers[f"values-{{side}}-{{i}}-{{order}}"] = traj.values(
                    i, ts, side, order).tolist()
            for order in range(int(dual.psi.partition.orders[i].max()) + 1):
                readers[f"dual-value-{{side}}-{{i}}-{{order}}"] = [
                    dual.value(i, t, side, order) for t in ts.tolist()]
                readers[f"dual-values-{{side}}-{{i}}-{{order}}"] = dual.values(
                    i, ts, side, order).tolist()
    print(f"{{name}}-readers\\t" + json.dumps(readers))
"""


def _fields(node, path=""):
    """(dotted path, list of entries) for every leaf field of a JSON report,
    e.g. ("estimates.E0", [x]) or ("components[1].rc", [x0, x1, ...])."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _fields(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list) and any(isinstance(x, (dict, list)) for x in node):
        for k, value in enumerate(node):
            yield from _fields(value, f"{path}[{k}]")
    else:
        yield path, node if isinstance(node, list) else [node]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _same(u, v) -> bool:
    return u == v or (u != u and v != v)     # NaN matches NaN


def field_deviations(parent: dict, change: dict
                     ) -> list[tuple[str, int, int, float]]:
    """(field, entries that differ, entries, largest relative deviation) for
    each field of two reports that differs, in the parent's field order.

    The deviation is max |change - parent| over the differing entries
    divided by the max norm of the parent field's finite entries.  It is
    inf when the field is missing on one side or has another length, when
    a differing entry is not a finite number on both sides, and when the
    parent field is zero."""
    a, b = dict(_fields(parent)), dict(_fields(change))
    out = []
    for name in list(a) + [name for name in b if name not in a]:
        x, y = a.get(name, []), b.get(name, [])
        pairs = [(u, v) for u, v in zip(x, y) if not _same(u, v)]
        differ = len(pairs) + abs(len(x) - len(y))
        if not differ:
            continue
        dev = math.inf
        if len(x) == len(y) and all(_is_number(u) and _is_number(v)
                                    for u, v in pairs):
            diff = max(abs(u - v) for u, v in pairs)
            scale = max((abs(u) for u in x if _is_number(u) and math.isfinite(u)),
                        default=0.0)
            if math.isfinite(diff) and scale > 0.0:
                dev = diff / scale
        out.append((name, differ, max(len(x), len(y)), dev))
    return out


def print_deviations(name: str, parent: str, change: str) -> None:
    """Name a differing report and quote each differing field."""
    print(f"differs: {name}")
    for field, differ, entries, dev in field_deviations(json.loads(parent),
                                                        json.loads(change)):
        print(f"  {field}: {differ} of {entries} entries differ, "
              f"largest relative deviation {dev:.3e}")


def steering_parts(texts: dict[str, str]) -> dict[str, str]:
    """Part name -> JSON text of each number set of one Kepler run that
    feeds ``propose_steps``, read from the artifact texts by file name."""
    report = json.loads(texts["error_report.json"])
    return {
        "r": json.dumps([c["r"] for c in report["components"]]),
        "rbar": json.dumps([c["rbar"] for c in report["components"]]),
        "s_deriv": json.dumps(
            report["stability_factors"]["per_component_derivative"]),
        "partition": texts["partition.json"],
        **{name: json.dumps([c["coefficients"] for c in
                             json.loads(texts[f"{name}.json"])["components"]])
           for name in ("trajectory", "dual")},
    }


def steering_summary(parent: dict[str, str], change: dict[str, str]) -> str:
    """One line saying whether the numbers that feed ``propose_steps`` are
    identical in two runs' artifact texts, naming the parts that differ."""
    try:
        a, b = steering_parts(parent), steering_parts(change)
    except (KeyError, TypeError, ValueError):
        return "propose_steps inputs differ: unreadable artifacts"
    differ = [name for name in a if a[name] != b[name]]
    if differ:
        return "propose_steps inputs differ: " + ", ".join(differ)
    return ("propose_steps inputs identical (r, rbar, s_deriv, partition, "
            "trajectory and dual coefficients)")


def entries(text: str) -> dict[str, str]:
    """Name -> JSON text of a dump that prints one ``name<TAB>JSON`` line
    per entry."""
    return dict(line.split("\t", 1) for line in text.splitlines())


def differing_entries(parent: str, change: str) -> list[str]:
    """Names of the entries of two dumps whose texts differ or that only the
    parent has, in the parent's order, then the names only the change has."""
    a, b = entries(parent), entries(change)
    return ([name for name in a if a[name] != b.get(name)]
            + [name for name in b if name not in a])


def start(root: Path, args: list[str]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               **{var: "1" for var in THREAD_VARS})
    return subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def finish(name: str, proc: subprocess.Popen, ok=(0,)) -> str | None:
    """The run's standard output, or None (with a message) if it failed."""
    out, err = proc.communicate()
    if proc.returncode not in ok:
        print(f"{name} exited {proc.returncode}: {err.strip()}", file=sys.stderr)
        return None
    return out


def run_all(jobs: list[tuple]) -> list[str | None]:
    """Run the jobs (name, root, interpreter arguments, accepted exit codes)
    and return each one's ``finish`` result, in job order.  At most one job
    per CPU this process may run on is alive at a time: job k starts once
    job k - limit has finished."""
    limit = len(os.sched_getaffinity(0))
    procs, results = [], []
    for name, root, args, ok in jobs:
        if len(procs) - len(results) == limit:
            results.append(finish(*procs[len(results)]))
        procs.append((name, start(root, args), ok))
    return results + [finish(*job) for job in procs[len(results):]]


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Byte-compare the Kepler run artifacts, the "
                    "effectivity-grid reports, the multirate cases, a chain "
                    "solve, the catalog's closed forms and the scheme "
                    "tableaus of two source trees.")
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    args = parser.parse_args()
    roots = {"parent": args.parent_root.resolve(),
             "change": args.change_root.resolve()}
    for name, root in roots.items():
        if not (root / "src" / "mgode").is_dir():
            print(f"error: {name} root {root} has no src/mgode", file=sys.stderr)
            return 1

    with tempfile.TemporaryDirectory(prefix="mgode-compare-") as tmp:
        tmp = Path(tmp)
        config = tmp / "kepler.json"
        config.write_text(json.dumps(CONFIG))
        handoff = tmp / "kepler-max_rounds3.json"
        handoff.write_text(json.dumps(HANDOFF_CONFIG))
        one_round = tmp / "kepler-max_rounds1.json"
        one_round.write_text(json.dumps(ONE_ROUND_CONFIG))
        outs = {name: tmp / name for name in roots}
        # mgode run exits 2 when it finishes without meeting its tolerance
        runs = [(f"{name}: mgode run {cfg.name}", root,
                 ["-m", "mgode.cli", "run", "--config", str(cfg), "--out",
                  str(out)], (0, 2))
                for name, root in roots.items()
                for cfg, out in ((config, outs[name]),
                                 (handoff, outs[name] / HANDOFF_DIR),
                                 (one_round, outs[name] / ONE_ROUND_DIR))]
        scripts = [(f"{name}: {what}", root, ["-c", script], (0,))
                   for what, script in (("effectivity grid", GRID_SCRIPT),
                                        ("tableau dump", TABLEAU_SCRIPT),
                                        ("chain solve", CHAIN_SCRIPT),
                                        ("N = 1 cases", DECAY_SCRIPT),
                                        ("closed forms", CLOSED_FORM_SCRIPT))
                   for name, root in roots.items()]
        results = run_all(runs + scripts)
        if None in results:
            return 1
        # each dump's parent and change outputs, in the order above
        reports, dumps, chain_dumps, decay_dumps, closed_dumps = (
            results[k:k + 2] for k in range(len(runs), len(results), 2))

        differ = []
        for artifact in ARTIFACTS + HANDOFF_ARTIFACTS + ONE_ROUND_ARTIFACTS:
            a, b = (outs[name] / artifact for name in roots)
            if not (a.is_file() and b.is_file()
                    and a.read_bytes() == b.read_bytes()):
                differ.append(artifact)
                if (artifact.endswith("error_report.json")
                        and a.is_file() and b.is_file()):
                    print_deviations(artifact, a.read_text(), b.read_text())
                else:
                    print(f"differs: {artifact}")
        steering = steering_summary(*(
            {artifact: (out / artifact).read_text() for artifact in ARTIFACTS
             if (out / artifact).is_file()} for out in outs.values()))
    a, b = (entries(text) for text in reports)
    if (len(a) != len(GRID_CASES) + len(GRID_DUAL_TEXTS) + len(MULTIRATE_TEXTS)
            or set(a) != set(b)):
        print("error: the two trees report different grid cases", file=sys.stderr)
        return 1
    grid_differ = [case for case in a if case not in MULTIRATE_TEXTS
                   and case not in GRID_DUAL_TEXTS and a[case] != b[case]]
    grid_dual_differ = [name for name in GRID_DUAL_TEXTS if a[name] != b[name]]
    multirate_differ = [name for name in MULTIRATE_TEXTS if a[name] != b[name]]
    for name in grid_differ + grid_dual_differ + multirate_differ:
        if name in grid_differ or name.endswith("-report"):
            print_deviations(name, a[name], b[name])
        else:
            print(f"differs: {name}")
    if any(set(entries(text)) != set(CHAIN_TEXTS) for text in chain_dumps):
        print("error: a chain solve printed other texts", file=sys.stderr)
        return 1
    if any(len(entries(text)) != len(DECAY_CASES) for text in decay_dumps):
        print("error: an N = 1 run printed other texts", file=sys.stderr)
        return 1
    if not entries(closed_dumps[0]):
        print("error: the parent's closed-form dump is empty", file=sys.stderr)
        return 1
    decay_differ = differing_entries(*decay_dumps)
    for name in decay_differ:
        print_deviations(name, *(entries(text)[name] for text in decay_dumps))
    chain_differ = differing_entries(*chain_dumps)
    closed_differ = differing_entries(*closed_dumps)
    dump_differ = differing_entries(*dumps)
    for name in chain_differ + closed_differ + dump_differ:
        print(f"differs: {name}")
    numbers_differ = [name for name in dump_differ if name.endswith("-numbers")]
    tableau_differ = [name for name in dump_differ if name not in numbers_differ]
    handoff_differ = [name for name in differ if name in HANDOFF_ARTIFACTS]
    one_round_differ = [name for name in differ if name in ONE_ROUND_ARTIFACTS]
    first_differ = len(differ) - len(handoff_differ) - len(one_round_differ)
    print(f"{len(ARTIFACTS) - first_differ} of {len(ARTIFACTS)} artifacts "
          "identical")
    print(f"{len(HANDOFF_ARTIFACTS) - len(handoff_differ)} of "
          f"{len(HANDOFF_ARTIFACTS)} max_rounds 3 artifacts identical")
    print(f"{len(ONE_ROUND_ARTIFACTS) - len(one_round_differ)} of "
          f"{len(ONE_ROUND_ARTIFACTS)} max_rounds 1 artifacts identical")
    print(steering)
    print(f"{len(GRID_CASES) - len(grid_differ)} of {len(GRID_CASES)} "
          "grid reports identical")
    print(f"{len(GRID_DUAL_TEXTS) - len(grid_dual_differ)} of "
          f"{len(GRID_DUAL_TEXTS)} grid dual coefficients identical")
    print(f"{len(MULTIRATE_TEXTS) - len(multirate_differ)} of "
          f"{len(MULTIRATE_TEXTS)} multirate texts identical")
    print(f"{len(DECAY_CASES) - len(decay_differ)} of {len(DECAY_CASES)} "
          "N = 1 reports identical")
    print(f"{0 if chain_differ else 1} of 1 chain solves identical")
    n_closed = len(entries(closed_dumps[0]))
    print(f"{n_closed - len(closed_differ)} of {n_closed} closed forms "
          "identical")
    n_tableau = len(TABLEAU_CASES) * (1 + len(RULE_DEPTHS))
    print(f"{n_tableau - len(tableau_differ)} of {n_tableau} tableau entries "
          "identical")
    print(f"{len(TABLEAU_CASES) - len(numbers_differ)} of {len(TABLEAU_CASES)} "
          "per-order entries identical")
    return (1 if differ or grid_differ or grid_dual_differ or multirate_differ
            or decay_differ or chain_differ or closed_differ or dump_differ
            else 0)


if __name__ == "__main__":
    sys.exit(main())
