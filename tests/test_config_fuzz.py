"""Fuzz of the run-config boundary, without the solve and through a real one.

Configs at the schema's edges go through ``mgode run`` up to the point where
it hands the problem, partition and settings to ``adapt``, which is replaced
by a stub.  Every config must either reach the stub with well-formed inputs
or end as exit status 1 with one ``error:`` line; any other exception is a
failure.  The draws are bounded so that no config asks for more than 10^4
intervals.

A second fuzz runs ``mgode run`` unstubbed on small linear_decay and
linear_system configs, with the dual, solver and adapt keys at and past
their edges, so that it reaches the checks inside ``adapt`` and the
solver: every run ends with exit 0 or 2 and all eight artifacts, or with
exit 1, one ``error:`` or ``solver error:`` line and no output directory.
"""

import contextlib
import io
import json
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import mgode.cli
from mgode.controller import AdaptSettings
from mgode.models import model, model_names
from mgode.partition import Partition
from mgode.solver import OdeProblem, SolveSettings

MAX_INTERVALS = 10_000

NAN, INF = float("nan"), float("inf")
SUBNORMAL = 5e-324
# off-schema values for any field: sign, zero, non-finite, wrong types
ODD = [0, -1, -0.0, NAN, INF, -INF, "1", None, [], {}, True]


class Reached(Exception):
    """Raised by the adapt stub with the inputs run_command built."""


def _stub_adapt(problem, partition, adapt_settings):
    raise Reached(problem, partition, adapt_settings)


def pick(values):
    return st.sampled_from(values)


def steps_spec(T, n):
    """(valid, off-schema) step specs: constant steps of at least
    4 n T / MAX_INTERVALS and short explicit lists, so that no valid draw
    gives more than MAX_INTERVALS intervals in all; the off-schema ones
    include subnormal steps, which the partition rejects before building
    anything."""
    step = st.one_of(st.floats(4 * n * T / MAX_INTERVALS, 2.0 * T),
                     pick([T, 1e10 * T]))
    explicit = st.integers(1, 20).map(lambda m: [T / m] * m)
    valid = st.one_of(step, st.lists(st.one_of(step, explicit),
                                     min_size=n, max_size=n))
    return valid, [SUBNORMAL, T * 1e-300, "0.1", [], [NAN], [[T, INF]],
                   [T] * (n + 1), [[T / 2, NAN, T / 2]] * n]


def sections(n):
    """Per settings key: (valid draws, off-schema values)."""
    return {
        "solver": {
            "tolerance": (st.floats(1e-300, 1.0), [1e300]),
            "max_sweeps": (st.integers(1, 10**9), [2.0, 10.5]),
            "damping": (st.floats(1e-3, 1.0), [1.5]),
            "quad_depth": (st.integers(0, 9), [10, 40, 2.0])},
        "dual": {
            "phi_T": (st.one_of(pick(["unit"]), st.lists(
                st.floats(-1.0, 1.0), min_size=n, max_size=n)), ["ones"]),
            "order_increment": (st.integers(0, 13), [1.0]),
            "refine": (st.integers(1, 2_000_000), [2.0]),
            "s_points": (st.nothing(), [3])},
        "adapt": {
            "tol": (st.floats(1e-12, 1e300), []),
            "theta": (st.floats(1e-3, 1.0), [1.5]),
            "max_rounds": (st.integers(1, 50), [2.0]),
            "k_min": (st.floats(1e-12, 1e-4), [1e300]),
            "k_max": (st.floats(1e-3, 1e300), [])},
    }


TOP = ["source", "T", "steps", "u0", "methods", "orders", "extra", "missing"]
FIELDS = TOP + [f"{sec}.{key}" for sec, keys in sections(1).items()
                for key in keys] + [f"{sec}.extra" for sec in sections(1)]


@st.composite
def configs(draw):
    """A config with at most one field off the schema or its semantics;
    half the draws have none."""
    bad_field = draw(pick([None] * len(FIELDS) + FIELDS))

    def value(name, valid, bad):
        if name != bad_field:
            return draw(valid)
        return draw(pick(bad) if bad and draw(st.booleans()) else pick(ODD))

    cfg = {}
    name = draw(pick(model_names()))
    n = model(name).dimension
    source = "model"
    if bad_field == "source":
        source = draw(pick(["unknown", "bad_import", "both", "neither",
                            "raising_factory", "not_a_problem"]))
    if source in ("model", "both"):
        cfg["model"] = name
    elif source == "unknown":
        cfg["model"] = "no_such_model"
    if source in ("bad_import", "both"):
        cfg["problem_import"] = draw(pick(["no_such_module:make", "math",
                                           "math:no_such_attr", ".x:make",
                                           ":make"]))
    elif source == "raising_factory":
        cfg["problem_import"] = "json:loads"         # TypeError: no argument
    elif source == "not_a_problem":
        cfg["problem_import"] = "json:JSONDecoder"   # not an OdeProblem

    T = model(name).T_default
    if bad_field == "T" or draw(st.booleans()):
        cfg["T"] = value("T", st.one_of(st.floats(1e-3, 20.0),
                                        pick([SUBNORMAL, 1e300])), [])
        if type(cfg["T"]) is float and 0.0 < cfg["T"] < INF:
            T = cfg["T"]
    cfg["steps"] = value("steps", *steps_spec(T, n))
    if bad_field == "u0" or draw(st.booleans()):
        cfg["u0"] = value(
            "u0", st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
            [[1.0] * (n + 1), [1.0] * max(n - 1, 1), [NAN] * n, [INF] * n,
             ["x"] * n])
    if bad_field == "methods" or draw(st.booleans()):
        cfg["methods"] = value(
            "methods", st.one_of(pick(["mcG", "mdG"]), st.lists(
                pick(["mcG", "mdG"]), min_size=n, max_size=n)),
            ["xG", ["mcG"] * (n + 1), [3] * n])
    order = st.integers(1, 12)
    cfg["orders"] = value(
        "orders", st.one_of(order, st.lists(order, min_size=n, max_size=n)),
        [0, 13, 2.0, 2**70, -2**70, [2**70] * n, [-2**70] * n,
         [1] * (n + 1), [[1, 2]] * n])

    for section, keys in sections(n).items():
        forced = [key for key in keys if bad_field == f"{section}.{key}"]
        if forced or bad_field == f"{section}.extra" or draw(st.booleans()):
            chosen = draw(st.lists(pick(sorted(set(keys) - {"s_points"})),
                                   unique=True, max_size=3))
            cfg[section] = {key: value(f"{section}.{key}", *keys[key])
                            for key in sorted(set(chosen) | set(forced))}
            if bad_field == f"{section}.extra":
                cfg[section]["extra"] = 1
    if bad_field == "extra":
        cfg["extra"] = 1
    if bad_field == "missing":
        cfg.pop(draw(pick(["steps", "orders"])))
    return cfg


def _check_reached(problem, partition, adapt_settings):
    assert isinstance(problem, OdeProblem)
    assert isinstance(partition, Partition)
    assert isinstance(adapt_settings, AdaptSettings)
    assert isinstance(adapt_settings.solver, SolveSettings)
    assert partition.total_intervals <= MAX_INTERVALS
    assert partition.n_components == problem.dimension
    for bp in partition.breakpoints:
        assert bp[0] == 0.0 and bp[-1] == problem.T
        assert np.all(np.isfinite(bp)) and np.all(np.diff(bp) > 0.0)
    for name in ("max_sweeps", "quad_depth"):
        assert type(getattr(adapt_settings.solver, name)) is int
    for name in ("max_rounds", "dual_order_increment", "dual_refine"):
        assert type(getattr(adapt_settings, name)) is int


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


BASE = {"model": "lorenz", "steps": 0.1, "orders": 2}


# each boundary fault this fuzz has found, so that every run checks it
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=configs())
@example(cfg={**BASE, "steps": [[0.5, NAN, 0.5], 0.1, 0.1]})  # NaN breakpoints
@example(cfg={**BASE, "steps": [[INF], 0.1, 0.1]})            # cut to T
@example(cfg={**BASE, "solver": {"quad_depth": 2.0}})         # TypeError later
@example(cfg={**BASE, "adapt": {"max_rounds": 2.0}})          # TypeError later
@example(cfg={**BASE, "T": -1.0, "extra": 1})                 # two-line error
@example(cfg={**BASE, "orders": 2**70})                       # OverflowError
@example(cfg={"problem_import": "json:loads", "steps": 0.1, "orders": 2})
@example(cfg={"problem_import": ".x:make", "steps": 0.1, "orders": 2})  # traceback
def test_config_boundary(workdir, cfg):
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    out = workdir / "out"
    err = io.StringIO()
    with mock.patch.object(mgode.cli, "adapt", _stub_adapt), \
            contextlib.redirect_stderr(err):
        try:
            status = mgode.cli.main(["run", "--config", str(path),
                                     "--out", str(out)])
        except Reached as reached:
            event("reached adapt")
            _check_reached(*reached.args)
            return
    assert status == 1
    text = err.getvalue()
    event(text.replace(str(path), "config")[:60])
    assert text.startswith("error: ") and text.count("\n") == 1, text
    assert not out.exists()


# ---------------------------------------------------------------------------
# Through a real adapt
# ---------------------------------------------------------------------------

RUN_ARTIFACTS = ("trajectory.csv", "dual.csv", "error_report.json",
                 "error_summary.csv", "adapt_log.jsonl", "partition.json",
                 "trajectory.json", "dual.json")
TINY = 5e-324


def run_sections(n):
    """Per settings key: (small valid draws, values at and past the schema's
    edges).  The valid draws keep each run to a fraction of a second; the
    edge values may each make a run slow only on its own (a huge sweep
    budget converges, a tiny tolerance stops at the default budget)."""
    return {
        "solver": {
            "tolerance": (st.floats(1e-10, 1e-4), [TINY, 1e300, INF, 0.0, -1.0, NAN]),
            "max_sweeps": (st.integers(100, 1000), [1, 2, 10**30, 0, -1, 2.0]),
            "damping": (st.floats(0.5, 1.0), [TINY, 1e-3, 1.0, 0.0, 1.5, NAN]),
            "quad_depth": (st.integers(0, 2), [0, 9, 10, -1, 2.0])},
        "dual": {
            "phi_T": (st.one_of(pick(["unit"]), st.lists(
                st.floats(-1.0, 1.0), min_size=n, max_size=n)),
                [[1.0] * (n + 1), [1.0] * (n - 1), [NAN] * n, [INF] * n,
                 [-INF] * n, [1e308] * n, [-1e308] * n, [0.0] * n, "ones"]),
            "order_increment": (st.integers(0, 2), [0, 12, 13, 2**70, -1, 1.0]),
            "refine": (st.integers(1, 3), [1, 10**7 + 1, 2**70, 0, -1, 2.0])},
        "adapt": {
            "tol": (st.floats(1e-8, 1e300), [TINY, INF, 0.0, -1.0, NAN]),
            "theta": (st.floats(0.1, 1.0), [TINY, 1.0, 0.0, 1.5, NAN]),
            "max_rounds": (st.just(1), [0, -1, 2.0, 10**30]),
            "k_min": (st.floats(1e-8, 1e-3), [TINY, 0.0, -1.0, NAN, 1e300]),
            "k_max": (st.floats(1.0, 1e300), [TINY, 0.0, -1.0, NAN, INF])},
    }


RUN_FIELDS = [f"{sec}.{key}" for sec, keys in run_sections(1).items()
              for key in keys]


@st.composite
def run_configs(draw):
    """A small linear_decay or linear_system config, at most 20 intervals,
    with at most one settings key at or past its schema's edge (half the
    draws have none), and one or two adaptation rounds; a second round
    keeps k_min >= T / 20, so that it also stays small."""
    name = draw(pick(["linear_decay", "linear_system"]))
    n = model(name).dimension
    methods = draw(pick(["mcG", "mdG"]))
    cfg = {"model": name, "methods": methods,
           "steps": 1.0 / draw(pick([1, 2, 3, 5, 20])),
           "orders": draw(st.integers(1 if methods == "mcG" else 0, 2))}
    bad_field = draw(pick([None] * len(RUN_FIELDS) + RUN_FIELDS))
    for section, keys in run_sections(n).items():
        chosen = draw(st.lists(pick(sorted(keys)), unique=True, max_size=2))
        if bad_field and bad_field.startswith(section + "."):
            chosen = sorted(set(chosen) | {bad_field.split(".")[1]})
        values = {}
        for key in chosen:
            valid, edges = keys[key]
            values[key] = draw(pick(edges) if f"{section}.{key}" == bad_field
                               else valid)
        if values:
            cfg[section] = values
    if cfg.get("adapt", {}).get("max_rounds") == 10**30:
        # a huge round budget ends only once the tolerance is met: keep the
        # CLI's infinite one
        cfg["adapt"].pop("tol", None)
    if bad_field is None or not bad_field.startswith("adapt."):
        if draw(st.booleans()):
            cfg["adapt"] = {**cfg.get("adapt", {}), "max_rounds": 2,
                            "k_min": draw(st.floats(1.0 / 20, 0.5))}
    return cfg


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=run_configs())
@example(cfg={"model": "linear_decay", "steps": 0.5, "orders": 1,
              "dual": {"order_increment": 2**70}})              # OverflowError
def test_config_through_a_real_adapt(workdir, cfg):
    path = workdir / "run.json"
    path.write_text(json.dumps(cfg))
    out = workdir / "run_out"
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            status = mgode.cli.main(["run", "--config", str(path),
                                     "--out", str(out)])
        text = err.getvalue()
        event(f"exit {status}")
        if status in (0, 2):
            assert sorted(p.name for p in out.iterdir()) == sorted(RUN_ARTIFACTS)
        else:
            assert status == 1
            assert text.startswith(("error: ", "solver error: ")), text
            assert text.count("\n") == 1, text
            assert not out.exists()
    finally:
        shutil.rmtree(out, ignore_errors=True)
