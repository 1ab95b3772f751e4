"""The helpers of the repository's scripts: the per-field report comparison,
the dump comparison, the per-order number reader, the
``propose_steps`` input summary, the chain solve, the bounded job runner,
the N = 1 cases and the closed-form dump of
``scripts/compare_artifacts.py``, the code-line counter of
``scripts/count_code_lines.py`` and the pair summary of
``scripts/ab_pairs.py``.  Each script is loaded by its path."""

import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(**changes):
    """A small hand-made error report, in ErrorReport.to_json_dict's shape."""
    data = {
        "methods": ["mcG", "mdG"],
        "estimates": {"E0": 1.0e-6, "E1": 2.0e-6},
        "E_C": 0.0,
        "effectivity": None,
        "components": [
            {"method": "mcG", "rc": [1.0, -2.0, 4.0], "orders": [2, 2, 2]},
            {"method": "mdG", "rc": [0.5, 0.25], "orders": [1, 1]},
        ],
        "flags": [],
    }
    for path, value in changes.items():
        node = data
        *keys, last = path.split("__")
        for key in keys:
            node = node[int(key)] if key.isdigit() else node[key]
        node[int(last) if last.isdigit() else last] = value
    return data


class TestFieldDeviations:
    def test_identical_reports_have_none(self):
        compare = load_script("compare_artifacts")
        assert compare.field_deviations(report(), report()) == []

    def test_each_differing_field_with_count_and_deviation(self):
        compare = load_script("compare_artifacts")
        change = report(estimates__E1=2.0e-6 * (1 + 3e-12),
                        components__0__rc=[1.0, -2.0 + 4e-15, 4.0 - 8e-15],
                        components__1__method="mcG")
        got = compare.field_deviations(report(), change)
        assert [(name, differ, entries) for name, differ, entries, _ in got] == [
            ("estimates.E1", 1, 1), ("components[0].rc", 2, 3),
            ("components[1].method", 1, 1)]
        # the max norm of the difference over the parent field's max norm
        assert math.isclose(got[0][3], 3e-12, rel_tol=1e-3)
        assert math.isclose(got[1][3], 8e-15 / 4.0, rel_tol=1e-2)
        assert got[2][3] == math.inf          # not a number

    def test_zero_missing_resized_and_nan_fields(self):
        compare = load_script("compare_artifacts")
        parent = report(estimates__E0=math.nan)
        change = report(estimates__E0=math.nan, E_C=1e-30,
                        components__1__rc=[0.5, 0.25, 0.125])
        change["extra"] = 1.0
        got = {name: (differ, entries, dev) for name, differ, entries, dev
               in compare.field_deviations(parent, change)}
        # E0 is NaN on both sides, which counts as equal; E_C is zero in
        # the parent; one rc entry and the extra field exist on one side only
        assert got == {"E_C": (1, 1, math.inf),
                       "components[1].rc": (1, 3, math.inf),
                       "extra": (1, 1, math.inf)}


class TestDifferingEntries:
    # two hand-made tableau dumps, one "name<TAB>JSON" line per entry
    PARENT = ('mcG-q1\t{"nodes": [0.0, 1.0]}\n'
              'mcG-q1-depth0\t{"scheme_rule": [[0.0, 1.0], [[0.5, 0.5]]]}\n'
              'mdG-q0\t{"nodes": [1.0]}\n')

    def test_identical_dumps_have_none(self):
        compare = load_script("compare_artifacts")
        assert compare.differing_entries(self.PARENT, self.PARENT) == []

    def test_changed_missing_and_extra_entries(self):
        compare = load_script("compare_artifacts")
        # one ulp off in one weight, one entry dropped, one entry added
        change = (self.PARENT.replace("[[0.5, 0.5]]", "[[0.5, 0.5000000000000001]]")
                  .replace('mdG-q0\t{"nodes": [1.0]}\n', "")
                  + 'mdG-q1\t{"nodes": [0.3333333333333333, 1.0]}\n')
        assert compare.differing_entries(self.PARENT, change) == [
            "mcG-q1-depth0", "mdG-q0", "mdG-q1"]


class TestOrderNumbers:
    # a stub tableau: the reader takes the tableau's own fields
    NUMBERS = {"p": 3, "C_q": 0.125, "residual_zeros": [0.0, 0.25, 0.75],
               "product_constant": 0.2}

    def test_fields_of_the_tableau(self):
        compare = load_script("compare_artifacts")
        tab = SimpleNamespace(method="mdG", order=2, deriv_order=3,
                              interp_const=0.125,
                              residual_zeros=np.array([0.0, 0.25, 0.75]),
                              product_constant=0.2)
        assert compare.order_numbers(tab) == self.NUMBERS

    def test_dump_script_carries_the_reader(self):
        compare = load_script("compare_artifacts")
        assert "def order_numbers(tab)" in compare.TABLEAU_SCRIPT


def kepler_texts(**changes):
    """Hand-made texts of the four Kepler artifacts that hold the numbers
    feeding propose_steps, with the named parts replaced."""
    parts = {"r": [[1e-3, 2e-3], [4e-3]], "rbar": [[1e-3, 2e-3], [4e-3]],
             "s_deriv": [0.5, 0.25], "breakpoints": [[0.0, 0.5, 1.0], [0.0, 1.0]],
             "trajectory": [[[1.0, 0.9, 0.8], [0.8, 0.7, 0.6]], [[0.0, 0.1, 0.2]]],
             "dual": [[[0.3, 0.4, 0.5, 0.6]], [[0.7, 0.8, 0.9, 1.0]]]}
    parts.update(changes)
    report = {"estimates": {"E0": 1e-6},
              "stability_factors": {"per_component_derivative": parts["s_deriv"]},
              "components": [{"r": r, "rbar": rbar} for r, rbar
                             in zip(parts["r"], parts["rbar"])]}
    return {
        "error_report.json": json.dumps(report),
        "partition.json": json.dumps(
            {"components": [{"breakpoints": bp} for bp in parts["breakpoints"]]}),
        **{f"{name}.json": json.dumps(
            {"components": [{"coefficients": c} for c in parts[name]]})
           for name in ("trajectory", "dual")},
    }


class TestHandoffRun:
    # the second Kepler run differs from the first only in its round budget
    def test_config_adds_one_round(self):
        compare = load_script("compare_artifacts")
        adapt = dict(compare.HANDOFF_CONFIG["adapt"])
        assert adapt.pop("max_rounds") == 3
        assert {**compare.HANDOFF_CONFIG, "adapt": adapt} == {
            **compare.CONFIG, "adapt": {key: value for key, value in
                                        compare.CONFIG["adapt"].items()
                                        if key != "max_rounds"}}

    def test_artifact_names(self):
        compare = load_script("compare_artifacts")
        assert compare.HANDOFF_ARTIFACTS == tuple(
            f"max_rounds3/{name}" for name in compare.ARTIFACTS)
        assert len(compare.HANDOFF_ARTIFACTS) == 8
        assert not set(compare.HANDOFF_ARTIFACTS) & set(compare.ARTIFACTS)


class TestOneRoundRun:
    # the third Kepler run differs from the first only in its round budget,
    # the CLI default of one round
    def test_config_has_one_round(self):
        compare = load_script("compare_artifacts")
        adapt = dict(compare.ONE_ROUND_CONFIG["adapt"])
        assert adapt.pop("max_rounds") == 1
        assert {**compare.ONE_ROUND_CONFIG, "adapt": adapt} == {
            **compare.CONFIG, "adapt": {key: value for key, value in
                                        compare.CONFIG["adapt"].items()
                                        if key != "max_rounds"}}

    def test_artifact_names(self):
        compare = load_script("compare_artifacts")
        assert compare.ONE_ROUND_ARTIFACTS == tuple(
            f"max_rounds1/{name}" for name in compare.ARTIFACTS)
        assert not set(compare.ONE_ROUND_ARTIFACTS) & (
            set(compare.ARTIFACTS) | set(compare.HANDOFF_ARTIFACTS))


class TestSteeringSummary:
    def test_identical_inputs(self):
        compare = load_script("compare_artifacts")
        assert compare.steering_summary(kepler_texts(), kepler_texts()) == (
            "propose_steps inputs identical (r, rbar, s_deriv, partition, "
            "trajectory and dual coefficients)")

    def test_other_report_numbers_do_not_count(self):
        compare = load_script("compare_artifacts")
        change = kepler_texts()
        change["error_report.json"] = change["error_report.json"].replace(
            '"E0": 1e-06', '"E0": 1.0000000001e-06')
        assert change != kepler_texts()
        assert compare.steering_summary(kepler_texts(), change).startswith(
            "propose_steps inputs identical")

    def test_each_differing_part_is_named(self):
        compare = load_script("compare_artifacts")
        # one ulp in r, a moved breakpoint, a dual coefficient of -0.0
        change = kepler_texts(r=[[1e-3, 0.0020000000000000005], [4e-3]],
                              breakpoints=[[0.0, 0.25, 1.0], [0.0, 1.0]],
                              dual=[[[-0.0, 0.4, 0.5, 0.6]], [[0.7, 0.8, 0.9, 1.0]]])
        parent = kepler_texts(dual=[[[0.0, 0.4, 0.5, 0.6]], [[0.7, 0.8, 0.9, 1.0]]])
        assert compare.steering_summary(parent, change) == (
            "propose_steps inputs differ: r, partition, dual")

    def test_missing_artifact(self):
        compare = load_script("compare_artifacts")
        change = kepler_texts()
        del change["dual.json"]
        assert compare.steering_summary(kepler_texts(), change) == (
            "propose_steps inputs differ: unreadable artifacts")


class TestChainSolve:
    def test_texts_are_the_benchmark_chain_solve_at_seed_0(self, tmp_path):
        # the script builds its own chain; it must be the benchmark's
        compare = load_script("compare_artifacts")
        texts = compare.chain_texts()
        assert tuple(texts) == compare.CHAIN_TEXTS
        spec = importlib.util.spec_from_file_location(
            "workloads", SCRIPTS.parent / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        bench = workloads.ChainSolve(0, tmp_path)
        traj = bench.run()
        coeffs = json.loads(texts["chain-coefficients"])
        assert len(coeffs) == bench.N
        assert [len(c) for c in coeffs] == [10] * (bench.N - 1) + [40]
        for i, comp in enumerate(coeffs):
            for j, c in enumerate(comp):
                assert np.array_equal(c, traj.coefficients(i, j))
        report = json.loads(texts["chain-report"])
        assert report["slabs"] == [dict(vars(s)) for s in traj.report.slabs]
        assert sum(s["sweeps"] for s in report["slabs"]) == 174

    def test_script_carries_chain_texts(self):
        compare = load_script("compare_artifacts")
        assert "def chain_texts()" in compare.CHAIN_SCRIPT
        assert repr(compare.CHAIN_TEXTS) in compare.CHAIN_SCRIPT


class TestClosedForms:
    def test_each_closed_form_at_each_fraction_of_its_horizon(self, capsys):
        from mgode.models import model, model_names
        compare = load_script("compare_artifacts")
        exec(compare.CLOSED_FORM_SCRIPT, {})
        got = compare.entries(capsys.readouterr().out)
        with_closed = [name for name in model_names()
                       if model(name).closed_form is not None]
        assert {"kepler_2body", "linear_system"} <= set(with_closed)
        assert list(got) == [f"closed-{name}" for name in with_closed]
        for name in with_closed:
            entry = model(name)
            # JSON writes each float exactly, so equal texts are equal bits
            assert json.loads(got[f"closed-{name}"]) == [
                entry.closed_form(f * entry.T_default).tolist()
                for f in compare.CLOSED_FORM_FRACTIONS]
        assert len(compare.CLOSED_FORM_FRACTIONS) >= 3


class TestRunAll:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_at_most_one_subprocess_per_cpu(self, monkeypatch, capsys, cpus):
        # a stub start counts the jobs alive; the results come back in job
        # order, a failed job as None with its message
        compare = load_script("compare_artifacts")
        alive, most = set(), []

        class Proc:
            def __init__(self, root, args):
                self.name, self.returncode = args[0], None
                alive.add(self)
                most.append(len(alive))

            def communicate(self):
                alive.remove(self)
                self.returncode = 1 if self.name == "job3" else 0
                return f"{self.name} out", f"{self.name} err\n"

        monkeypatch.setattr(compare, "start", Proc)
        monkeypatch.setattr(compare.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        jobs = [(f"run {k}", Path("root"), [f"job{k}"], (0,)) for k in range(7)]
        results = compare.run_all(jobs)
        assert max(most) == cpus and not alive
        assert results == [f"job{k} out" if k != 3 else None for k in range(7)]
        assert capsys.readouterr().err == "run 3 exited 1: job3 err\n"


class TestDecayRuns:
    # the only compared runs with N = 1
    def test_cases(self):
        compare = load_script("compare_artifacts")
        assert sorted(compare.DECAY_CASES) == sorted(
            [("mcG", q, refine) for q in (1, 2, 3) for refine in (1, 3)]
            + [("mdG", q, refine) for q in (0, 1, 2) for refine in (1, 3)])
        assert repr(compare.DECAY_CASES) in compare.DECAY_SCRIPT
        assert 'model("linear_decay")' in compare.DECAY_SCRIPT


SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a comment


# a comment line
def f(x):
    """One-line docstring."""
    s = """not a docstring,
    but a value"""
    return math.sqrt(x) + len(s)


class C:
    """Class
    docstring."""

    y = 1; z = 2
'''


def test_count_code_lines_skips_blanks_comments_and_docstrings():
    count = load_script("count_code_lines")
    # import, def, s = (2 lines), return, class, y = ...
    assert count.code_lines(SNIPPET) == 7
    assert count.code_lines("") == 0
    assert count.code_lines('"""Only a docstring."""\n') == 0
    assert count.code_lines('x = 1\n"""A later string is code."""\n') == 2


class TestAbPairs:
    def test_summary_of_fixed_pairs(self):
        ab = load_script("ab_pairs")
        parent = [4.0, 5.0, 6.0, 7.0]
        change = [3.0, 5.0, 7.0, 6.0]       # better, tie, worse, better
        pairs = [({"wall_s": p, "err_T": 1.0, "rate": p},
                  {"wall_s": c, "err_T": 1.0, "rate": c})
                 for p, c in zip(parent, change)]
        pairs[0][1].pop("err_T")            # absent in one run: no row
        rows = ab.summarize(pairs, [("wall_s", "lower"), ("err_T", "lower"),
                                    ("rate", "higher")])
        assert [row["metric"] for row in rows] == ["wall_s", "rate"]
        wall, rate = rows
        assert wall["parent"] == (5.5, 4.75, 6.25)
        assert wall["change"] == (5.5, 4.5, 6.25)
        assert wall["wins"] == 2 and wall["pairs"] == 4
        assert rate["wins"] == 1             # only the worse wall pair
        assert ab.format_row(wall) == (
            "wall_s       parent 5.5 [4.75, 6.25]  change 5.5 [4.5, 6.25]  "
            "change better in 2/4")

    def test_result_line_and_run_checks(self):
        ab = load_script("ab_pairs")
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        out = "perfbench seed=0\n  wall_s 1.0 s\n" + json.dumps(good) + "\n\n"
        assert ab.read_result(out) == good
        assert ab.run_problem(good) is None
        assert ab.run_problem(dict(good, correct=False)) == (
            "run reports itself incorrect")
        assert ab.run_problem(dict(good, failed=2)) == "2 failed operations"
        for bad in ("", "no json here\n", "[1, 2]\n"):
            with pytest.raises(ValueError):
                ab.read_result(bad)
