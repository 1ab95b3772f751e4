import json
import re
import subprocess
import sys

import numpy as np
import pytest

from mgode.cli import CONFIG_SCHEMA, main

BASE_CONFIG = {
    "model": "linear_decay",
    "T": 1.0,
    "methods": "mcG",
    "orders": 2,
    "steps": 0.1,
    "solver": {"tolerance": 1e-12, "max_sweeps": 300},
    "dual": {"phi_T": "unit", "order_increment": 1, "refine": 2},
    "adapt": {"tol": 1e-6, "max_rounds": 6, "k_min": 1e-6, "k_max": 0.5},
}

ARTIFACTS = ["trajectory.csv", "dual.csv", "error_report.json",
             "adapt_log.jsonl", "partition.json"]


def write_config(tmp_path, overrides=None, drop=()):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key in drop:
        cfg.pop(key, None)
    if overrides:
        for key, val in overrides.items():
            if isinstance(val, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(val)
            else:
                cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


class TestRun:
    def test_artifacts_and_bound(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ARTIFACTS:
            assert (out / name).exists(), name
        report = json.loads((out / "error_report.json").read_text())
        # closed-form check: the reported bound dominates the true error
        traj = (out / "trajectory.csv").read_text().strip().splitlines()
        last = traj[-1].split(",")
        assert float(last[2]) == 1.0
        e_T = abs(float(last[3]) - np.exp(-1.0))
        assert report["total"] >= e_T
        assert report["explicit_total"] <= 1e-6

    def test_byte_identical_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ARTIFACTS:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_model_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, drop=("model",))
        assert main(["run", "--config", str(cfg)]) == 1
        assert "model" in capsys.readouterr().err

    def test_unknown_model_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "not_a_model"})
        assert main(["run", "--config", str(cfg)]) == 1
        assert "unknown model" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"surprise": 1})
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "surprise" in err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "model": "linear_decay",\n}\n')
        assert main(["run", "--config", str(path)]) == 1
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"model": "kepler_2body", "T": float("inf")},
        {"model": "harmonic", "u0": [1.0, 0.0]},
        {"steps": 1e-320},
        {"dual": {"refine": 2_000_000}},
    ], ids=["infinite_horizon", "u0_length_mismatch", "subnormal_step",
            "huge_dual_refine"])
    def test_malformed_problem_is_one_line_error(self, tmp_path, capsys,
                                                 overrides):
        cfg = write_config(tmp_path, overrides)
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_huge_quad_depth_is_one_line_error(self, tmp_path, capsys):
        # rejected by SolveSettings, before any rule is built
        cfg = write_config(tmp_path, {"solver": {"quad_depth": 40}})
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "quad_depth" in err

    def test_problem_import_overrides_are_validated(self, tmp_path, capsys,
                                                    monkeypatch):
        helper = tmp_path / "userprob2.py"
        helper.write_text(
            "from mgode.solver import OdeProblem\n"
            "def make():\n"
            "    return OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0)\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        cfg = write_config(tmp_path, {"problem_import": "userprob2:make",
                                      "u0": [float("nan")]}, drop=("model",))
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err

    def test_horizon_below_the_default_k_min_runs(self, tmp_path):
        # without an adapt block k_max defaults to T, and k_min to the
        # smaller of AdaptSettings' own default and T
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": "linear_decay", "steps": 0.1,
                                   "orders": 1, "T": 1e-9}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ARTIFACTS:
            assert (out / name).exists(), name
        part = json.loads((out / "partition.json").read_text())
        assert part["components"][0]["breakpoints"] == [0.0, 1e-9]

    def test_unreachable_tolerance_exit_2_with_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {
            "adapt": {"tol": 1e-12, "max_rounds": 1},
        })
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        for name in ARTIFACTS:
            assert (out / name).exists(), name

    def test_partition_artifact_schema(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        part = json.loads((out / "partition.json").read_text())
        assert part["T"] == 1.0
        assert part["components"][0]["breakpoints"][0] == 0.0
        assert part["components"][0]["breakpoints"][-1] == 1.0

    def test_dual_flagged_in_json(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        assert json.loads((out / "dual.json").read_text())["dual"] is True
        assert json.loads((out / "trajectory.json").read_text())["dual"] is False

    def test_problem_import(self, tmp_path, monkeypatch):
        helper = tmp_path / "userprob.py"
        helper.write_text(
            "import numpy as np\n"
            "from mgode.solver import OdeProblem\n"
            "def make():\n"
            "    return OdeProblem(rhs=lambda u, t: -2.0 * u, u0=[1.0],\n"
            "                      T=1.0, methods='mcG', vectorized=True)\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        cfg = write_config(tmp_path, {"problem_import": "userprob:make"},
                           drop=("model",))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

    def test_problem_import_with_dependencies(self, tmp_path, monkeypatch):
        helper = tmp_path / "userdeps.py"
        helper.write_text(
            "import numpy as np\n"
            "from mgode.solver import OdeProblem\n"
            "A = np.array([[0.0, 1.0], [-1.0, 0.0]])\n"
            "def make():\n"
            "    return OdeProblem(rhs=lambda u, t: np.array([u[1], -u[0]]),\n"
            "                      u0=[0.0, 1.0], T=1.0, vectorized=True,\n"
            "                      jacobian=lambda u, t: A,\n"
            "                      dependencies=[[1], [0]])\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        cfg = write_config(tmp_path, {"problem_import": "userdeps:make",
                                      "adapt": {"tol": 1e-2}}, drop=("model",))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

    def test_problem_import_overrides_leave_the_factory_problem(
            self, tmp_path, monkeypatch):
        (tmp_path / "userprob_shared.py").write_text(
            "from mgode.solver import OdeProblem\n"
            "PROBLEM = OdeProblem(rhs=lambda u, t: -u, u0=[1.0], T=1.0,\n"
            "                     methods='mcG', vectorized=True)\n"
            "def make():\n"
            "    return PROBLEM\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, "userprob_shared", raising=False)
        cfg = write_config(tmp_path, {"problem_import": "userprob_shared:make",
                                      "T": 0.5, "u0": [2.0], "methods": "mdG"},
                           drop=("model",))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "partition.json").read_text())["T"] == 0.5
        problem = sys.modules["userprob_shared"].PROBLEM
        assert problem.T == 1.0
        assert np.array_equal(problem.u0, [1.0])
        assert problem.methods == ("mcG",)

    def test_model_and_import_both_given(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"problem_import": "userprob:make"})
        assert main(["run", "--config", str(cfg)]) == 1


# a range in the schema would be a second copy of the one the settings
# classes and builders check, with its own message
RANGE_KEYWORDS = {"minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
                  "minItems", "maxItems", "multipleOf"}


def schema_keywords(node):
    """Every key of every mapping nested in a schema, lists included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from schema_keywords(value)
    elif isinstance(node, list):
        for value in node:
            yield from schema_keywords(value)


def test_keyword_walker_sees_nested_keywords():
    schema = {"properties": {"a": {"oneOf": [{"items": {"minimum": 0}}]}}}
    assert "minimum" in set(schema_keywords(schema))


def test_config_schema_holds_no_range():
    assert not RANGE_KEYWORDS & set(schema_keywords(CONFIG_SCHEMA))


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    return err


# one adaptation round: these probes only need a finished run
ONE_ROUND = {"adapt": {"max_rounds": 1}}


class TestRunWarnings:
    def test_each_warning_is_one_line(self, tmp_path, capsys, monkeypatch):
        # component 1 never moves: its residual vanishes, propose_steps warns
        # and clamps its steps; the run itself succeeds
        helper = tmp_path / "userzero.py"
        helper.write_text(
            "import numpy as np\n"
            "from mgode.solver import OdeProblem\n"
            "def make():\n"
            "    return OdeProblem(rhs=lambda u, t: np.stack([-u[0], 0.0 * u[1]]),\n"
            "                      u0=[1.0, 0.0], T=1.0, vectorized=True)\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "problem_import": "userzero:make", "steps": 0.25, "orders": 2,
            "adapt": {"tol": 1e-5, "max_rounds": 2}}))
        # a second run in the same process reports its warning again
        for run in ("first", "second"):
            out = tmp_path / run
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            assert capsys.readouterr().err == (
                "warning: vanishing stability factor or residual for "
                "component(s) [1]; steps clamp to the maximum bound\n")
            assert (out / "error_report.json").exists()


class TestRunErrors:
    def test_out_names_an_existing_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ONE_ROUND)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        assert main(["run", "--config", str(cfg), "--out", str(taken)]) == 1
        assert "taken" in one_error_line(capsys)
        assert taken.read_text() == "keep"

    def test_out_below_a_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ONE_ROUND)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        assert main(["run", "--config", str(cfg),
                     "--out", str(taken / "x")]) == 1
        one_error_line(capsys)

    def test_out_below_a_file_in_a_subprocess(self, tmp_path):
        cfg = write_config(tmp_path, ONE_ROUND)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        res = subprocess.run([sys.executable, "-m", "mgode.cli", "run",
                              "--config", str(cfg), "--out", str(taken / "x")],
                             capture_output=True, text=True)
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1

    def test_artifact_write_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ONE_ROUND)
        out = tmp_path / "out"
        (out / "error_report.json").mkdir(parents=True)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error_report.json" in one_error_line(capsys)

    def test_raising_factory(self, tmp_path, capsys, monkeypatch):
        helper = tmp_path / "userprob3.py"
        helper.write_text("def make():\n    raise RuntimeError('boom')\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        cfg = write_config(tmp_path, {"problem_import": "userprob3:make"},
                           drop=("model",))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert "userprob3:make" in err and "RuntimeError: boom" in err
        assert not out.exists()

    @pytest.mark.parametrize("name,problem,callable_name", [
        ("userrhs", "rhs=lambda u, t: 1 / 0",
         "right-hand side make.<locals>.<lambda>"),
        ("userjac", "rhs=lambda u, t: -u, jacobian=lambda u, t: 1 / 0",
         "Jacobian make.<locals>.<lambda>"),
    ], ids=["rhs", "jacobian"])
    def test_raising_user_callable(self, tmp_path, capsys, monkeypatch, name,
                                   problem, callable_name):
        (tmp_path / f"{name}.py").write_text(
            "from mgode.solver import OdeProblem\n"
            "def make():\n"
            f"    return OdeProblem({problem}, u0=[1.0], T=1.0, vectorized=True)\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        cfg = write_config(tmp_path, {"problem_import": f"{name}:make", **ONE_ROUND},
                           drop=("model",))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"solver error: {callable_name} raised "
                       "ZeroDivisionError: division by zero\n")
        assert not out.exists()

    def test_unreadable_config(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing)]) == 1
        err = one_error_line(capsys)
        assert str(missing) in err and "No such file" in err

    def test_problem_import_without_attribute(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"problem_import": "userprob"},
                           drop=("model",))
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert ("problem_import must look like 'package.module:attribute'"
                in one_error_line(capsys))

    def test_factory_of_something_else(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "userprob5.py").write_text("def make():\n    return 42\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        cfg = write_config(tmp_path, {"problem_import": "userprob5:make"},
                           drop=("model",))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "userprob5:make did not produce an ODE problem" in one_error_line(capsys)
        assert not out.exists()

    def test_zero_component_factory(self, tmp_path, capsys, monkeypatch):
        helper = tmp_path / "userprob4.py"
        helper.write_text("from mgode.solver import OdeProblem\n"
                          "def make():\n"
                          "    return OdeProblem(rhs=lambda u, t: u, u0=[], T=1.0)\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        cfg = write_config(tmp_path, {"problem_import": "userprob4:make"},
                           drop=("model", "methods"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "u0 has no components" in one_error_line(capsys)
        assert not out.exists()

    def test_failing_config_leaves_no_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "not_a_model"})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert one_error_line(capsys).startswith("error: unknown model 'not_a_model'")
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"dual": {"s_points": 3}},
        {"solver": {"quad_depth": 1.0}},
        {"adapt": {"max_rounds": 2.0}},
        {"steps": [[0.5, float("nan"), 0.5]]},
    ], ids=["removed_s_points", "float_quad_depth", "float_max_rounds",
            "nan_step"])
    def test_rejected_settings(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        one_error_line(capsys)
        assert not out.exists()

    # the schema holds no range: each one is checked once, where the value is
    # taken, and the settings are built before the problem and the partition
    @pytest.mark.parametrize("section,key,value,name", [
        ("solver", "tolerance", 0, "tolerance"),
        ("solver", "max_sweeps", 0, "max_sweeps"),
        ("solver", "damping", 1.5, "damping"),
        ("solver", "quad_depth", 10, "quad_depth"),
        ("dual", "order_increment", -1, "dual_order_increment"),
        ("dual", "refine", 0, "dual_refine"),
        ("adapt", "tol", 0, "tol"),
        ("adapt", "theta", 1.5, "theta"),
        ("adapt", "max_rounds", 0, "max_rounds"),
        ("adapt", "k_min", -1, "k_min"),
        ("adapt", "k_max", -1, "k_max"),
        (None, "orders", 13, "orders"),
        (None, "steps", -0.1, "step"),
        (None, "T", -1, "horizon"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_out_of_range_key_is_named_before_anything_is_built(
            self, tmp_path, capsys, monkeypatch, section, key, value, name):
        def not_reached(*args, **kwargs):
            raise AssertionError("called before the settings were checked")

        if section is not None:
            monkeypatch.setattr("mgode.cli.build_partition", not_reached)
        if section == "solver":
            monkeypatch.setattr("mgode.cli._resolve_problem", not_reached)
        cfg = write_config(tmp_path, {section: {key: value}} if section
                           else {key: value})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert re.search(rf"\b{name}\b", err), err
        assert not out.exists()

    def test_config_k_min_above_k_max_names_both_bounds(self, tmp_path,
                                                        capsys):
        # the config's own k_min stands even above k_max, which defaults to T
        cfg = write_config(tmp_path, {"T": 1e-9, "adapt": {"k_min": 1e-8}},
                           drop=("adapt",))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = one_error_line(capsys)
        assert "k_min=1e-08" in err and "k_max=1e-09" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("phi_T,message", [
        ([float("nan")], "phi_T must be finite"),
        ([1.0, 0.0], "phi_T has length 2, expected 1"),
    ], ids=["nan", "wrong_length"])
    def test_phi_T_rejected_before_the_first_solve(self, tmp_path, capsys,
                                                   monkeypatch, phi_T, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called before phi_T was checked")

        monkeypatch.setattr("mgode.controller.solve", no_solve)
        cfg = write_config(tmp_path, {"steps": 0.001, "dual": {"phi_T": phi_T}})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert one_error_line(capsys) == f"error: {message}\n"
        assert not out.exists()

    def test_dual_order_below_p_is_refused(self, tmp_path, capsys):
        # an mdG(1) dual of order 1 has no second derivative: every round's
        # bound would be NaN, and steps proposed from it clamp to k_max
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "model": "linear_system", "methods": "mdG", "orders": 1,
            "steps": 0.1, "dual": {"order_increment": 0},
            "adapt": {"tol": 1e-6, "max_rounds": 3}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert one_error_line(capsys) == (
            "error: component 0 (mdG, q=1) has dual order 1 < required "
            "derivative order p=2; its bound would be NaN\n")
        assert not out.exists()


    @pytest.mark.parametrize("pattern,message", [
        ("[[1]]", "1 dependency lists for 2 components"),
        ("[[1], [2]]", "outside [0, 2)"),
        ("[[1], [0.0]]", "not a component index"),
        ("[[True], [0]]", "not a component index"),
    ], ids=["wrong_length", "out_of_range", "float_index", "bool_index"])
    @pytest.mark.parametrize("when", ["built", "assigned"])
    def test_factory_with_a_malformed_pattern(self, tmp_path, capsys,
                                              monkeypatch, pattern, message,
                                              when):
        # a pattern passed to OdeProblem fails inside the factory; one set
        # on the returned problem fails when the config overrides are checked
        mod = f"userdeps_{when}"
        build = (f"OdeProblem(rhs=lambda u, t: -u, u0=[1.0, 2.0], T=1.0, "
                 f"dependencies={pattern})" if when == "built" else
                 "OdeProblem(rhs=lambda u, t: -u, u0=[1.0, 2.0], T=1.0)")
        (tmp_path / f"{mod}.py").write_text(
            "from mgode.solver import OdeProblem\n"
            "def make():\n"
            f"    problem = {build}\n"
            f"    problem.dependencies = {pattern}\n"
            "    return problem\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, mod, raising=False)
        cfg = write_config(tmp_path, {"problem_import": f"{mod}:make"},
                           drop=("model",))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert message in one_error_line(capsys)
        assert not out.exists()

    def test_u0_override_changes_dimension_under_a_pattern(self, tmp_path,
                                                           capsys, monkeypatch):
        (tmp_path / "userdeps_u0.py").write_text(
            "from mgode.solver import OdeProblem\n"
            "def make():\n"
            "    return OdeProblem(rhs=lambda u, t: -u, u0=[1.0, 2.0], T=1.0,\n"
            "                      dependencies=[[1], [0]])\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        cfg = write_config(tmp_path, {"problem_import": "userdeps_u0:make",
                                      "u0": [1.0, 2.0, 3.0]}, drop=("model",))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert one_error_line(capsys) == (
            "error: 2 dependency lists for 3 components\n")
        assert not out.exists()


class TestNoUnsolvedSuccess:
    # runs that used to exit 0 with an unsolved slab or an overflowed bound
    ALL_ARTIFACTS = ARTIFACTS + ["error_summary.csv", "trajectory.json",
                                 "dual.json"]

    def run(self, tmp_path, extra):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "linear_decay", "steps": 0.1,
                                    "orders": 1, "methods": "mcG", **extra}))
        out = tmp_path / "out"
        return main(["run", "--config", str(path), "--out", str(out)]), out

    def test_tiny_damping_is_a_solver_error(self, tmp_path, capsys):
        status, out = self.run(tmp_path, {"solver": {"damping": 1e-300}})
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("solver error: slab 0 ") and err.count("\n") == 1
        assert "threshold damping * tolerance = 1.000e-310" in err
        assert not out.exists()

    def test_infinite_solver_tolerance_rejected(self, tmp_path, capsys):
        status, out = self.run(tmp_path, {"solver": {"tolerance": float("inf")}})
        assert status == 1
        assert "tolerance must be positive and finite" in one_error_line(capsys)
        assert not out.exists()

    def test_overflowed_bound_exits_2(self, tmp_path, capsys):
        status, out = self.run(tmp_path, {"dual": {"phi_T": [1e308]}})
        assert status == 2
        err = capsys.readouterr().err
        assert err == "tolerance not met after 1 rounds (bound inf)\n"
        for name in self.ALL_ARTIFACTS:
            assert (out / name).exists(), name
        report = json.loads((out / "error_report.json").read_text())
        assert report["explicit_total"] == float("inf")

    def test_overflowed_bound_is_one_stderr_line_in_a_subprocess(self, tmp_path):
        # numpy's overflow warnings stay off stderr; the bound reports it
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "linear_decay", "steps": 0.1,
                                    "orders": 1, "methods": "mcG",
                                    "dual": {"phi_T": [1e308]}}))
        res = subprocess.run([sys.executable, "-m", "mgode.cli", "run",
                              "--config", str(path),
                              "--out", str(tmp_path / "out")],
                             capture_output=True, text=True)
        assert res.returncode == 2
        assert res.stderr == "tolerance not met after 1 rounds (bound inf)\n"


class TestTableauDump:
    def test_backward_euler_weights(self, capsys):
        assert main(["tableau", "mdG", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["nodes"] == [1.0]
        assert data["quad_weights"] == [[1.0]]

    def test_trapezoid_weights(self, capsys):
        assert main(["tableau", "mcG", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(data["quad_weights"], [[0.5, 0.5]],
                                   atol=1e-15)

    def test_invalid_order(self, capsys):
        assert main(["tableau", "mcG", "0"]) == 1
        assert main(["tableau", "mcG", "99"]) == 1


class TestMisc:
    def test_models_listing(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "linear_decay" in out and "kepler_2body" in out

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_threads_flag_accepted(self, capsys):
        assert main(["--threads", "4", "version"]) == 0

    def test_entry_point_runs(self):
        res = subprocess.run([sys.executable, "-m", "mgode.cli", "version"],
                             capture_output=True, text=True)
        assert res.returncode == 0
