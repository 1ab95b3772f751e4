"""Batch front end: run configured solve/dual/estimate/adapt pipelines and
write plot-ready artifacts.

One JSON config describes one run; outputs are deterministic (byte-identical
for identical configs): trajectory.csv, dual.csv, error_report.json,
error_summary.csv, adapt_log.jsonl, partition.json, trajectory.json and
dual.json in the output directory.  Exit status is 0 on success, 2 when the
tolerance was not met within the round budget, and 1 on configuration or
solver errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from .controller import AdaptSettings, adapt
from .models import model, model_names
from .partition import build_partition
from .solver import OdeProblem, SolveSettings, SolverError, Trajectory
from .tableau import MCG, MDG, TableauError, tableau

# The schema checks shape, JSON types and unknown keys; each value's range
# is checked once, by the class or builder that takes it.
_NUMBER = {"type": "number"}
_INTEGER = {"type": "integer"}


def _object(**properties) -> dict:
    return {"type": "object", "additionalProperties": False,
            "properties": properties}


def _nested(kind: str) -> dict:
    """One ``kind`` value, or a list of such values and lists of them."""
    return {"type": [kind, "array"],
            "items": {"type": [kind, "array"], "items": {"type": kind}}}


CONFIG_SCHEMA = {
    **_object(
        model={"type": "string"},
        problem_import={"type": "string"},
        T=_NUMBER,
        u0={"type": "array", "items": _NUMBER},
        methods={"type": ["string", "array"], "items": {"type": "string"}},
        orders=_nested("integer"),
        steps=_nested("number"),
        solver=_object(tolerance=_NUMBER, max_sweeps=_INTEGER,
                       damping=_NUMBER, quad_depth=_INTEGER),
        dual=_object(phi_T={"oneOf": [{"const": "unit"},
                                      {"type": "array", "items": _NUMBER}]},
                     order_increment=_INTEGER, refine=_INTEGER),
        adapt=_object(tol=_NUMBER, theta=_NUMBER, max_rounds=_INTEGER,
                      k_min=_NUMBER, k_max=_NUMBER),
        out={"type": "string"},
    ),
    "required": ["steps", "orders"],
}


class ConfigError(ValueError):
    pass


def load_config(path: Path) -> dict:
    """Parse and schema-check one run configuration."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    validator = Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        msgs = []
        for err in errors[:5]:
            where = "$" + "".join(
                f".{p}" if isinstance(p, str) else f"[{p}]"
                for p in err.absolute_path
            )
            msgs.append(f"at {where}: {err.message}")
        raise ConfigError(f"{path}: " + "; ".join(msgs))
    if ("model" in data) == ("problem_import" in data):
        raise ConfigError(
            f"{path}: exactly one of 'model' or 'problem_import' is required"
        )
    return data


def _resolve_problem(config: dict) -> OdeProblem:
    if "model" in config:
        try:
            entry = model(config["model"])
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
        problem = entry.problem(
            T=config.get("T"),
            u0=config.get("u0"),
            methods=config.get("methods", MCG),
        )
    else:
        mod_name, _, attr = config["problem_import"].partition(":")
        if not attr:
            raise ConfigError(
                "problem_import must look like 'package.module:attribute'"
            )
        try:
            factory = getattr(importlib.import_module(mod_name), attr)
        # a relative or empty module name is a TypeError or ValueError
        except (ImportError, AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot import {config['problem_import']}: {exc}") from exc
        try:
            problem = factory()
        except Exception as exc:
            raise ConfigError(
                f"{config['problem_import']} raised {type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(problem, OdeProblem):
            raise ConfigError(
                f"{config['problem_import']} did not produce an ODE problem"
            )
        # a new problem, validated as it is built; the factory's is untouched
        overrides = {key: config[key] for key in ("methods", "u0") if key in config}
        if "T" in config:
            overrides["T"] = float(config["T"])
        problem = dataclasses.replace(problem, **overrides)
    return problem


def _float_str(x: float) -> str:
    """Shortest round-trip decimal representation (<= 17 significant digits)."""
    return repr(float(x))


def _write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    lines = ["component,interval,node_time,value"]
    for i in range(traj.dimension):
        for j in range(traj.partition.n_intervals(i)):
            times = traj.node_times(i, j)
            vals = traj.coefficients(i, j)
            for t, v in zip(times, vals):
                lines.append(f"{i},{j},{_float_str(t)},{_float_str(v)}")
    path.write_text("\n".join(lines) + "\n")


def _trajectory_json_dict(traj: Trajectory, dual: bool = False) -> dict:
    return {
        "dual": dual,
        "T": traj.T,
        "methods": list(traj.methods),
        "components": [
            {
                "breakpoints": [float(t) for t in traj.partition.breakpoints[i]],
                "orders": [int(q) for q in traj.partition.orders[i]],
                "coefficients": [
                    [float(v) for v in traj.coefficients(i, j)]
                    for j in range(traj.partition.n_intervals(i))
                ],
            }
            for i in range(traj.dimension)
        ],
    }


def run_command(args) -> int:
    """Load the config, adapt, and write the artifacts; the output directory
    is created only once the run has produced them."""
    try:
        config = load_config(Path(args.config))
        # settings first: a bad solver key fails before user code is
        # imported, a bad adapt or dual key before the partition is built
        solver_settings = SolveSettings(**config.get("solver", {}))
        problem = _resolve_problem(config)
        dual_cfg = config.get("dual", {})
        phi_T = dual_cfg.get("phi_T", "unit")
        # CLI defaults (the step bounds fit inside [0, T]), then the keys the
        # config sets (dual refine -> dual_refine); the rest, and phi_T
        # "unit", keep the adapt defaults
        settings = AdaptSettings(**{
            "tol": float("inf"), "max_rounds": 1, "k_max": problem.T,
            "k_min": min(AdaptSettings.k_min, problem.T),
            **config.get("adapt", {}),
            **{f"dual_{key}": val for key, val in dual_cfg.items() if key != "phi_T"},
            "phi_T": None if isinstance(phi_T, str) else np.asarray(phi_T, dtype=float),
            "solver": solver_settings,
        })
        partition = build_partition(config["steps"], config["orders"],
                                    problem.T, methods=problem.methods)
        # an overflow shows as a non-finite bound, reported once below; a
        # warning is reported as one line, each time it is raised
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(all="ignore"):
            warnings.simplefilter("always")
            result = adapt(problem, partition, settings)
    except (ConfigError, ValueError, TableauError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)

    out_dir = Path(args.out or config.get("out", "."))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_trajectory_csv(out_dir / "trajectory.csv", result.trajectory)
        _write_trajectory_csv(out_dir / "dual.csv", result.dual.psi)
        (out_dir / "error_report.json").write_text(
            json.dumps(result.report.to_json_dict(), indent=2) + "\n")
        rows = result.report.csv_summary_rows()
        header = ",".join(rows[0].keys())
        lines = [header] + [
            ",".join(_float_str(v) if isinstance(v, float) else str(v)
                     for v in row.values())
            for row in rows
        ]
        (out_dir / "error_summary.csv").write_text("\n".join(lines) + "\n")
        (out_dir / "adapt_log.jsonl").write_text(
            "".join(line + "\n" for line in result.log_lines()))
        (out_dir / "partition.json").write_text(
            json.dumps(result.partition.to_json_dict(), indent=2) + "\n")
        (out_dir / "trajectory.json").write_text(
            json.dumps(_trajectory_json_dict(result.trajectory), indent=2) + "\n")
        (out_dir / "dual.json").write_text(
            json.dumps(_trajectory_json_dict(result.dual.psi, dual=True), indent=2)
            + "\n")
    except OSError as exc:
        print(f"error: cannot write artifacts to {out_dir}: {exc}", file=sys.stderr)
        return 1

    if not result.met:
        print(f"tolerance not met after {result.rounds} rounds "
              f"(bound {result.report.explicit_total:.6e})", file=sys.stderr)
        return 2
    return 0


def tableau_command(args) -> int:
    try:
        tab = tableau(args.method, args.q)
    except (ValueError, TableauError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(tab.to_json_dict(), indent=2))
    return 0


def models_command(args) -> int:
    for name in model_names():
        entry = model(name)
        print(f"{name}: dimension {entry.dimension}; {entry.description}")
    return 0


def version_command(args) -> int:
    print(__version__)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgode",
        description="Multirate Galerkin ODE solver with global error control",
    )
    parser.add_argument("--threads", type=int, default=0,
                        help="worker threads (0 = auto); the reference "
                             "implementation runs sequentially")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured pipeline")
    p_run.add_argument("--config", required=True, help="path to a JSON run config")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.set_defaults(fn=run_command)

    p_tab = sub.add_parser("tableau", help="dump one scheme tableau as JSON")
    p_tab.add_argument("method", choices=[MCG, MDG])
    p_tab.add_argument("q", type=int)
    p_tab.set_defaults(fn=tableau_command)

    p_models = sub.add_parser("models", help="list the built-in model catalog")
    p_models.set_defaults(fn=models_command)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(fn=version_command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
