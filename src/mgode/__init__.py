"""Multirate Galerkin ODE solver with adjoint-based global error control.

Each solution component carries its own sequence of time intervals and its own
polynomial order; the solver advances slab by slab, and the companion modules
solve the backward linearized problem and turn residuals into computable
global error bounds and adapted step sizes.
"""

# NOTE: the tableau accessor function stays in mgode.tableau (importing it
# here would shadow the submodule name on the package).
from .tableau import (
    MCG,
    MDG,
    MAX_ORDER,
    MethodTableau,
    TableauError,
    interp_constant,
    legendre_eval,
    lobatto_nodes,
    radau_nodes,
)
from .partition import Partition, TimeSlab, build_partition, build_slabs
from .solver import (
    OdeProblem,
    SolveSettings,
    SolverError,
    ConvergenceFailure,
    NonFiniteRHS,
    Trajectory,
    residual,
    solve,
)
from .dual import DualSolution, DualSpec, dual_partition_for, jstar, solve_dual
from .estimator import (
    ErrorReport,
    GalerkinEstimates,
    StabilityFactors,
    estimate,
    error_representation,
    galerkin_estimates,
)
from .controller import AdaptSettings, AdaptResult, adapt, propose_steps
from .models import ModelCatalogEntry, model, model_names

__all__ = [
    "MCG",
    "MDG",
    "MAX_ORDER",
    "MethodTableau",
    "TableauError",
    "interp_constant",
    "legendre_eval",
    "lobatto_nodes",
    "radau_nodes",
    "Partition",
    "TimeSlab",
    "build_partition",
    "build_slabs",
    "OdeProblem",
    "SolveSettings",
    "SolverError",
    "ConvergenceFailure",
    "NonFiniteRHS",
    "Trajectory",
    "residual",
    "solve",
    "DualSolution",
    "DualSpec",
    "dual_partition_for",
    "jstar",
    "solve_dual",
    "ErrorReport",
    "GalerkinEstimates",
    "StabilityFactors",
    "estimate",
    "error_representation",
    "galerkin_estimates",
    "AdaptSettings",
    "AdaptResult",
    "adapt",
    "propose_steps",
    "ModelCatalogEntry",
    "model",
    "model_names",
]

__version__ = "0.1.0"
