"""Scenario-based stochastic MPC for flow-based drinking water networks.

The package solves receding-horizon pump and valve scheduling problems
under joint water-demand and electricity-price uncertainty, using an
accelerated proximal gradient method on the Fenchel dual with
tree-structured dual-gradient computation.
"""

from .forecast import ForecastSeries
from .network import (
    ControlledFlow,
    MixingNode,
    NetworkModel,
    NetworkTopology,
    Tank,
    TopologyError,
    build_lti,
)
from .problem import CostWeights, ProblemInstance
from .simulate import (
    SimulationConfig,
    SimulationLog,
    kpi_complexity,
    kpi_economic,
    kpi_safety,
    run_closed_loop,
)
from .solver import (
    FactorCache,
    SolverConfig,
    SolverResult,
    dual_gradient,
    factor_step,
    solve,
)
from .tree import (
    ScenarioFan,
    ScenarioTree,
    attach_forecast,
    reduce_fan_to_tree,
    zero_price_errors,
)

__version__ = "0.1.0"

__all__ = [
    "ControlledFlow",
    "CostWeights",
    "FactorCache",
    "ForecastSeries",
    "MixingNode",
    "NetworkModel",
    "NetworkTopology",
    "ProblemInstance",
    "ScenarioFan",
    "ScenarioTree",
    "SimulationConfig",
    "SimulationLog",
    "SolverConfig",
    "SolverResult",
    "Tank",
    "TopologyError",
    "attach_forecast",
    "build_lti",
    "dual_gradient",
    "factor_step",
    "kpi_complexity",
    "kpi_economic",
    "kpi_safety",
    "reduce_fan_to_tree",
    "run_closed_loop",
    "solve",
    "zero_price_errors",
]
