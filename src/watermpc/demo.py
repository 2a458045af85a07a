"""Bundled demonstration networks with synthetic demand and price processes.

Three self-consistent file sets sized for tests and benchmarks:

* ``tank1``: one tank, one pump, one demand sector.
* ``net3``: three tanks, four flows and one mixing node.
* ``net10``: ten tanks, twenty-four flows, twelve demand sectors and four
  mixing nodes, including two direct tank-to-tank transfers.

The demos work in hourly units: flows in m^3/h, volumes in m^3, dt = 1 h,
prices in EUR/m^3. Keeping the flow and volume scales within a few orders
of magnitude of each other keeps the dual problem well conditioned, which
per-second flow units with an hourly step do not.

Demands follow a daily pattern per sector; electricity prices follow a
volatile day-ahead pattern with an evening peak. Prediction errors come
from a persistent process with occasional right-skewed price spikes
(mean-compensated), mapped onto flows through their pumping energy
intensity, so price uncertainty touches pumps but not plain valves.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as wio
from .forecast import ForecastSeries
from .network import ControlledFlow, MixingNode, NetworkModel, NetworkTopology, Tank, build_lti
from .problem import CostWeights
from .solver import SolverConfig
from .tree import ScenarioFan, ScenarioTree, reduce_fan_to_tree

DEMO_KINDS = ("tank1", "net3", "net10")

# Weight tuning of the bundled demos, matched to their hourly unit system.
DEMO_WEIGHTS = dict(w_alpha=1.0, w_u=1e-2, w_s=1.0, w_x=100.0)
DEMO_DT = 1.0  # hours


@dataclass
class DemoBundle:
    """Everything needed to run one demo end to end, in memory."""

    name: str
    model: NetworkModel
    tree: ScenarioTree
    fan: ScenarioFan
    horizon: int
    weights: CostWeights
    solver: SolverConfig
    x0: np.ndarray
    u_prev: np.ndarray
    demand_scale: np.ndarray
    energy: np.ndarray
    nominal_demand: np.ndarray
    nominal_price: np.ndarray
    realized_demand: np.ndarray
    realized_price: np.ndarray
    forecast_demand: np.ndarray  # (h_sim, horizon, n_demand), row k issued at step k
    forecast_price: np.ndarray   # (h_sim, horizon, n_price)

    def forecaster(self, k: int) -> ForecastSeries:
        """Forecast issued at step k: daily pattern corrected by the decayed
        last observed deviation (the conditional mean of the demo's error
        process)."""
        return ForecastSeries(
            d_hat=self.forecast_demand[k], alpha_hat=self.forecast_price[k]
        )


def _tank1_topology() -> tuple[NetworkTopology, np.ndarray, np.ndarray, np.ndarray]:
    topology = NetworkTopology(
        tanks=(Tank(v_min=0.0, v_max=2000.0, v_safe=600.0, inflows=(0,), demands=(0,)),),
        flows=(ControlledFlow("pump", q_max=900.0, alpha0=0.020),),
        n_demands=1,
    )
    demand_scale = np.array([288.0])
    energy = np.array([1.0])
    x0 = np.array([1000.0])
    return topology, demand_scale, energy, x0


def _net3_topology() -> tuple[NetworkTopology, np.ndarray, np.ndarray, np.ndarray]:
    # Pump headroom is deliberately tight (peak total demand ~650 m^3/h
    # against 720 m^3/h source capacity), so stocking up ahead of price
    # spikes takes hours and anticipation has value.
    topology = NetworkTopology(
        tanks=(
            Tank(0.0, 2400.0, 700.0, inflows=(0,), outflows=(1,)),
            Tank(0.0, 1200.0, 400.0, inflows=(2,), demands=(0,)),
            Tank(0.0, 1200.0, 400.0, inflows=(3,), demands=(1,)),
        ),
        flows=(
            ControlledFlow("pump", q_max=720.0, alpha0=0.030),
            ControlledFlow("pump", q_max=720.0, alpha0=0.002),
            ControlledFlow("valve", q_max=540.0, alpha0=0.0005),
            ControlledFlow("valve", q_max=540.0, alpha0=0.0005),
        ),
        n_demands=3,
        mixing_nodes=(MixingNode(inflows=(1,), outflows=(2, 3), demands=(2,)),),
    )
    demand_scale = np.array([126.0, 162.0, 180.0])
    energy = np.array([1.0, 0.8, 0.0, 0.0])
    x0 = np.array([1200.0, 700.0, 700.0])
    return topology, demand_scale, energy, x0


def _net10_topology() -> tuple[NetworkTopology, np.ndarray, np.ndarray, np.ndarray]:
    tanks = (
        Tank(0.0, 6000.0, 1500.0, inflows=(0,), outflows=(2, 3, 21)),
        Tank(0.0, 6000.0, 1500.0, inflows=(1,), outflows=(4, 5, 22)),
        Tank(0.0, 1500.0, 400.0, inflows=(6, 21), outflows=(11,), demands=(0,)),
        Tank(0.0, 1500.0, 400.0, inflows=(7,), outflows=(12,), demands=(1,)),
        Tank(0.0, 1500.0, 400.0, inflows=(8,), outflows=(13, 19), demands=(2,)),
        Tank(0.0, 1500.0, 400.0, inflows=(9, 19), outflows=(14,), demands=(3,)),
        Tank(0.0, 1500.0, 400.0, inflows=(10, 22), outflows=(15,), demands=(4,)),
        Tank(0.0, 1200.0, 300.0, inflows=(16,), demands=(5,)),
        Tank(0.0, 1200.0, 300.0, inflows=(17,), outflows=(20,), demands=(6,)),
        Tank(0.0, 1200.0, 300.0, inflows=(18, 20), demands=(7,)),
    )
    flows = (
        ControlledFlow("pump", 1800.0, 0.030),   # source -> T0
        ControlledFlow("pump", 1800.0, 0.030),   # source -> T1
        ControlledFlow("pump", 1260.0, 0.002),   # T0 -> M0
        ControlledFlow("pump", 1260.0, 0.002),   # T0 -> M1
        ControlledFlow("pump", 1260.0, 0.002),   # T1 -> M0
        ControlledFlow("pump", 1260.0, 0.002),   # T1 -> M1
        ControlledFlow("valve", 720.0, 0.0005),  # M0 -> T2
        ControlledFlow("valve", 720.0, 0.0005),  # M0 -> T3
        ControlledFlow("valve", 720.0, 0.0005),  # M0 -> T4
        ControlledFlow("valve", 720.0, 0.0005),  # M1 -> T5
        ControlledFlow("valve", 720.0, 0.0005),  # M1 -> T6
        ControlledFlow("pump", 540.0, 0.001),    # T2 -> M2
        ControlledFlow("pump", 540.0, 0.001),    # T3 -> M2
        ControlledFlow("pump", 540.0, 0.001),    # T4 -> M2
        ControlledFlow("pump", 540.0, 0.001),    # T5 -> M3
        ControlledFlow("pump", 540.0, 0.001),    # T6 -> M3
        ControlledFlow("valve", 648.0, 0.0005),  # M2 -> T7
        ControlledFlow("valve", 648.0, 0.0005),  # M2 -> T8
        ControlledFlow("valve", 900.0, 0.0005),  # M3 -> T9
        ControlledFlow("pump", 360.0, 0.001),    # T4 -> T5 transfer
        ControlledFlow("pump", 360.0, 0.001),    # T8 -> T9 transfer
        ControlledFlow("pump", 432.0, 0.0015),   # T0 -> T2 direct
        ControlledFlow("pump", 432.0, 0.0015),   # T1 -> T6 direct
        ControlledFlow("pump", 720.0, 0.035),    # source -> M0 emergency
    )
    mixing = (
        MixingNode(inflows=(2, 4, 23), outflows=(6, 7, 8), demands=(8,)),
        MixingNode(inflows=(3, 5), outflows=(9, 10), demands=(9,)),
        MixingNode(inflows=(11, 12, 13), outflows=(16, 17), demands=(10,)),
        MixingNode(inflows=(14, 15), outflows=(18,), demands=(11,)),
    )
    topology = NetworkTopology(tanks=tanks, flows=flows, n_demands=12, mixing_nodes=mixing)
    demand_scale = np.array(
        [108.0, 108.0, 90.0, 108.0, 90.0, 108.0, 90.0, 126.0, 108.0, 108.0, 72.0, 72.0]
    )
    energy = np.array(
        [1.0, 1.0, 0.7, 0.7, 0.7, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5,
         0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.4, 0.4, 0.6, 0.6, 1.2]
    )
    x0 = np.array([3000.0, 3000.0, 700.0, 700.0, 700.0, 700.0, 700.0, 550.0, 550.0, 550.0])
    return topology, demand_scale, energy, x0


_BUILDERS = {
    "tank1": _tank1_topology,
    "net3": _net3_topology,
    "net10": _net10_topology,
}

_DEFAULTS = {
    # horizon, branching, fan size
    "tank1": (24, [2, 2], 200),
    "net3": (10, [3, 2], 300),
    "net10": (24, [4, 3, 2, 2], 400),
}


def demand_pattern(hours: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Daily demand profile per sector, morning-peaked, strictly positive."""
    h = np.asarray(hours, float)[:, None]
    phase = 0.9 * np.arange(scale.size)[None, :]
    base = (
        1.0
        + 0.40 * np.sin(2 * np.pi * (h - 7.0 - phase) / 24.0)
        + 0.15 * np.sin(4 * np.pi * h / 24.0 + phase)
    )
    return np.maximum(base, 0.1) * scale[None, :]


def market_price(hours: np.ndarray) -> np.ndarray:
    """Day-ahead market price profile (EUR/m^3 pumped) with an evening peak."""
    h = np.asarray(hours, float)
    return (
        0.028
        + 0.016 * np.sin(2 * np.pi * (h - 17.0) / 24.0)
        + 0.006 * np.sin(4 * np.pi * (h - 9.0) / 24.0)
    )


def price_pattern(hours: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """Per-flow energy price: market price scaled by pumping intensity."""
    return np.outer(market_price(hours), energy)


# Error-process parameters shared by the fan and the realizations. Price
# errors combine a persistent symmetric walk with right-skewed upward
# spikes that decay over a few hours. The point forecast deliberately
# carries no spike-risk term, so spike risk is visible to the controller
# only through the scenario tree.
_DEMAND_WALK_SD = 0.04      # per step, relative to each sector's scale
_PRICE_WALK_SD = 0.002      # per step, EUR/m^3
_AR_RHO = 0.95              # persistence of walk deviations
_SPIKE_PROB = 0.05          # per step
_SPIKE_MEAN = 0.06          # EUR/m^3
_SPIKE_RHO = 0.75           # per-step spike decay


def _spike_path(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Decaying spike component along the last axis."""
    hits = np.where(
        rng.random(shape) < _SPIKE_PROB, rng.exponential(_SPIKE_MEAN, shape), 0.0
    )
    out = np.empty(shape)
    state = np.zeros(shape[:-1])
    for j in range(shape[-1]):
        state = _SPIKE_RHO * state + hits[..., j]
        out[..., j] = state
    return out


def build_error_fan(
    rng: np.random.Generator,
    n_scenarios: int,
    horizon: int,
    demand_scale: np.ndarray,
    energy: np.ndarray,
) -> ScenarioFan:
    """Monte-Carlo fan of joint demand/price prediction-error paths.

    Errors start near zero (the present is observed) and accumulate:
    demand errors are per-sector random walks, price errors one
    market-wide walk plus decaying spikes, mapped to flows through the
    energy intensity.
    """
    nd, nu = demand_scale.size, energy.size
    d_steps = rng.normal(0.0, 1.0, (n_scenarios, horizon, nd)) * (
        _DEMAND_WALK_SD * demand_scale[None, None, :]
    )
    d_err = np.cumsum(d_steps, axis=1)
    walk = np.cumsum(rng.normal(0.0, _PRICE_WALK_SD, (n_scenarios, horizon)), axis=1)
    p_err = (walk + _spike_path(rng, (n_scenarios, horizon)))[:, :, None] * (
        energy[None, None, :]
    )
    return ScenarioFan(
        values=np.concatenate([d_err, p_err], axis=2), n_demand=nd, n_price=nu
    )


def _realized_errors(
    rng: np.random.Generator, steps: int, demand_scale: np.ndarray, energy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stationary persistent error processes for the closed-loop plant."""
    nd = demand_scale.size
    d_err = np.zeros((steps, nd))
    state_d = np.zeros(nd)
    for t in range(steps):
        state_d = _AR_RHO * state_d + rng.normal(0.0, 1.0, nd) * (
            _DEMAND_WALK_SD * demand_scale
        )
        d_err[t] = state_d
    walk = np.zeros(steps)
    state_w = 0.0
    for t in range(steps):
        state_w = _AR_RHO * state_w + rng.normal(0.0, _PRICE_WALK_SD)
        walk[t] = state_w
    p_err = walk + _spike_path(rng, (steps,))
    return d_err, np.outer(p_err, energy)


def build_demo(
    kind: str,
    seed: int = 0,
    h_sim: int = 168,
    horizon: int | None = None,
    branching: list[int] | None = None,
    n_scenarios: int | None = None,
) -> DemoBundle:
    """Assemble one demo bundle deterministically from a seed."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown demo kind {kind!r}; choose from {DEMO_KINDS}")
    topology, demand_scale, energy, x0 = _BUILDERS[kind]()
    default_h, default_branching, default_s = _DEFAULTS[kind]
    horizon = default_h if horizon is None else horizon
    branching = default_branching if branching is None else branching
    n_scenarios = default_s if n_scenarios is None else n_scenarios

    model = build_lti(topology, DEMO_DT)
    rng = np.random.default_rng(np.random.SeedSequence([1000, seed]))
    fan = build_error_fan(rng, n_scenarios, horizon, demand_scale, energy)
    tree = reduce_fan_to_tree(fan, branching)

    total = h_sim + horizon
    hours = np.arange(total)
    nominal_demand = demand_pattern(hours, demand_scale)
    nominal_price = price_pattern(hours, energy)
    d_err, p_err = _realized_errors(rng, h_sim, demand_scale, energy)
    realized_demand = np.maximum(nominal_demand[:h_sim] + d_err, 0.0)
    realized_price = np.maximum(nominal_price[:h_sim] + p_err, 0.0)

    # Conditional forecasts issued at each step: pattern plus the decayed
    # last observed deviation (zero before the first observation).
    decay = _AR_RHO ** np.arange(1, horizon + 1)
    forecast_demand = np.empty((h_sim, horizon, demand_scale.size))
    forecast_price = np.empty((h_sim, horizon, energy.size))
    for k in range(h_sim):
        dev_d = d_err[k - 1] if k > 0 else np.zeros(demand_scale.size)
        dev_p = p_err[k - 1] if k > 0 else np.zeros(energy.size)
        forecast_demand[k] = np.maximum(
            nominal_demand[k:k + horizon] + decay[:, None] * dev_d[None, :], 0.0
        )
        forecast_price[k] = nominal_price[k:k + horizon] + decay[:, None] * dev_p[None, :]

    return DemoBundle(
        name=kind,
        model=model,
        tree=tree,
        fan=fan,
        horizon=horizon,
        weights=CostWeights(**DEMO_WEIGHTS),
        solver=SolverConfig(max_iter=20000, tol=5e-2),
        x0=x0,
        u_prev=np.zeros(model.n_inputs),
        demand_scale=demand_scale,
        energy=energy,
        nominal_demand=nominal_demand,
        nominal_price=nominal_price,
        realized_demand=realized_demand,
        realized_price=realized_price,
        forecast_demand=forecast_demand,
        forecast_price=forecast_price,
    )


def write_demo(bundle: DemoBundle, out_dir: str | Path) -> dict[str, Path]:
    """Write the demo file set; returns the path of each document."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "network": out / "network.json",
        "tree": out / "scenarioTree.json",
        "forecast": out / "forecaster.json",
        "config": out / "controllerconfig.json",
        "state": out / "state.json",
        "realizations": out / "realizations.json",
        "fan": out / "fan.json",
    }
    wio.save_network(bundle.model, paths["network"])
    wio.save_tree(bundle.tree, paths["tree"])
    wio.save_forecast(bundle.forecaster(0), paths["forecast"])
    wio.save_controller_config(bundle.horizon, bundle.weights, bundle.solver, paths["config"])
    wio.save_state(bundle.x0, bundle.u_prev, 0, paths["state"])
    wio.save_realizations(
        bundle.realized_demand,
        bundle.realized_price,
        bundle.nominal_demand,
        bundle.nominal_price,
        paths["realizations"],
        forecast_demand=bundle.forecast_demand,
        forecast_price=bundle.forecast_price,
    )
    wio.save_fan(bundle.fan, paths["fan"])
    return paths


def generate_demo(kind: str, out_dir: str | Path, seed: int = 0) -> dict[str, Path]:
    return write_demo(build_demo(kind, seed=seed), out_dir)
