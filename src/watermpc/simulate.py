"""Closed-loop receding-horizon simulation and performance indicators.

At every step the controller attaches the current forecast to the tree
template, solves one stochastic MPC instance from the measured state and
previously applied input, applies the first-stage action and advances the
plant with the realized demand. Plant and controller share the same LTI
model (no model mismatch), so the logged state recursion is exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .forecast import ForecastSeries
from .network import NetworkModel
from .problem import CostWeights, assemble_problem
from .solver import FactorCache, SolverConfig, factor_step, solve
from .tree import ScenarioTree, attach_forecast, zero_price_errors

Forecaster = Callable[[int], ForecastSeries]


@dataclass
class SimulationConfig:
    """Closed-loop run description.

    ``nominal_prices_only`` zeroes the price part of every tree error, so
    the controller sees only the nominal price forecast (the
    certainty-equivalent-in-price arm of the comparison).
    """

    h_sim: int
    weights: CostWeights
    solver: SolverConfig
    x0: np.ndarray
    u_prev: np.ndarray | None = None
    nominal_prices_only: bool = False

    def __post_init__(self) -> None:
        if self.h_sim < 1:
            raise ValueError("h_sim must be at least 1")
        self.x0 = np.asarray(self.x0, float)
        if self.u_prev is not None:
            self.u_prev = np.asarray(self.u_prev, float)


@dataclass
class SimulationLog:
    """Per-step trajectories of one closed-loop run.

    ``x`` has ``h_sim + 1`` rows, ``x[0]`` being the initial state, and
    satisfies ``x[k+1] = A x[k] + B u[k] + Gd d[k]`` exactly. ``alpha0``
    and ``x_safe`` are copies of the model vectors so indicators can be
    computed from the log alone. ``termination`` holds each step's
    solver termination reason (``"converged"`` or ``"max_iter"``), which
    ``iterations`` alone cannot tell apart at the cap.
    """

    x: np.ndarray
    u: np.ndarray
    demand: np.ndarray
    price: np.ndarray
    solve_time_s: np.ndarray
    iterations: np.ndarray
    primal_residual: np.ndarray
    alpha0: np.ndarray
    x_safe: np.ndarray
    coupling_residual: np.ndarray = field(default_factory=lambda: np.zeros(0))
    termination: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=object))

    @property
    def h_sim(self) -> int:
        return self.u.shape[0]


def run_closed_loop(
    model: NetworkModel,
    tree_template: ScenarioTree,
    forecaster: Forecaster,
    realized_demand: np.ndarray,
    realized_price: np.ndarray,
    config: SimulationConfig,
) -> SimulationLog:
    """Simulate ``config.h_sim`` steps of stochastic MPC in closed loop.

    ``forecaster(k)`` must return the nominal forecast issued at step k;
    realized arrays must cover all simulated steps.
    """
    realized_demand = np.atleast_2d(np.asarray(realized_demand, float))
    realized_price = np.atleast_2d(np.asarray(realized_price, float))
    h = config.h_sim
    if realized_demand.shape[0] < h or realized_price.shape[0] < h:
        raise ValueError(
            f"realizations cover {realized_demand.shape[0]} demand and "
            f"{realized_price.shape[0]} price steps but h_sim = {h}"
        )
    if realized_demand.shape[1] != model.n_demands:
        raise ValueError("realized demand dimension does not match the network")
    if realized_price.shape[1] != model.n_inputs:
        raise ValueError("realized price dimension does not match the network")
    if config.x0.shape != (model.n_tanks,):
        raise ValueError(f"x0 must have shape ({model.n_tanks},)")

    template = (
        zero_price_errors(tree_template)
        if config.nominal_prices_only
        else tree_template
    )
    x = config.x0.copy()
    u_prev = (
        np.zeros(model.n_inputs) if config.u_prev is None else config.u_prev.copy()
    )

    xs = np.empty((h + 1, model.n_tanks))
    us = np.empty((h, model.n_inputs))
    taus = np.empty(h)
    iters = np.empty(h, int)
    resid = np.empty(h)
    coup = np.empty(h)
    terms = np.empty(h, dtype=object)
    xs[0] = x

    cache: FactorCache | None = None
    for k in range(h):
        fc = forecaster(k)
        if fc.horizon != template.horizon:
            raise ValueError(
                f"step {k}: forecast horizon {fc.horizon} does not match the "
                f"tree horizon {template.horizon}"
            )
        tree_k = attach_forecast(template, fc.d_hat, fc.alpha_hat)
        instance = assemble_problem(model, tree_k, config.weights, x, u_prev, k)
        cache = factor_step(instance, structure_from=cache)
        started = time.perf_counter()
        try:
            result = solve(instance, config.solver, cache=cache)
        except RuntimeError as exc:
            raise RuntimeError(f"solver failed at simulation step {k}: {exc}") from exc
        taus[k] = time.perf_counter() - started
        us[k] = result.u0
        iters[k] = result.iterations
        terms[k] = result.termination
        resid[k] = result.primal_residual
        d_k = realized_demand[k]
        coup[k] = float(
            np.max(np.abs(model.coupling_residual(result.u0, d_k)), initial=0.0)
        )
        x = model.step_dynamics(x, result.u0, d_k)
        xs[k + 1] = x
        u_prev = result.u0

    return SimulationLog(
        x=xs,
        u=us,
        demand=realized_demand[:h].copy(),
        price=realized_price[:h].copy(),
        solve_time_s=taus,
        iterations=iters,
        primal_residual=resid,
        alpha0=model.alpha0.copy(),
        x_safe=model.x_safe.copy(),
        coupling_residual=coup,
        termination=terms,
    )


def kpi_economic(log: SimulationLog) -> float:
    """Average per-step operating cost, (1/H_s) sum_k (alpha0 + alpha_k)' u_k."""
    if log.h_sim == 0:
        raise ValueError("empty simulation log")
    return float(((log.alpha0[None, :] + log.price) * log.u).sum() / log.h_sim)


def kpi_safety(log: SimulationLog) -> float:
    """Accumulated safety-level shortfall sum_k ||max(x_safe - x_k, 0)||_1 (m^3)."""
    if log.h_sim == 0:
        raise ValueError("empty simulation log")
    return float(np.maximum(log.x_safe[None, :] - log.x[1:], 0.0).sum())


def kpi_complexity(log: SimulationLog) -> float:
    """Worst-case per-step solve time in seconds."""
    if log.h_sim == 0:
        raise ValueError("empty simulation log")
    return float(log.solve_time_s.max())
