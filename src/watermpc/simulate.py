"""Closed-loop receding-horizon simulation and performance indicators.

At every step the controller attaches the current forecast to the tree
template, solves one stochastic MPC instance from the measured state and
previously applied input, applies the first-stage action and advances the
plant with the realized demand. Plant and controller share the same LTI
model (no model mismatch), so the logged state recursion is exact.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forecast import ForecastSeries
from .network import NetworkModel, _count, _shown
from .problem import CostWeights, ProblemInstance
from .solver import FactorCache, SolverConfig, SolverResult, factor_step, solve
from .tree import ScenarioTree, attach_forecast

Forecaster = Callable[[int], ForecastSeries]

logger = logging.getLogger("watermpc")


@dataclass
class SimulationConfig:
    """Closed-loop run description: ``h_sim`` steps from state ``x0`` with
    ``u_prev`` (zero when None) as the previously applied input.

    The uncertainty the controller sees is the tree passed to
    :func:`run_closed_loop`; for the certainty-equivalent-in-price arm of
    the comparison, pass ``zero_price_errors(tree)``. ``h_sim`` is stored
    as an int, and a rejected field's error message opens with its name.
    """

    h_sim: int
    weights: CostWeights
    solver: SolverConfig
    x0: np.ndarray
    u_prev: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.h_sim = _count("h_sim", self.h_sim, 1)
        self.x0 = np.asarray(self.x0, float)
        if self.u_prev is not None:
            self.u_prev = np.asarray(self.u_prev, float)
        for name in ("x0", "u_prev"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")


@dataclass
class SimulationLog:
    """Per-step trajectories of one closed-loop run.

    ``x`` has ``h_sim + 1`` rows, ``x[0]`` being the initial state, and
    satisfies ``x[k+1] = A x[k] + B u[k] + Gd d[k]`` exactly. ``alpha0``
    and ``x_safe`` are copies of the model vectors so indicators can be
    computed from the log alone. ``solve_time_s`` holds each step's
    ``SolverResult.solve_time_s``. ``termination`` holds each step's
    solver termination reason (``"converged"`` or ``"max_iter"``), which
    ``iterations`` alone cannot tell apart at the cap. Construction turns
    every field into an array, so lists are accepted, and rejects a log of
    no steps, any array whose length or width disagrees with ``u`` and
    ``x``, an iteration count that is not a nonnegative integer and a
    termination reason that is not a string, naming the field.
    """

    x: np.ndarray
    u: np.ndarray
    demand: np.ndarray
    price: np.ndarray
    solve_time_s: np.ndarray
    iterations: np.ndarray
    alpha0: np.ndarray
    x_safe: np.ndarray
    coupling_residual: np.ndarray
    termination: np.ndarray

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):  # the per-item fields keep each item's type
            kind = object if f.name in ("iterations", "termination") else None
            setattr(self, f.name, np.asarray(getattr(self, f.name), kind))
        h = self.u.shape[0] if self.u.ndim == 2 else 0
        if h == 0:
            raise ValueError("u must be a 2-d array with at least one step")
        nu = self.u.shape[1]
        nt, nd = (a.shape[1] if a.ndim == 2 else None for a in (self.x, self.demand))
        for name, want in (("x", (h + 1, nt)), ("demand", (h, nd)), ("price", (h, nu)),
                           ("solve_time_s", (h,)), ("iterations", (h,)), ("alpha0", (nu,)),
                           ("x_safe", (nt,)), ("coupling_residual", (h,)),
                           ("termination", (h,))):
            got = getattr(self, name).shape
            if got != want:
                raise ValueError(f"{name} must have shape {want}, got {got}")
        # What save_simlog writes must load back as it was.
        for k, (count, reason) in enumerate(zip(self.iterations, self.termination)):
            _count(f"iterations[{k}]", count, 0)
            if not isinstance(reason, str):
                raise ValueError(f"termination[{k}] must be a string, got {_shown(reason)}")
        self.iterations = self.iterations.astype(int)

    @property
    def h_sim(self) -> int:
        return self.u.shape[0]


def relative_gap(result: SolverResult) -> float:
    """The solve's duality gap over ``1 + |objective|``, the scale of the
    solver's tolerance test."""
    return result.duality_gap / (1.0 + abs(result.objective))


def warn_unconverged(k: int, result: SolverResult) -> None:
    """Log a warning on the ``watermpc`` logger if step k applies an
    action without a converged certificate."""
    if result.termination != "converged":
        logger.warning(
            "step %d: applying an action with termination %r after %d "
            "iterations, relative duality gap %.3g",
            k, result.termination, result.iterations, relative_gap(result),
        )


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
    realized arrays must cover all simulated steps. The tree template is
    fixed, so every step solves with the first step's factors and step
    metric, each later step warm-started from the previous step's dual. A
    step whose solve ends without a converged certificate still applies
    its action and logs a warning on the ``watermpc`` logger.
    """
    realized_demand = np.atleast_2d(np.asarray(realized_demand, float))
    realized_price = np.atleast_2d(np.asarray(realized_price, float))
    h = config.h_sim
    if realized_demand.shape[0] < h or realized_price.shape[0] < h:
        raise ValueError(
            f"realizations cover {realized_demand.shape[0]} demand and "
            f"{realized_price.shape[0]} price steps but h_sim = {h}"
        )
    for name, values, width in (("demand", realized_demand, model.n_demands),
                                ("price", realized_price, model.n_inputs)):
        if values.shape[1] != width:
            raise ValueError(f"realized {name} dimension does not match the network")
        bad = np.flatnonzero(~np.isfinite(values[:h]).all(axis=1))
        if bad.size:
            raise ValueError(f"realized {name} is not finite at step {bad[0]}")
    if config.x0.shape != (model.n_tanks,):
        raise ValueError(f"x0 must have shape ({model.n_tanks},)")
    if config.u_prev is not None and config.u_prev.shape != (model.n_inputs,):
        raise ValueError(f"u_prev must have shape ({model.n_inputs},)")

    x = config.x0.copy()
    u_prev = (
        np.zeros(model.n_inputs) if config.u_prev is None else config.u_prev.copy()
    )

    xs = np.empty((h + 1, model.n_tanks))
    us = np.empty((h, model.n_inputs))
    taus = np.empty(h)
    iters = np.empty(h, int)
    coup = np.empty(h)
    terms = np.empty(h, dtype=object)
    xs[0] = x

    cache: FactorCache | None = None
    dual: np.ndarray | None = None
    for k in range(h):
        try:
            fc = forecaster(k)
            demand, price = attach_forecast(tree_template, fc.d_hat, fc.alpha_hat)
            instance = ProblemInstance(model, tree_template, config.weights, x, u_prev,
                                       demand, price)
            cache = cache or factor_step(instance)  # the first step's serves every step
            result = solve(instance, config.solver, cache=cache, dual0=dual)
        except RuntimeError as exc:
            raise RuntimeError(f"simulation step {k}: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"simulation step {k}: {exc}") from exc
        warn_unconverged(k, result)
        dual = result.dual
        taus[k] = result.solve_time_s
        us[k] = result.u0
        iters[k] = result.iterations
        terms[k] = result.termination
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
        alpha0=model.alpha0.copy(),
        x_safe=model.x_safe.copy(),
        coupling_residual=coup,
        termination=terms,
    )


def kpi_economic(log: SimulationLog) -> float:
    """Average per-step operating cost, (1/H_s) sum_k (alpha0 + alpha_k)' u_k."""
    return float(((log.alpha0[None, :] + log.price) * log.u).sum() / log.h_sim)


def kpi_safety(log: SimulationLog) -> float:
    """Accumulated safety-level shortfall sum_k ||max(x_safe - x_k, 0)||_1 (m^3)."""
    return float(np.maximum(log.x_safe[None, :] - log.x[1:], 0.0).sum())


def kpi_complexity(log: SimulationLog) -> float:
    """Worst-case per-step solve time in seconds."""
    return float(log.solve_time_s.max())
