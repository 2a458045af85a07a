"""Shared builders for random and hand-sized test instances."""

from __future__ import annotations

import numpy as np
import pytest

from watermpc.network import NetworkModel
from watermpc.problem import CostWeights, ProblemInstance
from watermpc.tree import ScenarioTree


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


def make_model(
    rng: np.random.Generator,
    n_tanks: int,
    n_inputs: int,
    n_demands: int,
    n_mixing: int = 0,
    dt: float = 1.0,
    identity_a: bool = True,
) -> NetworkModel:
    """Random dense model with consistent bounds and disjoint coupling rows."""
    A = np.eye(n_tanks) if identity_a else np.eye(n_tanks) + 0.05 * rng.standard_normal((n_tanks, n_tanks))
    B = dt * rng.choice([-1.0, 0.0, 1.0], size=(n_tanks, n_inputs))
    if not B.any():
        B[0, 0] = dt
    Gd = -dt * (rng.random((n_tanks, n_demands)) < 0.5)
    if n_mixing:
        E = rng.standard_normal((n_mixing, n_inputs))
        # Each input in one row (NetworkModel's row rule), row i taking
        # the inputs j with j % n_mixing == i.
        E *= np.arange(n_inputs) % n_mixing == np.arange(n_mixing)[:, None]
        # Ed = -E W for a small positive W keeps the coupling set reachable
        # from inside the input box for moderate nonnegative demands.
        W = 0.3 * rng.random((n_inputs, n_demands))
        Ed = -E @ W
    else:
        E = np.zeros((0, n_inputs))
        Ed = np.zeros((0, n_demands))
    x_scale = 10.0
    return NetworkModel(
        A=A,
        B=B,
        Gd=Gd,
        E=E,
        Ed=Ed,
        x_min=np.zeros(n_tanks),
        x_max=np.full(n_tanks, 4.0 * x_scale),
        x_safe=np.full(n_tanks, x_scale),
        u_min=np.zeros(n_inputs),
        u_max=np.full(n_inputs, 1.0 + rng.random(n_inputs)),
        alpha0=0.5 * rng.random(n_inputs),
        dt=dt,
    )


def make_tree(
    rng: np.random.Generator,
    horizon: int,
    n_demand: int,
    n_price: int,
    max_children: int = 3,
    max_nodes: int = 30,
    eps_scale: float = 0.1,
) -> ScenarioTree:
    """Random valid tree in breadth-first order with exact telescoping."""
    stage = [0]
    anc = [-1]
    prob = [1.0]
    frontier = [0]
    for j in range(1, horizon + 1):
        next_frontier = []
        for node in frontier:
            remaining = max_nodes - len(stage)
            budget = max(1, min(max_children, remaining - sum(1 for f in frontier if f > node)))
            k = 1 if j == horizon and len(stage) > max_nodes else int(rng.integers(1, budget + 1))
            shares = rng.random(k) + 0.2
            shares /= shares.sum()
            for share in shares:
                stage.append(j)
                anc.append(node)
                prob.append(prob[node] * share)
                next_frontier.append(len(stage) - 1)
        frontier = next_frontier
    n = len(stage)
    eps = eps_scale * rng.standard_normal((n, n_demand + n_price))
    eps[0] = 0.0
    # Exact telescoping: renormalize children to sum to the parent.
    prob_arr = np.array(prob)
    anc_arr = np.array(anc)
    for node in range(n):
        kids = np.nonzero(anc_arr == node)[0]
        if kids.size:
            prob_arr[kids] *= prob_arr[node] / prob_arr[kids].sum()
    return ScenarioTree(
        horizon=horizon,
        n_demand=n_demand,
        n_price=n_price,
        nodes_per_stage=np.bincount(stage, minlength=horizon + 1),
        anc=anc_arr,
        prob=prob_arr,
        eps=eps,
    )


def node_stages(tree: ScenarioTree) -> np.ndarray:
    """Each node's stage, from the tree's per-stage counts."""
    return np.repeat(np.arange(tree.horizon + 1), tree.nodes_per_stage)


def make_instance(
    rng: np.random.Generator,
    n_tanks: int = 3,
    n_inputs: int = 4,
    n_demands: int = 2,
    n_mixing: int = 0,
    horizon: int = 3,
    max_nodes: int = 20,
    w_u_scale: float = 1.0,
) -> ProblemInstance:
    """Random assembled instance with forecast-attached values."""
    from watermpc.tree import attach_forecast

    model = make_model(rng, n_tanks, n_inputs, n_demands, n_mixing)
    tree = make_tree(rng, horizon, n_demands, n_inputs, max_nodes=max_nodes)
    d_hat = 0.3 + 0.2 * rng.random((horizon, n_demands))
    alpha_hat = 0.5 + rng.random((horizon, n_inputs))
    demand, price = attach_forecast(tree, d_hat, alpha_hat)
    wu = rng.standard_normal((n_inputs, n_inputs))
    wu = w_u_scale * (wu @ wu.T + n_inputs * np.eye(n_inputs))
    weights = CostWeights(w_alpha=1.0, w_u=wu, w_s=2.0, w_x=5.0)
    p = model.x_safe * (1.2 + 0.5 * rng.random(n_tanks))
    q = 0.3 * rng.random(n_inputs)
    return ProblemInstance(model, tree, weights, p, q, demand, price)
