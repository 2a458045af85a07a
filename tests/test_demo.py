"""The demo generator against its per-step reference, and how its
realizations depend on the closed-loop length."""

from __future__ import annotations

import numpy as np
import pytest

from watermpc import demo
from watermpc.demo import DEMO_KINDS, build_demo, build_error_fan, demand_pattern, price_pattern


def realized_errors_reference(
    rng: np.random.Generator, steps: int, demand_scale: np.ndarray, energy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The plant's demand and price errors drawn and recursed one step at a
    time, as ``demo._realized_errors`` returns them."""
    nd = demand_scale.size
    d_err = np.zeros((steps, nd))
    state_d = np.zeros(nd)
    for t in range(steps):
        state_d = demo._AR_RHO * state_d + rng.normal(0.0, 1.0, nd) * (
            demo._DEMAND_WALK_SD * demand_scale
        )
        d_err[t] = state_d
    walk = np.zeros(steps)
    state_w = 0.0
    for t in range(steps):
        state_w = demo._AR_RHO * state_w + rng.normal(0.0, demo._PRICE_WALK_SD)
        walk[t] = state_w
    hits = np.where(
        rng.random(steps) < demo._SPIKE_PROB, rng.exponential(demo._SPIKE_MEAN, steps), 0.0
    )
    spikes = np.empty(steps)
    state_s = 0.0
    for t in range(steps):
        state_s = demo._SPIKE_RHO * state_s + hits[t]
        spikes[t] = state_s
    return d_err, np.outer(walk + spikes, energy)


def forecasts_reference(
    d_err: np.ndarray,
    p_err: np.ndarray,
    nominal_demand: np.ndarray,
    nominal_price: np.ndarray,
    horizon: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The forecast issued at each step, one step at a time: pattern plus
    the decayed deviation of the step before (zero at step 0)."""
    h_sim, nd = d_err.shape
    nu = p_err.shape[1]
    decay = demo._AR_RHO ** np.arange(1, horizon + 1)
    forecast_demand = np.empty((h_sim, horizon, nd))
    forecast_price = np.empty((h_sim, horizon, nu))
    for k in range(h_sim):
        dev_d = d_err[k - 1] if k > 0 else np.zeros(nd)
        dev_p = p_err[k - 1] if k > 0 else np.zeros(nu)
        forecast_demand[k] = np.maximum(
            nominal_demand[k:k + horizon] + decay[:, None] * dev_d[None, :], 0.0
        )
        forecast_price[k] = nominal_price[k:k + horizon] + decay[:, None] * dev_p[None, :]
    return forecast_demand, forecast_price


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _after_fan(kind: str, seed: int) -> np.random.Generator:
    """A generator seeded as ``build_demo`` seeds it, after the fan's draws."""
    builder, horizon, _, n_scenarios = demo._DEMOS[kind]
    _, demand_scale, energy, _ = builder()
    rng = np.random.default_rng(np.random.SeedSequence([1000, seed]))
    build_error_fan(rng, n_scenarios, horizon, demand_scale, energy)
    return rng


@pytest.mark.parametrize("h_sim", [1, 168])
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("kind", DEMO_KINDS)
def test_generator_matches_the_per_step_reference(kind, seed, h_sim):
    builder, horizon, _, _ = demo._DEMOS[kind]
    _, demand_scale, energy, _ = builder()
    rng, rng_ref = _after_fan(kind, seed), _after_fan(kind, seed)
    d_err, p_err = demo._realized_errors(rng, h_sim, demand_scale, energy)
    d_ref, p_ref = realized_errors_reference(rng_ref, h_sim, demand_scale, energy)
    assert_same_bytes(d_err, d_ref)
    assert_same_bytes(p_err, p_ref)
    # Both consumed the same stretch of the stream.
    assert rng.bit_generator.state == rng_ref.bit_generator.state

    hours = np.arange(h_sim + horizon)
    nominal_demand = demand_pattern(hours, demand_scale)
    nominal_price = price_pattern(hours, energy)
    fd_ref, fp_ref = forecasts_reference(d_ref, p_ref, nominal_demand, nominal_price, horizon)
    bundle = build_demo(kind, seed, h_sim)
    assert_same_bytes(bundle.realized_demand, np.maximum(nominal_demand[:h_sim] + d_ref, 0.0))
    assert_same_bytes(bundle.realized_price, np.maximum(nominal_price[:h_sim] + p_ref, 0.0))
    assert_same_bytes(bundle.forecast_demand, fd_ref)
    assert_same_bytes(bundle.forecast_price, fp_ref)


@pytest.mark.parametrize("kind", DEMO_KINDS)
def test_first_demand_steps_do_not_depend_on_the_loop_length(kind):
    short, full = build_demo(kind, 0, 6), build_demo(kind, 0)
    assert_same_bytes(short.fan.values, full.fan.values)
    assert_same_bytes(short.tree.eps, full.tree.eps)
    assert_same_bytes(short.realized_demand, full.realized_demand[:6])
    assert_same_bytes(short.forecast_demand, full.forecast_demand[:6])


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: the realized price walk is drawn after every "
    "step's demand draws, so its first steps depend on h_sim",
)
@pytest.mark.parametrize("kind", DEMO_KINDS)
def test_first_price_steps_do_not_depend_on_the_loop_length(kind):
    short, full = build_demo(kind, 0, 6), build_demo(kind, 0)
    assert_same_bytes(short.realized_price, full.realized_price[:6])
    assert_same_bytes(short.forecast_price, full.forecast_price[:6])
