"""Closed-loop simulator and KPI tests."""

import logging
import re
from dataclasses import replace

import numpy as np
import pytest

import watermpc.simulate
import watermpc.solver
from watermpc.forecast import ForecastSeries
from watermpc.network import ControlledFlow, MixingNode, NetworkTopology, Tank, build_lti
from watermpc.problem import CostWeights
from watermpc.simulate import (
    SimulationConfig,
    SimulationLog,
    kpi_complexity,
    kpi_economic,
    kpi_safety,
    run_closed_loop,
)
from watermpc.solver import SolverConfig
from watermpc.tree import ScenarioTree


def one_tank_setup(horizon=4):
    topology = NetworkTopology(
        tanks=(Tank(0.0, 2000.0, 300.0, inflows=(0,), demands=(0,)),),
        flows=(ControlledFlow("pump", q_max=600.0, alpha0=0.02),),
        n_demands=1,
    )
    model = build_lti(topology, 1.0)
    tree = ScenarioTree.single_branch(horizon=horizon, n_demand=1, n_price=1)
    weights = CostWeights(w_alpha=1.0, w_u=1e-3, w_s=1.0, w_x=100.0)
    return model, tree, weights


def pattern_forecaster(demand_level, price_level, horizon):
    def forecaster(k):
        return ForecastSeries(
            d_hat=np.full((horizon, 1), demand_level),
            alpha_hat=np.full((horizon, 1), price_level),
        )

    return forecaster


class TestRunClosedLoop:
    def test_zero_demand_zero_price_stays_idle(self):
        model, tree, weights = one_tank_setup()
        h = 6
        config = SimulationConfig(
            h_sim=h,
            weights=weights,
            solver=SolverConfig(max_iter=2000, tol=1e-6),
            x0=np.array([800.0]),
        )
        log = run_closed_loop(
            model, tree, pattern_forecaster(0.0, 0.0, tree.horizon),
            np.zeros((h, 1)), np.zeros((h, 1)), config,
        )
        assert float(np.max(np.abs(log.u))) <= 1e-3
        np.testing.assert_allclose(log.x, 800.0, atol=1e-2)
        assert kpi_safety(log) == 0.0

    def test_constant_demand_reaches_balance(self):
        model, tree, weights = one_tank_setup(horizon=6)
        h = 30
        demand = 200.0
        config = SimulationConfig(
            h_sim=h,
            weights=weights,
            solver=SolverConfig(max_iter=4000, tol=1e-4),
            x0=np.array([800.0]),
        )
        log = run_closed_loop(
            model, tree, pattern_forecaster(demand, 0.03, tree.horizon),
            np.full((h, 1), demand), np.full((h, 1), 0.03), config,
        )
        # Every applied action came from a converged solve, not the iteration cap.
        assert int(log.iterations.max()) < config.solver.max_iter
        assert (log.termination == "converged").all()
        # After the transient the pump matches demand: B u + Gd d ~ 0.
        tail_balance = model.B @ log.u[-5:].T.mean(axis=1) + model.Gd @ np.array([demand])
        assert float(np.abs(tail_balance).max()) <= 0.05 * demand

    def test_mass_audit_exact(self, rng):
        model, tree, weights = one_tank_setup()
        h = 8
        demand = 150.0 + 20.0 * rng.random((h, 1))
        config = SimulationConfig(
            h_sim=h,
            weights=weights,
            solver=SolverConfig(max_iter=500, tol=5e-2),
            x0=np.array([700.0]),
        )
        log = run_closed_loop(
            model, tree, pattern_forecaster(150.0, 0.03, tree.horizon),
            demand, np.full((h, 1), 0.03), config,
        )
        for k in range(h):
            expected = model.step_dynamics(log.x[k], log.u[k], log.demand[k])
            np.testing.assert_array_equal(log.x[k + 1], expected)

    def test_matched_seeds_identical_logs(self):
        from watermpc.demo import build_demo

        b = build_demo("tank1", seed=5, h_sim=6)
        config = SimulationConfig(
            h_sim=6, weights=b.weights,
            solver=SolverConfig(max_iter=1500, tol=5e-2),
            x0=b.x0, u_prev=b.u_prev,
        )
        logs = []
        for _ in range(2):
            logs.append(
                run_closed_loop(
                    b.model, b.tree, b.forecaster,
                    b.realized_demand, b.realized_price, config,
                )
            )
        np.testing.assert_array_equal(logs[0].u, logs[1].u)
        np.testing.assert_array_equal(logs[0].x, logs[1].x)
        np.testing.assert_array_equal(logs[0].iterations, logs[1].iterations)

    def test_each_step_starts_from_the_previous_dual(self, monkeypatch):
        model, tree, weights = one_tank_setup()
        h = 4
        calls = []
        real = watermpc.simulate.solve

        def recorded(*args, dual0=None, **kwargs):
            result = real(*args, dual0=dual0, **kwargs)
            calls.append((dual0, result))
            return result

        monkeypatch.setattr(watermpc.simulate, "solve", recorded)
        config = SimulationConfig(
            h_sim=h,
            weights=weights,
            solver=SolverConfig(max_iter=500, tol=5e-2),
            x0=np.array([700.0]),
        )
        run_closed_loop(
            model, tree, pattern_forecaster(150.0, 0.03, tree.horizon),
            np.full((h, 1), 150.0), np.full((h, 1), 0.03), config,
        )
        assert len(calls) == h
        assert calls[0][0] is None
        for k in range(1, h):
            assert np.array_equal(calls[k][0], calls[k - 1][1].dual)

    def test_every_step_solves_with_the_one_cache(self, monkeypatch):
        model, tree, weights = one_tank_setup()
        h = 3
        calls = []
        real = watermpc.simulate.solve

        def recorded(instance, config, cache=None, dual0=None):
            calls.append((instance, cache))
            return real(instance, config, cache=cache, dual0=dual0)

        monkeypatch.setattr(watermpc.simulate, "solve", recorded)
        config = SimulationConfig(
            h_sim=h, weights=weights, solver=SolverConfig(max_iter=500), x0=np.array([700.0])
        )
        run_closed_loop(
            model, tree, pattern_forecaster(150.0, 0.03, tree.horizon),
            np.full((h, 1), 150.0), np.full((h, 1), 0.03), config,
        )
        assert len(calls) == h
        first = calls[0][1]
        assert first is not None
        for instance, cache in calls:
            assert instance.tree is tree  # the template, never a copy
            assert cache is first

    def test_each_step_logs_its_solves_own_time(self, monkeypatch):
        from watermpc.demo import build_demo

        b = build_demo("tank1", seed=0, h_sim=3)
        results = []
        real = watermpc.simulate.solve

        def recorded(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(watermpc.simulate, "solve", recorded)
        config = SimulationConfig(h_sim=3, weights=b.weights, solver=b.solver, x0=b.x0,
                                  u_prev=b.u_prev)
        log = run_closed_loop(b.model, b.tree, b.forecaster, b.realized_demand,
                              b.realized_price, config)
        assert len(results) == 3
        for k, result in enumerate(results):
            assert log.solve_time_s[k] == result.solve_time_s

    def test_unconverged_steps_are_reported(self, caplog):
        model, tree, weights = one_tank_setup()
        h = 3
        config = SimulationConfig(
            h_sim=h,
            weights=weights,
            solver=SolverConfig(max_iter=5, tol=1e-12),
            x0=np.array([700.0]),
        )
        with caplog.at_level(logging.WARNING, logger="watermpc"):
            log = run_closed_loop(
                model, tree, pattern_forecaster(150.0, 0.03, tree.horizon),
                np.full((h, 1), 150.0), np.full((h, 1), 0.03), config,
            )
        assert (log.termination == "max_iter").all()
        records = [r for r in caplog.records if r.name == "watermpc"]
        assert len(records) == h
        for k, record in enumerate(records):
            assert record.levelno == logging.WARNING
            message = record.getMessage()
            assert f"step {k}:" in message
            assert "after 5 iterations" in message
            assert "relative duality gap" in message

    def test_non_finite_iterate_stops_the_loop(self, monkeypatch):
        model, tree, weights = one_tank_setup()
        real = watermpc.solver.prox_into
        calls = []

        def poisoned(*args):
            out = real(*args)
            calls.append(None)
            if len(calls) == 3:
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(watermpc.solver, "prox_into", poisoned)
        config = SimulationConfig(
            h_sim=2, weights=weights, solver=SolverConfig(), x0=np.array([700.0])
        )
        with pytest.raises(
            RuntimeError, match="step 0: solver produced a non-finite iterate"
        ):
            run_closed_loop(
                model, tree, pattern_forecaster(150.0, 0.03, tree.horizon),
                np.full((2, 1), 150.0), np.full((2, 1), 0.03), config,
            )
        assert len(calls) < SolverConfig().max_iter

    def test_a_failing_step_is_named(self):
        # Flow 1 leaves the tank for a mixing node that serves the demand,
        # so a demand above its 100 m^3/s capacity has no feasible input.
        topology = NetworkTopology(
            tanks=(Tank(0.0, 2000.0, 300.0, inflows=(0,), outflows=(1,)),),
            flows=(ControlledFlow("pump", 600.0, 0.02), ControlledFlow("valve", 100.0)),
            n_demands=1,
            mixing_nodes=(MixingNode(inflows=(1,), demands=(0,)),),
        )
        model = build_lti(topology, 1.0)
        tree = ScenarioTree.single_branch(horizon=4, n_demand=1, n_price=2)
        weights = CostWeights(w_alpha=1.0, w_u=1e-3, w_s=1.0, w_x=100.0)

        def forecaster(k):
            return ForecastSeries(d_hat=np.full((4, 1), 50.0 if k < 2 else 150.0),
                                  alpha_hat=np.full((4, 2), 0.03))

        config = SimulationConfig(
            h_sim=3, weights=weights, solver=SolverConfig(max_iter=50), x0=np.array([700.0])
        )
        with pytest.raises(ValueError, match="^simulation step 2: coupling E u = -Ed d is "
                                             "infeasible at tree node 1"):
            run_closed_loop(model, tree, forecaster, np.full((3, 1), 50.0),
                            np.full((3, 2), 0.03), config)

    def test_realization_exhaustion_rejected(self):
        model, tree, weights = one_tank_setup()
        config = SimulationConfig(
            h_sim=10, weights=weights, solver=SolverConfig(), x0=np.array([500.0])
        )
        with pytest.raises(ValueError, match="h_sim"):
            run_closed_loop(
                model, tree, pattern_forecaster(0.0, 0.0, tree.horizon),
                np.zeros((4, 1)), np.zeros((4, 1)), config,
            )

    @pytest.mark.parametrize("changes, message", [
        pytest.param({"demand": np.zeros((3, 2))},
                     "realized demand dimension does not match the network", id="demand-width"),
        pytest.param({"price": np.zeros((3, 2))},
                     "realized price dimension does not match the network", id="price-width"),
        pytest.param({"x0": np.array([500.0, 500.0])}, "x0 must have shape (1,)", id="x0-shape"),
        pytest.param({"u_prev": np.zeros(2)}, "u_prev must have shape (1,)", id="u_prev-shape"),
        pytest.param({"price": np.array([[0.03], [np.nan], [0.03]])},
                     "realized price is not finite at step 1", id="nan-price"),
        pytest.param({"demand": np.array([[150.0], [150.0], [np.inf]])},
                     "realized demand is not finite at step 2", id="inf-demand-last-step"),
        pytest.param({"demand": np.array([[150.0], [np.nan], [150.0]])},
                     "realized demand is not finite at step 1", id="nan-demand"),
    ])
    def test_bad_inputs_rejected(self, changes, message):
        model, tree, weights = one_tank_setup()
        inputs = {"demand": np.full((3, 1), 150.0), "price": np.full((3, 1), 0.03),
                  "x0": np.array([500.0]), "u_prev": None, **changes}
        config = SimulationConfig(
            h_sim=3, weights=weights, solver=SolverConfig(), x0=inputs["x0"],
            u_prev=inputs["u_prev"],
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_closed_loop(
                model, tree, pattern_forecaster(150.0, 0.03, tree.horizon),
                inputs["demand"], inputs["price"], config,
            )

    @pytest.mark.parametrize("name", ["x0", "u_prev"])
    def test_non_finite_start_is_named(self, name):
        _, _, weights = one_tank_setup()
        start = {"x0": np.array([500.0]), "u_prev": np.zeros(1), name: np.array([np.nan])}
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            SimulationConfig(h_sim=1, weights=weights, solver=SolverConfig(), **start)

    @pytest.mark.parametrize("h_sim, message", [
        pytest.param(0, "h_sim must be an integer of at least 1, got 0", id="0"),
        pytest.param(2.5, "h_sim must be an integer of at least 1, got 2.5", id="2.5"),
        pytest.param(True, "h_sim must be an integer of at least 1, got True", id="True"),
    ])
    def test_step_count_rejected(self, h_sim, message):
        _, _, weights = one_tank_setup()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationConfig(
                h_sim=h_sim, weights=weights, solver=SolverConfig(), x0=np.array([500.0])
            )

    def test_numpy_integer_step_count_runs(self):
        model, tree, weights = one_tank_setup()
        config = SimulationConfig(
            h_sim=np.int64(2), weights=weights, solver=SolverConfig(), x0=np.array([500.0])
        )
        log = run_closed_loop(
            model, tree, pattern_forecaster(0.0, 0.0, tree.horizon),
            np.zeros((2, 1)), np.zeros((2, 1)), config,
        )
        assert log.h_sim == 2

    def test_forecast_horizon_mismatch_rejected(self):
        model, tree, weights = one_tank_setup(horizon=4)
        config = SimulationConfig(
            h_sim=2, weights=weights, solver=SolverConfig(), x0=np.array([500.0])
        )
        with pytest.raises(ValueError, match="horizon"):
            run_closed_loop(
                model, tree, pattern_forecaster(0.0, 0.0, 3),
                np.zeros((2, 1)), np.zeros((2, 1)), config,
            )


class TestKpis:
    def make_log(self, u, price, x, alpha0, x_safe, tau=None):
        h = u.shape[0]
        return SimulationLog(
            x=x,
            u=u,
            demand=np.zeros((h, 1)),
            price=price,
            solve_time_s=np.asarray(tau if tau is not None else np.ones(h)),
            iterations=np.ones(h, int),
            alpha0=alpha0,
            x_safe=x_safe,
            coupling_residual=np.zeros(h),
            termination=np.full(h, "converged", dtype=object),
        )

    def test_kpi_economic_arithmetic(self):
        # two steps, alpha0 + alpha = (1, 1), u = (2, 3) each step -> 5
        u = np.array([[2.0, 3.0], [2.0, 3.0]])
        price = np.zeros((2, 2))
        log = self.make_log(
            u, price, np.zeros((3, 1)), alpha0=np.array([1.0, 1.0]),
            x_safe=np.array([0.0]),
        )
        assert kpi_economic(log) == pytest.approx(5.0)

    def test_kpi_economic_zero_inputs(self):
        log = self.make_log(
            np.zeros((3, 2)), np.ones((3, 2)), np.zeros((4, 1)),
            alpha0=np.ones(2), x_safe=np.zeros(1),
        )
        assert kpi_economic(log) == 0.0

    def test_kpi_safety_arithmetic(self):
        x = np.array([[10.0], [7.5], [10.0]])
        log = self.make_log(
            np.zeros((2, 1)), np.zeros((2, 1)), x, alpha0=np.zeros(1),
            x_safe=np.array([10.0]),
        )
        assert kpi_safety(log) == pytest.approx(2.5)

    def test_kpi_safety_zero_when_above(self):
        x = np.full((4, 2), 20.0)
        log = self.make_log(
            np.zeros((3, 1)), np.zeros((3, 1)), x, alpha0=np.zeros(1),
            x_safe=np.array([10.0, 5.0]),
        )
        assert kpi_safety(log) == 0.0

    def test_kpi_safety_matches_double_loop_oracle(self, rng):
        x = 10.0 + rng.standard_normal((9, 3))
        x_safe = np.array([10.0, 9.5, 10.5])
        log = self.make_log(
            np.zeros((8, 1)), np.zeros((8, 1)), x, alpha0=np.zeros(1), x_safe=x_safe
        )
        expected = 0.0
        for k in range(1, 9):
            for j in range(3):
                expected += max(x_safe[j] - x[k, j], 0.0)
        assert kpi_safety(log) == pytest.approx(expected, rel=1e-12)

    def test_kpi_complexity(self):
        log = self.make_log(
            np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((4, 1)),
            alpha0=np.zeros(1), x_safe=np.zeros(1), tau=np.array([0.1, 0.3, 0.2]),
        )
        assert kpi_complexity(log) == pytest.approx(0.3)

    def test_kpi_complexity_single_step(self):
        log = self.make_log(
            np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((2, 1)),
            alpha0=np.zeros(1), x_safe=np.zeros(1), tau=np.array([0.42]),
        )
        assert kpi_complexity(log) == pytest.approx(0.42)

    def test_log_built_from_lists(self):
        # A 2-step log of plain lists, as from a JSON document.
        log = SimulationLog(
            x=[[10.0], [7.5], [12.0]], u=[[2.0, 3.0], [1.0, 0.0]],
            demand=[[0.0], [0.0]], price=[[0.0, 1.0], [1.0, 0.0]],
            solve_time_s=[0.1, 0.3], iterations=[25, 50], alpha0=[1.0, 1.0],
            x_safe=[10.0], coupling_residual=[0.0, 0.0],
            termination=["converged", "max_iter"],
        )
        assert isinstance(log.termination, np.ndarray)
        assert log.h_sim == 2
        # (1, 2) . (2, 3) + (2, 1) . (1, 0) = 8 + 2, over two steps
        assert kpi_economic(log) == pytest.approx(5.0)
        assert kpi_safety(log) == pytest.approx(2.5)
        assert kpi_complexity(log) == pytest.approx(0.3)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError, match="^u must be a 2-d array with at least one step$"):
            self.make_log(
                np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((1, 1)),
                alpha0=np.zeros(1), x_safe=np.zeros(1), tau=np.zeros(0),
            )

    @pytest.mark.parametrize("name, value, message", [
        pytest.param("x", np.zeros((5, 1)), "x must have shape (3, 1), got (5, 1)", id="x-rows"),
        pytest.param("x", np.zeros(3), "x must have shape (3, None), got (3,)", id="x-1d"),
        pytest.param("termination", np.empty(0, dtype=object),
                     "termination must have shape (2,), got (0,)", id="termination-empty"),
        pytest.param("iterations", np.ones(3, int), "iterations must have shape (2,), got (3,)",
                     id="iterations-long"),
        pytest.param("demand", np.zeros((1, 1)), "demand must have shape (2, 1), got (1, 1)",
                     id="demand-short"),
        pytest.param("price", np.zeros((2, 2)), "price must have shape (2, 1), got (2, 2)",
                     id="price-wide"),
        pytest.param("alpha0", np.zeros(2), "alpha0 must have shape (1,), got (2,)",
                     id="alpha0-wide"),
        pytest.param("x_safe", np.zeros(2), "x_safe must have shape (1,), got (2,)",
                     id="x_safe-wide"),
        # Each of these saved as something else or failed to load back.
        pytest.param("iterations", [2.5, 1], "iterations[0] must be an integer of at least 0, "
                     "got 2.5", id="iterations-float"),
        pytest.param("iterations", [1, -3], "iterations[1] must be an integer of at least 0, "
                     "got -3", id="iterations-negative"),
        pytest.param("iterations", [2, True], "iterations[1] must be an integer of at least "
                     "0, got True", id="iterations-bool"),
        pytest.param("termination", ["converged", 7], "termination[1] must be a string, got 7",
                     id="termination-int"),
    ])
    def test_mismatched_field_is_named(self, name, value, message):
        # Without the check a short termination saved and then failed to
        # load, and extra state rows went into kpi_safety.
        log = self.make_log(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((3, 1)),
                            alpha0=np.zeros(1), x_safe=np.zeros(1))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(log, **{name: value})

    def test_coupling_residual_is_required(self):
        # A log without it would save as [] that load_simlog rejects; the
        # same holds for the termination reasons.
        with pytest.raises(TypeError, match="'coupling_residual' and 'termination'"):
            SimulationLog(
                x=np.zeros((2, 1)), u=np.zeros((1, 1)), demand=np.zeros((1, 1)),
                price=np.zeros((1, 1)), solve_time_s=np.zeros(1), iterations=np.ones(1, int),
                alpha0=np.zeros(1), x_safe=np.zeros(1),
            )
