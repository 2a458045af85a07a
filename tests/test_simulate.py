"""Closed-loop simulator and KPI tests."""

import logging

import numpy as np
import pytest

import watermpc.simulate
from watermpc.forecast import ForecastSeries
from watermpc.network import ControlledFlow, NetworkTopology, Tank, build_lti
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
            primal_residual=np.zeros(h),
            alpha0=alpha0,
            x_safe=x_safe,
            coupling_residual=np.zeros(h),
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

    def test_empty_log_rejected(self):
        log = self.make_log(
            np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((1, 1)),
            alpha0=np.zeros(1), x_safe=np.zeros(1), tau=np.zeros(0),
        )
        with pytest.raises(ValueError, match="empty"):
            kpi_economic(log)

    def test_coupling_residual_is_required(self):
        # A log without it would save as [] that load_simlog rejects.
        with pytest.raises(TypeError, match="coupling_residual"):
            SimulationLog(
                x=np.zeros((2, 1)), u=np.zeros((1, 1)), demand=np.zeros((1, 1)),
                price=np.zeros((1, 1)), solve_time_s=np.zeros(1), iterations=np.ones(1, int),
                primal_residual=np.zeros(1), alpha0=np.zeros(1), x_safe=np.zeros(1),
            )
