"""Tests for the dense reference implementations."""

import numpy as np
import pytest

import watermpc.solver
from watermpc.problem import rollout_inputs
from watermpc.solver import dual_gradient, factor_step

from conftest import make_instance
from oracle import (
    apply_H_adjoint,
    brute_force_min,
    dense_kkt_solve,
    duality_gap,
    eval_f,
    primal_objective,
    project_primal_feasible,
)


class TestDenseKkt:
    def test_scalar_closed_form(self, rng):
        # One state, one input, no coupling: minimizing
        # w_alpha*(alpha0+alpha)*u + W_u*(u-q)^2 gives
        # u = q - linear / (2 W_u).
        inst = make_instance(rng, n_tanks=1, n_inputs=1, n_demands=1, horizon=1, max_nodes=2)
        z = dense_kkt_solve(inst, np.zeros(inst.dual_shape))
        U, X = inst.split_primal(z)
        lin = inst.econ[0, 0]
        expected_u = inst.q[0] - lin / (2.0 * inst.wu[0, 0])
        assert U[0, 0] == pytest.approx(expected_u, rel=1e-10)
        np.testing.assert_allclose(X, rollout_inputs(inst, U), atol=1e-10)

    def test_solution_satisfies_constraints(self, rng):
        inst = make_instance(rng, n_mixing=2, horizon=3, max_nodes=15)
        y = rng.standard_normal(inst.dual_shape)
        z = dense_kkt_solve(inst, y)
        assert np.isfinite(eval_f(inst, z))

    def test_affinity_three_point_collinearity(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        y0 = rng.standard_normal(inst.dual_shape)
        direction = rng.standard_normal(inst.dual_shape)
        z0 = dense_kkt_solve(inst, y0)
        z1 = dense_kkt_solve(inst, y0 + direction)
        z2 = dense_kkt_solve(inst, y0 + 2.0 * direction)
        np.testing.assert_allclose(z2 - z1, z1 - z0, atol=1e-10 * (1 + np.abs(z1).max()))

    def test_stationarity_in_null_directions(self, rng):
        # At the minimizer, the cost gradient must be orthogonal to every
        # feasible direction (checked through a feasible perturbation).
        inst = make_instance(rng, horizon=2, max_nodes=6)
        y = rng.standard_normal(inst.dual_shape)
        z = dense_kkt_solve(inst, y)
        hty = apply_H_adjoint(inst, y)
        base = eval_f(inst, z) + float(hty @ z)
        for _ in range(5):
            dU = 1e-6 * rng.standard_normal((inst.n_nonroot, inst.model.n_inputs))
            if inst.model.n_mixing:
                dU -= (dU @ inst.model.E.T) @ np.linalg.pinv(inst.model.E).T
            U, _ = inst.split_primal(z)
            U2 = U + dU
            z2 = inst.join_primal(U2, rollout_inputs(inst, U2))
            value = eval_f(inst, z2) + float(hty @ z2)
            assert value >= base - 1e-9 * (1 + abs(base))


class TestBruteForce:
    def test_interior_optimum_against_solver(self, rng):
        from watermpc.solver import SolverConfig, solve

        inst = make_instance(rng, n_tanks=1, n_inputs=1, n_demands=1, horizon=2, max_nodes=3)
        z_grid, val_grid = brute_force_min(inst)
        res = solve(inst, SolverConfig(max_iter=60000, tol=1e-6))
        span = float(inst.model.u_max[0] - inst.model.u_min[0])
        U_grid, _ = inst.split_primal(z_grid)
        assert abs(res.u0[0] - U_grid[0, 0]) <= 2e-3 * max(1.0, span)

    def test_boundary_optimum_pinned_at_capacity(self, rng):
        inst = make_instance(rng, n_tanks=1, n_inputs=1, n_demands=1, horizon=1, max_nodes=2)
        # Negative price makes pumping profitable: optimum at u_max.
        inst.econ[:] = -10.0
        inst.model.x_max[:] = 1e9
        z, _ = brute_force_min(inst)
        U, _ = inst.split_primal(z)
        assert U[0, 0] == pytest.approx(inst.model.u_max[0])

    def test_objective_scan_unimodal(self, rng):
        inst = make_instance(rng, n_tanks=1, n_inputs=1, n_demands=1, horizon=1, max_nodes=2)
        lo, hi = inst.model.u_min[0], inst.model.u_max[0]
        grid = np.linspace(lo, hi, 1001)
        from oracle import _objective_on_inputs

        vals = _objective_on_inputs(inst, grid[:, None])
        sign_changes = np.count_nonzero(np.diff(np.sign(np.diff(vals))) != 0)
        assert sign_changes <= 1

    def test_rejects_coupled_instances(self, rng):
        inst = make_instance(rng, n_inputs=2, n_mixing=1, horizon=1, max_nodes=2)
        with pytest.raises(ValueError, match="mixing"):
            brute_force_min(inst)

    def test_rejects_large_dimension(self, rng):
        inst = make_instance(rng, n_inputs=2, horizon=2, max_nodes=4)
        if inst.n_nonroot * 2 > 3:
            with pytest.raises(ValueError, match="dimension too large"):
                brute_force_min(inst)


class TestDualityGap:
    def test_weak_duality_at_zero(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        cache = factor_step(inst)
        z, _ = dual_gradient(cache, inst, np.zeros(inst.dual_shape))
        gap = duality_gap(inst, z, np.zeros(inst.dual_shape))
        assert gap >= -1e-9 * (1 + abs(gap))

    def test_near_zero_at_optimum(self, rng):
        from watermpc.solver import SolverConfig, solve

        inst = make_instance(rng, n_tanks=1, n_inputs=1, n_demands=1, horizon=2, max_nodes=3)
        res = solve(inst, SolverConfig(max_iter=80000, tol=1e-7))
        gap = duality_gap(inst, res.primal_avg, res.dual)
        obj = primal_objective(inst, project_primal_feasible(inst, res.primal_avg))
        assert gap <= 1e-4 * (1 + abs(obj))

    def test_monotone_best_so_far_along_iterations(self, rng, monkeypatch):
        from watermpc.solver import SolverConfig, solve

        inst = make_instance(rng, horizon=2, max_nodes=8)
        # Each call of the solver's conjugate prox yields the next dual iterate.
        iterates = []
        real = watermpc.solver.prox_g_conjugate

        def recorded(*args):
            iterates.append(real(*args))
            return iterates[-1]

        monkeypatch.setattr(watermpc.solver, "prox_g_conjugate", recorded)
        res = solve(inst, SolverConfig(max_iter=512, tol=1e-30))
        primal = primal_objective(inst, project_primal_feasible(inst, res.primal_avg))
        assert primal == pytest.approx(res.objective, rel=1e-9)
        gaps = [duality_gap(inst, res.primal_avg, iterates[nu - 1]) for nu in (8, 32, 128, 512)]
        # Weak duality: the dense oracle's dual value at each iterate stays
        # under the solver's objective.
        assert all(primal - g <= res.objective + 1e-9 * (1 + abs(primal)) for g in gaps)
        assert all(g >= -1e-9 * (1 + abs(g)) for g in gaps)


def test_projection_restores_feasibility(rng):
    inst = make_instance(rng, n_mixing=1, horizon=2, max_nodes=8)
    z = rng.standard_normal(inst.n_primal) * 5.0
    z_f = project_primal_feasible(inst, z)
    U, X = inst.split_primal(z_f)
    m = inst.model
    assert np.all(U >= m.u_min - 0.0) and np.all(U <= m.u_max + 0.0)
    resid = U @ m.E.T + inst.demand @ m.Ed.T
    assert float(np.max(np.abs(resid))) <= 1e-8 * (1 + float(np.max(np.abs(U))))
    assert np.isfinite(eval_f(inst, z_f))
