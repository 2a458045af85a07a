"""Tests for the factor step, dual gradient and the accelerated solver."""

import numpy as np
import pytest

import watermpc.solver
from watermpc.demo import build_demo
from watermpc.oracle import dense_kkt_solve
from watermpc.problem import apply_H, assemble_problem, eval_f
from watermpc.solver import (
    SolverConfig,
    dual_gradient,
    estimate_lipschitz,
    factor_step,
    solve,
    theta_sequence,
)
from watermpc.tree import ScenarioTree, attach_forecast

from conftest import make_instance


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))


def permute_within_stages(inst, rng):
    """The same problem on a tree whose nodes are shuffled within each stage."""
    tree = inst.tree
    perm = np.arange(tree.n_nodes)
    for j in range(1, tree.horizon + 1):
        idx = np.nonzero(tree.stage == j)[0]
        perm[idx] = idx[rng.permutation(idx.size)]
    inv = np.empty_like(perm)
    inv[perm] = np.arange(tree.n_nodes)
    new_anc = np.array([-1] + [inv[tree.anc[perm[i]]] for i in range(1, tree.n_nodes)])
    permuted = ScenarioTree(
        horizon=tree.horizon,
        n_demand=tree.n_demand,
        n_price=tree.n_price,
        stage=tree.stage.copy(),
        anc=new_anc,
        prob=tree.prob[perm],
        eps=tree.eps[perm],
        demand=tree.demand[perm],
        price=tree.price[perm],
    )
    return assemble_problem(inst.model, permuted, inst.weights, inst.p, inst.q)


class TestFactorStep:
    def test_no_coupling_gives_identity_basis(self, rng):
        inst = make_instance(rng, n_mixing=0, horizon=2, max_nodes=5)
        cache = factor_step(inst)
        np.testing.assert_array_equal(cache.null_basis, np.eye(inst.model.n_inputs))
        np.testing.assert_array_equal(cache.u_part, 0.0)

    def test_two_flow_conservation_null_space(self, rng):
        inst = make_instance(rng, n_inputs=2, n_mixing=1, horizon=1, max_nodes=2)
        inst.model.E[:] = np.array([[1.0, -1.0]])
        inst.model.Ed[:] = 0.0
        inst.demand[:] = 0.0
        cache = factor_step(inst)
        basis = cache.null_basis
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [np.sqrt(0.5)] * 2, atol=1e-12)
        assert float(np.max(np.abs(inst.model.E @ basis))) <= 1e-12

    def test_inner_solve_matches_dense_kkt(self, rng):
        for trial in range(5):
            inst = make_instance(
                rng,
                n_tanks=int(rng.integers(1, 4)),
                n_inputs=int(rng.integers(2, 5)),
                n_demands=2,
                n_mixing=int(rng.integers(0, 2)),
                horizon=int(rng.integers(1, 4)),
                max_nodes=12,
            )
            cache = factor_step(inst)
            y = rng.standard_normal(inst.n_dual)
            z_tree, _ = dual_gradient(cache, inst, y)
            z_dense = dense_kkt_solve(inst, y)
            assert rel_err(z_tree, z_dense) <= 1e-8

    def test_structure_reuse_detects_mismatch(self, rng):
        inst_a = make_instance(rng, horizon=2, max_nodes=6)
        inst_b = make_instance(rng, horizon=2, max_nodes=6)
        cache_a = factor_step(inst_a)
        with pytest.raises(ValueError, match="different structure"):
            factor_step(inst_b, structure_from=cache_a)

    def test_structure_reuse_same_tree_new_values(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        cache = factor_step(inst)
        tree2 = attach_forecast(
            inst.tree,
            inst.tree.demand[1:][inst.tree.stage[1:] == 1][:1].repeat(inst.tree.horizon, 0) * 0.0
            + 0.4,
            np.full((inst.tree.horizon, inst.model.n_inputs), 0.9),
        )
        from watermpc.problem import assemble_problem

        inst2 = assemble_problem(inst.model, tree2, inst.weights, inst.p, inst.q)
        cache2 = factor_step(inst2, structure_from=cache)
        y = np.zeros(inst2.n_dual)
        z_tree, _ = dual_gradient(cache2, inst2, y)
        z_dense = dense_kkt_solve(inst2, y)
        assert rel_err(z_tree, z_dense) <= 1e-8


class TestDualGradient:
    def test_zero_dual_matches_oracle(self, rng):
        inst = make_instance(rng, n_mixing=1, horizon=3, max_nodes=10)
        cache = factor_step(inst)
        z, _ = dual_gradient(cache, inst, np.zeros(inst.n_dual))
        z_dense = dense_kkt_solve(inst, np.zeros(inst.n_dual))
        assert rel_err(z, z_dense) <= 1e-8
        # Children out of parent order take the sorted segment-sum path.
        inst = permute_within_stages(
            make_instance(rng, n_mixing=1, horizon=3, max_nodes=14), rng
        )
        order, _ = inst.child_groups[-1]
        assert not isinstance(order, slice)
        cache = factor_step(inst)
        y = rng.standard_normal(inst.n_dual)
        z, _ = dual_gradient(cache, inst, y)
        assert rel_err(z, dense_kkt_solve(inst, y)) <= 1e-8

    def test_net3_demo_matches_oracle(self, rng):
        bundle = build_demo("net3", 0)
        fc = bundle.forecaster(0)
        tree = attach_forecast(bundle.tree, fc.d_hat, fc.alpha_hat)
        inst = assemble_problem(bundle.model, tree, bundle.weights, bundle.x0, bundle.u_prev)
        assert inst.n_primal == 399
        cache = factor_step(inst)
        y = rng.standard_normal(inst.n_dual)
        z, _ = dual_gradient(cache, inst, y)
        assert rel_err(z, dense_kkt_solve(inst, y)) <= 1e-8

    def test_affinity(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        cache = factor_step(inst)
        y1 = rng.standard_normal(inst.n_dual)
        y2 = rng.standard_normal(inst.n_dual)
        za, _ = dual_gradient(cache, inst, y1)
        zb, _ = dual_gradient(cache, inst, y2)
        zm, _ = dual_gradient(cache, inst, 0.5 * y1 + 0.5 * y2)
        np.testing.assert_allclose(zm, 0.5 * za + 0.5 * zb, atol=1e-9 * (1 + np.abs(za).max()))

    def test_hard_constraints_hold_for_any_dual(self, rng):
        inst = make_instance(rng, n_mixing=2, horizon=3, max_nodes=12)
        cache = factor_step(inst)
        for scale in (0.0, 1.0, 1e3):
            y = scale * rng.standard_normal(inst.n_dual)
            z, _ = dual_gradient(cache, inst, y)
            assert np.isfinite(eval_f(inst, z))

    def test_value_is_attained_infimum(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=6)
        cache = factor_step(inst)
        y = rng.standard_normal(inst.n_dual)
        z, value = dual_gradient(cache, inst, y)
        direct = eval_f(inst, z) + float(y @ apply_H(inst, z))
        assert value == pytest.approx(direct, rel=1e-10)

    def test_directional_derivative_by_finite_differences(self, rng):
        # The smooth dual term phi(y) = f*(-H'y) has gradient -H x*(y).
        inst = make_instance(rng, horizon=2, max_nodes=6)
        cache = factor_step(inst)
        y = rng.standard_normal(inst.n_dual)
        delta = rng.standard_normal(inst.n_dual)
        h = 1e-5
        z, value = dual_gradient(cache, inst, y)
        _, v_plus = dual_gradient(cache, inst, y + h * delta)
        _, v_minus = dual_gradient(cache, inst, y - h * delta)
        # value(y) = -phi(y), so the centered difference of -value matches
        # <grad phi, delta> = -<H x*, delta>.
        fd = (v_plus - v_minus) / (2 * h)
        analytic = float(apply_H(inst, z) @ delta)
        assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-5)

    def test_mismatched_cache_rejected(self, rng):
        inst_a = make_instance(rng, horizon=2, max_nodes=6)
        inst_b = make_instance(rng, horizon=2, max_nodes=6)
        cache = factor_step(inst_a)
        with pytest.raises(ValueError, match="does not match"):
            dual_gradient(cache, inst_b, np.zeros(inst_b.n_dual))


class TestLipschitz:
    def one_node_instance(self, rng, wu):
        inst = make_instance(
            rng, n_tanks=1, n_inputs=1, n_demands=1, horizon=1, max_nodes=2, w_u_scale=1.0
        )
        inst.wu = np.array([[wu]])
        # Rebind cached weight-dependent fields consistently.
        inst.weights.w_u = wu
        return inst

    def test_one_node_closed_form(self, rng):
        # With one state, one input and image (x, x, u), the dual curvature
        # is h h'/(2 w) for h = (B, B, 1), so its largest eigenvalue is
        # (2 B^2 + 1) / (2 w).
        wu = 2.5
        inst = self.one_node_instance(rng, wu)
        cache = factor_step(inst)
        L = estimate_lipschitz(cache, inst, rel_tol=1e-9, safety=1.0)
        b = inst.model.B[0, 0]
        expected = (2.0 * b * b + 1.0) / (2.0 * wu)
        assert L == pytest.approx(expected, rel=1e-3)

    def test_doubling_weight_halves_curvature(self, rng):
        inst1 = self.one_node_instance(rng, 2.0)
        rng2 = np.random.default_rng(20240811)
        inst2 = self.one_node_instance(rng2, 4.0)
        l1 = estimate_lipschitz(factor_step(inst1), inst1, rel_tol=1e-9, safety=1.0)
        l2 = estimate_lipschitz(factor_step(inst2), inst2, rel_tol=1e-9, safety=1.0)
        assert l1 / l2 == pytest.approx(2.0, rel=1e-2)

    def test_invariant_under_node_permutation(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        inst2 = permute_within_stages(inst, rng)
        l1 = estimate_lipschitz(factor_step(inst), inst, rel_tol=1e-9, safety=1.0)
        l2 = estimate_lipschitz(factor_step(inst2), inst2, rel_tol=1e-9, safety=1.0)
        assert l1 == pytest.approx(l2, rel=1e-6)


class TestThetaRecursion:
    def test_first_values(self):
        seq = theta_sequence(3)
        assert seq[0] == pytest.approx(1.0)
        assert seq[1] == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)
        assert seq[2] == pytest.approx(0.455887, abs=1e-6)

    def test_beta_values(self):
        # beta_2 = theta_2 * (1/theta_1 - 1) with theta_2 = 0.4558867801...
        # evaluates to 0.2817535251...
        seq = theta_sequence(3)
        beta1 = seq[1] * (1.0 / seq[0] - 1.0)
        beta2 = seq[2] * (1.0 / seq[1] - 1.0)
        assert beta1 == pytest.approx(0.0, abs=1e-15)
        assert beta2 == pytest.approx(0.2817535251, abs=1e-9)

    def test_equality_identity_holds(self):
        seq = theta_sequence(10_001)
        resid = np.abs(1.0 - seq[1:] - seq[1:] ** 2 / seq[:-1] ** 2)
        assert float(resid.max()) <= 1e-14


class TestSolve:
    def test_inactive_constraints_converge_immediately(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=6)
        m = inst.model
        # Make the unconstrained economic optimum comfortably interior.
        cache = factor_step(inst)
        z, _ = dual_gradient(cache, inst, np.zeros(inst.n_dual))
        U, X = inst.split_primal(z)
        m.u_min[:] = U.min() - 1.0
        m.u_max[:] = U.max() + 1.0
        m.x_min[:] = X.min() - 1.0
        m.x_max[:] = X.max() + 1.0
        m.x_safe[:] = X.min() - 0.5
        res = solve(inst, SolverConfig(max_iter=200, tol=1e-8, gap_check_every=1), cache=cache)
        assert res.termination == "converged"
        assert res.iterations <= 50
        np.testing.assert_allclose(res.dual, 0.0, atol=1e-12)

    def test_single_threaded_determinism(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        res1 = solve(inst, SolverConfig(max_iter=300, tol=1e-6))
        res2 = solve(inst, SolverConfig(max_iter=300, tol=1e-6))
        assert res1.iterations == res2.iterations
        np.testing.assert_array_equal(res1.u0, res2.u0)
        np.testing.assert_array_equal(res1.dual, res2.dual)

    def test_widened_boxes_zero_weights_recover_economic_optimum(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=6)
        m = inst.model
        inst.weights.w_s = 0.0
        inst.weights.w_x = 0.0
        m.u_min[:] = -np.inf
        m.u_max[:] = np.inf
        m.x_min[:] = -np.inf
        m.x_max[:] = np.inf
        cache = factor_step(inst)
        z0, _ = dual_gradient(cache, inst, np.zeros(inst.n_dual))
        U0, _ = inst.split_primal(z0)
        sl = inst.stage_slices[0]
        expected_u0 = inst.prob[sl] @ U0[sl]
        res = solve(inst, SolverConfig(max_iter=100, tol=1e-9, gap_check_every=1), cache=cache)
        np.testing.assert_allclose(res.u0, expected_u0, atol=1e-9 * (1 + np.abs(expected_u0).max()))

    def test_iterations_skip_the_objective_value(self, rng, monkeypatch):
        inst = make_instance(rng, horizon=3, max_nodes=12)
        calls = []
        real = watermpc.solver.smooth_cost

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(watermpc.solver, "smooth_cost", counted)
        # No gap check inside the loop, so the only certificate is the
        # final one: its primal value plus its dual inner value.
        config = SolverConfig(max_iter=200, tol=1e-30, gap_check_every=201)
        res = solve(inst, config)
        assert res.termination == "max_iter"
        assert len(calls) == 2

    def test_max_iter_termination_reported(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        res = solve(inst, SolverConfig(max_iter=3, tol=1e-12))
        assert res.termination == "max_iter"
        assert res.iterations == 3

    def test_dual_objective_best_so_far_monotone(self, rng):
        from watermpc.problem import g_conjugate_value

        inst = make_instance(rng, horizon=2, max_nodes=8)
        cache = factor_step(inst)
        values = []

        def hook(nu, y, z, z_avg):
            if nu % 20 == 0:
                _, inner = dual_gradient(cache, inst, y)
                values.append(-inner + g_conjugate_value(inst, y))

        solve(inst, SolverConfig(max_iter=400, tol=1e-30), cache=cache, iterate_hook=hook)
        best = np.minimum.accumulate(values)
        assert all(b2 <= b1 + 1e-9 * (1 + abs(b1)) for b1, b2 in zip(best, best[1:]))
