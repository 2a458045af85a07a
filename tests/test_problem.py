"""Tests for the assembled instance, the f/g/H splitting and the prox maps."""

import numpy as np
import pytest

from watermpc.network import NetworkModel
from watermpc.problem import (
    CostWeights,
    ProblemInstance,
    apply_H,
    g_conjugate_value,
    g_value,
    prox_g_conjugate,
    restore_feasible_inputs,
    rollout_inputs,
    smooth_cost,
)
from watermpc.tree import ScenarioTree, attach_forecast

from conftest import make_instance, make_model, make_tree
from oracle import apply_H_adjoint, eval_f, primal_objective, prox_g


def chain_instance(rng, horizon=3, n_tanks=1, n_inputs=1, n_demands=1, **kw):
    return make_instance(
        rng,
        n_tanks=n_tanks,
        n_inputs=n_inputs,
        n_demands=n_demands,
        horizon=horizon,
        max_nodes=horizon + 1,
        **kw,
    )


class TestDimensions:
    def test_city_scale_variable_counts(self):
        # 13029 non-root nodes at 63 tanks and 114 inputs: a deep chain is
        # the cheapest valid tree with that node count.
        n_nonroot = 13029
        tree = ScenarioTree.single_branch(horizon=n_nonroot, n_demand=88, n_price=114)
        d_hat = np.zeros((n_nonroot, 88))
        a_hat = np.zeros((n_nonroot, 114))
        tree = attach_forecast(tree, d_hat, a_hat)
        model = NetworkModel(
            A=np.eye(63),
            B=np.zeros((63, 114)),
            Gd=np.zeros((63, 88)),
            E=np.zeros((0, 114)),
            Ed=np.zeros((0, 88)),
            x_min=np.zeros(63),
            x_max=np.full(63, 1e5),
            x_safe=np.full(63, 10.0),
            u_min=np.zeros(114),
            u_max=np.ones(114),
            alpha0=np.zeros(114),
            dt=3600.0,
        )
        model.B[:, :63] = np.eye(63) * 3600.0
        weights = CostWeights(w_alpha=1.0, w_u=1.0, w_s=1.0, w_x=1.0)
        inst = ProblemInstance(model, tree, weights, np.zeros(63), np.zeros(114))
        assert inst.n_primal == 2_306_133
        assert inst.dual_shape == (13_029, 240)

    def test_small_dimension_formulas(self, rng):
        inst = chain_instance(rng, horizon=1)
        assert inst.n_primal == 2
        assert inst.dual_shape == (1, 3)

    def test_binary_tree_dimensions(self):
        stage = np.array([0, 1, 1, 2, 2, 2, 2])
        anc = np.array([-1, 0, 0, 1, 1, 2, 2])
        prob = np.array([1.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25])
        tree = ScenarioTree(2, 1, 3, stage, anc, prob, eps=np.zeros((7, 4)))
        tree = attach_forecast(tree, np.ones((2, 1)), np.ones((2, 3)))
        rng = np.random.default_rng(0)
        model = make_model(rng, n_tanks=2, n_inputs=3, n_demands=1)
        weights = CostWeights(w_alpha=1.0, w_u=1.0, w_s=1.0, w_x=1.0)
        inst = ProblemInstance(model, tree, weights, np.ones(2), np.zeros(3))
        assert inst.n_primal == 6 * 5 == 30

    def test_unattached_tree_rejected(self, rng):
        model = make_model(rng, 1, 1, 1)
        tree = ScenarioTree.single_branch(horizon=1, n_demand=1, n_price=1)
        with pytest.raises(ValueError, match="attached"):
            ProblemInstance(
                model, tree, CostWeights(1.0, 1.0, 1.0, 1.0), np.ones(1), np.zeros(1)
            )

    def test_indefinite_wu_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            CostWeights(w_alpha=1.0, w_u=np.array([[1.0, 2.0], [2.0, 1.0]]), w_s=1.0, w_x=1.0)


class TestEvalF:
    def test_constant_input_has_zero_increment_cost(self, rng):
        inst = chain_instance(rng, horizon=3)
        U = np.tile(inst.q, (inst.n_nonroot, 1))
        z = inst.join_primal(U, rollout_inputs(inst, U))
        expected = float(inst.prob @ ((inst.econ * U).sum(axis=1)))
        assert eval_f(inst, z) == pytest.approx(expected, rel=1e-12)

    def test_perturbed_dynamics_infeasible(self, rng):
        inst = chain_instance(rng, horizon=2)
        U = np.tile(inst.q, (inst.n_nonroot, 1))
        X = rollout_inputs(inst, U)
        X[1] += 1.0
        assert eval_f(inst, inst.join_primal(U, X)) == np.inf

    def test_matches_term_accumulation_oracle(self, rng):
        inst = make_instance(rng, n_tanks=2, n_inputs=3, n_demands=2, horizon=2, max_nodes=7)
        U = 0.2 * rng.random((inst.n_nonroot, 3))
        z = inst.join_primal(U, rollout_inputs(inst, U))
        total = 0.0
        for r in range(inst.n_nonroot):
            u_prev = inst.q if inst.anc_row[r] < 0 else U[inst.anc_row[r]]
            du = U[r] - u_prev
            term = inst.weights.w_alpha * float(
                (inst.model.alpha0 + inst.price[r]) @ U[r]
            )
            term += float(du @ inst.wu @ du)
            total += inst.prob[r] * term
        assert eval_f(inst, z) == pytest.approx(total, rel=1e-12)

    def test_convex_along_feasible_segments(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        for _ in range(5):
            Ua = rng.random((inst.n_nonroot, inst.model.n_inputs))
            Ub = rng.random((inst.n_nonroot, inst.model.n_inputs))
            za = inst.join_primal(Ua, rollout_inputs(inst, Ua))
            zb = inst.join_primal(Ub, rollout_inputs(inst, Ub))
            mid = 0.5 * (za + zb)
            assert eval_f(inst, mid) <= 0.5 * eval_f(inst, za) + 0.5 * eval_f(inst, zb) + 1e-9


class TestOperatorH:
    def test_duplication(self, rng):
        inst = chain_instance(rng, horizon=1, n_tanks=2)
        z = inst.join_primal(np.array([[5.0]]), np.array([[1.0, 2.0]]))
        y = apply_H(inst, z)
        Y1, Y2, Y3 = inst.dual_blocks(y)
        np.testing.assert_array_equal(Y1, [[1.0, 2.0]])
        np.testing.assert_array_equal(Y2, [[1.0, 2.0]])
        np.testing.assert_array_equal(Y3, [[5.0]])

    def test_adjoint_values(self, rng):
        inst = chain_instance(rng, horizon=1, n_tanks=2)
        y = np.hstack([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([[7.0]])])
        z = apply_H_adjoint(inst, y)
        U, X = inst.split_primal(z)
        np.testing.assert_array_equal(X, [[1.0, 1.0]])
        np.testing.assert_array_equal(U, [[7.0]])

    def test_inner_product_identity(self, rng):
        inst = make_instance(rng, horizon=3, max_nodes=12)
        for _ in range(10):
            z = rng.standard_normal(inst.n_primal)
            y = rng.standard_normal(inst.dual_shape)
            lhs = float(np.vdot(apply_H(inst, z), y))
            rhs = float(z @ apply_H_adjoint(inst, y))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestProxG:
    def test_identity_inside_sets(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=6)
        m = inst.model
        X_mid = np.tile(0.5 * (m.x_min + m.x_max) + m.x_safe, (inst.n_nonroot, 1))
        X_mid = np.minimum(X_mid, m.x_max - 0.1)
        U_mid = np.tile(0.5 * (m.u_min + m.u_max), (inst.n_nonroot, 1))
        v = np.hstack([X_mid, X_mid, U_mid])
        np.testing.assert_allclose(prox_g(inst, v, 1.0), v, atol=1e-14)

    def test_scalar_distance_prox_example(self, rng):
        # C = [0, 1], weight 1, gamma 1, v = 3: distance 2 > 1, so the point
        # moves one unit toward its projection: 3 + (1 - 3)/2 = 2.
        inst = chain_instance(rng, horizon=1)
        m = inst.model
        m.x_min[:] = 0.0
        m.x_max[:] = 1.0
        m.x_safe[:] = -100.0
        inst.weights.w_x = 1.0
        v = np.hstack([np.array([[3.0]]), np.array([[0.0]]), np.array([[0.0]])])
        out = prox_g(inst, v, 1.0)
        O1, _, _ = inst.dual_blocks(out)
        assert O1[0, 0] == pytest.approx(2.0)

    def test_matches_1d_grid_minimization(self, rng):
        # prox_{gamma * W * dist(.|C)}(v) minimizes W*dist(x|C) + (x-v)^2/(2 gamma).
        inst = chain_instance(rng, horizon=1)
        m = inst.model
        m.x_min[:] = 0.0
        m.x_max[:] = 1.0
        m.x_safe[:] = -100.0
        inst.weights.w_x = 0.7
        gamma = 1.3
        for v_val in (-2.0, 0.4, 1.5, 3.0):
            v = np.hstack([np.array([[v_val]]), np.zeros((1, 1)), np.zeros((1, 1))])
            O1, _, _ = inst.dual_blocks(prox_g(inst, v, gamma))
            grid = np.linspace(v_val - 5, v_val + 5, 200001)
            dist = np.abs(grid - np.clip(grid, 0.0, 1.0))
            objective = inst.weights.w_x * dist + (grid - v_val) ** 2 / (2 * gamma)
            best = grid[np.argmin(objective)]
            assert O1[0, 0] == pytest.approx(best, abs=1e-4)

    def test_input_slot_is_projection(self, rng):
        inst = chain_instance(rng, horizon=1)
        inst.model.u_max[:] = 0.1
        v = np.hstack([np.zeros((1, 1)), np.zeros((1, 1)), np.array([[0.5]])])
        _, _, O3 = inst.dual_blocks(prox_g(inst, v, 1.0))
        assert O3[0, 0] == pytest.approx(0.1)

    def test_firmly_nonexpansive(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        for gamma in (0.1, 1.0, 10.0):
            for _ in range(5):
                v = 50 * rng.standard_normal(inst.dual_shape)
                w = 50 * rng.standard_normal(inst.dual_shape)
                pv, pw = prox_g(inst, v, gamma), prox_g(inst, w, gamma)
                assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-12

    def test_node_separability_under_permutation(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        v = rng.standard_normal(inst.dual_shape)
        out = prox_g(inst, v, 0.7)
        width = 2 * inst.model.n_tanks + inst.model.n_inputs
        perm = rng.permutation(inst.n_nonroot)
        v_perm = v.reshape(-1, width)[perm]
        out_perm = prox_g(inst, v_perm, 0.7)
        np.testing.assert_array_equal(
            out_perm.reshape(-1, width), out.reshape(-1, width)[perm]
        )

    def test_rejects_nonpositive_gamma(self, rng):
        inst = chain_instance(rng, horizon=2)
        for gamma in (0.0, np.array([1.0, 0.0]), np.ones(3)):
            with pytest.raises(ValueError, match="gamma"):
                prox_g(inst, np.zeros(inst.dual_shape), gamma)


class TestMoreau:
    def test_interval_example(self, rng):
        # g = indicator of [0, 1] on the input slot: prox_g(2) = 1 and the
        # conjugate prox at 2 is 2 - 1 = 1.
        inst = chain_instance(rng, horizon=1)
        m = inst.model
        m.u_min[:] = 0.0
        m.u_max[:] = 1.0
        w = np.hstack([np.zeros((1, 1)), np.zeros((1, 1)), np.array([[2.0]])])
        out = prox_g_conjugate(inst, w, np.ones(inst.n_nonroot))
        _, _, O3 = inst.dual_blocks(out)
        assert O3[0, 0] == pytest.approx(1.0)

    def test_zero_fixed_point(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=6)
        m = inst.model
        # Put zero inside every set so the conjugate prox fixes the origin.
        m.u_min[:] = -1.0
        m.x_min[:] = -1.0
        m.x_safe[:] = -1.0
        w = np.zeros(inst.dual_shape)
        np.testing.assert_allclose(
            prox_g_conjugate(inst, w, np.ones(inst.n_nonroot)), 0.0, atol=1e-14
        )

    def test_identity_residual(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        for gamma in (0.1, 1.0, 10.0):
            for _ in range(20):
                v = 30 * rng.standard_normal(inst.dual_shape)
                lhs = prox_g(inst, v, gamma) + gamma * prox_g_conjugate(
                    inst, v / gamma, np.full(inst.n_nonroot, 1.0 / gamma)
                )
                scale = 1.0 + float(np.max(np.abs(v)))
                assert float(np.max(np.abs(lhs - v))) <= 1e-12 * scale

    def test_per_node_step_acts_row_by_row(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        steps = 10.0 ** rng.uniform(-2, 2, inst.n_nonroot)
        w = 30 * rng.standard_normal(inst.dual_shape)
        rows = prox_g_conjugate(inst, w, steps).reshape(inst.n_nonroot, -1)
        for i, step in enumerate(steps):
            np.testing.assert_allclose(
                rows[i],
                prox_g_conjugate(inst, w, np.full(inst.n_nonroot, step))
                .reshape(inst.n_nonroot, -1)[i],
                rtol=1e-14, atol=1e-12,
            )

    def test_scalar_step_rejected(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=6)
        with pytest.raises(ValueError, match="gamma must have shape"):
            prox_g_conjugate(inst, np.zeros(inst.dual_shape), 1.0)


class TestPrimalObjective:
    def test_zero_penalty_equals_smooth_cost(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=6)
        m = inst.model
        U = np.tile(0.5 * (m.u_min + m.u_max), (inst.n_nonroot, 1))
        X = rollout_inputs(inst, U)
        # Widen the state sets so no penalty is active.
        m.x_min[:] = X.min() - 1.0
        m.x_max[:] = X.max() + 1.0
        m.x_safe[:] = X.min() - 0.5
        z = inst.join_primal(U, X)
        assert primal_objective(inst, z) == pytest.approx(eval_f(inst, z), rel=1e-12)

    def test_safety_shortfall_costs_its_weight(self, rng):
        inst = chain_instance(rng, horizon=1)
        m = inst.model
        inst.weights.w_s = 1e5
        U = np.array([[m.u_max[0] * 0.5]])
        X = rollout_inputs(inst, U)
        m.x_min[:] = X.min() - 10.0
        m.x_max[:] = X.max() + 10.0
        m.x_safe[:] = X[0, 0] + 1.0  # exactly 1.0 below the safety level
        z = inst.join_primal(U, X)
        assert primal_objective(inst, z) == pytest.approx(
            eval_f(inst, z) + 1e5 * 1.0, rel=1e-12
        )

    def test_matches_term_oracle(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=7)
        m = inst.model
        U = np.tile(0.5 * (m.u_min + m.u_max), (inst.n_nonroot, 1))
        X = rollout_inputs(inst, U)
        z = inst.join_primal(U, X)
        expected = eval_f(inst, z)
        for r in range(inst.n_nonroot):
            below = np.maximum(m.x_min - X[r], 0.0)
            above = np.maximum(X[r] - m.x_max, 0.0)
            expected += inst.weights.w_x * np.sqrt((below**2 + above**2).sum())
            short = np.maximum(m.x_safe - X[r], 0.0)
            expected += inst.weights.w_s * np.linalg.norm(short)
        assert primal_objective(inst, z) == pytest.approx(expected, rel=1e-12)

    def test_box_violation_gives_infinity(self, rng):
        inst = chain_instance(rng, horizon=1)
        U = np.array([[inst.model.u_max[0] + 0.01]])
        z = inst.join_primal(U, rollout_inputs(inst, U))
        assert primal_objective(inst, z) == np.inf


def test_g_conjugate_on_simple_point(rng):
    inst = chain_instance(rng, horizon=1, n_tanks=1)
    m = inst.model
    m.x_min[:] = -1.0
    m.x_max[:] = 2.0
    m.x_safe[:] = 0.5
    inst.weights.w_x = 3.0
    inst.weights.w_s = 2.0
    m.u_min[:] = 0.0
    m.u_max[:] = 1.0
    y = np.hstack([np.array([[2.0]]), np.array([[-1.0]]), np.array([[-4.0]])])
    # support terms: max(-1*2, 2*2) + 0.5*(-1) + max(0, -4) = 4 - 0.5 + 0
    assert g_conjugate_value(inst, y) == pytest.approx(3.5)
    # out of domain: |y1| > w_x
    y_bad = np.hstack([np.array([[3.5]]), np.array([[0.0]]), np.array([[0.0]])])
    assert g_conjugate_value(inst, y_bad) == np.inf


def test_g_value_matches_prox_penalties(rng):
    inst = make_instance(rng, horizon=2, max_nodes=6)
    m = inst.model
    U = np.tile(m.u_max, (inst.n_nonroot, 1))
    X = rollout_inputs(inst, U)
    hz = apply_H(inst, inst.join_primal(U, X))
    val = g_value(inst, hz)
    assert np.isfinite(val) and val >= 0.0


def test_restore_finishes_a_row_left_on_a_clipped_corner(rng):
    # Restoring every row, then putting row r back to its raw value and
    # restoring again, once left row r box-feasible but off the coupling
    # set: its box point sat on a clipped corner for a step while the
    # other rows had long converged, and the loop stopped.
    inst = make_instance(rng, n_mixing=1, horizon=2, max_nodes=8)
    m = inst.model
    U, _ = inst.split_primal(rng.standard_normal(inst.n_primal) * 5.0)
    e_pinv = np.linalg.pinv(m.E)
    restored = restore_feasible_inputs(inst, U, e_pinv)
    for r in range(inst.n_nonroot):
        start = restored.copy()
        start[r] = U[r]
        out = restore_feasible_inputs(inst, start, e_pinv)
        assert np.all(out >= m.u_min) and np.all(out <= m.u_max)
        resid = out @ m.E.T + inst.demand @ m.Ed.T
        assert float(np.max(np.abs(resid))) <= 1e-10 * (1.0 + float(np.max(np.abs(start))))
