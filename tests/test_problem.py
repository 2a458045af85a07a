"""Tests for the assembled instance, the f/g/H splitting and the prox maps."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

import watermpc.solver
from watermpc.demo import build_demo
from watermpc.network import NetworkModel
from watermpc.problem import (
    CostWeights,
    ProblemInstance,
    _ball_projection,
    _in_box_pricer,
    apply_H,
    g_conjugate_value,
    g_value,
    prox_g_conjugate,
    prox_into,
    restore_feasible_inputs,
    rollout_inputs,
    scaled_bounds,
    smooth_cost,
)
from watermpc.tree import ScenarioTree, attach_forecast

from conftest import make_instance, make_model, make_tree
from oracle import (apply_H_adjoint, conjugate_reference, dykstra_restore, eval_f,
                    primal_objective, prox_g)


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
        demand, price = attach_forecast(tree, d_hat, a_hat)
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
        inst = ProblemInstance(model, tree, weights, np.zeros(63), np.zeros(114), demand, price)
        assert inst.n_primal == 2_306_133
        assert inst.dual_shape == (13_029, 240)

    def test_small_dimension_formulas(self, rng):
        inst = chain_instance(rng, horizon=1)
        assert inst.n_primal == 2
        assert inst.dual_shape == (1, 3)

    def test_binary_tree_dimensions(self):
        counts = np.array([1, 2, 4])
        anc = np.array([-1, 0, 0, 1, 1, 2, 2])
        prob = np.array([1.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25])
        tree = ScenarioTree(2, 1, 3, counts, anc, prob, eps=np.zeros((7, 4)))
        demand, price = attach_forecast(tree, np.ones((2, 1)), np.ones((2, 3)))
        rng = np.random.default_rng(0)
        model = make_model(rng, n_tanks=2, n_inputs=3, n_demands=1)
        weights = CostWeights(w_alpha=1.0, w_u=1.0, w_s=1.0, w_x=1.0)
        inst = ProblemInstance(model, tree, weights, np.ones(2), np.zeros(3), demand, price)
        assert inst.n_primal == 6 * 5 == 30

    def test_instances_of_one_tree_share_its_read_only_rows(self, rng):
        inst = make_instance(rng, horizon=3, max_nodes=10)
        other = dataclasses.replace(inst, p=2.0 * inst.p)
        for name in ("prob", "anc_row", "stage_slices"):
            assert getattr(other, name) is getattr(inst, name), name
        for a in (inst.prob, inst.anc_row):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        np.testing.assert_array_equal(inst.prob, inst.tree.prob[1:])
        np.testing.assert_array_equal(inst.anc_row, inst.tree.anc[1:] - 1)
        assert sum(sl.stop - sl.start for sl in inst.stage_slices) == inst.n_nonroot

    def test_unattached_tree_rejected(self, rng):
        # The tree is a template; an instance needs the node values too.
        model = make_model(rng, 1, 1, 1)
        tree = ScenarioTree.single_branch(horizon=1, n_demand=1, n_price=1)
        with pytest.raises(TypeError, match="'demand' and 'price'"):
            ProblemInstance(
                model, tree, CostWeights(1.0, 1.0, 1.0, 1.0), np.ones(1), np.zeros(1)
            )

    def test_indefinite_wu_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            CostWeights(w_alpha=1.0, w_u=np.array([[1.0, 2.0], [2.0, 1.0]]), w_s=1.0, w_x=1.0)

    @pytest.mark.parametrize("w_u, message", [
        (np.ones((2, 3)), "w_u must be a square matrix"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "w_u must be symmetric"),
    ])
    def test_malformed_wu_rejected(self, w_u, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CostWeights(w_alpha=1.0, w_u=w_u, w_s=1.0, w_x=1.0)

    @pytest.mark.parametrize("name, value, message", [
        ("w_alpha", np.nan, "w_alpha must be positive and finite"),
        ("w_alpha", np.inf, "w_alpha must be positive and finite"),
        ("w_u", np.nan, "w_u must be positive and finite"),
        ("w_u", np.array([[1.0, 0.0], [0.0, np.inf]]), "w_u must be finite"),
        ("w_s", np.inf, "w_s must be nonnegative and finite"),
        ("w_x", np.nan, "w_x must be nonnegative and finite"),
        ("w_alpha", True, "w_alpha must be positive and finite, got True"),
        ("w_s", False, "w_s must be nonnegative and finite, got False"),
        ("w_alpha", "1", "w_alpha must be positive and finite, got '1'"),
        pytest.param("w_u", 10**400, "w_u must be positive and finite, got 1000",
                     id="w_u-int-beyond-float"),
    ])
    def test_non_finite_weight_rejected_by_name(self, name, value, message):
        weights = {"w_alpha": 1.0, "w_u": 1.0, "w_s": 1.0, "w_x": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{message}"):
            CostWeights(**weights)


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

    def test_prox_into_is_the_clip_form_bit_for_bit(self, rng):
        # Infinite bounds: the safety slot's upper end, and inputs open below,
        # above or both; a NaN entry goes through the same way, quietly.
        inst = make_instance(rng, n_tanks=2, n_inputs=4, horizon=3, max_nodes=12)
        m = inst.model
        m.u_min[:] = [-np.inf, 0.0, -np.inf, 0.0]
        m.u_max[:] = [1.0, np.inf, np.inf, 1.5]
        nt = m.n_tanks
        bounds = scaled_bounds(inst, 10.0 ** rng.uniform(-3, 3, inst.n_nonroot))
        w = 40.0 * rng.standard_normal(inst.dual_shape)
        w[1, 0] = w[2, 2 * nt + 1] = np.nan

        def clip_form(w):
            out = np.empty_like(w)
            np.subtract(w, w.clip(*bounds, out=out), out=out)
            _ball_projection(out[:, :nt], inst.weights.w_x)
            _ball_projection(out[:, nt:2 * nt], inst.weights.w_s)
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = prox_into(inst, w, bounds, np.empty(inst.dual_shape))
        expected = clip_form(w)
        assert got.tobytes() == expected.tobytes()
        assert np.isnan(got[1, :nt]).all() and np.isnan(got[2, 2 * nt + 1])
        assert np.isfinite(np.delete(got, [1, 2], axis=0)).all()


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

    @pytest.mark.parametrize("n_mixing", [0, 1])
    def test_in_box_price_matches_the_public_pair(self, rng, n_mixing):
        # Inputs anywhere in the box, and states pushed across both the
        # state bounds and the safety level, so every penalty is active.
        inst = make_instance(rng, n_mixing=n_mixing, horizon=3, max_nodes=15)
        m = inst.model
        price = _in_box_pricer(inst)
        for _ in range(3):
            U = m.u_min + rng.random((inst.n_nonroot, m.n_inputs)) * (m.u_max - m.u_min)
            X = rollout_inputs(inst, U) + 20.0 * rng.standard_normal((inst.n_nonroot, m.n_tanks))
            expected = smooth_cost(inst, U) + g_value(inst, np.hstack([X, X, U]))
            assert g_value(inst, np.hstack([X, X, U])) > 0.0
            assert price(U, X) == pytest.approx(expected, rel=1e-13)


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
    # out of domain: |y1| > w_x, |y2| > w_s, y2 > 0
    for y1, y2 in ((3.5, 0.0), (0.0, -2.5), (0.0, 0.1)):
        y_bad = np.array([[y1, y2, 0.0]])
        assert g_conjugate_value(inst, y_bad) == np.inf


def _unbounded_instance(rng):
    """An instance whose boxes are open on some sides: x_min[0] and u_min[0]
    are -inf, x_max[1] and u_max[1] are inf, and input 2 is unbounded."""
    inst = make_instance(rng, horizon=2, max_nodes=6)  # 3 tanks, 4 inputs
    m = inst.model
    bounds = {name: getattr(m, name).copy() for name in ("x_min", "x_max", "u_min", "u_max")}
    bounds["x_min"][0] = bounds["u_min"][[0, 2]] = -np.inf
    bounds["x_max"][1] = bounds["u_max"][[1, 2]] = np.inf
    return ProblemInstance(dataclasses.replace(m, **bounds), inst.tree, **_parts(inst))


def _dual_on_the_finite_sides(rng, inst):
    """Dual rows inside the domain of g* that give no side with an infinite
    bound any weight: y1 and y3 are 0 or point at a finite bound there."""
    n, nt = inst.n_nonroot, inst.model.n_tanks
    y1 = rng.standard_normal((n, nt))
    y1 *= 0.5 * inst.weights.w_x / np.linalg.norm(y1, axis=1, keepdims=True)
    y2 = -np.abs(rng.standard_normal((n, nt)))
    y2 *= 0.5 * inst.weights.w_s / np.linalg.norm(y2, axis=1, keepdims=True)
    y3 = rng.standard_normal((n, inst.model.n_inputs))
    y1[:, 0], y1[:, 1] = np.abs(y1[:, 0]), -np.abs(y1[:, 1])
    y3[:, 0], y3[:, 1], y3[:, 2] = np.abs(y3[:, 0]), -np.abs(y3[:, 1]), 0.0
    return np.hstack([y1, y2, y3])


def test_g_conjugate_is_finite_where_no_weight_meets_an_infinite_bound(rng):
    # inf * 0 counts as 0, with no warning.
    inst = _unbounded_instance(rng)
    y = _dual_on_the_finite_sides(rng, inst)
    value = g_conjugate_value(inst, y)
    assert np.isfinite(value)
    assert value == pytest.approx(conjugate_reference(inst, y), rel=1e-12)


@pytest.mark.parametrize("col, sign",
                         [(0, -1.0), (1, 1.0), (6, -1.0), (7, 1.0), (8, 1.0), (8, -1.0)],
                         ids=["y1-x_min", "y1-x_max", "y3-u_min", "y3-u_max", "y3-free-up",
                              "y3-free-down"])
def test_g_conjugate_is_inf_along_an_infinite_bound(rng, col, sign):
    # Columns 0 and 1 of y1 and 0-2 of y3 (columns 6-8) meet the open sides.
    inst = _unbounded_instance(rng)
    y = _dual_on_the_finite_sides(rng, inst)
    y[-1, col] = 0.1 * sign
    assert g_conjugate_value(inst, y) == np.inf == conjugate_reference(inst, y)


@pytest.mark.parametrize("kind, iters", [("tank1", 50), ("net3", 100), ("net10", 50)])
def test_g_conjugate_matches_the_entrywise_formula_on_a_solved_dual(kind, iters):
    bundle = build_demo(kind, 0, h_sim=1)
    fc = bundle.forecaster(0)
    demand, price = attach_forecast(bundle.tree, fc.d_hat, fc.alpha_hat)
    inst = ProblemInstance(bundle.model, bundle.tree, bundle.weights, bundle.x0,
                           bundle.u_prev, demand, price)
    res = watermpc.solver.solve(inst, dataclasses.replace(bundle.solver, max_iter=iters))
    value = g_conjugate_value(inst, res.dual)
    assert np.isfinite(value)
    assert value == pytest.approx(conjugate_reference(inst, res.dual), rel=1e-12)


def test_g_value_matches_prox_penalties(rng):
    inst = make_instance(rng, horizon=2, max_nodes=6)
    m = inst.model
    U = np.tile(m.u_max, (inst.n_nonroot, 1))
    X = rollout_inputs(inst, U)
    hz = apply_H(inst, inst.join_primal(U, X))
    val = g_value(inst, hz)
    assert np.isfinite(val) and val >= 0.0


def _parts(inst):
    """The constructor arguments of an instance after its model and tree."""
    return {"weights": inst.weights, "p": inst.p, "q": inst.q,
            "demand": inst.demand, "price": inst.price}


@pytest.mark.parametrize("name", ["p", "q", "demand", "price"])
def test_non_finite_state_is_named(rng, name):
    inst = make_instance(rng, horizon=2, max_nodes=5)
    parts = _parts(inst)
    parts[name] = parts[name].copy()
    parts[name].flat[-1] = np.nan
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        ProblemInstance(inst.model, inst.tree, **parts)


@pytest.mark.parametrize("name, value, message", [
    pytest.param("tree", ScenarioTree.single_branch(2, 3, 4),
                 "tree values sized (3, 4) do not match network (2 demands, 4 inputs)",
                 id="tree-width"),
    pytest.param("p", np.zeros(4), "state p must have shape (3,)", id="p-shape"),
    pytest.param("q", np.zeros(3), "previous input q must have shape (4,)", id="q-shape"),
    pytest.param("demand", np.zeros((4, 3)), "demand must have shape (4, 2)",
                 id="demand-shape"),
    pytest.param("price", np.zeros((5, 4)), "price must have shape (4, 4)", id="price-shape"),
])
def test_mismatched_part_is_named(rng, name, value, message):
    inst = make_instance(rng, horizon=2, max_nodes=5)  # 3 tanks, 4 inputs, 2 demands, 4 nodes
    parts = {"tree": inst.tree, **_parts(inst), name: value}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ProblemInstance(inst.model, **parts)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda inst: inst.split_primal(np.zeros(5)),
                 "primal vector must have shape (28,), got (5,)", id="split_primal"),
    pytest.param(lambda inst: inst.dual_blocks(np.zeros((4, 9))),
                 "dual rows must have shape (4, 10), got (4, 9)", id="dual_blocks"),
    pytest.param(lambda inst: rollout_inputs(inst, np.zeros((4, 3))),
                 "inputs must have shape (4, 4)", id="rollout_inputs"),
])
def test_misshapen_rows_rejected(rng, call, message):
    inst = make_instance(rng, horizon=2, max_nodes=5)  # 3 tanks, 4 inputs, 4 nodes
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(inst)


def test_coupling_without_a_solution_in_the_box_is_rejected(rng):
    inst = make_instance(rng, n_inputs=4, n_mixing=2, horizon=2, max_nodes=5)
    m = inst.model
    # Row 1 holds inputs 1 and 3; pinning both to 0 leaves only c = 0.
    u_max = m.u_max.copy()
    u_max[[1, 3]] = 0.0
    model = dataclasses.replace(m, u_max=u_max)
    with pytest.raises(ValueError, match="infeasible at tree node 1: no solution inside"):
        ProblemInstance(model, inst.tree, **_parts(inst))


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


def _capped_cases():
    """Instances and inputs on which a Dykstra loop capped at 500 steps
    stopped off the coupling set, by up to 2.8e-2 with one mixing row and
    6.8e-2 with two."""
    for n_mixing, seeds in ((1, (19, 26, 38)), (2, (0, 4, 12, 29))):
        for seed in seeds:
            inst = make_instance(np.random.default_rng(seed), n_inputs=5,
                                 n_mixing=n_mixing, horizon=2, max_nodes=8)
            draws = np.random.default_rng(seed)
            for _ in range(3):
                yield inst, 3.0 * draws.standard_normal((inst.n_nonroot, 5))


def _infinite_bound_cases():
    """Two mixing rows whose inputs have an infinite lower bound, an
    infinite upper bound, both, or neither."""
    rng = np.random.default_rng(7)
    inst = make_instance(rng, n_inputs=8, n_mixing=2, horizon=2, max_nodes=8)
    m = inst.model
    u_min, u_max = m.u_min.copy(), m.u_max.copy()
    u_min[[0, 3, 4]] = -np.inf  # row 0 holds inputs 0, 2, 4, 6; row 1 the odd ones
    u_max[[1, 4, 5]] = np.inf
    model = dataclasses.replace(m, u_min=u_min, u_max=u_max)
    inst = ProblemInstance(model, inst.tree, **_parts(inst))
    for scale in (0.5, 3.0, 30.0):
        yield inst, scale * rng.standard_normal((inst.n_nonroot, 8))


def _certificate_cases():
    """The inputs the certificate restores in short cold solves of the
    net3 (seed 0) and net10 (seed 3) demos."""
    for kind, seed, iters in (("net3", 0, 100), ("net10", 3, 50)):
        bundle = build_demo(kind, seed, h_sim=1)
        fc = bundle.forecaster(0)
        demand, price = attach_forecast(bundle.tree, fc.d_hat, fc.alpha_hat)
        inst = ProblemInstance(bundle.model, bundle.tree, bundle.weights, bundle.x0,
                               bundle.u_prev, demand, price)
        seen = []

        def recorded(instance, U, *args):
            seen.extend(np.array(U, ndmin=3))  # each candidate of a stack, in order
            return restore_feasible_inputs(instance, U, *args)

        config = dataclasses.replace(bundle.solver, max_iter=iters, tol=1e-30)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(watermpc.solver, "restore_feasible_inputs", recorded)
            watermpc.solver.solve(inst, config)
        assert len(seen) == 2 * iters // watermpc.solver.GAP_CHECK_EVERY
        for U in seen:
            yield inst, U


@pytest.mark.parametrize("cases", [_capped_cases, _infinite_bound_cases, _certificate_cases])
def test_restore_agrees_with_dykstra(cases):
    for inst, U in cases():
        m = inst.model
        out = restore_feasible_inputs(inst, U)
        np.testing.assert_allclose(out, dykstra_restore(inst, U), rtol=0, atol=1e-9)
        assert np.all(out >= m.u_min) and np.all(out <= m.u_max)
        scale = 1.0 + float(np.max(np.abs(U)))
        resid = out @ m.E.T + inst.demand @ m.Ed.T
        assert float(np.max(np.abs(resid))) <= 1e-12 * scale
        # It moves its own output by rounding only.
        np.testing.assert_allclose(restore_feasible_inputs(inst, out), out, rtol=0,
                                   atol=1e-12 * (1.0 + float(np.max(np.abs(out)))))


@pytest.mark.parametrize("cases", [_infinite_bound_cases, _certificate_cases])
def test_a_stack_restores_and_rolls_out_as_its_candidates_do(cases):
    stacks = {}
    for inst, U in cases():
        stacks.setdefault(id(inst), (inst, []))[1].append(U)
    for inst, Us in stacks.values():
        U_f = restore_feasible_inputs(inst, np.stack(Us))
        X_f = rollout_inputs(inst, U_f)
        assert U_f.shape == (len(Us), inst.n_nonroot, inst.model.n_inputs)
        assert X_f.shape == (len(Us), inst.n_nonroot, inst.model.n_tanks)
        for U, U_s, X_s in zip(Us, U_f, X_f):
            alone = restore_feasible_inputs(inst, U)
            np.testing.assert_array_equal(U_s, alone)
            np.testing.assert_array_equal(X_s, rollout_inputs(inst, alone))
