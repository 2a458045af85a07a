"""Tests for the factor step, dual gradient and the accelerated solver."""

import dataclasses
import pickle

import numpy as np
import pytest
import scipy.sparse.linalg

import watermpc.solver
from watermpc.demo import build_demo
from watermpc.network import ControlledFlow, NetworkModel, NetworkTopology, Tank, build_lti
from watermpc.problem import (
    CostWeights,
    ProblemInstance,
    apply_H,
    g_conjugate_value,
    g_value,
    restore_feasible_inputs,
    rollout_inputs,
    smooth_cost,
)
from watermpc.solver import (
    GAP_CHECK_EVERY,
    SolverConfig,
    SolverResult,
    _Sweep,
    _next_theta,
    _null_space,
    _offsets,
    dual_gradient,
    estimate_lipschitz,
    factor_step,
    solve,
)
from watermpc.tree import ScenarioTree, attach_forecast

from conftest import make_instance, make_model
from oracle import dense_kkt_solve, eval_f, sweep_reference


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))


def shuffle_children(inst, rng):
    """The same problem on a tree whose children are shuffled under every
    node, no two or more left in place, and renumbered breadth-first, so
    each stage still follows its parents' order."""
    tree = inst.tree
    kids = [[] for _ in range(tree.n_nodes)]
    for i in range(1, tree.n_nodes):
        kids[tree.anc[i]].append(i)
    perm = [0]  # perm[new] = old; the loop visits the nodes it appends
    for old in perm:
        order = rng.permutation(len(kids[old]))
        if np.all(np.diff(order) > 0):
            order = order[::-1]
        perm.extend(kids[old][i] for i in order)
    perm = np.array(perm)
    assert np.any(perm != np.arange(tree.n_nodes)), "no node has two children"
    inv = np.empty_like(perm)
    inv[perm] = np.arange(tree.n_nodes)
    shuffled = ScenarioTree(
        horizon=tree.horizon,
        n_demand=tree.n_demand,
        n_price=tree.n_price,
        nodes_per_stage=tree.nodes_per_stage,
        anc=np.r_[-1, inv[tree.anc[perm[1:]]]],
        prob=tree.prob[perm],
        eps=tree.eps[perm],
    )
    rows = perm[1:] - 1
    return ProblemInstance(inst.model, shuffled, inst.weights, inst.p, inst.q,
                           inst.demand[rows], inst.price[rows])


def demo_instance(kind, step=0, seed=0):
    """A step of a demo with the demo's solver config."""
    bundle = build_demo(kind, seed, h_sim=step + 1)
    fc = bundle.forecaster(step)
    demand, price = attach_forecast(bundle.tree, fc.d_hat, fc.alpha_hat)
    inst = ProblemInstance(bundle.model, bundle.tree, bundle.weights, bundle.x0, bundle.u_prev,
                           demand, price)
    return inst, bundle.solver


def recomputed_gap(inst, res):
    """Duality gap and primal value of a result from public functions: its
    primal restored, rolled out and priced, and the dual value at its dual."""
    u, _ = inst.split_primal(res.primal_avg)
    u_f = restore_feasible_inputs(inst, u)
    x_f = rollout_inputs(inst, u_f)
    primal = smooth_cost(inst, u_f) + g_value(inst, apply_H(inst, inst.join_primal(u_f, x_f)))
    _, inner = dual_gradient(factor_step(inst), inst, res.dual)
    return primal - (inner - g_conjugate_value(inst, res.dual)), primal


def fused_case(rng, case):
    """An instance whose one-to-one stages the sweep fuses: a 48-stage chain
    on one tank and one input, a tree with two runs of one-to-one stages
    between its branchings, or the README's 24-hour chain."""
    if case == "readme":
        topology = NetworkTopology(
            tanks=(Tank(v_min=0.0, v_max=2000.0, v_safe=300.0, inflows=(0,), demands=(0,)),),
            flows=(ControlledFlow("pump", q_max=0.5, alpha0=0.02),),
            n_demands=1,
        )
        model, p = build_lti(topology, dt=3600.0), np.array([800.0])
        tree = ScenarioTree.single_branch(24, n_demand=1, n_price=1)
        d_hat = np.full((24, 1), 0.1)
        alpha_hat = np.where((np.arange(24) >= 8) & (np.arange(24) < 20), 0.15, 0.05)[:, None]
        weights = CostWeights(w_alpha=1.0, w_u=1e-2, w_s=1.0, w_x=100.0)
        demand, price = attach_forecast(tree, d_hat, alpha_hat)
        return ProblemInstance(model, tree, weights, p, np.zeros(1), demand, price)
    if case == "chain-48":
        model, tree = make_model(rng, 1, 1, 1), ScenarioTree.single_branch(48, 1, 1)
    else:
        model = make_model(rng, 2, 3, 1)
        prob = np.r_[1.0, [0.4, 0.6] * 3, [0.1, 0.3, 0.2, 0.4] * 3]
        anc = np.r_[-1, 0, 0, 1, 2, 3, 4, 5, 5, 6, 6, np.arange(7, 15)]
        tree = ScenarioTree(6, 1, 3, np.array([1, 2, 2, 2, 4, 4, 4]), anc, prob,
                            eps=0.1 * rng.standard_normal((19, 4)) * (np.arange(19) > 0)[:, None])
    demand, price = attach_forecast(tree, 0.3 + 0.2 * rng.random((tree.horizon, 1)),
                                    0.5 + rng.random((tree.horizon, model.n_inputs)))
    weights = CostWeights(w_alpha=1.0, w_u=1.0, w_s=2.0, w_x=5.0)
    return ProblemInstance(model, tree, weights, model.x_safe * 1.5,
                           0.3 * rng.random(model.n_inputs), demand, price)


def net3_demo_instance():
    """Step 0 of the net3 demo, seed 0, with the demo's solver config."""
    return demo_instance("net3")


def out_of_box_cases(rng):
    """Two capped solves whose last certificate restores a last iterate that
    left the input box: on the net3 demo the restored last iterate prices
    lower after 200 iterations, on this random instance the average does."""
    return [(net3_demo_instance()[0], 200),
            (make_instance(rng, n_mixing=1, horizon=3, max_nodes=12), 300)]


def outside_box(model, U):
    return bool(np.any((U < model.u_min) | (U > model.u_max)))


class TestFactorStep:
    def test_no_coupling_gives_identity_basis(self, rng):
        inst = make_instance(rng, n_mixing=0, horizon=2, max_nodes=5)
        cache = factor_step(inst)
        basis, _ = _null_space(inst.model.E, inst.model.n_inputs)
        np.testing.assert_array_equal(basis, np.eye(inst.model.n_inputs))
        # No coupling leaves no particular solution in the input offset.
        nu = inst.model.n_inputs
        e_offset, _ = _offsets(cache, inst)
        for s, sl in enumerate(inst.stage_slices):
            np.testing.assert_array_equal(
                e_offset[sl, :nu], -(inst.econ[sl] @ cache.t_mat[s])
            )

    def test_two_flow_conservation_null_space(self):
        E = np.array([[1.0, -1.0]])
        basis, _ = _null_space(E, 2)
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(np.abs(basis[:, 0]), [np.sqrt(0.5)] * 2, atol=1e-12)
        assert float(np.max(np.abs(E @ basis))) <= 1e-12

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
            y = rng.standard_normal(inst.dual_shape)
            z_tree, _ = dual_gradient(cache, inst, y)
            z_dense = dense_kkt_solve(inst, y)
            assert rel_err(z_tree, z_dense) <= 1e-8

    def test_structure_reuse_detects_mismatch(self, rng):
        inst_a = make_instance(rng, horizon=2, max_nodes=6)
        inst_b = make_instance(rng, horizon=2, max_nodes=6)
        cache_a = factor_step(inst_a)
        with pytest.raises(ValueError, match="^factor cache does not match this instance$"):
            factor_step(inst_b, structure_from=cache_a)

    def test_coupling_that_fixes_every_input_rejected(self):
        # One tank whose only flow feeds a demand through a mixing node:
        # E u = -Ed d fixes the input, so no input is left to optimize.
        model = NetworkModel(
            A=np.eye(1), B=-np.eye(1), Gd=np.zeros((1, 1)), E=np.eye(1), Ed=-np.eye(1),
            x_min=np.zeros(1), x_max=np.full(1, 10.0), x_safe=np.full(1, 2.0),
            u_min=np.zeros(1), u_max=np.ones(1), alpha0=np.ones(1), dt=1.0,
        )
        tree = ScenarioTree.single_branch(horizon=2, n_demand=1, n_price=1)
        demand, price = attach_forecast(tree, np.full((2, 1), 0.5), np.ones((2, 1)))
        inst = ProblemInstance(model, tree, CostWeights(1.0, 1.0, 1.0, 1.0), np.full(1, 5.0),
                               np.zeros(1), demand, price)
        with pytest.raises(ValueError, match="^mixing-node coupling leaves no free inputs$"):
            solve(inst)

    def test_structure_reuse_same_tree_new_values(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        cache = factor_step(inst)
        demand, price = attach_forecast(
            inst.tree,
            np.full((inst.tree.horizon, inst.model.n_demands), 0.4),
            np.full((inst.tree.horizon, inst.model.n_inputs), 0.9),
        )
        inst2 = ProblemInstance(inst.model, inst.tree, inst.weights, inst.p, inst.q, demand, price)
        y = np.zeros(inst2.dual_shape)
        z_tree, _ = dual_gradient(cache, inst2, y)
        z_dense = dense_kkt_solve(inst2, y)
        assert rel_err(z_tree, z_dense) <= 1e-8

    def test_fresh_cache_carries_its_metric(self, rng):
        instances = [demo_instance("net3")[0]] + [
            make_instance(rng, n_mixing=n_mixing, horizon=3, max_nodes=12)
            for n_mixing in (0, 1)
        ]
        for inst in instances:
            cache = factor_step(inst)
            assert np.isfinite(cache.lipschitz) and cache.lipschitz > 0.0
            assert cache.hess_diag.shape == (inst.n_nonroot,)
            assert np.all(np.isfinite(cache.hess_diag)) and np.all(cache.hess_diag > 0.0)

    def test_structure_reuse_returns_the_cache_itself(self):
        inst, _ = demo_instance("net3")
        inst2, _ = demo_instance("net3", step=1)  # same tree, next forecast
        cache = factor_step(inst)
        assert factor_step(inst2, structure_from=cache) is cache

    @pytest.mark.parametrize("permuted", [False, True], ids=["net3", "net3-permuted"])
    def test_offset_carry_sums_each_nodes_children(self, permuted):
        inst, _ = net3_demo_instance()
        if permuted:
            inst = shuffle_children(inst, np.random.default_rng(5))
        e_offset, e_carry = _offsets(factor_step(inst), inst)
        nu = inst.model.n_inputs
        expected = np.zeros((inst.n_nonroot, nu))
        for c in range(inst.n_nonroot):
            parent = inst.anc_row[c]
            if parent >= 0:
                expected[parent] -= 2.0 * inst.prob[c] * e_offset[c, :nu] @ inst.wu
        np.testing.assert_allclose(e_carry, expected, rtol=1e-12, atol=1e-15)
        assert np.any(expected != 0.0)

    def test_offset_rows_hold_the_offsets_states(self):
        inst, _ = net3_demo_instance()
        e_offset, _ = _offsets(factor_step(inst), inst)
        nu = inst.model.n_inputs
        assert e_offset.shape == (inst.n_nonroot, nu + inst.model.n_tanks)
        np.testing.assert_array_equal(
            e_offset[:, nu:], e_offset[:, :nu] @ inst.model.B.T + inst.demand_gd
        )


class TestDualGradient:
    def test_zero_dual_matches_oracle(self, rng):
        inst = make_instance(rng, n_mixing=1, horizon=3, max_nodes=10)
        cache = factor_step(inst)
        z, _ = dual_gradient(cache, inst, np.zeros(inst.dual_shape))
        z_dense = dense_kkt_solve(inst, np.zeros(inst.dual_shape))
        assert rel_err(z, z_dense) <= 1e-8
        # Shuffled siblings, renumbered breadth-first.
        inst = shuffle_children(
            make_instance(rng, n_mixing=1, horizon=3, max_nodes=14), rng
        )
        cache = factor_step(inst)
        y = rng.standard_normal(inst.dual_shape)
        z, _ = dual_gradient(cache, inst, y)
        assert rel_err(z, dense_kkt_solve(inst, y)) <= 1e-8

    def test_net3_demo_matches_oracle(self, rng):
        inst, _ = net3_demo_instance()
        assert inst.n_primal == 399
        cache = factor_step(inst)
        y = rng.standard_normal(inst.dual_shape)
        z, _ = dual_gradient(cache, inst, y)
        assert rel_err(z, dense_kkt_solve(inst, y)) <= 1e-8

    def test_tank1_demo_matches_oracle(self, rng):
        # The deepest bundled tree: 24 stages, one-to-one after branching.
        inst, _ = demo_instance("tank1")
        assert inst.tree.horizon == 24
        cache = factor_step(inst)
        assert cache.child_runs[-1] is None
        y = rng.standard_normal(inst.dual_shape)
        z, _ = dual_gradient(cache, inst, y)
        assert rel_err(z, dense_kkt_solve(inst, y)) <= 1e-8

    def test_net10_demo_matches_oracle(self, rng):
        # 35,632 primal variables and 14,672 equality rows in one sparse solve.
        inst, _ = demo_instance("net10", seed=3)
        assert inst.n_primal == 35632
        cache = factor_step(inst)
        y = rng.standard_normal(inst.dual_shape)
        z, _ = dual_gradient(cache, inst, y)
        assert rel_err(z, dense_kkt_solve(inst, y)) <= 1e-8

    @pytest.mark.parametrize("part", ["y3", "y1y2"])
    @pytest.mark.parametrize("kind", ["tank1", "net3", "net10"])
    def test_folded_rows_match_oracle(self, rng, kind, part):
        # The input dual is folded into the cost rows before the stage loop
        # and the state duals are summed there: each alone must reproduce
        # the stacked solve, so that errors in the two cannot cancel.
        inst, _ = demo_instance(kind, seed=3)
        nt = inst.model.n_tanks
        y = rng.standard_normal(inst.dual_shape)
        if part == "y3":
            y[:, :2 * nt] = 0.0
        else:
            y[:, 2 * nt:] = 0.0
        U, X = _Sweep(factor_step(inst), inst)(y)
        assert rel_err(inst.join_primal(U, X), dense_kkt_solve(inst, y)) <= 1e-10

    @pytest.mark.parametrize("case, stages", [
        # A run longer than FUSE_COLS // k stages splits into blocks.
        ("chain-48", [range(1, 25), range(25, 48)]),
        # A branching stage between two runs ends the first.
        ("two-runs", [range(1, 3), range(4, 6)]),
        ("readme", [range(1, 24)]),
    ])
    def test_fused_blocks_match_oracle(self, rng, case, stages):
        inst = fused_case(rng, case)
        cache = factor_step(inst)
        assert [block[0] for block in cache.blocks if block[1] is not None] == stages
        y = rng.standard_normal(inst.dual_shape)
        U, X = _Sweep(cache, inst)(y)
        z_dense = dense_kkt_solve(inst, y)
        z = inst.join_primal(U, X)
        assert np.linalg.norm(z - z_dense) <= 1e-10 * np.linalg.norm(z_dense)

    @pytest.mark.parametrize("kind", ["tank1", "net3", "net10"])
    def test_sweep_states_are_the_rollout_of_its_inputs(self, rng, kind):
        inst, _ = demo_instance(kind)
        y = rng.standard_normal(inst.dual_shape)
        U, X = _Sweep(factor_step(inst), inst)(y)
        np.testing.assert_allclose(
            X, rollout_inputs(inst, U), rtol=0, atol=1e-13 * (1 + np.abs(X).max())
        )

    @pytest.mark.parametrize("kind", ["tank1", "net3", "net10"])
    def test_bound_sweep_equals_the_reference_call_after_call(self, rng, kind):
        # Two duals in turn on one sweep: each result is bit-identical to the
        # reference, so no call leaves state that the next one reads. Every
        # demo has a branching stage, which gathers its parents and takes
        # segment sums; net10 has three.
        inst, _ = demo_instance(kind, seed=3)
        cache = factor_step(inst)
        sweep = _Sweep(cache, inst)
        for _ in range(2):
            y = rng.standard_normal(inst.dual_shape)
            for got, want in zip(sweep(y), sweep_reference(cache, inst, y)):
                np.testing.assert_array_equal(got, want)

    def test_a_result_survives_the_next_call_on_its_cache(self, rng):
        inst, _ = demo_instance("net3")
        cache = factor_step(inst)
        y1, y2 = rng.standard_normal((2, *inst.dual_shape))
        z1, _ = dual_gradient(cache, inst, y1)
        U1, X1 = _Sweep(cache, inst)(y1)
        kept = [a.copy() for a in (z1, U1, X1)]
        dual_gradient(cache, inst, y2)
        _Sweep(cache, inst)(y2)
        for a, b in zip((z1, U1, X1), kept):
            np.testing.assert_array_equal(a, b)

    def test_rebound_cache_gives_the_fresh_sweep(self, rng):
        inst, _ = demo_instance("net3", step=1)
        cache = factor_step(demo_instance("net3")[0])
        y = rng.standard_normal(inst.dual_shape)
        fresh = dual_gradient(factor_step(inst), inst, y)
        shared = dual_gradient(cache, inst, y)
        np.testing.assert_array_equal(fresh[0], shared[0])
        assert fresh[1] == shared[1]

    def test_affinity(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        cache = factor_step(inst)
        y1 = rng.standard_normal(inst.dual_shape)
        y2 = rng.standard_normal(inst.dual_shape)
        za, _ = dual_gradient(cache, inst, y1)
        zb, _ = dual_gradient(cache, inst, y2)
        zm, _ = dual_gradient(cache, inst, 0.5 * y1 + 0.5 * y2)
        np.testing.assert_allclose(zm, 0.5 * za + 0.5 * zb, atol=1e-9 * (1 + np.abs(za).max()))

    def test_hard_constraints_hold_for_any_dual(self, rng):
        inst = make_instance(rng, n_mixing=2, horizon=3, max_nodes=12)
        cache = factor_step(inst)
        for scale in (0.0, 1.0, 1e3):
            y = scale * rng.standard_normal(inst.dual_shape)
            z, _ = dual_gradient(cache, inst, y)
            assert np.isfinite(eval_f(inst, z))

    def test_value_is_attained_infimum(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=6)
        cache = factor_step(inst)
        y = rng.standard_normal(inst.dual_shape)
        z, value = dual_gradient(cache, inst, y)
        direct = eval_f(inst, z) + float(np.vdot(y, apply_H(inst, z)))
        assert value == pytest.approx(direct, rel=1e-10)

    def test_directional_derivative_by_finite_differences(self, rng):
        # The smooth dual term phi(y) = f*(-H'y) has gradient -H x*(y).
        inst = make_instance(rng, horizon=2, max_nodes=6)
        cache = factor_step(inst)
        y = rng.standard_normal(inst.dual_shape)
        delta = rng.standard_normal(inst.dual_shape)
        h = 1e-5
        z, value = dual_gradient(cache, inst, y)
        _, v_plus = dual_gradient(cache, inst, y + h * delta)
        _, v_minus = dual_gradient(cache, inst, y - h * delta)
        # value(y) = -phi(y), so the centered difference of -value matches
        # <grad phi, delta> = -<H x*, delta>.
        fd = (v_plus - v_minus) / (2 * h)
        analytic = float(np.vdot(apply_H(inst, z), delta))
        assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-5)

    def test_mismatched_cache_rejected(self, rng):
        inst_a = make_instance(rng, horizon=2, max_nodes=6)
        inst_b = make_instance(rng, horizon=2, max_nodes=6)
        cache = factor_step(inst_a)
        with pytest.raises(ValueError, match="does not match"):
            dual_gradient(cache, inst_b, np.zeros(inst_b.dual_shape))
        with pytest.raises(ValueError, match="does not match"):
            solve(inst_b, cache=cache)
        with pytest.raises(ValueError, match="does not match"):
            estimate_lipschitz(cache, inst_b)

    def test_cache_of_another_step_serves_it(self):
        # tank1 seed 0: the step-0 cache holds no step-0 values, so the
        # step-12 certificate is true. With step-0 offsets in it, the solve
        # reported a dual bound of 1029.22, above the optimum of 1026.04.
        inst0, config = demo_instance("tank1")
        inst12, _ = demo_instance("tank1", step=12)
        res = solve(inst12, config, cache=factor_step(inst0))
        assert res.termination == "converged"
        gap, primal = recomputed_gap(inst12, res)
        assert gap == pytest.approx(res.duality_gap, rel=1e-9, abs=1e-9 * (1 + abs(primal)))
        assert primal == pytest.approx(res.objective, rel=1e-9)
        assert gap <= config.tol * (1.0 + abs(primal))

    def test_cache_of_another_step_gives_its_exact_inner_solve(self, rng):
        inst0, _ = demo_instance("tank1")
        inst12, _ = demo_instance("tank1", step=12)
        y = rng.standard_normal(inst12.dual_shape)
        z, _ = dual_gradient(factor_step(inst0), inst12, y)
        assert rel_err(z, dense_kkt_solve(inst12, y)) <= 1e-8


class TestLipschitz:
    @pytest.fixture
    def exact_bound(self, monkeypatch):
        """Power iteration settled to 1e-9, without the safety margin."""
        monkeypatch.setattr(watermpc.solver, "LIPSCHITZ_REL_TOL", 1e-9)
        monkeypatch.setattr(watermpc.solver, "LIPSCHITZ_SAFETY", 1.0)

    @staticmethod
    def metric(inst):
        """factor_step's cache, whose bound estimate_lipschitz recomputes
        exactly."""
        cache = factor_step(inst)
        assert estimate_lipschitz(cache, inst) == cache.lipschitz
        return cache

    def one_node_instance(self, rng, wu):
        inst = make_instance(
            rng, n_tanks=1, n_inputs=1, n_demands=1, horizon=1, max_nodes=2, w_u_scale=1.0
        )
        inst.wu = np.array([[wu]])
        # Rebind cached weight-dependent fields consistently.
        inst.weights.w_u = wu
        return inst

    def test_one_node_closed_form(self, rng, exact_bound):
        # With one state, one input and image (x, x, u), the dual curvature
        # is h h'/(2 w) for h = (B, B, 1). Its diagonal is
        # (B^2, B^2, 1)/(2 w), so the node's d = max(B^2, 1)/(2 w) and the
        # scaled operator h h' / (2 w d) has largest eigenvalue
        # (2 B^2 + 1) / max(B^2, 1).
        wu = 2.5
        inst = self.one_node_instance(rng, wu)
        cache = self.metric(inst)
        b2 = inst.model.B[0, 0] ** 2
        assert cache.hess_diag == pytest.approx([max(b2, 1.0) / (2.0 * wu)], rel=1e-12)
        assert cache.lipschitz == pytest.approx((2.0 * b2 + 1.0) / max(b2, 1.0), rel=1e-3)

    def test_doubling_weight_halves_curvature(self, rng, exact_bound):
        # Doubling w_u halves M, hence every d_i; the scaled operator and
        # L_D stay, and every dual step doubles.
        inst1 = self.one_node_instance(rng, 2.0)
        rng2 = np.random.default_rng(20240811)
        inst2 = self.one_node_instance(rng2, 4.0)
        cache1, cache2 = self.metric(inst1), self.metric(inst2)
        assert cache1.lipschitz == pytest.approx(cache2.lipschitz, rel=1e-9)
        np.testing.assert_allclose(cache1.hess_diag / cache2.hess_diag, 2.0, rtol=1e-12)
        config = SolverConfig(max_iter=1)
        g1 = solve(inst1, config, cache=cache1).gamma
        g2 = solve(inst2, config, cache=cache2).gamma
        np.testing.assert_allclose(g2 / g1, 2.0, rtol=1e-9)

    def test_diagonal_matches_column_probing(self, rng, exact_bound):
        # M = H grad^2 f* H' is the linear part of y -> -H z*(y); probe it
        # column by column on a shuffled tree with a mixing node.
        inst = shuffle_children(
            make_instance(rng, n_mixing=1, horizon=3, max_nodes=14), rng
        )
        cache = self.metric(inst)
        z0, _ = dual_gradient(cache, inst, np.zeros(inst.dual_shape))
        M = np.column_stack([
            apply_H(inst, z0 - dual_gradient(cache, inst, e.reshape(inst.dual_shape))[0])
            .reshape(-1)
            for e in np.eye(np.prod(inst.dual_shape))
        ])
        d = np.diag(M).reshape(inst.n_nonroot, -1).max(axis=1)
        np.testing.assert_allclose(cache.hess_diag, d, rtol=1e-10)
        scale = np.repeat(1.0 / np.sqrt(d), M.shape[0] // inst.n_nonroot)
        scaled = scale[:, None] * M * scale[None, :]
        assert cache.lipschitz == pytest.approx(
            np.linalg.eigvalsh(0.5 * (scaled + scaled.T))[-1], rel=1e-3
        )

    def test_bounds_the_largest_eigenvalue_on_net10(self, rng):
        # Lanczos on D^-1/2 M D^-1/2, M applied through dual_gradient, which
        # test_net10_demo_matches_oracle checks against the KKT oracle. The
        # estimate is a Rayleigh quotient times the margin, so it lies
        # between the largest eigenvalue and the margin times it.
        inst, _ = demo_instance("net10", seed=3)
        cache = factor_step(inst)
        scale = 1.0 / np.sqrt(cache.hess_diag)[:, None]
        z0, _ = dual_gradient(cache, inst, np.zeros(inst.dual_shape))

        def scaled(v):
            z, _ = dual_gradient(cache, inst, v.reshape(inst.dual_shape) * scale)
            return (apply_H(inst, z0 - z) * scale).reshape(-1)

        size = int(np.prod(inst.dual_shape))
        operator = scipy.sparse.linalg.LinearOperator((size, size), matvec=scaled)
        (lam_max,) = scipy.sparse.linalg.eigsh(
            operator, k=1, which="LA", v0=rng.standard_normal(size),
            return_eigenvectors=False,
        )
        margin = watermpc.solver.LIPSCHITZ_SAFETY
        assert lam_max <= cache.lipschitz <= margin * lam_max * (1 + 1e-9)

    def test_unsettled_power_iteration_raises(self, rng, monkeypatch):
        monkeypatch.setattr(watermpc.solver, "LIPSCHITZ_MAX_ITER", 1)
        inst = make_instance(rng, horizon=2, max_nodes=8)
        with pytest.raises(RuntimeError, match="did not settle within 1 iterations"):
            factor_step(inst)

    def test_invariant_under_node_permutation(self, rng, exact_bound):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        inst2 = shuffle_children(inst, rng)
        l1 = self.metric(inst).lipschitz
        l2 = self.metric(inst2).lipschitz
        assert l1 == pytest.approx(l2, rel=1e-6)


def theta_sequence(count):
    """First ``count`` extrapolation parameters, theta_0 = 1."""
    seq = [1.0]
    while len(seq) < count:
        seq.append(_next_theta(seq[-1]))
    return np.array(seq)


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


@pytest.mark.parametrize("kwargs, message", [
    ({"tol": np.nan}, "tol must be positive and finite"),
    ({"tol": np.inf}, "tol must be positive and finite"),
    ({"tol": 0.0}, "tol must be positive and finite"),
    ({"max_iter": 2.5}, "max_iter must be an integer"),
    ({"max_iter": True}, "max_iter must be an integer"),
    pytest.param({"max_iter": 0}, "max_iter must be an integer of at least 1, got 0",
                 id="kwargs5-max_iter must be at least 1"),
    ({"tol": True}, "tol must be positive and finite, got True"),
    ({"tol": "0.05"}, "tol must be positive and finite, got '0.05'"),
    pytest.param({"tol": 10**400}, "tol must be positive and finite, got 1000",
                 id="tol-int-beyond-float"),
    pytest.param({"tol": 10**5000}, "tol must be positive and finite, got an integer too long",
                 id="tol-int-beyond-print"),
    pytest.param({"max_iter": -10**5000},
                 "max_iter must be an integer of at least 1, got an integer too long",
                 id="max_iter-int-beyond-print"),
])
def test_solver_config_names_the_rejected_field(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        SolverConfig(**kwargs)


def test_solver_config_takes_a_numpy_integer():
    max_iter = SolverConfig(max_iter=np.int64(50)).max_iter
    assert max_iter == 50 and type(max_iter) is int


class TestSolve:
    @pytest.fixture
    def smooth_cost_calls(self, monkeypatch):
        """One entry per call the solver makes to smooth_cost."""
        calls = []
        real = watermpc.solver.smooth_cost

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(watermpc.solver, "smooth_cost", counted)
        return calls

    @pytest.fixture
    def priced_iterates(self, monkeypatch):
        """One entry per primal candidate the solver prices."""
        calls = []
        real = watermpc.solver._in_box_pricer

        def counted_pricer(instance):
            price = real(instance)

            def counted(U, X):
                calls.append(1)
                return price(U, X)

            return counted

        monkeypatch.setattr(watermpc.solver, "_in_box_pricer", counted_pricer)
        return calls

    @pytest.fixture
    def restored(self, monkeypatch):
        """A copy of the inputs of each candidate the solver restores, in
        order; a stacked call gives one entry per candidate."""
        calls = []
        real = watermpc.solver.restore_feasible_inputs

        def recorded(inst, U, *args):
            calls.extend(np.array(U, ndmin=3))
            return real(inst, U, *args)

        monkeypatch.setattr(watermpc.solver, "restore_feasible_inputs", recorded)
        return calls

    def test_inactive_constraints_converge_immediately(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=6)
        m = inst.model
        # Make the unconstrained economic optimum comfortably interior.
        cache = factor_step(inst)
        z, _ = dual_gradient(cache, inst, np.zeros(inst.dual_shape))
        U, X = inst.split_primal(z)
        m.u_min[:] = U.min() - 1.0
        m.u_max[:] = U.max() + 1.0
        m.x_min[:] = X.min() - 1.0
        m.x_max[:] = X.max() + 1.0
        m.x_safe[:] = X.min() - 0.5
        res = solve(inst, SolverConfig(max_iter=200, tol=1e-8), cache=cache)
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

    def test_solve_never_writes_to_its_cache(self):
        inst, config = net3_demo_instance()
        cache = factor_step(inst)
        members = {f.name: getattr(cache, f.name) for f in dataclasses.fields(cache)}
        before = {name: pickle.dumps(value) for name, value in members.items()}
        first, second = (solve(inst, config, cache=cache) for _ in range(2))
        for name, value in members.items():
            assert getattr(cache, name) is value, name
            assert pickle.dumps(value) == before[name], name
        for f in dataclasses.fields(SolverResult):
            if f.name != "solve_time_s":
                np.testing.assert_array_equal(
                    getattr(first, f.name), getattr(second, f.name), err_msg=f.name
                )

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
        z0, _ = dual_gradient(cache, inst, np.zeros(inst.dual_shape))
        U0, _ = inst.split_primal(z0)
        sl = inst.stage_slices[0]
        expected_u0 = inst.prob[sl] @ U0[sl]
        res = solve(inst, SolverConfig(max_iter=100, tol=1e-9), cache=cache)
        np.testing.assert_allclose(res.u0, expected_u0, atol=1e-9 * (1 + np.abs(expected_u0).max()))

    def test_iterations_skip_the_objective_value(self, rng, smooth_cost_calls,
                                                 priced_iterates, restored):
        inst = make_instance(rng, horizon=3, max_nodes=12)
        # No gap check inside the loop, and every iterate leaves the input
        # box, so none is priced as it stands. The final certificate prices
        # the restored average and last iterate. The only smooth_cost calls
        # are the dual values at the start and at the certificate.
        config = SolverConfig(max_iter=GAP_CHECK_EVERY - 1, tol=1e-30)
        res = solve(inst, config)
        assert res.termination == "max_iter"
        assert len(restored) == 2 and outside_box(inst.model, restored[-1])
        assert len(priced_iterates) == 2
        assert len(smooth_cost_calls) == 1 + 1

    def test_certifies_a_capped_solve_once(self, rng, smooth_cost_calls, priced_iterates):
        inst = make_instance(rng, horizon=3, max_nodes=12)
        m = inst.model
        # No input box, and safety at the capacity keeps the gap positive.
        m.u_min[:] = -np.inf
        m.u_max[:] = np.inf
        m.x_safe[:] = m.x_max
        # The last iteration is a gap-check iteration whose certificate
        # fails; the capped solve reports it rather than running it again.
        # Every iterate is in the box and priced, and so is the certificate's
        # restored average. smooth_cost prices the dual values only, at the
        # start and at the one certificate.
        res = solve(inst, SolverConfig(max_iter=GAP_CHECK_EVERY, tol=1e-30))
        assert res.termination == "max_iter"
        assert len(priced_iterates) == GAP_CHECK_EVERY + 1
        assert len(smooth_cost_calls) == 1 + 1

    def test_certificate_restores_only_an_out_of_box_last_iterate(self, rng, restored):
        inst = make_instance(rng, horizon=3, max_nodes=12)
        m = inst.model
        m.u_min[:] = -np.inf
        m.u_max[:] = np.inf
        m.x_safe[:] = m.x_max
        res = solve(inst, SolverConfig(max_iter=GAP_CHECK_EVERY, tol=1e-30))
        assert res.termination == "max_iter"
        # Without a box the last iterate was priced as it stands, so the
        # one certificate restores the average alone.
        assert len(restored) == 1
        # The record's value is the public pair's price of its restored inputs.
        U_c, _ = inst.split_primal(res.primal_avg)
        u_f = restore_feasible_inputs(inst, U_c)
        x_f = rollout_inputs(inst, u_f)
        value = smooth_cost(inst, u_f) + g_value(inst, np.hstack([x_f, x_f, u_f]))
        assert res.objective == pytest.approx(value, rel=1e-9, abs=1e-9)

    def test_every_gap_check_runs_the_certificate(self, rng, restored):
        # Each certificate restores two candidates: the averaged inputs and
        # the last iterate still leave the box at every check here, and a
        # check runs anyway.
        inst = make_instance(rng, n_mixing=1, horizon=3, max_nodes=12)
        checks = 4
        res = solve(inst, SolverConfig(max_iter=checks * GAP_CHECK_EVERY, tol=1e-12))
        assert res.termination == "max_iter"
        assert len(restored) == 2 * checks
        assert all(outside_box(inst.model, U) for U in restored[1::2])

    def test_certificate_keeps_the_cheaper_candidate(self, rng, restored):
        # The certificate restores the average, then the last iterate when
        # it left the box, which it has at the last check of both cases.
        winners = []
        for inst, iters in out_of_box_cases(rng):
            restored.clear()
            res = solve(inst, SolverConfig(max_iter=iters, tol=1e-30))
            last = dict(zip(("average", "iterate"), restored[-2:]))
            assert outside_box(inst.model, last["iterate"])
            points, values = {}, {}
            for k, U in last.items():
                u_f = restore_feasible_inputs(inst, U)
                x_f = rollout_inputs(inst, u_f)
                points[k] = u_f, x_f
                values[k] = smooth_cost(inst, u_f) + g_value(inst, np.hstack([x_f, x_f, u_f]))
            best = min(values, key=values.get)
            winners.append(best)
            assert res.objective == pytest.approx(values[best], rel=1e-12)
            # The record keeps the restored winner and its rollout.
            U_c, X_c = inst.split_primal(res.primal_avg)
            np.testing.assert_array_equal(U_c, points[best][0])
            np.testing.assert_array_equal(X_c, points[best][1])
            sl = inst.stage_slices[0]
            np.testing.assert_array_equal(
                res.u0, np.clip(inst.prob[sl] @ U_c[sl], inst.model.u_min, inst.model.u_max)
            )
        assert winners == ["iterate", "average"]

    def test_the_returned_primal_is_the_point_it_priced(self, rng):
        # Each case's last certificate restores an out-of-box last iterate;
        # the returned primal is still feasible and priced by its objective.
        for inst, iters in out_of_box_cases(rng):
            res = solve(inst, SolverConfig(max_iter=iters, tol=1e-30))
            m = inst.model
            U, _ = inst.split_primal(res.primal_avg)
            assert not outside_box(m, U)
            coupling = U @ m.E.T + inst.demand @ m.Ed.T
            assert np.abs(coupling).max() <= 1e-12 * (1.0 + np.abs(U).max())
            value = smooth_cost(inst, U) + g_value(inst, apply_H(inst, res.primal_avg))
            assert res.objective == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("kind, cap", [("net3", 337)])
    def test_the_last_certificate_decides_termination(self, kind, cap):
        inst, config = demo_instance(kind)
        # The last scheduled gap check before the cap fails ...
        last_check = cap - cap % GAP_CHECK_EVERY
        earlier = solve(inst, dataclasses.replace(config, max_iter=last_check))
        assert earlier.termination == "max_iter"
        # ... and the certificate at the cap meets the tolerance.
        res = solve(inst, dataclasses.replace(config, max_iter=cap))
        assert res.iterations == cap
        assert res.duality_gap <= config.tol * (1.0 + abs(res.objective))
        assert res.termination == "converged"

    def test_an_in_box_iterate_ends_a_solve_off_cadence(self):
        # The cold tank1 step's last iterate dips in value between two gap
        # checks, inside the input box; the record catches the dip and the
        # solve stops there, with a true gap.
        inst, config = demo_instance("tank1")
        res = solve(inst, config)
        assert res.termination == "converged"
        assert res.iterations < 2 * GAP_CHECK_EVERY
        assert res.iterations % GAP_CHECK_EVERY != 0
        U, _ = inst.split_primal(res.primal_avg)
        assert not outside_box(inst.model, U)
        gap, primal = recomputed_gap(inst, res)
        assert gap == pytest.approx(res.duality_gap, rel=1e-9, abs=1e-9 * (1 + abs(primal)))
        assert primal == pytest.approx(res.objective, rel=1e-9)
        assert gap <= config.tol * (1.0 + abs(primal))

    @pytest.mark.parametrize("kind, seed", [("tank1", 0), ("tank1", 1), ("net3", 0)])
    def test_returned_certificates_tell_the_truth(self, kind, seed):
        # On a cold step and the warm step after it: the returned gap and
        # objective recompute from public functions, and the dual bound of
        # either the demo-tolerance or a tight solve lies below the other's
        # objective. The tight solve's cap leaves it a relative gap near
        # 1e-3; capped or not, its certificate bounds the optimum.
        bundle = build_demo(kind, seed, h_sim=2)
        cache = dual0 = None
        x, q = bundle.x0, bundle.u_prev
        for step in range(2):
            fc = bundle.forecaster(step)
            demand, price = attach_forecast(bundle.tree, fc.d_hat, fc.alpha_hat)
            inst = ProblemInstance(bundle.model, bundle.tree, bundle.weights, x, q, demand, price)
            cache = cache or factor_step(inst)
            res = solve(inst, bundle.solver, cache=cache, dual0=dual0)
            assert res.termination == "converged"
            gap, primal = recomputed_gap(inst, res)
            scale = 1.0 + abs(primal) + abs(gap)
            assert abs(gap - res.duality_gap) <= 1e-9 * scale
            assert abs(primal - res.objective) <= 1e-9 * scale
            tight = solve(inst, SolverConfig(max_iter=1000, tol=1e-6), cache=cache)
            assert tight.duality_gap < res.duality_gap
            for a, b in ((res, tight), (tight, res)):
                assert a.objective - a.duality_gap <= b.objective + 1e-9 * abs(b.objective)
            dual0 = res.dual
            x, q = bundle.model.step_dynamics(x, res.u0, bundle.realized_demand[step]), res.u0

    @pytest.mark.parametrize("kind, seed", [("tank1", 0), ("net3", 0), ("net3", 4)])
    def test_certificates_agree_across_tolerances(self, kind, seed):
        # Weak duality at demo scale: the dual bound, objective minus gap,
        # of a solve at either tolerance lies below the other's objective.
        inst, config = demo_instance(kind, seed=seed)
        cache = factor_step(inst)
        loose = solve(inst, config, cache=cache)
        tight = solve(inst, dataclasses.replace(config, tol=1e-3), cache=cache)
        assert loose.termination == tight.termination == "converged"
        for a, b in ((loose, tight), (tight, loose)):
            assert a.objective - a.duality_gap <= b.objective + 1e-9 * abs(b.objective)

    def test_converged_dual_restarts_at_the_first_gap_check(self):
        inst, config = net3_demo_instance()
        cold = solve(inst, config)
        assert cold.termination == "converged"
        assert cold.iterations > GAP_CHECK_EVERY
        dual0 = cold.dual.copy()
        warm = solve(inst, config, dual0=dual0)
        assert warm.termination == "converged"
        assert warm.iterations == GAP_CHECK_EVERY
        np.testing.assert_array_equal(dual0, cold.dual)

    def test_malformed_start_dual_rejected(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=6)
        n, width = inst.dual_shape
        # A short row, and a flat vector of the full length.
        for bad in (np.zeros((n, width - 1)), np.zeros(n * width)):
            with pytest.raises(ValueError, match="shape"):
                solve(inst, dual0=bad)
        dual0 = np.zeros(inst.dual_shape)
        dual0[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve(inst, dual0=dual0)

    def test_max_iter_termination_reported(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        res = solve(inst, SolverConfig(max_iter=3, tol=1e-12))
        assert res.termination == "max_iter"
        assert res.iterations == 3

    def test_dual_objective_best_so_far_monotone(self, rng, monkeypatch):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        cache = factor_step(inst)
        # Every dual iterate leaves the solver's conjugate prox, in a
        # buffer the solve writes again later.
        iterates = []
        real = watermpc.solver.prox_into

        def recorded(*args):
            out = real(*args)
            iterates.append(out.copy())
            return out

        monkeypatch.setattr(watermpc.solver, "prox_into", recorded)
        res = solve(inst, SolverConfig(max_iter=400, tol=1e-30), cache=cache)
        assert len(iterates) == 400
        # Weak duality: no dual value exceeds the certified primal value.
        for y in iterates:
            _, inner = dual_gradient(cache, inst, y)
            dual_value = inner - g_conjugate_value(inst, y)
            assert np.isfinite(dual_value)
            assert dual_value <= res.objective + 1e-9 * (1 + abs(res.objective))
