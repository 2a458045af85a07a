"""Tests for the factor step, dual gradient and the accelerated solver."""

import numpy as np
import pytest

import watermpc.solver
from watermpc.demo import build_demo
from watermpc.problem import ProblemInstance, apply_H
from watermpc.solver import (
    GAP_CHECK_EVERY,
    SolverConfig,
    _next_theta,
    dual_gradient,
    estimate_lipschitz,
    factor_step,
    solve,
)
from watermpc.tree import ScenarioTree, attach_forecast

from conftest import make_instance
from oracle import dense_kkt_solve, eval_f


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
    return ProblemInstance(inst.model, permuted, inst.weights, inst.p, inst.q)


def net3_demo_instance():
    """Step 0 of the net3 demo, seed 0, with the demo's solver config."""
    bundle = build_demo("net3", 0)
    fc = bundle.forecaster(0)
    tree = attach_forecast(bundle.tree, fc.d_hat, fc.alpha_hat)
    inst = ProblemInstance(bundle.model, tree, bundle.weights, bundle.x0, bundle.u_prev)
    return inst, bundle.solver


class TestFactorStep:
    def test_no_coupling_gives_identity_basis(self, rng):
        inst = make_instance(rng, n_mixing=0, horizon=2, max_nodes=5)
        cache = factor_step(inst)
        np.testing.assert_array_equal(cache.null_basis, np.eye(inst.model.n_inputs))
        # No coupling leaves no particular solution in the input offset.
        for s, sl in enumerate(inst.stage_slices):
            np.testing.assert_array_equal(
                cache.e_offset[sl], -(inst.econ[sl] @ cache.t_mat[s])
            )

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
            y = rng.standard_normal(inst.dual_shape)
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
        inst2 = ProblemInstance(inst.model, tree2, inst.weights, inst.p, inst.q)
        cache2 = factor_step(inst2, structure_from=cache)
        y = np.zeros(inst2.dual_shape)
        z_tree, _ = dual_gradient(cache2, inst2, y)
        z_dense = dense_kkt_solve(inst2, y)
        assert rel_err(z_tree, z_dense) <= 1e-8


class TestDualGradient:
    def test_zero_dual_matches_oracle(self, rng):
        inst = make_instance(rng, n_mixing=1, horizon=3, max_nodes=10)
        cache = factor_step(inst)
        z, _ = dual_gradient(cache, inst, np.zeros(inst.dual_shape))
        z_dense = dense_kkt_solve(inst, np.zeros(inst.dual_shape))
        assert rel_err(z, z_dense) <= 1e-8
        # Children out of parent order take the sorted segment-sum path.
        inst = permute_within_stages(
            make_instance(rng, n_mixing=1, horizon=3, max_nodes=14), rng
        )
        order, _ = inst.child_groups[-1]
        assert not isinstance(order, slice)
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


class TestLipschitz:
    @pytest.fixture
    def exact_bound(self, monkeypatch):
        """Power iteration settled to 1e-9, without the safety margin."""
        monkeypatch.setattr(watermpc.solver, "LIPSCHITZ_REL_TOL", 1e-9)
        monkeypatch.setattr(watermpc.solver, "LIPSCHITZ_SAFETY", 1.0)

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
        cache = factor_step(inst)
        L = estimate_lipschitz(cache, inst)
        b2 = inst.model.B[0, 0] ** 2
        assert cache.hess_diag == pytest.approx([max(b2, 1.0) / (2.0 * wu)], rel=1e-12)
        assert L == pytest.approx((2.0 * b2 + 1.0) / max(b2, 1.0), rel=1e-3)

    def test_doubling_weight_halves_curvature(self, rng, exact_bound):
        # Doubling w_u halves M, hence every d_i; the scaled operator and
        # L_D stay, and every dual step doubles.
        inst1 = self.one_node_instance(rng, 2.0)
        rng2 = np.random.default_rng(20240811)
        inst2 = self.one_node_instance(rng2, 4.0)
        cache1, cache2 = factor_step(inst1), factor_step(inst2)
        l1 = estimate_lipschitz(cache1, inst1)
        l2 = estimate_lipschitz(cache2, inst2)
        assert l1 == pytest.approx(l2, rel=1e-9)
        np.testing.assert_allclose(cache1.hess_diag / cache2.hess_diag, 2.0, rtol=1e-12)
        config = SolverConfig(max_iter=1)
        g1 = solve(inst1, config, cache=cache1).gamma
        g2 = solve(inst2, config, cache=cache2).gamma
        np.testing.assert_allclose(g2 / g1, 2.0, rtol=1e-9)

    def test_diagonal_matches_column_probing(self, rng, exact_bound):
        # M = H grad^2 f* H' is the linear part of y -> -H z*(y); probe it
        # column by column on a permuted tree with a mixing node.
        inst = permute_within_stages(
            make_instance(rng, n_mixing=1, horizon=3, max_nodes=14), rng
        )
        assert not isinstance(inst.child_groups[-1][0], slice)
        cache = factor_step(inst)
        L = estimate_lipschitz(cache, inst)
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
        assert L == pytest.approx(np.linalg.eigvalsh(0.5 * (scaled + scaled.T))[-1], rel=1e-3)

    def test_unsettled_power_iteration_raises(self, rng, monkeypatch):
        monkeypatch.setattr(watermpc.solver, "LIPSCHITZ_MAX_ITER", 1)
        inst = make_instance(rng, horizon=2, max_nodes=8)
        with pytest.raises(RuntimeError, match="did not settle within 1 iterations"):
            estimate_lipschitz(factor_step(inst), inst)

    def test_invariant_under_node_permutation(self, rng, exact_bound):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        inst2 = permute_within_stages(inst, rng)
        l1 = estimate_lipschitz(factor_step(inst), inst)
        l2 = estimate_lipschitz(factor_step(inst2), inst2)
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

    def test_iterations_skip_the_objective_value(self, rng, smooth_cost_calls):
        inst = make_instance(rng, horizon=3, max_nodes=12)
        # No gap check inside the loop, so the only certificate is the
        # final one: the primal values of the average and the last
        # iterate plus its dual inner value.
        config = SolverConfig(max_iter=GAP_CHECK_EVERY - 1, tol=1e-30)
        res = solve(inst, config)
        assert res.termination == "max_iter"
        assert len(smooth_cost_calls) == 3

    def test_certifies_a_capped_solve_once(self, rng, smooth_cost_calls):
        inst = make_instance(rng, horizon=3, max_nodes=12)
        m = inst.model
        # No input box, and safety at the capacity keeps the gap positive.
        m.u_min[:] = -np.inf
        m.u_max[:] = np.inf
        m.x_safe[:] = m.x_max
        # The last iteration is a gap-check iteration whose certificate
        # fails; the capped solve reports it rather than running it again.
        res = solve(inst, SolverConfig(max_iter=GAP_CHECK_EVERY, tol=1e-30))
        assert res.termination == "max_iter"
        assert len(smooth_cost_calls) == 3

    def test_every_gap_check_runs_the_certificate(self, rng, monkeypatch):
        # Each certificate restores two candidates. The averaged inputs
        # still leave the box at every check here, and a check runs anyway.
        calls = []
        real = watermpc.solver.restore_feasible_inputs

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(watermpc.solver, "restore_feasible_inputs", counted)
        inst = make_instance(rng, n_mixing=1, horizon=3, max_nodes=12)
        checks = 4
        res = solve(inst, SolverConfig(max_iter=checks * GAP_CHECK_EVERY, tol=1e-12))
        assert res.termination == "max_iter"
        assert res.primal_residual > 0.0
        assert len(calls) == 2 * checks

    def test_certificate_keeps_the_cheaper_candidate(self, rng, monkeypatch):
        from watermpc.problem import g_value, restore_feasible_inputs, rollout_inputs, smooth_cost

        def restored_value(inst, U):
            u_f = restore_feasible_inputs(inst, U, np.linalg.pinv(inst.model.E))
            x_f = rollout_inputs(inst, u_f)
            return smooth_cost(inst, u_f) + g_value(inst, np.hstack([x_f, x_f, u_f]))

        # The certificate restores the average, then the last iterate.
        candidates = []
        real = watermpc.solver.restore_feasible_inputs

        def recorded(inst, U, *args):
            candidates.append(U.copy())
            return real(inst, U, *args)

        monkeypatch.setattr(watermpc.solver, "restore_feasible_inputs", recorded)
        # On the net3 demo the last iterate prices lower after 200
        # iterations; on this random instance the average does.
        cases = [(net3_demo_instance()[0], 200),
                 (make_instance(rng, n_mixing=1, horizon=3, max_nodes=12), 300)]
        winners = []
        for inst, iters in cases:
            candidates.clear()
            res = solve(inst, SolverConfig(max_iter=iters, tol=1e-30))
            last = dict(zip(("average", "iterate"), candidates[-2:]))
            values = {k: restored_value(inst, U) for k, U in last.items()}
            best = min(values, key=values.get)
            winners.append(best)
            assert res.objective == pytest.approx(values[best], rel=1e-12)
            U_c, X_c = inst.split_primal(res.primal_avg)
            np.testing.assert_array_equal(U_c, last[best])
            # The candidate's states are its inputs' rollout, up to rounding.
            np.testing.assert_allclose(
                X_c, rollout_inputs(inst, U_c), rtol=0, atol=1e-9 * (1 + np.abs(X_c).max())
            )
            sl = inst.stage_slices[0]
            np.testing.assert_array_equal(
                res.u0, np.clip(inst.prob[sl] @ U_c[sl], inst.model.u_min, inst.model.u_max)
            )
        assert winners == ["iterate", "average"]

    def test_residual_of_the_returned_average(self, rng):
        inst = make_instance(rng, horizon=2, max_nodes=8)
        m = inst.model
        # 37 is not a multiple of the gap-check interval, so the last
        # iteration runs no certificate of its own.
        res = solve(inst, SolverConfig(max_iter=37, tol=1e-12))
        assert res.termination == "max_iter"
        U_avg, _ = inst.split_primal(res.primal_avg)
        violation = float(np.abs(U_avg - np.clip(U_avg, m.u_min, m.u_max)).max())
        assert res.primal_residual == violation

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
        from watermpc.problem import g_conjugate_value

        inst = make_instance(rng, horizon=2, max_nodes=8)
        cache = factor_step(inst)
        # Every dual iterate leaves the solver's conjugate prox.
        iterates = []
        real = watermpc.solver.prox_g_conjugate

        def recorded(*args):
            iterates.append(real(*args))
            return iterates[-1]

        monkeypatch.setattr(watermpc.solver, "prox_g_conjugate", recorded)
        res = solve(inst, SolverConfig(max_iter=400, tol=1e-30), cache=cache)
        assert len(iterates) == 400
        # Weak duality: no dual value exceeds the certified primal value.
        for y in iterates:
            _, inner = dual_gradient(cache, inst, y)
            dual_value = inner - g_conjugate_value(inst, y)
            assert np.isfinite(dual_value)
            assert dual_value <= res.objective + 1e-9 * (1 + abs(res.objective))
