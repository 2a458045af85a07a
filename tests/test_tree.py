"""Tests for scenario trees and fan reduction."""

import re
from dataclasses import replace

import numpy as np
import pytest

from watermpc.tree import (
    ScenarioFan,
    ScenarioTree,
    _fast_forward_select,
    attach_forecast,
    reduce_fan_to_tree,
    zero_price_errors,
)

from conftest import make_tree, node_stages
from oracle import greedy_select_reference


class TestValidate:
    def test_single_branch_valid(self):
        tree = ScenarioTree.single_branch(horizon=4, n_demand=2, n_price=1)
        tree.validate()

    def test_bad_children_probabilities(self):
        with pytest.raises(ValueError, match="1.1"):
            ScenarioTree(
                horizon=1,
                n_demand=1,
                n_price=1,
                nodes_per_stage=np.array([1, 2]),
                anc=np.array([-1, 0, 0]),
                prob=np.array([1.0, 0.6, 0.5]),
                eps=np.zeros((3, 2)),
            )

    def test_reduced_tree_valid(self, rng):
        fan = ScenarioFan(rng.standard_normal((60, 3, 2)), n_demand=1, n_price=1)
        reduce_fan_to_tree(fan, [3, 2, 2]).validate()

    def test_random_builder_trees_valid(self, rng):
        for _ in range(10):
            make_tree(rng, horizon=3, n_demand=2, n_price=2).validate()

    def test_orphan_stage_detected(self):
        # node 2 claims the root as ancestor from stage 2
        with pytest.raises(ValueError, match="ancestor stage"):
            ScenarioTree(
                horizon=2,
                n_demand=1,
                n_price=1,
                nodes_per_stage=np.array([1, 1, 1]),
                anc=np.array([-1, 0, 0]),
                prob=np.array([1.0, 1.0, 1.0]),
                eps=np.zeros((3, 2)),
            )

    @pytest.mark.parametrize("horizon, counts, anc, prob, expected", [
        pytest.param(
            2, [1, 2, 2], [-1, 0, 7, -1, 1], [1.0, 0.5, 0.5, 0.25, 0.25],
            "node 2: ancestor 7 out of range",
            id="ancestor-out-of-range",
        ),
        pytest.param(
            2, [1, 2, 2], [-1, 0, 0, 1, 0], [1.0, 0.5, 0.5, 0.5, 0.5],
            "node 4: ancestor stage 0 != own stage 2 - 1",
            id="ancestor-on-wrong-stage",
        ),
        pytest.param(
            2, [1, 2, 2], [-1, 0, 0, 1, 1], [1.0, 0.5, 0.5, 0.25, 0.25],
            "node 2 at stage 1 has no children",
            id="inner-node-without-children",
        ),
        pytest.param(
            2, [1, 1, 0], [-1, 0], [1.0, 1.0],
            "node 1 at stage 1 has no children",
            id="empty-inner-stage",
        ),
        pytest.param(
            1, [1, 2], [-1, 0, 0], [1.0, 0.6, 0.5],
            "node 0: children probabilities sum 1.1 != 1",
            id="children-sum-mismatch",
        ),
        pytest.param(
            1, [1, 1, 1], [-1, 0, 1], [1.0, 1.0, 1.0],
            "nodes_per_stage must be horizon + 1 = 2 nonnegative counts starting at 1, "
            "got [1, 1, 1]",
            id="counts-wrong-length",
        ),
        pytest.param(
            1, [2, 1], [-1, -1, 0], [1.0, 1.0, 1.0],
            "nodes_per_stage must be horizon + 1 = 2 nonnegative counts starting at 1, "
            "got [2, 1]",
            id="root-count-2",
        ),
        pytest.param(
            2, [1, 2, -1], [-1, 0, 0], [1.0, 0.5, 0.5],
            "nodes_per_stage must be horizon + 1 = 3 nonnegative counts starting at 1, "
            "got [1, 2, -1]",
            id="negative-count",
        ),
        pytest.param(
            1, [1, 1], [1, 0], [1.0, 1.0],
            "node 0 must be the root (no ancestor)",
            id="root-named-as-child",
        ),
        pytest.param(
            1, [1, 2], [-1, 0, 0], [1.0 + 0.9e-9, 0.5 + 0.9e-9, 0.5 + 0.9e-9],
            "stage 1 probabilities sum 1.0000000018 != 1",
            id="stage-sum",
        ),
        pytest.param(
            1, [1, 1], [-1], [1.0, 1.0],
            "anc and prob must have 2 entries, one per node",
            id="unequal-lengths",
        ),
        pytest.param(
            1, [1, 1], [-1, 0], [0.5, 0.5], "root probability 0.5 != 1", id="root-probability",
        ),
        pytest.param(
            2, [1, 2, 2], [-1, 0, 0, 2, 1], [1.0, 0.5, 0.5, 0.5, 0.5],
            "node 4: ancestor 1 precedes node 3's ancestor 2",
            id="stage-out-of-parent-order",
        ),
    ])
    def test_exact_messages(self, horizon, counts, anc, prob, expected):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            ScenarioTree(
                horizon=horizon, n_demand=1, n_price=0, nodes_per_stage=np.array(counts),
                anc=np.array(anc), prob=np.array(prob), eps=np.zeros((len(anc), 1)),
            )

    @pytest.mark.parametrize("field, expected", [
        ("prob", "node probabilities must lie in (0, 1]"),
        ("eps", "prediction errors eps must be finite"),
    ])
    def test_nan_is_named(self, field, expected):
        tree = ScenarioTree.single_branch(horizon=2, n_demand=1, n_price=1)
        getattr(tree, field)[1] = np.nan
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            tree.validate()

    @pytest.mark.parametrize("changes, expected", [
        ({"eps": np.zeros((3, 1))}, "eps shape (3, 1) != (3, 2)"),
        ({"eps": np.ones((3, 2))}, "root prediction error must be zero"),
    ])
    def test_replaced_field_is_named(self, changes, expected):
        tree = ScenarioTree.single_branch(horizon=2, n_demand=1, n_price=1)
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            replace(tree, **changes)

    @pytest.mark.parametrize("changes, expected", [
        pytest.param({"horizon": 0}, "horizon must be an integer of at least 1, got 0",
                     id="horizon-0"),
        pytest.param({"horizon": 1.5}, "horizon must be an integer of at least 1, got 1.5",
                     id="horizon-float"),
        pytest.param({"horizon": True}, "horizon must be an integer of at least 1, got True",
                     id="horizon-bool"),
        pytest.param({"n_demand": -1, "n_price": 3},
                     "n_demand must be an integer of at least 0, got -1", id="n_demand-negative"),
        pytest.param({"n_price": 1.0}, "n_price must be an integer of at least 0, got 1.0",
                     id="n_price-float"),
        pytest.param({"nodes_per_stage": np.int64(3)},
                     "nodes_per_stage must be horizon + 1 = 3 nonnegative counts starting at 1, "
                     "got 3", id="counts-0d"),
        pytest.param({"anc": [[-1, 0, 1]]}, "anc and prob must be 1-d arrays", id="anc-2d"),
        pytest.param({"prob": 1.0}, "anc and prob must be 1-d arrays", id="prob-0d"),
        pytest.param({"nodes_per_stage": [1, 2.7, 1]},
                     "nodes_per_stage must hold integers, got float64 entries", id="counts-float"),
        pytest.param({"nodes_per_stage": [True, True, True]},
                     "nodes_per_stage must hold integers, got bool entries", id="counts-bool"),
        pytest.param({"anc": [-1, 0.4, 0.9]}, "anc must hold integers, got float64 entries",
                     id="anc-float"),
        pytest.param({"anc": np.array([-1, 0, 1], bool)}, "anc must hold integers, got bool "
                     "entries", id="anc-bool"),
        pytest.param({"prob": [True, True, True]},
                     "prob must hold real numbers, got bool entries", id="prob-bool"),
        pytest.param({"prob": ["1", "1", "1"]},
                     "prob must hold real numbers, got <U1 entries", id="prob-str"),
        pytest.param({"eps": np.zeros((3, 2), bool)},
                     "eps must hold real numbers, got bool entries", id="eps-bool"),
        pytest.param({"eps": [["0", "0"]] * 3},
                     "eps must hold real numbers, got <U1 entries", id="eps-str"),
    ])
    def test_bad_scalar_or_array_rank_is_named(self, changes, expected):
        tree = ScenarioTree.single_branch(horizon=2, n_demand=1, n_price=1)
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            replace(tree, **changes)

    @pytest.mark.parametrize("sizes, expected", [
        pytest.param(("2", 1, 0), "horizon must be an integer of at least 1, got '2'",
                     id="horizon-str"),
        pytest.param((2.0, 1, 0), "horizon must be an integer of at least 1, got 2.0",
                     id="horizon-float"),
        pytest.param((2, "1", 0), "n_demand must be an integer of at least 0, got '1'",
                     id="n_demand-str"),
    ])
    def test_single_branch_names_a_bad_size(self, sizes, expected):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            ScenarioTree.single_branch(*sizes)

    def test_numpy_integer_sizes_accepted(self):
        tree = ScenarioTree.single_branch(horizon=np.int64(2), n_demand=np.int32(1), n_price=0)
        assert tree.n_nonroot == 2


class TestFan:
    @pytest.mark.parametrize("values, n_demand, n_price, expected", [
        pytest.param(np.zeros((3, 2, 1)), -1, 2,
                     "n_demand must be an integer of at least 0, got -1", id="n_demand-negative"),
        pytest.param(np.zeros((3, 2, 1)), 1.0, 0,
                     "n_demand must be an integer of at least 0, got 1.0", id="n_demand-float"),
        pytest.param(np.zeros((3, 2, 1)), 0, True,
                     "n_price must be an integer of at least 0, got True", id="n_price-bool"),
        pytest.param(np.zeros((3, 0, 1)), 1, 0, "fan must span at least one stage",
                     id="no-stage"),
        pytest.param(np.full((3, 2, 1), np.nan), 1, 0, "fan values must be finite", id="nan"),
        pytest.param(np.full((3, 2, 1), np.inf), 1, 0, "fan values must be finite", id="inf"),
        pytest.param(np.zeros((3, 2)), 1, 0,
                     "fan values must be a 3-d array (scenario, stage, component)", id="2-d"),
        pytest.param(np.zeros((3, 2, 2)), 1, 0, "fan component dimension 2 != "
                     "n_demand + n_price = 1", id="too-wide"),
        pytest.param(np.zeros((0, 2, 1)), 1, 0, "fan must contain at least one scenario",
                     id="no-scenario"),
        pytest.param(np.ones((3, 2, 1), bool), 1, 0,
                     "values must hold real numbers, got bool entries", id="bool"),
        pytest.param(np.full((3, 2, 1), "1"), 1, 0,
                     "values must hold real numbers, got <U1 entries", id="str"),
    ])
    def test_bad_fan_is_named(self, values, n_demand, n_price, expected):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            ScenarioFan(values, n_demand=n_demand, n_price=n_price)

    def test_integer_numbers_are_stored_as_floats(self):
        tree = replace(ScenarioTree.single_branch(2, 1, 1), prob=[1, 1, 1],
                       eps=np.zeros((3, 2), int))
        fan = ScenarioFan(np.zeros((3, 2, 1), int), n_demand=1, n_price=0)
        assert tree.prob.dtype == tree.eps.dtype == fan.values.dtype == float

    def test_numpy_integer_sizes_accepted(self):
        fan = ScenarioFan(np.zeros((3, 2, 2)), n_demand=np.int64(1), n_price=np.int32(1))
        assert fan.horizon == 2


class TestAttachForecast:
    def test_zero_errors_reproduce_forecast(self):
        tree = ScenarioTree.single_branch(horizon=3, n_demand=2, n_price=1)
        d_hat = np.arange(6, dtype=float).reshape(3, 2)
        a_hat = np.array([[10.0], [20.0], [30.0]])
        demand, price = attach_forecast(tree, d_hat, a_hat)
        np.testing.assert_allclose(demand, d_hat)
        np.testing.assert_allclose(price, a_hat)

    def test_single_node_arithmetic(self):
        tree = ScenarioTree.single_branch(horizon=1, n_demand=1, n_price=1)
        tree.eps[1] = [0.1, -2.0]
        demand, price = attach_forecast(tree, np.array([[1.0]]), np.array([[30.0]]))
        assert demand.shape == price.shape == (1, 1)
        assert demand[0, 0] == pytest.approx(1.1)
        assert price[0, 0] == pytest.approx(28.0)

    def test_matches_node_loop_oracle(self, rng):
        tree = make_tree(rng, horizon=3, n_demand=2, n_price=3)
        d_hat = rng.random((3, 2))
        a_hat = rng.random((3, 3))
        demand, price = attach_forecast(tree, d_hat, a_hat)
        assert demand.shape == (tree.n_nonroot, 2) and price.shape == (tree.n_nonroot, 3)
        for i, j in enumerate(node_stages(tree)[1:], start=1):
            np.testing.assert_array_equal(demand[i - 1], d_hat[j - 1] + tree.eps[i, :2])
            np.testing.assert_array_equal(price[i - 1], a_hat[j - 1] + tree.eps[i, 2:])

    def test_affine_in_forecast(self, rng):
        tree = make_tree(rng, horizon=2, n_demand=2, n_price=1)
        d_hat = rng.random((2, 2))
        a_hat = rng.random((2, 1))
        shift = 0.37
        base, _ = attach_forecast(tree, d_hat, a_hat)
        moved, _ = attach_forecast(tree, d_hat + shift, a_hat)
        np.testing.assert_allclose(moved, base + shift)

    def test_dimension_mismatch(self):
        tree = ScenarioTree.single_branch(horizon=2, n_demand=1, n_price=1)
        with pytest.raises(ValueError, match="forecast shape"):
            attach_forecast(tree, np.ones((3, 1)), np.ones((2, 1)))


class TestReduce:
    def test_identical_scenarios_collapse(self):
        path = np.tile(np.array([[1.0, 2.0], [3.0, 4.0]]), (8, 1, 1))
        fan = ScenarioFan(path, n_demand=1, n_price=1)
        tree = reduce_fan_to_tree(fan, [3, 2])
        tree.validate()
        np.testing.assert_array_equal(tree.nodes_per_stage, [1, 1, 1])
        np.testing.assert_allclose(tree.prob, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(tree.eps[1:], path[0])

    def test_hand_run_four_scenarios(self):
        # Stage-1 values {-1, -1, +1, +1}: greedy selection picks scenario 0
        # then scenario 2; masses split evenly; centroids are exact.
        values = np.array([[[-1.0]], [[-1.0]], [[1.0]], [[1.0]]])
        fan = ScenarioFan(values, n_demand=1, n_price=0)
        tree = reduce_fan_to_tree(fan, [2])
        assert tree.nodes_per_stage[1] == 2
        np.testing.assert_allclose(tree.prob[1:], [0.5, 0.5])
        np.testing.assert_allclose(tree.eps[1:, 0], [-1.0, 1.0])

    def test_gaussian_fan_shape_and_mass(self, rng):
        fan = ScenarioFan(rng.standard_normal((1000, 3, 2)), n_demand=1, n_price=1)
        tree = reduce_fan_to_tree(fan, [5, 3, 2])
        tree.validate()
        assert tree.nodes_per_stage[-1] == 30
        for j in range(4):
            assert tree.prob[node_stages(tree) == j].sum() == pytest.approx(1.0, abs=1e-12)

    def test_one_branch_preserves_mean(self, rng):
        fan = ScenarioFan(rng.standard_normal((50, 4, 3)), n_demand=2, n_price=1)
        tree = reduce_fan_to_tree(fan, [1, 1, 1, 1])
        np.testing.assert_allclose(tree.eps[1:], fan.values.mean(axis=0), atol=1e-12)

    def test_bundle_smaller_than_branching_yields_fewer_children(self):
        # Stage 1 splits off scenario 4 alone; its bundle of one cannot
        # branch twice at stage 2 and keeps a single child.
        values = np.zeros((5, 2, 1))
        values[4, 0, 0] = 100.0
        values[:, 1, 0] = np.arange(5.0)
        fan = ScenarioFan(values, n_demand=1, n_price=0)
        tree = reduce_fan_to_tree(fan, [2, 2])
        tree.validate()
        np.testing.assert_array_equal(tree.nodes_per_stage, [1, 2, 3])
        np.testing.assert_allclose(tree.prob, [1.0, 0.8, 0.2, 0.4, 0.4, 0.2])

    def test_branching_exceeding_scenarios_rejected(self, rng):
        fan = ScenarioFan(rng.standard_normal((10, 2, 1)), n_demand=1, n_price=0)
        for branching in ([20], [2**32, 2**32]):  # 2**64 leaves, not 0
            with pytest.raises(ValueError, match="exceeds scenario count"):
                reduce_fan_to_tree(fan, branching)

    def test_branching_longer_than_horizon_rejected(self, rng):
        fan = ScenarioFan(rng.standard_normal((10, 2, 1)), n_demand=1, n_price=0)
        with pytest.raises(ValueError, match="horizon"):
            reduce_fan_to_tree(fan, [2, 2, 2])

    @pytest.mark.parametrize("branching", [[2.7], [True, 2], ["2"], [0]],
                             ids=["2.7", "True", "str", "0"])
    def test_branch_count_must_be_a_positive_integer(self, rng, branching):
        fan = ScenarioFan(rng.standard_normal((50, 2, 1)), n_demand=1, n_price=0)
        message = f"branch count must be an integer of at least 1, got {branching[0]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reduce_fan_to_tree(fan, branching)

    def test_empty_branching_rejected(self, rng):
        fan = ScenarioFan(rng.standard_normal((10, 2, 1)), n_demand=1, n_price=0)
        with pytest.raises(ValueError, match="^branching must name at least one stage$"):
            reduce_fan_to_tree(fan, [])

    def test_numpy_branch_counts_are_accepted(self, rng):
        fan = ScenarioFan(rng.standard_normal((50, 2, 1)), n_demand=1, n_price=0)
        tree = reduce_fan_to_tree(fan, np.array([3, 2]))
        np.testing.assert_array_equal(tree.nodes_per_stage, [1, 3, 6])

    def test_deterministic(self, rng):
        values = rng.standard_normal((200, 3, 2))
        fan = ScenarioFan(values, n_demand=1, n_price=1)
        t1 = reduce_fan_to_tree(fan, [4, 2, 2])
        t2 = reduce_fan_to_tree(ScenarioFan(values.copy(), 1, 1), [4, 2, 2])
        np.testing.assert_array_equal(t1.prob, t2.prob)
        np.testing.assert_array_equal(t1.eps, t2.eps)


class TestSelection:
    @pytest.mark.parametrize("kind", ["continuous", "duplicates", "symmetric"])
    def test_matches_reference_loop(self, rng, kind):
        for m in range(1, 61):
            dim = int(rng.integers(1, 4))
            if kind == "continuous":
                values = rng.standard_normal((m, dim))
            elif kind == "duplicates":
                distinct = rng.standard_normal((m // 3 + 1, dim))
                values = distinct[rng.integers(0, m // 3 + 1, m)]
            else:  # mirrored integer points: exact ties in distances and picks
                half = rng.integers(-2, 3, ((m + 1) // 2, dim)).astype(float)
                values = np.concatenate([half, -half])[:m]
            for weights in (np.full(m, 1.0 / m), rng.random(m) + 0.01):
                weights = weights / weights.sum()
                for count in range(1, min(m, 5) + 1):
                    slots = _fast_forward_select(values, weights, count)
                    np.testing.assert_array_equal(
                        slots, greedy_select_reference(values, weights, count),
                        err_msg=f"m={m} count={count}",
                    )

    def test_matches_reference_above_2000_members(self, rng):
        values = rng.standard_normal((2100, 1))
        weights = np.full(2100, 1.0 / 2100)
        slots = _fast_forward_select(values, weights, 4)
        np.testing.assert_array_equal(slots, greedy_select_reference(values, weights, 4))
        np.testing.assert_array_equal(np.unique(slots), np.arange(4))


class TestLeafPaths:
    def test_masses_match_reduction_bundles(self, rng):
        fan = ScenarioFan(rng.standard_normal((100, 2, 1)), n_demand=1, n_price=0)
        tree = reduce_fan_to_tree(fan, [4, 2])
        leaf_mass = tree.prob[node_stages(tree) == tree.horizon]
        assert leaf_mass.size == 8
        # Each leaf holds a whole bundle of the 100 equally weighted scenarios.
        np.testing.assert_allclose(leaf_mass * 100, np.round(leaf_mass * 100), atol=1e-9)
        assert leaf_mass.sum() == pytest.approx(1.0)


def test_zero_price_errors_keeps_demand_part(rng):
    tree = make_tree(rng, horizon=2, n_demand=2, n_price=2)
    out = zero_price_errors(tree)
    np.testing.assert_array_equal(out.eps[:, :2], tree.eps[:, :2])
    assert np.all(out.eps[:, 2:] == 0.0)
    out.validate()


def test_telescoping_exact(rng):
    tree = make_tree(rng, horizon=3, n_demand=1, n_price=1)
    for node in range(tree.n_nodes):
        kids = np.nonzero(tree.anc == node)[0]
        if kids.size:
            assert tree.prob[kids].sum() == pytest.approx(tree.prob[node], abs=1e-12)
