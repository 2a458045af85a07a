"""Tests for the network topology and LTI model."""

import re
from dataclasses import fields, replace

import numpy as np
import pytest

from watermpc.network import (
    ControlledFlow,
    MixingNode,
    NetworkModel,
    NetworkTopology,
    Tank,
    TopologyError,
    build_lti,
)

from conftest import make_model


def single_tank_topology():
    return NetworkTopology(
        tanks=(Tank(v_min=0.0, v_max=100.0, v_safe=20.0, inflows=(0,), demands=(0,)),),
        flows=(ControlledFlow("pump", q_max=0.1, alpha0=1.0),),
        n_demands=1,
    )


def coupled_model():
    """The single tank with a mixing node on its flow, so E and Ed have an entry."""
    topology = replace(single_tank_topology(), mixing_nodes=(MixingNode((0,), (), (0,)),))
    return build_lti(topology, 1.0)


class TestBuildLti:
    def test_single_tank(self):
        model = build_lti(single_tank_topology(), 3600.0)
        assert model.A == pytest.approx(np.array([[1.0]]))
        assert model.B == pytest.approx(np.array([[3600.0]]))
        assert model.Gd == pytest.approx(np.array([[-3600.0]]))
        assert model.E.shape == (0, 1)
        assert model.Ed.shape == (0, 1)
        assert model.u_min == pytest.approx([0.0])
        assert model.u_max == pytest.approx([0.1])

    def test_mixing_node_rows(self):
        # Inflow q0, controlled outflow q1, demand d0 at the node.
        topology = NetworkTopology(
            tanks=(Tank(0.0, 50.0, 10.0, outflows=(0,)),),
            flows=(
                ControlledFlow("pump", q_max=1.0),
                ControlledFlow("valve", q_max=1.0),
            ),
            n_demands=1,
            mixing_nodes=(MixingNode(inflows=(0,), outflows=(1,), demands=(0,)),),
        )
        model = build_lti(topology, 60.0)
        assert model.E == pytest.approx(np.array([[1.0, -1.0]]))
        assert model.Ed == pytest.approx(np.array([[-1.0]]))

    def test_city_scale_shapes(self):
        # 63 tanks, 114 controlled flows, 88 demands, 17 mixing nodes.
        tanks = tuple(
            Tank(0.0, 1e4, 1e3, inflows=(i,), demands=(i % 88,)) for i in range(63)
        )
        # Flows 63..113 are wired through the 17 mixing nodes, three each.
        mixing = tuple(
            MixingNode(inflows=(63 + 3 * s,), outflows=(64 + 3 * s, 65 + 3 * s))
            for s in range(17)
        )
        topology = NetworkTopology(
            tanks=tanks,
            flows=tuple(ControlledFlow("pump", 1.0) for _ in range(114)),
            n_demands=88,
            mixing_nodes=mixing,
        )
        model = build_lti(topology, 3600.0)
        assert model.A.shape == (63, 63)
        assert model.B.shape == (63, 114)
        assert model.Gd.shape == (63, 88)
        assert model.E.shape == (17, 114)
        assert model.Ed.shape == (17, 88)

    def test_tank_to_tank_flow_allowed(self):
        topology = NetworkTopology(
            tanks=(
                Tank(0.0, 10.0, 1.0, inflows=(0,), outflows=(1,)),
                Tank(0.0, 10.0, 1.0, inflows=(1,), demands=(0,)),
            ),
            flows=(ControlledFlow("pump", 1.0), ControlledFlow("pump", 1.0)),
            n_demands=1,
        )
        model = build_lti(topology, 2.0)
        np.testing.assert_allclose(model.B[:, 1], [-2.0, 2.0])

    def test_flow_in_and_out_of_same_tank_rejected(self):
        topology = NetworkTopology(
            tanks=(Tank(0.0, 10.0, 1.0, inflows=(0,), outflows=(0,)),),
            flows=(ControlledFlow("pump", 1.0),),
            n_demands=1,
        )
        with pytest.raises(TopologyError, match="both inflow and outflow"):
            build_lti(topology, 1.0)

    def test_flow_in_and_out_of_same_mixing_node_rejected(self):
        # Accepted, flow 1 would be a phantom input: zero in both B and E.
        topology = NetworkTopology(
            tanks=(Tank(0.0, 10.0, 1.0, outflows=(0,)),
                   Tank(0.0, 10.0, 1.0, inflows=(2,), demands=(0,))),
            flows=(ControlledFlow("pump", 1.0),) * 3,
            n_demands=1,
            mixing_nodes=(MixingNode(inflows=(0, 1), outflows=(1, 2)),),
        )
        with pytest.raises(TopologyError,
                           match="^mixing node 0: flow 1 is both inflow and outflow$"):
            build_lti(topology, 1.0)

    def test_flow_between_mixing_nodes_rejected(self):
        # Flow 1 runs from mixing node 0 into mixing node 1: two rows of E.
        topology = NetworkTopology(
            tanks=(Tank(0.0, 10.0, 1.0, outflows=(0,)),
                   Tank(0.0, 10.0, 1.0, inflows=(2,), demands=(0,))),
            flows=(ControlledFlow("pump", 1.0),) * 3,
            n_demands=1,
            mixing_nodes=(MixingNode(inflows=(0,), outflows=(1,)),
                          MixingNode(inflows=(1,), outflows=(2,))),
        )
        with pytest.raises(ValueError, match="^flow 1 appears in more than one mixing row"):
            build_lti(topology, 1.0)

    def test_mixing_node_without_outgoing_rejected(self):
        topology = NetworkTopology(
            tanks=(Tank(0.0, 10.0, 1.0, outflows=(0,), demands=(0,)),),
            flows=(ControlledFlow("pump", 1.0), ControlledFlow("pump", 1.0)),
            n_demands=1,
            mixing_nodes=(MixingNode(inflows=(0, 1)),),
        )
        with pytest.raises(TopologyError, match="no outgoing"):
            build_lti(topology, 1.0)

    def test_unreferenced_flow_rejected(self):
        topology = NetworkTopology(
            tanks=(Tank(0.0, 10.0, 1.0, inflows=(0,), demands=(0,)),),
            flows=(ControlledFlow("pump", 1.0), ControlledFlow("pump", 1.0)),
            n_demands=1,
        )
        with pytest.raises(TopologyError, match="no incidence list"):
            build_lti(topology, 1.0)

    @pytest.mark.parametrize("topology, message", [
        pytest.param(replace(single_tank_topology(), tanks=()),
                     "need at least one tank, one controlled flow and one demand", id="no-tank"),
        pytest.param(replace(single_tank_topology(), flows=(ControlledFlow("turbine", 0.1),)),
                     "flow 0: kind must be 'pump' or 'valve'", id="bad-kind"),
        pytest.param(replace(single_tank_topology(), mixing_nodes=(MixingNode((), (), (0,)),)),
                     "mixing node 0 has no incoming flow", id="node-without-inflow"),
    ])
    def test_malformed_topology_rejected(self, topology, message):
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            build_lti(topology, 1.0)

    def test_bad_safety_ordering_rejected(self):
        topology = NetworkTopology(
            tanks=(Tank(0.0, 10.0, 11.0, inflows=(0,), demands=(0,)),),
            flows=(ControlledFlow("pump", 1.0),),
            n_demands=1,
        )
        with pytest.raises(TopologyError, match="v_min <= v_safe <= v_max"):
            build_lti(topology, 1.0)

    @pytest.mark.parametrize("dt, message", [
        pytest.param(0.0, "dt must be positive and finite, got 0.0", id="0"),
        pytest.param(np.nan, "dt must be positive and finite, got nan", id="nan"),
        pytest.param(np.inf, "dt must be positive and finite, got inf", id="inf"),
        pytest.param(True, "dt must be positive and finite, got True", id="True"),
    ])
    def test_nonpositive_dt_rejected(self, dt, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_lti(single_tank_topology(), dt)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(build_lti(single_tank_topology(), 1.0), dt=dt)

    @pytest.mark.parametrize("q_max, alpha0, message", [
        pytest.param(np.nan, 1.0, "flow 0: q_max must be positive", id="nan-q_max"),
        pytest.param(0.1, np.nan, "flow 0: alpha0 must be finite", id="nan-alpha0"),
        pytest.param(0.1, -np.inf, "flow 0: alpha0 must be finite", id="inf-alpha0"),
    ])
    def test_non_finite_flow_rejected(self, q_max, alpha0, message):
        topology = replace(
            single_tank_topology(), flows=(ControlledFlow("pump", q_max, alpha0),)
        )
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            build_lti(topology, 1.0)

    def test_unlimited_capacity_allowed(self):
        topology = replace(single_tank_topology(), flows=(ControlledFlow("pump", np.inf),))
        assert build_lti(topology, 1.0).u_max == pytest.approx([np.inf])

    @pytest.mark.parametrize("tank, node, message", [
        pytest.param(
            Tank(0.0, 10.0, 1.0, inflows=(0, -1), demands=(0,)), MixingNode((1,), (2,)),
            "controlled flow index -1 out of range [0, 3)", id="negative-flow-in-tank",
        ),
        pytest.param(
            Tank(0.0, 10.0, 1.0, inflows=(0,), demands=(0,)), MixingNode((1,), (2, 3)),
            "controlled flow index 3 out of range [0, 3)", id="flow-in-node",
        ),
        pytest.param(
            Tank(0.0, 10.0, 1.0, inflows=(0,), demands=(0,)), MixingNode((1,), (2,), (-1,)),
            "demand index -1 out of range [0, 1)", id="negative-demand-in-node",
        ),
        pytest.param(
            Tank(0.0, 10.0, 1.0, inflows=(0,), demands=(1,)), MixingNode((1,), (2,)),
            "demand index 1 out of range [0, 1)", id="demand-in-tank",
        ),
    ])
    def test_index_out_of_range_rejected(self, tank, node, message):
        # numpy would take -1 as the last column, so each index is checked.
        topology = NetworkTopology(
            tanks=(tank,),
            flows=tuple(ControlledFlow("pump", 1.0) for _ in range(3)),
            n_demands=1,
            mixing_nodes=(node,),
        )
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            build_lti(topology, 1.0)

    def test_model_checks_itself_on_construction(self):
        model = build_lti(single_tank_topology(), 1.0)
        with pytest.raises(ValueError, match="x_min <= x_safe <= x_max"):
            replace(model, x_safe=np.array([101.0]))
        with pytest.raises(ValueError, match="alpha0 must have shape"):
            replace(model, alpha0=np.zeros(2))

    @pytest.mark.parametrize("name, value, message", [
        ("A", np.zeros((1, 2)), "A must be square, got (1, 2)"),
        ("B", np.zeros((2, 1)), "B shape (2, 1) inconsistent with 1 tanks"),
        ("Gd", np.zeros((2, 1)), "Gd shape (2, 1) inconsistent with 1 tanks"),
        ("E", np.zeros((2, 1)), "coupling shapes E(2, 1), Ed(1, 1) inconsistent"),
        ("u_min", np.array([1.0]), "u_min must not exceed u_max"),
    ])
    def test_inconsistent_model_is_named(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(coupled_model(), **{name: value})

    @pytest.mark.parametrize("x_safe", [-1.0, 101.0])
    def test_model_with_safety_level_outside_bounds_rejected(self, x_safe):
        # A model built in code, not from a topology, gets the same check.
        model = build_lti(single_tank_topology(), 1.0)
        model.x_safe = np.array([x_safe])
        with pytest.raises(ValueError, match="x_min <= x_safe <= x_max"):
            model.validate()

    def test_model_with_non_finite_entries_rejected(self):
        model = build_lti(single_tank_topology(), 1.0)
        nan = np.array([np.nan])
        with pytest.raises(ValueError, match="^x_max must not be NaN$"):
            replace(model, B=np.array([[np.nan]]), x_max=nan, u_max=nan, alpha0=np.array([np.inf]))

    @pytest.mark.parametrize("name", [
        "A", "B", "Gd", "E", "Ed", "x_min", "x_max", "x_safe", "u_min", "u_max", "alpha0",
    ])
    def test_nan_entry_is_named(self, name):
        model = coupled_model()
        bad = getattr(model, name).copy()
        bad.flat[0] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must (be finite|not be NaN)$"):
            replace(model, **{name: bad})

    @pytest.mark.parametrize("name", ["A", "B", "Gd", "E", "Ed", "x_safe", "alpha0"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_entry_is_named(self, name, value):
        model = coupled_model()
        bad = getattr(model, name).copy()
        bad.flat[0] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            replace(model, **{name: bad})

    def test_model_accepts_array_likes(self):
        model = coupled_model()
        as_lists = {
            f.name: getattr(model, f.name).tolist() if f.name != "dt" else model.dt
            for f in fields(model)
        }
        twin = NetworkModel(**as_lists)
        for f in fields(model):
            np.testing.assert_array_equal(getattr(twin, f.name), getattr(model, f.name))
            assert np.asarray(getattr(twin, f.name)).dtype == float, f.name

    @pytest.mark.parametrize("name, value", [
        ("B", [[1.0], [1.0, 2.0]]),
        ("u_max", ["fast"]),
    ], ids=["ragged-B", "string-u_max"])
    def test_non_numeric_field_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an array of numbers"):
            replace(coupled_model(), **{name: value})

    def test_infinite_bounds_allowed(self):
        model = build_lti(single_tank_topology(), 1.0)
        widened = replace(
            model, x_min=np.array([-np.inf]), x_max=np.array([np.inf]),
            u_min=np.array([-np.inf]), u_max=np.array([np.inf]),
        )
        assert widened.u_max == pytest.approx([np.inf])


class TestStepDynamics:
    def test_single_tank_step(self):
        model = build_lti(single_tank_topology(), 3600.0)
        x1 = model.step_dynamics(np.array([10.0]), np.array([0.002]), np.array([0.001]))
        assert x1 == pytest.approx([13.6])

    def test_identity_case(self):
        model = build_lti(single_tank_topology(), 3600.0)
        x1 = model.step_dynamics(np.array([42.0]), np.array([0.0]), np.array([0.0]))
        assert x1 == pytest.approx([42.0])

    def test_against_triple_loop_oracle(self, rng):
        model = make_model(rng, n_tanks=5, n_inputs=4, n_demands=3, identity_a=False)
        x = rng.standard_normal(5)
        u = rng.standard_normal(4)
        d = rng.standard_normal(3)
        expected = np.zeros(5)
        for i in range(5):
            for j in range(5):
                expected[i] += model.A[i, j] * x[j]
            for j in range(4):
                expected[i] += model.B[i, j] * u[j]
            for j in range(3):
                expected[i] += model.Gd[i, j] * d[j]
        np.testing.assert_allclose(model.step_dynamics(x, u, d), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        model = build_lti(single_tank_topology(), 3600.0)
        x, u, d = np.array([1.0]), np.array([1.0]), np.array([0.0])
        for args, message in (((x, [1.0, 2.0], d), "input must have shape (1,), got (2,)"),
                              ((x[:0], u, d), "state must have shape (1,), got (0,)"),
                              ((x, u, [d]), "demand must have shape (1,), got (1, 1)")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                model.step_dynamics(*args)

    def test_mass_conservation_on_transfer(self):
        # A tank-to-tank flow moves volume without creating or destroying it.
        topology = NetworkTopology(
            tanks=(
                Tank(0.0, 10.0, 1.0, outflows=(0,)),
                Tank(0.0, 10.0, 1.0, inflows=(0,), demands=(0,)),
            ),
            flows=(ControlledFlow("pump", 1.0),),
            n_demands=1,
        )
        model = build_lti(topology, 3.0)
        x = np.array([5.0, 2.0])
        x1 = model.step_dynamics(x, np.array([0.4]), np.array([0.0]))
        assert x1.sum() == pytest.approx(x.sum())
        assert x1 == pytest.approx([5.0 - 1.2, 2.0 + 1.2])


class TestCouplingResidual:
    def topology(self):
        return NetworkTopology(
            tanks=(Tank(0.0, 50.0, 10.0, outflows=(0,)),),
            flows=(ControlledFlow("pump", 1.0), ControlledFlow("valve", 1.0)),
            n_demands=1,
            mixing_nodes=(MixingNode(inflows=(0,), outflows=(1,), demands=(0,)),),
        )

    def test_balanced_node(self):
        model = build_lti(self.topology(), 1.0)
        r = model.coupling_residual(np.array([0.5, 0.3]), np.array([0.2]))
        assert r == pytest.approx([0.0])

    def test_unbalanced_node(self):
        model = build_lti(self.topology(), 1.0)
        r = model.coupling_residual(np.array([0.5, 0.5]), np.array([0.2]))
        assert r == pytest.approx([-0.2])

    @pytest.mark.parametrize("u, d, message", [
        ([0.5], [0.2], "input must have shape (2,), got (1,)"),
        ([0.5, 0.3], [0.2, 0.0], "demand must have shape (1,), got (2,)"),
    ])
    def test_dimension_mismatch(self, u, d, message):
        model = build_lti(self.topology(), 1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model.coupling_residual(u, d)

    def test_against_loop_oracle(self, rng):
        model = make_model(rng, n_tanks=3, n_inputs=5, n_demands=4, n_mixing=2)
        u = rng.standard_normal(5)
        d = rng.standard_normal(4)
        expected = np.zeros(2)
        for s in range(2):
            for j in range(5):
                expected[s] += model.E[s, j] * u[j]
            for j in range(4):
                expected[s] += model.Ed[s, j] * d[j]
        np.testing.assert_allclose(model.coupling_residual(u, d), expected, atol=1e-14)

    def test_linearity(self, rng):
        model = make_model(rng, n_tanks=3, n_inputs=5, n_demands=4, n_mixing=2)
        u = rng.standard_normal(5)
        d = rng.standard_normal(4)
        lam = 3.7
        np.testing.assert_allclose(
            model.coupling_residual(lam * u, lam * d),
            lam * model.coupling_residual(u, d),
            atol=1e-12,
        )


def test_b_columns_touch_exactly_their_tanks():
    topology = NetworkTopology(
        tanks=(
            Tank(0.0, 10.0, 1.0, inflows=(0,), outflows=(1,)),
            Tank(0.0, 10.0, 1.0, inflows=(1,), demands=(0,)),
        ),
        flows=(ControlledFlow("pump", 1.0), ControlledFlow("pump", 1.0)),
        n_demands=1,
    )
    dt = 7.0
    model = build_lti(topology, dt)
    for col in model.B.T:
        assert set(np.round(col, 12)) <= {-dt, 0.0, dt}
