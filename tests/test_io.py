"""Round-trip and error-path tests for the JSON document contracts."""

import json

import numpy as np
import pytest

import watermpc.io as wio
from watermpc.demo import build_demo, write_demo
from watermpc.io import SchemaError


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    bundle = build_demo("tank1", h_sim=30)
    write_demo(bundle, out)
    return out


class TestRoundTrips:
    def test_network(self, demo_dir, tmp_path):
        model = wio.load_network(demo_dir / "network.json")
        # tank1 has no mixing node: its empty E and Ed are zero coupling rows.
        assert model.E.shape == (0, model.n_inputs)
        assert model.Ed.shape == (0, model.n_demands)
        wio.save_network(model, tmp_path / "n2.json")
        model2 = wio.load_network(tmp_path / "n2.json")
        for attr in ("A", "B", "Gd", "E", "Ed", "x_min", "x_max", "x_safe",
                     "u_min", "u_max", "alpha0"):
            np.testing.assert_array_equal(getattr(model, attr), getattr(model2, attr))
        assert model.dt == model2.dt
        # Byte-identical documents after one normalization pass.
        wio.save_network(model2, tmp_path / "n3.json")
        assert (tmp_path / "n2.json").read_bytes() == (tmp_path / "n3.json").read_bytes()

    def test_tree(self, demo_dir, tmp_path):
        tree = wio.load_tree(demo_dir / "scenarioTree.json")
        wio.save_tree(tree, tmp_path / "t2.json")
        tree2 = wio.load_tree(tmp_path / "t2.json")
        np.testing.assert_array_equal(tree.anc, tree2.anc)
        np.testing.assert_array_equal(tree.prob, tree2.prob)
        np.testing.assert_array_equal(tree.eps, tree2.eps)
        wio.save_tree(tree2, tmp_path / "t3.json")
        assert (tmp_path / "t2.json").read_bytes() == (tmp_path / "t3.json").read_bytes()

    def test_forecast(self, demo_dir, tmp_path):
        fs = wio.load_forecast(demo_dir / "forecaster.json")
        wio.save_forecast(fs, tmp_path / "f2.json")
        fs2 = wio.load_forecast(tmp_path / "f2.json")
        np.testing.assert_array_equal(fs.d_hat, fs2.d_hat)
        np.testing.assert_array_equal(fs.alpha_hat, fs2.alpha_hat)
        wio.save_forecast(fs2, tmp_path / "f3.json")
        assert (tmp_path / "f2.json").read_bytes() == (tmp_path / "f3.json").read_bytes()

    def test_controller_config(self, demo_dir, tmp_path):
        horizon, weights, solver = wio.load_controller_config(demo_dir / "controllerconfig.json")
        wio.save_controller_config(horizon, weights, solver, tmp_path / "c2.json")
        h2, w2, s2 = wio.load_controller_config(tmp_path / "c2.json")
        assert h2 == horizon
        assert w2.w_alpha == weights.w_alpha and w2.w_s == weights.w_s
        assert s2.max_iter == solver.max_iter and s2.tol == solver.tol
        wio.save_controller_config(h2, w2, s2, tmp_path / "c3.json")
        assert (tmp_path / "c2.json").read_bytes() == (tmp_path / "c3.json").read_bytes()
        assert "gamma" not in json.loads((tmp_path / "c2.json").read_text())

    def test_control_output(self, tmp_path, rng):
        from watermpc.solver import SolverResult

        res = SolverResult(
            u0=rng.random(3),
            primal_avg=np.zeros(1),
            dual=np.zeros(1),
            iterations=17,
            termination="converged",
            primal_residual=1.25e-3,
            dual_change=3.5e-7,
            duality_gap=0.5,
            objective=123.0,
            solve_time_s=0.25,
            gamma=np.full(2, 1e-3),
        )
        wio.save_control_output(res, tmp_path / "o1.json")
        doc = wio.load_control_output(tmp_path / "o1.json")
        np.testing.assert_array_equal(doc["u0"], res.u0)
        assert doc["iterations"] == 17
        assert doc["terminationReason"] == "converged"
        assert doc["solveTimeMs"] == pytest.approx(250.0)
        # round trip bytes
        text1 = (tmp_path / "o1.json").read_bytes()
        raw = json.loads(text1)
        (tmp_path / "o2.json").write_text(json.dumps(raw, indent=2, allow_nan=False) + "\n")
        assert (tmp_path / "o2.json").read_bytes() == text1

    def test_state(self, demo_dir, tmp_path):
        x, u_prev, k = wio.load_state(demo_dir / "state.json")
        wio.save_state(x, u_prev, k, tmp_path / "s2.json")
        x2, u2, k2 = wio.load_state(tmp_path / "s2.json")
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(u_prev, u2)
        assert k == k2

    def test_realizations(self, demo_dir, tmp_path):
        real = wio.load_realizations(demo_dir / "realizations.json")
        wio.save_realizations(
            real["demand"], real["price"], real["forecastDemand"], real["forecastPrice"],
            tmp_path / "r2.json",
        )
        real2 = wio.load_realizations(tmp_path / "r2.json")
        for key in ("demand", "price", "forecastDemand", "forecastPrice"):
            np.testing.assert_array_equal(real[key], real2[key])

    def test_fan(self, demo_dir, tmp_path):
        fan = wio.load_fan(demo_dir / "fan.json")
        wio.save_fan(fan, tmp_path / "fan2.json")
        fan2 = wio.load_fan(tmp_path / "fan2.json")
        np.testing.assert_array_equal(fan.values, fan2.values)
        assert (fan.n_demand, fan.n_price) == (fan2.n_demand, fan2.n_price)

    def test_simlog(self, tmp_path, rng):
        from watermpc.simulate import SimulationLog

        h = 3
        log = SimulationLog(
            x=rng.random((h + 1, 2)),
            u=rng.random((h, 3)),
            demand=rng.random((h, 2)),
            price=rng.random((h, 3)),
            solve_time_s=rng.random(h),
            iterations=np.array([25, 400, 1000]),
            primal_residual=rng.random(h),
            alpha0=rng.random(3),
            x_safe=rng.random(2),
            coupling_residual=rng.random(h),
            termination=np.array(["converged", "max_iter", "converged"], dtype=object),
        )
        wio.save_simlog(log, tmp_path / "l1.json")
        log2 = wio.load_simlog(tmp_path / "l1.json")
        for attr in ("x", "u", "demand", "price", "solve_time_s", "iterations",
                     "primal_residual", "alpha0", "x_safe", "coupling_residual",
                     "termination"):
            np.testing.assert_array_equal(getattr(log, attr), getattr(log2, attr))
        assert log2.termination.dtype == object
        wio.save_simlog(log2, tmp_path / "l2.json")
        assert (tmp_path / "l1.json").read_bytes() == (tmp_path / "l2.json").read_bytes()
        # A document written without termination reasons still loads.
        doc = json.loads((tmp_path / "l1.json").read_text())
        del doc["termination"]
        (tmp_path / "l3.json").write_text(json.dumps(doc))
        log3 = wio.load_simlog(tmp_path / "l3.json")
        assert log3.termination.shape == (0,)
        np.testing.assert_array_equal(log3.u, log.u)
        doc["termination"] = ["converged"]
        (tmp_path / "l4.json").write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="/termination"):
            wio.load_simlog(tmp_path / "l4.json")

    def test_kpi(self, tmp_path):
        wio.save_kpi(1.5, 0.0, 0.125, tmp_path / "kpi.json")
        doc = wio.load_kpi(tmp_path / "kpi.json")
        assert doc == {"kpiE": 1.5, "kpiS": 0.0, "kpiTauSeconds": 0.125}


class TestErrorPaths:
    def test_truncated_json_reports_byte_offset(self, demo_dir, tmp_path):
        text = (demo_dir / "network.json").read_text()
        broken = tmp_path / "broken.json"
        broken.write_text(text[: len(text) // 2])
        with pytest.raises(SchemaError, match="byte"):
            wio.load_network(broken)

    def test_missing_field_names_pointer(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"schemaVersion": 1}\n')
        with pytest.raises(SchemaError, match="/A"):
            wio.load_network(tmp_path / "bad.json")

    def test_ragged_matrix_rejected(self, tmp_path):
        doc = {"schemaVersion": 1, "horizon": 2, "dHat": [[1.0], [1.0, 2.0]], "alphaHat": [[1.0], [1.0]]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="/dHat"):
            wio.load_forecast(path)

    def test_empty_dhat_rejected(self, tmp_path):
        doc = {"schemaVersion": 1, "horizon": 0, "dHat": [], "alphaHat": []}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="dHat"):
            wio.load_forecast(path)

    @pytest.mark.parametrize("key, d_hat, alpha_hat", [
        ("dHat", [[], []], [[1.0], [1.0]]),
        ("alphaHat", [[1.0], [1.0]], [[], []]),
    ])
    def test_empty_forecast_rows_reported_at_their_key(self, tmp_path, key, d_hat, alpha_hat):
        doc = {"schemaVersion": 1, "horizon": 2, "dHat": d_hat, "alphaHat": alpha_hat}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"^/{key}: {key} must not be empty$"):
            wio.load_forecast(path)

    def test_non_finite_rejected_on_load(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"schemaVersion": 1, "horizon": 1, "dHat": [[NaN]], "alphaHat": [[1.0]]}')
        with pytest.raises(SchemaError, match="non-finite"):
            wio.load_forecast(path)

    def test_non_finite_rejected_on_save(self, tmp_path):
        from watermpc.forecast import ForecastSeries

        fs = ForecastSeries(d_hat=np.array([[1.0]]), alpha_hat=np.array([[1.0]]))
        fs.alpha_hat[0, 0] = np.inf
        with pytest.raises(ValueError):
            wio.save_forecast(fs, tmp_path / "f.json")

    def test_fixed_dual_step_rejected(self, demo_dir, tmp_path):
        doc = json.loads((demo_dir / "controllerconfig.json").read_text())
        path = tmp_path / "c.json"
        doc["gamma"] = None
        path.write_text(json.dumps(doc))
        _, _, solver = wio.load_controller_config(path)
        assert solver.max_iter == doc["maxIter"]
        doc["gamma"] = 1e-3
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="^/gamma: "):
            wio.load_controller_config(path)

    @pytest.mark.parametrize("key, value", [
        ("tol", 0.0), ("maxIter", 0), ("Walpha", 0.0), ("Ws", -1.0), ("Wx", -1.0),
        ("Wu", -1.0), ("Walpha", "1.0"), ("tol", "0.05"),
    ])
    def test_config_error_names_its_key(self, demo_dir, tmp_path, key, value):
        doc = json.loads((demo_dir / "controllerconfig.json").read_text())
        doc[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            wio.load_controller_config(path)
        assert err.value.pointer == f"/{key}"

    @pytest.mark.parametrize("name, key", [
        ("realizations.json", "forecastDemand"),
        ("realizations.json", "forecastPrice"),
        ("fan.json", "scenarios"),
    ])
    @pytest.mark.parametrize("literal, message", [
        ("true", "expected a number"),
        ('"12.5"', "expected a number"),
        ("1e400", "number must be finite"),
    ])
    def test_bad_item_in_tensor_names_its_pointer(
        self, demo_dir, tmp_path, name, key, literal, message
    ):
        load = wio.load_fan if name == "fan.json" else wio.load_realizations
        doc = json.loads((demo_dir / name).read_text())
        doc[key][0][1][0] = 3  # integers are numbers too
        doc[key][5][3][0] = "@"
        path = tmp_path / name
        path.write_text(json.dumps(doc).replace('"@"', literal))
        with pytest.raises(SchemaError) as err:
            load(path)
        assert str(err.value) == f"/{key}/5/3/0: {message}"
        # The same tensor with a plain number there loads value for value.
        path.write_text(json.dumps(doc).replace('"@"', "0.25"))
        doc[key][5][3][0] = 0.25
        loaded = load(path)
        values = loaded.values if name == "fan.json" else loaded[key]
        np.testing.assert_array_equal(values, np.array(doc[key]))

    @pytest.mark.parametrize("literal, message", [
        ("true", "expected a number"),
        ('"0.5"', "expected a number"),
        ("1e400", "number must be finite"),
        pytest.param("1" + "0" * 400, "number must be finite", id="int-beyond-float"),
    ])
    def test_bad_item_in_large_matrix_names_its_pointer(self, tmp_path, literal, message):
        rng = np.random.default_rng(5)
        d_hat = rng.random((400, 36)).tolist()
        d_hat[7][3] = 2  # integers are numbers too
        d_hat[321][17] = "@"
        doc = {"schemaVersion": 1, "horizon": 400, "dHat": d_hat,
               "alphaHat": rng.random((400, 3)).tolist()}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        with pytest.raises(SchemaError) as err:
            wio.load_forecast(path)
        assert str(err.value) == f"/dHat/321/17: {message}"
        # The same matrix with a plain number there loads value for value.
        path.write_text(json.dumps(doc).replace('"@"', "0.25"))
        d_hat[321][17] = 0.25
        np.testing.assert_array_equal(wio.load_forecast(path).d_hat, np.array(d_hat))

    @pytest.mark.parametrize("name, key", [
        ("controllerconfig.json", "tol"),
        ("controllerconfig.json", "Walpha"),
        ("controllerconfig.json", "Wu"),
        ("network.json", "dt"),
        ("kpi.json", "kpiE"),
    ])
    def test_integer_beyond_float_range_names_its_key(self, demo_dir, tmp_path, name, key):
        load = {"controllerconfig.json": wio.load_controller_config,
                "network.json": wio.load_network, "kpi.json": wio.load_kpi}[name]
        if name == "kpi.json":
            wio.save_kpi(1.5, 0.0, 0.125, tmp_path / name)
            doc = json.loads((tmp_path / name).read_text())
        else:
            doc = json.loads((demo_dir / name).read_text())
        doc[key] = "@"
        path = tmp_path / name
        path.write_text(json.dumps(doc).replace('"@"', "1" + "0" * 400))
        with pytest.raises(SchemaError) as err:
            load(path)
        assert err.value.pointer == f"/{key}"
        assert str(err.value).endswith("number must be finite")

    @pytest.mark.parametrize("key", ["demandValues", "priceValues"])
    def test_tree_node_values_rejected(self, demo_dir, tmp_path, key):
        doc = json.loads((demo_dir / "scenarioTree.json").read_text())
        path = tmp_path / "t.json"
        doc[key] = None  # a null entry carries nothing and loads
        path.write_text(json.dumps(doc))
        wio.load_tree(path)
        doc[key] = [[1.0]] * len(doc["ancestor"])
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            wio.load_tree(path)
        assert err.value.pointer == f"/{key}"

    @pytest.mark.parametrize("key, index, literal, message", [
        ("nodesPerStage", 2, "-2", "count -2 is negative"),
        ("nodesPerStage", 1, "2.0", "expected an integer, got float"),
        ("nodesPerStage", 1, "true", "expected an integer, got bool"),
        ("ancestor", 3, "0.5", "expected an integer, got float"),
        ("ancestor", 3, "false", "expected an integer, got bool"),
        ("ancestor", 3, '"1"', "expected an integer, got str"),
        ("ancestor", 3, "1" + "0" * 30, "integer out of range"),
    ])
    def test_tree_integer_fields(self, demo_dir, tmp_path, key, index, literal, message):
        doc = json.loads((demo_dir / "scenarioTree.json").read_text())
        if key == "nodesPerStage":  # the stage counts keep their total
            doc[key][1] += doc[key][2] + 2
        doc[key][index] = "@"
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        with pytest.raises(SchemaError) as err:
            wio.load_tree(path)
        assert err.value.pointer == f"/{key}/{index}"
        assert str(err.value) == f"/{key}/{index}: {message}"

    @pytest.mark.parametrize("index, literal, message", [
        (1, "-1", "count -1 is negative"),
        (0, "2.5", "expected an integer, got float"),
        (0, "true", "expected an integer, got bool"),
    ])
    def test_simlog_iterations_are_counts(self, tmp_path, index, literal, message):
        from watermpc.simulate import SimulationLog

        log = SimulationLog(
            x=np.zeros((3, 1)), u=np.zeros((2, 1)), demand=np.zeros((2, 1)),
            price=np.zeros((2, 1)), solve_time_s=np.zeros(2), iterations=np.array([3, 4]),
            primal_residual=np.zeros(2), alpha0=np.zeros(1), x_safe=np.zeros(1),
            coupling_residual=np.zeros(2),
        )
        wio.save_simlog(log, tmp_path / "l.json")
        doc = json.loads((tmp_path / "l.json").read_text())
        assert wio.load_simlog(tmp_path / "l.json").iterations.tolist() == [3, 4]
        doc["iterations"][index] = "@"
        (tmp_path / "l.json").write_text(json.dumps(doc).replace('"@"', literal))
        with pytest.raises(SchemaError) as err:
            wio.load_simlog(tmp_path / "l.json")
        assert err.value.pointer == f"/iterations/{index}"
        assert str(err.value).endswith(message)

    @pytest.mark.parametrize("key, edit", [
        ("forecastPrice", lambda t: t[:1]),
        ("forecastPrice", lambda t: [step[:-1] for step in t]),
        ("forecastPrice", lambda t: [[row + [0.0] for row in step] for step in t]),
        ("forecastDemand", lambda t: [[row + [0.0] for row in step] for step in t]),
        pytest.param("forecastDemand", None, id="forecastDemand-deleted"),
        pytest.param("forecastPrice", None, id="forecastPrice-deleted"),
    ])
    def test_forecast_tensors_must_agree(self, demo_dir, tmp_path, key, edit):
        doc = json.loads((demo_dir / "realizations.json").read_text())
        if edit is None:
            del doc[key]
        else:
            doc[key] = edit(doc[key])
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            wio.load_realizations(path)
        assert err.value.pointer == f"/{key}"

    def test_tree_without_errors_rejected(self, demo_dir, tmp_path):
        doc = json.loads((demo_dir / "scenarioTree.json").read_text())
        del doc["errorValues"]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            wio.load_tree(path)
        assert err.value.pointer == "/errorValues"

    def test_network_labels_ignored(self, demo_dir, tmp_path):
        doc = json.loads((demo_dir / "network.json").read_text())
        doc["tankNames"], doc["flowNames"] = 5, "T1"
        path = tmp_path / "n.json"
        path.write_text(json.dumps(doc))
        assert wio.load_network(path).n_tanks == 1

    def test_realizations_ignore_nominal_patterns(self, demo_dir, tmp_path):
        doc = json.loads((demo_dir / "realizations.json").read_text())
        doc["nominalDemand"] = doc["nominalPrice"] = [[1.0]]
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        real = wio.load_realizations(path)
        assert set(real) == {"demand", "price", "forecastDemand", "forecastPrice"}
        np.testing.assert_array_equal(real["forecastPrice"], np.array(doc["forecastPrice"]))

    def test_empty_ed_beside_coupling_rows_rejected(self, tmp_path):
        path = tmp_path / "n.json"
        wio.save_network(build_demo("net3", h_sim=1).model, path)
        doc = json.loads(path.read_text())
        assert len(doc["E"]) == len(doc["Ed"]) == 1  # net3's mixing node
        doc["Ed"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            wio.load_network(path)
        assert err.value.pointer == "/Ed"

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: doc.update(horizon=doc["horizon"] + 1), id="horizon-too-long"),
        pytest.param(lambda doc: doc.update(scenarios=[s[:-1] for s in doc["scenarios"]]),
                     id="scenarios-too-short"),
        pytest.param(lambda doc: doc.update(nPrices=doc["nPrices"] + 1), id="too-narrow"),
        pytest.param(lambda doc: doc.update(scenarios=[]), id="empty"),
    ])
    def test_fan_shape_is_checked_at_scenarios(self, demo_dir, tmp_path, edit):
        doc = json.loads((demo_dir / "fan.json").read_text())
        edit(doc)
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            wio.load_fan(path)
        assert err.value.pointer == "/scenarios"

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"schemaVersion": 2, "horizon": 1, "dHat": [[1.0]], "alphaHat": [[1.0]]}')
        with pytest.raises(SchemaError, match="version"):
            wio.load_forecast(path)


class TestCrossValidation:
    def test_demand_dimension_mismatch_names_both(self, demo_dir):
        model = wio.load_network(demo_dir / "network.json")
        tree = wio.load_tree(demo_dir / "scenarioTree.json")
        tree.n_demand = 4
        problems = wio.cross_validate(model=model, tree=tree)
        assert any("4" in p and "1" in p for p in problems)

    def test_consistent_demo_set_clean(self, demo_dir):
        model = wio.load_network(demo_dir / "network.json")
        tree = wio.load_tree(demo_dir / "scenarioTree.json")
        forecast = wio.load_forecast(demo_dir / "forecaster.json")
        horizon, weights, _ = wio.load_controller_config(demo_dir / "controllerconfig.json")
        state = wio.load_state(demo_dir / "state.json")
        problems = wio.cross_validate(
            model=model, tree=tree, forecast=forecast, horizon=horizon,
            weights=weights, state=state,
        )
        assert problems == []
