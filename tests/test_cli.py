"""End-to-end tests of the command-line interface on the tank1 demo files."""

import json
import math

import numpy as np
import pytest

import watermpc.io as wio
from watermpc.cli import main
from watermpc.forecast import ForecastSeries
from watermpc.problem import ProblemInstance
from watermpc.simulate import (
    SimulationConfig,
    kpi_complexity,
    kpi_economic,
    kpi_safety,
    run_closed_loop,
)
from watermpc.solver import solve
from watermpc.tree import attach_forecast, validate_tree, zero_price_errors

DOCS = ("network", "tree", "forecast", "config", "state")
FILES = {
    "network": "network.json",
    "tree": "scenarioTree.json",
    "forecast": "forecaster.json",
    "config": "controllerconfig.json",
    "state": "state.json",
    "realizations": "realizations.json",
    "fan": "fan.json",
}


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("tank1")
    assert main(["generate-demo", "--kind", "tank1", "--out", str(out)]) == 0
    return out


def flags(demo, *names):
    args = []
    for name in names:
        args += [f"--{name}", str(demo / FILES[name])]
    return args


def test_validate_accepts_the_demo_set(demo, capsys):
    assert main(["validate", *flags(demo, *DOCS)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_needs_a_document(capsys):
    assert main(["validate"]) == 2
    assert "no documents" in capsys.readouterr().err


def test_validate_reports_a_malformed_document(demo, tmp_path, capsys):
    text = (demo / FILES["network"]).read_text()
    broken = tmp_path / "network.json"
    broken.write_text(text[: len(text) // 2])
    assert main(["validate", "--network", str(broken)]) == 1
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("name, key, literal, code", [
    pytest.param("config", "tol", "1" + "0" * 400, 1, id="int-beyond-float-tol"),
    pytest.param("network", "tankNames", "5", 0, id="ignored-tank-names"),
])
def test_validate_on_an_edited_document(demo, tmp_path, capsys, name, key, literal, code):
    doc = json.loads((demo / FILES[name]).read_text())
    doc[key] = "@"
    path = tmp_path / FILES[name]
    path.write_text(json.dumps(doc).replace('"@"', literal))
    assert main(["validate", f"--{name}", str(path)]) == code
    if code:
        assert f"/{key}: number must be finite" in capsys.readouterr().err


def solve_demo_files(demo, tree_map=lambda tree: tree):
    """The in-process solve of the demo documents, on ``tree_map`` of the tree."""
    forecast = wio.load_forecast(demo / FILES["forecast"])
    tree = attach_forecast(
        tree_map(wio.load_tree(demo / FILES["tree"])), forecast.d_hat, forecast.alpha_hat
    )
    _, weights, config = wio.load_controller_config(demo / FILES["config"])
    x, u_prev, _ = wio.load_state(demo / FILES["state"])
    model = wio.load_network(demo / FILES["network"])
    return solve(ProblemInstance(model, tree, weights, x, u_prev), config)


def test_solve_writes_the_solver_result(demo, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", *flags(demo, *DOCS), "--out", str(out)]) == 0
    written = wio.load_control_output(out / "controlOutput.json")
    res = solve_demo_files(demo)
    np.testing.assert_array_equal(written["u0"], res.u0)
    assert written["iterations"] == res.iterations
    assert written["terminationReason"] == res.termination
    assert written["primalResidual"] == res.primal_residual
    assert written["dualChange"] == res.dual_change


def test_simulate_writes_agreeing_log_and_kpis(demo, tmp_path):
    out = tmp_path / "out"
    argv = ["simulate", *flags(demo, "network", "tree", "realizations", "config", "state"),
            "--steps", "2", "--out", str(out)]
    assert main(argv) == 0
    log = wio.load_simlog(out / "simlog.json")
    kpi = wio.load_kpi(out / "kpi.json")
    assert log.h_sim == 2
    expected = {"kpiE": kpi_economic(log), "kpiS": kpi_safety(log),
                "kpiTauSeconds": kpi_complexity(log)}
    for key, value in expected.items():
        assert math.isclose(kpi[key], value, rel_tol=1e-12, abs_tol=1e-12), key


def test_solve_nominal_prices_solves_on_zeroed_price_errors(demo, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", *flags(demo, *DOCS), "--out", str(out), "--nominal-prices"]) == 0
    written = wio.load_control_output(out / "controlOutput.json")
    np.testing.assert_array_equal(written["u0"], solve_demo_files(demo, zero_price_errors).u0)


def test_solve_rejects_a_tree_with_node_values(demo, tmp_path, capsys):
    doc = json.loads((demo / FILES["tree"]).read_text())
    doc["demandValues"] = [[100.0]] * len(doc["ancestor"])
    tree = tmp_path / "scenarioTree.json"
    tree.write_text(json.dumps(doc))
    argv = ["solve", *flags(demo, "network", "forecast", "config", "state"),
            "--tree", str(tree), "--out", str(tmp_path / "out"), "--nominal-prices"]
    assert main(argv) == 1
    assert "/demandValues" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_rejects_a_negative_stage_count(demo, tmp_path, capsys):
    doc = json.loads((demo / FILES["tree"]).read_text())
    per_stage = doc["nodesPerStage"]
    per_stage[1:3] = [per_stage[1] + per_stage[2] + 2, -2]  # the total still matches
    tree = tmp_path / "scenarioTree.json"
    tree.write_text(json.dumps(doc))
    assert main(["validate", "--tree", str(tree)]) == 1
    assert "/nodesPerStage/2: count -2 is negative" in capsys.readouterr().err


def test_simulate_rejects_a_short_price_forecast(demo, tmp_path, capsys):
    doc = json.loads((demo / FILES["realizations"]).read_text())
    doc["forecastPrice"] = doc["forecastPrice"][:1]
    real = tmp_path / "realizations.json"
    real.write_text(json.dumps(doc))
    argv = ["simulate", *flags(demo, "network", "tree", "config", "state"),
            "--realizations", str(real), "--steps", "3", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "/forecastPrice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_simulate_rejects_a_non_positive_step_count(demo, tmp_path, capsys, steps):
    argv = ["simulate", *flags(demo, "network", "tree", "realizations", "config", "state"),
            "--steps", steps, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "simulation failed: h_sim must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_reports_a_network_the_solver_rejects(tmp_path, capsys):
    demo = tmp_path / "net3"
    assert main(["generate-demo", "--kind", "net3", "--out", str(demo)]) == 0
    doc = json.loads((demo / FILES["network"]).read_text())
    doc["E"] = [[0.0] * len(doc["E"][0])]  # the mixing node's demand cannot be met
    (demo / FILES["network"]).write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["solve", *flags(demo, *DOCS), "--out", str(out)]) == 1
    assert "solver failed: coupling E u = -Ed d is infeasible" in capsys.readouterr().err
    assert not (out / "controlOutput.json").exists()


def test_simulate_nominal_prices_runs_the_loop_on_zeroed_price_errors(demo, tmp_path):
    argv = ["simulate", *flags(demo, "network", "tree", "realizations", "config", "state"),
            "--steps", "2"]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    assert main([*argv, "--out", str(tmp_path / "nominal"), "--nominal-prices"]) == 0
    plain = wio.load_simlog(tmp_path / "plain" / "simlog.json")
    nominal = wio.load_simlog(tmp_path / "nominal" / "simlog.json")

    _, weights, config = wio.load_controller_config(demo / FILES["config"])
    x0, u_prev, _ = wio.load_state(demo / FILES["state"])
    real = wio.load_realizations(demo / FILES["realizations"])
    log = run_closed_loop(
        wio.load_network(demo / FILES["network"]),
        zero_price_errors(wio.load_tree(demo / FILES["tree"])),
        lambda k: ForecastSeries(real["forecastDemand"][k], real["forecastPrice"][k]),
        real["demand"], real["price"],
        SimulationConfig(h_sim=2, weights=weights, solver=config, x0=x0, u_prev=u_prev),
    )
    np.testing.assert_array_equal(nominal.u, log.u)
    np.testing.assert_array_equal(nominal.x, log.x)
    assert not np.array_equal(nominal.u, plain.u)


def test_reduce_writes_a_valid_tree(demo, tmp_path):
    out = tmp_path / "out"
    assert main(["reduce", *flags(demo, "fan"), "--branching", "2,2", "--out", str(out)]) == 0
    tree = wio.load_tree(out / "scenarioTree.json")
    assert validate_tree(tree) == []
    np.testing.assert_array_equal(tree.nodes_per_stage[:3], [1, 2, 4])


def test_generate_demo_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["generate-demo", "--kind", "tank1", "--seed", "-1", "--out", str(out)]) == 1
    assert "error: seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("validate", ["--seed", "1"]),
    ("validate", ["--out", "d"]),
    ("validate", ["--nominal-prices"]),
    ("solve", ["--seed", "123"]),
    ("simulate", ["--seed", "1"]),
    ("reduce", ["--seed", "4"]),
    ("reduce", ["--nominal-prices"]),
    ("generate-demo", ["--nominal-prices"]),
])
def test_flag_a_command_does_not_read_is_rejected(demo, tmp_path, command, extra):
    required = {
        "validate": flags(demo, *DOCS),
        "solve": flags(demo, *DOCS),
        "simulate": flags(demo, "network", "tree", "realizations", "config", "state"),
        "reduce": [*flags(demo, "fan"), "--branching", "2"],
        "generate-demo": ["--kind", "tank1", "--out", str(tmp_path / "demo")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, *extra])
    assert exc.value.code == 2
    assert not (tmp_path / "demo").exists()
