"""End-to-end tests of the command-line interface on the tank1 demo files."""

import json
import logging
import math
import re

import numpy as np
import pytest

import watermpc.io as wio
from watermpc.cli import main
from watermpc.demo import build_demo
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
from watermpc.tree import attach_forecast, zero_price_errors

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


def test_validate_reports_a_document_that_is_not_utf_8(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_bytes(b'\xff{"schemaVersion": 1}')
    assert main(["validate", "--state", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: /: parse error: 'utf-8' codec can't decode byte 0xff" in err
    assert "Traceback" not in err


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
    tree = tree_map(wio.load_tree(demo / FILES["tree"]))
    demand, price = attach_forecast(tree, forecast.d_hat, forecast.alpha_hat)
    _, weights, config = wio.load_controller_config(demo / FILES["config"])
    x, u_prev, _ = wio.load_state(demo / FILES["state"])
    model = wio.load_network(demo / FILES["network"])
    return solve(ProblemInstance(model, tree, weights, x, u_prev, demand, price), config)


def test_solve_writes_the_solver_result(demo, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", *flags(demo, *DOCS), "--out", str(out)]) == 0
    written = wio.load_control_output(out / "controlOutput.json")
    res = solve_demo_files(demo)
    np.testing.assert_array_equal(written["u0"], res.u0)
    assert written["iterations"] == res.iterations
    assert written["terminationReason"] == res.termination
    keys = set(json.loads((out / "controlOutput.json").read_text()))
    assert keys == {"schemaVersion", "u0", "iterations", "terminationReason", "solveTimeMs"}


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


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_a_failed_cross_check_stops_the_command(demo, tmp_path, capsys, command):
    x, u_prev, k = wio.load_state(demo / FILES["state"])
    state = tmp_path / "state.json"
    wio.save_state(np.r_[x, x], u_prev, k, state)  # two tanks on a one-tank network
    others = {"solve": ("network", "tree", "forecast", "config"),
              "simulate": ("network", "tree", "realizations", "config")}[command]
    argv = [command, *flags(demo, *others), "--state", str(state),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "state x has 2 entries but the network has 1 tanks" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_more_steps_than_the_forecasts_cover(demo, tmp_path, capsys):
    argv = ["simulate", *flags(demo, "network", "tree", "realizations", "config", "state"),
            "--steps", "200", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    horizon = json.loads((demo / FILES["tree"]).read_text())["horizon"]
    assert capsys.readouterr().err.strip() == (
        f"forecast tensor covers 168 steps at horizon {horizon}, need 200 steps at "
        f"horizon {horizon}"
    )
    assert not (tmp_path / "out").exists()


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
    message = f"simulation failed: h_sim must be an integer of at least 1, got {steps}"
    assert message in capsys.readouterr().err
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


def test_solve_says_when_its_action_is_uncertified(demo, tmp_path, capsys, caplog):
    net3 = tmp_path / "net3"
    assert main(["generate-demo", "--kind", "net3", "--out", str(net3)]) == 0
    doc = json.loads((net3 / FILES["config"]).read_text())
    doc["maxIter"] = 25  # far short of the tolerance on this demo
    (net3 / FILES["config"]).write_text(json.dumps(doc))
    capsys.readouterr()
    with caplog.at_level(logging.WARNING, logger="watermpc"):
        # The action is written and the exit code stays 0.
        assert main(["solve", *flags(net3, *DOCS), "--out", str(tmp_path / "capped")]) == 0
        capped = capsys.readouterr().out
        assert main(["solve", *flags(demo, *DOCS), "--out", str(tmp_path / "plain")]) == 0
        plain = capsys.readouterr().out
    written = wio.load_control_output(tmp_path / "capped" / "controlOutput.json")
    assert written["terminationReason"] == "max_iter"
    assert capped.startswith("iters=25 termination=max_iter gap_rel=")
    gap_rel = float(capped.split(" gap_rel=")[1].split()[0])
    assert gap_rel > doc["tol"]
    [record] = [r for r in caplog.records if r.name == "watermpc"]
    assert record.levelno == logging.WARNING
    assert "termination 'max_iter' after 25 iterations" in record.getMessage()
    assert f"relative duality gap {gap_rel:.3g}" in record.getMessage()
    # A certified solve reports it and warns of nothing.
    assert " termination=converged " in plain
    tol = json.loads((demo / FILES["config"]).read_text())["tol"]
    assert float(plain.split(" gap_rel=")[1].split()[0]) <= tol


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
    tree.validate()
    np.testing.assert_array_equal(tree.nodes_per_stage[:3], [1, 2, 4])


@pytest.mark.parametrize("spec, code, message", [
    pytest.param("2,x", 2, "invalid branching spec '2,x'", id="not-a-number"),
    pytest.param("2,,2", 2, "invalid branching spec '2,,2'", id="empty-entry"),
    pytest.param("0", 1, "error: branch count must be an integer of at least 1, got 0",
                 id="zero"),
])
def test_reduce_rejects_a_bad_branching(demo, tmp_path, capsys, spec, code, message):
    out = tmp_path / "out"
    assert main(["reduce", *flags(demo, "fan"), "--branching", spec, "--out", str(out)]) == code
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


def test_generate_demo_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["generate-demo", "--kind", "tank1", "--seed", "-1", "--out", str(out)]) == 1
    assert "error: seed must be an integer of at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("h_sim, message", [
    pytest.param(0, "h_sim must be an integer of at least 1, got 0", id="0"),
    pytest.param(-1, "h_sim must be an integer of at least 1, got -1", id="-1"),
    pytest.param(2.5, "h_sim must be an integer of at least 1, got 2.5", id="2.5"),
    pytest.param(True, "h_sim must be an integer of at least 1, got True", id="True"),
])
def test_build_demo_rejects_a_non_positive_step_count(h_sim, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_demo("tank1", seed=0, h_sim=h_sim)


def test_build_demo_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown demo kind 'net4'; choose from "):
        build_demo("net4")


def test_build_demo_takes_a_numpy_step_count():
    assert build_demo("tank1", seed=0, h_sim=np.int64(2)).realized_demand.shape[0] == 2


@pytest.mark.parametrize("seed", [1.5, True, "1"], ids=["1.5", "True", "str"])
def test_build_demo_rejects_a_non_integer_seed(seed):
    message = f"seed must be an integer of at least 0, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_demo("tank1", seed=seed, h_sim=2)


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
