"""Guards on the package surface that code outside it relies on.

The benchmark under ``perfbench/`` wraps package functions by module
attribute and reports a wrapped name that no longer exists as missing,
which zeroes that layer's metric instead of failing. Most tests here read
its sources, without running them, so removing such a name fails here;
the last two run its certificate check and layer microbenchmarks on one
solve, and its call recording on the CLI, so a changed signature of a
function it calls, or a call that bypasses a wrapped name, fails here too.
Installing the package pulls in numpy alone, so one test holds its
imports to the standard library and numpy.
"""

import ast
import contextlib
import importlib
import io
import math
import sys
import textwrap
from pathlib import Path

import pytest

import watermpc
from watermpc import cli
from watermpc.demo import build_demo, write_demo
from watermpc.problem import ProblemInstance
from watermpc.solver import SolverConfig, solve
from watermpc.tree import attach_forecast

README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(watermpc.__file__).resolve().parent


def _module_tuple(path: Path, name: str) -> tuple:
    """The literal value assigned to ``name`` at the top of a module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def _package_attributes() -> set[tuple[str, str]]:
    """Every ``alias.attr`` that a perfbench module reads from a watermpc
    module it imported as ``from watermpc import module [as alias]``."""
    used = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname or alias.name: f"watermpc.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "watermpc"
            for alias in node.names
        }
        used |= {
            (aliases[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        }
    return used


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "watermpc"}
    found = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.name)
    assert "numpy" in found
    assert {top: where for top, where in found.items() if top not in allowed} == {}


def test_every_export_resolves():
    missing = [name for name in watermpc.__all__ if not hasattr(watermpc, name)]
    assert missing == []


@pytest.mark.parametrize("table", ["SOLVE_SITES", "TRACED"])
def test_every_wrapped_site_exists(table):
    sites = _module_tuple(PERFBENCH / "instrument.py", table)
    assert sites
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in sites
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_every_called_function_exists():
    used = _package_attributes()
    assert ("watermpc.solver", "dual_gradient") in used
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(used)
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_perfbench_calls_run_on_one_solve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    instrument = importlib.import_module("instrument")

    bundle = build_demo("tank1", seed=0, h_sim=1)
    forecast = bundle.forecaster(0)
    demand, price = attach_forecast(bundle.tree, forecast.d_hat, forecast.alpha_hat)
    instance = ProblemInstance(bundle.model, bundle.tree, bundle.weights, bundle.x0,
                               bundle.u_prev, demand, price)
    result = solve(instance, bundle.solver)
    step = instrument.StepSolve("simulate", instance, bundle.solver, result, 0.0)
    assert checks.check_certificates([step]) == []
    layers = instrument.microbenchmarks(step)
    assert len(layers) == 6
    assert all(math.isfinite(value) for value in layers.values())


def test_perfbench_sees_every_cli_load_and_solve(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    files = write_demo(build_demo("tank1", seed=0, h_sim=2), tmp_path / "demo")

    def flags(*names):
        return [arg for name in names for arg in (f"--{name}", str(files[name]))]

    shared = ("network", "tree", "config", "state")
    runs = [
        (["validate", *flags(*shared, "forecast")], []),
        (["solve", *flags(*shared, "forecast"), "--out", str(tmp_path / "solve")], ["cli"]),
        (["simulate", *flags(*shared, "realizations"), "--steps", "2",
          "--out", str(tmp_path / "simulate")], ["simulate"] * 2),
    ]
    for argv, callers in runs:
        tracer, steps = instrument.Tracer(), []
        with instrument.Patches() as patches:
            instrument.record_solves(patches, steps)
            tracer.install(patches)
            assert cli.main(argv) == 0
        assert patches.missing == []
        assert tracer["cli.main"].count == 1
        assert tracer["io.load"].count == 5
        assert tracer["io.cross_validate"].count == 1
        assert [step.caller for step in steps] == callers
        # One forecast attached per step solve, through the module's own global.
        assert tracer["tree.attach_forecast"].count == len(callers)
        assert all(isinstance(step.config, SolverConfig) for step in steps)


def test_perfbench_workloads_set_up(monkeypatch, tmp_path):
    # The benchmark also reads DemoBundle fields, SimulationConfig keywords
    # and the io savers' positional signatures, which the attribute guards
    # above do not see.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    net3 = workloads.Net3Loop(0, tmp_path / "net3")
    net3.setup()
    net3.loop_probe([])
    net10 = workloads.Net10Cold(0, tmp_path / "net10")
    net10.setup()
    assert net3.build_failures == net10.build_failures == []


def test_readme_library_example_runs_as_written():
    section = README.read_text().split("## Using the library\n", 1)[1].split("\n## ", 1)[0]
    # The example is the section's one indented block.
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("    "))
    stop = next(
        (i for i in range(start, len(lines)) if lines[i] and not lines[i].startswith("    ")),
        len(lines),
    )
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(textwrap.dedent("\n".join(lines[start:stop])), namespace)
    printed = out.getvalue().strip()
    assert f"`{printed}`" in section  # the output the README states
    result = namespace["result"]
    assert (result.termination, result.iterations) == ("converged", 1175)
    assert result.u0 == pytest.approx([0.0405340357], rel=1e-8)
