"""Command-line interface.

Subcommands mirror the document pipeline: ``validate`` cross-checks a
document set, ``solve`` computes one control action, ``simulate`` runs the
closed loop and reports KPIs, ``reduce`` turns a scenario fan into a tree,
and ``generate-demo`` emits a self-consistent demo file set.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as wio
from .demo import DEMO_KINDS, build_demo, write_demo
from .forecast import ForecastSeries
from .io import SchemaError
from .problem import ProblemInstance
from .simulate import SimulationConfig, kpi_complexity, kpi_economic, kpi_safety, run_closed_loop
from .solver import solve as solve_instance
from .tree import attach_forecast, reduce_fan_to_tree, zero_price_errors


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")


def _add_nominal_prices(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--nominal-prices",
        action="store_true",
        help="ignore price uncertainty (certainty-equivalent prices)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="watermpc",
        description="Scenario-based stochastic MPC for flow-based water networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check documents and their cross-consistency")
    p_val.add_argument("--network", type=Path)
    p_val.add_argument("--tree", type=Path)
    p_val.add_argument("--forecast", type=Path)
    p_val.add_argument("--config", type=Path)
    p_val.add_argument("--state", type=Path)

    p_solve = sub.add_parser("solve", help="compute one control action")
    p_solve.add_argument("--network", type=Path, required=True)
    p_solve.add_argument("--tree", type=Path, required=True)
    p_solve.add_argument("--forecast", type=Path, required=True)
    p_solve.add_argument("--config", type=Path, required=True)
    p_solve.add_argument("--state", type=Path, required=True)
    _add_out(p_solve)
    _add_nominal_prices(p_solve)

    p_sim = sub.add_parser("simulate", help="closed-loop run with KPI summary")
    p_sim.add_argument("--network", type=Path, required=True)
    p_sim.add_argument("--tree", type=Path, required=True)
    p_sim.add_argument("--realizations", type=Path, required=True)
    p_sim.add_argument("--config", type=Path, required=True)
    p_sim.add_argument("--state", type=Path, required=True)
    p_sim.add_argument("--steps", type=int, default=168, help="simulation horizon H_s")
    _add_out(p_sim)
    _add_nominal_prices(p_sim)

    p_red = sub.add_parser("reduce", help="reduce a scenario fan to a tree")
    p_red.add_argument("--fan", type=Path, required=True)
    p_red.add_argument(
        "--branching", type=str, required=True, help="comma-separated branch counts"
    )
    _add_out(p_red)

    p_demo = sub.add_parser("generate-demo", help="write a bundled demo file set")
    p_demo.add_argument("--kind", choices=DEMO_KINDS, required=True)
    p_demo.add_argument("--seed", type=int, default=0, help="random seed")
    _add_out(p_demo)
    return parser


def _cmd_validate(args) -> int:
    diagnostics: list[str] = []
    horizon = weights = None
    loaded_any = False

    def attempt(path, loader):
        nonlocal loaded_any
        if path is None:
            return None
        loaded_any = True
        try:
            return loader(path)
        except (SchemaError, OSError) as exc:
            diagnostics.append(f"{path}: {exc}")
            return None

    model = attempt(args.network, wio.load_network)
    tree = attempt(args.tree, wio.load_tree)
    forecast = attempt(args.forecast, wio.load_forecast)
    cfg = attempt(args.config, wio.load_controller_config)
    state = attempt(args.state, wio.load_state)
    if cfg is not None:
        horizon, weights, _ = cfg
    if not loaded_any:
        print("error: no documents given", file=sys.stderr)
        return 2
    diagnostics.extend(
        wio.cross_validate(
            model=model,
            tree=tree,
            forecast=forecast,
            horizon=horizon,
            weights=weights,
            state=state,
        )
    )
    for line in diagnostics:
        print(line, file=sys.stderr)
    print("ok" if not diagnostics else f"{len(diagnostics)} problem(s) found")
    return 0 if not diagnostics else 1


def _cmd_solve(args) -> int:
    model = wio.load_network(args.network)
    tree = wio.load_tree(args.tree)
    forecast = wio.load_forecast(args.forecast)
    horizon, weights, solver_cfg = wio.load_controller_config(args.config)
    x, u_prev, k = wio.load_state(args.state)
    problems = wio.cross_validate(
        model=model, tree=tree, forecast=forecast, horizon=horizon,
        weights=weights, state=(x, u_prev, k),
    )
    if problems:
        for line in problems:
            print(line, file=sys.stderr)
        return 1
    if args.nominal_prices:
        tree = zero_price_errors(tree)
    tree = attach_forecast(tree, forecast.d_hat, forecast.alpha_hat)
    try:
        result = solve_instance(ProblemInstance(model, tree, weights, x, u_prev), solver_cfg)
    except (RuntimeError, ValueError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    wio.save_control_output(result, args.out / "controlOutput.json")
    print(
        f"iters={result.iterations} residual={result.primal_residual:.6e} "
        f"time_ms={result.solve_time_s * 1e3:.3f}"
    )
    return 0


def _cmd_simulate(args) -> int:
    model = wio.load_network(args.network)
    tree = wio.load_tree(args.tree)
    horizon, weights, solver_cfg = wio.load_controller_config(args.config)
    x0, u_prev, _ = wio.load_state(args.state)
    real = wio.load_realizations(args.realizations)
    problems = wio.cross_validate(
        model=model, tree=tree, horizon=horizon, weights=weights,
        state=(x0, u_prev, 0),
    )
    if problems:
        for line in problems:
            print(line, file=sys.stderr)
        return 1
    if args.nominal_prices:
        tree = zero_price_errors(tree)
    steps = args.steps
    fc_d, fc_p = real["forecastDemand"], real["forecastPrice"]
    if fc_d.shape[0] < steps or fc_d.shape[1] != horizon:
        print(
            f"forecast tensor covers {fc_d.shape[0]} steps at horizon "
            f"{fc_d.shape[1]}, need {steps} steps at horizon {horizon}",
            file=sys.stderr,
        )
        return 1

    def forecaster(k: int) -> ForecastSeries:
        return ForecastSeries(d_hat=fc_d[k], alpha_hat=fc_p[k])

    try:
        config = SimulationConfig(
            h_sim=steps, weights=weights, solver=solver_cfg, x0=x0, u_prev=u_prev
        )
        log = run_closed_loop(model, tree, forecaster, real["demand"], real["price"], config)
    except (RuntimeError, ValueError) as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    wio.save_simlog(log, args.out / "simlog.json")
    kpis = (kpi_economic(log), kpi_safety(log), kpi_complexity(log))
    wio.save_kpi(*kpis, args.out / "kpi.json")
    print(f"kpiE={kpis[0]:.6g} kpiS={kpis[1]:.6g} kpiTauSeconds={kpis[2]:.6g}")
    return 0


def _cmd_reduce(args) -> int:
    fan = wio.load_fan(args.fan)
    try:
        branching = [int(tok) for tok in args.branching.split(",") if tok.strip()]
    except ValueError:
        print(f"invalid branching spec {args.branching!r}", file=sys.stderr)
        return 2
    try:
        tree = reduce_fan_to_tree(fan, branching)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "scenarioTree.json"
    wio.save_tree(tree, path)
    print(f"wrote {path} ({int(tree.nodes_per_stage[-1])} leaves)")
    return 0


def _cmd_generate_demo(args) -> int:
    try:
        bundle = build_demo(args.kind, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    paths = write_demo(bundle, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "solve": _cmd_solve,
        "simulate": _cmd_simulate,
        "reduce": _cmd_reduce,
        "generate-demo": _cmd_generate_demo,
    }
    try:
        return handlers[args.command](args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
