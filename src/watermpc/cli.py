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

from . import io as wio
from .demo import DEMO_KINDS, build_demo, write_demo
from .forecast import ForecastSeries
from .io import SchemaError
from .problem import ProblemInstance
from .simulate import SimulationConfig, kpi_complexity, kpi_economic, kpi_safety
from .simulate import relative_gap, run_closed_loop, warn_unconverged
from .solver import solve as solve_instance
from .tree import attach_forecast, reduce_fan_to_tree, zero_price_errors


# The documents each of these commands reads, in the order it loads them.
# Each is given by the flag of the same name.
DOCUMENTS = {
    "validate": ("network", "tree", "forecast", "config", "state"),
    "solve": ("network", "tree", "forecast", "config", "state"),
    "simulate": ("network", "tree", "config", "state", "realizations"),
}
# Names of the watermpc.io loaders, not the functions: each is looked up on
# the module when called, so a wrapper installed there sees every load.
LOADERS = {
    "network": "load_network",
    "tree": "load_tree",
    "forecast": "load_forecast",
    "config": "load_controller_config",
    "state": "load_state",
    "realizations": "load_realizations",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="watermpc",
        description="Scenario-based stochastic MPC for flow-based water networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check documents and their cross-consistency")
    p_solve = sub.add_parser("solve", help="compute one control action")
    p_sim = sub.add_parser("simulate", help="closed-loop run with KPI summary")
    for command, p in (("validate", p_val), ("solve", p_solve), ("simulate", p_sim)):
        for name in DOCUMENTS[command]:
            p.add_argument(f"--{name}", type=Path, required=command != "validate")
    p_sim.add_argument("--steps", type=int, default=168, help="simulation horizon H_s")

    p_red = sub.add_parser("reduce", help="reduce a scenario fan to a tree")
    p_red.add_argument("--fan", type=Path, required=True)
    p_red.add_argument(
        "--branching", type=str, required=True, help="comma-separated branch counts"
    )

    p_demo = sub.add_parser("generate-demo", help="write a bundled demo file set")
    p_demo.add_argument("--kind", choices=DEMO_KINDS, required=True)
    p_demo.add_argument("--seed", type=int, default=0, help="random seed")

    for p in (p_solve, p_sim, p_red, p_demo):
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    for p in (p_solve, p_sim):
        p.add_argument(
            "--nominal-prices",
            action="store_true",
            help="ignore price uncertainty (certainty-equivalent prices)",
        )
    return parser


def _load(args, failures: list[str] | None = None) -> tuple[dict, list[str]]:
    """Load the command's documents by flag name and cross-check them.

    A document that fails to load raises, unless a ``failures`` list is
    given: then its error is appended there and the document left out.
    Returns the documents and every problem found, failures first; each
    problem is also printed to stderr. Without problems, ``--nominal-prices``
    replaces the tree by its copy with zero price errors.
    """
    docs = {}
    for name in DOCUMENTS[args.command]:
        path = getattr(args, name)
        if path is None:
            continue
        try:
            docs[name] = getattr(wio, LOADERS[name])(path)
        except (SchemaError, OSError) as exc:
            if failures is None:
                raise
            failures.append(f"{path}: {exc}")
    horizon, weights, _ = docs.get("config", (None, None, None))
    problems = (failures or []) + wio.cross_validate(
        model=docs.get("network"),
        tree=docs.get("tree"),
        forecast=docs.get("forecast"),
        horizon=horizon,
        weights=weights,
        state=docs.get("state"),
    )
    for line in problems:
        print(line, file=sys.stderr)
    if not problems and getattr(args, "nominal_prices", False):
        docs["tree"] = zero_price_errors(docs["tree"])
    return docs, problems


def _cmd_validate(args) -> int:
    if all(getattr(args, name) is None for name in DOCUMENTS["validate"]):
        print("error: no documents given", file=sys.stderr)
        return 2
    _, problems = _load(args, failures=[])
    print("ok" if not problems else f"{len(problems)} problem(s) found")
    return 0 if not problems else 1


def _cmd_solve(args) -> int:
    docs, problems = _load(args)
    if problems:
        return 1
    forecast = docs["forecast"]
    _, weights, solver_cfg = docs["config"]
    x, u_prev, k = docs["state"]
    demand, price = attach_forecast(docs["tree"], forecast.d_hat, forecast.alpha_hat)
    try:
        instance = ProblemInstance(docs["network"], docs["tree"], weights, x, u_prev,
                                   demand, price)
        result = solve_instance(instance, solver_cfg)
    except (RuntimeError, ValueError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    wio.save_control_output(result, args.out / "controlOutput.json")
    # An uncertified action is still written and the exit code stays 0, as
    # in the closed loop; the summary line and the warning say so.
    warn_unconverged(k, result)
    print(
        f"iters={result.iterations} termination={result.termination} "
        f"gap_rel={relative_gap(result):.6e} time_ms={result.solve_time_s * 1e3:.3f}"
    )
    return 0


def _cmd_simulate(args) -> int:
    docs, problems = _load(args)
    if problems:
        return 1
    horizon, weights, solver_cfg = docs["config"]
    x0, u_prev, _ = docs["state"]
    real = docs["realizations"]
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
        log = run_closed_loop(
            docs["network"], docs["tree"], forecaster, real["demand"], real["price"], config
        )
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
        branching = [int(tok) for tok in args.branching.split(",")]
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
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
