"""The benchmark workloads.

All are closed loops: one caller waits for each solve before it asks for
the next. Inputs come from the bundled demos, built from seeds derived
from the run's ``--seed``; the program sees only those inputs.

* ``net3-loop``: ``simulate.run_closed_loop`` on net3 (57 nodes, 570
  duals, one mixing node). Small solves, so per-call overhead, the
  certificate with its Dykstra restore and factor rebinding across steps
  dominate. Cross-step warm start would show here.
* ``tank1-cli``: ``cli.main(["simulate", ...])`` on tank1 file sets
  written in set-up. The deepest, narrowest tree (24 stages, 94 nodes) and
  no mixing node, so per-stage Python overhead dominates and restore is a
  plain clip. Also runs JSON load, ``io.cross_validate`` and the simlog
  and KPI writes.
* ``net10-cold``: ``cli.main(["solve", ...])`` once per step at two fixed
  steps on each of four net10 demos (1048 nodes, 46k duals), with an
  iteration cap in ``controllerconfig.json``. Vectorised sweeps dominate;
  every invocation pays for loading, ``factor_step`` and
  ``estimate_lipschitz``, and nothing carries over between steps, so warm
  start is bypassed. No net10 solve converges within the solver's default
  budget either, so the cap records that defect as failures rather than
  hiding it.

Episodes use different demo seeds so that one run averages over several
scenario trees; one tree alone moves iteration counts, and on net10 the
cost of an iteration, by 10-20%.
"""

from __future__ import annotations

import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path
from typing import Any

import numpy as np

from watermpc import cli, demo, simulate
from watermpc import io as wio
from watermpc.simulate import SimulationConfig

import checks
from instrument import StepSolve


class BenchError(RuntimeError):
    """The program failed in a way the workload does not allow."""


@dataclass
class Episode:
    """One closed loop (or one CLI solve) of a pass and the solves it made."""

    label: str
    model: Any
    steps: list[StepSolve]
    out: Path | None = None
    log: Any = None


# Demo seeds of run seed s are s * SEED_STRIDE, s * SEED_STRIDE + 1, ...
SEED_STRIDE = 1000


def build_demos(kind: str, seed: int, count: int, failures: list[str], **kwargs) -> list:
    """The first ``count`` demos that build from the run seed's demo seeds.

    ``reduce_fan_to_tree`` rejects some fans (about 1 net10 seed in 13), so
    a seed whose build raises is recorded in ``failures`` and the next one
    is used: the failure is reported and the work per pass stays the same.
    """
    bundles = []
    for candidate in range(seed * SEED_STRIDE, seed * SEED_STRIDE + count + 50):
        try:
            bundles.append(demo.build_demo(kind, candidate, **kwargs))
        except ValueError as exc:
            failures.append(f"build_demo({kind!r}, {candidate}): {exc}")
            continue
        if len(bundles) == count:
            return bundles
    raise BenchError(f"fewer than {count} {kind} demos build from seed {seed}")


def _files(paths: dict[str, Path], *names: str) -> list[str]:
    args = []
    for name in names:
        args += [f"--{name}", str(paths[name])]
    return args


def _run_cli(argv: list[str], steps: list[StepSolve]) -> bool:
    """Run the CLI in-process. False if a step solve raised; BenchError on
    any other non-zero exit."""
    before = len(steps)
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        return True
    if len(steps) > before and steps[-1].error is not None:
        return False
    raise BenchError(f"watermpc {argv[0]} exited with {code}: {err.getvalue().strip()}")


def _closed_loop(bundle, steps: int):
    config = SimulationConfig(
        h_sim=steps, weights=bundle.weights, solver=bundle.solver,
        x0=bundle.x0, u_prev=bundle.u_prev,
    )
    return simulate.run_closed_loop(
        bundle.model, bundle.tree, bundle.forecaster,
        bundle.realized_demand, bundle.realized_price, config,
    )


def loop_kpis(episodes: list[Episode]) -> dict[str, float]:
    """Economic and safety KPIs, averaged over the closed loops of a pass."""
    logs = [ep.log for ep in episodes if ep.log is not None]
    if not logs:
        return {}
    return {
        "kpi_economic": float(np.mean([simulate.kpi_economic(log) for log in logs])),
        "kpi_safety": float(np.mean([simulate.kpi_safety(log) for log in logs])),
    }


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.build_failures: list[str] = []
        self.bundles: list = []

    def setup(self) -> None:
        """Build the inputs; sets ``bundles`` and ``build_failures``."""
        raise NotImplementedError

    def run_pass(self, steps: list[StepSolve]) -> list[Episode]:
        raise NotImplementedError

    def check(self, episodes: list[Episode]) -> list[str]:
        raise NotImplementedError

    # Probes give the traced run a number for a layer the pass never
    # enters: the CLI on net3-loop, the closed loop on net10-cold.
    def cli_probe(self, steps: list[StepSolve]) -> None:
        paths = demo.write_demo(self.bundles[0], self.workdir / "probe")
        _run_cli(["solve", *_files(paths, "network", "tree", "forecast", "config", "state"),
                  "--out", str(self.workdir / "probe-out")], steps)

    def loop_probe(self, steps: list[StepSolve]) -> None:
        _closed_loop(self.bundles[0], 2)


class Net3Loop(Workload):
    name = "net3-loop"
    EPISODES = 10
    STEPS = 6

    def setup(self) -> None:
        self.build_failures = []
        self.bundles = build_demos("net3", self.seed, self.EPISODES, self.build_failures)

    def run_pass(self, steps: list[StepSolve]) -> list[Episode]:
        episodes = []
        for e, bundle in enumerate(self.bundles):
            start = len(steps)
            try:
                log = _closed_loop(bundle, self.STEPS)
            except RuntimeError:
                if not (len(steps) > start and steps[-1].error is not None):
                    raise
                log = None
            episodes.append(Episode(f"episode {e}", bundle.model, steps[start:], log=log))
        return episodes

    def check(self, episodes: list[Episode]) -> list[str]:
        return [p for ep in episodes if ep.log is not None
                for p in checks.check_loop(ep.model, ep.log, ep.steps, f"{self.name} {ep.label}")]


class Tank1Cli(Workload):
    name = "tank1-cli"
    EPISODES = 10
    STEPS = 3

    def setup(self) -> None:
        self.build_failures = []
        self.bundles = build_demos("tank1", self.seed, self.EPISODES, self.build_failures)
        self.paths = [demo.write_demo(bundle, self.workdir / f"ep{e}")
                      for e, bundle in enumerate(self.bundles)]

    def run_pass(self, steps: list[StepSolve]) -> list[Episode]:
        episodes = []
        for e, (bundle, paths) in enumerate(zip(self.bundles, self.paths)):
            start = len(steps)
            out = self.workdir / f"out{e}"
            argv = ["simulate", *_files(paths, "network", "tree", "realizations", "config",
                                        "state"), "--steps", str(self.STEPS), "--out", str(out)]
            ok = _run_cli(argv, steps)
            episodes.append(Episode(f"episode {e}", bundle.model, steps[start:],
                                    out=out if ok else None))
        return episodes

    def check(self, episodes: list[Episode]) -> list[str]:
        problems = []
        for ep in episodes:
            if ep.out is None:
                continue
            label = f"{self.name} {ep.label}"
            ep.log = wio.load_simlog(ep.out / "simlog.json")
            problems += checks.check_loop(ep.model, ep.log, ep.steps, label)
            kpi = wio.load_kpi(ep.out / "kpi.json")
            expected = {"kpiE": simulate.kpi_economic(ep.log),
                        "kpiS": simulate.kpi_safety(ep.log),
                        "kpiTauSeconds": simulate.kpi_complexity(ep.log)}
            for key, value in expected.items():
                if not math.isclose(kpi[key], value, rel_tol=checks.ROUNDING, abs_tol=1e-12):
                    problems.append(f"{label}: kpi.json {key}={kpi[key]!r}, simlog gives {value!r}")
        return problems


class Net10Cold(Workload):
    name = "net10-cold"
    DEMOS = 4
    STEPS = (0, 12)
    # Iteration cap written to controllerconfig.json. No net10 solve
    # converges within the default 20000 either (about 120 s each), so the
    # cap bounds run time without changing the outcome it records.
    MAX_ITER = 500

    def setup(self) -> None:
        self.build_failures = []
        self.bundles = [
            replace(bundle, solver=replace(bundle.solver, max_iter=self.MAX_ITER))
            for bundle in build_demos("net10", self.seed, self.DEMOS, self.build_failures,
                                      h_sim=max(self.STEPS) + 1)
        ]
        for e, bundle in enumerate(self.bundles):
            files = self.workdir / f"demo{e}"
            files.mkdir(parents=True, exist_ok=True)
            wio.save_network(bundle.model, files / "network.json")
            wio.save_tree(bundle.tree, files / "scenarioTree.json")
            wio.save_controller_config(bundle.horizon, bundle.weights, bundle.solver,
                                       files / "controllerconfig.json")
            for k in self.STEPS:
                wio.save_forecast(bundle.forecaster(k), files / f"forecaster{k}.json")
                wio.save_state(bundle.x0, bundle.u_prev, k, files / f"state{k}.json")

    def run_pass(self, steps: list[StepSolve]) -> list[Episode]:
        episodes = []
        for e, bundle in enumerate(self.bundles):
            files = self.workdir / f"demo{e}"
            for k in self.STEPS:
                start = len(steps)
                out = self.workdir / f"out{e}-{k}"
                argv = ["solve", "--network", str(files / "network.json"),
                        "--tree", str(files / "scenarioTree.json"),
                        "--config", str(files / "controllerconfig.json"),
                        "--forecast", str(files / f"forecaster{k}.json"),
                        "--state", str(files / f"state{k}.json"), "--out", str(out)]
                ok = _run_cli(argv, steps)
                episodes.append(Episode(f"demo {e} k={k}", bundle.model, steps[start:],
                                        out=out if ok else None))
        return episodes

    def check(self, episodes: list[Episode]) -> list[str]:
        problems = []
        for ep in episodes:
            if ep.out is None:
                continue
            label = f"{self.name} {ep.label}"
            if len(ep.steps) != 1:
                problems.append(f"{label}: {len(ep.steps)} solves recorded for one invocation")
                continue
            res = ep.steps[0].result
            written = wio.load_control_output(ep.out / "controlOutput.json")
            if not np.array_equal(written["u0"], res.u0):
                problems.append(f"{label}: controlOutput.json u0 differs from the solver's")
            if (written["iterations"], written["terminationReason"]) != (res.iterations,
                                                                          res.termination):
                problems.append(f"{label}: controlOutput.json termination differs")
            problems += checks.check_actions(ep.model, res.u0, label)
        return problems


WORKLOADS = {cls.name: cls for cls in (Net3Loop, Tank1Cli, Net10Cold)}
