"""Set-up, timed passes, checks and the report of the benchmark.

    python3 perfbench/run.py --workload {net3-loop,tank1-cli,net10-cold,all}
        --seed N --seconds S --trace {0,1}

A run builds its inputs from ``--seed`` and sets up ``SETUP_REPEATS``
times, reporting the median as ``setup_s``. It then runs fixed passes of
the workload until ``--seconds`` are spent (at least one) and reports the
median pass. Every pass is checked (``checks.py``). The output is one JSON
line of run metadata, one line per metric with its unit and, last, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``attempted`` counts step solves and failed demo builds;
``failed`` counts the builds and the solves that raised or ended without
a ``converged`` certificate.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one plain
pass, then one pass with every layer wrapped, and reports the per-layer
metrics, with ``trace.overhead_s``, the traced minus the plain pass time.
``--workload all`` runs every workload in one process and prefixes each
metric with its workload's name.

Exit code: 0 when every check passed, 1 when a check failed or the
program failed in a way a workload does not allow (no result is printed
then), 2 when ``run.py`` finds no ``watermpc`` source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy

import checks
from instrument import (Patches, ReferenceClock, StepSolve, Tracer, microbenchmarks,
                        record_solves)
from workloads import WORKLOADS, BenchError, Episode, Workload, loop_kpis

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3

# Printed with the end-to-end metrics but kept out of the JSON result. The
# share is 0 on converging workloads, so it travels as failed / attempted.
# The KPIs move with the solver's stopping point at tol = 5e-2 and vary
# several-fold between seeds, so no bound on them could hold; the
# certificate checks guard behaviour instead.
REPORT_UNITS = {"uncertified_share": "share", "kpi_economic": "EUR/h", "kpi_safety": "m3",
                "wall_raw_s": "s", "speed": "ratio"}


def metric_units(section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def git_sha() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unavailable"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def run_metadata(seed: int, loadavg: tuple[float, float, float]) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var)
                         for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
    }


def _certified(step: StepSolve) -> bool:
    return step.result is not None and step.result.termination == "converged"


@dataclass
class Pass:
    seconds: float          # elapsed, less the clock's kernels
    steps: list[StepSolve]
    episodes: list[Episode]


class Runner:
    """Set-up, passes and checks of one workload in one run."""

    def __init__(self, workload: Workload) -> None:
        self.wl = workload
        self.clock = ReferenceClock()
        self.problems: list[str] = []
        self.notes: set[str] = set()
        self.attempted = 0
        self.failed = 0

    def setup(self, tracer: Tracer | None = None) -> list[float]:
        """Set up SETUP_REPEATS times; returns the elapsed times."""
        times = []
        for _ in range(SETUP_REPEATS):
            with Patches() as patches:
                if tracer is not None:
                    tracer.install(patches)
                self.clock.mark()
                started = time.perf_counter()
                self.wl.setup()
                times.append(time.perf_counter() - started)
        self.clock.mark()
        # A demo that fails to build is one failed operation.
        self.attempted += len(self.wl.build_failures)
        self.failed += len(self.wl.build_failures)
        self.notes.update(f"demo build failed: {f}" for f in self.wl.build_failures)
        return times

    def one_pass(self, tracer: Tracer | None = None) -> Pass:
        """One timed pass; checks it and counts its solves."""
        steps: list[StepSolve] = []
        with Patches() as patches:
            # Marks inside a traced pass would add kernel time to the loop
            # and CLI spans, so it is marked at its ends only.
            record_solves(patches, steps, self.clock if tracer is None else None)
            if tracer is not None:
                tracer.install(patches)
            self.clock.mark()
            kernels = sum(self.clock.kernel_s)
            started = time.perf_counter()
            episodes = self.wl.run_pass(steps)
            seconds = time.perf_counter() - started - (sum(self.clock.kernel_s) - kernels)
            self.clock.mark()
            self.notes.update(f"wrapped function missing: {m}" for m in patches.missing)
        if not any(s.result is not None for s in steps):
            raise BenchError(f"{self.wl.name}: no step solve was recorded")
        self.problems += checks.check_certificates(steps)
        self.problems += self.wl.check(episodes)
        self.attempted += len(steps)
        self.failed += sum(1 for s in steps if not _certified(s))
        return Pass(seconds, steps, episodes)

    def probe(self, run) -> dict[str, float | None]:
        """Layer metrics of a probe run outside the pass."""
        tracer, steps = Tracer(), []
        with Patches() as patches:
            record_solves(patches, steps)
            tracer.install(patches)
            run(steps)
        return layers(tracer, steps)


def end_to_end(p: Pass, clock: ReferenceClock) -> dict[str, float]:
    """Times are in reference seconds (see ReferenceClock). ``step_max_s``
    is the worst step of each episode (the paper's complexity KPI of one
    closed loop), as a median over the episodes."""
    steps = p.steps
    done = [s.result for s in steps if s.result is not None]
    iters = [r.iterations for r in done]
    return {
        "wall_s": clock.scale(p.seconds),
        "step_p50_s": clock.scale(statistics.median(s.seconds for s in steps)),
        "step_max_s": clock.scale(statistics.median(
            max(s.seconds for s in ep.steps) for ep in p.episodes if ep.steps)),
        "iters_total": float(sum(iters)),
        "iters_p50": float(statistics.median(iters)),
        "gap_rel_max": max(r.duality_gap / (1.0 + abs(r.objective)) for r in done),
        "uncertified_share": sum(1 for s in steps if not _certified(s)) / len(steps),
        "wall_raw_s": p.seconds,
        **loop_kpis(p.episodes),
    }


def layers(tracer: Tracer, steps: list[StepSolve]) -> dict[str, float | None]:
    """Per-layer metrics of one traced run; None for a layer it never entered."""
    done = [s.result for s in steps if s.result is not None]
    iters = sum(r.iterations for r in done)
    loop_steps = [s for s in steps if s.caller == "simulate"]
    main = tracer["cli.main"]
    certs = tracer["problem.restore_feasible_inputs"].count

    def per_call(key: str, scale: float) -> float | None:
        c = tracer[key]
        return scale * c.seconds / c.count if c.count else None

    def per_cli_ms(seconds: float) -> float | None:
        return 1e3 * seconds / main.count if main.count else None

    def per_solve(count: float) -> float | None:
        return count / len(done) if done else None

    loop_s = tracer["simulate.run_closed_loop"].seconds + tracer["cli.run_closed_loop"].seconds
    cli_solve_s = sum(s.seconds for s in steps if s.caller == "cli")
    return {
        "solver.iter_ms": 1e3 * sum(r.solve_time_s for r in done) / iters if iters else None,
        "solver.iters_per_step": per_solve(iters),
        "problem.smooth_cost.calls": per_solve(tracer["problem.smooth_cost"].count),
        "solver.cert_per_solve": per_solve(certs),
        "solver.cert_pass_ratio": sum(r.termination == "converged" for r in done) / certs
        if certs else None,
        "problem.restore_feasible_inputs.ms": per_call("problem.restore_feasible_inputs", 1e3),
        "problem.restore_feasible_inputs.calls": float(certs) if certs else None,
        "simulate.step_overhead_ms": 1e3 * (loop_s - sum(s.seconds for s in loop_steps))
        / len(loop_steps) if loop_steps else None,
        "cli.overhead_ms": per_cli_ms(
            main.seconds - tracer["cli.run_closed_loop"].seconds - cli_solve_s),
        "io.load.ms": per_cli_ms(tracer["io.load"].seconds),
        "io.save.ms": per_cli_ms(tracer["io.save"].seconds),
        "io.cross_validate.ms": per_cli_ms(tracer["io.cross_validate"].seconds),
        "tree.attach_forecast.ms": per_call("tree.attach_forecast", 1e3),
    }


def measure(runner: Runner, seconds: int) -> dict[str, float]:
    setup_times = runner.setup()
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        started = time.perf_counter()
        passes.append(runner.one_pass())
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    clock = runner.clock
    rows = [end_to_end(p, clock) for p in passes]
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    out["setup_s"] = clock.scale(statistics.median(setup_times))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["speed"] = clock.speed()
    print(f"# {runner.wl.name}: {len(passes)} pass(es) of {len(passes[0].steps)} step solves")
    return out


def measure_layers(runner: Runner) -> dict[str, float]:
    setup_tracer = Tracer()
    runner.setup(setup_tracer)
    plain = runner.one_pass()
    tracer = Tracer()
    traced = runner.one_pass(tracer)
    steps = traced.steps
    out = layers(tracer, steps)
    if out["cli.overhead_ms"] is None:
        probe = runner.probe(runner.wl.cli_probe)
        for key in ("cli.overhead_ms", "io.load.ms", "io.save.ms", "io.cross_validate.ms"):
            out[key] = probe[key]
    if out["simulate.step_overhead_ms"] is None:
        out["simulate.step_overhead_ms"] = runner.probe(runner.wl.loop_probe)[
            "simulate.step_overhead_ms"]
    out.update(microbenchmarks(next(s for s in steps if s.result is not None)))
    for key in ("demo.build_demo", "tree.reduce_fan_to_tree"):
        c = setup_tracer[key]
        out[f"{key}.s"] = c.seconds / c.count if c.count else None
    out["trace.overhead_s"] = runner.clock.scale(traced.seconds - plain.seconds)
    print(f"# {runner.wl.name}: plain pass {runner.clock.scale(plain.seconds):.4f} s, "
          f"traced pass {runner.clock.scale(traced.seconds):.4f} s (reference seconds)")
    for key in [k for k, v in out.items() if v is None]:
        runner.notes.add(f"layer not measured: {key}")
        out[key] = 0.0
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool, workdir: Path):
    runner = Runner(WORKLOADS[name](seed, workdir))
    if trace:
        values, units = measure_layers(runner), metric_units("per_layer")
        shown = units
    else:
        values, units = measure(runner, seconds), metric_units("end_to_end")
        shown = {**units, **REPORT_UNITS}
    for key, unit in shown.items():
        if key in values:
            print(f"{name:<11} {key:<38} {values[key]:>14.6g} {unit}")
    print(f"{name:<11} {'step solves failed / attempted':<38} {runner.failed:>7} / "
          f"{runner.attempted}")
    for note in sorted(runner.notes):
        print(f"{name:<11} note: {note}")
    metrics = {key: {"value": float(values[key]), "unit": unit} for key, unit in units.items()}
    runner.problems += checks.check_finite({k: m["value"] for k, m in metrics.items()})
    return runner, metrics


def main(argv: list[str] | None = None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(json.dumps({"metadata": run_metadata(args.seed, loadavg)}))
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    results = []
    try:
        for name in names:
            results.append((name, *run_workload(name, args.seed, args.seconds,
                                                bool(args.trace), workdir / name)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for _, runner, _ in results for p in runner.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if len(results) == 1:
        metrics = results[0][2]
    else:
        metrics = {f"{name}.{key}": m for name, _, ms in results for key, m in ms.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for _, r, _ in results),
        "failed": sum(r.failed for _, r, _ in results),
        "metrics": metrics,
    }))
    return 0 if not problems else 1
