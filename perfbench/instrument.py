"""Call recording and layer microbenchmarks around public watermpc functions.

The benchmark never edits the package. It replaces a module attribute for
the duration of a pass, at the place where the caller looks the function
up (``watermpc.simulate.solve``, not ``watermpc.solver.solve``), and puts
the original back afterwards. A target that a later version of the
package removes or renames is reported as missing instead of failing.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from watermpc import problem, solver


class Patches:
    """Module attributes replaced by wrappers until ``close``."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, module_name: str, attr: str, make: Callable[[Callable], Callable]) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return False
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))
        return True

    def close(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# A typical time of one calibration() call on the 2-core Xeon KVM guest the
# benchmark was defined on, where it ranged over 3-6 ms.
CALIBRATION_REF_S = 4.0e-3
_CAL_M = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
_CAL_V = np.cos(np.arange(1024.0)).reshape(64, 16)


def calibration() -> float:
    """A fixed mix of small numpy calls and Python loop overhead."""
    acc = 0.0
    for _ in range(400):
        w = np.clip(_CAL_V @ _CAL_M, -1.0, 1.0)
        acc += float(np.abs(w).sum()) + sum(range(20))
    return acc


class ReferenceClock:
    """Converts elapsed seconds into reference seconds.

    Other tenants of the host move this process's speed by 15-50% within
    seconds to minutes, which would swamp a 10% regression. ``mark`` times
    the fixed ``calibration`` kernel; ``scale`` divides a time by the mean
    kernel time, trimmed by a tenth at each end, over CALIBRATION_REF_S, so
    it reads as on a machine where the kernel takes CALIBRATION_REF_S. A run
    marks before and after each set-up and pass and after every step solve,
    and scales all its times by the one factor from all its marks. On
    repeated runs this tracked speed better than the median of the marks
    or the marks next to each step.
    """

    def __init__(self) -> None:
        self.kernel_s: list[float] = []

    def mark(self) -> float:
        """Run the kernel; returns its time."""
        start = time.perf_counter()
        calibration()
        self.kernel_s.append(time.perf_counter() - start)
        return self.kernel_s[-1]

    def speed(self) -> float:
        """Trimmed mean kernel time over CALIBRATION_REF_S; above 1 is slower."""
        ordered = sorted(self.kernel_s)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut]) / CALIBRATION_REF_S

    def scale(self, seconds: float) -> float:
        return seconds / self.speed()


@dataclass
class StepSolve:
    """One call of ``solve`` made by the program for a control step."""

    caller: str            # "simulate" or "cli"
    instance: Any
    config: Any            # the SolverConfig passed, or None for the default
    result: Any            # SolverResult, or None when solve raised
    seconds: float         # wall time of the call
    error: str | None = None


# Where the program looks ``solve`` up for a control step.
SOLVE_SITES = (("watermpc.simulate", "solve", "simulate"), ("watermpc.cli", "solve_instance", "cli"))


def record_solves(patches: Patches, log: list[StepSolve],
                  clock: ReferenceClock | None = None) -> None:
    """Append a StepSolve to ``log`` for every step solve the program makes,
    with a clock mark after it when a clock is given."""

    def make(caller: str) -> Callable[[Callable], Callable]:
        def outer(original: Callable) -> Callable:
            def wrapped(instance, *args, **kwargs):
                config = args[0] if args else kwargs.get("config")
                step = StepSolve(caller, instance, config, None, 0.0)
                started = time.perf_counter()
                try:
                    step.result = original(instance, *args, **kwargs)
                except RuntimeError as exc:
                    step.error = str(exc)
                    raise
                finally:
                    step.seconds = time.perf_counter() - started
                    if clock is not None:
                        clock.mark()
                    log.append(step)
                return step.result
            return wrapped
        return outer

    for module_name, attr, caller in SOLVE_SITES:
        patches.wrap(module_name, attr, make(caller))


@dataclass
class Calls:
    count: int = 0
    seconds: float = 0.0


# (module, attribute, layer key). Several sites may share one key.
TRACED = (
    ("watermpc.demo", "build_demo", "demo.build_demo"),
    ("watermpc.demo", "reduce_fan_to_tree", "tree.reduce_fan_to_tree"),
    ("watermpc.simulate", "attach_forecast", "tree.attach_forecast"),
    ("watermpc.cli", "attach_forecast", "tree.attach_forecast"),
    ("watermpc.simulate", "run_closed_loop", "simulate.run_closed_loop"),
    ("watermpc.cli", "run_closed_loop", "cli.run_closed_loop"),
    ("watermpc.cli", "main", "cli.main"),
    ("watermpc.solver", "smooth_cost", "problem.smooth_cost"),
    ("watermpc.solver", "restore_feasible_inputs", "problem.restore_feasible_inputs"),
    ("watermpc.io", "load_network", "io.load"),
    ("watermpc.io", "load_tree", "io.load"),
    ("watermpc.io", "load_forecast", "io.load"),
    ("watermpc.io", "load_controller_config", "io.load"),
    ("watermpc.io", "load_state", "io.load"),
    ("watermpc.io", "load_realizations", "io.load"),
    ("watermpc.io", "save_control_output", "io.save"),
    ("watermpc.io", "save_simlog", "io.save"),
    ("watermpc.io", "save_kpi", "io.save"),
    ("watermpc.io", "cross_validate", "io.cross_validate"),
)


@dataclass
class Tracer:
    """Call counts and inclusive times per layer key."""

    calls: dict[str, Calls] = field(default_factory=dict)

    def install(self, patches: Patches) -> None:
        for module_name, attr, key in TRACED:
            patches.wrap(module_name, attr, self._timer(self.calls.setdefault(key, Calls())))

    @staticmethod
    def _timer(acc: Calls) -> Callable[[Callable], Callable]:
        def outer(original: Callable) -> Callable:
            def wrapped(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    acc.count += 1
                    acc.seconds += time.perf_counter() - started
            return wrapped
        return outer

    def __getitem__(self, key: str) -> Calls:
        return self.calls.get(key, Calls())


def _median_seconds(fn: Callable[[], Any], min_reps: int = 5, budget_s: float = 0.3) -> float:
    """Median wall time of ``fn`` over at least ``min_reps`` calls."""
    times = []
    spent = 0.0
    while len(times) < min_reps or (spent < budget_s and len(times) < 200):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
        spent += times[-1]
    return statistics.median(times)


def count_profiled_calls(fn: Callable[[], Any]) -> int:
    """Python and C function calls made while ``fn`` runs, by ``sys.setprofile``."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def microbenchmarks(step: StepSolve) -> dict[str, float]:
    """Layer timings on one recorded step instance, at its returned dual."""
    inst, res = step.instance, step.result
    cache = solver.factor_step(inst)
    lip_cache = solver.factor_step(inst)
    return {
        "solver.dual_gradient.ms": 1e3 * _median_seconds(
            lambda: solver.dual_gradient(cache, inst, res.dual)),
        "solver.dual_gradient.calls_profiled": count_profiled_calls(
            lambda: solver.dual_gradient(cache, inst, res.dual)),
        "problem.prox_g_conjugate.ms": 1e3 * _median_seconds(
            lambda: problem.prox_g_conjugate(inst, res.dual, res.gamma)),
        "solver.factor_step.cold_ms": 1e3 * _median_seconds(lambda: solver.factor_step(inst)),
        "solver.factor_step.rebind_ms": 1e3 * _median_seconds(
            lambda: solver.factor_step(inst, structure_from=cache)),
        "solver.estimate_lipschitz.s": _median_seconds(
            lambda: solver.estimate_lipschitz(lip_cache, inst), min_reps=3, budget_s=0.0),
    }
