"""Correctness checks on the outputs of one pass.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

from watermpc import problem, solver
from watermpc.solver import SolverConfig

from instrument import StepSolve

# Relative slack for recomputed values that follow the solver's own
# arithmetic in a different call order.
ROUNDING = 1e-9


def recompute_gap(step: StepSolve) -> tuple[float, float]:
    """Duality gap and primal value of a result, from public functions only.

    Primal side: the returned ergodic average, restored into the input box
    and coupling set, rolled out and priced with ``smooth_cost + g_value``.
    Dual side: the value of ``dual_gradient`` at the returned dual minus
    ``g_conjugate_value`` there.
    """
    inst, res = step.instance, step.result
    cache = solver.factor_step(inst)
    u_avg, _ = inst.split_primal(res.primal_avg)
    u_f = problem.restore_feasible_inputs(inst, u_avg, cache.e_pinv)
    x_f = problem.rollout_inputs(inst, u_f)
    primal = problem.smooth_cost(inst, u_f) + problem.g_value(
        inst, problem.apply_H(inst, inst.join_primal(u_f, x_f)))
    _, inner = solver.dual_gradient(cache, inst, res.dual)
    dual = inner - problem.g_conjugate_value(inst, res.dual)
    return primal - dual, primal


def check_certificates(steps: list[StepSolve]) -> list[str]:
    """Every returned gap must match its recomputation; a ``converged``
    step must meet its tolerance on the recomputed gap."""
    problems = []
    for i, step in enumerate(steps):
        res = step.result
        if res is None:
            continue
        config = step.config or SolverConfig()
        gap, primal = recompute_gap(step)
        scale = 1.0 + abs(primal) + abs(gap)
        if not (abs(gap - res.duality_gap) <= ROUNDING * scale):
            problems.append(f"step solve {i}: gap {res.duality_gap!r} recomputes as {gap!r}")
        if not (abs(primal - res.objective) <= ROUNDING * scale):
            problems.append(f"step solve {i}: objective {res.objective!r} recomputes as {primal!r}")
        if res.termination == "converged" and not gap <= config.tol * (1.0 + abs(primal)):
            problems.append(
                f"step solve {i}: converged with relative gap {gap / (1.0 + abs(primal)):.3g}"
                f" over tol {config.tol}")
        if res.iterations > config.max_iter:
            problems.append(f"step solve {i}: {res.iterations} iterations over cap {config.max_iter}")
    return problems


def check_actions(model, u: np.ndarray, label: str) -> list[str]:
    """Applied inputs lie inside the input box."""
    u = np.atleast_2d(u)
    bad = np.nonzero(np.any((u < model.u_min) | (u > model.u_max), axis=1))[0]
    return [f"{label}: input of step {int(k)} leaves [u_min, u_max]" for k in bad]


def check_loop(model, log, steps: list[StepSolve], label: str) -> list[str]:
    """Plant recursion, input box and agreement of the log with the solves."""
    problems = check_actions(model, log.u, label)
    expected = log.x[:-1] @ model.A.T + log.u @ model.B.T + log.demand @ model.Gd.T
    scale = 1.0 + float(np.max(np.abs(log.x)))
    err = float(np.max(np.abs(log.x[1:] - expected)))
    if not err <= ROUNDING * scale:
        problems.append(f"{label}: x[k+1] = A x[k] + B u[k] + Gd d[k] off by {err:.3g}")
    if len(steps) != log.h_sim:
        problems.append(f"{label}: {len(steps)} solves recorded for {log.h_sim} steps")
    else:
        applied = np.array([s.result.u0 for s in steps])
        if not np.array_equal(applied, log.u):
            problems.append(f"{label}: logged inputs differ from the solver's u0")
    return problems


def check_finite(metrics: dict[str, float]) -> list[str]:
    return [f"metric {k} is not finite" for k, v in metrics.items() if not math.isfinite(v)]
