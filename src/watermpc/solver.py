"""Accelerated proximal gradient method on the Fenchel dual.

The dual problem min_y f*(-H'y) + g*(y) has a smooth first term (f is
strongly convex on its domain) and a prox-friendly second term, so
Nesterov-accelerated proximal gradient iterations apply:

    w  = y + beta * (y - y_prev)
    z  = argmin_x f(x) + <H'w, x>          (dual gradient, inner QP)
    y+ = prox_{gamma g*}(w + gamma H z)

with extrapolation weights driven by the theta recursion
``theta+ = (sqrt(theta^4 + 4 theta^2) - theta^2) / 2``. An ergodic primal
average with weights proportional to 1/theta carries the accelerated
convergence rate; the reported control action comes from it.

The inner QP (minimize the smooth cost subject to node dynamics and
mixing-node coupling) is solved exactly by a tree-structured recursion:
coupling is eliminated per node through a null-space parametrization of
the input space, and the remaining equality-constrained problem is solved
by a backward stage recursion followed by a forward rollout. Because the
input-increment cost ties a node to its ancestor's input, the backward
cost-to-go is carried in the ancestor's (state, input) pair; probability
telescoping makes the per-node input Hessians proportional to the node
probability with a stage-uniform core, so one factorization per stage
suffices. Those factorizations live in :class:`FactorCache` and are
reusable across instances sharing the same structure.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .problem import (
    ProblemInstance,
    g_conjugate_value,
    prox_g_conjugate,
    restore_feasible_inputs,
    rollout_inputs,
    smooth_cost,
)

IterateHook = Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]


@dataclass
class SolverConfig:
    """Iteration budget, termination tolerance and step-size choice.

    ``gamma`` is the dual step size; None selects 1/L with L estimated by
    power iteration. ``averaged_primal`` controls whether the control
    action is read from the ergodic average (default) or the last iterate.
    Termination is certified by a duality-gap check run every
    ``gap_check_every`` iterations once the input-box residual test holds.
    """

    max_iter: int = 20000
    tol: float = 5e-2
    gamma: float | None = None
    averaged_primal: bool = True
    gap_check_every: int = 25

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive when given")
        if self.gap_check_every < 1:
            raise ValueError("gap_check_every must be at least 1")


@dataclass
class SolverResult:
    """Control action plus full iterate information for diagnostics."""

    u0: np.ndarray
    primal: np.ndarray
    primal_avg: np.ndarray
    dual: np.ndarray
    iterations: int
    termination: str
    primal_residual: float
    dual_change: float
    duality_gap: float
    objective: float
    solve_time_s: float
    gamma: float
    lipschitz: float | None


@dataclass
class FactorCache:
    """Precomputed quantities for fast repeated dual-gradient solves.

    Structural members (null basis, per-stage gains, Lipschitz estimate)
    depend only on the model matrices, the input weight and the tree
    topology with its probabilities; the per-node members (coupling
    particular solutions and cost offsets) also depend on node demand and
    price values and are rebuilt cheaply per instance.
    """

    null_basis: np.ndarray            # orthonormal basis of null(E)
    e_pinv: np.ndarray                # pseudo-inverse of E
    u_part: np.ndarray                # per-node particular solution of the coupling
    e_offset: np.ndarray              # per-node input offset, dual-independent part
    d_gain: list[np.ndarray]          # per-stage feedback on the ancestor input
    t_mat: list[np.ndarray]           # per-stage solution operator on the null space
    lam: list[np.ndarray]             # per-stage curvature (cost-to-go core + 2 W_u)
    pi: list[np.ndarray]              # per-stage input cost-to-go core
    kappa: float                      # crude lower curvature bound of f on its domain
    lipschitz: float | None = None
    signature: tuple = field(default=(), repr=False)


def _structure_signature(instance: ProblemInstance) -> tuple:
    m = instance.model
    return (
        m.A.tobytes(),
        m.B.tobytes(),
        m.E.tobytes(),
        instance.wu.tobytes(),
        instance.prob.tobytes(),
        instance.anc_row.tobytes(),
        tuple((sl.start, sl.stop) for sl in instance.stage_slices),
    )


def _null_space(E: np.ndarray, n_inputs: int) -> tuple[np.ndarray, np.ndarray]:
    if E.shape[0] == 0:
        return np.eye(n_inputs), np.zeros((0, n_inputs))
    _, s_svd, vt = np.linalg.svd(E)
    cutoff = max(E.shape) * np.finfo(float).eps * (s_svd[0] if s_svd.size else 0.0)
    rank = int(np.count_nonzero(s_svd > cutoff))
    basis = vt[rank:].T
    if basis.shape[1] == 0:
        raise ValueError("mixing-node coupling leaves no free inputs")
    return basis, np.linalg.pinv(E)


def factor_step(
    instance: ProblemInstance, structure_from: FactorCache | None = None
) -> FactorCache:
    """Build (or rebind) the factor cache for an instance.

    Passing ``structure_from`` reuses the stage factorizations and the
    Lipschitz estimate of a cache built for another instance with the same
    model matrices, weights and tree structure, recomputing only the
    per-node vectors.
    """
    m = instance.model
    sig = _structure_signature(instance)

    if structure_from is not None:
        if structure_from.signature != sig:
            raise ValueError("cached factors were built for a different structure")
        basis, e_pinv = structure_from.null_basis, structure_from.e_pinv
        d_gain, t_mat = structure_from.d_gain, structure_from.t_mat
        lam, pi = structure_from.lam, structure_from.pi
        kappa = structure_from.kappa
        lipschitz = structure_from.lipschitz
    else:
        basis, e_pinv = _null_space(m.E, m.n_inputs)
        check = m.E @ basis
        if check.size and float(np.max(np.abs(check))) > 1e-12 * (
            1.0 + float(np.max(np.abs(m.E)))
        ):
            raise RuntimeError("null-space basis fails E @ N = 0")
        wu = instance.wu
        horizon = instance.tree.horizon
        d_gain = [np.empty(0)] * horizon
        t_mat = [np.empty(0)] * horizon
        lam = [np.empty(0)] * horizon
        pi = [np.empty(0)] * horizon
        pi_next = np.zeros((m.n_inputs, m.n_inputs))
        for s in range(horizon, 0, -1):
            lam_s = pi_next + 2.0 * wu
            reduced = basis.T @ lam_s @ basis
            try:
                np.linalg.cholesky(reduced)
            except np.linalg.LinAlgError:
                raise ValueError(
                    "input weight is singular on the coupling null space"
                ) from None
            t_s = basis @ np.linalg.solve(reduced, basis.T)
            t_s = 0.5 * (t_s + t_s.T)
            d_s = 2.0 * (t_s @ wu)
            pi_s = 2.0 * wu - 2.0 * (wu @ d_s)
            pi_s = 0.5 * (pi_s + pi_s.T)
            lam[s - 1], t_mat[s - 1], d_gain[s - 1], pi[s - 1] = lam_s, t_s, d_s, pi_s
            pi_next = pi_s
        p_min = float(instance.prob.min())
        w_min = float(np.linalg.eigvalsh(instance.wu)[0])
        kappa = 2.0 * w_min * p_min / (horizon * max(instance.n_nonroot, 1))
        lipschitz = None

    # Particular solutions of E u = -Ed d per node, least-norm flavor.
    if m.n_mixing > 0:
        rhs = instance.demand @ m.Ed.T
        u_part = -(rhs @ e_pinv.T)
        resid = np.abs(u_part @ m.E.T + rhs)
        scale = 1e-9 * (1.0 + np.abs(rhs))
        bad = np.nonzero(np.any(resid > scale, axis=1))[0]
        if bad.size:
            raise ValueError(
                f"coupling E u = -Ed d is infeasible at tree node {int(bad[0]) + 1}"
            )
    else:
        u_part = np.zeros((instance.n_nonroot, m.n_inputs))

    # Dual-independent part of the per-node input offset:
    # (I - T_s Lam_s) u_part - T_s * (economic cost row).
    e_offset = np.empty_like(u_part)
    for s, sl in enumerate(instance.stage_slices, start=1):
        t_s, lam_s = t_mat[s - 1], lam[s - 1]
        e_offset[sl] = u_part[sl] - (u_part[sl] @ lam_s + instance.econ[sl]) @ t_s

    return FactorCache(
        null_basis=basis,
        e_pinv=e_pinv,
        u_part=u_part,
        e_offset=e_offset,
        d_gain=d_gain,
        t_mat=t_mat,
        lam=lam,
        pi=pi,
        kappa=kappa,
        lipschitz=lipschitz,
        signature=sig,
    )


def _dual_gradient_parts(
    cache: FactorCache,
    instance: ProblemInstance,
    Yx: np.ndarray,
    Yu: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Inner QP solve given the collapsed dual rows (y1 + y2, y3).

    Returns the per-node inputs U and states X minimizing f(x) + <H'y, x>;
    :func:`dual_gradient` also prices them. Backward pass accumulates the linear
    cost-to-go coefficients, summing each stage's rows into their parents
    by segment sums over the instance's child groups; forward pass rolls
    out the stage-gain feedback on the inputs, then the states.
    """
    m = instance.model
    n = instance.n_nonroot
    w_bar = Yx.copy()
    r_bar = np.zeros((n, m.n_inputs))
    e_vec = np.empty((n, m.n_inputs))
    for s in range(instance.tree.horizon, 0, -1):
        sl = instance.stage_slices[s - 1]
        lin = Yu[sl] + w_bar[sl] @ m.B + r_bar[sl]
        e_vec[sl] = cache.e_offset[sl] - (
            (lin / instance.prob[sl, None]) @ cache.t_mat[s - 1]
        )
        if s > 1:
            # Sum the stage's rows per parent, in the parent stage's order.
            w_sum = w_bar[sl]
            r_sum = 2.0 * instance.prob[sl, None] * e_vec[sl]
            groups = instance.child_groups[s - 1]
            if groups is not None:
                order, starts = groups
                w_sum = np.add.reduceat(w_sum[order], starts)
                r_sum = np.add.reduceat(r_sum[order], starts)
            parent_sl = instance.stage_slices[s - 2]
            w_bar[parent_sl] += w_sum @ m.A
            r_bar[parent_sl] -= r_sum @ instance.wu

    U = np.empty((n, m.n_inputs))
    for s in range(1, instance.tree.horizon + 1):
        sl = instance.stage_slices[s - 1]
        u_prev = instance.q[None, :] if s == 1 else U[instance.parent_rows[s - 1]]
        U[sl] = u_prev @ cache.d_gain[s - 1].T + e_vec[sl]
    return U, rollout_inputs(instance, U)


def dual_gradient(
    cache: FactorCache, instance: ProblemInstance, y: np.ndarray
) -> tuple[np.ndarray, float]:
    """Exact minimizer of f(x) + <H'y, x> and the attained value.

    The minimizer satisfies every node's dynamics and coupling constraint
    by construction; the map y -> minimizer is affine. The returned value
    is the attained infimum, the negative of f*(-H'y).
    """
    if cache.signature != _structure_signature(instance):
        raise ValueError("factor cache does not match this instance")
    Y1, Y2, Y3 = instance.split_dual(y)
    Yx = Y1 + Y2
    U, X = _dual_gradient_parts(cache, instance, Yx, Y3)
    value = smooth_cost(instance, U) + float((Yx * X).sum() + (Y3 * U).sum())
    return instance.join_primal(U, X), value


def _next_theta(theta: float) -> float:
    # Rationalized root of theta+^2 / theta^2 + theta+ - 1 = 0; satisfies
    # 1 - theta+ = theta+^2 / theta^2 with equality to machine precision.
    t = theta * theta
    return 2.0 * t / (t + np.sqrt(t * t + 4.0 * t))


def theta_sequence(count: int) -> np.ndarray:
    """First ``count`` extrapolation parameters, theta_0 = 1."""
    out = np.empty(count)
    th = 1.0
    for i in range(count):
        out[i] = th
        th = _next_theta(th)
    return out


def estimate_lipschitz(
    cache: FactorCache,
    instance: ProblemInstance,
    rel_tol: float = 1e-3,
    max_iter: int = 500,
    safety: float = 1.1,
) -> float:
    """Largest curvature of the smooth dual term, by power iteration.

    Runs on the positive semidefinite linear part of y -> -H x*(y) until
    the Rayleigh quotient stalls within ``rel_tol``, then adds the safety
    margin. Falls back to the (expensive, always-valid) trace bound with a
    warning if the iteration does not settle.
    """
    if cache.signature != _structure_signature(instance):
        raise ValueError("factor cache does not match this instance")
    nt = instance.model.n_tanks
    zero = np.zeros((instance.n_nonroot, nt))
    u0, x0 = _dual_gradient_parts(
        cache, instance, zero, np.zeros((instance.n_nonroot, instance.model.n_inputs))
    )

    def operator(vec: np.ndarray) -> np.ndarray:
        Y1, Y2, Y3 = instance.split_dual(vec)
        u, x = _dual_gradient_parts(cache, instance, Y1 + Y2, Y3)
        return instance.join_dual(x0 - x, x0 - x, u0 - u)

    rng = np.random.default_rng(0)
    v = rng.standard_normal(instance.n_dual)
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    lam = 0.0
    converged = False
    for _ in range(max_iter):
        gv = operator(v)
        lam = float(v @ gv)
        norm = float(np.linalg.norm(gv))
        if norm == 0.0:
            break
        v = gv / norm
        if abs(lam - lam_prev) <= rel_tol * max(abs(lam), 1e-300):
            converged = True
            break
        lam_prev = lam
    if not converged and lam > 0.0:
        warnings.warn(
            "power iteration did not settle; falling back to the trace bound",
            RuntimeWarning,
            stacklevel=2,
        )
        basis = np.zeros(instance.n_dual)
        total = 0.0
        for i in range(instance.n_dual):
            basis[i] = 1.0
            total += float(operator(basis)[i])
            basis[i] = 0.0
        lam = total
    if lam <= 0.0:
        raise RuntimeError("dual curvature estimate failed (operator not positive)")
    estimate = safety * lam
    cache.lipschitz = estimate
    return estimate


def _penalty_value(instance: ProblemInstance, X: np.ndarray) -> float:
    m = instance.model
    w = instance.weights
    box = np.linalg.norm(X - np.clip(X, m.x_min, m.x_max), axis=1).sum()
    safe = np.linalg.norm(X - np.maximum(X, m.x_safe), axis=1).sum()
    return float(w.w_x * box + w.w_s * safe)


def solve(
    instance: ProblemInstance,
    config: SolverConfig | None = None,
    cache: FactorCache | None = None,
    iterate_hook: IterateHook | None = None,
) -> SolverResult:
    """Run the accelerated dual proximal gradient method on one instance.

    Termination: the averaged primal's distance to the input box must fall
    under ``tol`` relative to iterate scale, and a duality-gap certificate
    (primal value of the feasibility-restored average minus the dual value
    at the current iterate) must fall under ``tol`` relative to the
    objective. The control action u0 is the probability-weighted average
    of the stage-1 node inputs of the chosen primal, clipped to the box.

    ``iterate_hook(nu, y, z, z_avg)`` observes every iteration.
    """
    config = config or SolverConfig()
    if cache is None:
        cache = factor_step(instance)
    elif cache.signature != _structure_signature(instance):
        raise ValueError("factor cache does not match this instance")
    gamma = config.gamma
    lipschitz = cache.lipschitz
    if gamma is None:
        if lipschitz is None:
            lipschitz = estimate_lipschitz(cache, instance)
        gamma = 1.0 / lipschitz

    m = instance.model
    nt, nu_dim = m.n_tanks, m.n_inputs
    n = instance.n_nonroot
    y = np.zeros(instance.n_dual)
    y_prev = np.zeros(instance.n_dual)
    theta = theta_prev = 1.0
    U_avg = np.zeros((n, nu_dim))
    X_avg = np.zeros((n, nt))
    U = np.zeros((n, nu_dim))
    X = np.zeros((n, nt))
    primal_residual = np.inf
    dual_change = np.inf
    gap = np.inf
    objective = np.inf
    iterations = config.max_iter
    termination = "max_iter"

    started = time.perf_counter()

    def certificate(y_point: np.ndarray) -> tuple[float, float]:
        """Duality gap of the feasibility-restored average against y_point."""
        u_f = restore_feasible_inputs(instance, U_avg, cache.e_pinv)
        x_f = rollout_inputs(instance, u_f)
        primal_value = smooth_cost(instance, u_f) + _penalty_value(instance, x_f)
        _, inner = dual_gradient(cache, instance, y_point)
        dual_value = inner - g_conjugate_value(instance, y_point)
        return primal_value - dual_value, primal_value

    for nu in range(config.max_iter):
        beta = theta * (1.0 / theta_prev - 1.0)
        w_vec = y + beta * (y - y_prev)
        w_rows = w_vec.reshape(n, -1)
        U, X = _dual_gradient_parts(
            cache, instance, w_rows[:, :nt] + w_rows[:, nt:2 * nt],
            w_rows[:, 2 * nt:],
        )
        w_plus = w_vec.copy()
        rows = w_plus.reshape(n, -1)
        rows[:, :nt] += gamma * X
        rows[:, nt:2 * nt] += gamma * X
        rows[:, 2 * nt:] += gamma * U
        y_next = prox_g_conjugate(instance, w_plus, gamma)

        if nu == 0:
            U_avg[:] = U
            X_avg[:] = X
        else:
            U_avg *= 1.0 - theta
            U_avg += theta * U
            X_avg *= 1.0 - theta
            X_avg += theta * X

        dual_change = float(np.max(np.abs(y_next - y)))
        if not np.isfinite(dual_change):
            raise RuntimeError(f"solver produced a non-finite iterate at nu={nu}")
        over = np.maximum(U_avg - m.u_max[None, :], 0.0)
        under = np.maximum(m.u_min[None, :] - U_avg, 0.0)
        primal_residual = float(max(over.max(initial=0.0), under.max(initial=0.0)))
        image_scale = max(
            float(np.max(np.abs(X_avg), initial=0.0)),
            float(np.max(np.abs(U_avg), initial=0.0)),
        )

        if iterate_hook is not None:
            iterate_hook(
                nu,
                y_next,
                instance.join_primal(U, X),
                instance.join_primal(U_avg, X_avg),
            )

        y_prev, y = y, y_next
        theta_prev, theta = theta, _next_theta(theta)

        if (
            primal_residual <= config.tol * (1.0 + image_scale)
            and (nu + 1) % config.gap_check_every == 0
        ):
            gap, objective = certificate(y)
            if gap <= config.tol * (1.0 + abs(objective)):
                iterations = nu + 1
                termination = "converged"
                break

    if termination == "max_iter":
        gap, objective = certificate(y)
    elapsed = time.perf_counter() - started

    U_out = U_avg if config.averaged_primal else U
    sl1 = instance.stage_slices[0]
    u0 = instance.prob[sl1] @ U_out[sl1]
    u0 = np.clip(u0, m.u_min, m.u_max)
    return SolverResult(
        u0=u0,
        primal=instance.join_primal(U, X),
        primal_avg=instance.join_primal(U_avg, X_avg),
        dual=y,
        iterations=iterations,
        termination=termination,
        primal_residual=primal_residual,
        dual_change=dual_change,
        duality_gap=gap,
        objective=objective,
        solve_time_s=elapsed,
        gamma=gamma,
        lipschitz=lipschitz,
    )

