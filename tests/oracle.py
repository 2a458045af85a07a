"""Slow reference implementations backing the test suite.

Everything here takes the stacked dense route on purpose: constraints are
assembled row by row and solved as one symmetric indefinite KKT system, so
agreement with the tree-structured solver is evidence rather than
tautology. Single-threaded, small instances only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from watermpc.problem import (
    ProblemInstance,
    _node_steps,
    apply_H,
    g_conjugate_value,
    g_value,
    restore_feasible_inputs,
    rollout_inputs,
    smooth_cost,
)

_MAX_DENSE_PRIMAL = 5000

# Relative feasibility slack for domain membership in eval_f.
FEAS_TOL = 1e-8


def eval_f(instance: ProblemInstance, z: np.ndarray) -> float:
    """Smooth cost if z satisfies dynamics and coupling, +inf otherwise."""
    U, X = instance.split_primal(z)
    m = instance.model
    tol = FEAS_TOL * (1.0 + float(np.max(np.abs(z), initial=0.0)))
    if m.n_mixing > 0:
        coupling = U @ m.E.T + instance.demand @ m.Ed.T
        if float(np.max(np.abs(coupling))) > tol:
            return np.inf
    x_anc = X[instance.anc_row]
    x_anc[instance.anc_row < 0] = instance.p
    resid = X - (x_anc @ m.A.T + U @ m.B.T + instance.demand_gd)
    if float(np.max(np.abs(resid))) > tol:
        return np.inf
    return smooth_cost(instance, U)


def primal_objective(instance: ProblemInstance, z: np.ndarray) -> float:
    """Full objective f(z) + g(Hz)."""
    fz = eval_f(instance, z)
    if not np.isfinite(fz):
        return np.inf
    return fz + g_value(instance, apply_H(instance, z))


def apply_H_adjoint(instance: ProblemInstance, y: np.ndarray) -> np.ndarray:
    """Adjoint: (y1, y2, y3) lands in the (x, u) slots as (y1 + y2, y3)."""
    Y1, Y2, Y3 = instance.dual_blocks(y)
    return instance.join_primal(Y3, Y1 + Y2)


def _dist_prox(V: np.ndarray, proj: np.ndarray, threshold: float) -> np.ndarray:
    """Prox of ``threshold * (Euclidean distance to the set)`` per row.

    Points farther than the threshold move toward their projection by the
    threshold; nearer points land on the set.
    """
    diff = V - proj
    dist = np.linalg.norm(diff, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(dist > 0.0, np.minimum(1.0, threshold / dist), 0.0)
    return V - step[:, None] * diff


def prox_g(
    instance: ProblemInstance, v: np.ndarray, gamma: float | np.ndarray
) -> np.ndarray:
    """Proximal operator of gamma * g, node-separable and slot-separable.

    ``gamma`` is a scalar or one step per node (row), since g separates
    by node. The solver uses only the conjugate prox; this one checks it
    through the Moreau identity.
    """
    if np.ndim(gamma) == 0:
        gamma = np.full(instance.n_nonroot, gamma)
    step = _node_steps(instance, gamma)
    m, w = instance.model, instance.weights
    V1, V2, V3 = instance.dual_blocks(v)
    out1 = _dist_prox(V1, np.clip(V1, m.x_min, m.x_max), step * w.w_x)
    out2 = _dist_prox(V2, np.maximum(V2, m.x_safe), step * w.w_s)
    out3 = np.clip(V3, m.u_min, m.u_max)
    return np.hstack([out1, out2, out3])


@dataclass
class DenseKkt:
    """Stacked quadratic cost and equality constraints of the inner QP."""

    hessian: np.ndarray
    linear: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray


def build_dense_kkt(instance: ProblemInstance) -> DenseKkt:
    """Assemble the inner QP over the full primal vector, brute force."""
    m = instance.model
    nu, nt = m.n_inputs, m.n_tanks
    n = instance.n_nonroot
    width = nu + nt
    dim = n * width

    def u_off(r: int) -> slice:
        return slice(r * width, r * width + nu)

    def x_off(r: int) -> slice:
        return slice(r * width + nu, (r + 1) * width)

    hess = np.zeros((dim, dim))
    lin = np.zeros(dim)
    wu = instance.wu
    for r in range(n):
        pr = instance.prob[r]
        hess[u_off(r), u_off(r)] += 2.0 * pr * wu
        a = instance.anc_row[r]
        if a >= 0:
            hess[u_off(r), u_off(a)] -= 2.0 * pr * wu
            hess[u_off(a), u_off(r)] -= 2.0 * pr * wu
            hess[u_off(a), u_off(a)] += 2.0 * pr * wu
        else:
            lin[u_off(r)] += -2.0 * pr * (wu @ instance.q)
        lin[u_off(r)] += pr * instance.weights.w_alpha * (m.alpha0 + instance.price[r])

    n_rows = n * (nt + m.n_mixing)
    cons = np.zeros((n_rows, dim))
    rhs = np.zeros(n_rows)
    row = 0
    for r in range(n):
        cons[row:row + nt, x_off(r)] = np.eye(nt)
        cons[row:row + nt, u_off(r)] = -m.B
        a = instance.anc_row[r]
        if a >= 0:
            cons[row:row + nt, x_off(a)] = -m.A
            rhs[row:row + nt] = m.Gd @ instance.demand[r]
        else:
            rhs[row:row + nt] = m.A @ instance.p + m.Gd @ instance.demand[r]
        row += nt
        if m.n_mixing > 0:
            cons[row:row + m.n_mixing, u_off(r)] = m.E
            rhs[row:row + m.n_mixing] = -m.Ed @ instance.demand[r]
            row += m.n_mixing
    return DenseKkt(hessian=hess, linear=lin, constraints=cons, rhs=rhs)


def dense_kkt_solve(instance: ProblemInstance, y: np.ndarray) -> np.ndarray:
    """Exact minimizer of f(x) + <H'y, x> by one dense symmetric solve."""
    if instance.n_primal > _MAX_DENSE_PRIMAL:
        raise ValueError(
            f"instance with {instance.n_primal} primal variables is too large "
            f"for the dense oracle (limit {_MAX_DENSE_PRIMAL})"
        )
    kkt = build_dense_kkt(instance)
    dim = kkt.hessian.shape[0]
    n_rows = kkt.constraints.shape[0]
    K = np.zeros((dim + n_rows, dim + n_rows))
    K[:dim, :dim] = kkt.hessian
    K[:dim, dim:] = kkt.constraints.T
    K[dim:, :dim] = kkt.constraints
    full_rhs = np.concatenate([-(kkt.linear + apply_H_adjoint(instance, y)), kkt.rhs])
    try:
        sol = scipy.linalg.solve(K, full_rhs, assume_a="sym")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise RuntimeError(
            "singular KKT system: reduced cost is not strongly convex"
        ) from exc
    resid = float(np.max(np.abs(K @ sol - full_rhs)))
    scale = 1.0 + float(np.max(np.abs(full_rhs))) + float(np.max(np.abs(sol)))
    if not np.isfinite(resid) or resid > 1e-10 * scale * (1.0 + np.abs(K).max()):
        raise RuntimeError(f"dense KKT solve failed: residual {resid:.3e}")
    return sol[:dim]


def _objective_on_inputs(instance: ProblemInstance, u_batch: np.ndarray) -> np.ndarray:
    """Full objective for a batch of stacked input vectors (box-feasible)."""
    m = instance.model
    n = instance.n_nonroot
    P = u_batch.shape[0]
    U = u_batch.reshape(P, n, m.n_inputs)
    X = np.empty((P, n, m.n_tanks))
    for j, sl in enumerate(instance.stage_slices):
        anc = instance.anc_row[sl]
        if j == 0:
            x_prev = np.broadcast_to(instance.p, (P, sl.stop - sl.start, m.n_tanks))
        else:
            x_prev = X[:, anc]
        X[:, sl] = (
            x_prev @ m.A.T + U[:, sl] @ m.B.T
            + np.broadcast_to(instance.demand[sl] @ m.Gd.T, (P, sl.stop - sl.start, m.n_tanks))
        )
    u_anc = U[:, instance.anc_row]
    u_anc[:, instance.anc_row < 0] = instance.q
    du = U - u_anc
    w = instance.weights
    smooth = (instance.prob[None, :] * (
        (instance.econ[None, :, :] * U).sum(axis=2)
        + np.einsum("pij,jk,pik->pi", du, instance.wu, du)
    )).sum(axis=1)
    box_d = np.linalg.norm(X - np.clip(X, m.x_min, m.x_max), axis=2).sum(axis=1)
    safe_d = np.linalg.norm(X - np.maximum(X, m.x_safe), axis=2).sum(axis=1)
    return smooth + w.w_x * box_d + w.w_s * safe_d


def brute_force_min(
    instance: ProblemInstance, resolution: float = 1e-3
) -> tuple[np.ndarray, float]:
    """Grid search over the input boxes of a tiny uncoupled instance.

    ``resolution`` is relative to each input's range. Up to two free
    inputs use the literal tensor grid; three use nested window refinement
    to the same terminal cell size (safe on these convex objectives).
    """
    m = instance.model
    if m.n_mixing > 0:
        raise ValueError("grid oracle requires an instance without mixing nodes")
    dims = instance.n_nonroot * m.n_inputs
    if dims > 3:
        raise ValueError(f"dimension too large for grid search: {dims} free inputs")
    lo = np.tile(m.u_min, instance.n_nonroot)
    hi = np.tile(m.u_max, instance.n_nonroot)
    span = hi - lo
    npts = int(round(1.0 / resolution)) + 1

    def evaluate(axes: list[np.ndarray]) -> tuple[np.ndarray, float]:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.reshape(-1) for g in mesh], axis=1)
        vals = _objective_on_inputs(instance, pts)
        best = int(np.argmin(vals))
        return pts[best], float(vals[best])

    if npts ** dims <= 2_000_000:
        u_best, val = evaluate([np.linspace(lo[i], hi[i], npts) for i in range(dims)])
    else:
        window_lo, window_hi = lo.copy(), hi.copy()
        coarse = 11
        u_best, val = None, np.inf
        target = resolution * span
        while True:
            axes = [np.linspace(window_lo[i], window_hi[i], coarse) for i in range(dims)]
            cand, cval = evaluate(axes)
            if cval < val:
                u_best, val = cand, cval
            cell = (window_hi - window_lo) / (coarse - 1)
            if np.all(cell <= target):
                break
            window_lo = np.maximum(lo, cand - cell)
            window_hi = np.minimum(hi, cand + cell)

    U = u_best.reshape(instance.n_nonroot, m.n_inputs)
    z = instance.join_primal(U, rollout_inputs(instance, U))
    return z, val


def project_primal_feasible(instance: ProblemInstance, z: np.ndarray) -> np.ndarray:
    """Restore hard feasibility: inputs into box and coupling (Dykstra),
    states re-rolled from the dynamics."""
    U, _ = instance.split_primal(z)
    U_f = restore_feasible_inputs(instance, U, np.linalg.pinv(instance.model.E))
    return instance.join_primal(U_f, rollout_inputs(instance, U_f))


def clip_dual_to_domain(instance: ProblemInstance, y: np.ndarray) -> np.ndarray:
    """Nearest-practical point of dom g^*: scale y1/y2 into their norm
    balls and drop positive y2 components."""
    m = instance.model
    w = instance.weights
    Y1, Y2, Y3 = (a.copy() for a in instance.dual_blocks(y))
    for Y, bound in ((Y1, w.w_x), (Y2, w.w_s)):
        norms = np.linalg.norm(Y, axis=1)
        over = norms > bound
        if np.any(over):
            scale = np.ones_like(norms)
            scale[over] = bound / norms[over]
            Y *= scale[:, None]
    np.minimum(Y2, 0.0, out=Y2)
    # Rescale y2 after the sign clamp cannot grow its norm, so order is safe.
    return np.hstack([Y1, Y2, Y3])


def duality_gap(instance: ProblemInstance, z: np.ndarray, y: np.ndarray) -> float:
    """Primal value at the feasibility-restored z minus the dual value at y.

    Nonnegative up to rounding by weak duality. The dual value uses the
    dense KKT route, keeping this certificate independent of the
    tree-structured solver.
    """
    z_f = project_primal_feasible(instance, z)
    primal = primal_objective(instance, z_f)
    y_c = clip_dual_to_domain(instance, y)
    z_star = dense_kkt_solve(instance, y_c)
    U_star, _ = instance.split_primal(z_star)
    inner = smooth_cost(instance, U_star) + float(np.vdot(y_c, apply_H(instance, z_star)))
    dual_value = inner - g_conjugate_value(instance, y_c)
    return float(primal - dual_value)


def greedy_select_reference(values: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """Fast forward selection one candidate at a time: each member's slot,
    numbered in selection order, as ``tree._fast_forward_select`` returns.

    Bundles above 2000 members stream each candidate's distances instead of
    holding the distance matrix.
    """
    m = values.shape[0]
    dist = None
    if m * m <= 4_000_000:
        diff = values[:, None, :] - values[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def dist_to(i: int) -> np.ndarray:
        if dist is not None:
            return dist[i]
        return np.linalg.norm(values - values[i], axis=1)

    selected: list[int] = []
    d_min = np.full(m, np.inf)
    for _ in range(count):
        best_obj, best_idx, best_d = np.inf, -1, d_min
        for cand in range(m):
            if cand in selected:
                continue
            d_cand = np.minimum(d_min, dist_to(cand))
            obj = float(weights @ d_cand)
            if best_idx < 0 or obj < best_obj:
                best_obj, best_idx, best_d = obj, cand, d_cand
        selected.append(best_idx)
        d_min = best_d
        if not np.any(d_min > 0.0):
            break

    # Nearest-representative assignment; among equidistant representatives
    # the one with the lowest scenario index wins.
    d_rep = np.stack([dist_to(i) for i in selected], axis=1)
    order = np.argsort(np.array(selected), kind="stable")
    slot_rank = np.empty(len(selected), int)
    slot_rank[order] = np.arange(len(selected))
    is_min = d_rep == d_rep.min(axis=1, keepdims=True)
    masked_rank = np.where(is_min, slot_rank[None, :], len(selected))
    return np.argmin(masked_rank, axis=1)
