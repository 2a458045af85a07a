"""Slow reference implementations backing the test suite.

Everything here takes the stacked route on purpose: the inner QP is
assembled over the whole primal vector and solved as one symmetric
indefinite KKT system, so agreement with the tree-structured solver is
evidence rather than tautology. "Dense" in a name means stacked, as against
the tree recursion: the KKT matrices are sparse, so one assembly serves
every demo up to net10. The grid search is for tiny instances only.

The one exception is :func:`sweep_reference`, the tree sweep written as one
self-contained function that allocates its arrays and slices its stages on
every call. The solver's bound sweep must equal it bit for bit, which pins
the arithmetic and its order, not only the math.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from watermpc.problem import (
    CONJUGATE_DOMAIN_TOL,
    ProblemInstance,
    _node_steps,
    apply_H,
    g_conjugate_value,
    g_value,
    rollout_inputs,
    smooth_cost,
)
from watermpc.solver import FactorCache, _offsets

# Relative feasibility slack for domain membership in eval_f.
FEAS_TOL = 1e-8

# Step cap of dykstra_restore, far above what its stop test needs.
DYKSTRA_MAX_ITER = 200_000


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
class Kkt:
    """Stacked quadratic cost and equality constraints of the inner QP."""

    hessian: sp.csr_matrix
    linear: np.ndarray
    constraints: sp.csr_matrix
    rhs: np.ndarray


def build_kkt(instance: ProblemInstance) -> Kkt:
    """Assemble the inner QP over the full primal vector, node rows [u, x].

    The tree enters only through the ancestor matrix, whose row r has a one
    in the column of node r's non-root parent: the input increments are
    ``(I - anc) U`` and the dynamics ``X - anc X A' - U B'``.
    """
    m = instance.model
    nu, nt = m.n_inputs, m.n_tanks
    n = instance.n_nonroot
    parent = instance.anc_row
    child = np.nonzero(parent >= 0)[0]
    first = parent < 0
    anc = sp.csr_matrix((np.ones(child.size), (child, parent[child])), shape=(n, n))
    eye = sp.identity(n, format="csr")
    pick_u = sp.kron(eye, sp.hstack([sp.identity(nu), sp.csr_matrix((nu, nt))]))
    pick_x = sp.kron(eye, sp.hstack([sp.csr_matrix((nt, nu)), sp.identity(nt)]))

    incr = eye - anc
    hess_u = sp.kron(incr.T @ sp.diags(2.0 * instance.prob) @ incr, instance.wu)
    lin_u = instance.weights.w_alpha * (m.alpha0 + instance.price)
    lin_u[first] -= 2.0 * (instance.wu @ instance.q)
    lin_u *= instance.prob[:, None]

    dynamics = pick_x - sp.kron(anc, m.A) @ pick_x - sp.kron(eye, m.B) @ pick_u
    dyn_rhs = instance.demand @ m.Gd.T
    dyn_rhs[first] += m.A @ instance.p
    coupling = sp.kron(eye, m.E) @ pick_u
    return Kkt(
        hessian=(pick_u.T @ hess_u @ pick_u).tocsr(),
        linear=pick_u.T @ lin_u.reshape(-1),
        constraints=sp.vstack([dynamics, coupling]).tocsr(),
        rhs=np.concatenate([dyn_rhs.reshape(-1), -(instance.demand @ m.Ed.T).reshape(-1)]),
    )


def dense_kkt_solve(instance: ProblemInstance, y: np.ndarray) -> np.ndarray:
    """Exact minimizer of f(x) + <H'y, x> by one solve of the stacked KKT
    system, sparse LU at every scale."""
    kkt = build_kkt(instance)
    K = sp.bmat([[kkt.hessian, kkt.constraints.T], [kkt.constraints, None]], format="csc")
    full_rhs = np.concatenate([-(kkt.linear + apply_H_adjoint(instance, y)), kkt.rhs])
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            sol = spla.spsolve(K, full_rhs)
        except spla.MatrixRankWarning as exc:
            raise RuntimeError(
                "singular KKT system: reduced cost is not strongly convex"
            ) from exc
    resid = float(np.max(np.abs(K @ sol - full_rhs)))
    scale = 1.0 + float(np.max(np.abs(full_rhs))) + float(np.max(np.abs(sol)))
    if not np.isfinite(resid) or resid > 1e-10 * scale * (1.0 + abs(K).max()):
        raise RuntimeError(f"KKT solve failed: residual {resid:.3e}")
    return sol[:kkt.hessian.shape[0]]


def sweep_reference(
    cache: FactorCache, instance: ProblemInstance, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The dual-gradient sweep at dual rows y with fresh arrays: inputs U and
    states X as the column views of one array of rows ``[u, x]``, in the
    arithmetic and order of :class:`watermpc.solver._Sweep`, fused blocks
    included."""
    m = instance.model
    n = instance.n_nonroot
    nu, nt = m.n_inputs, m.n_tanks
    k = nu + nt
    slices = instance.stage_slices
    e_offset, e_carry = _offsets(cache, instance)

    def chain_major(rows: np.ndarray, L: int) -> np.ndarray:
        return rows.reshape(L, -1, k).transpose(1, 0, 2).reshape(-1, L * k)

    Z = np.empty((n, k))
    np.add(e_carry, y[:, 2 * nt:], out=Z[:, :nu])
    np.add(y[:, :nt], y[:, nt:2 * nt], out=Z[:, nu:])
    M = np.empty((n, 2 * k))
    for stages, W, _ in reversed(cache.blocks):
        a, L = stages.start, len(stages)
        block = slice(slices[a].start, slices[stages[-1]].stop)
        if W is None:
            np.matmul(Z[block], cache.stage_ops[a], out=M[block])
            if a > 0:  # carries into the root would go unused
                rows = M[block, k:]
                starts = cache.child_runs[a]
                if starts is not None:
                    rows = np.add.reduceat(rows, starts)
                Z[slices[a - 1]] += rows
        else:
            product = (chain_major(Z[block], L) @ W).reshape(-1, L + 1, k)
            M[block].reshape(L, -1, 2 * k)[:, :, :k] = product[:, :L].transpose(1, 0, 2)
            Z[slices[a - 1]] += product[:, L]

    P = np.empty((n + 1, k))
    np.multiply(M[:, :k], (1.0 / instance.prob)[:, None], out=P[:n])
    np.subtract(e_offset, P[:n], out=P[:n])
    P[n, :nu], P[n, nu:] = instance.q, instance.p
    for stages, _, V in cache.blocks:
        a, L = stages.start, len(stages)
        block = slice(slices[a].start, slices[stages[-1]].stop)
        if V is None:
            if a == 0:
                parents = slice(-1, None)  # the root's row
            elif cache.child_runs[a] is None:
                parents = slices[a - 1]
            else:
                parents = instance.anc_row[block]
            P[block] += P[parents] @ cache.fwd[a]
        else:
            rows = P[block].reshape(L, -1, k)
            parents = P[slices[a - 1].start:slices[stages[-1]].start]
            rows += (chain_major(parents, L) @ V).reshape(-1, L, k).transpose(1, 0, 2)
    return P[:n, :nu], P[:n, nu:]


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


def dykstra_restore(instance: ProblemInstance, U: np.ndarray) -> np.ndarray:
    """Projection of per-node inputs onto the input box intersected with the
    coupling set ``{u : E u = -Ed d}``, by Dykstra's alternating projections.

    Each step projects onto the coupling set through pinv(E), then clips
    into the box, with Dykstra's corrections on both. It stops once every
    node's box point agrees with its coupling point and no longer moves,
    to 1e-14 relative to the largest input, and raises RuntimeError if that
    takes ``DYKSTRA_MAX_ITER`` steps. It assumes nothing of E's rows.
    """
    m = instance.model
    if m.n_mixing == 0:
        return np.clip(U, m.u_min, m.u_max)
    e_pinv, shift = np.linalg.pinv(m.E), instance.demand @ m.Ed.T
    tol = 1e-14 * (1.0 + float(np.max(np.abs(U))))
    x, p_cor, q_cor = U.copy(), np.zeros_like(U), np.zeros_like(U)
    for _ in range(DYKSTRA_MAX_ITER):
        y = x + p_cor
        y -= (y @ m.E.T + shift) @ e_pinv.T
        p_cor += x - y
        x_next = np.clip(y + q_cor, m.u_min, m.u_max)
        q_cor += y - x_next
        moved = float(np.max(np.abs(x_next - x)))
        x = x_next
        if max(float(np.max(np.abs(x - y))), moved) <= tol:
            return x
    raise RuntimeError(f"Dykstra's projections did not settle in {DYKSTRA_MAX_ITER} steps")


def project_primal_feasible(instance: ProblemInstance, z: np.ndarray) -> np.ndarray:
    """Restore hard feasibility: inputs into box and coupling (Dykstra),
    states re-rolled from the dynamics."""
    U, _ = instance.split_primal(z)
    U_f = dykstra_restore(instance, U)
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


def conjugate_reference(instance: ProblemInstance, y: np.ndarray) -> float:
    """g* at dual rows y, entry by entry: each row's norms are checked
    against the domain, and each entry of y1 and y3 is priced at the bound
    its sign points to, a zero entry at 0 even against an infinite bound."""
    m, w = instance.model, instance.weights
    Y1, Y2, Y3 = instance.dual_blocks(y)
    tol = CONJUGATE_DOMAIN_TOL
    if (np.any(np.linalg.norm(Y1, axis=1) > w.w_x * (1.0 + tol) + tol)
            or np.any(np.linalg.norm(Y2, axis=1) > w.w_s * (1.0 + tol) + tol)
            or np.any(Y2 > tol * (1.0 + np.abs(m.x_safe)))):
        return np.inf

    def support(lo, hi, Y):
        with np.errstate(invalid="ignore"):  # inf * 0 in the entries where() drops
            return float((np.where(Y > 0, hi * Y, 0.0) + np.where(Y < 0, lo * Y, 0.0)).sum())

    return (support(m.x_min, m.x_max, Y1) + float((m.x_safe * np.minimum(Y2, 0.0)).sum())
            + support(m.u_min, m.u_max, Y3))


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
