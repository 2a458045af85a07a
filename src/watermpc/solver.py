"""Accelerated proximal gradient method on the Fenchel dual.

The dual problem min_y f*(-H'y) + g*(y) has a smooth first term (f is
strongly convex on its domain) and a prox-friendly second term, so
Nesterov-accelerated proximal gradient iterations apply:

    w  = y + beta * (y - y_prev)
    z  = argmin_x f(x) + <H'w, x>          (dual gradient, inner QP)
    y+ = prox_{Gamma g*}(w + Gamma H z)

with extrapolation weights driven by the theta recursion
``theta+ = (sqrt(theta^4 + 4 theta^2) - theta^2) / 2``. The step
``Gamma`` is diagonal with one value per tree node,
``gamma_i = 1 / (L_D d_i)``: ``d_i`` is the largest diagonal entry of node
i's block of the dual Hessian ``M = H grad^2 f* H'`` and ``L_D`` bounds the
curvature of ``D^-1/2 M D^-1/2`` (metric selection after Giselsson & Boyd,
Automatica 2015). g* separates by node, so the prox stays row-wise. The
d_i of one bundled demo tree span three to six orders of magnitude
(net10: 488 to 2.5e8), so a single scalar step, set by the stiffest node,
crawls everywhere else.

An ergodic primal average with weights proportional to 1/theta carries
the accelerated convergence rate, while the last iterate often converges
well before it. The certificate restores both to feasibility, prices
them, and keeps the cheaper; the reported control action and primal come
from that candidate.

The iteration starts at ``y = y_prev = 0``, or at a caller-supplied dual
of the same layout; the closed loop passes the previous step's dual,
since consecutive instances share their tree and differ only in state,
previous input and forecast values. The theta recursion and the average
start afresh either way.

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
from dataclasses import dataclass, field

import numpy as np

from .problem import (
    ProblemInstance,
    g_conjugate_value,
    g_value,
    prox_g_conjugate,
    restore_feasible_inputs,
    rollout_inputs,
    smooth_cost,
)

# Iterations between two termination tests.
GAP_CHECK_EVERY = 25

# Power iteration in estimate_lipschitz: relative stall tolerance, cap on
# operator applications, and the margin on its Rayleigh quotient, which
# bounds the largest eigenvalue from below.
LIPSCHITZ_REL_TOL = 1e-3
LIPSCHITZ_MAX_ITER = 500
LIPSCHITZ_SAFETY = 1.1


@dataclass
class SolverConfig:
    """Iteration budget and termination tolerance.

    Termination is certified by a duality-gap check run every
    ``GAP_CHECK_EVERY`` iterations once the input-box residual test holds.
    The per-node dual steps are not configurable: they follow from the
    instance (see :func:`estimate_lipschitz`). A rejected value's error
    message opens with its field name.
    """

    max_iter: int = 20000
    tol: float = 5e-2

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class SolverResult:
    """Control action plus the certified primal and final dual for diagnostics.

    ``primal_avg`` is the primal candidate the certificate priced, before
    feasibility restoration: the ergodic average or the last iterate,
    whichever restored to the lower primal value. ``u0``,
    ``primal_residual`` (its input-box violation), ``objective`` and
    ``duality_gap`` all come from it. ``gamma`` holds the dual step of
    each non-root node.
    """

    u0: np.ndarray
    primal_avg: np.ndarray
    dual: np.ndarray
    iterations: int
    termination: str
    primal_residual: float
    dual_change: float
    duality_gap: float
    objective: float
    solve_time_s: float
    gamma: np.ndarray


@dataclass
class FactorCache:
    """Precomputed quantities for fast repeated dual-gradient solves.

    Structural members (null basis, per-stage gains, and the step metric:
    the per-node Hessian diagonal with its curvature bound) depend only on
    the model matrices, the input weight and the tree topology with its
    probabilities; the per-node input offset (built from the coupling's
    particular solution and the cost row) also depends on node demand and
    price values and is rebuilt cheaply per instance.
    """

    null_basis: np.ndarray            # orthonormal basis of null(E)
    e_pinv: np.ndarray                # pseudo-inverse of E
    e_offset: np.ndarray              # per-node input offset, dual-independent part
    d_gain: list[np.ndarray]          # per-stage feedback on the ancestor input
    t_mat: list[np.ndarray]           # per-stage solution operator on the null space
    lam: list[np.ndarray]             # per-stage curvature (cost-to-go core + 2 W_u)
    lipschitz: float | None = None    # scaled curvature bound L_D, set by estimate_lipschitz
    hess_diag: np.ndarray | None = None  # per-node d_i, set with lipschitz
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

    Passing ``structure_from`` reuses the stage factorizations and the step
    metric of a cache built for another instance with the same model
    matrices, weights and tree structure, recomputing only the per-node
    vectors.
    """
    m = instance.model
    sig = _structure_signature(instance)

    if structure_from is not None:
        if structure_from.signature != sig:
            raise ValueError("cached factors were built for a different structure")
        basis, e_pinv = structure_from.null_basis, structure_from.e_pinv
        d_gain, t_mat = structure_from.d_gain, structure_from.t_mat
        lam = structure_from.lam
        lipschitz, hess_diag = structure_from.lipschitz, structure_from.hess_diag
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
        pi_s = np.zeros((m.n_inputs, m.n_inputs))  # input cost-to-go core of stage s + 1
        for s in range(horizon, 0, -1):
            lam_s = pi_s + 2.0 * wu
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
            lam[s - 1], t_mat[s - 1], d_gain[s - 1] = lam_s, t_s, d_s
        lipschitz = hess_diag = None

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
        e_offset=e_offset,
        d_gain=d_gain,
        t_mat=t_mat,
        lam=lam,
        lipschitz=lipschitz,
        hess_diag=hess_diag,
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


def _hessian_diagonal(cache: FactorCache, instance: ProblemInstance) -> np.ndarray:
    """Per node, the largest diagonal entry of its block of M = H grad^2 f* H'.

    M is the linear part of y -> -H z*(y). The inner QP prices only the
    input increments, so its inverse Hessian is the covariance of a random
    walk on the tree whose independent increments have covariance
    ``Sigma_i = N (N' 2 W_u N)^-1 N' / p_i`` (N the coupling null basis).
    One forward stage pass gives each node's input covariance P, state-input
    covariance C and state covariance V from its parent's (zero at the
    root, whose input and state are fixed):

        P_i = P_a + Sigma_i
        C_i = A C_a + B P_i
        V_i = A V_a A' + A C_a B' + B C_a' A' + B P_i B'

    The node's diagonal of M is (diag V_i, diag V_i, diag P_i).
    """
    m = instance.model
    basis = cache.null_basis
    core = basis @ np.linalg.solve(basis.T @ (2.0 * instance.wu) @ basis, basis.T)
    n = instance.n_nonroot
    P = np.empty((n, m.n_inputs, m.n_inputs))
    C = np.empty((n, m.n_tanks, m.n_inputs))
    V = np.empty((n, m.n_tanks, m.n_tanks))
    for j, sl in enumerate(instance.stage_slices):
        P[sl] = core / instance.prob[sl, None, None]
        if j == 0:
            C[sl] = m.B @ P[sl]
            V[sl] = C[sl] @ m.B.T
        else:
            parents = instance.parent_rows[j]
            P[sl] += P[parents]
            AC = m.A @ C[parents]
            C[sl] = AC + m.B @ P[sl]
            cross = AC @ m.B.T
            V[sl] = (
                m.A @ V[parents] @ m.A.T + cross + cross.transpose(0, 2, 1)
                + m.B @ P[sl] @ m.B.T
            )
    diag_v = np.diagonal(V, axis1=1, axis2=2)
    diag_p = np.diagonal(P, axis1=1, axis2=2)
    return np.maximum(diag_v.max(axis=1), diag_p.max(axis=1))


def estimate_lipschitz(cache: FactorCache, instance: ProblemInstance) -> float:
    """Curvature bound of the smooth dual term in the per-node metric.

    Computes the per-node Hessian diagonal d (see :func:`_hessian_diagonal`)
    and runs power iteration on ``D^-1/2 M D^-1/2``, M the positive
    semidefinite linear part of y -> -H x*(y) and D repeating d_i over
    node i's dual row, until the Rayleigh quotient stalls within
    ``LIPSCHITZ_REL_TOL``. Multiplies it by ``LIPSCHITZ_SAFETY`` and stores
    the bound ``L_D`` in ``cache.lipschitz`` and d in ``cache.hess_diag``;
    node i's dual step is then ``1 / (L_D d_i)``. Raises RuntimeError if
    the iteration does not settle within ``LIPSCHITZ_MAX_ITER`` operator
    applications.
    """
    if cache.signature != _structure_signature(instance):
        raise ValueError("factor cache does not match this instance")
    nt = instance.model.n_tanks
    n = instance.n_nonroot
    hess_diag = _hessian_diagonal(cache, instance)
    scale = 1.0 / np.sqrt(hess_diag)[:, None]
    u0, x0 = _dual_gradient_parts(
        cache, instance, np.zeros((n, nt)), np.zeros((n, instance.model.n_inputs))
    )

    def operator(vec: np.ndarray) -> np.ndarray:
        rows = vec.reshape(n, -1) * scale
        u, x = _dual_gradient_parts(
            cache, instance, rows[:, :nt] + rows[:, nt:2 * nt], rows[:, 2 * nt:]
        )
        image = instance.join_dual(x0 - x, x0 - x, u0 - u).reshape(n, -1)
        return (image * scale).reshape(-1)

    rng = np.random.default_rng(0)
    v = rng.standard_normal(instance.n_dual)
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for _ in range(LIPSCHITZ_MAX_ITER):
        gv = operator(v)
        lam = float(v @ gv)
        norm = float(np.linalg.norm(gv))
        if norm == 0.0:
            break
        v = gv / norm
        if abs(lam - lam_prev) <= LIPSCHITZ_REL_TOL * max(abs(lam), 1e-300):
            break
        lam_prev = lam
    else:
        raise RuntimeError(
            f"power iteration did not settle within {LIPSCHITZ_MAX_ITER} "
            f"iterations (rel_tol={LIPSCHITZ_REL_TOL:g})"
        )
    if lam <= 0.0:
        raise RuntimeError("dual curvature estimate failed (operator not positive)")
    estimate = LIPSCHITZ_SAFETY * lam
    cache.lipschitz = estimate
    cache.hess_diag = hess_diag
    return estimate


def solve(
    instance: ProblemInstance,
    config: SolverConfig | None = None,
    cache: FactorCache | None = None,
    dual0: np.ndarray | None = None,
) -> SolverResult:
    """Run the accelerated dual proximal gradient method on one instance.

    The iteration starts from ``dual0`` (a length ``n_dual`` vector, for
    instance the ``dual`` of a solve on an instance with the same tree),
    or from zero when it is None; ``dual0`` itself is not modified.

    Each node's dual step is ``1 / (L_D d_i)`` from the cache's metric,
    estimated on first use (see :func:`estimate_lipschitz`).

    Termination: the averaged primal's distance to the input box must fall
    under ``tol`` relative to iterate scale, and a duality-gap certificate
    must fall under ``tol`` relative to the objective. The certificate
    restores the average and the last primal iterate into the box and
    coupling set and prices both; its gap is the lower primal value minus
    the dual value at the current iterate. The control action u0 is the
    probability-weighted average of the stage-1 node inputs of that
    candidate, clipped to the box.
    """
    config = config or SolverConfig()
    if cache is None:
        cache = factor_step(instance)
    elif cache.signature != _structure_signature(instance):
        raise ValueError("factor cache does not match this instance")
    if cache.lipschitz is None:
        estimate_lipschitz(cache, instance)
    gamma = 1.0 / (cache.lipschitz * cache.hess_diag)
    step = gamma[:, None]  # each node's step over its dual row

    m = instance.model
    nt = m.n_tanks
    n = instance.n_nonroot
    if dual0 is None:
        y = np.zeros(instance.n_dual)
    else:
        y = np.array(dual0, dtype=float)
        if y.shape != (instance.n_dual,):
            raise ValueError(
                f"dual0 has shape {y.shape}, expected ({instance.n_dual},)"
            )
        if not np.isfinite(y).all():
            raise ValueError("dual0 has a non-finite entry")
    y_prev = y
    theta = theta_prev = 1.0
    U_avg = np.zeros((n, m.n_inputs))
    X_avg = np.zeros((n, nt))
    iterations = config.max_iter
    termination = "max_iter"

    started = time.perf_counter()

    def box_residual(U_c: np.ndarray) -> float:
        """Largest input-box violation of per-node inputs."""
        over = np.maximum(U_c - m.u_max[None, :], 0.0)
        under = np.maximum(m.u_min[None, :] - U_c, 0.0)
        return float(max(over.max(initial=0.0), under.max(initial=0.0)))

    def restored_value(U_c: np.ndarray) -> float:
        """Primal value of per-node inputs restored to feasibility."""
        u_f = restore_feasible_inputs(instance, U_c, cache.e_pinv)
        x_f = rollout_inputs(instance, u_f)
        return smooth_cost(instance, u_f) + g_value(
            instance, instance.join_dual(x_f, x_f, u_f)
        )

    def certificate() -> tuple[float, float, tuple[np.ndarray, np.ndarray]]:
        """Duality gap against y of the better of the average and the last
        iterate, with its primal value and the candidate itself."""
        candidates = ((U_avg, X_avg), (U, X))
        values = [restored_value(U_c) for U_c, _ in candidates]
        best = int(np.argmin(values))
        _, inner = dual_gradient(cache, instance, y)
        dual_value = inner - g_conjugate_value(instance, y)
        return values[best] - dual_value, values[best], candidates[best]

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
        step_x = step * X
        rows[:, :nt] += step_x
        rows[:, nt:2 * nt] += step_x
        rows[:, 2 * nt:] += step * U
        y_next = prox_g_conjugate(instance, w_plus, gamma)

        U_avg *= 1.0 - theta  # theta is 1 at nu = 0: the average starts at U
        U_avg += theta * U
        X_avg *= 1.0 - theta
        X_avg += theta * X

        dual_change = float(np.max(np.abs(y_next - y)))
        if not np.isfinite(dual_change):
            raise RuntimeError(f"solver produced a non-finite iterate at nu={nu}")

        y_prev, y = y, y_next
        theta_prev, theta = theta, _next_theta(theta)

        certified = False  # whether this iteration ran the certificate
        if (nu + 1) % GAP_CHECK_EVERY == 0:
            image_scale = max(
                float(np.max(np.abs(X_avg), initial=0.0)),
                float(np.max(np.abs(U_avg), initial=0.0)),
            )
            if box_residual(U_avg) <= config.tol * (1.0 + image_scale):
                gap, objective, (U_c, X_c) = certificate()
                certified = True
                if gap <= config.tol * (1.0 + abs(objective)):
                    iterations = nu + 1
                    termination = "converged"
                    break

    if not certified:
        gap, objective, (U_c, X_c) = certificate()
    elapsed = time.perf_counter() - started

    sl1 = instance.stage_slices[0]
    u0 = instance.prob[sl1] @ U_c[sl1]
    u0 = np.clip(u0, m.u_min, m.u_max)
    return SolverResult(
        u0=u0,
        primal_avg=instance.join_primal(U_c, X_c),
        dual=y,
        iterations=iterations,
        termination=termination,
        primal_residual=box_residual(U_c),
        dual_change=dual_change,
        duality_gap=gap,
        objective=objective,
        solve_time_s=elapsed,
        gamma=gamma,
    )
