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

An ergodic average of the primal inputs with weights proportional to
1/theta carries the accelerated convergence rate, while the last iterate
often converges well before it but swings in value from one iteration to
the next. Every feasible primal point prices an upper bound on the optimum
and every dual value a lower bound, so the solve keeps one record: the
lowest primal value seen, with the point it priced, against the latest
certified dual value. A sweep's inputs satisfy the dynamics and the
coupling by construction, so when they also lie inside the input box they
are priced as they stand, with their states; this catches the last
iterate's dips.
Every ``GAP_CHECK_EVERY`` iterations, and after the last, the certificate
restores the average to feasibility, and the last iterate too when it left
the box, offers each restored point to the record, and takes the dual
value at the current dual iterate as the bound. The candidates go through
the restoration and the rollout as one stack along a leading axis, one
call each, and each comes out as its own call would give it; the record
then prices them in turn, the average first. The restoration is the exact
projection onto the input box and the coupling set
(:func:`~watermpc.problem.restore_feasible_inputs`): a breakpoint search
per violated mixing row, bracketed by cumulative slopes, so the restored
point is feasible and the gap a true bound. The dual value's conjugate
term is two column sums of the dual rows
(:func:`~watermpc.problem.g_conjugate_value`). Every candidate lies in the
box, so one price serves all: the smooth cost plus its states' penalties. The
record keeps the feasible inputs and states it priced, so the returned
primal is that point and the reported objective exactly its price; the
control action is the probability-weighted average of its stage-1 inputs,
clipped to the box only against rounding.

The iteration starts at ``y = y_prev = 0``, or at a caller-supplied dual
of the same layout; the closed loop passes the previous step's dual,
since consecutive instances share their tree and differ only in state,
previous input and forecast values. The dual value at the start point is
the first bound, so a warm start can stop at its first in-box iterate.
The theta recursion and the average start afresh either way.

The inner QP (minimize the smooth cost subject to node dynamics and
mixing-node coupling) is solved exactly by a tree-structured recursion:
coupling is eliminated per node through a null-space parametrization of
the input space, and the remaining equality-constrained problem is solved
by a backward stage recursion followed by a forward rollout. Because the
input-increment cost ties a node to its ancestor's input, the backward
cost-to-go is carried in the ancestor's (input, state) pair; probability
telescoping makes the per-node input Hessians proportional to the node
probability with a stage-uniform core, so one factorization per stage
suffices. Each pass is one loop over one array. The backward pass keeps
a row [r, w] per node, the linear cost-to-go on its input and state, with
the input dual folded into r once before the loop, and one product per
stage by a narrow operator gives the nodes' [u, x] terms and their
carries into the parents. One scaled subtract from the instance's
per-node offset rows then forms every row [u, x], and the forward pass
rolls them out together (see :class:`_Sweep`). Where stages run one to
one, every node of a stage has one child and each chain of rows is its
own recursion, so a run of such stages is multiplied out once per
structure into one block operator per pass, and the loop takes one product
per block of up to ``FUSE_COLS`` columns in place of one per stage
(partial condensing, after Axehill, Systems & Control Letters 2015). The
factorizations, the stage operators, block operators and plan and the step
metric live in :class:`FactorCache`, built once per structure, shared by
every instance of it and never written.

One solve binds one sweep to its cache and instance, the one place that
checks the cache fits: the sweep's offset rows and buffers, and every
stage's views of them, are made at solve start, and every sweep of the
solve, an iteration's or a certificate's dual value, writes its inputs and
states into the same rows. So the record copies an in-box iterate when it
accepts it, before the next sweep can overwrite it; a restored point is a
fresh array and is kept as it stands. The solve likewise allocates its
dual buffers and the prox's step-scaled bounds once, and each iteration
works on them in place.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .network import _count, _number
from .problem import (
    ProblemInstance,
    _in_box_pricer,
    g_conjugate_value,
    prox_into,
    restore_feasible_inputs,
    rollout_inputs,
    scaled_bounds,
    smooth_cost,
)

# Iterations between two gap certificates, which restore and price the
# average, and the last iterate when it left the input box, and take a new
# dual value.
GAP_CHECK_EVERY = 25

# Power iteration in estimate_lipschitz: relative stall tolerance, cap on
# operator applications, and the margin on its Rayleigh quotient, which
# bounds the largest eigenvalue from below.
LIPSCHITZ_REL_TOL = 1e-3
LIPSCHITZ_MAX_ITER = 500
LIPSCHITZ_SAFETY = 1.1

# Widest chain-major row of a fused block, in columns: a run of one-to-one
# stages is multiplied out in blocks of at most FUSE_COLS // k stages, k the
# width of a row [u, x]. A block of L stages takes one product of about
# (L + 1) / 2 times the flops of the L products it replaces, so it pays
# while a stage's products cost more in calls than in flops. 64 keeps tank1
# (k = 2) and net3 (k = 7) in one block each and net10 (k = 34) at one
# stage per block, where a two-stage block would double its sweep.
FUSE_COLS = 64


@dataclass
class SolverConfig:
    """Iteration budget and termination tolerance.

    The only termination test is the duality gap of the record, the lowest
    primal value seen against the latest certified dual value (see
    :func:`solve`): ``tol`` bounds it relative to that primal value. The
    per-node dual steps are not configurable: they follow from the
    instance's structure (see :func:`factor_step`). ``max_iter`` is stored
    as an int and ``tol`` as a float, and a rejected value's error message
    opens with its field name.
    """

    max_iter: int = 20000
    tol: float = 5e-2

    def __post_init__(self) -> None:
        self.max_iter = _count("max_iter", self.max_iter, 1)
        self.tol = _number("tol", self.tol)


@dataclass
class SolverResult:
    """Control action plus the certified primal and dual for diagnostics.

    ``primal_avg`` is the record's primal point, the lowest-priced feasible
    point of the solve: an in-box iterate's inputs and states as the sweep
    returned them, or the average or an out-of-box last iterate as a
    certificate restored it, with the states it rolls out to.
    ``objective`` is exactly its price, and ``u0`` the probability-weighted
    average of its stage-1 inputs, clipped to the box only against
    rounding. ``dual`` is the certifying dual point, as rows of
    ``ProblemInstance.dual_shape``: the dual iterate of the last
    certificate, or the start point when none ran, and ``duality_gap`` is
    ``objective`` minus the dual value there. ``gamma`` holds the dual
    step of each non-root node.
    """

    u0: np.ndarray
    primal_avg: np.ndarray
    dual: np.ndarray
    iterations: int
    termination: str
    duality_gap: float
    objective: float
    solve_time_s: float
    gamma: np.ndarray


@dataclass
class FactorCache:
    """Precomputed structure for fast repeated dual-gradient solves.

    Every member (the per-stage factorizations and operators, the sweep's
    stage plan, stage and rollout matrices, and the step metric: the
    per-node Hessian diagonal with its curvature bound) depends only on the
    model matrices, the input weight and the tree topology with its
    probabilities, so one cache serves every instance of that structure,
    such as every step of a closed loop. ``signature`` records the
    structure it was built for, and a sweep bound to an instance of another
    structure is rejected. The instance's values (demand, prices, state and
    previous input) enter only through the offset rows that each sweep
    builds (see :func:`_offsets`). ``stage_ops`` holds the backward pass's
    one product per stage, ``child_runs`` its segment sums' runs, and
    ``fwd`` the forward pass's per-stage rollout (see :class:`_Sweep`).
    ``blocks`` is the sweep's plan: its steps in stage order, each a range
    of stages with its backward and forward block operator (see
    :func:`_backward_block` and :func:`_forward_block`), or a single stage
    with None for both.
    :func:`factor_step` returns every cache complete, and nothing writes to
    one afterwards.
    """

    e_pinv: np.ndarray                # pseudo-inverse of E
    t_mat: list[np.ndarray]           # per-stage solution operator on the null space
    lam: list[np.ndarray]             # per-stage curvature (cost-to-go core + 2 W_u)
    stage_ops: list[np.ndarray]       # per-stage [G_s | G_s B' | 2 G_s W_u | [0; A]]
    fwd: list[np.ndarray]             # per-stage [[D_s', D_s' B'], [0, A']], D_s the input gain
    child_runs: list[np.ndarray | None]  # per-stage starts of sibling runs, or None
    blocks: list[tuple[range, np.ndarray | None, np.ndarray | None]]  # the sweep's steps
    lipschitz: float                  # scaled curvature bound L_D
    hess_diag: np.ndarray             # per-node d_i; node i's dual step is 1 / (L_D d_i)
    signature: tuple = field(repr=False)  # _structure_signature of the structure


def _structure_signature(instance: ProblemInstance) -> tuple:
    m = instance.model
    return (
        m.A.tobytes(),
        m.B.tobytes(),
        m.E.tobytes(),
        instance.wu.tobytes(),
        instance.prob.tobytes(),
        instance.anc_row.tobytes(),  # fixes every node's stage too
    )


def _check_fits(cache: FactorCache, instance: ProblemInstance) -> None:
    if _structure_signature(instance) != cache.signature:
        raise ValueError("factor cache does not match this instance")


def _null_space(E: np.ndarray, n_inputs: int) -> tuple[np.ndarray, np.ndarray]:
    if E.shape[0] == 0:
        return np.eye(n_inputs), np.zeros((n_inputs, 0))
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
    """Build the complete factor cache for an instance's structure.

    The cache gets the stage factorizations, operators and plan and the
    step metric (see :func:`_hessian_diagonal` and
    :func:`estimate_lipschitz`), and serves every instance of the same
    model matrices, weights and tree structure. The plan splits each run of
    one-to-one stages from stage 2 on into blocks of at most
    ``FUSE_COLS // k`` stages, k the width of a row ``[u, x]``, and builds
    each block's operators once. ``structure_from``, a cache to reuse, is only checked
    against the instance and returned; the benchmark's layer timings call it.
    """
    if structure_from is not None:
        _check_fits(structure_from, instance)
        return structure_from
    m = instance.model
    basis, e_pinv = _null_space(m.E, m.n_inputs)
    wu = instance.wu
    horizon = instance.tree.horizon
    fwd = [np.empty(0)] * horizon
    t_mat = [np.empty(0)] * horizon
    lam = [np.empty(0)] * horizon
    stage_ops = [np.empty(0)] * horizon
    pi_s = np.zeros((m.n_inputs, m.n_inputs))  # input cost-to-go core of stage s + 1
    zero_xu = np.zeros((m.n_tanks, m.n_inputs))
    state_carry = np.vstack([zero_xu.T, m.A])  # [0; A]
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
        lam[s - 1], t_mat[s - 1] = lam_s, t_s
        fwd[s - 1] = np.block([[d_s.T, d_s.T @ m.B.T], [zero_xu, m.A.T]])
        g_s = np.vstack([t_s, m.B @ t_s])
        stage_ops[s - 1] = np.hstack([g_s, g_s @ m.B.T, 2.0 * (g_s @ wu), state_carry])
    # The stage plan. A stage follows its parents' order, so each parent's
    # children are one run of rows, and run i belongs to the previous
    # stage's i-th row, as every node before the last stage has a child.
    # Per stage, the runs' starts for np.add.reduceat; None at stage 1, whose
    # sums go to the root, and where each run is one row: nothing to sum.
    new_run = np.diff(instance.anc_row, prepend=-2) != 0  # a stage opens a run
    child_runs = [None] + [None if new_run[sl].all() else np.flatnonzero(new_run[sl])
                           for sl in instance.stage_slices[1:]]
    # The sweep's steps: each run of one-to-one stages from stage 2 on, in
    # blocks of at most FUSE_COLS // k stages, and every other stage alone.
    # Stage 1 is alone: its parent is the root row and its carries go unused.
    cap = max(1, FUSE_COLS // (m.n_inputs + m.n_tanks))
    blocks = [(range(0, 1), None, None)]
    for one_to_one, run in itertools.groupby(range(1, horizon),
                                             lambda j: child_runs[j] is None):
        run = list(run)
        for part in np.array_split(run, -(-len(run) // cap) if one_to_one else len(run)):
            a, b = int(part[0]), int(part[-1]) + 1
            fused = b - a > 1
            blocks.append((range(a, b), _backward_block(stage_ops[a:b]) if fused else None,
                           _forward_block(fwd[a:b]) if fused else None))
    cache = FactorCache(
        e_pinv=e_pinv,
        t_mat=t_mat,
        lam=lam,
        stage_ops=stage_ops,
        fwd=fwd,
        child_runs=child_runs,
        blocks=blocks,
        lipschitz=np.nan,  # set last: the power iteration sweeps with this cache
        hess_diag=_hessian_diagonal(basis, instance),
        signature=_structure_signature(instance),
    )
    cache.lipschitz = estimate_lipschitz(cache, instance)
    return cache


def _backward_block(ops: list[np.ndarray]) -> np.ndarray:
    """The backward pass over one-to-one stages a..b as one operator W, with
    ``[M_a ... M_b] = [z_a ... z_b] W`` per chain.

    ``O_s = ops[s]`` is stage s's operator and ``C_s = O_s[:, k:]`` its carry
    part. Block (t, s) of W, for t >= s, is ``C_t C_{t-1} ... C_{s+1} O_s``,
    and 0 above the diagonal. Only the first stage's carry leaves the block,
    so W keeps every stage's term columns, in stage order, and then that
    carry. Row block t is ``C_t`` times row block t - 1 plus ``O_t``'s terms
    on the diagonal: one product per stage.
    """
    k = ops[0].shape[0]
    W = np.zeros((len(ops) * k, (len(ops) + 1) * k))
    W[:k, -k:] = ops[0][:, k:]
    for i, op in enumerate(ops):
        rows = W[i * k:(i + 1) * k]
        if i:
            np.matmul(op[:, k:], W[(i - 1) * k:i * k], out=rows)
        rows[:, i * k:(i + 1) * k] += op[:, :k]
    return W


def _forward_block(fwds: list[np.ndarray]) -> np.ndarray:
    """The forward pass over one-to-one stages a..b as one operator V, with
    ``[P_a ... P_b] = [R_a ... R_b] + [P_{a-1}, R_a ... R_{b-1}] V`` per
    chain, R_s the rows before the rollout and ``F_s = fwds[s]``.

    The parent row's block for stage s is ``F_a ... F_s``, and row R_t's
    block ``F_{t+1} ... F_s`` for s > t, 0 for s <= t. Column block s is
    column block s - 1, with the identity at R_{s-1}'s rows, times ``F_s``:
    one product per stage.
    """
    k = fwds[0].shape[0]
    n = len(fwds) * k
    V = np.empty((n, n))
    prev = np.eye(n, k)  # P_{a-1}, the parent's row itself
    for i, f in enumerate(fwds):
        col = V[:, i * k:(i + 1) * k]
        np.matmul(prev, f, out=col)
        prev = col + np.eye(n, k, -(i + 1) * k)  # P_{a+i}: R_{a+i} plus its rollout
    return V


def _offsets(cache: FactorCache, instance: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the row ``[e_0, e_0 B' + Gd d]`` of the dual-independent
    input offset e_0 and its states, and the sum over the node's children of
    their carries ``-2 p e_0 W_u`` into its input cost-to-go."""
    m = instance.model
    # Least-norm particular solutions of E u = -Ed d per node. They are
    # exact: E's rows are disjoint (NetworkModel's row rule), and
    # ProblemInstance has rejected a nonzero right-hand side on an empty row.
    u_part = instance.mix_rhs @ cache.e_pinv.T

    # e_0 = (I - T_s Lam_s) u_part - T_s * (economic cost row).
    nu = m.n_inputs
    e_offset = np.empty((instance.n_nonroot, nu + m.n_tanks))
    e_u = e_offset[:, :nu]
    for sl, t_s, lam_s in zip(instance.stage_slices, cache.t_mat, cache.lam):
        e_u[sl] = u_part[sl] - (u_part[sl] @ lam_s + instance.econ[sl]) @ t_s
    np.add(e_u @ m.B.T, instance.demand_gd, out=e_offset[:, nu:])
    e_carry = np.zeros((instance.n_nonroot + 1, nu))  # + the root row, unused
    np.add.at(e_carry, instance.anc_row, -2.0 * instance.prob[:, None] * e_u @ instance.wu)
    return e_offset, e_carry[:-1]


class _Sweep:
    """The inner QP solve at dual rows y, bound to one cache and instance.

    A call ``sweep(y)`` returns the per-node inputs U and states X
    minimizing f(x) + <H'y, x>, as the column views of one array of rows
    ``[u, x]``; :func:`dual_gradient` also prices them.

    The backward pass keeps one row ``a = [r, w]`` per node: the linear
    cost-to-go on the node's input (r, from the offset's carry and the
    input dual y3, added once before the stage loop) and on its state (w,
    from y1 + y2). Once the children's carries are in, one product by
    ``[G_s | G_s B' | 2 G_s W_u | [0; A]]``, with ``G_s = [T_s; B T_s]``,
    gives ``a G_s = p (e_0 - e)``, e the node's input and e_0 its
    dual-independent part, then that term's image under B', and the
    dual-dependent part of the carry into the parent's ``[r, w]``, which is
    added there after a segment sum when the stage branches. After the
    stage loop one scaled subtract from the offset rows
    ``[e_0, e_0 B' + Gd d]`` gives every row ``[e, e B' + Gd d]``.

    The forward pass rolls out inputs and states together: each stage adds
    its parent's row times ``[[D_s', D_s' B'], [0, A']]`` to those rows;
    the root's row ``[q, p]`` is the last.

    A fused block of the cache (see :func:`_backward_block` and
    :func:`_forward_block`) takes the place of its stages in both loops: it
    copies its stages' rows into a buffer of one row per chain through a
    transposed view, multiplies that by its block operator, and copies the
    product's rows back, or adds them, stage by stage. Each step of either
    loop is then an optional copy or gather before one product, and in the
    backward loop an optional copy or segment sum after it, and one add.

    Construction rejects a cache of another structure, the one check of a
    cache against an instance, builds the instance's offset rows and
    carries (see :func:`_offsets`), allocates the buffers, writes the
    root's row and makes every step's views once, with the cache's stage
    plan, so a call runs only the two loops. The returned U and X are
    views of the sweep's own rows, which its next call overwrites.
    """

    def __init__(self, cache: FactorCache, instance: ProblemInstance) -> None:
        _check_fits(cache, instance)
        m = instance.model
        n = instance.n_nonroot
        nu, nt = m.n_inputs, m.n_tanks
        k = nu + nt
        slices = instance.stage_slices
        Z = np.empty((n, k))  # rows [r, w]; in the forward pass, each stage's product
        M = np.empty((n, 2 * k))  # each node's product by its stage operator
        P = np.empty((n + 1, k))  # rows [u, x], the root's last
        G = np.empty((n, k))  # the parents' segment sums, then the gathered parents
        P[n, :nu], P[n, nu:] = instance.q, instance.p
        self._offset, self._carry = _offsets(cache, instance)
        self._nt, self._inv_prob = nt, (1.0 / instance.prob)[:, None]
        self._r, self._w = Z[:, :nu], Z[:, nu:]
        self._terms, self._rows = M[:, :k], P[:n]
        self._U, self._X = P[:n, :nu], P[:n, nu:]
        zs, ms, ps = ([B[sl] for sl in slices] for B in (Z, M, P))

        # Backward steps (before, z, op, m_s, after, z_prev, carry), from the
        # last stage down to stage 2; stage 1's carries would go into the
        # root, unused, so its product is taken alone. Forward steps (before,
        # src, op, out, p_s, added), from stage 1 up. A stage's product goes
        # into its spent Z rows. Stage 1 multiplies the root's one row, which
        # its rows then add by broadcast; a stage one to one multiplies its
        # parents' rows in place; a branching stage first gathers them into
        # G; a fused block reads its parents' and its own rows but the last.
        self._stage1 = (zs[0], cache.stage_ops[0], ms[0])
        self._backward = []
        self._forward = [(None, P[n:], cache.fwd[0], Z[:1], ps[0], Z[:1])]
        for stages, W, V in cache.blocks[1:]:
            a, L = stages.start, len(stages)
            if W is None:
                starts, carry = cache.child_runs[a], ms[a][:, k:]
                after, before, src = None, None, ps[a - 1]
                if starts is not None:
                    after = partial(np.add.reduceat, carry, starts, out=G[slices[a - 1]])
                    carry, src = G[slices[a - 1]], G[slices[a]]
                    before = partial(np.take, P, instance.anc_row[slices[a]], axis=0,
                                     out=src, mode="clip")  # rows of P; "raise" buffers
                self._backward.append((None, zs[a], cache.stage_ops[a], ms[a], after,
                                       zs[a - 1], carry))
                self._forward.append((before, src, cache.fwd[a], zs[a], ps[a], zs[a]))
                continue
            chains = slices[a].stop - slices[a].start
            block = slice(slices[a].start, slices[stages[-1]].stop)
            zc, pc, oc = (np.empty((chains, L * k)) for _ in range(3))
            mc = np.empty((chains, L + 1, k))  # each stage's terms, then the carry
            self._backward.append((
                partial(np.copyto, zc.reshape(chains, L, k).transpose(1, 0, 2),
                        Z[block].reshape(L, chains, k)),
                zc, W, mc.reshape(chains, -1),
                partial(np.copyto, M[block].reshape(L, chains, 2 * k)[:, :, :k],
                        mc[:, :L].transpose(1, 0, 2)),
                zs[a - 1], mc[:, L]))
            self._forward.append((
                partial(np.copyto, pc.reshape(chains, L, k).transpose(1, 0, 2),
                        P[slices[a - 1].start:slices[stages[-1]].start].reshape(L, chains, k)),
                pc, V, oc, P[block].reshape(L, chains, k),
                oc.reshape(chains, L, k).transpose(1, 0, 2)))
        self._backward.reverse()

    def __call__(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nt = self._nt
        np.add(self._carry, y[:, 2 * nt:], out=self._r)
        np.add(y[:, :nt], y[:, nt:2 * nt], out=self._w)
        for before, z, op, m_s, after, z_prev, carry in self._backward:
            if before is not None:
                before()
            np.matmul(z, op, out=m_s)
            if after is not None:
                after()
            z_prev += carry
        z, op, m_s = self._stage1
        np.matmul(z, op, out=m_s)

        rows = self._rows
        np.multiply(self._terms, self._inv_prob, out=rows)
        np.subtract(self._offset, rows, out=rows)
        for before, src, op, out, p_s, added in self._forward:
            if before is not None:
                before()
            np.matmul(src, op, out=out)
            p_s += added
        return self._U, self._X


def dual_gradient(
    cache: FactorCache, instance: ProblemInstance, y: np.ndarray
) -> tuple[np.ndarray, float]:
    """Exact minimizer of f(x) + <H'y, x> at dual rows y, and the attained value.

    The minimizer is a flat primal vector that satisfies every node's
    dynamics and coupling constraint by construction; the map y ->
    minimizer is affine. The returned value is the attained infimum, the
    negative of f*(-H'y).
    """
    y = np.asarray(y, float)
    instance.dual_blocks(y)  # checks the shape
    U, X = _Sweep(cache, instance)(y)  # a sweep of its own: no later call writes U, X
    return instance.join_primal(U, X), _attained_value(instance, y, U, X)


def _attained_value(
    instance: ProblemInstance, y: np.ndarray, U: np.ndarray, X: np.ndarray
) -> float:
    """f(x) + <H'y, x> at the sweep's inputs U and states X for dual rows y."""
    nt = instance.model.n_tanks
    coupled = (np.einsum("ij,ij->", y[:, :nt] + y[:, nt:2 * nt], X)
               + np.einsum("ij,ij->", y[:, 2 * nt:], U))
    return smooth_cost(instance, U) + float(coupled)


def _next_theta(theta: float) -> float:
    # Rationalized root of theta+^2 / theta^2 + theta+ - 1 = 0; satisfies
    # 1 - theta+ = theta+^2 / theta^2 with equality to machine precision.
    t = theta * theta
    return 2.0 * t / (t + np.sqrt(t * t + 4.0 * t))


def _hessian_diagonal(basis: np.ndarray, instance: ProblemInstance) -> np.ndarray:
    """Per node, the largest diagonal entry of its block of M = H grad^2 f* H'.

    M is the linear part of y -> -H z*(y). The inner QP prices only the
    input increments, so its inverse Hessian is the covariance of a random
    walk on the tree whose independent increments have covariance
    ``Sigma_i = N (N' 2 W_u N)^-1 N' / p_i`` (N the coupling null basis).
    One forward stage pass gives each node's input covariance P, state-input
    covariance C and state covariance V from its parent's (zero at the
    root, whose input and state are fixed), holding one stage at a time:

        P_i = P_a + Sigma_i
        C_i = A C_a + B P_i
        V_i = A V_a A' + A C_a B' + B C_a' A' + B P_i B'

    The node's diagonal of M is (diag V_i, diag V_i, diag P_i).
    """
    m = instance.model
    core = basis @ np.linalg.solve(basis.T @ (2.0 * instance.wu) @ basis, basis.T)
    diag = np.empty(instance.n_nonroot)
    # The parents' stage, first the root alone; `first` is its first row.
    P = np.zeros((1, m.n_inputs, m.n_inputs))
    C = np.zeros((1, m.n_tanks, m.n_inputs))
    V = np.zeros((1, m.n_tanks, m.n_tanks))
    first = -1
    for sl in instance.stage_slices:
        parents = instance.anc_row[sl] - first
        P_a, C_a, V_a = P[parents], C[parents], V[parents]
        P = core / instance.prob[sl, None, None] + P_a
        AC = m.A @ C_a
        C = AC + m.B @ P
        cross = AC @ m.B.T
        V = m.A @ V_a @ m.A.T + cross + cross.transpose(0, 2, 1) + m.B @ P @ m.B.T
        diag[sl] = np.maximum(np.diagonal(V, axis1=1, axis2=2).max(axis=1),
                              np.diagonal(P, axis1=1, axis2=2).max(axis=1))
        first = sl.start
    return diag


def estimate_lipschitz(cache: FactorCache, instance: ProblemInstance) -> float:
    """Curvature bound ``L_D`` of the smooth dual term in the per-node metric.

    Runs power iteration on ``D^-1/2 M D^-1/2``, M the positive semidefinite
    linear part of y -> -H x*(y) and D repeating the cache's d_i (see
    :func:`_hessian_diagonal`) over node i's dual row, until the Rayleigh
    quotient stalls within ``LIPSCHITZ_REL_TOL``, and returns it times
    ``LIPSCHITZ_SAFETY``; node i's dual step is then ``1 / (L_D d_i)``.
    Writes nothing: the caches of :func:`factor_step` carry the bound.
    Raises RuntimeError if the iteration does not settle within
    ``LIPSCHITZ_MAX_ITER`` operator applications.
    """
    sweep = _Sweep(cache, instance)
    scale = 1.0 / np.sqrt(cache.hess_diag)[:, None]
    # The zero dual's minimizer, copied out of the sweep's rows it reuses.
    u0, x0 = (a.copy() for a in sweep(np.zeros(instance.dual_shape)))

    def operator(V: np.ndarray) -> np.ndarray:
        u, x = sweep(V * scale)
        return np.concatenate([x0 - x, x0 - x, u0 - u], axis=1) * scale

    rng = np.random.default_rng(0)
    v = rng.standard_normal(instance.dual_shape)
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for _ in range(LIPSCHITZ_MAX_ITER):
        gv = operator(v)
        lam = float(np.vdot(v, gv))
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
    return LIPSCHITZ_SAFETY * lam


def solve(
    instance: ProblemInstance,
    config: SolverConfig | None = None,
    cache: FactorCache | None = None,
    dual0: np.ndarray | None = None,
) -> SolverResult:
    """Run the accelerated dual proximal gradient method on one instance.

    The iteration starts from ``dual0`` (dual rows of ``dual_shape``, for
    instance the ``dual`` of a solve on an instance with the same tree),
    or from zero when it is None; ``dual0`` itself is not modified.

    Each node's dual step is ``1 / (L_D d_i)`` from the cache's metric (see
    :func:`factor_step`). The cache may come from any instance of the same
    structure, such as an earlier step of a closed loop; the solve reads it
    and never writes to it.

    Termination: the solve keeps a record, the lowest primal value seen
    with the feasible inputs and states it priced, and a bound, the latest
    certified dual value, which starts as the dual value at the start
    point. After every sweep whose inputs lie inside the input box, those
    inputs are priced with their states as they stand. Every
    ``GAP_CHECK_EVERY`` iterations and after the last, a certificate
    restores the average into the box and coupling set, and the last
    primal iterate too when it left the box, in one stacked call, prices
    the restored points with their rollouts in that order, and takes the
    dual value at the current dual iterate as the new bound. Every
    candidate has the one price, and each joins the record when it beats
    it. Whenever the record or the bound
    changes, the solve stops once ``record - bound`` falls under ``tol``
    relative to the record; there is no other test. The returned ``primal_avg`` is the
    record's point and ``objective`` exactly its price. The control action
    u0 is the probability-weighted average of the record's stage-1 node
    inputs; they lie in the box, and the clip to it guards only rounding.
    """
    config = config or SolverConfig()
    cache = cache or factor_step(instance)
    started = time.perf_counter()
    sweep = _Sweep(cache, instance)  # rejects a cache of another structure
    gamma = 1.0 / (cache.lipschitz * cache.hess_diag)
    step = gamma[:, None]  # each node's step over its dual row
    bounds = scaled_bounds(instance, gamma)

    m = instance.model
    n = instance.n_nonroot
    if dual0 is None:
        y = np.zeros(instance.dual_shape)
    else:
        y = np.array(dual0, dtype=float)
        if y.shape != instance.dual_shape:
            raise ValueError(f"dual0 has shape {y.shape}, expected {instance.dual_shape}")
        if not np.isfinite(y).all():
            raise ValueError("dual0 has a non-finite entry")
    # Dual buffers, rotated: the prox writes y_next, which then becomes y.
    y_prev, y_next, w = y.copy(), np.empty_like(y), np.empty_like(y)
    nt = m.n_tanks
    scratch_u = np.empty((n, m.n_inputs))
    inside = np.empty((n, m.n_inputs), bool)
    theta = theta_prev = 1.0
    U_avg = np.zeros((n, m.n_inputs))
    price_in_box = _in_box_pricer(instance)
    termination = "max_iter"

    def dual_value(y_c: np.ndarray) -> float:
        U_c, X_c = sweep(y_c)
        return _attained_value(instance, y_c, U_c, X_c) - g_conjugate_value(instance, y_c)

    # The record, and the bound with its certifying dual point.
    best, U_best, X_best = np.inf, None, None
    bound, dual = dual_value(y), y.copy()

    for nu in range(config.max_iter):
        beta = theta * (1.0 / theta_prev - 1.0)
        np.subtract(y, y_prev, out=w)
        w *= beta
        w += y
        U, X = sweep(w)
        # The gradient step w + Gamma H z, taken in place on w. The image
        # [X, X, U] goes into y_next, which the prox overwrites next.
        img = y_next
        img[:, :nt] = X
        img[:, nt:2 * nt] = X
        img[:, 2 * nt:] = U
        img *= step
        w += img
        prox_into(instance, w, bounds, y_next)

        U_avg *= 1.0 - theta  # theta is 1 at nu = 0: the average starts at U
        U_avg += np.multiply(theta, U, out=scratch_u)

        y_prev, y, y_next = y, y_next, y_prev
        theta_prev, theta = theta, _next_theta(theta)

        # The candidates, as feasible (inputs, states). Inputs inside the box
        # are feasible as the sweep returns them. A certificate restores the
        # average, and the last iterate when it left the box, as one stack
        # in one call, and rolls the stack out in one more; a restored point
        # lies in the box too. The sweep's pair lives in its rows, which its
        # next call overwrites, so the record copies it on accept; a
        # restored pair is fresh, and the record keeps it as it stands.
        in_box = (np.greater_equal(U, m.u_min, out=inside).all()
                  and np.less_equal(U, m.u_max, out=inside).all())
        candidates = [(U, X)] if in_box else []
        certify = (nu + 1) % GAP_CHECK_EVERY == 0 or nu + 1 == config.max_iter
        if certify:
            U_f = restore_feasible_inputs(instance, np.stack([U_avg] if in_box else [U_avg, U]))
            candidates += zip(U_f, rollout_inputs(instance, U_f))
        changed = False
        for U_c, X_c in candidates:
            value = price_in_box(U_c, X_c)
            if value < best:
                best, changed = value, True
                U_best, X_best = (U_c.copy(), X_c.copy()) if U_c is U else (U_c, X_c)
        if certify:
            bound, dual, changed = dual_value(y), y.copy(), True
            # A finite iterate is in the domain of g*, so its gap is finite.
            if not np.isfinite(best - bound):
                raise RuntimeError(f"solver produced a non-finite iterate by nu={nu}")
        if changed and best - bound <= config.tol * (1.0 + abs(best)):
            termination = "converged"
            break

    elapsed = time.perf_counter() - started

    sl1 = instance.stage_slices[0]
    u0 = instance.prob[sl1] @ U_best[sl1]
    u0 = np.clip(u0, m.u_min, m.u_max)  # the weighted sum of in-box rows may round out
    return SolverResult(
        u0=u0,
        primal_avg=instance.join_primal(U_best, X_best),
        dual=dual,
        iterations=nu + 1,
        termination=termination,
        duality_gap=best - bound,
        objective=best,
        solve_time_s=elapsed,
        gamma=gamma,
    )
