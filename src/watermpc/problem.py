"""One scenario-based stochastic MPC instance and its composite splitting.

The optimal contingency plan minimizes f(z) + g(Hz) over the stacked
per-node decision vector z. Every non-root tree node alpha at stage s
carries the input u applied over the interval ending at alpha and the
resulting state x, stored node-major as ``z = [u_1, x_1, u_2, x_2, ...]``
in breadth-first node order.

* f: probability-weighted economic cost ``w_alpha * (alpha0 + price)' u``
  plus the input-increment cost ``du' W_u du`` (du taken against the
  ancestor node's input, the measured previous input at stage 1), plus the
  indicators of the node dynamics and the mixing-node coupling.
* H: copies each node's (x, u) to the triple (x, x, u). Images Hz and
  duals y are arrays of ``dual_shape``: one row [y1, y2, y3] per non-root
  node, in the same order as z.
* g: per node, a soft Euclidean-distance penalty keeping x inside
  [x_min, x_max] (weight w_x), a soft penalty keeping x above the safety
  level (weight w_s), and the hard box indicator on u.

Instances are immutable and shareable across threads; all per-node
operations decompose node-wise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import NetworkModel
from .tree import ScenarioTree, validate_tree


@dataclass
class CostWeights:
    """Tuning weights of the controller cost.

    ``w_u`` may be a symmetric positive definite matrix or a positive
    scalar standing for that multiple of the identity. A rejected weight's
    error message opens with its field name.
    """

    w_alpha: float
    w_u: float | np.ndarray
    w_s: float
    w_x: float

    def __post_init__(self) -> None:
        if self.w_alpha <= 0:
            raise ValueError("w_alpha must be positive")
        # Zero soft-penalty weights are permitted for diagnostics.
        if self.w_s < 0:
            raise ValueError("w_s must be nonnegative")
        if self.w_x < 0:
            raise ValueError("w_x must be nonnegative")
        if np.isscalar(self.w_u) or np.ndim(self.w_u) == 0:
            if float(self.w_u) <= 0:
                raise ValueError("w_u must be positive")
        else:
            self.w_u = np.asarray(self.w_u, float)
            _check_spd(self.w_u, "w_u")

    def u_weight(self, n_inputs: int) -> np.ndarray:
        if np.isscalar(self.w_u) or np.ndim(self.w_u) == 0:
            return float(self.w_u) * np.eye(n_inputs)
        if self.w_u.shape != (n_inputs, n_inputs):
            raise ValueError(
                f"w_u shape {self.w_u.shape} inconsistent with {n_inputs} inputs"
            )
        return self.w_u


def _check_spd(mat: np.ndarray, name: str) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.allclose(mat, mat.T, rtol=1e-10, atol=0):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None


@dataclass
class ProblemInstance:
    """Assembled problem: model + forecast-attached tree + weights + state.

    ``p`` is the measured tank state and ``q`` the previously applied
    input. Flat per-node arrays are row-indexed by ``node - 1``.
    """

    model: NetworkModel
    tree: ScenarioTree
    weights: CostWeights
    p: np.ndarray
    q: np.ndarray

    # Derived layout, filled at construction.
    wu: np.ndarray = field(init=False, repr=False)
    prob: np.ndarray = field(init=False, repr=False)
    anc_row: np.ndarray = field(init=False, repr=False)
    demand: np.ndarray = field(init=False, repr=False)
    price: np.ndarray = field(init=False, repr=False)
    stage_slices: list[slice] = field(init=False, repr=False)
    parent_rows: list[slice | np.ndarray | None] = field(init=False, repr=False)
    child_groups: list[tuple[slice | np.ndarray, np.ndarray] | None] = field(
        init=False, repr=False
    )
    demand_gd: np.ndarray = field(init=False, repr=False)
    econ: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, float)
        self.q = np.asarray(self.q, float)
        model, tree = self.model, self.tree
        if not tree.is_attached:
            raise ValueError("scenario tree is not forecast-attached")
        problems = validate_tree(tree)
        if problems:
            raise ValueError(f"invalid scenario tree: {problems[0]}")
        if tree.horizon < 1:
            raise ValueError("prediction horizon must be at least 1")
        if tree.n_demand != model.n_demands or tree.n_price != model.n_inputs:
            raise ValueError(
                f"tree values sized ({tree.n_demand}, {tree.n_price}) do not match "
                f"network ({model.n_demands} demands, {model.n_inputs} inputs)"
            )
        if self.p.shape != (model.n_tanks,):
            raise ValueError(f"state p must have shape ({model.n_tanks},)")
        if self.q.shape != (model.n_inputs,):
            raise ValueError(f"previous input q must have shape ({model.n_inputs},)")
        self.wu = self.weights.u_weight(model.n_inputs)

        # Per non-root-node rows: node i lives at row i - 1.
        self.prob = tree.prob[1:].copy()
        self.anc_row = tree.anc[1:] - 1  # -1 marks a stage-1 node (root parent)
        self.demand = tree.demand[1:].copy()
        self.price = tree.price[1:].copy()
        stages = tree.stage[1:]
        self.stage_slices = []
        start = 0
        for j in range(1, tree.horizon + 1):
            count = int(np.count_nonzero(stages == j))
            self.stage_slices.append(slice(start, start + count))
            start += count
        # Child-to-parent maps of stages 2..H for the stage sweeps; entry 0
        # (stage 1, whose parent is the root) is None. parent_rows[j] indexes
        # each row's parent: the previous stage's slice, a view, when every
        # node is its parent's only child in order, else the ancestor rows.
        # child_groups[j] = (order, starts) for np.add.reduceat: order groups
        # the rows by parent (a plain view when breadth-first numbering
        # already does) and starts opens each group; None when one to one,
        # as there is nothing to sum. Every node before the last stage has
        # a child, so group i belongs to the i-th row of the previous stage.
        self.parent_rows = [None]
        self.child_groups = [None]
        for prev, sl in zip(self.stage_slices, self.stage_slices[1:]):
            parents = self.anc_row[sl]
            order: slice | np.ndarray = slice(None)
            if np.any(parents[1:] < parents[:-1]):
                order = np.argsort(parents, kind="stable")
            grouped = parents[order]
            starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
            if isinstance(order, slice) and starts.size == parents.size:
                self.parent_rows.append(prev)
                self.child_groups.append(None)
            else:
                self.parent_rows.append(parents)
                self.child_groups.append((order, starts))
        # Hot-path constants: per-node demand inflow term and economic cost rows.
        self.demand_gd = self.demand @ model.Gd.T
        self.econ = self.weights.w_alpha * (model.alpha0[None, :] + self.price)

    @property
    def n_nonroot(self) -> int:
        return self.tree.n_nonroot

    @property
    def n_primal(self) -> int:
        return self.n_nonroot * (self.model.n_inputs + self.model.n_tanks)

    @property
    def dual_shape(self) -> tuple[int, int]:
        return (self.n_nonroot, 2 * self.model.n_tanks + self.model.n_inputs)

    # Primal rows are [u, x], stored flat; dual rows are [y1, y2, y3], one
    # per node, paired with the image (x, x, u) under H.
    def split_primal(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nu = self.model.n_inputs
        z = np.asarray(z, float)
        if z.shape != (self.n_primal,):
            raise ValueError(f"primal vector must have shape ({self.n_primal},), got {z.shape}")
        rows = z.reshape(self.n_nonroot, -1)
        return rows[:, :nu], rows[:, nu:]

    def join_primal(self, U: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.concatenate([U, X], axis=1).reshape(-1)

    def dual_blocks(self, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column views (y1, y2, y3) of dual rows of shape ``dual_shape``."""
        Y = np.asarray(Y, float)
        if Y.shape != self.dual_shape:
            raise ValueError(f"dual rows must have shape {self.dual_shape}, got {Y.shape}")
        nt = self.model.n_tanks
        return Y[:, :nt], Y[:, nt:2 * nt], Y[:, 2 * nt:]

    def ancestor_inputs(self, U: np.ndarray) -> np.ndarray:
        """Per row, the ancestor node's input (the measured q at stage 1)."""
        out = U[self.anc_row]
        out[self.anc_row < 0] = self.q
        return out


def rollout_inputs(instance: ProblemInstance, U: np.ndarray) -> np.ndarray:
    """States produced by the node dynamics for given per-node inputs."""
    m = instance.model
    n = instance.n_nonroot
    if U.shape != (n, m.n_inputs):
        raise ValueError(f"inputs must have shape {(n, m.n_inputs)}")
    X = U @ m.B.T + instance.demand_gd
    for j, sl in enumerate(instance.stage_slices):
        x_prev = instance.p[None, :] if j == 0 else X[instance.parent_rows[j]]
        X[sl] += x_prev @ m.A.T
    return X


def restore_feasible_inputs(
    instance: ProblemInstance, U: np.ndarray, e_pinv: np.ndarray
) -> np.ndarray:
    """Project per-node inputs onto box intersected with the coupling set.

    Alternating projections with Dykstra corrections, vectorized across
    nodes; ``e_pinv`` is pinv(E), as in ``FactorCache.e_pinv``. A row stops
    once its box point and its coupling point agree to rounding level, so
    it sits exactly inside the box with the coupling residual at rounding
    level; the others carry on, up to 500 steps.
    """
    m = instance.model
    if m.n_mixing == 0:
        return np.clip(U, m.u_min, m.u_max)
    out = U.copy()
    rows = np.arange(U.shape[0])
    shift = instance.demand @ m.Ed.T
    x = U
    p_cor = np.zeros_like(x)
    q_cor = np.zeros_like(x)
    tol = 1e-13 * (1.0 + float(np.max(np.abs(U))))
    for _ in range(500):
        y = x + p_cor
        y -= (y @ m.E.T + shift) @ e_pinv.T
        p_cor = x + p_cor - y
        x = np.clip(y + q_cor, m.u_min, m.u_max)
        q_cor = y + q_cor - x
        # A box point can sit on a clipped corner for several steps while
        # the corrections still move, so a row is done only when it also
        # meets the coupling point.
        done = np.max(np.abs(x - y), axis=1) <= tol
        if done.any():
            out[rows[done]] = x[done]
            active = ~done
            rows, x, p_cor, q_cor, shift = (
                rows[active], x[active], p_cor[active], q_cor[active], shift[active]
            )
            if rows.size == 0:
                return out
    out[rows] = x
    return out


def smooth_cost(instance: ProblemInstance, U: np.ndarray) -> float:
    """Probability-weighted economic plus input-increment cost of inputs U,
    ignoring the domain indicators of f."""
    du = U - instance.ancestor_inputs(U)
    price_term = (instance.econ * U).sum(axis=1)
    # One BLAS product, then a row-wise dot: a three-operand einsum loops
    # in C without BLAS and cost 10x more on net10.
    quad_term = np.einsum("ij,ij->i", du @ instance.wu, du)
    return float(instance.prob @ (price_term + quad_term))


def apply_H(instance: ProblemInstance, z: np.ndarray) -> np.ndarray:
    """Image (x, x, u) of each node's variables, as dual rows."""
    U, X = instance.split_primal(z)
    return np.concatenate([X, X, U], axis=1)


def _node_steps(instance: ProblemInstance, gamma: np.ndarray) -> np.ndarray:
    """One step per non-root node, checked positive."""
    step = np.asarray(gamma, float)
    if step.shape != (instance.n_nonroot,):
        raise ValueError(
            f"gamma must have shape ({instance.n_nonroot},), got {step.shape}"
        )
    if not np.all(step > 0):
        raise ValueError("gamma must be positive")
    return step


def prox_g_conjugate(
    instance: ProblemInstance, w: np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """Prox of Gamma * g^*, node-separable and slot-separable.

    By the Moreau decomposition it equals ``w - gamma prox_{g/gamma}(w/gamma)``,
    evaluated here without dividing by gamma: for a penalty
    ``W dist(., C)`` it is the residual ``w - proj_{gamma C}(w)`` projected
    onto the ball of radius W, and for the input box indicator it is
    ``w - proj_{gamma box}(w)``. ``w`` and the result are dual rows, and
    ``gamma`` holds one step per non-root node, applied to that node's row.
    """
    col = _node_steps(instance, gamma)[:, None]
    m, wts = instance.model, instance.weights
    W1, W2, W3 = instance.dual_blocks(w)
    out1 = _ball_projection(W1 - np.clip(W1, col * m.x_min, col * m.x_max), wts.w_x)
    out2 = _ball_projection(np.minimum(W2 - col * m.x_safe, 0.0), wts.w_s)
    out3 = W3 - np.clip(W3, col * m.u_min, col * m.u_max)
    return np.concatenate([out1, out2, out3], axis=1)


def _ball_projection(R: np.ndarray, radius: float) -> np.ndarray:
    """Each row of R projected onto the Euclidean ball of the given radius."""
    norm = np.sqrt(np.einsum("ij,ij->i", R, R))
    return R * (radius / np.maximum(norm, max(radius, 1e-300)))[:, None]


def g_value(instance: ProblemInstance, hx: np.ndarray) -> float:
    """Penalties plus the hard input-box indicator of image rows, exactly."""
    m = instance.model
    Y1, Y2, Y3 = instance.dual_blocks(hx)
    if np.any(Y3 < m.u_min) or np.any(Y3 > m.u_max):
        return np.inf
    w = instance.weights
    box_dist = np.linalg.norm(Y1 - np.clip(Y1, m.x_min, m.x_max), axis=1)
    safe_dist = np.linalg.norm(Y2 - np.maximum(Y2, m.x_safe), axis=1)
    return float(w.w_x * box_dist.sum() + w.w_s * safe_dist.sum())


CONJUGATE_DOMAIN_TOL = 1e-9  # relative slack on the domain of g*


def g_conjugate_value(instance: ProblemInstance, y: np.ndarray) -> float:
    """Convex conjugate of g at dual rows y.

    Finite on y1 with norm at most w_x, nonpositive y2 with norm at most
    w_s, and any y3; there it is the sum of the support functions of the
    state box, the safety half-space and the input box. A point outside
    that domain by at most ``CONJUGATE_DOMAIN_TOL`` relative counts as
    inside; beyond it the value is +inf.
    """
    m = instance.model
    w = instance.weights
    Y1, Y2, Y3 = instance.dual_blocks(y)
    n1 = np.linalg.norm(Y1, axis=1)
    n2 = np.linalg.norm(Y2, axis=1)
    tol = CONJUGATE_DOMAIN_TOL
    if np.any(n1 > w.w_x * (1.0 + tol) + tol):
        return np.inf
    if np.any(n2 > w.w_s * (1.0 + tol) + tol):
        return np.inf
    if np.any(Y2 > tol * (1.0 + np.abs(m.x_safe))):
        return np.inf
    val = _box_support(m.x_min, m.x_max, Y1)
    val += float((m.x_safe * np.minimum(Y2, 0.0)).sum())
    val += _box_support(m.u_min, m.u_max, Y3)
    return float(val)


def _box_support(lo: np.ndarray, hi: np.ndarray, Y: np.ndarray) -> float:
    """Support function of a box, treating inf * 0 as 0 for widened boxes."""
    with np.errstate(invalid="ignore"):
        val = hi * np.clip(Y, 0.0, None) + lo * np.clip(Y, None, 0.0)
    return float(np.where(np.isnan(val), 0.0, val).sum())
