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

from .network import MixingRows, NetworkModel, _number
from .tree import ScenarioTree

# The bounds [lo, hi] of a mixing row's padding entry, which never binds.
_PADDING = np.array([-np.inf, np.inf])[:, None, None]


@dataclass
class CostWeights:
    """Tuning weights of the controller cost.

    ``w_u`` may be a symmetric positive definite matrix or a positive
    scalar standing for that multiple of the identity. Scalar weights are
    stored as floats, a 0-d array ``w_u`` too. A rejected weight's error
    message opens with its field name.
    """

    w_alpha: float
    w_u: float | np.ndarray
    w_s: float
    w_x: float

    def __post_init__(self) -> None:
        self.w_alpha = _number("w_alpha", self.w_alpha)
        # Zero soft-penalty weights are permitted for diagnostics.
        self.w_s = _number("w_s", self.w_s, positive=False)
        self.w_x = _number("w_x", self.w_x, positive=False)
        if np.ndim(self.w_u) == 0:
            self.w_u = _number("w_u", np.asarray(self.w_u).item())
        else:
            self.w_u = np.asarray(self.w_u, float)
            _check_spd(self.w_u, "w_u")

    def u_weight(self, n_inputs: int) -> np.ndarray:
        if np.ndim(self.w_u) == 0:
            return self.w_u * np.eye(n_inputs)
        if self.w_u.shape != (n_inputs, n_inputs):
            raise ValueError(
                f"w_u shape {self.w_u.shape} inconsistent with {n_inputs} inputs"
            )
        return self.w_u


def _check_spd(mat: np.ndarray, name: str) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} must be finite")
    if not np.allclose(mat, mat.T, rtol=1e-10, atol=0):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None


@dataclass
class ProblemInstance:
    """Assembled problem: model + tree template + weights + one step's values.

    ``p`` is the measured tank state and ``q`` the previously applied
    input; ``demand`` and ``price`` are the rows of the non-root nodes that
    :func:`~watermpc.tree.attach_forecast` gives. All four must be finite.
    Flat per-node arrays are row-indexed by ``node - 1``. Construction
    takes the rows' probabilities, ancestors and stages from the tree, which
    every instance of it shares read-only (see
    :attr:`~watermpc.tree.ScenarioTree.node_rows`), derives the rows' demand
    inflows, economic costs and mixing right-hand sides, and rejects a node
    whose coupling ``E u = -Ed d`` has no solution inside the input box; the
    mixing rows themselves are the model's
    (:attr:`~watermpc.network.NetworkModel.mixing_rows`).
    """

    model: NetworkModel
    tree: ScenarioTree
    weights: CostWeights
    p: np.ndarray
    q: np.ndarray
    demand: np.ndarray
    price: np.ndarray

    # Derived layout, filled at construction.
    wu: np.ndarray = field(init=False, repr=False)
    prob: np.ndarray = field(init=False, repr=False)
    anc_row: np.ndarray = field(init=False, repr=False)
    stage_slices: tuple[slice, ...] = field(init=False, repr=False)
    demand_gd: np.ndarray = field(init=False, repr=False)
    econ: np.ndarray = field(init=False, repr=False)
    mix_rhs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        model, tree = self.model, self.tree
        if tree.n_demand != model.n_demands or tree.n_price != model.n_inputs:
            raise ValueError(
                f"tree values sized ({tree.n_demand}, {tree.n_price}) do not match "
                f"network ({model.n_demands} demands, {model.n_inputs} inputs)"
            )
        n = tree.n_nonroot
        for name, label, shape in (("p", "state p", (model.n_tanks,)),
                                   ("q", "previous input q", (model.n_inputs,)),
                                   ("demand", "demand", (n, model.n_demands)),
                                   ("price", "price", (n, model.n_inputs))):
            value = np.asarray(getattr(self, name), float)
            setattr(self, name, value)
            if value.shape != shape:
                raise ValueError(f"{label} must have shape {shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        self.wu = self.weights.u_weight(model.n_inputs)

        # Per non-root-node rows, node i at row i - 1, shared with the tree;
        # anc_row's -1 is the root, a sweep's extra last row.
        self.prob, self.anc_row, self.stage_slices = tree.node_rows
        # Hot-path constants: per-node demand inflow term and economic cost rows.
        self.demand_gd = self.demand @ model.Gd.T
        self.econ = self.weights.w_alpha * (model.alpha0[None, :] + self.price)
        # Each node's right-hand sides c = -Ed d of the model's mixing rows.
        self.mix_rhs = -(self.demand @ model.Ed.T)
        # The rows are disjoint, so a node's coupling has a solution inside
        # the input box iff each c lies in the range of a'u over the box.
        rows = model.mixing_rows
        ends = [np.where(rows.on_row, b[rows.cols], 0.0) * rows.coef
                for b in (model.u_min, model.u_max)]  # 0, not 0 * inf, off the row
        bad = np.any((self.mix_rhs < np.minimum(*ends).sum(axis=1))
                     | (self.mix_rhs > np.maximum(*ends).sum(axis=1)), axis=1)
        if bad.any():
            raise ValueError(f"coupling E u = -Ed d is infeasible at tree node "
                             f"{int(np.argmax(bad)) + 1}: no solution inside the input box")

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


def rollout_inputs(instance: ProblemInstance, U: np.ndarray) -> np.ndarray:
    """States produced by the node dynamics for given per-node inputs.

    ``U`` holds one input row per non-root node, shape ``(n, n_inputs)``, or
    a stack of such candidates along a leading axis, ``(K, n, n_inputs)``;
    the states come back in the same layout, each candidate's as its own
    call would give them. A stage whose parents are the previous stage's
    rows in order, because each has one child or the previous stage is one
    node, reads them as a slice; any other stage gathers them.
    """
    m = instance.model
    n = instance.n_nonroot
    if U.ndim not in (2, 3) or U.shape[-2:] != (n, m.n_inputs):
        raise ValueError(f"inputs must have shape {(n, m.n_inputs)}")
    X = np.empty(U.shape[:-2] + (n + 1, m.n_tanks))  # the root's row last
    np.matmul(U, m.B.T, out=X[..., :n, :])
    X[..., :n, :] += instance.demand_gd
    X[..., n, :] = instance.p
    prev = slice(n, n + 1)
    for sl in instance.stage_slices:
        # Every node before the last stage has a child, and a stage follows
        # its parents' order (ScenarioTree.validate).
        width, prev_width = sl.stop - sl.start, prev.stop - prev.start
        if prev_width in (1, width):
            X[..., sl, :] += X[..., prev, :] @ m.A.T
        else:
            X[..., sl, :] += X[..., instance.anc_row[sl], :] @ m.A.T
        prev = sl
    return X[..., :n, :]


def restore_feasible_inputs(
    instance: ProblemInstance, U: np.ndarray, e_pinv: np.ndarray | None = None
) -> np.ndarray:
    """Exact Euclidean projection of per-node inputs onto the input box
    intersected with the coupling set ``{u : E u = -Ed d}``, without a loop.

    ``U`` holds one input row per non-root node, or a stack of such
    candidates along a leading axis; each candidate is projected as its own
    call would project it, into an array of U's shape. Each input is in at
    most one mixing row (NetworkModel's row rule), so an input in no row is
    clipped and a row ``a'u = c`` becomes ``clip(v + lam a, lo, hi)``, lam
    the root of the nondecreasing, piecewise linear
    ``phi(lam) = a' clip(v + lam a, lo, hi) - c``. A row whose affine
    projection stays inside the box keeps it; the others search the sorted
    breakpoints of phi (Helgason, Kennington & Lall, Math. Prog. 1980;
    Kiwiel, JOTA 2008): cumulative slopes over them bracket the root, phi
    is priced exactly at the bracket's finite end alone, and one linear step
    from there lands on the root. ``e_pinv`` is not read.
    """
    m = instance.model
    if m.n_mixing == 0:
        return np.clip(U, m.u_min, m.u_max)
    rows, c = m.mixing_rows, instance.mix_rhs
    a = rows.coef
    box = np.where(rows.on_row, np.array([m.u_min, m.u_max])[:, rows.cols], _PADDING)
    W = U[..., rows.cols]
    resid = c - (W * a).sum(axis=-1)
    # The affine projection v + lam a, in place on the rows v. lam is spread
    # over each row's entries first: a product that broadcasts it is
    # several times slower and buffers.
    lam_a = (resid / rows.norm2).repeat(a.shape[1], axis=-1).reshape(W.shape)
    lam_a *= a  # norm2 is 1 on an empty row, whose resid is 0
    W += lam_a
    del lam_a
    outside = W < box[0]
    outside |= W > box[1]
    at = outside.any(axis=-1).nonzero()  # (candidate,) node, row
    if at[0].size:
        row = at[-1]
        v = U[tuple(i[:, None] for i in at[:-1]) + (rows.cols[row],)]
        W[at] = _row_roots(rows, row, v, box, resid[at], c[at[-2:]])
    out = np.maximum(U, m.u_min)
    np.minimum(out, m.u_max, out=out)
    for i, width in enumerate(rows.widths):
        out[..., rows.cols[i, :width]] = W[..., i, :width]
    return out


def _row_roots(rows: MixingRows, row: np.ndarray, v: np.ndarray, box: np.ndarray,
               resid: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``clip(v + lam a, lo, hi)`` at the root lam of each given row's phi
    (see :func:`restore_feasible_inputs`): ``row`` indexes the mixing rows
    of ``rows``, ``box`` holds their bounds ``[lo, hi]`` and ``resid`` is
    ``c - a'v``. Each array is dropped once it is spent: a net10
    certificate searches thousands of rows."""
    bounds = box[:, row]
    a, a2 = rows.coef[row], rows.coef2[row]
    # Each entry is free, with slope a_j^2, between its two breakpoints; an
    # infinite one stands for phi's limit on its side.
    t = bounds - v
    t /= rows.divisor[row]
    t.sort(axis=0)
    t_lo, t_hi = t
    T = t.transpose(1, 0, 2).reshape(row.size, -1)
    order = T.argsort(axis=1)
    k = np.arange(row.size)
    T = T[k[:, None], order]
    kink = rows.kinks[row[:, None], order]  # +a_j^2 at t_lo_j, -a_j^2 at t_hi_j
    del order
    # At a finite breakpoint t, phi(t) = a'v - c + sum_j a_j^2 clip(t, t_lo_j, t_hi_j)
    # = a'v - c + C + t S(t) - Q(t): C sums a_j^2 t_lo_j over the finite
    # t_lo_j, and S and Q sum the kinks, and the kinks times their finite
    # breakpoints, up to t.
    finite = np.isfinite(T)
    T_fin = np.where(finite, T, 0.0)
    phi = kink.cumsum(axis=1)
    phi *= T_fin
    kink *= T_fin
    del T_fin
    phi -= kink.cumsum(axis=1, out=kink)
    del kink
    phi += ((a2 * np.where(np.isfinite(t_lo), t_lo, 0.0)).sum(axis=1) - resid)[:, None]
    np.copyto(phi, T, where=~finite)
    # The root lies between the breakpoints left and right. Price phi at the
    # finite one of them and step along the slope of the entries free in
    # between.
    right = np.minimum((phi <= 0).sum(axis=1), T.shape[1] - 1)
    del phi, finite
    left = np.maximum(right - 1, 0)
    t_left, t_right = T[k, left], T[k, right]
    slope = (a2 * ((t_lo <= t_left[:, None]) & (t_hi >= t_right[:, None]))).sum(axis=1)
    t = np.where(np.isfinite(t_left), t_left, t_right)
    phi_t = _clipped(t[:, None] * a, v, bounds)
    phi_t *= a
    step = np.divide(phi_t.sum(axis=1) - c, slope, out=np.zeros_like(slope), where=slope > 0)
    return _clipped((t - step)[:, None] * a, v, bounds)


def _clipped(x: np.ndarray, v: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``clip(x + v, *bounds)``, in place on x."""
    x += v
    np.maximum(x, bounds[0], out=x)
    return np.minimum(x, bounds[1], out=x)


def smooth_cost(instance: ProblemInstance, U: np.ndarray) -> float:
    """Probability-weighted economic plus input-increment cost of inputs U,
    ignoring the domain indicators of f."""
    du = U - np.vstack([U, instance.q])[instance.anc_row]
    price_term = (instance.econ * U).sum(axis=1)
    # One BLAS product, then a row-wise dot: a three-operand einsum loops
    # in C without BLAS and cost 10x more on net10.
    quad_term = np.einsum("ij,ij->i", du @ instance.wu, du)
    return float(instance.prob @ (price_term + quad_term))


def _in_box_pricer(instance: ProblemInstance):
    """Primal value ``price(U, X)`` of inputs U inside the input box and
    their states X: :func:`smooth_cost` of U plus :func:`g_value` of the
    rows [X, X, U], whose input-box term is then 0. The buffers are
    allocated once here; the arguments are not checked, nor is U's box."""
    m, w = instance.model, instance.weights
    n, nt = instance.n_nonroot, m.n_tanks
    ext = np.empty((n + 1, m.n_inputs))  # U with q in the root's row, last
    ext[n] = instance.q
    du, du_w = np.empty((n, m.n_inputs)), np.empty((n, m.n_inputs))
    p_col = instance.prob[:, None]
    p_econ = p_col * instance.econ
    # The state slots [x, x] of g's rows, their bounds and their distances.
    lo = np.concatenate([m.x_min, m.x_safe])
    hi = np.concatenate([m.x_max, np.full(nt, np.inf)])
    rows, proj = np.empty((n, 2 * nt)), np.empty((n, 2 * nt))
    dist = rows.reshape(n, 2, nt)
    weights = np.array([w.w_x, w.w_s])

    def price(U: np.ndarray, X: np.ndarray) -> float:
        ext[:n] = U
        # anc_row's -1 wraps to the root's row; "raise", the default, buffers.
        np.subtract(U, np.take(ext, instance.anc_row, axis=0, out=du, mode="wrap"), out=du)
        np.matmul(du, instance.wu, out=du_w)
        value = np.vdot(p_econ, U) + np.vdot(np.multiply(du, p_col, out=du), du_w)
        rows[:, :nt] = X
        rows[:, nt:] = X
        np.subtract(rows, np.clip(rows, lo, hi, out=proj), out=rows)
        np.multiply(rows, rows, out=rows)
        return float(value + np.sqrt(dist.sum(axis=2)).sum(axis=0) @ weights)

    return price


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


def scaled_bounds(
    instance: ProblemInstance, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the rows ``[x_min, x_safe, u_min]`` and ``[x_max, inf, u_max]``
    times that node's step: the bounds :func:`prox_into` clips dual rows to."""
    col = _node_steps(instance, gamma)[:, None]
    m = instance.model
    lo = np.concatenate([m.x_min, m.x_safe, m.u_min])
    hi = np.concatenate([m.x_max, np.full(m.n_tanks, np.inf), m.u_max])
    return col * lo, col * hi


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
    bounds = scaled_bounds(instance, gamma)
    w = np.asarray(w, float)
    instance.dual_blocks(w)  # checks the shape
    return prox_into(instance, w, bounds, np.empty(instance.dual_shape))


def prox_into(
    instance: ProblemInstance,
    w: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray],
    out: np.ndarray,
) -> np.ndarray:
    """:func:`prox_g_conjugate` at the steps that ``bounds`` were scaled by
    (see :func:`scaled_bounds`), written into ``out`` and returned. ``w`` and
    ``out`` are distinct dual rows; neither is checked.

    Each slot's residual ``w - proj(w)`` comes from one clip of the whole
    rows, the safety half-space being the box ``[x_safe, inf)``; the two
    penalty slots then go onto their balls."""
    lo, hi = bounds
    np.minimum(np.maximum(w, lo, out=out), hi, out=out)
    np.subtract(w, out, out=out)
    nt = instance.model.n_tanks
    _ball_projection(out[:, :nt], instance.weights.w_x)
    _ball_projection(out[:, nt:2 * nt], instance.weights.w_s)
    return out


def _ball_projection(R: np.ndarray, radius: float) -> None:
    """Projects each row of R onto the Euclidean ball of the given radius, in place."""
    scale = np.sqrt(np.einsum("ij,ij->i", R, R))
    np.maximum(scale, max(radius, 1e-300), out=scale)
    R *= np.divide(radius, scale, out=scale)[:, None]


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

    Every row shares the bounds, so the support functions are two column
    sums, of y's positive and of its negative parts, priced at the upper
    and the lower bounds. A column with no part of a sign meets that bound
    as 0, an infinite bound too; y2's positive part, within the tolerance,
    is priced at 0.
    """
    m = instance.model
    w = instance.weights
    y = np.asarray(y, float)
    Y1, Y2, _ = instance.dual_blocks(y)
    tol = CONJUGATE_DOMAIN_TOL
    if np.einsum("ij,ij->i", Y1, Y1).max() > (w.w_x * (1.0 + tol) + tol) ** 2:
        return np.inf
    if np.einsum("ij,ij->i", Y2, Y2).max() > (w.w_s * (1.0 + tol) + tol) ** 2:
        return np.inf
    if (Y2.max(axis=0) > tol * (1.0 + np.abs(m.x_safe))).any():
        return np.inf
    up, down = np.maximum(y, 0.0).sum(axis=0), np.minimum(y, 0.0).sum(axis=0)
    hi = np.concatenate([m.x_max, np.zeros(m.n_tanks), m.u_max])
    lo = np.concatenate([m.x_min, m.x_safe, m.u_min])
    return float(np.where(up > 0.0, hi, 0.0) @ up + np.where(down < 0.0, lo, 0.0) @ down)
