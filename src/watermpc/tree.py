"""Scenario trees over joint demand/price prediction errors.

A tree spans stages 0..horizon. The root (index 0) is the present with
zero prediction error; every later node carries an error vector
``eps = (demand part, price part)``. A tree is a template: it holds no
forecast, and :func:`attach_forecast` adds a nominal forecast to the
errors to give the contingent demand and price of every non-root node.
Nodes are numbered breadth-first: by stage, and within a stage in their
parents' order, so per-stage node ranges and each node's children are
contiguous slices of every flat array. A tree stores the node count of
each stage, not the stage of each node.

Trees are immutable after construction; functions that modify return new
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .network import _count

_PROB_TOL = 1e-9
# Rows per block of the selection's distances: caps the (rows, m, dim) temporary.
_DIST_BLOCK_ROWS = 64


def _array(name: str, value: object, integer: bool) -> np.ndarray:
    """``value`` as an int array if its entries are integers, or unless
    ``integer`` as a float array if they are real numbers, never bools or
    strings; else a ValueError that opens with ``name``."""
    value = np.asarray(value)
    kinds, what = ("iu", "integers") if integer else ("iuf", "real numbers")
    if value.size and value.dtype.kind not in kinds:
        raise ValueError(f"{name} must hold {what}, got {value.dtype} entries")
    return value.astype(int if integer else float, copy=False)


@dataclass
class ScenarioFan:
    """Equally weighted scenario bundle: values[s, j, :] is scenario s at
    stage j+1. The sizes are stored as ints and the values as floats, never
    read from bools or strings, and a rejected field's error message opens
    with its name."""

    values: np.ndarray  # (n_scenarios, horizon, n_demand + n_price)
    n_demand: int
    n_price: int

    @property
    def n_scenarios(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        return self.values.shape[1]

    def __post_init__(self) -> None:
        self.n_demand = _count("n_demand", self.n_demand, 0)
        self.n_price = _count("n_price", self.n_price, 0)
        self.values = _array("values", self.values, integer=False)
        if self.values.ndim != 3:
            raise ValueError("fan values must be a 3-d array (scenario, stage, component)")
        if self.values.shape[2] != self.n_demand + self.n_price:
            raise ValueError(
                f"fan component dimension {self.values.shape[2]} != "
                f"n_demand + n_price = {self.n_demand + self.n_price}"
            )
        if self.values.shape[0] == 0:
            raise ValueError("fan must contain at least one scenario")
        if self.values.shape[1] == 0:
            raise ValueError("fan must span at least one stage")
        if not np.isfinite(self.values).all():
            raise ValueError("fan values must be finite")


@dataclass
class ScenarioTree:
    """Stage-indexed scenario tree in breadth-first node order: a stage's
    nodes follow their parents' order.

    ``nodes_per_stage`` counts the nodes of each stage 0..horizon (1 for
    the root), as ``scenarioTree.json`` does; stage j's nodes are the next
    ``nodes_per_stage[j]`` of the flat arrays ``anc`` and ``prob``. The
    root has ``anc = -1`` and probability 1. ``eps`` holds per-node
    prediction errors (root row zero). The sizes and links are stored as
    ints and the probabilities and errors as floats, never read from bools
    or strings, and a rejected field's error message opens with its name.
    """

    horizon: int
    n_demand: int
    n_price: int
    nodes_per_stage: np.ndarray
    anc: np.ndarray
    prob: np.ndarray
    eps: np.ndarray

    def __post_init__(self) -> None:
        self.horizon = _count("horizon", self.horizon, 1)
        self.n_demand = _count("n_demand", self.n_demand, 0)
        self.n_price = _count("n_price", self.n_price, 0)
        for name in ("nodes_per_stage", "anc", "prob", "eps"):
            setattr(self, name, _array(name, getattr(self, name),
                                       integer=name in ("nodes_per_stage", "anc")))
        self.validate()

    def validate(self) -> None:
        """Raise ValueError at the first violated invariant: stage counts,
        links, stages whose nodes follow their parents' order, probabilities
        in (0, 1] that telescope and sum to 1 per stage within 1e-9, and
        finite errors with a zero root row. Construction runs it."""
        counts = self.nodes_per_stage
        if counts.shape != (self.horizon + 1,) or counts[0] != 1 or np.any(counts < 0):
            raise ValueError(f"nodes_per_stage must be horizon + 1 = {self.horizon + 1} "
                             f"nonnegative counts starting at 1, got {counts.tolist()}")
        if self.anc.ndim != 1 or self.prob.ndim != 1:
            raise ValueError("anc and prob must be 1-d arrays")
        n = self.n_nodes
        if self.anc.shape != (n,) or self.prob.shape != (n,):
            raise ValueError(f"anc and prob must have {n} entries, one per node")
        stage = np.repeat(np.arange(self.horizon + 1), counts)
        anc, prob = self.anc[1:], self.prob
        if self.anc[0] != -1:
            raise ValueError("node 0 must be the root (no ancestor)")
        if abs(prob[0] - 1.0) > _PROB_TOL:
            raise ValueError(f"root probability {prob[0]} != 1")
        if not np.all((prob > 0) & (prob <= 1 + _PROB_TOL)):  # NaN too
            raise ValueError("node probabilities must lie in (0, 1]")

        out_of_range = (anc < 0) | (anc >= n)
        wrong_stage = stage[np.where(out_of_range, 0, anc)] != stage[1:] - 1
        bad = np.flatnonzero(out_of_range | wrong_stage)
        if bad.size:
            i, a = bad[0] + 1, anc[bad[0]]
            if out_of_range[bad[0]]:
                raise ValueError(f"node {i}: ancestor {a} out of range")
            raise ValueError(f"node {i}: ancestor stage {stage[a]} != own stage {stage[i]} - 1")
        bad = np.flatnonzero(np.diff(anc) < 0)  # a stage follows its parents' order
        if bad.size:
            i = bad[0] + 2
            raise ValueError(f"node {i}: ancestor {anc[i - 1]} precedes node {i - 1}'s "
                             f"ancestor {anc[i - 2]}")

        # Telescoping: every non-leaf node's probability equals its children's sum.
        child_sum = np.bincount(anc, weights=prob[1:], minlength=n)
        has_kids = np.bincount(anc, minlength=n) > 0
        mismatch = ~has_kids | (np.abs(child_sum - prob) > _PROB_TOL)
        bad = np.flatnonzero((stage < self.horizon) & mismatch)
        if bad.size:
            i = bad[0]
            if not has_kids[i]:
                raise ValueError(f"node {i} at stage {stage[i]} has no children")
            raise ValueError(
                f"node {i}: children probabilities sum {child_sum[i]:.12g} != {prob[i]:.12g}"
            )
        # A slice's pairwise sum can differ in the last bit from np.bincount's
        # running one, across the 1e-9 tolerance.
        for j, part in enumerate(np.split(prob, np.cumsum(counts)[:-1])):
            if abs(part.sum() - 1.0) > _PROB_TOL:
                raise ValueError(f"stage {j} probabilities sum {part.sum():.12g} != 1")

        if self.eps.shape != (n, self.n_demand + self.n_price):
            raise ValueError(f"eps shape {self.eps.shape} != {(n, self.n_demand + self.n_price)}")
        if not np.isfinite(self.eps).all():
            raise ValueError("prediction errors eps must be finite")
        if np.any(self.eps[0] != 0.0):
            raise ValueError("root prediction error must be zero")

    @property
    def n_nodes(self) -> int:
        return int(self.nodes_per_stage.sum())

    @cached_property
    def node_rows(self) -> tuple[np.ndarray, np.ndarray, tuple[slice, ...]]:
        """The non-root nodes as rows, node i at row i - 1: their
        probabilities, their parents' rows (-1 for the root) and each stage's
        slice of rows. Derived once per tree and read-only, so every
        :class:`~watermpc.problem.ProblemInstance` of the tree shares them."""
        prob, anc_row = self.prob[1:].copy(), self.anc[1:] - 1
        prob.flags.writeable = anc_row.flags.writeable = False
        ends = np.cumsum(self.nodes_per_stage[1:]).tolist()
        return prob, anc_row, tuple(slice(a, b) for a, b in zip([0] + ends, ends))

    @property
    def n_nonroot(self) -> int:
        return self.n_nodes - 1

    @classmethod
    def single_branch(cls, horizon: int, n_demand: int, n_price: int) -> "ScenarioTree":
        """One-scenario chain with zero errors (the certainty-equivalent
        controller). It is a template: :func:`attach_forecast` gives every
        node the nominal forecast."""
        horizon = _count("horizon", horizon, 1)
        n_demand, n_price = _count("n_demand", n_demand, 0), _count("n_price", n_price, 0)
        n = horizon + 1
        return cls(
            horizon=horizon,
            n_demand=n_demand,
            n_price=n_price,
            nodes_per_stage=np.ones(n, int),
            anc=np.arange(-1, n - 1),
            prob=np.ones(n),
            eps=np.zeros((n, n_demand + n_price)),
        )


def attach_forecast(
    tree: ScenarioTree, d_hat: np.ndarray, alpha_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Combine nominal forecasts with per-node errors into node values.

    ``d_hat[j-1]`` and ``alpha_hat[j-1]`` are the nominal demand and price
    for stage j; each non-root node adds its error split into demand and
    price parts. Returns the ``(demand, price)`` rows of the non-root
    nodes in node order, as :class:`~watermpc.problem.ProblemInstance`
    takes them.
    """
    d_hat = np.atleast_2d(np.asarray(d_hat, float))
    alpha_hat = np.atleast_2d(np.asarray(alpha_hat, float))
    for name, values, width in (("demand", d_hat, tree.n_demand),
                                ("price", alpha_hat, tree.n_price)):
        if values.shape != (tree.horizon, width):
            raise ValueError(
                f"{name} forecast shape {values.shape} != {(tree.horizon, width)} "
                f"(tree horizon {tree.horizon})"
            )
    nd, prev = tree.n_demand, np.repeat(np.arange(tree.horizon), tree.nodes_per_stage[1:])
    return d_hat[prev] + tree.eps[1:, :nd], alpha_hat[prev] + tree.eps[1:, nd:]


def zero_price_errors(tree: ScenarioTree) -> ScenarioTree:
    """Copy of the tree with the price part of every error zeroed.

    Used for the certainty-equivalent-in-price comparison: the tree keeps
    its structure and demand branches but every branch sees the nominal
    price forecast.
    """
    eps = tree.eps.copy()
    eps[:, tree.n_demand:] = 0.0
    return replace(tree, eps=eps)


def _fast_forward_select(values: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """Greedy representative selection on one bundle.

    Repeatedly picks the member minimizing the weight-weighted sum of
    distances from all members to their nearest representative (lowest
    index on ties); stops once every member coincides with one. Returns
    each member's slot: the selection-order number of its nearest
    representative, the lowest-index one among equidistant ones. Keeps two
    m x m float arrays (distances and a work array): 800 MB at 10^4 members.
    """
    m = values.shape[0]
    if count == 1:  # one child takes the whole bundle, whatever the distances
        return np.zeros(m, int)
    dist = np.empty((m, m))
    for lo in range(0, m, _DIST_BLOCK_ROWS):
        diff = values[lo:lo + _DIST_BLOCK_ROWS, None, :] - values[None, :, :]
        dist[lo:lo + _DIST_BLOCK_ROWS] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    selected: list[int] = []
    d_min = np.full(m, np.inf)
    work = np.empty_like(dist)
    for _ in range(count):
        # Row c is candidate c's distances; one dot product per row, as in ``weights @ row``.
        obj = (np.minimum(d_min, dist, out=work)[:, None, :] @ weights)[:, 0]
        obj[selected] = np.inf
        selected.append(int(np.argmin(obj)))
        d_min = np.minimum(d_min, dist[selected[-1]])
        if not np.any(d_min > 0.0):
            break
    order = np.argsort(selected)
    return order[np.argmin(dist[:, np.sort(selected)], axis=1)]


def reduce_fan_to_tree(fan: ScenarioFan, branching: list[int]) -> ScenarioTree:
    """Reduce an equally weighted scenario fan to a tree.

    Stage-recursive greedy fast-forward selection: per parent bundle and
    stage, pick the requested number of representative values, assign each
    bundle member to its nearest representative, and spawn one child per
    representative with the assigned probability mass and the mass-weighted
    centroid as its error value. Identical members collapse, so degenerate
    fans yield fewer children than requested. Each branch count is read as
    an int, and a rejected one's error message opens with "branch count".
    """
    branching = [_count("branch count", b, 1) for b in branching]
    if len(branching) == 0:
        raise ValueError("branching must name at least one stage")
    if len(branching) > fan.horizon:
        raise ValueError(
            f"branching spans {len(branching)} stages but fan horizon is {fan.horizon}"
        )
    branching = branching + [1] * (fan.horizon - len(branching))
    n_leaves = math.prod(branching)
    if n_leaves > fan.n_scenarios:
        raise ValueError(
            f"branching exceeds scenario count: {n_leaves} leaves requested "
            f"from {fan.n_scenarios} scenarios"
        )

    s = fan.n_scenarios
    base_w = np.full(s, 1.0 / s)

    counts = [1]
    anc_list = [-1]
    prob_list = [1.0]
    eps_list = [np.zeros(fan.values.shape[2])]
    # Bundles at the previous stage: (node index, member indices, member weights).
    bundles: list[tuple[int, np.ndarray, np.ndarray]] = [
        (0, np.arange(s), base_w)
    ]

    for j in range(1, fan.horizon + 1):
        want = branching[j - 1]
        next_bundles: list[tuple[int, np.ndarray, np.ndarray]] = []
        for parent_node, members, weights in bundles:
            vals = fan.values[members, j - 1, :]
            rel_w = weights / weights.sum()
            assign = _fast_forward_select(vals, rel_w, min(want, members.size))
            for slot in np.unique(assign):
                mask = assign == slot
                w_slot = weights[mask]
                node = len(anc_list)
                anc_list.append(parent_node)
                prob_list.append(float(w_slot.sum()))
                eps_list.append(w_slot @ vals[mask] / w_slot.sum())
                next_bundles.append((node, members[mask], w_slot))
        bundles = next_bundles
        counts.append(len(bundles))

    return ScenarioTree(
        horizon=fan.horizon,
        n_demand=fan.n_demand,
        n_price=fan.n_price,
        nodes_per_stage=np.array(counts),
        anc=np.array(anc_list),
        prob=np.array(prob_list),
        eps=np.array(eps_list),
    )
