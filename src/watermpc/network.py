"""Flow-based water network model.

Tanks integrate controlled flows and consumer demand; mixing nodes impose
storage-free flow conservation. With tank volumes x (m^3), controlled flow
set-points u and demand-sector flows d, both in m^3 per time unit of dt
(the demos use m^3/h with dt = 1 h), the discrete-time model over a
sampling interval dt is

    x[k+1] = A x[k] + B u[k] + Gd d[k]
    0      = E u[k] + Ed d[k]

All flows are unidirectional, so u_min = 0 and u_max is the pumping or
valve capacity. Instances are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np


class TopologyError(ValueError):
    """Raised when a network topology is internally inconsistent."""


def _shown(value: object) -> str:
    try:
        return repr(value)
    except ValueError:  # an int of more digits than sys.get_int_max_str_digits()
        return "an integer too long to print"


def _count(name: str, value: object, low: int) -> int:
    """``value`` as an int if it is an integer, numpy's too but not a bool,
    of at least ``low``; else a ValueError that opens with ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer of at least {low}, got {_shown(value)}")
    return int(value)


def _number(name: str, value: object, positive: bool = True) -> float:
    """``value`` as a float if it is a finite real number, numpy's too but
    not a bool, above 0, or at least 0 unless ``positive``; else a
    ValueError that opens with ``name``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan  # compared as a float: no numpy overflow
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not (0 < number < math.inf if positive else 0 <= number < math.inf):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {sign} and finite, got {_shown(value)}")
    return number


@dataclass(frozen=True)
class Tank:
    """Storage tank with volume bounds and a soft safety level (m^3).

    ``inflows``/``outflows`` are indices of controlled flows filling or
    draining the tank; ``demands`` are indices of demand sectors drawing
    directly from it.
    """

    v_min: float
    v_max: float
    v_safe: float
    inflows: tuple[int, ...] = ()
    outflows: tuple[int, ...] = ()
    demands: tuple[int, ...] = ()


@dataclass(frozen=True)
class ControlledFlow:
    """Pump or valve with capacity q_max (m^3 per time unit of dt) and production
    price alpha0."""

    kind: str
    q_max: float
    alpha0: float = 0.0


@dataclass(frozen=True)
class MixingNode:
    """Storage-free junction; net inflow must equal net outflow."""

    inflows: tuple[int, ...] = ()
    outflows: tuple[int, ...] = ()
    demands: tuple[int, ...] = ()


@dataclass(frozen=True)
class NetworkTopology:
    """Element-level description of a flow-based network."""

    tanks: tuple[Tank, ...]
    flows: tuple[ControlledFlow, ...]
    n_demands: int
    mixing_nodes: tuple[MixingNode, ...] = ()


class MixingRows(NamedTuple):
    """The rows of E as (rows, width) arrays, width that of the widest row:
    each row's input columns and their coefficients, a row shorter than the
    width padded with coefficient 0, and what the exact input restoration
    reads of them."""

    cols: np.ndarray     # each row's input columns, then padding
    coef: np.ndarray     # their coefficients in E, 0 on the padding
    on_row: np.ndarray   # coef != 0
    divisor: np.ndarray  # coef, 1 on the padding
    coef2: np.ndarray    # coef * coef
    kinks: np.ndarray    # [coef2, -coef2]
    norm2: np.ndarray    # each row's squared norm, 1 on an empty row
    widths: tuple[int, ...]  # each row's count of inputs


@dataclass
class NetworkModel:
    """Discrete-time LTI network model with box bounds and prices.

    Matrices follow the mass-balance structure produced by
    :func:`build_lti`: A is the identity for pure storage tanks, B columns
    hold +dt/-dt entries for flows entering/leaving a tank, Gd holds -dt
    entries for tank-attached demands, and E/Ed encode the mixing-node
    conservation rows with +1/-1 coefficients. Generality beyond that
    structure (for example a non-identity A) is accepted when loading a
    model from file, with one rule: each flow appears in at most one row of
    E, so no flow runs from one mixing node to another. The exact input
    restoration of the gap certificate relies on it. Array fields take any
    array-like and are stored as float arrays, and ``dt`` as a float. A
    rejected field's error message opens with its name.
    """

    A: np.ndarray
    B: np.ndarray
    Gd: np.ndarray
    E: np.ndarray
    Ed: np.ndarray
    x_min: np.ndarray
    x_max: np.ndarray
    x_safe: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    alpha0: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name != "dt":
                try:
                    setattr(self, f.name, np.asarray(getattr(self, f.name), float))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{f.name} must be an array of numbers: {exc}") from None
        self.validate()

    @property
    def n_tanks(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_demands(self) -> int:
        return self.Gd.shape[1]

    @property
    def n_mixing(self) -> int:
        return self.E.shape[0]

    @cached_property
    def mixing_rows(self) -> MixingRows:
        """The rows of E in padded form (see :class:`MixingRows`). Derived
        from E once per model and read-only, so every instance of the model
        shares them; nothing writes to E after construction."""
        on_row = self.E != 0
        width = on_row.sum(axis=1).max(initial=0)
        cols = np.argsort(~on_row, axis=1, kind="stable")[:, :width]
        coef = np.take_along_axis(self.E, cols, axis=1)
        on_row = coef != 0
        coef2 = coef * coef
        widths = on_row.sum(axis=1)
        rows = MixingRows(cols, coef, on_row, np.where(on_row, coef, 1.0), coef2,
                          np.hstack([coef2, -coef2]), np.where(widths > 0, coef2.sum(axis=1), 1.0),
                          tuple(widths.tolist()))
        for array in rows[:-1]:
            array.flags.writeable = False
        return rows

    def validate(self) -> None:
        """Check shapes, finiteness, ``dt``, the row rule and bound order;
        raise ValueError. Runs on construction, and stores ``dt`` as a float."""
        nt, nu, nd, ns = self.n_tanks, self.n_inputs, self.n_demands, self.n_mixing
        if self.A.shape != (nt, nt):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.shape != (nt, nu):
            raise ValueError(f"B shape {self.B.shape} inconsistent with {nt} tanks")
        if self.Gd.shape != (nt, nd):
            raise ValueError(f"Gd shape {self.Gd.shape} inconsistent with {nt} tanks")
        if self.E.shape != (ns, nu) or self.Ed.shape != (ns, nd):
            raise ValueError(
                f"coupling shapes E{self.E.shape}, Ed{self.Ed.shape} inconsistent"
            )
        for name, vec, n in (
            ("x_min", self.x_min, nt),
            ("x_max", self.x_max, nt),
            ("x_safe", self.x_safe, nt),
            ("u_min", self.u_min, nu),
            ("u_max", self.u_max, nu),
            ("alpha0", self.alpha0, nu),
        ):
            if vec.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {vec.shape}")
            if np.isnan(vec).any():
                raise ValueError(f"{name} must not be NaN")
        # Box bounds may be infinite; x_safe may not, as -inf * 0 is NaN in g*.
        for name in ("A", "B", "Gd", "E", "Ed", "x_safe", "alpha0"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        self.dt = _number("dt", self.dt)
        shared = np.flatnonzero(np.count_nonzero(self.E, axis=0) > 1)
        if shared.size:
            raise ValueError(f"flow {shared[0]} appears in more than one mixing row of E; "
                             "no flow may run from one mixing node to another")
        if np.any(self.x_min > self.x_safe) or np.any(self.x_safe > self.x_max):
            raise ValueError("require x_min <= x_safe <= x_max")
        if np.any(self.u_min > self.u_max):
            raise ValueError("u_min must not exceed u_max")

    def step_dynamics(self, x: np.ndarray, u: np.ndarray, d: np.ndarray) -> np.ndarray:
        """One exact step A x + B u + Gd d, without any clamping."""
        x, u, d = np.asarray(x, float), np.asarray(u, float), np.asarray(d, float)
        if x.shape != (self.n_tanks,):
            raise ValueError(f"state must have shape ({self.n_tanks},), got {x.shape}")
        if u.shape != (self.n_inputs,):
            raise ValueError(f"input must have shape ({self.n_inputs},), got {u.shape}")
        if d.shape != (self.n_demands,):
            raise ValueError(f"demand must have shape ({self.n_demands},), got {d.shape}")
        return self.A @ x + self.B @ u + self.Gd @ d

    def coupling_residual(self, u: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Mixing-node residual E u + Ed d; zero iff mass balance holds."""
        u, d = np.asarray(u, float), np.asarray(d, float)
        if u.shape != (self.n_inputs,):
            raise ValueError(f"input must have shape ({self.n_inputs},), got {u.shape}")
        if d.shape != (self.n_demands,):
            raise ValueError(f"demand must have shape ({self.n_demands},), got {d.shape}")
        return self.E @ u + self.Ed @ d


def build_lti(topology: NetworkTopology, dt: float) -> NetworkModel:
    """Assemble the discrete-time model from an element-level topology.

    Tanks are pure integrators, so exact discretization gives A = I and
    forward flow sums scaled by dt. A flow may connect two tanks directly,
    producing one +dt and one -dt entry in the same B column. Each
    incidence index is range-checked as it is placed, and every controlled
    flow must be placed at least once.
    """
    dt = _number("dt", dt)
    tanks, flows, nd = topology.tanks, topology.flows, topology.n_demands
    nt, nu, ns = len(tanks), len(flows), len(topology.mixing_nodes)
    if nt < 1 or nu < 1 or nd < 1:
        raise TopologyError("need at least one tank, one controlled flow and one demand")
    for i, flow in enumerate(flows):
        if not flow.q_max > 0:
            raise TopologyError(f"flow {i}: q_max must be positive")
        if flow.kind not in ("pump", "valve"):
            raise TopologyError(f"flow {i}: kind must be 'pump' or 'valve'")
        if not np.isfinite(flow.alpha0):
            raise TopologyError(f"flow {i}: alpha0 must be finite")

    B, Gd = np.zeros((nt, nu)), np.zeros((nt, nd))
    E, Ed = np.zeros((ns, nu)), np.zeros((ns, nd))
    placed = np.zeros(nu, bool)

    def place(flow_row, demand_row, element, scale, name):
        """Add the element's incidence, times ``scale``, into its rows."""
        overlap = sorted(set(element.inflows) & set(element.outflows))
        if overlap:
            raise TopologyError(f"{name}: flow {overlap[0]} is both inflow and outflow")
        for sign, indices in ((scale, element.inflows), (-scale, element.outflows)):
            for i in indices:
                if not 0 <= i < nu:
                    raise TopologyError(f"controlled flow index {i} out of range [0, {nu})")
                flow_row[i] += sign
                placed[i] = True
        for i in element.demands:
            if not 0 <= i < nd:
                raise TopologyError(f"demand index {i} out of range [0, {nd})")
            demand_row[i] -= scale

    for j, tank in enumerate(tanks):
        if not tank.v_min <= tank.v_safe <= tank.v_max:
            raise TopologyError(
                f"tank {j}: require v_min <= v_safe <= v_max, "
                f"got ({tank.v_min}, {tank.v_safe}, {tank.v_max})"
            )
        place(B[j], Gd[j], tank, dt, f"tank {j}")
    for s, node in enumerate(topology.mixing_nodes):
        if not node.inflows:
            raise TopologyError(f"mixing node {s} has no incoming flow")
        if not node.outflows and not node.demands:
            raise TopologyError(f"mixing node {s} has no outgoing flow")
        place(E[s], Ed[s], node, 1.0, f"mixing node {s}")
    if not placed.all():
        raise TopologyError(f"controlled flow {np.argmin(placed)} appears in no incidence list")
    return NetworkModel(
        A=np.eye(nt),
        B=B,
        Gd=Gd,
        E=E,
        Ed=Ed,
        x_min=np.array([t.v_min for t in tanks], float),
        x_max=np.array([t.v_max for t in tanks], float),
        x_safe=np.array([t.v_safe for t in tanks], float),
        u_min=np.zeros(nu),
        u_max=np.array([f.q_max for f in flows], float),
        alpha0=np.array([f.alpha0 for f in flows], float),
        dt=dt,
    )
