"""JSON document contracts.

Five core documents drive the controller: ``network.json``,
``scenarioTree.json``, ``forecaster.json``, ``controllerconfig.json`` and
``controlOutput.json``. The simulator adds ``state.json``,
``realizations.json``, ``fan.json``, ``simlog.json`` and ``kpi.json``.
Every document carries ``"schemaVersion": 1``, which
:func:`load_document` checks and :func:`save_document` writes. Numbers are
serialized as JSON doubles with shortest round-trip formatting; NaN and
infinities are rejected in both directions, so load -> save -> load is
value-identical.

Documents are UTF-8 JSON, and each failure to parse or check one is a
:class:`SchemaError` at a JSON pointer. :func:`_checked` holds the rule of
each value kind, wherever in a document the value sits: a number is an int
or float, not a bool, of magnitude at most ``sys.float_info.max``; an
integer is an int, not a bool, in ``[-2**63, 2**63)``, and non-negative
where it counts; a string is a str.

``scenarioTree.json`` carries the tree's prediction errors
(``errorValues``) and never node values: a node's demand and price are
always the ``forecaster.json`` forecast for its stage plus its error. Its
nodes are numbered breadth-first, and a stage's ``ancestor`` entries never
decrease: siblings are consecutive and follow their parents' order.
``realizations.json`` carries, beside the realized series, the forecast
made at every closed-loop step (``forecastDemand``/``forecastPrice``).
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .forecast import ForecastSeries
from .network import NetworkModel
from .problem import CostWeights
from .simulate import SimulationLog
from .solver import SolverConfig, SolverResult
from .tree import ScenarioFan, ScenarioTree

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Malformed or inconsistent document; message carries a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def _reject_constant(name: str):
    raise SchemaError("/", f"non-finite number {name!r} is not permitted")


def load_document(path: str | Path) -> dict:
    """Parse a UTF-8 JSON document and check its schema version; a parse
    error reports the byte offset where the decoder reports one."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except SchemaError:
        raise
    except json.JSONDecodeError as exc:
        offset = len(exc.doc[:exc.pos].encode())  # exc.pos counts characters
        raise SchemaError("/", f"parse error at byte {offset}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # not UTF-8, nested too deep, or an integer literal of too many digits
        raise SchemaError("/", f"parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("/", "top-level value must be an object")
    version = _integer(doc, "schemaVersion")
    if version != SCHEMA_VERSION:
        raise SchemaError("/schemaVersion", f"unsupported schema version {version}")
    return doc


def save_document(doc: dict, path: str | Path) -> None:
    """Write ``doc`` after its schema version. It is encoded before the file
    is opened, so a value that cannot be encoded leaves no file behind."""
    text = json.dumps({"schemaVersion": SCHEMA_VERSION, **doc}, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def _get(doc: dict, key: str) -> Any:
    if key not in doc:
        raise SchemaError(f"/{key}", "missing required field")
    return doc[key]


_KIND_NAMES = {float: "a number", int: "an integer", str: "a string"}


def _checked(val: Any, ptr: str, kind: type = float, counts: bool = False) -> Any:
    """``val`` as ``kind`` (float for a number, int or str), if it is a JSON
    value of that kind; an integer must also be non-negative if ``counts``."""
    if isinstance(val, bool) or not isinstance(val, (int, float) if kind is float else kind):
        raise SchemaError(ptr, f"expected {_KIND_NAMES[kind]}, got {type(val).__name__}")
    if kind is float and not abs(val) <= sys.float_info.max:  # also an int beyond float range
        raise SchemaError(ptr, "number must be finite")
    if kind is int:
        if counts and val < 0:
            raise SchemaError(ptr, f"count {val} is negative")
        if not -(2**63) <= val < 2**63:
            raise SchemaError(ptr, "integer out of range")
    return kind(val)


def _number(doc: dict, key: str) -> float:
    return _checked(_get(doc, key), f"/{key}")


def _integer(doc: dict, key: str, counts: bool = False) -> int:
    return _checked(_get(doc, key), f"/{key}", int, counts)


def _string(doc: dict, key: str) -> str:
    return _checked(_get(doc, key), f"/{key}", str)


def _array(doc: dict, key: str, *shape: int | None, empty_ok: bool = False) -> np.ndarray:
    """The array of ``len(shape)`` levels of nested lists of finite numbers
    at ``key``; ``shape`` gives each level's length, None for any. Above
    one level an empty array is rejected unless ``empty_ok``, which reads
    it as zero rows of the given widths. The error names the first item
    that is not a number, else the array as ragged or of the wrong shape."""
    val = _get(doc, key)
    ptr, ndim = f"/{key}", len(shape)
    if not isinstance(val, list):
        raise SchemaError(ptr, "expected an array")
    if not val and ndim > 1:
        if not empty_ok:
            raise SchemaError(ptr, "array must not be empty")
        arr = np.zeros((0, *(n or 0 for n in shape[1:])))
    else:
        arr = _plain_array(val, ndim)
        if arr is None:
            _raise_at_bad_item(val, ptr, ndim)
            raise SchemaError(ptr, f"expected a rectangular {ndim}-d array")
    want = tuple(got if n is None else n for got, n in zip(arr.shape, shape))
    if arr.shape != want:
        raise SchemaError(ptr, f"expected shape {want}, got {arr.shape}")
    return arr


def _list(doc: dict, key: str, n: int, kind: type, counts: bool = False) -> np.ndarray:
    """A vector of ``n`` JSON values of ``kind`` (see :func:`_checked`),
    strings as an object array; the error names the first item that is not
    one, else the vector's length."""
    val = _get(doc, key)
    if not isinstance(val, list):
        raise SchemaError(f"/{key}", "expected an array")
    items = [_checked(item, f"/{key}/{i}", kind, counts) for i, item in enumerate(val)]
    if len(items) != n:
        raise SchemaError(f"/{key}", f"expected {n} entries, got {len(items)}")
    return np.array(items, int if kind is int else object)


def _plain_array(val: list, ndim: int) -> np.ndarray | None:
    """The array of ``ndim`` levels of nested equal-length lists of finite
    floats and ints, or None when anything else is found. One exact-type
    scan per level and one vectorized finiteness test, in place of a check
    per item."""
    items = val
    for _ in range(ndim - 1):
        rows = list(items)
        if set(map(type, rows)) != {list} or len(set(map(len, rows))) != 1:
            return None
        items = chain.from_iterable(rows)
    if not set(map(type, items)) <= {float, int}:
        return None
    try:
        arr = np.array(val, float)
    except OverflowError:  # an integer beyond the float range
        return None
    return arr if np.isfinite(arr).all() else None


def _raise_at_bad_item(val: list, ptr: str, ndim: int) -> None:
    """Raise at the first item of ``ndim`` nested lists that is not a list
    (above the last level) or not a finite number (at it)."""
    for i, item in enumerate(val):
        at = f"{ptr}/{i}"
        if ndim == 1:
            _checked(item, at)
        elif not isinstance(item, list):
            raise SchemaError(at, "expected an array")
        else:
            _raise_at_bad_item(item, at, ndim - 1)


# -- network.json -----------------------------------------------------------

def load_network(path: str | Path) -> NetworkModel:
    doc = load_document(path)
    A = _array(doc, "A", None, None)
    nt = A.shape[0]
    if A.shape[1] != nt:
        raise SchemaError("/A", f"must be square, got {A.shape}")
    B = _array(doc, "B", nt, None)
    nu = B.shape[1]
    Gd = _array(doc, "Gd", nt, None)
    nd = Gd.shape[1]
    E = _array(doc, "E", None, nu, empty_ok=True)
    Ed = _array(doc, "Ed", E.shape[0], nd, empty_ok=True)
    fields = dict(
        A=A,
        B=B,
        Gd=Gd,
        E=E,
        Ed=Ed,
        x_min=_array(doc, "xmin", nt),
        x_max=_array(doc, "xmax", nt),
        x_safe=_array(doc, "xsafe", nt),
        u_min=_array(doc, "umin", nu),
        u_max=_array(doc, "umax", nu),
        alpha0=_array(doc, "alpha0", nu),
        dt=_number(doc, "dt"),
    )
    try:  # after every read: a SchemaError is a ValueError too
        return NetworkModel(**fields)
    except ValueError as exc:
        raise SchemaError("/", str(exc)) from exc


def save_network(model: NetworkModel, path: str | Path) -> None:
    doc = {
        "dt": model.dt,
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "Gd": model.Gd.tolist(),
        "E": model.E.tolist(),
        "Ed": model.Ed.tolist(),
        "xmin": model.x_min.tolist(),
        "xmax": model.x_max.tolist(),
        "xsafe": model.x_safe.tolist(),
        "umin": model.u_min.tolist(),
        "umax": model.u_max.tolist(),
        "alpha0": model.alpha0.tolist(),
    }
    save_document(doc, path)


# -- scenarioTree.json -------------------------------------------------------

def load_tree(path: str | Path) -> ScenarioTree:
    doc = load_document(path)
    horizon = _integer(doc, "horizon")
    nd = _integer(doc, "nDemands")
    nu = _integer(doc, "nPrices")
    per_stage = _list(doc, "nodesPerStage", horizon + 1, int, counts=True)
    n_nodes = int(per_stage.sum())
    anc = _list(doc, "ancestor", n_nodes, int)
    prob = _array(doc, "probability", n_nodes)
    eps = _array(doc, "errorValues", n_nodes, nd + nu)
    for key in ("demandValues", "priceValues"):
        if doc.get(key) is not None:
            raise SchemaError(
                f"/{key}", "node values are not read; they are the forecast plus errorValues"
            )
    try:
        return ScenarioTree(horizon=horizon, n_demand=nd, n_price=nu,
                            nodes_per_stage=per_stage, anc=anc, prob=prob, eps=eps)
    except ValueError as exc:
        raise SchemaError("/", f"invalid scenario tree: {exc}") from exc


def save_tree(tree: ScenarioTree, path: str | Path) -> None:
    doc = {
        "horizon": tree.horizon,
        "nDemands": tree.n_demand,
        "nPrices": tree.n_price,
        "nodesPerStage": [int(c) for c in tree.nodes_per_stage],
        "ancestor": [int(a) for a in tree.anc],
        "probability": tree.prob.tolist(),
        "errorValues": tree.eps.tolist(),
    }
    save_document(doc, path)


# -- forecaster.json ---------------------------------------------------------

def load_forecast(path: str | Path) -> ForecastSeries:
    doc = load_document(path)
    horizon = _integer(doc, "horizon")
    d_hat = _array(doc, "dHat", horizon, None)
    alpha_hat = _array(doc, "alphaHat", horizon, None)
    try:
        return ForecastSeries(d_hat=d_hat, alpha_hat=alpha_hat)
    except ValueError as exc:
        key = "alphaHat" if "alphaHat" in str(exc) else "dHat"
        raise SchemaError(f"/{key}", str(exc)) from exc


def save_forecast(series: ForecastSeries, path: str | Path) -> None:
    save_document(
        {
            "horizon": series.horizon,
            "dHat": series.d_hat.tolist(),
            "alphaHat": series.alpha_hat.tolist(),
        },
        path,
    )


# -- controllerconfig.json ---------------------------------------------------

# Document key of each CostWeights and SolverConfig field.
_CONFIG_KEYS = {
    "w_alpha": "Walpha", "w_u": "Wu", "w_s": "Ws", "w_x": "Wx",
    "max_iter": "maxIter", "tol": "tol",
}


def _config_error(exc: ValueError) -> SchemaError:
    """The error at the key of the field that a config check names first."""
    message = str(exc)
    return SchemaError(f"/{_CONFIG_KEYS[message.split(' ', 1)[0]]}", message)


def load_controller_config(path: str | Path) -> tuple[int, CostWeights, SolverConfig]:
    doc = load_document(path)
    horizon = _integer(doc, "horizon")
    wu = _array(doc, "Wu", None, None) if isinstance(_get(doc, "Wu"), list) else _number(doc, "Wu")
    w_alpha, w_s, w_x = (_number(doc, key) for key in ("Walpha", "Ws", "Wx"))
    max_iter, tol = _integer(doc, "maxIter"), _number(doc, "tol")
    if doc.get("gamma") is not None:
        raise SchemaError(
            "/gamma", "a fixed dual step is not supported; per-node steps are computed"
        )
    try:
        weights = CostWeights(w_alpha=w_alpha, w_u=wu, w_s=w_s, w_x=w_x)
        solver = SolverConfig(max_iter=max_iter, tol=tol)
    except ValueError as exc:
        raise _config_error(exc) from exc
    return horizon, weights, solver


def save_controller_config(
    horizon: int,
    weights: CostWeights,
    solver: SolverConfig,
    path: str | Path,
) -> None:
    wu = weights.w_u
    doc = {
        "horizon": horizon,
        "Walpha": weights.w_alpha,
        "Wu": float(wu) if np.ndim(wu) == 0 else np.asarray(wu).tolist(),
        "Ws": weights.w_s,
        "Wx": weights.w_x,
        "maxIter": solver.max_iter,
        "tol": solver.tol,
    }
    save_document(doc, path)


# -- controlOutput.json ------------------------------------------------------

def load_control_output(path: str | Path) -> dict:
    doc = load_document(path)
    return {
        "u0": _array(doc, "u0", None),
        "iterations": _integer(doc, "iterations", counts=True),
        "terminationReason": _string(doc, "terminationReason"),
        "solveTimeMs": _number(doc, "solveTimeMs"),
    }


def save_control_output(result: SolverResult, path: str | Path) -> None:
    save_document(
        {
            "u0": result.u0.tolist(),
            "iterations": result.iterations,
            "terminationReason": result.termination,
            "solveTimeMs": result.solve_time_s * 1e3,
        },
        path,
    )


# -- state.json ---------------------------------------------------------------

def load_state(path: str | Path) -> tuple[np.ndarray, np.ndarray, int]:
    doc = load_document(path)
    k = _integer(doc, "k", counts=True)
    return _array(doc, "x", None), _array(doc, "uPrev", None), k


def save_state(x: np.ndarray, u_prev: np.ndarray, k: int, path: str | Path) -> None:
    save_document(
        {
            "x": np.asarray(x, float).tolist(),
            "uPrev": np.asarray(u_prev, float).tolist(),
            "k": int(k),
        },
        path,
    )


# -- realizations.json ---------------------------------------------------------

def load_realizations(path: str | Path) -> dict:
    """Realized trajectories and the forecasts made along the run.

    ``demand`` and ``price`` hold one realized row per step.
    ``forecastDemand`` and ``forecastPrice`` hold the full forecast made
    at each step (steps x horizon x series), with the series of ``demand``
    and ``price``; the closed loop's forecaster reads row k at step k.
    """
    doc = load_document(path)
    demand = _array(doc, "demand", None, None)
    price = _array(doc, "price", demand.shape[0], None)
    forecast_demand = _array(doc, "forecastDemand", None, None, demand.shape[1])
    negative = np.flatnonzero((forecast_demand < 0).any(axis=(1, 2)))
    if negative.size:  # ForecastSeries' rule, checked before the first step runs
        raise SchemaError(
            "/forecastDemand", f"step {negative[0]}: demand forecast must be nonnegative"
        )
    return {
        "demand": demand,
        "price": price,
        "forecastDemand": forecast_demand,
        "forecastPrice": _array(doc, "forecastPrice", *forecast_demand.shape[:2], price.shape[1]),
    }


def save_realizations(
    demand: np.ndarray,
    price: np.ndarray,
    forecast_demand: np.ndarray,
    forecast_price: np.ndarray,
    path: str | Path,
) -> None:
    save_document(
        {
            "demand": np.asarray(demand, float).tolist(),
            "price": np.asarray(price, float).tolist(),
            "forecastDemand": np.asarray(forecast_demand, float).tolist(),
            "forecastPrice": np.asarray(forecast_price, float).tolist(),
        },
        path,
    )


# -- fan.json -------------------------------------------------------------------

def load_fan(path: str | Path) -> ScenarioFan:
    doc = load_document(path)
    horizon = _integer(doc, "horizon")
    nd = _integer(doc, "nDemands")
    nu = _integer(doc, "nPrices")
    values = _array(doc, "scenarios", None, horizon, nd + nu)
    try:
        return ScenarioFan(values=values, n_demand=nd, n_price=nu)
    except ValueError as exc:
        raise SchemaError("/", f"invalid scenario fan: {exc}") from exc


def save_fan(fan: ScenarioFan, path: str | Path) -> None:
    save_document(
        {
            "horizon": fan.horizon,
            "nDemands": fan.n_demand,
            "nPrices": fan.n_price,
            "scenarios": fan.values.tolist(),
        },
        path,
    )


# -- simlog.json / kpi.json ------------------------------------------------------

def save_simlog(log: SimulationLog, path: str | Path) -> None:
    save_document(
        {
            "x": log.x.tolist(),
            "u": log.u.tolist(),
            "demand": log.demand.tolist(),
            "price": log.price.tolist(),
            "solveTimeS": log.solve_time_s.tolist(),
            "iterations": [int(i) for i in log.iterations],
            "couplingResidual": log.coupling_residual.tolist(),
            "termination": [str(t) for t in log.termination],
            "alpha0": log.alpha0.tolist(),
            "xsafe": log.x_safe.tolist(),
        },
        path,
    )


def load_simlog(path: str | Path) -> SimulationLog:
    """The log of a closed-loop run; ``u`` sets the step count and the
    input width, ``x`` the tank count, and every other array must agree."""
    doc = load_document(path)
    u = _array(doc, "u", None, None)
    h, n_inputs = u.shape
    x = _array(doc, "x", h + 1, None)
    return SimulationLog(
        x=x,
        u=u,
        demand=_array(doc, "demand", h, None),
        price=_array(doc, "price", h, n_inputs),
        solve_time_s=_array(doc, "solveTimeS", h),
        iterations=_list(doc, "iterations", h, int, counts=True),
        alpha0=_array(doc, "alpha0", n_inputs),
        x_safe=_array(doc, "xsafe", x.shape[1]),
        coupling_residual=_array(doc, "couplingResidual", h),
        termination=_list(doc, "termination", h, str),
    )


def save_kpi(kpi_e: float, kpi_s: float, kpi_tau: float, path: str | Path) -> None:
    save_document(
        {
            "kpiE": float(kpi_e),
            "kpiS": float(kpi_s),
            "kpiTauSeconds": float(kpi_tau),
        },
        path,
    )


def load_kpi(path: str | Path) -> dict:
    doc = load_document(path)
    return {
        "kpiE": _number(doc, "kpiE"),
        "kpiS": _number(doc, "kpiS"),
        "kpiTauSeconds": _number(doc, "kpiTauSeconds"),
    }


# -- cross-document validation ----------------------------------------------------

def cross_validate(
    model: NetworkModel | None = None,
    tree: ScenarioTree | None = None,
    forecast: ForecastSeries | None = None,
    horizon: int | None = None,
    weights: CostWeights | None = None,
    state: tuple[np.ndarray, np.ndarray, int] | None = None,
) -> list[str]:
    """Dimension checks across loaded documents; returns diagnostics."""
    out: list[str] = []
    if model is not None and tree is not None:
        if tree.n_demand != model.n_demands:
            out.append(
                f"tree carries {tree.n_demand} demand components but the network "
                f"has {model.n_demands} demand sectors"
            )
        if tree.n_price != model.n_inputs:
            out.append(
                f"tree carries {tree.n_price} price components but the network "
                f"has {model.n_inputs} controlled flows"
            )
    if model is not None and forecast is not None:
        if forecast.n_demand != model.n_demands:
            out.append(
                f"forecast has {forecast.n_demand} demand series but the network "
                f"has {model.n_demands} demand sectors"
            )
        if forecast.n_price != model.n_inputs:
            out.append(
                f"forecast has {forecast.n_price} price series but the network "
                f"has {model.n_inputs} controlled flows"
            )
    if tree is not None and forecast is not None and forecast.horizon != tree.horizon:
        out.append(
            f"forecast horizon {forecast.horizon} does not match tree horizon "
            f"{tree.horizon}"
        )
    if horizon is not None and tree is not None and horizon != tree.horizon:
        out.append(
            f"controller horizon {horizon} does not match tree horizon {tree.horizon}"
        )
    if weights is not None and model is not None:
        try:
            weights.u_weight(model.n_inputs)
        except ValueError as exc:
            out.append(str(exc))
    if state is not None and model is not None:
        x, u_prev, _ = state
        if x.shape != (model.n_tanks,):
            out.append(
                f"state x has {x.shape[0]} entries but the network has "
                f"{model.n_tanks} tanks"
            )
        if u_prev.shape != (model.n_inputs,):
            out.append(
                f"state uPrev has {u_prev.shape[0]} entries but the network has "
                f"{model.n_inputs} controlled flows"
            )
    return out
