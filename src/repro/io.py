"""Serialization: save/load instances and results as plain JSON.

A reproduction is only useful if the exact instances behind a number can
be shipped around; this module provides stable, versioned JSON encodings
for the library's core objects:

* :class:`~repro.graph.node_graph.NodeWeightedGraph`
* :class:`~repro.graph.link_graph.LinkWeightedDigraph`
* :class:`~repro.wireless.deployment.Deployment`
* :class:`~repro.core.mechanism.UnicastPayment`
* :class:`~repro.core.fast_payment.FastPaymentResult`
* :class:`~repro.core.link_vcg.LinkPaymentTable`

``save_json`` / ``load_json`` wrap any of them with a format tag, so one
loader round-trips everything. Infinities are encoded as the string
``"inf"`` (JSON has no inf literal); all arrays become lists.

Every payload carries ``{"format": tag, "version": N}``. Loaders
(:func:`from_dict`, and the engine's durable store in
:mod:`repro.engine.persist`) accept only the exact ``int`` version this
build writes and raise :class:`SerializationError` on anything else
(:func:`check_version`); there is no migration chain.

Wire envelopes
--------------

The HTTP pricing service (:mod:`repro.service`) speaks the same
machinery rather than hand-rolled handler dicts. Its request/response
shapes are small frozen dataclasses defined here —
:class:`PriceRequest`, :class:`PriceManyRequest`, :class:`UpdateRequest`,
:class:`PriceResponse`, :class:`PriceManyResponse`,
:class:`UpdateResponse`, :class:`GraphResponse`, :class:`ErrorResponse`
— registered in the same encoder/decoder tables, so one
:func:`to_wire` / :func:`from_wire` pair round-trips every message.
On the wire the version key is spelled ``schema_version``
(``{"format": tag, "schema_version": N, "data": {...}}``); decoding
normalizes it and runs the same :func:`check_version`, so a request
whose ``schema_version`` is not exactly ``1`` is refused with
:class:`SerializationError` (HTTP 400) rather than priced.
"""

from __future__ import annotations

import json
import numbers
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.fast_payment import FastPaymentResult
from repro.core.link_vcg import LinkPaymentTable
from repro.core.mechanism import UnicastPayment
from repro.errors import (
    InvalidRequestError,
    ReproError,
    SerializationError,
)
from repro.graph.link_graph import LinkWeightedDigraph
from repro.graph.node_graph import NodeWeightedGraph
from repro.wireless.deployment import Deployment
from repro.wireless.energy import PowerModel

__all__ = [
    "to_dict",
    "from_dict",
    "decode_as",
    "save_json",
    "load_json",
    "check_version",
    "SerializationError",
    "to_wire",
    "from_wire",
    "PriceRequest",
    "PriceManyRequest",
    "UpdateRequest",
    "PriceResponse",
    "PriceManyResponse",
    "UpdateResponse",
    "GraphResponse",
    "ErrorResponse",
    "node_id",
    "deadline_budget",
]

FORMAT_VERSION = 1

# SerializationError itself lives in repro.errors (code
# "io.serialization") so the service's status table covers it; it is
# re-exported here because this module is its historical home.


def check_version(
    tag: str, version: Any, expected: int = FORMAT_VERSION
) -> None:
    """Raise :class:`SerializationError` unless ``version`` is the exact
    ``int`` ``expected`` (so ``"1"``, ``1.0`` and ``True`` are refused)."""
    if type(version) is not int or version != expected:
        raise SerializationError(
            f"{tag} payload has version {version!r}; this build reads "
            f"only version {expected}"
        )


def _enc_float(x: float) -> float | str:
    if np.isposinf(x):
        return "inf"
    if np.isneginf(x):  # pragma: no cover - no negative costs exist
        return "-inf"
    return float(x)


def _dec_float(x) -> float:
    if x == "inf":
        return float("inf")
    if x == "-inf":  # pragma: no cover
        return float("-inf")
    return float(x)


# ---------------------------------------------------------------------------
# per-type encoders
# ---------------------------------------------------------------------------


def _node_graph_to_dict(g: NodeWeightedGraph) -> dict:
    return {
        "n": g.n,
        "costs": [float(c) for c in g.costs],
        "edges": [[int(u), int(v)] for u, v in g.edge_iter()],
    }


def _node_graph_from_dict(d: dict) -> NodeWeightedGraph:
    return NodeWeightedGraph(
        int(d["n"]), [tuple(e) for e in d["edges"]], d["costs"]
    )


def _digraph_to_dict(dg: LinkWeightedDigraph) -> dict:
    return {
        "n": dg.n,
        "arcs": [[int(u), int(v), float(w)] for u, v, w in dg.arc_iter()],
    }


def _digraph_from_dict(d: dict) -> LinkWeightedDigraph:
    return LinkWeightedDigraph(
        int(d["n"]), [(int(u), int(v), float(w)) for u, v, w in d["arcs"]]
    )


def _deployment_to_dict(dep: Deployment) -> dict:
    return {
        "kind": dep.kind,
        "points": dep.points.tolist(),
        "ranges": dep.ranges.tolist(),
        "model": {
            "alpha": np.asarray(dep.model.alpha).tolist(),
            "beta": np.asarray(dep.model.beta).tolist(),
            "kappa": float(dep.model.kappa),
        },
        "digraph": _digraph_to_dict(dep.digraph),
        "resamples": int(dep.resamples),
        "dropped": int(dep.dropped),
    }


def _deployment_from_dict(d: dict) -> Deployment:
    model_d = d["model"]
    alpha = model_d["alpha"]
    beta = model_d["beta"]
    model = PowerModel(
        alpha=np.asarray(alpha) if isinstance(alpha, list) else float(alpha),
        beta=np.asarray(beta) if isinstance(beta, list) else float(beta),
        kappa=float(model_d["kappa"]),
    )
    return Deployment(
        points=np.asarray(d["points"], dtype=np.float64),
        ranges=np.asarray(d["ranges"], dtype=np.float64),
        model=model,
        digraph=_digraph_from_dict(d["digraph"]),
        resamples=int(d["resamples"]),
        kind=str(d["kind"]),
        dropped=int(d["dropped"]),
    )


def _payment_to_dict(p: UnicastPayment) -> dict:
    return {
        "source": p.source,
        "target": p.target,
        "path": list(p.path),
        "lcp_cost": _enc_float(p.lcp_cost),
        "payments": {str(k): _enc_float(v) for k, v in p.payments.items()},
        "scheme": p.scheme,
    }


def _payment_from_dict(d: dict) -> UnicastPayment:
    return UnicastPayment(
        source=int(d["source"]),
        target=int(d["target"]),
        path=tuple(int(v) for v in d["path"]),
        lcp_cost=_dec_float(d["lcp_cost"]),
        payments={int(k): _dec_float(v) for k, v in d["payments"].items()},
        scheme=str(d.get("scheme", "vcg")),
    )


def _fast_result_to_dict(r: FastPaymentResult) -> dict:
    return {
        "source": r.source,
        "target": r.target,
        "path": list(r.path),
        "lcp_cost": _enc_float(r.lcp_cost),
        "avoiding_costs": {
            str(k): _enc_float(v) for k, v in r.avoiding_costs.items()
        },
        "payments": {str(k): _enc_float(v) for k, v in r.payments.items()},
        "levels": [int(x) for x in r.levels],
        "stats": {str(k): int(v) for k, v in r.stats.items()},
    }


def _fast_result_from_dict(d: dict) -> FastPaymentResult:
    return FastPaymentResult(
        source=int(d["source"]),
        target=int(d["target"]),
        path=tuple(int(v) for v in d["path"]),
        lcp_cost=_dec_float(d["lcp_cost"]),
        avoiding_costs={
            int(k): _dec_float(v) for k, v in d["avoiding_costs"].items()
        },
        payments={int(k): _dec_float(v) for k, v in d["payments"].items()},
        levels=np.asarray(d["levels"], dtype=np.int64),
        stats={str(k): int(v) for k, v in d["stats"].items()},
    )


def _link_table_to_dict(t: LinkPaymentTable) -> dict:
    return {
        "root": t.root,
        "dist": [_enc_float(x) for x in t.dist],
        "first_hop_cost": [_enc_float(x) for x in t.first_hop_cost],
        "payments": [
            {str(k): _enc_float(v) for k, v in row.items()} for row in t.payments
        ],
        "parent": [int(x) for x in t.parent],
    }


def _link_table_from_dict(d: dict) -> LinkPaymentTable:
    return LinkPaymentTable(
        root=int(d["root"]),
        dist=np.asarray([_dec_float(x) for x in d["dist"]], dtype=np.float64),
        first_hop_cost=np.asarray(
            [_dec_float(x) for x in d["first_hop_cost"]], dtype=np.float64
        ),
        payments=tuple(
            {int(k): _dec_float(v) for k, v in row.items()}
            for row in d["payments"]
        ),
        parent=np.asarray(d["parent"], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# service wire envelopes (requests/responses of repro.service)
# ---------------------------------------------------------------------------


def node_id(value, name: str) -> int:
    """``value`` as a request's node id, or :class:`SerializationError`.

    Any :class:`numbers.Integral` passes (NumPy ints included); a
    ``bool``, a float such as ``1.5`` or anything else is rejected
    rather than truncated to a different node.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SerializationError(
            f"{name} must be an integer node id, got {value!r}"
        )
    return int(value)


def deadline_budget(value, name: str = "deadline_s") -> float:
    """``value`` as a deadline budget in seconds: finite and positive,
    and no longer than a thread wait accepts (``threading.TIMEOUT_MAX``).

    NaN, infinity and budgets past that bound raise
    :class:`~repro.errors.InvalidRequestError` like zero and negative
    budgets do.
    """
    budget = float(value)
    if not 0 < budget <= threading.TIMEOUT_MAX:  # NaN fails too
        raise InvalidRequestError(
            f"{name} must be a finite positive number of seconds, "
            f"at most {threading.TIMEOUT_MAX:.0f}, got {value!r}"
        )
    return budget


@dataclass(frozen=True)
class PriceRequest:
    """``POST /v1/price`` body: one ``(source, target)`` query.

    ``deadline_s`` overrides the service's default per-request deadline
    (must be finite and positive when given).
    """

    source: int
    target: int
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", node_id(self.source, "source"))
        object.__setattr__(self, "target", node_id(self.target, "target"))
        if self.deadline_s is not None:
            object.__setattr__(
                self, "deadline_s", deadline_budget(self.deadline_s)
            )


@dataclass(frozen=True)
class PriceManyRequest:
    """``POST /v1/price_many`` body: a batch of ordered pairs."""

    pairs: tuple[tuple[int, int], ...]
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        pairs = tuple(
            (node_id(s, "pairs"), node_id(t, "pairs")) for s, t in self.pairs
        )
        if not pairs:
            raise InvalidRequestError("pairs must be non-empty")
        object.__setattr__(self, "pairs", pairs)
        if self.deadline_s is not None:
            object.__setattr__(
                self, "deadline_s", deadline_budget(self.deadline_s)
            )


#: The mutations ``POST /v1/update`` accepts (engine method per op).
UPDATE_OPS = ("cost", "add_node", "remove_node")


@dataclass(frozen=True)
class UpdateRequest:
    """``POST /v1/update`` body: one topology/cost mutation.

    ``op="cost"`` re-declares ``node``'s cost as ``value``;
    ``op="remove_node"`` takes ``node``; ``op="add_node"`` takes
    ``cost`` + ``neighbors``, mirroring
    :meth:`repro.engine.PricingEngine.add_node`. The service prices
    the node model only: the decoder refuses the link-model ``edge``
    and ``arcs`` fields older clients could send unless they are
    ``null``/empty (:func:`_refuse_link_fields`).
    """

    op: str
    node: int | None = None
    value: float | None = None
    cost: float = 0.0
    neighbors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.op not in UPDATE_OPS:
            raise InvalidRequestError(
                f"op must be one of {UPDATE_OPS}, got {self.op!r}"
            )
        if self.node is not None:
            object.__setattr__(self, "node", node_id(self.node, "node"))
        object.__setattr__(
            self,
            "neighbors",
            tuple(node_id(v, "neighbors") for v in self.neighbors),
        )
        if self.op == "cost":
            if self.value is None:
                raise InvalidRequestError("op='cost' requires value")
            object.__setattr__(self, "value", _dec_float(self.value))
        if self.op in ("cost", "remove_node") and self.node is None:
            raise InvalidRequestError(f"op={self.op!r} requires node")


@dataclass(frozen=True)
class PriceResponse:
    """One priced request: the payment plus the snapshot version it was
    computed at (the serial-oracle handle) and the serving request id."""

    payment: UnicastPayment
    graph_version: int
    request_id: str


@dataclass(frozen=True)
class PriceManyResponse:
    """A priced batch; every payment was computed at ``graph_version``
    (each :class:`~repro.core.mechanism.UnicastPayment` carries its own
    ``source``/``target``)."""

    payments: tuple[UnicastPayment, ...]
    graph_version: int
    request_id: str


@dataclass(frozen=True)
class UpdateResponse:
    """An applied mutation: the published version (and, for
    ``add_node``, the new node's id)."""

    graph_version: int
    request_id: str
    node: int | None = None


@dataclass(frozen=True)
class GraphResponse:
    """``GET /v1/graph``: the current snapshot and version. ``model``
    is always ``"node"``, the one cost model the service prices."""

    graph: NodeWeightedGraph
    graph_version: int
    request_id: str
    model: str = "node"


@dataclass(frozen=True)
class ErrorResponse:
    """Error envelope: the taxonomy code (:mod:`repro.errors`), the
    HTTP status it mapped to, and a human-readable message."""

    code: str
    message: str
    request_id: str
    status: int


def _price_request_to_dict(r: PriceRequest) -> dict:
    return {
        "source": r.source,
        "target": r.target,
        "deadline_s": r.deadline_s,
    }


def _price_request_from_dict(d: dict) -> PriceRequest:
    return PriceRequest(
        source=d["source"],
        target=d["target"],
        deadline_s=d.get("deadline_s"),
    )


def _price_many_request_to_dict(r: PriceManyRequest) -> dict:
    return {
        "pairs": [[s, t] for s, t in r.pairs],
        "deadline_s": r.deadline_s,
    }


def _price_many_request_from_dict(d: dict) -> PriceManyRequest:
    return PriceManyRequest(
        pairs=tuple(tuple(p) for p in d["pairs"]),
        deadline_s=d.get("deadline_s"),
    )


def _update_request_to_dict(r: UpdateRequest) -> dict:
    return {
        "op": r.op,
        "node": r.node,
        "value": None if r.value is None else _enc_float(r.value),
        "cost": float(r.cost),
        "neighbors": list(r.neighbors),
    }


def _refuse_link_fields(d: dict) -> None:
    """Refuse a link-model ``edge`` (an arc cost update) or ``arcs`` (a
    join over arcs) with :class:`InvalidRequestError`; ``"edge": null``
    and ``"arcs": []`` pass. The ids in them are checked first, so a
    non-integer id is a :class:`SerializationError` like anywhere else."""
    edge = d.get("edge")
    arcs = d.get("arcs", ())
    if edge is not None:
        u, v = edge
        node_id(u, "edge"), node_id(v, "edge")
    for u, v, _ in arcs:
        node_id(u, "arcs"), node_id(v, "arcs")
    if edge is not None or arcs:
        raise InvalidRequestError(
            "the service prices the node model only: update a node's "
            "cost with node=, join with neighbors=; edge= and arcs= "
            "address link-model arcs"
        )


def _update_request_from_dict(d: dict) -> UpdateRequest:
    _refuse_link_fields(d)
    return UpdateRequest(
        op=d["op"],
        node=d.get("node"),
        value=d.get("value"),
        cost=float(d.get("cost", 0.0)),
        neighbors=tuple(d.get("neighbors", ())),
    )


def _price_response_to_dict(r: PriceResponse) -> dict:
    return {
        "payment": _payment_to_dict(r.payment),
        "graph_version": int(r.graph_version),
        "request_id": r.request_id,
    }


def _price_response_from_dict(d: dict) -> PriceResponse:
    return PriceResponse(
        payment=_payment_from_dict(d["payment"]),
        graph_version=int(d["graph_version"]),
        request_id=str(d["request_id"]),
    )


def _price_many_response_to_dict(r: PriceManyResponse) -> dict:
    return {
        "payments": [_payment_to_dict(p) for p in r.payments],
        "graph_version": int(r.graph_version),
        "request_id": r.request_id,
    }


def _price_many_response_from_dict(d: dict) -> PriceManyResponse:
    return PriceManyResponse(
        payments=tuple(_payment_from_dict(p) for p in d["payments"]),
        graph_version=int(d["graph_version"]),
        request_id=str(d["request_id"]),
    )


def _update_response_to_dict(r: UpdateResponse) -> dict:
    return {
        "graph_version": int(r.graph_version),
        "request_id": r.request_id,
        "node": r.node,
    }


def _update_response_from_dict(d: dict) -> UpdateResponse:
    node = d.get("node")
    return UpdateResponse(
        graph_version=int(d["graph_version"]),
        request_id=str(d["request_id"]),
        node=None if node is None else int(node),
    )


def _graph_response_to_dict(r: GraphResponse) -> dict:
    # The graph rides as a nested tagged envelope, so its own format
    # version is checked inside service responses too.
    return {
        "graph": to_dict(r.graph),
        "graph_version": int(r.graph_version),
        "model": r.model,
        "request_id": r.request_id,
    }


def _graph_response_from_dict(d: dict) -> GraphResponse:
    return GraphResponse(
        graph=from_dict(d["graph"]),
        graph_version=int(d["graph_version"]),
        request_id=str(d["request_id"]),
        model=str(d["model"]),
    )


def _error_response_to_dict(r: ErrorResponse) -> dict:
    return {
        "code": r.code,
        "message": r.message,
        "request_id": r.request_id,
        "status": int(r.status),
    }


def _error_response_from_dict(d: dict) -> ErrorResponse:
    return ErrorResponse(
        code=str(d["code"]),
        message=str(d["message"]),
        request_id=str(d["request_id"]),
        status=int(d["status"]),
    )


_ENCODERS = {
    NodeWeightedGraph: ("node-graph", _node_graph_to_dict),
    LinkWeightedDigraph: ("link-digraph", _digraph_to_dict),
    Deployment: ("deployment", _deployment_to_dict),
    UnicastPayment: ("unicast-payment", _payment_to_dict),
    FastPaymentResult: ("fast-payment-result", _fast_result_to_dict),
    LinkPaymentTable: ("link-payment-table", _link_table_to_dict),
    PriceRequest: ("price-request", _price_request_to_dict),
    PriceManyRequest: ("price-many-request", _price_many_request_to_dict),
    UpdateRequest: ("update-request", _update_request_to_dict),
    PriceResponse: ("price-response", _price_response_to_dict),
    PriceManyResponse: ("price-many-response", _price_many_response_to_dict),
    UpdateResponse: ("update-response", _update_response_to_dict),
    GraphResponse: ("graph-response", _graph_response_to_dict),
    ErrorResponse: ("error-response", _error_response_to_dict),
}

_DECODERS = {
    "node-graph": _node_graph_from_dict,
    "link-digraph": _digraph_from_dict,
    "deployment": _deployment_from_dict,
    "unicast-payment": _payment_from_dict,
    "fast-payment-result": _fast_result_from_dict,
    "link-payment-table": _link_table_from_dict,
    "price-request": _price_request_from_dict,
    "price-many-request": _price_many_request_from_dict,
    "update-request": _update_request_from_dict,
    "price-response": _price_response_from_dict,
    "price-many-response": _price_many_response_from_dict,
    "update-response": _update_response_from_dict,
    "graph-response": _graph_response_from_dict,
    "error-response": _error_response_from_dict,
}


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def to_dict(obj: Any) -> dict:
    """Encode a supported object as a tagged, versioned dictionary."""
    for cls, (tag, encoder) in _ENCODERS.items():
        if isinstance(obj, cls):
            return {
                "format": tag,
                "version": FORMAT_VERSION,
                "data": encoder(obj),
            }
    raise SerializationError(
        f"cannot serialize objects of type {type(obj).__name__}"
    )


def from_dict(payload: dict) -> Any:
    """Decode a dictionary produced by :func:`to_dict`."""
    try:
        tag = payload["format"]
        version = payload["version"]
        data = payload["data"]
    except (TypeError, KeyError) as exc:
        raise SerializationError(f"malformed payload: {exc}") from exc
    check_version(tag, version)
    # A JSON list or object is unhashable: test the type before the
    # table lookup so it is refused like any other unknown tag.
    decoder = _DECODERS.get(tag) if isinstance(tag, str) else None
    if decoder is None:
        raise SerializationError(f"unknown format tag {tag!r}")
    if not isinstance(data, dict):
        raise SerializationError(
            f"{tag} data must be an object, got {type(data).__name__}"
        )
    try:
        return decoder(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ReproError):
            # Already typed (e.g. InvalidRequestError from an envelope's
            # own validation) — keep the precise code, don't relabel it
            # a serialization failure.
            raise
        raise SerializationError(f"malformed {tag} payload: {exc}") from exc


def decode_as(cls: type, payload: dict) -> Any:
    """Decode a payload and require the result to be a ``cls`` instance.

    Backs each result type's ``from_dict`` classmethod: decoding a
    payload of a *different* tagged type raises
    :class:`SerializationError` instead of silently returning a foreign
    object.
    """
    obj = from_dict(payload)
    if not isinstance(obj, cls):
        raise SerializationError(
            f"payload decodes to {type(obj).__name__}, not {cls.__name__}"
        )
    return obj


def to_wire(obj: Any) -> dict:
    """Encode a supported object as a service wire message.

    Identical to :func:`to_dict` except the version key is spelled
    ``schema_version`` — the explicit name the HTTP contract promises
    (``docs/service.md``). The envelope types above and every
    :func:`to_dict`-supported object encode alike, so a graph can ride
    the wire directly.
    """
    d = to_dict(obj)
    return {
        "format": d["format"],
        "schema_version": d["version"],
        "data": d["data"],
    }


def from_wire(payload: Any) -> Any:
    """Decode a wire message produced by :func:`to_wire`.

    Accepts ``schema_version`` (canonical on the wire) or ``version``
    (the on-disk spelling) and routes through :func:`from_dict`, so a
    wire version is checked exactly like a file's.
    """
    if not isinstance(payload, dict):
        raise SerializationError(
            f"wire payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    if "schema_version" in payload:
        payload = {
            "format": payload.get("format"),
            "version": payload["schema_version"],
            "data": payload.get("data"),
        }
    return from_dict(payload)


def save_json(obj: Any, path) -> None:
    """Serialize ``obj`` to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(to_dict(obj), indent=1))


def load_json(path) -> Any:
    """Load any object saved by :func:`save_json`."""
    path = Path(path)
    return from_dict(json.loads(path.read_text()))
