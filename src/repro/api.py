"""The uniform front door: one module, four verbs, consistent keywords.

The library grew one entry point per paper section, and their keywords
drifted (``method`` vs nothing, ``backend`` accepted here but not
there, four result shapes). This facade reunifies them. Every function
takes the same three knobs, validated by the shared helpers in
:mod:`repro.core.mechanism`:

``method=``
    Which algorithm serves the request. Node model: ``"fast"``
    (Algorithm 1, the default) or ``"naive"`` (per-relay Dijkstra
    oracle). Link model: ``"auto"`` (Algorithm 1 when link costs are
    symmetric, per-removal otherwise), ``"fast"``, ``"removal"``.
``backend=``
    Kernel selection — ``"auto"`` | ``"python"`` | ``"scipy"`` |
    ``"numpy"`` — identical across every function
    (:data:`repro.core.mechanism.BACKENDS`).
``on_monopoly=``
    ``"raise"`` or ``"inf"`` when a relay's removal disconnects the
    endpoints (:data:`repro.core.mechanism.MONOPOLY_POLICIES`).

The pre-facade entry points (``vcg_unicast_payments``,
``link_vcg_payments``, ...) remain public and unchanged — these are
thin delegates, not replacements. For stateful serving (cost updates,
caching, batched traffic) use :class:`repro.engine.PricingEngine`.

Quickstart (doctested — ``make doctest`` runs it in CI):

>>> from repro import api, generators
>>> g = generators.random_biconnected_graph(50, seed=7)
>>> result = api.price(g, source=13, target=0)
>>> result.path[0], result.path[-1]
(13, 0)
>>> all(result.payment(k) >= g.costs[k] for k in result.relays)
True
>>> report = api.check_truthful(g, source=13, target=0)
>>> report.ok
True
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.link_vcg import LinkPaymentTable
from repro.core.mechanism import (
    MechanismSpec,
    UnicastPayment,
    resolve_backend,
    resolve_monopoly_policy,
)
from repro.graph.link_graph import LinkWeightedDigraph
from repro.graph.node_graph import NodeWeightedGraph
from repro.obs import logging as obs_logging
from repro.obs.context import request_scope
from repro.obs.tracing import TRACER as _tracer

__all__ = ["price", "price_links", "price_all_pairs", "check_truthful"]

_log = obs_logging.get_logger("api")


def _require_model(graph, want: type, fn: str):
    if not isinstance(graph, want):
        raise TypeError(
            f"{fn}() expects a {want.__name__}, got {type(graph).__name__}"
        )


def price(
    graph: NodeWeightedGraph | LinkWeightedDigraph,
    source: int,
    target: int,
    method: str = "fast",
    backend: str = "auto",
    on_monopoly: str = "raise",
) -> UnicastPayment:
    """VCG outcome for one unicast request, either cost model.

    Dispatches on the graph type: a
    :class:`~repro.graph.node_graph.NodeWeightedGraph` goes through
    :func:`repro.core.vcg_unicast.vcg_unicast_payments` (Section III.A,
    ``method`` = ``"fast"``/``"naive"``); a
    :class:`~repro.graph.link_graph.LinkWeightedDigraph` delegates to
    :func:`price_links` (Section III.F; pass ``method="auto"`` — the
    node-model default ``"fast"`` is accepted there too).
    """
    if isinstance(graph, LinkWeightedDigraph):
        return price_links(
            graph,
            source,
            target,
            method=method if method != "naive" else "removal",
            backend=backend,
            on_monopoly=on_monopoly,
        )
    _require_model(graph, NodeWeightedGraph, "price")
    from repro.core.vcg_unicast import vcg_unicast_payments

    with request_scope() as rid, _tracer.span(
        "api.price", source=source, target=target, method=method
    ):
        result = vcg_unicast_payments(
            graph,
            source,
            target,
            method=method,
            backend=backend,
            on_monopoly=on_monopoly,
        )
        _log.debug(
            "request priced",
            extra={
                "request_id": rid,
                "source": source,
                "target": target,
                "method": method,
            },
        )
        return result


def price_links(
    dg: LinkWeightedDigraph,
    source: int,
    target: int,
    method: str = "auto",
    backend: str = "auto",
    on_monopoly: str = "raise",
) -> UnicastPayment:
    """VCG outcome for one request in the link-cost model (III.F).

    ``method="fast"`` runs the Algorithm-1 adaptation (requires
    symmetric link costs), ``"removal"`` the per-relay-removal oracle,
    and ``"auto"`` picks ``"fast"`` exactly when the digraph is
    symmetric. Both methods return identical payments on symmetric
    inputs (property-tested).
    """
    _require_model(dg, LinkWeightedDigraph, "price_links")
    from repro.core.fast_link_payment import (
        check_symmetric,
        fast_link_vcg_payments,
    )
    from repro.core.link_vcg import link_vcg_payments
    from repro.errors import InvalidGraphError, InvalidRequestError

    if method == "auto":
        try:
            check_symmetric(dg)
            method = "fast"
        except InvalidGraphError:
            method = "removal"
    if method not in ("fast", "removal"):
        raise InvalidRequestError(
            f"method must be 'auto', 'fast' or 'removal', got {method!r}"
        )
    with request_scope() as rid, _tracer.span(
        "api.price_links", source=source, target=target, method=method
    ):
        if method == "fast":
            result = fast_link_vcg_payments(
                dg, source, target, on_monopoly=on_monopoly, backend=backend
            )
        else:
            result = link_vcg_payments(
                dg, source, target, on_monopoly=on_monopoly, backend=backend
            )
        _log.debug(
            "request priced",
            extra={
                "request_id": rid,
                "source": source,
                "target": target,
                "method": method,
                "model": "link",
            },
        )
        return result


def price_all_pairs(
    graph: NodeWeightedGraph | LinkWeightedDigraph,
    pairs: Iterable[tuple[int, int]] | None = None,
    root: int = 0,
    backend: str = "auto",
    on_monopoly: str = "inf",
) -> Mapping[tuple[int, int], UnicastPayment] | LinkPaymentTable:
    """Batch pricing: many pairs at once, shared work across requests.

    Node model: returns ``{(source, target) -> UnicastPayment}`` in
    request order, duplicates priced once, via
    :func:`repro.core.allpairs.pairwise_vcg_payments`: the sources of a
    shared target go through the all-sources batch (``SPT(target)`` and
    one Dijkstra per tree depth), other pairs through Algorithm 1.
    ``pairs=None`` prices every node toward ``root`` (the paper's
    access-point scenario).

    Link model: returns a
    :class:`~repro.core.link_vcg.LinkPaymentTable` of every source
    toward ``root`` via one reverse Dijkstra per interior routing-tree
    node (``pairs`` does not apply and must be left at its default).

    ``on_monopoly`` defaults to ``"inf"`` here (batches report
    monopolized sources instead of dying on the first one) — the
    per-request functions default to ``"raise"``.
    """
    resolve_backend(backend)
    resolve_monopoly_policy(on_monopoly)
    with request_scope() as rid:
        if isinstance(graph, LinkWeightedDigraph):
            if pairs is not None:
                from repro.errors import InvalidRequestError

                raise InvalidRequestError(
                    "link-model batches price all sources toward `root`; "
                    "pairs= is a node-model option"
                )
            from repro.core.link_vcg import all_sources_link_payments

            with _tracer.span("api.price_all_pairs", root=root, model="link"):
                result = all_sources_link_payments(
                    graph, root, on_monopoly=on_monopoly, backend=backend
                )
            _log.debug(
                "batch priced",
                extra={"request_id": rid, "root": root, "model": "link"},
            )
            return result
        _require_model(graph, NodeWeightedGraph, "price_all_pairs")
        from repro.core.allpairs import pairwise_vcg_payments

        if pairs is None:
            pairs = [(i, root) for i in range(graph.n) if i != root]
        with _tracer.span("api.price_all_pairs"):
            result = pairwise_vcg_payments(
                graph, pairs, on_monopoly=on_monopoly, backend=backend
            )
        _log.debug(
            "batch priced",
            extra={"request_id": rid, "pairs": len(result)},
        )
        return result


def check_truthful(
    graph: NodeWeightedGraph | LinkWeightedDigraph,
    source: int,
    target: int,
    method: str = "fast",
    backend: str = "auto",
    agents: Iterable[int] | None = None,
):
    """Black-box truthfulness audit of the mechanism on one instance.

    Node model: sweeps individual rationality (every relay's utility
    non-negative at the truthful profile) and incentive compatibility
    (no unilateral misdeclaration beats truthtelling) through
    :mod:`repro.core.truthfulness`, against the mechanism configured
    with these exact ``method``/``backend`` knobs. Link model: the
    row-rescaling IC sweep of
    :func:`~repro.core.truthfulness.check_link_strategyproof`
    (``method``/``backend`` select nothing there and are validated
    only).

    Returns a :class:`~repro.core.truthfulness.DeviationReport`;
    ``report.ok`` is True when no profitable deviation was found.
    """
    resolve_backend(backend)
    from repro.core.truthfulness import (
        DeviationReport,
        check_individual_rationality,
        check_link_strategyproof,
        check_strategyproof,
    )

    if isinstance(graph, LinkWeightedDigraph):
        return check_link_strategyproof(graph, source, target, agents=agents)
    _require_model(graph, NodeWeightedGraph, "check_truthful")
    from repro.core.vcg_unicast import vcg_unicast_payments

    spec = MechanismSpec(
        name=f"vcg-unicast[{method}]",
        compute=lambda g, s, t, **kw: vcg_unicast_payments(
            g, s, t, method=method, backend=backend, **kw
        ),
        properties=("strategyproof", "individually-rational"),
    )
    ir = check_individual_rationality(spec, graph, source, target)
    ic = check_strategyproof(spec, graph, source, target, agents=agents)
    return DeviationReport(
        mechanism=f"{spec.name} [IR+IC]",
        checked=ir.checked + ic.checked,
        violations=ir.violations + ic.violations,
    )
