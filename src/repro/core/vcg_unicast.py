"""The Section III.A pricing mechanism on node-weighted graphs.

Output: the least cost path ``P(v_i, v_j, d)`` under the declared profile
``d``. Payment to an on-path relay ``v_k``:

.. math::

    p_i^k(d) = ||P_{-v_k}(v_i, v_j, d)|| - ||P(v_i, v_j, d)|| + d_k

and 0 to everyone else. This is a VCG mechanism, hence strategyproof and
individually rational (each relay is paid at least its declared cost).

``method="naive"`` runs one Dijkstra per on-path relay — the
O(n^2 log n + nm) baseline the paper mentions; ``method="fast"``
delegates to Algorithm 1 (:mod:`repro.core.fast_payment`), the paper's
O(n log n + m) contribution. Both read the LCP from ``SPT(target)``
and report ``||P||`` and every ``||P_{-v_k}||`` as the canonical sum
(:func:`~repro.core.mechanism.canonical_cost`) over the path that
achieves it, so they produce identical answers bit for bit (this is
property-tested).
"""

from __future__ import annotations

import numpy as np

from repro.core.mechanism import (
    MechanismSpec,
    UnicastPayment,
    canonical_cost,
    resolve_backend,
    resolve_monopoly_policy,
    spt_backend_for,
)
from repro.errors import DisconnectedError, MonopolyError
from repro.graph.dijkstra import node_weighted_spt
from repro.graph.node_graph import NodeWeightedGraph
from repro.obs.metrics import REGISTRY as _metrics
from repro.utils.validation import check_node_index

__all__ = ["vcg_unicast_payments", "vcg_payment_to_node", "VCG_UNICAST"]


def vcg_unicast_payments(
    g: NodeWeightedGraph,
    source: int,
    target: int,
    method: str = "fast",
    backend: str = "auto",
    on_monopoly: str = "raise",
) -> UnicastPayment:
    """Full VCG outcome for one unicast request.

    Parameters
    ----------
    g:
        The communication graph carrying the *declared* cost profile
        (use :meth:`NodeWeightedGraph.with_declaration` to model lies).
    source, target:
        Endpoints; the paper's access point scenario is ``target = 0``.
    method:
        ``"fast"`` (Algorithm 1) or ``"naive"`` (per-relay Dijkstra).
        (The pre-facade spelling ``algorithm=`` finished its
        deprecation cycle and is no longer accepted.)
    on_monopoly:
        What to do when some relay's removal disconnects the endpoints
        (excluded by the paper's biconnectivity assumption):
        ``"raise"`` raises :class:`~repro.errors.MonopolyError`,
        ``"inf"`` records an infinite payment.
    """
    source = check_node_index(source, g.n)
    target = check_node_index(target, g.n)
    if method not in ("fast", "naive"):
        from repro.errors import InvalidRequestError

        raise InvalidRequestError(
            f"method must be 'fast' or 'naive', got {method!r}"
        )
    resolve_backend(backend)
    resolve_monopoly_policy(on_monopoly)
    if source == target:
        return UnicastPayment(source, target, (), 0.0, {})

    if method == "fast":
        from repro.core.fast_payment import fast_vcg_payments

        fast = fast_vcg_payments(
            g, source, target, on_monopoly=on_monopoly, backend=backend
        )
        return fast.to_unicast_payment()

    # The Dijkstra layer knows no "numpy" backend; map it exactly as the
    # Algorithm-1 entry point does so every backend name works here too.
    backend = spt_backend_for(backend)
    path = _lcp(g, source, target, backend)
    lcp_cost = canonical_cost(g.costs, path[1:-1])
    payments: dict[int, float] = {}
    for k in path[1:-1]:
        # Each relay costs one avoiding-path Dijkstra — the O(n) rebuild
        # Algorithm 1 exists to avoid; the counter is what benchmark
        # write-ups cite when comparing the two methods.
        detour = _removal_cost(g, source, target, k)
        if not np.isfinite(detour):
            if on_monopoly == "raise":
                raise MonopolyError(source, target, k)
            payments[k] = float("inf")
            continue
        payments[k] = detour - lcp_cost + float(g.costs[k])
    return UnicastPayment(source, target, tuple(path), lcp_cost, payments)


def _lcp(g: NodeWeightedGraph, source: int, target: int, backend: str) -> list[int]:
    """The LCP ``source, ..., target``, read from ``SPT(target)`` as every
    node-model method reads it."""
    spt = node_weighted_spt(g, target, backend=backend)
    if not spt.reachable(source):
        raise DisconnectedError(source, target)
    return spt.path_to_root(source)


def _removal_cost(g: NodeWeightedGraph, source: int, target: int, k: int) -> float:
    """``||P_{-v_k}||``: the canonical sum over the path of the removal
    tree (``SPT(target)`` without ``k``), ``inf`` when ``k`` is a
    monopoly."""
    if _metrics.enabled:
        _metrics.add("vcg_unicast.avoiding_recomputations", 1)
    spt = node_weighted_spt(g, target, forbidden=[k])
    if not spt.reachable(source):
        return float("inf")
    return canonical_cost(g.costs, spt.path_to_root(source)[1:-1])


def vcg_payment_to_node(
    g: NodeWeightedGraph,
    source: int,
    target: int,
    node: int,
    backend: str = "auto",
) -> float:
    """Payment to a single node without computing the rest.

    Returns 0 when ``node`` is off the least cost path (by the definition
    in III.A), else ``||P_{-v_k}|| - ||P|| + d_k``, with the same path
    and canonical sums as ``method="naive"``. Raises
    :class:`MonopolyError` when the node is a monopoly.
    """
    node = check_node_index(node, g.n)
    path = _lcp(g, source, target, spt_backend_for(backend))
    if node not in path[1:-1]:
        return 0.0
    detour = _removal_cost(g, source, target, node)
    if not np.isfinite(detour):
        raise MonopolyError(source, target, node)
    return detour - canonical_cost(g.costs, path[1:-1]) + float(g.costs[node])


#: Pluggable spec for the truthfulness harness and baseline comparisons.
VCG_UNICAST = MechanismSpec(
    name="vcg-unicast",
    compute=vcg_unicast_payments,
    properties=("strategyproof", "individually-rational", "lcp-output"),
)
