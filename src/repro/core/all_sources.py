"""Every source to one target at once: the Section III.C relaxation,
computed centrally.

Section III.G prices every node toward the access point. Algorithm 1
does that one pair at a time, with one source tree per pair. The
distributed stage 2 (:mod:`repro.distributed.payment_protocol`) rests on
a rule that prices them all together: removing relay ``k`` changes the
distance to the target only for the nodes whose LCP runs through ``k``,
that is ``k``'s subtree of ``SPT(target)``,

    ``d_{-k}(y) = d(y)`` for every ``y`` outside ``k``'s subtree, and
    ``d_{-k}(y) = min over neighbours z != k of (c_z + d_{-k}(z))``
    inside it.

The subtrees hanging under the nodes of one depth ``h`` of the tree are
disjoint, so one Dijkstra solves all of them: glue them into one graph
(arcs ``y -> z`` inside one subtree, weight ``c_y``), seed every node
``y`` from its neighbours ``x`` outside its subtree (other than ``k``)
with ``d(x) + c_x``, and run one
:func:`~repro.graph.dijkstra.relax_arcs` solve from those seeds. That
gives ``d_{-k}(i)`` for every relay ``k`` at
depth ``h`` and every source ``i`` below it. ``SPT(target)`` plus one
solve per depth prices every source, with no source tree at all.

The answers are those of Algorithm 1 and of the naive Section III.A
method, bit for bit. The LCP is the ``SPT(target)`` path, as in both.
``||P||`` and every ``||P_{-k}||`` are canonical sums
(:func:`~repro.core.mechanism.canonical_cost`) over the path that
achieves them: here the per-depth predecessors back to the seeded node,
its seed neighbour ``x``, then ``x``'s ``SPT(target)`` path. The
Dijkstra distances only choose that path.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.mechanism import (
    UnicastPayment,
    canonical_cost,
    resolve_monopoly_policy,
)
from repro.errors import DisconnectedError, MonopolyError, ReproError
from repro.graph.dijkstra import node_weighted_spt, relax_arcs
from repro.graph.node_graph import NodeWeightedGraph
from repro.graph.spt import ShortestPathTree
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.tracing import TRACER as _tracer
from repro.utils.validation import check_node_index

__all__ = ["price_sources"]


def price_sources(
    g: NodeWeightedGraph,
    target: int,
    sources: Iterable[int],
    on_monopoly: str = "raise",
    spt: ShortestPathTree | None = None,
) -> dict[int, UnicastPayment | ReproError]:
    """VCG payments of every source in ``sources`` toward ``target``:
    ``{source: payment}`` in ``sources`` order, duplicates priced once.

    A source that cannot be priced maps to the error Algorithm 1 would
    raise for it, instead of raising: a
    :class:`~repro.errors.DisconnectedError`, or a
    :class:`~repro.errors.MonopolyError` naming its first monopoly relay
    from the source unless ``on_monopoly="inf"``. So a caller pricing
    several targets can raise the first failure in its own request
    order. ``spt`` accepts a prebuilt ``SPT(target)`` of this graph.
    """
    target = check_node_index(target, g.n)
    resolve_monopoly_policy(on_monopoly)
    sources = [check_node_index(i, g.n) for i in sources]
    if spt is None:
        spt = node_weighted_spt(g, target)
    elif spt.root != target or spt.n != g.n:
        raise ValueError(
            f"precomputed SPT (root={spt.root}, n={spt.n}) does not "
            f"match target {target} on a {g.n}-node graph"
        )
    with _tracer.span("all_sources", n=g.n, target=target, sources=len(sources)):
        return _price_sources(g, target, sources, on_monopoly, spt)


def _price_sources(
    g: NodeWeightedGraph,
    target: int,
    sources: list[int],
    on_monopoly: str,
    spt: ShortestPathTree,
) -> dict[int, UnicastPayment | ReproError]:
    costs = g.costs.tolist()
    par = spt.parent.tolist()
    out: dict[int, UnicastPayment | ReproError] = {}
    paths: dict[int, list[int]] = {}
    for i in sources:
        if i in out or i in paths:
            continue
        if i == target:
            out[i] = UnicastPayment(i, i, (), 0.0, {})
        elif par[i] < 0:
            out[i] = DisconnectedError(i, target)
        else:
            path = paths[i] = [i]
            while i != target:
                i = par[i]
                path.append(i)

    # One solve per depth h, over the subtrees of the depth-h relays of
    # the requested sources: avoid[(i, k)] = ||P_{-k}(i, target)||.
    avoid: dict[tuple[int, int], float] = {}
    height = max((len(p) - 1 for p in paths.values()), default=0)
    if height >= 2:
        order = spt.topological_order()
        tin = np.empty(g.n, dtype=np.int64)
        tin[order] = np.arange(order.shape[0])
        size = _subtree_sizes(g.n, order.tolist(), par)
        for h in range(1, height):
            below = {i: p[-1 - h] for i, p in paths.items() if len(p) - 1 > h}
            avoid.update(
                _depth_solve(g, spt, order, tin, size, costs, par, below)
            )
    if _metrics.enabled:
        _metrics.add("all_sources.runs", 1)
        _metrics.add("all_sources.sources", len(paths))
        _metrics.add("all_sources.depth_solves", max(height - 1, 0))

    for i, path in paths.items():
        lcp = canonical_cost(costs, path[1:-1])
        payments: dict[int, float] = {}
        error = None
        for k in path[1:-1]:  # from the source, as Algorithm 1 raises
            a = avoid[(i, k)]
            if a == float("inf") and on_monopoly == "raise":
                error = MonopolyError(i, target, k)
                break
            payments[k] = a - lcp + costs[k]
        out[i] = error or UnicastPayment(i, target, tuple(path), lcp, payments)
    return {i: out[i] for i in sources}


def _subtree_sizes(n: int, order: list[int], par: list[int]) -> np.ndarray:
    """Node count of every subtree; with the preorder, ``x``'s subtree
    is ``order[tin[x] : tin[x] + size[x]]``."""
    size = [1] * n
    for x in reversed(order[1:]):
        size[par[x]] += size[x]
    return np.asarray(size, dtype=np.int64)


def _depth_solve(
    g: NodeWeightedGraph,
    spt: ShortestPathTree,
    order: np.ndarray,
    tin: np.ndarray,
    size: np.ndarray,
    costs: list[float],
    par: list[int],
    below: dict[int, int],
) -> dict[tuple[int, int], float]:
    """``||P_{-k}(i)||`` for every ``i -> k`` of ``below`` (source ->
    its relay at this depth), from one relaxation solve over the glued
    subtrees of those relays."""
    target = spt.root
    # Region: every relay's subtree without the relay itself, which is a
    # contiguous run of the preorder; lab[y] is y's relay, -1 outside.
    relays = np.asarray(sorted(set(below.values())), dtype=np.int64)
    counts = size[relays] - 1
    offsets = np.cumsum(counts) - counts
    pos = np.repeat(tin[relays] + 1 - offsets, counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )
    region = order[pos]
    nr = region.shape[0]
    lab = np.full(g.n, -1, dtype=np.int64)
    lab[region] = np.repeat(relays, counts)
    loc = np.full(g.n, -1, dtype=np.int64)
    loc[region] = np.arange(nr, dtype=np.int64)

    # Every arc out of a region node, grouped by tail in region order
    # (region nodes are reachable, so no row is empty).
    deg = g.indptr[region + 1] - g.indptr[region]
    row_starts = np.cumsum(deg) - deg
    arc = np.repeat(g.indptr[region] - row_starts, deg) + np.arange(
        int(deg.sum()), dtype=np.int64
    )
    tail = np.repeat(region, deg)
    head = g.indices[arc]
    inside = lab[head] == lab[tail]
    # Seeds: the cheapest way out of the subtree, d(x) + c_x through a
    # neighbour x that is neither inside it nor its relay. The target is
    # never such an x: its neighbours all hang at depth 1 of the tree,
    # and region nodes lie at depth 2 or more.
    vals = np.where(
        inside | (head == lab[tail]), np.inf, spt.dist[head] + g.costs[head]
    )
    seed = np.minimum.reduceat(vals, row_starts)
    hit = np.flatnonzero((vals == np.repeat(seed, deg)) & np.isfinite(vals))
    first = np.ones(hit.shape[0], dtype=bool)
    first[1:] = tail[hit[1:]] != tail[hit[:-1]]
    seed_arg = np.full(nr, -1, dtype=np.int64)
    seed_arg[loc[tail[hit[first]]]] = head[hit[first]]

    # Arc y -> z weighs c_y: z's avoiding path runs through y. The arcs
    # are grouped by tail in region order, so the inside ones are the
    # glued subtrees' CSR.
    indptr = np.zeros(nr + 1, dtype=np.int64)
    np.cumsum(np.bincount(loc[tail[inside]], minlength=nr), out=indptr[1:])
    dist = seed  # solved in place
    pred = np.full(nr, -1, dtype=np.int64)
    relax_arcs(
        indptr,
        loc[head[inside]],
        g.costs[tail[inside]],
        dist,
        pred,
        np.flatnonzero(np.isfinite(dist)),
    )
    dist, pred = dist.tolist(), pred.tolist()
    region, seed_arg, loc = region.tolist(), seed_arg.tolist(), loc.tolist()

    out: dict[tuple[int, int], float] = {}
    for i, k in below.items():
        j = loc[i]
        if dist[j] == float("inf"):
            out[(i, k)] = dist[j]
            continue
        # The witness: predecessors back to the seeded node, its seed
        # neighbour x, then x's SPT(target) path.
        witness = []
        while pred[j] >= 0:
            j = pred[j]
            witness.append(region[j])
        x = seed_arg[j]
        while x != target:
            witness.append(x)
            x = par[x]
        out[(i, k)] = canonical_cost(costs, witness)
    return out
