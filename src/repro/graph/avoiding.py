"""Node-avoiding shortest paths — the ``P_{-v_k}`` primitive.

VCG payments need, for every relay ``v_k`` on the least cost path, the
cost of the best path that avoids ``v_k`` (Section III.A), and the
collusion-resistant scheme needs the best path avoiding a whole set
``Q(v_k)`` (Section III.E).

This module provides the *naive* oracles (one Dijkstra per removal) that
the fast Algorithm 1 implementation is property-tested against, plus a
vectorized batch routine used by the Figure-3 sweeps: for a fixed access
point, one reverse Dijkstra per removed node yields the avoiding distances
of **all** sources simultaneously, which is what makes 100-instance sweeps
over 500-node networks tractable.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graph.dijkstra import (
    link_weighted_spt,
    node_weighted_spt,
)
from repro.graph.link_graph import LinkWeightedDigraph
from repro.graph.node_graph import NodeWeightedGraph
from repro.utils.validation import check_node_index

__all__ = [
    "avoiding_distance",
    "avoiding_set_distance",
    "all_avoiding_distances_naive",
    "all_sources_removal_distances",
]


def avoiding_distance(
    graph,
    source: int,
    target: int,
    removed: int,
    backend: str = "auto",
) -> float:
    """Cost of the least cost ``source -> target`` path avoiding ``removed``.

    Works for both graph models; returns ``inf`` when ``removed`` is an
    articulation point separating the endpoints (the monopoly case the
    paper's biconnectivity assumption rules out).
    """
    return avoiding_set_distance(graph, source, target, [removed], backend=backend)


def avoiding_set_distance(
    graph,
    source: int,
    target: int,
    removed: Iterable[int],
    backend: str = "auto",
) -> float:
    """Cost of the least cost path avoiding every node in ``removed``.

    This is ``||P_{-Q(v_k)}(v_i, v_j, d)||`` of Section III.E. ``source``
    and ``target`` must not be in the removed set.
    """
    removed = {check_node_index(v, graph.n) for v in removed}
    source = check_node_index(source, graph.n)
    target = check_node_index(target, graph.n)
    if source in removed or target in removed:
        raise ValueError(
            f"endpoints ({source}, {target}) may not be in the removed set"
        )
    if source == target:
        return 0.0
    if isinstance(graph, NodeWeightedGraph):
        spt = node_weighted_spt(graph, source, forbidden=removed, backend=backend)
    elif isinstance(graph, LinkWeightedDigraph):
        spt = link_weighted_spt(
            graph, source, direction="from", forbidden=removed, backend=backend
        )
    else:
        raise TypeError(f"unsupported graph type {type(graph)!r}")
    return float(spt.dist[target])


def all_avoiding_distances_naive(
    graph,
    source: int,
    target: int,
    candidates: Iterable[int] | None = None,
    backend: str = "auto",
) -> dict[int, float]:
    """Avoiding distance for every candidate node, one Dijkstra each.

    When ``candidates`` is ``None``, the internal nodes of the current
    least cost path are used (the only nodes whose removal can change it,
    and the only ones VCG pays). This is the O(n · (m + n log n)) baseline
    that Section III.B's Algorithm 1 improves on; it doubles as the oracle
    in the fast-algorithm property tests.
    """
    source = check_node_index(source, graph.n)
    target = check_node_index(target, graph.n)
    if candidates is None:
        if isinstance(graph, NodeWeightedGraph):
            spt = node_weighted_spt(graph, source, backend=backend)
        else:
            spt = link_weighted_spt(graph, source, direction="from", backend=backend)
        spt.require_reachable(target)
        candidates = spt.path_from_root(target)[1:-1]
    return {
        int(k): avoiding_distance(graph, source, target, int(k), backend=backend)
        for k in candidates
    }


def all_sources_removal_distances(
    dg: LinkWeightedDigraph,
    root: int,
    removed_nodes: Iterable[int] | None = None,
) -> np.ndarray:
    """Batch ``x -> root`` distances under single-node removals (link model).

    Returns an ``(n, n)`` array ``A`` where ``A[k, i]`` is the weight of the
    least cost directed path from ``i`` to ``root`` in ``G \\ v_k``
    (``inf`` where disconnected; row ``k`` has ``A[k, k] = inf`` and
    ``A[root]`` is the no-removal baseline — removing the access point is
    meaningless, so the root row is computed on the intact graph).

    Implementation: shortest paths *to* ``root`` equal shortest paths
    *from* ``root`` in the reverse digraph, so each removal is one compiled
    ``scipy.sparse.csgraph.dijkstra`` call on a masked arc list. Arc
    masking is a vectorized boolean filter over flat COO arrays — no
    per-arc Python work in the loop (HPC guide: keep the hot loop in
    NumPy/compiled code).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    root = check_node_index(root, dg.n)
    n = dg.n
    rev = dg.reverse()
    # Flat COO arrays of the *reverse* graph.
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(rev.indptr))
    dst = rev.indices
    wts = rev.weights.copy()
    wts[wts == 0.0] = 1e-300  # keep explicit zeros in the sparse matrix

    if removed_nodes is None:
        removed_nodes = range(n)
    removed_nodes = [check_node_index(k, n) for k in removed_nodes]

    out = np.full((n, n), np.inf)
    for k in removed_nodes:
        if k == root:
            keep = slice(None)
        else:
            keep = (src != k) & (dst != k)
        mat = csr_matrix((wts[keep], (src[keep], dst[keep])), shape=(n, n))
        dist = sp_dijkstra(mat, directed=True, indices=root)
        dist[dist < 1e-250] = 0.0
        if k != root:
            dist[k] = np.inf
        out[k] = dist
    return out
