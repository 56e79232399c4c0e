"""Dijkstra shortest paths for both graph models.

Backends
--------
``"python"``
    A pure-Python Dijkstra over the CSR adjacency using the library's
    :class:`~repro.utils.heap.IndexedMinHeap`. Clear, allocation-light,
    supports a ``forbidden`` node mask directly. This is the reference
    implementation the property tests trust.

``"auto"``
    Node model: :func:`relax_arcs`, a vectorized numpy frontier
    relaxation over the CSR arcs with the tail-cost weights
    (:meth:`~repro.graph.node_graph.NodeWeightedGraph.arc_tail_costs`),
    for every tree without a ``forbidden`` mask; masked trees run the
    heap. It reproduces the heap's ``dist`` floats bit for bit. A solve
    deeper than its round bound (Θ(√n) rounds; a 2-D deployment at
    constant density is Θ(√n) hops deep) hands off to one
    ``scipy.sparse.csgraph.dijkstra`` call, the only way the node model
    imports scipy. Link model: scipy Dijkstra on the cached CSR without
    a mask from 64 nodes up, else ``python``.

``"scipy"``
    Node model: the same path as ``"auto"`` (there is one vectorized
    node-model solver). Link model: scipy Dijkstra whenever no mask is
    given.

The node model's vectorized solves — these trees, the step-3 regions of
Algorithm 1 (:mod:`repro.core.fast_payment`) and the per-depth solves of
the all-sources batch (:mod:`repro.core.all_sources`) — all run
:func:`relax_arcs`, so serving the node model does not load scipy.

Canonical node-model trees
--------------------------
Ties between equal-cost paths are common (integer costs, symmetric
deployments), and which of them a Dijkstra records depends on its heap
history. So every node-model tree ends with one vectorized pass that
sets ``parent[x]`` to the smallest-id neighbour ``u`` with
``dist[u] + w[u] == dist[x]`` (``w = costs``, ``w[root] = 0``); see
``_canonical_parents`` for the zero-cost exception. ``dist`` is
already bit-identical across backends, so the tree — and every path
read off it — is a function of the graph alone. Link-model trees keep
their solver's parents.

The tree builders return a :class:`~repro.graph.spt.ShortestPathTree`.
Distances follow the owning model's convention: *internal node cost* for
:class:`NodeWeightedGraph` and *total arc weight* for
:class:`LinkWeightedDigraph`.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.errors import GraphError
from repro.graph.link_graph import LinkWeightedDigraph
from repro.graph.node_graph import NodeWeightedGraph
from repro.graph.spt import ShortestPathTree
from repro.obs.metrics import REGISTRY as _metrics
from repro.utils.heap import IndexedMinHeap
from repro.utils.validation import check_node_index

__all__ = [
    "node_weighted_spt",
    "node_weighted_spt_many",
    "node_weighted_dist",
    "link_weighted_spt",
    "shortest_path_tree",
    "node_weighted_distance",
    "link_weighted_distance",
    "relax_arcs",
]

_BACKENDS = ("auto", "python", "scipy")


def _forbidden_mask(n: int, forbidden) -> np.ndarray | None:
    if forbidden is None:
        return None
    mask = np.zeros(n, dtype=bool)
    if isinstance(forbidden, np.ndarray) and forbidden.dtype == bool:
        if forbidden.shape != (n,):
            raise GraphError(
                f"boolean forbidden mask must have shape ({n},), "
                f"got {forbidden.shape}"
            )
        mask |= forbidden
    else:
        for v in forbidden:
            mask[check_node_index(v, n)] = True
    return mask if mask.any() else None


def _check_backend(backend: str) -> str:
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
    return backend


def _flush_python_counters(pushes: int, pops: int, relaxations: int) -> None:
    """Record one pure-Python Dijkstra run's operation counts.

    The loop accumulates plain local ints; this single guarded flush is
    the only registry interaction, so the disabled-mode cost is one
    attribute check per SPT build.
    """
    if _metrics.enabled:
        _metrics.add("dijkstra.runs", 1)
        _metrics.add("dijkstra.heap_pushes", pushes)
        _metrics.add("dijkstra.heap_pops", pops)
        _metrics.add("dijkstra.edge_relaxations", relaxations)


def _flush_scipy_counters(dist: np.ndarray) -> None:
    """Record one compiled link-model run (no per-op counts are visible).
    ``dijkstra.scipy_runs`` counts every scipy Dijkstra call: these and
    the node model's hand-offs (see :func:`relax_arcs`)."""
    if _metrics.enabled:
        _metrics.add("dijkstra.runs", 1)
        _metrics.add("dijkstra.scipy_runs", 1)
        _metrics.add("dijkstra.settled_nodes", int(np.isfinite(dist).sum()))


# ---------------------------------------------------------------------------
# Frontier relaxation kernel
# ---------------------------------------------------------------------------


def _handoff_rounds(n: int) -> int:
    """Relaxation rounds a solve over ``n`` nodes may take before it
    hands off to a compiled Dijkstra. A round settles one more hop of
    every shortest path, and a 2-D deployment at constant density has
    hop depth Θ(√n), so the bound grows as √n.

    The constants are measured (2-vCPU Xeon, numpy 2.4.6, scipy 1.17.1,
    scipy already imported): on grids and ladders of 100 to 8,100 nodes
    rooted at a corner, the relaxation's time reaches that of one
    hand-off solve after 0.55·√n to 1.0·√n rounds, and never before
    round 7, where scipy's fixed per-call cost dominates. The bound is
    that upper envelope, √n, plus 8: a deep solve spends 1.3 to 2.7
    scipy solves' time before it hands off. Unit-disk deployments at the
    e2e density (2000 m square per 500 nodes, 300 m range) take at most
    0.6·√n rounds (14 at 500 nodes, over every solve site), at least
    1.8 times below the bound, so they never load scipy."""
    return 8 + math.isqrt(n)


def relax_arcs(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    dist: np.ndarray,
    pred: np.ndarray | None,
    frontier: np.ndarray,
) -> None:
    """Shortest paths from seeded labels, in place, by frontier relaxation.

    ``(indptr, indices)`` is a CSR adjacency over ``len(dist)`` nodes and
    ``weights[k]`` the weight of arc ``k``. On entry ``dist`` holds the
    seed labels (``inf`` elsewhere), ``pred`` the seeds' predecessors
    (``-1`` for none) and ``frontier`` the seeded nodes to relax first.
    Each round relaxes the arcs out of the nodes whose label changed in
    the previous round, ``dist[head] = min(dist[head], dist[tail] + w)``
    (``np.minimum.at`` over the candidates, a boolean changed-mask for
    the next frontier), until no label changes. On exit ``dist[x]`` is
    the least ``seed + arc weights`` over every walk to ``x``, added left
    to right: the floats a heap Dijkstra from the same seeds computes,
    bit for bit, since float addition of non-negatives is monotone.

    ``pred`` is tight (``dist[x] == dist[pred[x]] + w`` over that arc)
    and acyclic: a node only takes a predecessor whose label changed in
    an earlier round, and a later change of that label either relaxes
    the node again or leaves the same sum. A node keeps its seed
    predecessor unless a walk beats its seed. Zero weights need no
    special care. ``pred=None`` skips the predecessors.

    A solve that passes :func:`_handoff_rounds` rounds (a deep graph,
    such as a long path) finishes in one
    ``scipy.sparse.csgraph.dijkstra`` call instead, seeded from the
    current labels through a virtual source, so its worst case stays
    that of Dijkstra; scipy is imported only then
    (``dijkstra.handoffs`` counts these).
    """
    n = dist.shape[0]
    bound = _handoff_rounds(n)
    rounds = relaxations = 0
    changed = np.zeros(n, dtype=bool)
    # Per round: the arcs out of the frontier, as the CSR rows'
    # offsets plus 0, 1, ... within each row. Method calls, in-place
    # adds and the preallocated ramp keep the per-round overhead low.
    starts, degrees = indptr[:-1], np.diff(indptr)
    ramp = np.arange(indices.shape[0], dtype=np.int64)
    while frontier.shape[0]:
        if rounds == bound:
            _handoff(indptr, indices, weights, dist, pred)
            break
        rounds += 1
        deg = degrees[frontier]
        ends = deg.cumsum()
        arc = (starts[frontier] - ends + deg).repeat(deg)
        arc += ramp[: ends[-1]]
        relaxations += arc.shape[0]
        head = indices[arc]
        cand = dist[frontier].repeat(deg)
        cand += weights[arc]
        better = (cand < dist[head]).nonzero()[0]
        head, cand = head[better], cand[better]
        np.minimum.at(dist, head, cand)
        if pred is not None:
            hit = cand == dist[head]
            pred[head[hit]] = frontier.repeat(deg)[better[hit]]
        changed[head] = True
        frontier = changed.nonzero()[0]
        changed[frontier] = False
    if _metrics.enabled:
        _metrics.add("dijkstra.relax_rounds", rounds)
        _metrics.add("dijkstra.edge_relaxations", relaxations)


def _handoff(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    dist: np.ndarray,
    pred: np.ndarray | None,
) -> None:
    """Finish a :func:`relax_arcs` solve with one scipy Dijkstra from a
    virtual source ``n`` whose arc to every labelled node weighs its
    label. ``0 + label`` is the label, so every distance is still a left
    to right sum along a real walk from a seed. A node the solve does not
    improve keeps its predecessor, which stays tight; an improved one
    takes scipy's, a real node. Explicit zeros in the CSR data are arcs
    to scipy, so zero weights and zero labels are passed as they are."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    n = dist.shape[0]
    seeded = np.flatnonzero(np.isfinite(dist))
    matrix = csr_matrix(
        (
            np.concatenate([weights, dist[seeded]]),
            np.concatenate([indices, seeded]),
            np.append(indptr, indptr[-1] + seeded.shape[0]),
        ),
        shape=(n + 1, n + 1),
    )
    out = sp_dijkstra(
        matrix, directed=True, indices=n, return_predecessors=pred is not None
    )
    solved = out if pred is None else out[0]
    improved = np.flatnonzero(solved[:n] < dist)
    dist[improved] = solved[improved]
    if pred is not None:
        pred[improved] = out[1][improved]
    if _metrics.enabled:
        _metrics.add("dijkstra.handoffs", 1)
        _metrics.add("dijkstra.scipy_runs", 1)


# ---------------------------------------------------------------------------
# Node-weighted model
# ---------------------------------------------------------------------------


def _canonical_parents(
    g: NodeWeightedGraph, root: int, dist: np.ndarray, parent: np.ndarray
) -> None:
    """Rewrite a solver's ``parent`` array to the canonical tree, in place.

    With ``w = costs`` and ``w[root] = 0``, ``parent[x]`` becomes the
    smallest-id neighbour ``u`` with ``dist[u] + w[u] == dist[x]`` — a
    function of the graph alone, not of heap history or of the backend,
    because every backend returns the same ``dist`` bit for bit. A
    tight ``u`` must also be strictly closer than ``x``: that skips
    zero-cost non-root nodes, whose ties could form a cycle. Where every
    tight predecessor of ``x`` is such a node (``x`` lies behind a
    zero-cost relay), the solver's parent stays, so trees over zero
    costs are not canonical.

    CSR rows are sorted, so the smallest tight neighbour of ``x`` is the
    first tight arc of row ``x``: one masked pass over the arcs, then the
    first hit per row.
    """
    src = g.arc_sources()
    nbr = g.indices
    d_nbr = dist[nbr]
    d_src = np.repeat(dist, g.degrees)  # dist[src], without a gather
    hits = np.flatnonzero((d_nbr + g.arc_head_costs() == d_src) & (d_nbr < d_src))
    rows = src[hits]
    first = np.empty(rows.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    parent[rows[first]] = nbr[hits[first]]
    # The root is the one tight predecessor at equal distance: every
    # reached neighbour of it has dist 0 and no strictly closer node.
    nb = nbr[g.indptr[root] : g.indptr[root + 1]]
    parent[nb[dist[nb] == 0.0]] = root


def node_weighted_spt(
    g: NodeWeightedGraph,
    root: int,
    forbidden: Iterable[int] | np.ndarray | None = None,
    backend: str = "auto",
) -> ShortestPathTree:
    """SPT from ``root`` where a path costs the sum of its internal nodes.

    ``dist[x]`` is the least cost of a ``root -> x`` path counting neither
    ``costs[root]`` nor ``costs[x]`` (paper Section II.C). ``forbidden``
    nodes are treated as removed from the graph; asking for an SPT rooted
    at a forbidden node is an error. ``parent`` is canonical (see the
    module docstring): every backend returns the same tree.

    ``backend="auto"`` (and ``"scipy"``, the same path) builds with
    :func:`relax_arcs` unless a ``forbidden`` mask is given; masked
    builds (the naive Section III.A oracle) run the heap Dijkstra, which
    takes the mask directly.
    """
    root = check_node_index(root, g.n)
    mask = _forbidden_mask(g.n, forbidden)
    if mask is not None and mask[root]:
        raise GraphError(f"root {root} is in the forbidden set")
    backend = _check_backend(backend)
    if backend != "python" and mask is None:
        return _node_spt_vectorized(g, root)
    return _node_spt_python(g, root, mask)


def _node_spt_python(
    g: NodeWeightedGraph, root: int, mask: np.ndarray | None
) -> ShortestPathTree:
    n = g.n
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    if mask is not None:
        done |= mask  # never settle forbidden nodes
    heap = IndexedMinHeap(n)
    dist[root] = 0.0
    heap.push(root, 0.0)
    costs, indptr, indices = g.costs, g.indptr, g.indices
    pushes, pops, relaxations = 1, 0, 0
    while heap:
        u, du = heap.pop()
        pops += 1
        if done[u]:
            continue
        done[u] = True
        # Leaving u adds u's own relaying cost — unless u is the source,
        # which sends its own packet for free under the II.C convention.
        step = du + (costs[u] if u != root else 0.0)
        for w in indices[indptr[u] : indptr[u + 1]]:
            if done[w]:
                continue
            relaxations += 1
            if step < dist[w]:
                dist[w] = step
                parent[w] = u
                heap.push(int(w), step)
                pushes += 1
    _flush_python_counters(pushes, pops, relaxations)
    if mask is not None:
        dist[mask] = np.inf
        parent[mask] = -1
    _canonical_parents(g, root, dist, parent)
    return ShortestPathTree(root, dist, parent)


def node_weighted_dist(
    g: NodeWeightedGraph, root: int, backend: str = "auto"
) -> np.ndarray:
    """``node_weighted_spt(g, root, backend=backend).dist``, bit for bit,
    without the canonical-parent pass (``backend="python"`` still runs
    the heap builder)."""
    root = check_node_index(root, g.n)
    if _check_backend(backend) == "python":
        return _node_spt_python(g, root, None).dist
    return _node_solve(g, root, False)[0]


def _node_solve(
    g: NodeWeightedGraph, root: int, preds: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """One :func:`relax_arcs` solve from ``root``: ``(dist, pred)``,
    ``pred`` None unless ``preds``.

    An arc ``u -> v`` weighs ``c_u`` (:meth:`NodeWeightedGraph.arc_tail_costs`),
    so a walk from the root adds the internal-node costs in path order,
    the additions the heap Dijkstra makes. The source relays its own
    packet for free (Section II.C), so the root's neighbours are seeded
    at 0 instead of relaxing the root's arcs.
    """
    dist = np.full(g.n, np.inf)
    pred = np.full(g.n, -1, dtype=np.int64) if preds else None
    nb = g.indices[g.indptr[root] : g.indptr[root + 1]]
    dist[root] = 0.0
    dist[nb] = 0.0
    if preds:
        pred[nb] = root
    relax_arcs(g.indptr, g.indices, g.arc_tail_costs(), dist, pred, nb)
    if _metrics.enabled:
        _metrics.add("dijkstra.runs", 1)
    return dist, pred


def _node_spt_vectorized(g: NodeWeightedGraph, root: int) -> ShortestPathTree:
    dist, parent = _node_solve(g, root, True)
    _canonical_parents(g, root, dist, parent)
    return ShortestPathTree(root, dist, parent)


def node_weighted_spt_many(
    g: NodeWeightedGraph,
    sources: Iterable[int],
    backend: str = "auto",
) -> dict[int, ShortestPathTree]:
    """SPTs from every *distinct* source; ``{root: tree}``.

    Batch pricing (``pairwise_vcg_payments``, ``Engine.price_many``)
    needs one tree per distinct endpoint. Each tree is
    ``node_weighted_spt(g, s, backend=backend)``, so it is bit-identical
    — ``dist`` and the canonical ``parent`` — under every backend.
    Duplicate sources collapse; an empty iterable returns ``{}``. A
    ``forbidden`` mask is not supported here — masked builds go through
    the per-source API.
    """
    seen: dict[int, None] = {}
    for s in sources:
        seen.setdefault(check_node_index(s, g.n), None)
    backend = _check_backend(backend)
    return {s: node_weighted_spt(g, s, backend=backend) for s in seen}


def node_weighted_distance(
    g: NodeWeightedGraph,
    source: int,
    target: int,
    forbidden: Iterable[int] | np.ndarray | None = None,
    backend: str = "auto",
) -> float:
    """Least internal-node cost of a ``source -> target`` path (``inf`` if
    disconnected). Convenience wrapper over :func:`node_weighted_spt`."""
    if source == target:
        return 0.0
    spt = node_weighted_spt(g, source, forbidden=forbidden, backend=backend)
    return float(spt.dist[check_node_index(target, g.n)])


# ---------------------------------------------------------------------------
# Link-weighted model
# ---------------------------------------------------------------------------


def link_weighted_spt(
    dg: LinkWeightedDigraph,
    root: int,
    direction: str = "from",
    forbidden: Iterable[int] | np.ndarray | None = None,
    backend: str = "auto",
) -> ShortestPathTree:
    """SPT in the directed link-cost model.

    ``direction="from"`` gives shortest paths *from* the root (``dist[x]``
    = weight of the best ``root -> x`` path, ``parent[x]`` its predecessor).
    ``direction="to"`` gives shortest paths *toward* the root, the shape the
    unicast problem needs (everyone routes to the access point): ``dist[x]``
    = weight of the best ``x -> root`` path and ``parent[x]`` is the **next
    hop** of ``x`` on that path.
    """
    root = check_node_index(root, dg.n)
    if direction not in ("from", "to"):
        raise ValueError(f"direction must be 'from' or 'to', got {direction!r}")
    mask = _forbidden_mask(dg.n, forbidden)
    if mask is not None and mask[root]:
        raise GraphError(f"root {root} is in the forbidden set")
    backend = _check_backend(backend)
    graph = dg if direction == "from" else dg.reverse()
    if backend == "auto":
        backend = "scipy" if (mask is None and dg.n >= 64) else "python"
    if backend == "scipy" and mask is None:
        return _link_spt_scipy(graph, root)
    return _link_spt_python(graph, root, mask)


def _link_spt_python(
    dg: LinkWeightedDigraph, root: int, mask: np.ndarray | None
) -> ShortestPathTree:
    n = dg.n
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    if mask is not None:
        done |= mask
    heap = IndexedMinHeap(n)
    dist[root] = 0.0
    heap.push(root, 0.0)
    indptr, indices, weights = dg.indptr, dg.indices, dg.weights
    pushes, pops, relaxations = 1, 0, 0
    while heap:
        u, du = heap.pop()
        pops += 1
        if done[u]:
            continue
        done[u] = True
        for e in range(indptr[u], indptr[u + 1]):
            w = indices[e]
            if done[w]:
                continue
            relaxations += 1
            cand = du + weights[e]
            if cand < dist[w]:
                dist[w] = cand
                parent[w] = u
                heap.push(int(w), cand)
                pushes += 1
    _flush_python_counters(pushes, pops, relaxations)
    if mask is not None:
        dist[mask] = np.inf
        parent[mask] = -1
    return ShortestPathTree(root, dist, parent)


def _link_spt_scipy(dg: LinkWeightedDigraph, root: int) -> ShortestPathTree:
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    dist, pred = sp_dijkstra(
        dg.to_scipy_csr(),
        directed=True,
        indices=root,
        return_predecessors=True,
    )
    # Undo the zero-weight nudge (1e-300 per arc is below float resolution
    # after any realistic cost, but be explicit for all-zero toy graphs).
    dist[dist < 1e-250] = 0.0
    parent = pred.astype(np.int64)
    parent[parent < 0] = -1
    _flush_scipy_counters(dist)
    return ShortestPathTree(root, dist, parent)


def link_weighted_distance(
    dg: LinkWeightedDigraph,
    source: int,
    target: int,
    forbidden: Iterable[int] | np.ndarray | None = None,
    backend: str = "auto",
) -> float:
    """Weight of the least-cost directed ``source -> target`` path."""
    if source == target:
        return 0.0
    spt = link_weighted_spt(
        dg, source, direction="from", forbidden=forbidden, backend=backend
    )
    return float(spt.dist[check_node_index(target, dg.n)])


# ---------------------------------------------------------------------------
# Generic dispatcher
# ---------------------------------------------------------------------------


def shortest_path_tree(graph, root: int, **kwargs) -> ShortestPathTree:
    """Dispatch to the model-appropriate SPT builder."""
    if isinstance(graph, NodeWeightedGraph):
        return node_weighted_spt(graph, root, **kwargs)
    if isinstance(graph, LinkWeightedDigraph):
        return link_weighted_spt(graph, root, **kwargs)
    raise TypeError(f"unsupported graph type {type(graph)!r}")
