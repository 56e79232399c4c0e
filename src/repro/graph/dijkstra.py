"""Dijkstra shortest paths for both graph models, with two backends.

Backends
--------
``"python"``
    A pure-Python Dijkstra over the CSR adjacency using the library's
    :class:`~repro.utils.heap.IndexedMinHeap`. Clear, allocation-light,
    supports a ``forbidden`` node mask directly. This is the reference
    implementation the property tests trust.

``"scipy"``
    ``scipy.sparse.csgraph.dijkstra`` on a cached sparse matrix — the
    compiled path used by the evaluation sweeps (per the HPC guides:
    after the algorithmic work is done, push the inner loop into
    compiled code). Node-weighted graphs go through the directed
    tail-cost edge-weight transform, which reproduces the python
    backend's ``dist`` floats bit-for-bit.

``"auto"``
    Node model: ``scipy`` for every tree without a ``forbidden`` mask,
    at any graph size (batched in :func:`node_weighted_spt_many`), and
    ``python`` for masked trees. Link model: ``scipy`` without a mask
    from 64 nodes up, else ``python``.

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

All functions return a :class:`~repro.graph.spt.ShortestPathTree`.
Distances follow the owning model's convention: *internal node cost* for
:class:`NodeWeightedGraph` and *total arc weight* for
:class:`LinkWeightedDigraph`.
"""

from __future__ import annotations

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
    "link_weighted_spt",
    "shortest_path_tree",
    "node_weighted_distance",
    "link_weighted_distance",
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


def _flush_scipy_counters(spt: ShortestPathTree) -> ShortestPathTree:
    """Record one compiled-backend run (no per-op counts are visible)."""
    if _metrics.enabled:
        _metrics.add("dijkstra.runs", 1)
        _metrics.add("dijkstra.scipy_runs", 1)
        _metrics.add(
            "dijkstra.settled_nodes", int(np.isfinite(spt.dist).sum())
        )
    return spt


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

    ``backend="auto"`` builds with scipy unless a ``forbidden`` mask is
    given; masked builds (the naive Section III.A oracle) run the heap
    Dijkstra, which takes the mask directly.
    """
    root = check_node_index(root, g.n)
    mask = _forbidden_mask(g.n, forbidden)
    if mask is not None and mask[root]:
        raise GraphError(f"root {root} is in the forbidden set")
    backend = _check_backend(backend)
    if backend != "python" and mask is None:
        return _node_spt_scipy(g, root)
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


def _node_spt_scipy(g: NodeWeightedGraph, root: int) -> ShortestPathTree:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    mat = g.to_tailcost_matrix()
    # The source relays its own packet for free (Section II.C): nudge its
    # outgoing arcs to ~0 (an exact 0 would read as a missing arc). The
    # cached matrix is shared — the engine's read lock admits concurrent
    # builders for different roots, and a concurrent batched solve reads
    # it too — so it must never be patched in place: clone the data
    # vector, patch the clone, and wrap it with the shared index arrays
    # (``copy=False``). The clone is O(m) floats, far below the solve.
    lo, hi = int(mat.indptr[root]), int(mat.indptr[root + 1])
    data = mat.data.copy()
    data[lo:hi] = 1e-300
    patched = csr_matrix(
        (data, mat.indices, mat.indptr), shape=mat.shape, copy=False
    )
    dist, pred = sp_dijkstra(
        patched,
        directed=True,
        indices=root,
        return_predecessors=True,
    )
    # Clip the zero-cost nudges back to exact zeros, in place: scipy's
    # output is a fresh array and already +inf where unreachable.
    dist[dist < 1e-250] = 0.0
    dist[root] = 0.0
    parent = pred.astype(np.int64)
    parent[parent < 0] = -1
    _canonical_parents(g, root, dist, parent)
    return _flush_scipy_counters(ShortestPathTree(root, dist, parent))


def node_weighted_spt_many(
    g: NodeWeightedGraph,
    sources: Iterable[int],
    backend: str = "auto",
) -> dict[int, ShortestPathTree]:
    """SPTs from every *distinct* source in one batch; ``{root: tree}``.

    Batch pricing (``pairwise_vcg_payments``, ``Engine.price_many``)
    needs one tree per distinct endpoint. Building them one
    ``node_weighted_spt`` call at a time pays a Python round-trip, an
    O(m) matrix patch and scipy's per-call validation for every source;
    this entry point pays them once per block of 32 sources: each block
    is one ``scipy.sparse.csgraph.dijkstra(indices=...)`` call over an
    augmented matrix derived from the graph's cached tail-cost CSR. The
    fixed block bounds the transient memory at O(m + 32 n) whatever the
    batch size (scipy's dense per-call result would otherwise grow as
    k x (n + k)).

    ``backend="auto"`` takes this batched scipy path at any graph size
    (a single source goes through ``node_weighted_spt``);
    ``backend="python"`` builds each tree with the heap Dijkstra. Each
    tree is bit-identical — ``dist`` and the canonical ``parent`` — to
    ``node_weighted_spt(g, s)`` under any backend: the batched path
    reproduces the per-source floats exactly (see
    ``_node_spt_many_scipy``), and the parents are canonical. Duplicate
    sources collapse; an empty iterable returns ``{}``. A ``forbidden``
    mask is not supported here — masked builds go through the
    per-source API.
    """
    seen: dict[int, None] = {}
    for s in sources:
        seen.setdefault(check_node_index(s, g.n), None)
    roots = list(seen)
    backend = _check_backend(backend)
    if not roots:
        return {}
    if backend == "python" or len(roots) == 1:
        return {
            s: node_weighted_spt(g, s, backend=backend) for s in roots
        }
    return _node_spt_many_scipy(g, roots)


#: Sources per compiled call in :func:`_node_spt_many_scipy`. scipy
#: returns a dense ``block x (n + block)`` distance and predecessor
#: result, so a fixed block keeps a batch's transient memory at
#: O(m + block * n) however many sources it has. 16 and 64 measured the
#: same as 32 on the 500-node service instance.
_SPT_BLOCK = 32


def _node_spt_many_scipy(
    g: NodeWeightedGraph, roots: list[int]
) -> dict[int, ShortestPathTree]:
    """All-sources solve in fixed blocks of ``_SPT_BLOCK`` sources.

    The per-source scipy path nudges the *root's* outgoing arcs to
    ~0 so the source relays its own packet for free (Section II.C).
    That patch is per-source, so a single shared matrix cannot serve
    every root directly. Instead, each root ``s`` of a block gets a
    **virtual source** row ``n + i`` replaying ``s``'s outgoing arcs at
    the same 1e-300 nudge; the first ``n`` rows of the matrix are the
    unmodified tail-cost CSR. A shortest path ``n+i -> x`` then performs
    exactly the float additions of the per-source path ``s -> x`` (first
    arc 1e-300, then the same tail costs left to right), and paths that
    re-enter ``s`` at its full cost are never shorter than their
    shortcut through the virtual row (float addition of non-negatives
    is monotone), so the returned ``dist`` arrays are bit-identical to
    the per-source ones. Virtual rows have no incoming arcs, so which
    other roots share a block changes nothing. Virtual predecessors are
    mapped back to ``s``.

    Each block is one compiled call over its own augmented matrix; every
    tree copies its rows out, so no tree pins the block's result, and
    then gets its canonical-parent pass.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    n = g.n
    base = g.to_tailcost_matrix()
    base_indices = np.asarray(base.indices, dtype=np.int64)
    base_indptr = np.asarray(base.indptr, dtype=np.int64)
    out: dict[int, ShortestPathTree] = {}
    for lo in range(0, len(roots), _SPT_BLOCK):
        src = np.asarray(roots[lo : lo + _SPT_BLOCK], dtype=np.int64)
        b = len(src)
        deg = g.indptr[src + 1] - g.indptr[src]
        total = int(deg.sum())
        vidx = np.concatenate(
            [g.indices[g.indptr[s] : g.indptr[s + 1]] for s in src]
        ).astype(np.int64, copy=False)
        data = np.concatenate([base.data, np.full(total, 1e-300)])
        indices = np.concatenate([base_indices, vidx])
        indptr = np.concatenate(
            [base_indptr, base_indptr[-1] + np.cumsum(deg, dtype=np.int64)]
        )
        aug = csr_matrix((data, indices, indptr), shape=(n + b, n + b))
        dist_blk, pred_blk = sp_dijkstra(
            aug,
            directed=True,
            indices=np.arange(n, n + b),
            return_predecessors=True,
        )
        rows = np.arange(b)
        dist_blk = dist_blk[:, :n]
        # Clip the zero-cost nudges back to exact zeros (same clip as
        # the per-source path).
        dist_blk[dist_blk < 1e-250] = 0.0
        dist_blk[rows, src] = 0.0
        # Row i can only reach virtual row n + i: any virtual
        # predecessor is its own root's.
        pred = pred_blk[:, :n]
        parent_blk = np.where(pred >= n, src[:, None], pred)
        parent_blk[parent_blk < 0] = -1
        parent_blk[rows, src] = -1
        for i, s in enumerate(src.tolist()):
            dist, parent = dist_blk[i].copy(), parent_blk[i].copy()
            _canonical_parents(g, s, dist, parent)
            out[s] = _flush_scipy_counters(ShortestPathTree(s, dist, parent))
    if _metrics.enabled:
        _metrics.add("dijkstra.batched_runs", 1)
        _metrics.add("dijkstra.batched_sources", len(roots))
    return out


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
    return _flush_scipy_counters(ShortestPathTree(root, dist, parent))


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
