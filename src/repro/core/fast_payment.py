"""Algorithm 1: fast VCG payment computation in O(n log n + m).

The naive way to pay the relays of ``P(v_i, v_j, d)`` removes each relay
and re-runs Dijkstra — O(n) Dijkstras in the worst case. Section III.B
computes **all** the ``v_k``-avoiding path costs together, borrowing the
Hershberger–Suri replacement-path machinery, in a single
O(n log n + m) pass. This module implements it for the node-weighted
model; :func:`repro.core.link_vcg.link_vcg_payments` reuses it for the
link model through the tail-cost embedding.

How it works (notation of the paper, ``P = r_0 r_1 ... r_s``,
``r_0 = v_i``, ``r_s = v_j``):

1. Build ``SPT(v_i)`` and ``SPT(v_j)``; read off ``L(u)`` (cost
   ``v_i -> u``) and ``R(v)`` (cost ``v -> v_j``).
2. Assign every node its *level*: the index of the last path node on its
   ``SPT(v_i)`` tree path (step 2 of the paper; computed by
   :meth:`~repro.graph.spt.ShortestPathTree.branch_labels`). By Lemma 1 an
   optimal ``r_l``-avoiding path is a ``SPT(v_i)`` prefix through levels
   ``< l``, one crossing edge, then a suffix through levels ``>= l``.
3. For every level ``l``, compute ``R^{-l}(x)`` for the level-``l`` region
   (the subtree hanging off ``r_l``): the best ``x -> v_j`` continuation
   avoiding ``r_l``. The paper's step 3 processes nodes greedily; we run
   an equivalent boundary Dijkstra per region — regions are disjoint, so
   the total work stays O(n log n + m). The closure through a
   higher-level neighbour ``y`` uses ``R(y)``, which avoids ``r_l`` by
   Lemma 2.
4. Combine each region node with its best lower-level neighbour to get the
   per-level candidate ``c^{-l}`` (step 4).
5. Sweep ``l = 1 .. s-1`` with a lazy-deletion heap over crossing edges
   ``(u, v)`` with ``level(u) < l < level(v)``, keyed by
   ``L~(u) + R~(v)`` (step 5). Each edge enters and leaves the heap once.
6. ``||P_{-r_l}|| = min(heap minimum, c^{-l})`` and the payment follows
   (step 6).

Cost accounting: ``L~(u) = L(u) + c_u`` (0 for the source) and
``R~(v) = R(v) + c_v`` (0 for the target), so ``L~(u) + R~(v)`` is exactly
the internal-node cost of the spliced path.

Orientation and canonical sums
------------------------------

Every node-model method reads the LCP from ``SPT(v_j)``, the tree the
target shares with all its sources (and the one stage 1 of the
distributed protocol builds), so the steps above run with the roles of
the endpoints swapped: the levels come from ``SPT(v_j)``. Node-model
path costs are symmetric, so the avoiding costs of the reversed path
are the ones asked for; ``FastPaymentResult.levels`` is re-indexed
source first.

The float minima of steps 3-6 only choose each relay's avoiding path,
its *witness*: a crossing edge ``(u, v)`` stands for the tree path to
``u`` then the tree path from ``v``; a region minimum for the tree path
to its closing neighbour ``u``, the region nodes back along the region
Dijkstra's predecessors, that region's exit ``y`` and ``y``'s tree path.
``||P||`` and every ``||P_{-r_l}||`` are reported as
:func:`~repro.core.mechanism.canonical_cost` (``math.fsum``) over the
internal nodes of their path, and every payment as
``||P_{-r_l}|| - ||P|| + c_{r_l}``. The naive method and the
all-sources batch (:mod:`repro.core.all_sources`) report the same sums
over the same paths, so all three agree bit for bit.

Correctness is property-tested against the naive oracle on thousands of
random biconnected graphs (``tests/test_fast_payment.py``).

Kernels and backends
--------------------

The steps above exist in two implementations selected by ``backend``,
following the same convention as :mod:`repro.graph.dijkstra`:

* ``backend="python"`` — per-node/per-edge Python loops and one heap
  Dijkstra per region. The reference the property tests treat as the
  oracle.
* any other backend — the step-2 region bucketing, the step-5
  crossing-edge table and the step-3/4 boundary/closing scans run as
  whole-array numpy expressions over the CSR adjacency
  (``arc_sources()``/``indices`` expansion plus ``levels`` fancy
  indexing), and every region's Dijkstra runs in one
  :func:`~repro.graph.dijkstra.relax_arcs` solve. ``"numpy"``
  additionally forces the pure-Python SPT builder, which makes it the
  apples-to-apples vectorized counterpart of ``"python"`` in kernel
  benchmarks and exact-agreement tests.

This module prices one pair. :func:`repro.core.allpairs.pairwise_vcg_payments`
sends the sources of a shared target to the all-sources batch instead;
``"python"`` and ``"numpy"`` keep Algorithm 1 for every pair, as the
comparators.

Both kernels produce bit-identical answers: the minima they compute do
not depend on evaluation order, ties pick the first candidate in the
same order, and the reported values are canonical sums.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.mechanism import (
    UnicastPayment,
    canonical_cost,
    resolve_backend,
    resolve_monopoly_policy,
    spt_backend_for,
)
from repro.errors import DisconnectedError, MonopolyError
from repro.graph.dijkstra import node_weighted_spt, relax_arcs
from repro.graph.node_graph import NodeWeightedGraph
from repro.graph.spt import ShortestPathTree
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.tracing import TRACER as _tracer
from repro.utils.heap import LazyMinHeap
from repro.utils.validation import check_node_index

__all__ = ["fast_vcg_payments", "FastPaymentResult"]


@dataclass(frozen=True)
class FastPaymentResult:
    """Output of Algorithm 1, with the intermediates exposed for study.

    Attributes
    ----------
    path:
        The least cost path ``r_0 .. r_s`` (source first).
    lcp_cost:
        ``||P(v_i, v_j, d)||`` (internal-node cost).
    avoiding_costs:
        ``r_l -> ||P_{-r_l}(v_i, v_j, d)||`` for every relay; ``inf``
        marks a monopoly relay (only with ``on_monopoly="inf"``).
    payments:
        ``r_l -> p_i^{r_l}`` per step 6.
    levels:
        The step-2 level of every node, indexed along ``path`` from the
        source: ``l`` for ``r_l``, and for any other node the index of
        the path node where its ``SPT(v_j)`` tree path to the target
        joins ``P`` (-1 for nodes unreachable from the target). Exposed
        for study and for the tests.
    stats:
        Operation counts (heap pushes, region sizes) backing the
        complexity claims in the benchmark write-up.
    """

    source: int
    target: int
    path: tuple[int, ...]
    lcp_cost: float
    avoiding_costs: Mapping[int, float]
    payments: Mapping[int, float]
    levels: np.ndarray
    stats: Mapping[str, int] = field(default_factory=dict)

    def to_unicast_payment(self) -> UnicastPayment:
        """Convert to the generic :class:`UnicastPayment` form."""
        return UnicastPayment(
            self.source,
            self.target,
            self.path,
            self.lcp_cost,
            dict(self.payments),
            scheme="vcg",
        )

    @property
    def path_cost(self) -> float:
        """Cost of the chosen route (alias of ``lcp_cost``; the uniform
        :class:`~repro.core.mechanism.PaymentResult` accessor)."""
        return self.lcp_cost

    def payment(self, node: int) -> float:
        """Payment to ``node`` (0 when it earns nothing)."""
        return float(self.payments.get(int(node), 0.0))

    def to_dict(self) -> dict:
        """Tagged, versioned JSON-safe encoding (see :mod:`repro.io`)."""
        from repro import io

        return io.to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FastPaymentResult":
        """Inverse of :meth:`to_dict`; rejects payloads of other types."""
        from repro import io

        return io.decode_as(cls, payload)


def fast_vcg_payments(
    g: NodeWeightedGraph,
    source: int,
    target: int,
    on_monopoly: str = "raise",
    backend: str = "auto",
    spt_source: ShortestPathTree | None = None,
    spt_target: ShortestPathTree | None = None,
) -> FastPaymentResult:
    """Run Algorithm 1. See the module docstring for the plan.

    ``spt_source``/``spt_target`` accept precomputed shortest path trees
    rooted at the endpoints (as built by
    :func:`repro.graph.dijkstra.node_weighted_spt` on the *same* graph)
    — batch callers like :func:`repro.core.allpairs.pairwise_vcg_payments`
    build each endpoint's SPT once and share it across every pair that
    touches the endpoint.

    Raises :class:`DisconnectedError` when the endpoints are disconnected
    and :class:`MonopolyError` for monopoly relays unless
    ``on_monopoly="inf"``.
    """
    source = check_node_index(source, g.n)
    target = check_node_index(target, g.n)
    resolve_monopoly_policy(on_monopoly)
    resolve_backend(backend)
    for spt, root in ((spt_source, source), (spt_target, target)):
        if spt is not None and (spt.root != root or spt.n != g.n):
            raise ValueError(
                f"precomputed SPT (root={spt.root}, n={spt.n}) does not "
                f"match endpoint {root} on a {g.n}-node graph"
            )
    if source == target:
        return FastPaymentResult(
            source, target, (), 0.0, {}, {}, np.full(g.n, -1, dtype=np.int64)
        )
    with _metrics.timed("fast_payment.time"), _tracer.span(
        "fast_payment", n=g.n, source=source, target=target
    ):
        return _fast_vcg_payments_impl(
            g, source, target, on_monopoly, backend, spt_source, spt_target
        )


def _fast_vcg_payments_impl(
    g: NodeWeightedGraph,
    source: int,
    target: int,
    on_monopoly: str,
    backend: str,
    spt_i: ShortestPathTree | None = None,
    spt_j: ShortestPathTree | None = None,
) -> FastPaymentResult:
    if _metrics.enabled:
        _metrics.add("fast_payment.runs", 1)
    vectorized = backend != "python"
    spt_backend = spt_backend_for(backend)
    # Steps 1-2: the two shortest path trees, the LCP, and the levels.
    # The LCP is read from SPT(v_j), so every source of one target routes
    # along that target's tree (the tree stage 1 of the distributed
    # protocol builds). The steps then run rooted at v_j: node-model path
    # costs are symmetric, so the avoiding costs of the reversed path are
    # the ones asked for. ``kpath`` is the path in that orientation.
    with _tracer.span("fast_payment.spt_build"):
        if spt_i is None:
            spt_i = node_weighted_spt(g, source, backend=spt_backend)
        if not spt_i.reachable(target):
            raise DisconnectedError(source, target)
        if spt_j is None:
            spt_j = node_weighted_spt(g, target, backend=spt_backend)
        path = spt_j.path_to_root(source)
        kpath = path[::-1]
        s = len(path) - 1
        costs = g.costs
        lcp_cost = canonical_cost(costs, path[1:-1])

        l_til = spt_j.dist + costs  # L~(u); the kernel's root fixed below
        l_til[target] = 0.0
        r_til = spt_i.dist + costs  # R~(v); the kernel's sink fixed below
        r_til[source] = 0.0

        # Step 2: levels (branch labels along the path in SPT(v_j)).
        klevels = spt_j.branch_labels(kpath)
        levels = np.where(klevels >= 0, s - klevels, -1)

    if s <= 1:  # direct edge: nothing to pay
        return FastPaymentResult(
            source, target, tuple(path), lcp_cost, {}, {}, levels
        )

    # Steps 3-5 setup: regions and the crossing-edge table. Both kernels
    # produce ``c_minus`` with a witness per level plus the crossing-edge
    # stream ``(starts, values, expiries, us, vs)`` sorted by entry
    # level, consumed by the sweep.
    with _tracer.span("fast_payment.table_sweep"):
        on_path = np.zeros(g.n, dtype=bool)
        on_path[np.asarray(path, dtype=np.int64)] = True

        if vectorized:
            c_minus, region_wit, region_total, n_regions = _regions_numpy(
                g, klevels, on_path, s, l_til, r_til
            )
            stream = _crossing_edges_numpy(g, klevels, l_til, r_til)
        else:
            c_minus, region_wit, region_total, n_regions = _regions_python(
                g, klevels, on_path, s, l_til, r_til
            )
            stream = _crossing_edges_python(g, klevels, l_til, r_til)
        starts, values, expiries, us, vs = stream
        heap_edges = len(starts)

    with _tracer.span("fast_payment.payment_assembly"):
        # Step 5: per-level crossing-edge minima. An edge is valid for
        # every removal level l with lu < l < lv: it enters the sweep at
        # l = lu + 1 and expires once l >= lv.
        if vectorized:
            crossing_best, crossing_arg = _crossing_minima_numpy(
                starts, values, expiries, s
            )
        else:
            crossing_best, crossing_arg = _crossing_minima_heap(
                starts, values, expiries, s
            )
        # Step 6, relays in path order from the source. Each avoiding
        # cost is reported as the canonical sum over its witness path.
        parent_j = spt_j.parent
        parent_i = spt_i.parent
        avoiding: dict[int, float] = {}
        payments: dict[int, float] = {}
        for fl in range(1, s):
            l = s - fl
            r_l = path[fl]
            cross, region = float(crossing_best[l]), float(c_minus[l])
            if not np.isfinite(min(cross, region)):
                if on_monopoly == "raise":
                    raise MonopolyError(source, target, r_l)
                avoiding[r_l] = float("inf")
                payments[r_l] = float("inf")
                continue
            if cross <= region:
                e = int(crossing_arg[l])
                u, middle, v = int(us[e]), (), int(vs[e])
            else:
                u, middle, v = region_wit[l]
            witness = _tree_chain(parent_j, u, target)
            witness.extend(middle)
            witness.extend(_tree_chain(parent_i, v, source))
            avoid = canonical_cost(costs, witness)
            avoiding[r_l] = avoid
            payments[r_l] = avoid - lcp_cost + float(costs[r_l])

    stats = {
        "path_hops": s,
        "crossing_edges": heap_edges,
        "region_nodes": region_total,
        "regions": n_regions,
    }
    if _metrics.enabled:
        _metrics.add("fast_payment.path_hops", s)
        _metrics.add("fast_payment.crossing_edges", heap_edges)
        _metrics.add("fast_payment.region_nodes", region_total)
    return FastPaymentResult(
        source,
        target,
        tuple(path),
        lcp_cost,
        avoiding,
        payments,
        levels,
        stats,
    )


def _tree_chain(parent: np.ndarray, x: int, root: int) -> list[int]:
    """``x`` and its tree ancestors up to, not including, ``root``."""
    chain = []
    while x != root:
        chain.append(x)
        x = int(parent[x])
    return chain


# ---------------------------------------------------------------------------
# Scalar (oracle) kernels
# ---------------------------------------------------------------------------


def _regions_python(
    g: NodeWeightedGraph,
    levels: np.ndarray,
    on_path: np.ndarray,
    s: int,
    l_til: np.ndarray,
    r_til: np.ndarray,
) -> tuple[np.ndarray, dict[int, tuple], int, int]:
    """Steps 3-4 with per-node Python loops: bucket the off-path nodes by
    level, then run one boundary Dijkstra per region. Returns ``c_minus``,
    the witness ``(u, region chain, y)`` of every finite entry (see
    :func:`_region_candidate`), and the region counts."""
    region_nodes: dict[int, list[int]] = {}
    for x in range(g.n):
        lx = int(levels[x])
        if 1 <= lx <= s - 1 and not on_path[x]:
            region_nodes.setdefault(lx, []).append(x)

    c_minus = np.full(s, np.inf)  # c^{-l}, indexed by l (entries 1..s-1)
    witnesses: dict[int, tuple] = {}
    region_total = 0
    for l, members in region_nodes.items():
        region_total += len(members)
        c_minus[l], wit = _region_candidate(
            g, members, l, levels, l_til, r_til
        )
        if wit is not None:
            witnesses[l] = wit
    return c_minus, witnesses, region_total, len(region_nodes)


def _crossing_edges_python(
    g: NodeWeightedGraph,
    levels: np.ndarray,
    l_til: np.ndarray,
    r_til: np.ndarray,
) -> tuple[list[int], list[float], list[int], list[int], list[int]]:
    """Step-5 table with a per-edge Python loop, as parallel lists
    ``(entry level, L~(u) + R~(v), expiry level, u, v)`` sorted by entry
    level, ``u`` the lower-level endpoint."""
    by_start: dict[int, list[tuple[float, int, int, int]]] = {}
    for u, v in g.edge_iter():
        lu, lv = int(levels[u]), int(levels[v])
        if lu < 0 or lv < 0:
            continue
        if lu > lv:
            u, v, lu, lv = v, u, lv, lu
        if lv - lu < 2:
            continue  # no level strictly between: never a crossing edge
        value = float(l_til[u] + r_til[v])
        if not np.isfinite(value):
            continue
        by_start.setdefault(lu + 1, []).append((value, lv, u, v))
    rows = [
        (start, value, lv, u, v)
        for start in sorted(by_start)
        for value, lv, u, v in by_start[start]
    ]
    if not rows:
        return [], [], [], [], []
    starts, values, expiries, us, vs = (list(col) for col in zip(*rows))
    return starts, values, expiries, us, vs


def _region_candidate(
    g: NodeWeightedGraph,
    members: list[int],
    l: int,
    levels: np.ndarray,
    l_til: np.ndarray,
    r_til: np.ndarray,
) -> tuple[float, tuple | None]:
    """Steps 3-4 for one level-``l`` region.

    Runs a Dijkstra over the region where the tentative value of a region
    node ``x`` is ``R~^{-l}(x)`` — ``c_x`` plus the cheapest continuation
    to the target through levels ``> l`` (closed through ``R~`` of the
    first higher-level neighbour, sound by Lemma 2) — and returns

        ``c^{-l} = min over region x, neighbours u with level(u) < l of
        L~(u) + R~^{-l}(x)``

    with its witness ``(u, [x, ..., x0], y)``: the closing neighbour,
    the region nodes from ``x`` back along the Dijkstra predecessors to
    the seeded ``x0``, and ``x0``'s higher-level neighbour. Ties go to
    the first candidate found. ``None`` when the entry is infinite.

    Only region-internal edges are relaxed, so across all levels the work
    is bounded by the full edge set once.
    """
    costs = g.costs
    in_region = set(members)
    dist: dict[int, float] = {}
    pred: dict[int, int] = {}
    exit_of: dict[int, int] = {}
    pq: list[tuple[float, int]] = []
    for x in members:
        best_boundary = np.inf
        for y in g.neighbors(x):
            if levels[y] > l:
                ry = r_til[y]
                if ry < best_boundary:
                    best_boundary = ry
                    exit_of[x] = int(y)
        if np.isfinite(best_boundary):
            d0 = float(costs[x] + best_boundary)
            dist[x] = d0
            pred[x] = -1
            heapq.heappush(pq, (d0, x))

    settled: set[int] = set()
    while pq:
        dx, x = heapq.heappop(pq)
        if x in settled or dx > dist.get(x, np.inf):
            continue
        settled.add(x)
        for z in g.neighbors(x):
            z = int(z)
            if z in in_region and z not in settled:
                cand = float(costs[z]) + dx
                if cand < dist.get(z, np.inf):
                    dist[z] = cand
                    pred[z] = x
                    heapq.heappush(pq, (cand, z))

    best, arg = np.inf, None
    for x, dx in dist.items():
        for u in g.neighbors(x):
            if levels[u] >= 0 and levels[u] < l:
                cand = float(l_til[u]) + dx
                if cand < best:
                    best, arg = cand, (int(u), x)
    if arg is None:
        return float(best), None
    u, x = arg
    chain = [x]
    while pred[x] >= 0:
        x = pred[x]
        chain.append(x)
    return float(best), (u, chain, exit_of[x])


# ---------------------------------------------------------------------------
# Vectorized kernels
# ---------------------------------------------------------------------------


def _first_min_neighbor(
    g: NodeWeightedGraph, vals: np.ndarray, x: int, best: float
) -> int:
    """The smallest-id neighbour of ``x`` whose arc value ``vals`` is the
    row minimum ``best`` (CSR rows are sorted: the first hit of the row,
    the one the scalar scans keep)."""
    lo, hi = int(g.indptr[x]), int(g.indptr[x + 1])
    return int(g.indices[lo + int(np.flatnonzero(vals[lo:hi] == best)[0])])


def _neighbor_closures(
    g: NodeWeightedGraph,
    levels: np.ndarray,
    l_til: np.ndarray,
    r_til: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-node boundary/closing minima for every region at once.

    A region node ``x`` sits at level ``l = levels[x]``, so its boundary
    closure (step 3: cheapest ``R~`` over neighbours with level > l) and
    its closing term (step 4: cheapest ``L~`` over neighbours with
    0 <= level < l) compare each neighbour's level against *x's own* —
    one whole-array pass over the CSR arcs covers all regions:

    * ``best_hi[x] = min(R~(y) : y ~ x, levels[y] > levels[x])``
    * ``best_lo[x] = min(L~(u) : u ~ x, 0 <= levels[u] < levels[x])``

    plus the per-arc values they reduce (``vals_hi``, ``vals_lo``), from
    which :func:`_first_min_neighbor` recovers a witness's neighbour.
    Minima are order-independent, so the values equal the scalar scans'
    bit for bit.
    """
    n = g.n
    best_hi = np.full(n, np.inf)
    best_lo = np.full(n, np.inf)
    arcs = g.indices
    if arcs.shape[0] == 0:
        return best_hi, best_lo, np.empty(0), np.empty(0)
    src = g.arc_sources()
    l_src = levels[src]
    l_dst = levels[arcs]
    vals_hi = np.where(l_dst > l_src, r_til[arcs], np.inf)
    vals_lo = np.where((l_dst >= 0) & (l_dst < l_src), l_til[arcs], np.inf)
    # Per-node min over each CSR row. reduceat misbehaves on empty rows
    # (it returns the *next* row's first element) and rejects an offset
    # equal to len(vals), which trailing degree-0 nodes produce. Append
    # an inf sentinel — the identity for min — so every raw indptr
    # offset is a valid index and every non-empty row's segment stays
    # intact, then overwrite only the rows that actually have arcs.
    # (Clipping the offsets instead would silently drop the last arc of
    # the final non-empty row whenever trailing nodes have degree 0.)
    sentinel = np.array([np.inf])
    row_starts = g.indptr[:-1]
    has_arcs = g.degrees > 0
    best_hi[has_arcs] = np.minimum.reduceat(
        np.concatenate([vals_hi, sentinel]), row_starts
    )[has_arcs]
    best_lo[has_arcs] = np.minimum.reduceat(
        np.concatenate([vals_lo, sentinel]), row_starts
    )[has_arcs]
    return best_hi, best_lo, vals_hi, vals_lo


def _regions_numpy(
    g: NodeWeightedGraph,
    levels: np.ndarray,
    on_path: np.ndarray,
    s: int,
    l_til: np.ndarray,
    r_til: np.ndarray,
) -> tuple[np.ndarray, dict[int, tuple], int, int]:
    """Steps 3-4, vectorized: mask + argsort bucketing instead of the
    per-node loop, shared closure arrays instead of per-member neighbour
    scans, and *one* relaxation solve covering every region at once
    (regions are disjoint, so the merged solve relaxes only the
    region-internal arcs the per-region Dijkstras did).
    Witnesses as in :func:`_regions_python`."""
    c_minus = np.full(s, np.inf)  # c^{-l}, indexed by l (entries 1..s-1)
    mask = (levels >= 1) & (levels <= s - 1) & ~on_path
    members_all = np.nonzero(mask)[0]
    if members_all.size == 0:
        return c_minus, {}, 0, 0
    best_hi, best_lo, vals_hi, vals_lo = _neighbor_closures(
        g, levels, l_til, r_til
    )
    order = np.argsort(levels[members_all], kind="stable")
    members_all = members_all[order]
    member_levels = levels[members_all]
    run_breaks = np.nonzero(np.diff(member_levels))[0] + 1
    dist, pred = _region_distances(g, mask, levels, members_all, best_hi)
    # Step 4: close every region node through its cheapest lower-level
    # neighbour; min per level-contiguous group. Unreached nodes carry
    # dist=inf and nodes without a lower neighbour carry best_lo=inf, so
    # they contribute +inf and drop out of the min, exactly like the
    # scalar scan that only visits reached nodes.
    vals = best_lo[members_all] + dist
    group_starts = np.concatenate([np.zeros(1, dtype=np.int64), run_breaks])
    group_min = np.minimum.reduceat(vals, group_starts)
    c_minus[member_levels[group_starts]] = group_min
    # One witness per finite level: its first minimal member, walked back
    # along the region predecessors to the seeded node.
    nm = members_all.shape[0]
    witnesses: dict[int, tuple] = {}
    group_ends = np.append(group_starts[1:], nm)
    for lo, hi, best in zip(
        group_starts.tolist(), group_ends.tolist(), group_min.tolist()
    ):
        if not np.isfinite(best):
            continue
        k = lo + int(np.flatnonzero(vals[lo:hi] == best)[0])
        x = int(members_all[k])
        u = _first_min_neighbor(g, vals_lo, x, best_lo[x])
        chain = [x]
        while pred[x] >= 0:
            x = int(pred[x])
            chain.append(x)
        y = _first_min_neighbor(g, vals_hi, chain[-1], best_hi[chain[-1]])
        witnesses[int(member_levels[lo])] = (u, chain, y)
    return c_minus, witnesses, int(nm), int(group_starts.shape[0])


def _region_distances(
    g: NodeWeightedGraph,
    mask: np.ndarray,
    levels: np.ndarray,
    members: np.ndarray,
    best_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """All the step-3 boundary Dijkstras in one :func:`relax_arcs` solve.

    Regions are pairwise disjoint and only region-internal edges are
    relaxed, so gluing them into one graph — the arcs whose endpoints
    are region nodes of one level, each member seeded with
    ``c_x + best_hi[x]`` — leaves the regions disconnected from each
    other, and one solve computes every region's ``R~^{-l}`` vector at
    once. Returns the distances, indexed like ``members``, and the
    predecessors over node ids (``-1`` for a seeded node).

    The distances pick the minima; the reported avoiding costs are the
    canonical sums over the witness paths these predecessors trace.
    """
    src = g.arc_sources()
    keep = mask[src] & mask[g.indices]
    keep &= levels[src] == levels[g.indices]
    heads = g.indices[keep]
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=g.n), out=indptr[1:])
    dist = np.full(g.n, np.inf)
    pred = np.full(g.n, -1, dtype=np.int64)
    seeds = members[np.isfinite(best_hi[members])]
    dist[seeds] = g.costs[seeds] + best_hi[seeds]
    # Relax by head cost, as the oracle.
    relax_arcs(indptr, heads, g.costs[heads], dist, pred, seeds)
    return dist[members], pred


def _crossing_edges_numpy(
    g: NodeWeightedGraph,
    levels: np.ndarray,
    l_til: np.ndarray,
    r_til: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Step-5 table as whole-array numpy filters over the CSR arcs.

    Returns the same ``(entry level, value, expiry level, u, v)`` stream
    as :func:`_crossing_edges_python`, in the same order: the
    ``src < dst`` arc mask enumerates undirected edges exactly in
    ``edge_iter`` order, and the stable sort groups them by entry level
    without reshuffling.
    """
    arcs = g.indices
    empty = np.empty(0, dtype=np.int64)
    if arcs.shape[0] == 0:
        return empty, np.empty(0), empty, empty, empty
    src = g.arc_sources()
    keep = src < arcs
    u = src[keep]
    v = arcs[keep]
    lu = levels[u]
    lv = levels[v]
    swap = lu > lv
    u_low = np.where(swap, v, u)
    v_high = np.where(swap, u, v)
    l_low = np.minimum(lu, lv)
    l_high = np.maximum(lu, lv)
    value = l_til[u_low] + r_til[v_high]
    crossing = (l_low >= 0) & (l_high - l_low >= 2) & np.isfinite(value)
    starts = l_low[crossing] + 1
    order = np.argsort(starts, kind="stable")
    return (
        starts[order],
        value[crossing][order],
        l_high[crossing][order],
        u_low[crossing][order],
        v_high[crossing][order],
    )


def _crossing_minima_heap(
    starts, values, expiries, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-level minimum over the valid crossing edges, as a
    lazy-deletion heap sweep (the step-5 structure the paper describes:
    each edge enters and leaves the heap once). Also returns the stream
    index of each level's minimal edge (-1 where none): the heap breaks
    priority ties by push order, so it is the earliest in the stream."""
    best = np.full(s, np.inf)
    arg = np.full(s, -1, dtype=np.int64)
    heap = LazyMinHeap()
    heap_edges = len(starts)
    next_edge = 0
    for l in range(1, s):
        while next_edge < heap_edges and starts[next_edge] <= l:
            heap.push(
                float(values[next_edge]),
                (int(expiries[next_edge]), next_edge),
            )
            next_edge += 1
        entry = heap.peek_valid(lambda p, _l=l: p[0] > _l)
        if entry is not None:
            best[l] = entry[0]
            arg[l] = entry[1][1]
    return best, arg


def _crossing_minima_numpy(
    starts: np.ndarray,
    values: np.ndarray,
    expiries: np.ndarray,
    s: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-level minimum over the valid crossing edges, vectorized.

    Expands each edge into its validity levels ``start .. expiry-1``
    (one ``np.repeat`` incidence stream), then sorts by level, value and
    stream index, so each level's first entry is its minimum and, among
    equal values, the earliest edge of the stream — the heap sweep's
    answer bit for bit. Falls back to the heap when the summed validity
    spans blow up past the O(E log E) regime (long paths crossed by long
    edges), keeping the worst case bounded.
    """
    best = np.full(s, np.inf)
    arg = np.full(s, -1, dtype=np.int64)
    n_edges = int(len(starts))
    if n_edges == 0:
        return best, arg
    lengths = expiries - starts
    total = int(lengths.sum())
    if total > 4 * n_edges + 65536:
        return _crossing_minima_heap(starts, values, expiries, s)
    offsets = np.cumsum(lengths) - lengths
    pos = np.arange(total, dtype=np.int64) - np.repeat(offsets, lengths)
    idx = np.repeat(starts, lengths) + pos
    vals = np.repeat(values, lengths)
    eid = np.repeat(np.arange(n_edges, dtype=np.int64), lengths)
    order = np.lexsort((eid, vals, idx))
    idx = idx[order]
    group_starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.nonzero(np.diff(idx))[0] + 1]
    )
    first = order[group_starts]
    best[idx[group_starts]] = vals[first]
    arg[idx[group_starts]] = eid[first]
    return best, arg
