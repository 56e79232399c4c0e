"""Shortest-path tests: backends agree with each other and with networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import generators as gen
from repro.graph.dijkstra import (
    link_weighted_distance,
    link_weighted_spt,
    node_weighted_dist,
    node_weighted_distance,
    node_weighted_spt,
    node_weighted_spt_many,
)

from conftest import biconnected_graphs, count_handoffs, deep_graphs, robust_digraphs


def nx_node_weighted_dists(g, root):
    """Oracle: node-weighted distances via the half-sum edge transform."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    for u, v in g.edge_iter():
        h.add_edge(u, v, weight=0.5 * (g.costs[u] + g.costs[v]))
    raw = nx.single_source_dijkstra_path_length(h, root)
    return {
        x: d - 0.5 * (g.costs[root] + g.costs[x]) if x != root else 0.0
        for x, d in raw.items()
    }


class TestNodeWeightedSpt:
    def test_small_graph_by_hand(self, small_graph):
        # ring 0-1-2-3-4-5-0 with costs [0,1,2,3,4,5]
        spt = node_weighted_spt(small_graph, 0, backend="python")
        assert spt.dist[1] == 0.0  # adjacent: no relays
        assert spt.dist[2] == 1.0  # via node 1
        assert spt.dist[3] == 3.0  # via 1,2
        assert spt.dist[4] == 5.0  # via 5 (cost 5) vs via 1,2,3 (6)
        assert spt.dist[5] == 0.0

    def test_path_extraction(self, small_graph):
        spt = node_weighted_spt(small_graph, 0)
        assert spt.path_from_root(3) == [0, 1, 2, 3]
        assert spt.path_from_root(4) == [0, 5, 4]

    @given(biconnected_graphs(max_nodes=20), st.integers(0, 10**6))
    def test_backends_agree(self, g, seed):
        root = seed % g.n
        a = node_weighted_spt(g, root, backend="python")
        b = node_weighted_spt(g, root, backend="scipy")
        assert np.allclose(a.dist, b.dist)

    @given(biconnected_graphs(max_nodes=20))
    def test_matches_networkx(self, g):
        spt = node_weighted_spt(g, 0, backend="python")
        oracle = nx_node_weighted_dists(g, 0)
        for x in range(g.n):
            assert spt.dist[x] == pytest.approx(oracle[x], abs=1e-9)

    @given(biconnected_graphs(max_nodes=16))
    def test_paths_realize_distances(self, g):
        spt = node_weighted_spt(g, 0, backend="python")
        for x in range(g.n):
            path = spt.path_from_root(x)
            assert g.path_cost(path) == pytest.approx(float(spt.dist[x]))

    def test_forbidden_nodes_are_avoided(self, small_graph):
        spt = node_weighted_spt(small_graph, 0, forbidden=[1], backend="python")
        assert not np.isfinite(spt.dist[1])
        # 3 now reachable only the long way via 5, 4
        assert spt.dist[3] == pytest.approx(9.0)

    def test_forbidden_root_rejected(self, small_graph):
        with pytest.raises(GraphError, match="forbidden"):
            node_weighted_spt(small_graph, 0, forbidden=[0])

    def test_forbidden_boolean_mask(self, small_graph):
        mask = np.zeros(6, dtype=bool)
        mask[1] = True
        spt = node_weighted_spt(small_graph, 0, forbidden=mask, backend="python")
        assert spt.dist[3] == pytest.approx(9.0)

    def test_unknown_backend(self, small_graph):
        with pytest.raises(ValueError, match="backend"):
            node_weighted_spt(small_graph, 0, backend="gpu")

    def test_distance_helper(self, small_graph):
        assert node_weighted_distance(small_graph, 0, 3) == 3.0
        assert node_weighted_distance(small_graph, 2, 2) == 0.0

    def test_disconnected_gives_inf(self):
        from repro.graph.node_graph import NodeWeightedGraph

        g = NodeWeightedGraph(4, [(0, 1), (2, 3)], [1, 1, 1, 1])
        spt = node_weighted_spt(g, 0, backend="python")
        assert not np.isfinite(spt.dist[2])


class TestLinkWeightedSpt:
    @given(robust_digraphs(max_nodes=16), st.integers(0, 10**6))
    def test_backends_agree_both_directions(self, dg, seed):
        root = seed % dg.n
        for direction in ("from", "to"):
            a = link_weighted_spt(dg, root, direction=direction, backend="python")
            b = link_weighted_spt(dg, root, direction=direction, backend="scipy")
            assert np.allclose(a.dist, b.dist)

    @given(robust_digraphs(max_nodes=14))
    def test_matches_networkx(self, dg):
        h = dg.to_networkx()
        spt_from = link_weighted_spt(dg, 0, direction="from", backend="python")
        spt_to = link_weighted_spt(dg, 0, direction="to", backend="python")
        for x in range(dg.n):
            assert spt_from.dist[x] == pytest.approx(
                nx.dijkstra_path_length(h, 0, x), abs=1e-9
            )
            assert spt_to.dist[x] == pytest.approx(
                nx.dijkstra_path_length(h, x, 0), abs=1e-9
            )

    @given(robust_digraphs(max_nodes=14))
    def test_to_root_paths_are_forward_walks(self, dg):
        spt = link_weighted_spt(dg, 0, direction="to", backend="python")
        for x in range(1, dg.n):
            route = spt.path_to_root(x)
            assert route[0] == x and route[-1] == 0
            assert dg.path_cost(route) == pytest.approx(float(spt.dist[x]))

    def test_direction_validated(self, random_digraph):
        with pytest.raises(ValueError, match="direction"):
            link_weighted_spt(random_digraph, 0, direction="sideways")

    def test_distance_helper(self, random_digraph):
        d = link_weighted_distance(random_digraph, 3, 0)
        spt = link_weighted_spt(random_digraph, 3, direction="from")
        assert d == pytest.approx(float(spt.dist[0]))

    def test_zero_weight_arcs_exact(self):
        from repro.graph.link_graph import LinkWeightedDigraph

        dg = LinkWeightedDigraph(3, [(0, 1, 0.0), (1, 2, 0.0), (0, 2, 5.0)])
        spt = link_weighted_spt(dg, 0, direction="from", backend="scipy")
        assert spt.dist[2] == 0.0


class TestNodeWeightedSptMany:
    """Batched multi-source construction agrees exactly with per-source."""

    def _assert_tree_equal(self, a, b):
        assert a.root == b.root
        assert a.dist.tobytes() == b.dist.tobytes()  # bit-identical floats
        assert np.array_equal(a.parent, b.parent)  # canonical trees

    @given(biconnected_graphs(max_nodes=40))
    def test_matches_per_source_scipy(self, g):
        sources = list(range(min(g.n, 7)))
        many = node_weighted_spt_many(g, sources, backend="scipy")
        assert set(many) == set(sources)
        for s in sources:
            self._assert_tree_equal(
                many[s], node_weighted_spt(g, s, backend="scipy")
            )

    @given(biconnected_graphs(max_nodes=30))
    def test_scipy_batch_matches_python_oracle(self, g):
        sources = [0, g.n - 1, g.n // 2]
        many = node_weighted_spt_many(g, sources, backend="scipy")
        for s in set(sources):
            oracle = node_weighted_spt(g, s, backend="python")
            assert many[s].dist.tobytes() == oracle.dist.tobytes()

    def test_random_udg_instances(self):
        from repro.wireless.topology import build_node_graph_from_udg

        rng = np.random.default_rng(42)
        for trial in range(5):
            n = int(rng.integers(60, 160))
            pts = rng.uniform(0, 1000, size=(n, 2))
            costs = rng.uniform(0.0, 10.0, size=n)
            g = build_node_graph_from_udg(pts, 220.0, costs)
            sources = rng.integers(0, n, size=12).tolist()
            many = node_weighted_spt_many(g, sources)
            for s in set(sources):
                per = node_weighted_spt(g, s)
                assert many[s].dist.tobytes() == per.dist.tobytes()

    def test_disconnected_graph(self):
        from repro.graph.node_graph import NodeWeightedGraph

        # two components: 0-1-2 and 3-4
        g = NodeWeightedGraph(
            5, [(0, 1), (1, 2), (3, 4)], [1.0, 2.0, 3.0, 4.0, 5.0]
        )
        many = node_weighted_spt_many(g, [0, 3], backend="scipy")
        assert many[0].dist[3] == np.inf and many[0].parent[3] == -1
        assert many[3].dist[4] == 0.0
        for s in (0, 3):
            per = node_weighted_spt(g, s, backend="scipy")
            assert many[s].dist.tobytes() == per.dist.tobytes()
            assert np.array_equal(many[s].parent, per.parent)

    def test_duplicates_collapse(self):
        g = gen.random_biconnected_graph(20, seed=1)
        many = node_weighted_spt_many(g, [3, 3, 3, 5, 5])
        assert set(many) == {3, 5}

    def test_singleton_source_list(self):
        g = gen.random_biconnected_graph(70, seed=2)
        many = node_weighted_spt_many(g, [4], backend="scipy")
        per = node_weighted_spt(g, 4, backend="scipy")
        assert many[4].dist.tobytes() == per.dist.tobytes()

    def test_empty_sources(self):
        g = gen.random_biconnected_graph(10, seed=3)
        assert node_weighted_spt_many(g, []) == {}

    def test_python_backend_is_per_source_oracle(self):
        g = gen.random_biconnected_graph(15, seed=4)
        many = node_weighted_spt_many(g, [0, 7], backend="python")
        for s in (0, 7):
            per = node_weighted_spt(g, s, backend="python")
            assert np.array_equal(many[s].dist, per.dist)
            assert np.array_equal(many[s].parent, per.parent)

    def test_zero_cost_nodes_exact(self):
        from repro.graph.node_graph import NodeWeightedGraph

        g = NodeWeightedGraph(
            4, [(0, 1), (1, 2), (2, 3), (0, 3)], [0.0, 0.0, 0.0, 0.0]
        )
        many = node_weighted_spt_many(g, [0, 2], backend="scipy")
        assert many[0].dist[2] == 0.0
        assert many[2].dist[0] == 0.0

    def test_bad_source_rejected(self):
        g = gen.random_biconnected_graph(8, seed=5)
        with pytest.raises(Exception):
            node_weighted_spt_many(g, [0, 99])

    def test_bad_backend_rejected(self):
        g = gen.random_biconnected_graph(8, seed=5)
        with pytest.raises(ValueError, match="backend"):
            node_weighted_spt_many(g, [0], backend="cuda")

    def test_handoff_metrics(self):
        from repro.graph.dijkstra import _handoff_rounds
        from repro.graph.node_graph import NodeWeightedGraph
        from repro.obs.metrics import REGISTRY

        g = self._udg(120, 6)
        n = 400
        path = NodeWeightedGraph(n, [(i, i + 1) for i in range(n - 1)], np.ones(n))
        REGISTRY.reset()
        REGISTRY.enable()
        try:
            node_weighted_spt_many(g, [0, 1, 2])
            shallow = REGISTRY.snapshot()
            node_weighted_spt(path, 0)
            deep = REGISTRY.snapshot()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert shallow.counters["dijkstra.runs"] == 3
        assert 3 <= shallow.counters["dijkstra.relax_rounds"] < 3 * _handoff_rounds(120)
        assert "dijkstra.handoffs" not in shallow.counters
        # A 400-hop path outruns the round bound and finishes in scipy.
        assert deep.counters["dijkstra.handoffs"] == 1
        assert deep.counters["dijkstra.scipy_runs"] == 1
        assert (
            deep.counters["dijkstra.relax_rounds"]
            - shallow.counters["dijkstra.relax_rounds"]
            == _handoff_rounds(n)
        )

    @staticmethod
    def _udg(n, seed, isolated=False):
        """``n`` nodes at the benchmark density (2000 m square per 500
        nodes, 300 m range), continuous costs; ``isolated`` moves the
        last node out of everyone's range (a degree-0 root)."""
        from repro.wireless.topology import build_node_graph_from_udg

        rng = np.random.default_rng(seed)
        side = 2000.0 * np.sqrt(n / 500)
        pts = rng.uniform(0.0, side, size=(n, 2))
        if isolated:
            pts[-1] = (10 * side, 10 * side)
        return build_node_graph_from_udg(
            pts, 300.0, rng.uniform(1.0, 10.0, size=n)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_sources_cross_blocks_exactly(self, seed):
        from repro.core.allpairs import pairwise_vcg_payments

        n = 105 + seed
        g = self._udg(n, seed, isolated=True)
        assert g.indptr[n] == g.indptr[n - 1]  # the last node has degree 0
        sources = [5, *range(n), 5]  # a duplicate at both ends
        many = node_weighted_spt_many(g, sources, backend="scipy")
        assert list(many) == [5, *(s for s in range(n) if s != 5)]
        for s in range(n):
            per = node_weighted_spt(g, s, backend="scipy")
            assert many[s].root == s
            assert many[s].dist.tobytes() == per.dist.tobytes()
            assert np.array_equal(many[s].parent, per.parent)
            # A surviving tree must not pin a view of a larger result.
            assert many[s].dist.base is None and many[s].parent.base is None
        assert np.all(many[n - 1].parent == -1)

        target = 0
        reach = many[target].dist
        pairs = [(s, target) for s in range(1, n) if np.isfinite(reach[s])]
        assert len(pairs) > 64
        batched = pairwise_vcg_payments(g, pairs)
        oracle = pairwise_vcg_payments(g, pairs, backend="numpy")
        for key in pairs:
            assert batched[key].path == oracle[key].path
            assert dict(batched[key].payments) == dict(oracle[key].payments)

    def test_transient_memory_is_bounded(self):
        import tracemalloc

        g = self._udg(1000, 4)
        node_weighted_spt_many(g, [0, 1])  # cache the arc arrays
        tracemalloc.start()
        try:
            trees = node_weighted_spt_many(g, range(g.n))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trees) == g.n
        # The kept trees are ~16 MiB; a single all-sources solve would
        # hold a dense n x 2n result on top of them (~24 MiB at n = 1000).
        assert (peak - current) / 2**20 < 8.0


class TestConcurrentSciPyBuilds:
    """The cached tail-cost arc weights are shared across threads (the
    pricing engine's read lock admits concurrent builders), so no build
    may patch them: a thread solving root A while another patches root
    B would see B's outgoing arcs zeroed and return trees cheaper than
    any real path."""

    def test_cached_arc_weights_stay_immutable_across_builds(self):
        g = gen.random_biconnected_graph(200, seed=17)
        weights = g.arc_tail_costs()
        before = weights.copy()
        for root in (0, 5, 9):
            node_weighted_spt(g, root, backend="scipy")
        assert g.arc_tail_costs() is weights
        assert not weights.flags.writeable
        assert np.array_equal(weights, before)

    def test_concurrent_builds_bit_identical_to_serial(self):
        import threading

        g = gen.random_biconnected_graph(200, seed=23)
        g.arc_tail_costs()  # build the shared arc weights once up front
        roots = list(range(16))
        serial = {r: node_weighted_spt(g, r, backend="scipy") for r in roots}

        failures = []
        barrier = threading.Barrier(len(roots), timeout=30)

        def build(root):
            try:
                barrier.wait()
                for _ in range(20):
                    spt = node_weighted_spt(g, root, backend="scipy")
                    if not (
                        np.array_equal(spt.dist, serial[root].dist)
                        and np.array_equal(spt.parent, serial[root].parent)
                    ):
                        failures.append(root)
                        return
            except BaseException as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        threads = [
            threading.Thread(target=build, args=(r,)) for r in roots
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures, failures


class TestCanonicalTrees:
    """Every node-model tree is canonical: each parent is the
    smallest-id tight neighbour, so the heap and relaxation builds agree
    on ``parent`` even when equal-cost paths abound. Behind zero-cost
    relays, where a tree keeps its solver's parents, every parent is
    still tight and the tree acyclic."""

    @staticmethod
    def _assert_tight_acyclic(g, root, dist, parent):
        w = g.costs.copy()
        w[root] = 0.0
        for x in range(g.n):
            if x == root or dist[x] == np.inf:
                assert parent[x] == -1, x
                continue
            p = parent[x]
            assert g.has_edge(int(p), x) and dist[x] == dist[p] + w[p], x
            seen = set()
            while x != root:
                assert x not in seen
                seen.add(x)
                x = parent[x]

    @classmethod
    def _assert_heap_identical(cls, g, roots, zero_costs=False):
        """Every relaxation build against the heap Dijkstra: ``dist``
        bit for bit, and ``parent`` too unless zero costs allow another
        tight tree (then both trees are checked tight and acyclic)."""
        from repro.graph.dijkstra import _node_solve

        for root in roots:
            py = node_weighted_spt(g, root, backend="python")
            dist, pred = _node_solve(g, root, True)
            assert dist.tobytes() == py.dist.tobytes(), root
            cls._assert_tight_acyclic(g, root, dist, pred)
            for backend in ("auto", "scipy"):
                vec = node_weighted_spt(g, root, backend=backend)
                assert vec.dist.tobytes() == py.dist.tobytes(), root
                if zero_costs:
                    cls._assert_tight_acyclic(g, root, vec.dist, vec.parent)
                    cls._assert_tight_acyclic(g, root, py.dist, py.parent)
                else:
                    assert np.array_equal(vec.parent, py.parent), root

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_zero_cost_relays(self, seed):
        g = gen.random_biconnected_graph(60, extra_edge_prob=0.1, seed=seed)
        rng = np.random.default_rng(seed)
        costs = rng.integers(0, 3, size=g.n).astype(float)  # a third are 0
        self._assert_heap_identical(g.with_costs(costs), range(g.n), True)

    def test_kernel_integer_ties_on_a_grid(self):
        from conftest import _grid_edges
        from repro.graph.node_graph import NodeWeightedGraph

        g = NodeWeightedGraph(64, _grid_edges(8, 8), np.ones(64))
        self._assert_heap_identical(g, range(g.n))

    def test_kernel_disconnected_degree_zero_and_tiny(self):
        from repro.graph.node_graph import NodeWeightedGraph

        # Components {0..4} and {5, 6, 7}; nodes 8 and 9 have degree 0.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3),
                 (5, 6), (6, 7), (7, 5)]
        g = NodeWeightedGraph(10, edges, np.arange(1.0, 11.0))
        self._assert_heap_identical(g, range(g.n))
        for n in (1, 2, 3):
            for edges in ([], [(0, 1)], [(0, 1), (1, 2)],
                          [(0, 1), (1, 2), (2, 0)]):
                if all(v < n for e in edges for v in e):
                    for costs in (np.arange(1.0, n + 1.0), np.zeros(n)):
                        g = NodeWeightedGraph(n, edges, costs)
                        self._assert_heap_identical(g, range(n), True)

    @pytest.mark.parametrize("zero_frac", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("name", ["path", "ladder", "grid", "lollipop"])
    def test_deep_graphs_hand_off(self, name, zero_frac):
        # Hundreds of hops outrun the relaxation round bound: the solve
        # finishes in scipy, seeded from its labels with zero weights and
        # zero labels passed as they are, and still matches the heap.
        g = deep_graphs(seed=1, zero_frac=zero_frac)[name]
        roots = [0, g.n // 2, g.n - 1]
        with count_handoffs() as seen:
            for root in roots:
                node_weighted_spt(g, root)
        assert seen.count == len(roots)
        self._assert_heap_identical(g, roots, zero_costs=zero_frac > 0.0)

    def test_relay_below_the_ulp_keeps_the_solver_parent(self):
        # Node 3's one predecessor, 2, costs 1: below the ulp of
        # dist[2] = 1e17, so 2 is not strictly closer than 3 and the
        # canonical pass leaves 3 to the solver's parent, with no
        # zero-cost relay in the graph.
        from repro.graph.node_graph import NodeWeightedGraph

        g = NodeWeightedGraph(4, [(0, 1), (1, 2), (2, 3)], [1.0, 1e17, 1.0, 1.0])
        for backend in ("python", "auto"):
            spt = node_weighted_spt(g, 0, backend=backend)
            assert spt.dist[3] == spt.dist[2] == 1e17
            assert spt.parent.tolist() == [-1, 0, 1, 2]

    def test_scipy_keeps_explicit_zero_arcs(self):
        # What the hand-off relies on to pass zeros unnudged: an explicit
        # 0 in CSR data is a zero-weight arc to scipy, not a missing one.
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        mat = csr_matrix(
            (np.array([0.0, 0.0, 1.0]), np.array([1, 2, 2]), np.array([0, 2, 3, 3])),
            shape=(3, 3),
        )
        assert mat.nnz == 3
        dist, pred = dijkstra(mat, directed=True, indices=0, return_predecessors=True)
        assert dist.tolist() == [0.0, 0.0, 0.0]
        assert pred.tolist()[1:] == [0, 0]

    @pytest.mark.parametrize("n", [20, 100])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_backends_agree_on_parents_under_ties(self, n, seed):
        g = gen.random_biconnected_graph(n, extra_edge_prob=0.15, seed=seed)
        rng = np.random.default_rng(seed)
        g = g.with_costs(rng.integers(1, 4, size=n).astype(float))
        many = node_weighted_spt_many(g, range(n))
        for root in range(n):
            py = node_weighted_spt(g, root, backend="python")
            sp = node_weighted_spt(g, root, backend="scipy")
            assert py.dist.tobytes() == sp.dist.tobytes(), root
            assert np.array_equal(py.parent, sp.parent), root
            assert np.array_equal(py.parent, many[root].parent), root

    @pytest.mark.parametrize("backend", ["auto", "python"])
    def test_dist_only_solve_matches_the_tree(self, backend):
        # The engine's update witnesses read ``dist`` alone; the
        # predecessor-free solve must give the tree's floats bit for bit,
        # disconnected nodes (a removed node) included.
        g = gen.random_biconnected_graph(60, seed=4).without_node(7)
        for root in range(g.n):
            want = node_weighted_spt(g, root, backend=backend).dist
            got = node_weighted_dist(g, root, backend=backend)
            assert got.tobytes() == want.tobytes(), root

    def test_parent_is_smallest_tight_neighbour(self):
        # Diamond 0-{1,2}-3: both relays cost 1, so 3 ties between them.
        from repro.graph.node_graph import NodeWeightedGraph

        g = NodeWeightedGraph(
            4, [(0, 2), (0, 1), (2, 3), (1, 3)], [5.0, 1.0, 1.0, 5.0]
        )
        for backend in ("python", "scipy"):
            assert node_weighted_spt(g, 0, backend=backend).parent[3] == 1
            assert node_weighted_spt(g, 3, backend=backend).parent[0] == 1

    def test_zero_cost_relays_keep_a_valid_tree(self):
        # All costs 0: every node ties at distance 0, and the pass must
        # not turn zero-cost ties into a cycle.
        from repro.graph.node_graph import NodeWeightedGraph

        g = NodeWeightedGraph(
            5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)], [0.0] * 5
        )
        for backend in ("python", "auto"):
            spt = node_weighted_spt(g, 0, backend=backend)
            for x in range(1, 5):
                path = spt.path_from_root(x)
                assert path[0] == 0 and path[-1] == x
                assert len(path) == len(set(path))
