"""Tests for the node-weighted graph model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidGraphError, NodeNotFoundError
from repro.graph.node_graph import NodeWeightedGraph

from conftest import biconnected_graphs


class TestConstruction:
    def test_basic(self, small_graph):
        assert small_graph.n == 6
        assert small_graph.num_edges == 6

    def test_duplicate_edges_coalesce(self):
        g = NodeWeightedGraph(3, [(0, 1), (1, 0), (0, 1)], [1, 1, 1])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidGraphError, match="self-loop"):
            NodeWeightedGraph(3, [(1, 1)], [1, 1, 1])

    def test_out_of_range_edge(self):
        with pytest.raises(InvalidGraphError, match="out of range"):
            NodeWeightedGraph(3, [(0, 3)], [1, 1, 1])

    def test_negative_cost_rejected(self):
        with pytest.raises(InvalidGraphError):
            NodeWeightedGraph(2, [(0, 1)], [1.0, -2.0])

    def test_cost_length_mismatch(self):
        with pytest.raises(InvalidGraphError):
            NodeWeightedGraph(3, [(0, 1)], [1.0, 2.0])

    def test_empty_graph(self):
        g = NodeWeightedGraph(0, [], [])
        assert g.n == 0 and g.num_edges == 0

    def test_edgeless_graph(self):
        g = NodeWeightedGraph(3, [], [1, 2, 3])
        assert g.num_edges == 0
        assert g.degree(0) == 0

    def test_costs_are_read_only(self, small_graph):
        with pytest.raises(ValueError):
            small_graph.costs[0] = 9.0

    def test_from_edge_list(self):
        g = NodeWeightedGraph.from_edge_list([(0, 1), (1, 2)], [1, 2, 3])
        assert g.n == 3 and g.num_edges == 2

    def test_from_networkx_roundtrip(self, small_graph):
        g2 = NodeWeightedGraph.from_networkx(small_graph.to_networkx())
        assert g2 == small_graph

    def test_from_networkx_requires_contiguous_labels(self):
        import networkx as nx

        h = nx.Graph()
        h.add_edge("a", "b")
        with pytest.raises(InvalidGraphError, match="0..n-1"):
            NodeWeightedGraph.from_networkx(h)


class TestQueries:
    def test_neighbors_sorted(self, small_graph):
        assert small_graph.neighbors(0).tolist() == [1, 5]

    def test_degree(self, small_graph):
        assert small_graph.degree(0) == 2
        assert small_graph.degrees.tolist() == [2] * 6

    def test_has_edge_symmetric(self, small_graph):
        assert small_graph.has_edge(0, 1)
        assert small_graph.has_edge(1, 0)
        assert not small_graph.has_edge(0, 3)

    def test_edge_iter_each_edge_once(self, small_graph):
        edges = list(small_graph.edge_iter())
        assert len(edges) == small_graph.num_edges
        assert all(u < v for u, v in edges)

    def test_edge_array_matches_iter(self, random_graph):
        arr = random_graph.edge_array()
        assert sorted(map(tuple, arr.tolist())) == sorted(random_graph.edge_iter())

    def test_closed_neighborhood(self, small_graph):
        assert sorted(small_graph.closed_neighborhood(0).tolist()) == [0, 1, 5]


class TestPathCost:
    def test_internal_cost_only(self, small_graph):
        # path 0-1-2-3: internal nodes 1, 2 -> cost 3
        assert small_graph.path_cost([0, 1, 2, 3]) == 3.0

    def test_short_paths_cost_zero(self, small_graph):
        assert small_graph.path_cost([0]) == 0.0
        assert small_graph.path_cost([0, 1]) == 0.0

    def test_broken_path_rejected(self, small_graph):
        with pytest.raises(InvalidGraphError, match="missing edge"):
            small_graph.path_cost([0, 2])

    def test_is_path(self, small_graph):
        assert small_graph.is_path([0, 1, 2])
        assert not small_graph.is_path([0, 2])
        assert not small_graph.is_path([0, 1, 0])  # repeats


class TestModification:
    def test_with_costs_shares_topology(self, small_graph):
        g2 = small_graph.with_costs(np.ones(6))
        assert g2.indptr is small_graph.indptr
        assert g2.costs.tolist() == [1.0] * 6

    def test_with_declaration(self, small_graph):
        g2 = small_graph.with_declaration(2, 99.0)
        assert g2.costs[2] == 99.0
        assert small_graph.costs[2] == 2.0  # original untouched
        assert g2.costs[1] == small_graph.costs[1]

    def test_without_edge(self, small_graph):
        g2 = small_graph.without_edge(0, 1)
        assert not g2.has_edge(0, 1)
        assert g2.num_edges == small_graph.num_edges - 1

    def test_without_missing_edge(self, small_graph):
        with pytest.raises(InvalidGraphError, match="not present"):
            small_graph.without_edge(0, 3)

    def test_with_extra_edges(self, small_graph):
        g2 = small_graph.with_extra_edges([(0, 3)])
        assert g2.has_edge(0, 3)
        assert g2.num_edges == small_graph.num_edges + 1


@st.composite
def edge_list_graphs(draw, min_nodes: int = 1, max_nodes: int = 12):
    """Graphs from a raw edge list: duplicates, both orientations and
    isolated nodes all occur."""
    n = draw(st.integers(min_nodes, max_nodes))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    edges = [(u, v) for u, v in pairs if u != v]
    costs = draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n))
    return NodeWeightedGraph(n, edges, costs)


def _rebuilt_without(g, k):
    kept = [(u, v) for u, v in g.edge_iter() if u != k and v != k]
    return NodeWeightedGraph(g.n, kept, g.costs)


def _rebuilt_with(g, cost, neighbors):
    edges = list(g.edge_iter()) + [(g.n, v) for v in neighbors]
    return NodeWeightedGraph(g.n + 1, edges, np.append(g.costs, cost))


def _assert_same_csr(got, want):
    assert got == want
    for name in ("indptr", "indices", "costs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert not a.flags.writeable, name
    assert np.array_equal(got.arc_sources(), want.arc_sources())


class TestNodeEdits:
    """``without_node``/``with_node`` edit the CSR in place of an
    edge-list rebuild and must produce exactly what the rebuild does."""

    @given(edge_list_graphs(), st.data())
    def test_without_node_equals_rebuild(self, g, data):
        k = data.draw(st.integers(0, g.n - 1))
        once = g.without_node(k)
        _assert_same_csr(once, _rebuilt_without(g, k))
        assert once.degree(k) == 0
        # Removing a node that is already isolated changes nothing.
        _assert_same_csr(once.without_node(k), once)

    @given(edge_list_graphs(min_nodes=0), st.data())
    def test_with_node_equals_rebuild(self, g, data):
        nbrs = data.draw(
            st.lists(st.integers(0, max(g.n - 1, 0)), max_size=6 if g.n else 0)
        )
        cost = data.draw(st.floats(0.0, 20.0))
        _assert_same_csr(g.with_node(cost, nbrs), _rebuilt_with(g, cost, nbrs))

    def test_single_node(self):
        g = NodeWeightedGraph(1, [], [3.0])
        _assert_same_csr(g.without_node(0), g)
        grown = g.with_node(1.0, [0, 0])
        _assert_same_csr(grown, NodeWeightedGraph(2, [(0, 1)], [3.0, 1.0]))
        _assert_same_csr(grown.without_node(1), _rebuilt_without(grown, 1))

    @pytest.mark.parametrize("bad", [-1, 6, 99])
    def test_out_of_range_raises_as_before(self, small_graph, bad):
        with pytest.raises(NodeNotFoundError):
            small_graph.without_node(bad)
        with pytest.raises(NodeNotFoundError):
            small_graph.with_node(1.0, [0, bad])

    def test_bad_cost_raises_as_before(self, small_graph):
        with pytest.raises(InvalidGraphError, match="negative"):
            small_graph.with_node(-1.0, [0])
        with pytest.raises(InvalidGraphError, match="infinite"):
            small_graph.with_node(float("inf"), [0])


class TestEquality:
    def test_equal_and_hash(self, small_graph):
        clone = NodeWeightedGraph(
            6, list(small_graph.edge_iter()), small_graph.costs
        )
        assert clone == small_graph
        assert hash(clone) == hash(small_graph)

    def test_cost_change_breaks_equality(self, small_graph):
        assert small_graph.with_declaration(0, 9.0) != small_graph


class TestTailCostTransform:
    @given(biconnected_graphs(max_nodes=16))
    def test_tailcost_matrix_weights(self, g):
        mat = g.to_tailcost_matrix().tocoo()
        for u, _v, w in zip(mat.row, mat.col, mat.data):
            assert w == (g.costs[u] if g.costs[u] > 0.0 else 1e-300)

    def test_directed_with_both_orientations(self, random_graph):
        mat = random_graph.to_tailcost_matrix()
        assert mat.shape == (random_graph.n, random_graph.n)
        assert mat.nnz == 2 * random_graph.num_edges

    def test_backends_bit_identical(self, random_graph):
        # The whole point of the tail-cost transform: the compiled
        # backend reproduces the reference dist floats exactly.
        from repro.graph.dijkstra import node_weighted_spt

        a = node_weighted_spt(random_graph, 5, backend="python")
        b = node_weighted_spt(random_graph, 5, backend="scipy")
        assert np.array_equal(a.dist, b.dist)


class TestKHopNeighborhood:
    def test_radius_zero_is_self(self, small_graph):
        assert small_graph.k_hop_neighborhood(2, 0) == {2}

    def test_radius_one_is_closed_neighborhood(self, small_graph):
        assert small_graph.k_hop_neighborhood(2, 1) == set(
            small_graph.closed_neighborhood(2).tolist()
        )

    def test_radius_grows_monotonically(self, random_graph):
        prev = set()
        for r in range(4):
            ball = random_graph.k_hop_neighborhood(0, r)
            assert prev <= ball
            prev = ball

    def test_saturates_at_component(self, small_graph):
        # the 6-ring is fully covered within 3 hops
        assert small_graph.k_hop_neighborhood(0, 3) == set(range(6))
        assert small_graph.k_hop_neighborhood(0, 99) == set(range(6))

    def test_negative_radius_rejected(self, small_graph):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            small_graph.k_hop_neighborhood(0, -1)

    def test_matches_bfs_oracle(self, random_graph):
        import networkx as nx

        h = random_graph.to_networkx()
        for r in (1, 2):
            oracle = set(
                nx.single_source_shortest_path_length(h, 3, cutoff=r)
            )
            assert random_graph.k_hop_neighborhood(3, r) == oracle
