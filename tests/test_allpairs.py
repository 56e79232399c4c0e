"""Tests for all-pairs traffic and the network economy aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.allpairs import (
    TrafficMatrix,
    network_economy,
    pairwise_vcg_payments,
)
from repro.core.vcg_unicast import vcg_unicast_payments
from repro.engine.oracle import answer_key
from repro.errors import InvalidGraphError
from repro.graph import generators as gen

from conftest import biconnected_graphs


class TestTrafficMatrix:
    def test_uniform(self):
        t = TrafficMatrix.uniform(4, intensity=2.0)
        assert t.matrix.sum() == pytest.approx(2.0 * 12)
        assert t.matrix[1, 1] == 0.0

    def test_to_access_point(self):
        t = TrafficMatrix.to_access_point(4, root=0, intensity=3.0)
        assert t.matrix[:, 0].sum() == pytest.approx(9.0)
        assert t.matrix[0].sum() == 0.0

    def test_from_triples_accumulates(self):
        t = TrafficMatrix.from_triples(3, [(0, 1, 1.0), (0, 1, 2.0)])
        assert t.matrix[0, 1] == 3.0

    def test_validation(self):
        with pytest.raises(InvalidGraphError):
            TrafficMatrix(np.ones((2, 3)))
        with pytest.raises(InvalidGraphError):
            TrafficMatrix(np.array([[0.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(InvalidGraphError):
            TrafficMatrix(np.eye(2))

    def test_pairs_iteration(self):
        t = TrafficMatrix.from_triples(3, [(0, 2, 5.0)])
        assert list(t.pairs()) == [(0, 2, 5.0)]

    def test_pairs_yields_python_scalars_row_major(self):
        t = TrafficMatrix.from_triples(
            4, [(2, 0, 1.5), (0, 3, 2.0), (2, 3, 0.25)]
        )
        got = list(t.pairs())
        assert got == [(0, 3, 2.0), (2, 0, 1.5), (2, 3, 0.25)]
        for i, j, v in got:
            assert type(i) is int and type(j) is int and type(v) is float


class TestPairwisePayments:
    def test_matches_single_calls(self, random_graph):
        pairs = [(3, 0), (0, 3), (5, 9)]
        out = pairwise_vcg_payments(random_graph, pairs)
        for i, j in pairs:
            ref = vcg_unicast_payments(random_graph, i, j, on_monopoly="inf")
            assert out[(i, j)].path == ref.path
            assert out[(i, j)].total_payment == pytest.approx(ref.total_payment)

    def test_symmetric_costs_in_node_model(self, random_graph):
        """Internal-node path cost is direction symmetric, so the LCP cost
        and total payment agree for both orientations."""
        out = pairwise_vcg_payments(random_graph, [(2, 8), (8, 2)])
        assert out[(2, 8)].lcp_cost == pytest.approx(out[(8, 2)].lcp_cost)
        assert out[(2, 8)].total_payment == pytest.approx(
            out[(8, 2)].total_payment
        )

    def test_one_spt_per_distinct_endpoint(self, random_graph):
        """The batch path builds e Dijkstras for e distinct endpoints —
        not two per pair — making the module docstring's complexity claim
        literally true. Counted via the metrics registry."""
        from repro.obs.metrics import REGISTRY

        pairs = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 1), (0, 1)]
        endpoints = {x for p in pairs for x in p}
        REGISTRY.reset()
        REGISTRY.enable()
        try:
            out = pairwise_vcg_payments(random_graph, pairs)
            snap = REGISTRY.snapshot().flat()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert snap["allpairs.spt_builds"] == len(endpoints)
        assert snap["allpairs.pairs_priced"] == len(set(pairs))
        assert snap["dijkstra.runs"] == len(endpoints)
        assert len(out) == len(set(pairs))

    def test_backend_python_matches_auto(self, random_graph):
        pairs = [(0, 5), (5, 9), (9, 0)]
        a = pairwise_vcg_payments(random_graph, pairs, backend="python")
        b = pairwise_vcg_payments(random_graph, pairs, backend="auto")
        for key in pairs:
            assert a[key].path == b[key].path
            assert a[key].total_payment == pytest.approx(
                b[key].total_payment
            )

    @given(biconnected_graphs(max_nodes=30))
    @settings(deadline=None)
    def test_batched_prebuild_bit_identical_to_per_source(self, g):
        """The batched multi-source SPT prebuild must be *bit-identical*
        to per-source construction — same parents, same distances, so
        same paths and exactly equal payment floats. The per-source
        reference goes through the same function with a pre-populated
        ``spt_cache``, which skips the batched prebuild entirely."""
        from repro.graph.dijkstra import node_weighted_spt

        pairs = [(i, (i + 3) % g.n) for i in range(min(g.n, 9))]
        pairs = [(i, j) for i, j in pairs if i != j]
        endpoints = sorted({x for ij in pairs for x in ij})
        cache = {
            x: node_weighted_spt(g, x, backend="scipy") for x in endpoints
        }
        per_source = pairwise_vcg_payments(
            g, pairs, backend="auto", spt_cache=cache
        )
        batched = pairwise_vcg_payments(g, pairs, backend="auto")
        assert batched.keys() == per_source.keys()
        for key in batched:
            assert answer_key(batched[key]) == answer_key(per_source[key])

    @given(biconnected_graphs(max_nodes=24))
    @settings(deadline=None)
    def test_batched_bit_identical_to_python_oracle(self, g):
        """Full-stack bit-identity: batched scipy SPTs + vectorized
        Algorithm-1 kernels against the pure-python scalar oracle."""
        pairs = [(0, g.n - 1), (g.n - 1, 0), (1, g.n // 2)]
        pairs = [(i, j) for i, j in pairs if i != j]
        fast = pairwise_vcg_payments(g, pairs, backend="auto")
        oracle = pairwise_vcg_payments(g, pairs, backend="python")
        for key in fast:
            assert fast[key].path == oracle[key].path
            assert dict(fast[key].payments) == dict(oracle[key].payments)

    def test_backend_numpy_accepted(self, random_graph):
        """Every Algorithm-1 backend name must work here, including
        ``"numpy"``, which the Dijkstra layer itself does not know —
        regression for the backend being forwarded to
        ``node_weighted_spt`` unmapped (ValueError)."""
        pairs = [(0, 5), (5, 9), (9, 0)]
        a = pairwise_vcg_payments(random_graph, pairs, backend="numpy")
        b = pairwise_vcg_payments(random_graph, pairs, backend="python")
        for key in pairs:
            assert a[key].path == b[key].path
            assert dict(a[key].payments) == dict(b[key].payments)


class TestNetworkEconomy:
    def test_books_balance(self, random_graph):
        traffic = TrafficMatrix.to_access_point(random_graph.n, intensity=2.0)
        econ = network_economy(random_graph, traffic)
        total_income = sum(e.income for e in econ.nodes)
        assert total_income == pytest.approx(econ.total_payment)
        assert econ.overpayment_ratio >= 1.0

    def test_relays_profit(self, random_graph):
        traffic = TrafficMatrix.to_access_point(random_graph.n)
        econ = network_economy(random_graph, traffic)
        for e in econ.nodes:
            assert e.profit >= -1e-9  # IR, aggregated
            if e.packets_relayed > 0:
                assert e.income > 0

    def test_size_mismatch(self, random_graph):
        with pytest.raises(InvalidGraphError, match="nodes"):
            network_economy(random_graph, TrafficMatrix.uniform(3))

    def test_blocked_pairs_reported(self):
        from repro.graph.node_graph import NodeWeightedGraph

        g = NodeWeightedGraph(3, [(0, 1), (1, 2)], [1.0, 2.0, 1.0])
        traffic = TrafficMatrix.from_triples(3, [(0, 2, 1.0), (0, 1, 1.0)])
        econ = network_economy(g, traffic)
        assert (0, 2) in econ.blocked_pairs  # node 1 is a monopoly
        assert econ.node(0).spend == 0.0  # 0->1 is direct, 0->2 blocked

    def test_gini_bounds(self, random_graph):
        traffic = TrafficMatrix.uniform(random_graph.n, intensity=1.0)
        econ = network_economy(random_graph, traffic)
        assert 0.0 <= econ.gini_income() <= 1.0

    def test_gini_zero_when_no_income(self):
        g = gen.cycle_graph([1.0, 1.0, 1.0])
        econ = network_economy(g, TrafficMatrix(np.zeros((3, 3))))
        assert econ.gini_income() == 0.0

    @given(biconnected_graphs(min_nodes=5, max_nodes=12))
    @settings(max_examples=10)
    def test_linear_in_intensity(self, g):
        """Doubling every intensity doubles every monetary quantity."""
        t1 = TrafficMatrix.to_access_point(g.n, intensity=1.0)
        t2 = TrafficMatrix.to_access_point(g.n, intensity=2.0)
        pay = pairwise_vcg_payments(g, ((i, j) for i, j, _ in t1.pairs()))
        e1 = network_economy(g, t1, payments=pay)
        e2 = network_economy(g, t2, payments=pay)
        assert e2.total_payment == pytest.approx(2 * e1.total_payment)
        assert e2.total_energy == pytest.approx(2 * e1.total_energy)

    def test_precomputed_payments_reused(self, random_graph):
        traffic = TrafficMatrix.to_access_point(random_graph.n)
        pay = pairwise_vcg_payments(
            random_graph, ((i, j) for i, j, _ in traffic.pairs())
        )
        a = network_economy(random_graph, traffic, payments=pay)
        b = network_economy(random_graph, traffic)
        assert a.total_payment == pytest.approx(b.total_payment)
