"""Tests for all-pairs traffic and the network economy aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allpairs import (
    TrafficMatrix,
    network_economy,
    pairwise_vcg_payments,
    spt_roots,
)
from repro.core.all_sources import price_sources
from repro.core.fast_payment import fast_vcg_payments
from repro.core.vcg_unicast import vcg_unicast_payments
from repro.engine.oracle import answer_key
from repro.errors import DisconnectedError, InvalidGraphError, MonopolyError
from repro.graph import generators as gen
from repro.graph.node_graph import NodeWeightedGraph

from conftest import biconnected_graphs, count_handoffs, deep_graphs


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
        """Algorithm 1 builds e Dijkstras for e distinct endpoints — not
        two per pair. ``backend="numpy"`` keeps every pair on Algorithm 1;
        counted via the metrics registry."""
        pairs = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 1), (0, 1)]
        endpoints = {x for p in pairs for x in p}
        assert spt_roots(pairs, "numpy") == endpoints
        out, snap = self._metered(random_graph, pairs, "numpy")
        assert snap["allpairs.spt_builds"] == len(endpoints)
        assert snap["allpairs.pairs_priced"] == len(set(pairs))
        assert snap["dijkstra.runs"] == len(endpoints)
        assert len(out) == len(set(pairs))

    def test_batched_target_reads_its_tree_only(self, random_graph):
        """Under ``auto`` a target shared by several sources goes through
        the all-sources batch, which reads the target's tree only."""
        pairs = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 1), (0, 1)]
        roots = spt_roots(pairs, "auto")
        assert roots == {0, 1, 2}  # targets 1 and 2 are batched
        out, snap = self._metered(random_graph, pairs, "auto")
        assert snap["allpairs.spt_builds"] == len(roots)
        assert snap["allpairs.pairs_priced"] == len(set(pairs))
        assert snap["dijkstra.runs"] == len(roots)
        assert snap["all_sources.runs"] == 2
        for i, j in out:
            ref = vcg_unicast_payments(random_graph, i, j, on_monopoly="inf")
            assert answer_key(out[(i, j)]) == answer_key(ref)

    @staticmethod
    def _metered(g, pairs, backend):
        from repro.obs.metrics import REGISTRY

        REGISTRY.reset()
        REGISTRY.enable()
        try:
            out = pairwise_vcg_payments(g, pairs, backend=backend)
            return out, REGISTRY.snapshot().flat()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()

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
        """Full-stack bit-identity: relaxation-built SPTs + vectorized
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


@st.composite
def rough_graphs(draw, min_nodes=1, max_nodes=20):
    """Graphs the paper excludes: monopolies, disconnected parts,
    degree-0 nodes, and costs that are continuous, integer (ties) or
    integer with zero-cost relays."""
    n = draw(st.integers(min_nodes, max_nodes))
    p = draw(st.floats(0.0, min(1.0, 6.0 / max(n, 1))))
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(["continuous", "ties", "zeros"]))
    rng = np.random.default_rng(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    if kind == "continuous":
        costs = rng.uniform(0.5, 20.0, size=n)
    else:
        costs = rng.integers(0 if kind == "zeros" else 1, 4, size=n)
    return NodeWeightedGraph(n, edges, costs.astype(float))


def _outcomes(price, pairs):
    """``{pair: answer_key}`` of ``price(pair)``, errors included."""
    out = {}
    for pair in pairs:
        try:
            out[pair] = answer_key(price(*pair))
        except DisconnectedError as exc:  # MonopolyError included
            out[pair] = answer_key(exc)
    return out


def _first_error(price_all, pairs):
    """``(type, source, target)`` of the error ``price_all(pairs)``
    raises, or None."""
    try:
        price_all(pairs)
    except DisconnectedError as exc:
        return type(exc), exc.source, exc.target, getattr(exc, "removed", None)
    return None


class TestAllSourcesBatch:
    """The all-sources batch against per-pair Algorithm 1 and the naive
    III.A method: full answers, bit for bit, on the graphs the paper
    excludes too."""

    @staticmethod
    def _assert_batch_exact(g, target, on_monopoly="inf", naive=True):
        pairs = [(i, target) for i in range(g.n)]
        assert spt_roots(pairs) == {target}

        def alg1(i, j, backend="auto"):
            return fast_vcg_payments(
                g, i, j, on_monopoly=on_monopoly, backend=backend
            ).to_unicast_payment()

        def batch(i, j):
            return price_sources(g, j, [i], on_monopoly)[i]

        want = _outcomes(alg1, pairs)
        got = price_sources(g, target, range(g.n), on_monopoly)
        assert {(i, target): answer_key(o) for i, o in got.items()} == want
        assert _outcomes(batch, pairs) == want
        # The heap Dijkstra and the scalar Algorithm-1 kernels. Behind a
        # zero-cost relay a tree keeps its solver's parents (see
        # ``_canonical_parents``), so the heap may pick another LCP.
        if g.n and g.costs.min() > 0.0:
            assert _outcomes(lambda i, j: alg1(i, j, "python"), pairs) == want
        if naive:
            assert _outcomes(
                lambda i, j: vcg_unicast_payments(
                    g, i, j, method="naive", on_monopoly=on_monopoly
                ),
                pairs,
            ) == want
        # Through the dispatcher: errors surface at the first failing
        # pair in request order, exactly as per-pair Algorithm 1 has it.
        order = list(reversed(pairs))
        assert _first_error(
            lambda ps: pairwise_vcg_payments(g, ps, on_monopoly=on_monopoly),
            order,
        ) == _first_error(
            lambda ps: pairwise_vcg_payments(
                g, ps, on_monopoly=on_monopoly, backend="numpy"
            ),
            order,
        )

    @pytest.mark.parametrize("on_monopoly", ["inf", "raise"])
    def test_monopolies(self, on_monopoly):
        # Two biconnected blocks joined at articulation point 3, plus a
        # pendant path 6 - 7 - 8: relays 3, 6 and 7 are monopolies.
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (1, 3), (3, 4), (4, 5),
                 (5, 3), (5, 6), (6, 7), (7, 8)]
        g = NodeWeightedGraph(9, edges, [1.0, 2, 3, 4, 5, 6, 7, 8, 9])
        for target in (0, 8):
            self._assert_batch_exact(g, target, on_monopoly)
        with pytest.raises(MonopolyError):
            pairwise_vcg_payments(g, [(8, 0), (5, 0)], on_monopoly="raise")

    def test_disconnected_source_raises_first_in_request_order(self):
        # Component {0..4} and component {5, 6, 7}; node 8 has degree 0.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3),
                 (5, 6), (6, 7), (7, 5)]
        g = NodeWeightedGraph(9, edges, np.arange(1.0, 10.0))
        pairs = [(1, 0), (2, 0), (6, 3), (8, 3), (4, 3), (7, 0), (3, 0)]
        for backend in ("auto", "numpy"):
            with pytest.raises(DisconnectedError) as info:
                pairwise_vcg_payments(g, pairs, backend=backend)
            assert (info.value.source, info.value.target) == (6, 3)
        for target in (0, 5, 8):
            self._assert_batch_exact(g, target)

    def test_degree_zero_nodes_and_zero_cost_relays(self):
        # Zero-cost relays: zero arc weights and zero seeds in the depth
        # solves.
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2),
                 (5, 6), (6, 3), (4, 7)]
        costs = [0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0]
        g = NodeWeightedGraph(10, edges, costs)  # nodes 8, 9: degree 0
        for target in range(g.n):
            self._assert_batch_exact(g, target)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_graphs(self, n):
        for edges in ([], [(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 0)]):
            if all(v < n for e in edges for v in e):
                g = NodeWeightedGraph(n, edges, np.arange(1.0, n + 1.0))
                for target in range(n):
                    for on_monopoly in ("inf", "raise"):
                        self._assert_batch_exact(g, target, on_monopoly)

    def test_integer_cost_ties(self):
        # A grid with unit costs: almost every pair has several LCPs.
        side = 6
        edges = [(r * side + c, r * side + c + 1)
                 for r in range(side) for c in range(side - 1)]
        edges += [(r * side + c, (r + 1) * side + c)
                  for r in range(side - 1) for c in range(side)]
        g = NodeWeightedGraph(side * side, edges, np.ones(side * side))
        for target in (0, 14, side * side - 1):
            self._assert_batch_exact(g, target)

    @pytest.mark.parametrize("zero_frac", [0.0, 0.3])
    @pytest.mark.parametrize("name", ["ladder", "grid", "lollipop"])
    def test_deep_graphs_hand_off(self, name, zero_frac):
        # Depth solves over subtrees hundreds of hops deep outrun the
        # relaxation round bound and finish in scipy; the answers are
        # still the scalar Algorithm 1's, bit for bit.
        g = deep_graphs(seed=3, zero_frac=zero_frac)[name]
        with count_handoffs() as seen:
            got = price_sources(g, 0, range(g.n), on_monopoly="inf")
        assert seen.count > 0
        for i in range(0, g.n, 7):
            want = fast_vcg_payments(g, i, 0, on_monopoly="inf", backend="python")
            assert answer_key(got[i]) == answer_key(want.to_unicast_payment()), i

    @given(rough_graphs(max_nodes=20), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sweep_small(self, g, data):
        target = data.draw(st.integers(0, g.n - 1))
        on_monopoly = data.draw(st.sampled_from(["inf", "raise"]))
        self._assert_batch_exact(g, target, on_monopoly)

    @given(rough_graphs(min_nodes=64, max_nodes=90), st.data())
    @settings(max_examples=8, deadline=None)
    def test_sweep_at_scipy_scale(self, g, data):
        target = data.draw(st.integers(0, g.n - 1))
        self._assert_batch_exact(g, target, naive=False)


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
