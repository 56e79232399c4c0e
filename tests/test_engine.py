"""PricingEngine: cache correctness, invalidation, workload replay.

The load-bearing test is the hypothesis interleaving property: any
seeded sequence of cost updates, node churn and queries must price
bit-identically to from-scratch ``vcg_unicast_payments`` on the
then-current graph — the engine's caches may only change *when* work
happens, never the numbers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vcg_unicast import vcg_unicast_payments
from repro.engine import (
    PricingEngine,
    ReplayReport,
    WorkloadOp,
    generate_workload,
    load_trace,
    replay,
    save_trace,
)
from repro.engine.oracle import answer_key, verify
from repro.errors import DisconnectedError, InvalidRequestError
from repro.graph import generators as gen

from conftest import biconnected_graphs


class TestInterleavingProperty:
    @staticmethod
    def _interleave(
        g, rng, n_steps, draw_cost, join_cost, churn=0.10, query_nodes=None,
        batch=0.10,
    ):
        """Interleave updates, churn (a ``churn`` share of steps, half
        leaves and half joins), ``price_many`` batches of up to four
        pairs (a ``batch`` share) and single queries on ``g``; every
        answer must match the serial oracle at its version. Queries draw
        endpoints from the first ``query_nodes`` ids (all by default),
        so a small pool makes pairs recur. Returns the engine."""
        eng = PricingEngine(g, on_monopoly="inf")
        history, checks = [], []
        for _ in range(n_steps):
            r = rng.random()
            n = eng.n
            if r < 0.25:
                node = int(rng.integers(n))
                value = draw_cost(rng)
                eng.update_cost(node, value)
                history.append((eng.version, ("cost", node, value)))
            elif r < 0.25 + churn / 2:
                node = int(rng.integers(n))
                history.append((eng.remove_node(node), ("remove", node)))
            elif r < 0.25 + churn:
                nbrs = rng.choice(n, size=min(3, n), replace=False).tolist()
                cost = join_cost(rng)
                assert eng.add_node(cost=cost, neighbors=nbrs) == n
                history.append((eng.version, ("add", cost, nbrs)))
            elif r < 0.25 + churn + batch:
                ends = rng.integers(query_nodes or n, size=(4, 2)).tolist()
                pairs = [(s, t) for s, t in ends if s != t]
                try:
                    answers = eng.price_many(pairs)
                except DisconnectedError:
                    # One disconnected pair fails the whole batch; check
                    # each pair's own outcome instead.
                    answers = {}
                    for s, t in pairs:
                        try:
                            answers[(s, t)] = eng.price(s, t)
                        except DisconnectedError as exc:
                            answers[(s, t)] = exc
                for (s, t), outcome in answers.items():
                    checks.append((eng.version, s, t, outcome))
            else:
                s = int(rng.integers(query_nodes or n))
                t = int(rng.integers(query_nodes or n))
                if s == t:
                    continue
                try:
                    outcome = eng.price(s, t)
                except DisconnectedError as exc:
                    outcome = exc
                checks.append((eng.version, s, t, outcome))
        verdict = verify(g, history, checks)
        assert verdict.mismatches == 0, verdict.examples
        assert verdict.checked == len(checks)
        return eng

    @given(
        biconnected_graphs(min_nodes=6, max_nodes=14),
        st.integers(0, 2**31 - 1),
        st.integers(10, 60),
    )
    @settings(max_examples=20, deadline=None)
    def test_bit_identical_to_fresh_pricing(self, g, seed, n_steps):
        self._interleave(
            g,
            np.random.default_rng(seed),
            n_steps,
            lambda rng: float(rng.uniform(0.5, 20.0)),
            lambda rng: 2.5,
        )

    @given(
        biconnected_graphs(min_nodes=6, max_nodes=14),
        st.integers(0, 2**31 - 1),
        st.integers(10, 60),
    )
    @settings(max_examples=20, deadline=None)
    def test_bit_identical_under_exact_ties(self, g, seed, n_steps):
        # Costs in {1, 2, 3} make equal-cost paths common; no-op
        # re-declarations are recorded too, as a client would.
        def small(rng):
            return float(rng.integers(1, 4))

        rng = np.random.default_rng(seed)
        g = g.with_costs(rng.integers(1, 4, size=g.n).astype(float))
        self._interleave(g, rng, n_steps, small, small)

    def test_join_that_reorders_ties_keeps_the_canonical_path(self):
        # A falsifying draw of the tie property above, replayed without
        # batches so the draw sequence is the one that failed: node 8
        # joins at v7, and a retained 1 -> 3 answer kept [1, 7, 3] while
        # a fresh build chose the equal-cost [1, 5, 3]. With canonical
        # trees both pick the same path.
        def small(rng):
            return float(rng.integers(1, 4))

        g = gen.random_biconnected_graph(6, extra_edge_prob=0.0, seed=35702)
        rng = np.random.default_rng(35702)
        g = g.with_costs(rng.integers(1, 4, size=g.n).astype(float))
        self._interleave(g, rng, 33, small, small, batch=0.0)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_bit_identical_at_scipy_scale_with_heavy_churn(self, seed):
        # ~100 nodes, and a 20% leave/join share among queries over a
        # 6-node pool drives topology records through pair
        # fast-forward. Continuous costs; the tie property above covers
        # integer costs.
        def cost(rng):
            return float(rng.uniform(0.5, 20.0))

        g = gen.random_biconnected_graph(100, extra_edge_prob=0.05, seed=seed)
        eng = self._interleave(
            g, np.random.default_rng(seed), 150, cost, cost,
            churn=0.20, query_nodes=6,
        )
        assert eng.stats.retained > 0


class TestSptCache:
    """Every tree the engine hands Algorithm 1 is a from-scratch build on
    the current graph, and no tree outlives a version bump."""

    def test_trees_equal_fresh_builds_on_the_chaos_grid(self):
        from random import Random

        from repro.graph.dijkstra import node_weighted_spt

        # tools/chaos_smoke.py's instance and update draw: 3-decimal
        # costs, where equal-cost paths occur.
        g = gen.random_biconnected_graph(32, seed=7)
        g = g.with_costs(np.round(g.costs, 3))
        eng = PricingEngine(g, on_monopoly="inf")
        rng = Random(1)
        for step in range(120):
            for r in range(g.n):
                got = eng._spt_of(r)
                want = node_weighted_spt(eng.graph, r)
                assert np.array_equal(got.dist, want.dist), (step, r)
                assert np.array_equal(got.parent, want.parent), (step, r)
            node = rng.randrange(1, g.n)
            eng.update_cost(node, round(rng.uniform(0.5, 20.0), 3))
            assert eng.cache_sizes()["spts"] == 0

    def test_every_version_bump_empties_the_cache(self, random_graph):
        eng = PricingEngine(random_graph)
        bumps = [
            lambda: eng.update_cost(3, 99.0),
            lambda: eng.remove_node(11),
            lambda: eng.add_node(cost=1.5, neighbors=[0, 1]),
        ]
        for bump in bumps:
            for root in (0, 5, 7):
                eng._spt_of(root)
            assert eng.cache_sizes()["spts"] == 3
            version = eng.version
            bump()
            assert eng.version == version + 1
            assert eng.cache_sizes()["spts"] == 0
        eng._spt_of(5)
        eng.update_cost(3, 99.0)  # no-op: same version, tree kept
        assert eng.cache_sizes()["spts"] == 1


class TestCaching:
    def test_cache_hit_same_answer(self, random_graph):
        eng = PricingEngine(random_graph)
        a = eng.price(5, 0)
        b = eng.price(5, 0)
        assert eng.stats.cache_hits == 1
        assert eng.stats.cache_misses == 1
        assert answer_key(a) == answer_key(b)

    def test_version_starts_at_zero_and_bumps(self, random_graph):
        eng = PricingEngine(random_graph)
        assert eng.version == 0
        assert eng.update_cost(3, 99.0) == 1
        assert eng.update_cost(3, 99.0) == 1  # no-op change: no bump

    def test_noop_update_keeps_caches(self, random_graph):
        eng = PricingEngine(random_graph)
        eng.price(5, 0)
        eng.update_cost(3, float(random_graph.costs[3]))
        eng.price(5, 0)
        assert eng.stats.cache_hits == 1
        assert eng.stats.stale_evictions == 0

    def test_endpoint_cost_update_retains_pair(self, random_graph):
        # Endpoint costs never enter payments (Section II.C), so
        # re-declaring the source must keep the cached entry.
        eng = PricingEngine(random_graph)
        eng.price(5, 0)
        eng.update_cost(5, float(random_graph.costs[5]) + 7.0)
        got = eng.price(5, 0)
        assert eng.stats.cache_hits == 1
        want = vcg_unicast_payments(eng.graph, 5, 0, method="fast")
        assert dict(got.payments) == dict(want.payments)

    def test_purge_stale(self, random_graph):
        eng = PricingEngine(random_graph)
        eng.price(5, 0)
        eng.price(7, 0)
        before = eng.cache_sizes()
        eng.remove_node(11)
        assert eng.cache_sizes() == {"spts": 0, "pairs": before["pairs"]}
        dropped = eng.purge_stale()  # trees went at the bump; pairs only
        assert dropped == before["pairs"]
        assert eng.cache_sizes() == {"spts": 0, "pairs": 0}

    def test_self_pair_is_empty(self, random_graph):
        eng = PricingEngine(random_graph)
        p = eng.price(4, 4)
        assert p.path == () and p.payments == {} and p.lcp_cost == 0.0

    def test_rejects_wrong_graph_type(self):
        with pytest.raises(TypeError):
            PricingEngine(object())

    def test_rejects_bad_knobs(self, random_graph):
        with pytest.raises(ValueError):
            PricingEngine(random_graph, backend="cuda")
        with pytest.raises(ValueError):
            PricingEngine(random_graph, on_monopoly="shrug")

    def test_rejects_updates_addressed_to_the_other_model(
        self, random_graph
    ):
        eng = PricingEngine(random_graph)
        with pytest.raises(InvalidRequestError):
            eng.update_cost((1, 2), 2.0)
        with pytest.raises(TypeError):
            eng.add_node(cost=1.0, arcs=[(0, random_graph.n, 1.0)])
        assert eng.version == 0 and eng.n == random_graph.n

    def test_link_weighted_digraph_is_refused(self, random_digraph):
        with pytest.raises(TypeError, match="node model"):
            PricingEngine(random_digraph)


class TestTopologyThroughTheLog:
    """A leave is the paper's ``d |^k inf`` and a join lowers the new
    node's cost from +inf: both are logged updates that the pair
    certificate decides. Every answer must equal fresh pricing on
    ``eng.graph``."""

    S, T = 5, 0

    def _warm(self, g):
        eng = PricingEngine(g, on_monopoly="inf")
        eng.price(self.S, self.T)
        return eng

    def _assert_fresh(self, eng):
        got = eng.price(self.S, self.T)
        want = vcg_unicast_payments(
            eng.graph, self.S, self.T, method="fast", on_monopoly="inf"
        )
        assert answer_key(got) == answer_key(want)
        return got

    def test_removing_an_off_path_node_retains_the_pair(self, random_graph):
        from repro.graph.dijkstra import node_weighted_spt

        eng = self._warm(random_graph)
        _, _, bound = eng._pairs[(self.S, self.T)]

        def through(k):
            d = node_weighted_spt(random_graph, k).dist
            return d[self.S] + random_graph.costs[k] + d[self.T]

        far = max(
            (k for k in range(random_graph.n) if k not in (self.S, self.T)),
            key=through,
        )
        assert through(far) > bound * (1 + 1e-6)
        eng.remove_node(far)
        self._assert_fresh(eng)
        assert eng.stats.cache_hits == 1 and eng.stats.retained == 1
        assert eng.stats.invalidations == 0

    def test_removing_an_lcp_relay_evicts_the_pair(self, random_graph):
        eng = self._warm(random_graph)
        relay = eng.price(self.S, self.T).path[1]
        assert relay not in (self.S, self.T)
        eng.remove_node(relay)
        got = self._assert_fresh(eng)
        assert relay not in got.path
        assert eng.stats.invalidations == 1 and eng.stats.retained == 0

    def test_removing_an_endpoint_evicts_the_pair(self, random_graph):
        eng = self._warm(random_graph)
        eng.remove_node(self.S)
        with pytest.raises(DisconnectedError):
            eng.price(self.S, self.T)
        with pytest.raises(DisconnectedError):
            vcg_unicast_payments(eng.graph, self.S, self.T, method="fast")
        assert eng.stats.invalidations == 1
        assert eng.cache_sizes()["pairs"] == 0

    def test_far_join_retains_the_pair(self, random_graph):
        eng = self._warm(random_graph)
        d_s = eng._spt_of(self.S).dist
        d_t = eng._spt_of(self.T).dist
        far = np.argsort(d_s + d_t)[-2:].tolist()
        n = eng.add_node(cost=float(np.median(random_graph.costs)),
                         neighbors=far)
        got = self._assert_fresh(eng)
        assert n not in got.path
        assert eng.stats.cache_hits == 1 and eng.stats.retained == 1

    def test_cheap_adjacent_join_evicts_the_pair(self, random_graph):
        eng = self._warm(random_graph)
        assert not random_graph.has_edge(self.S, self.T)
        n = eng.add_node(cost=0.0, neighbors=[self.S, self.T])
        got = self._assert_fresh(eng)
        assert got.path == (self.S, n, self.T)
        assert eng.stats.invalidations == 1 and eng.stats.retained == 0

    def test_log_entries_keep_the_witness_not_the_snapshot(self):
        from repro.engine.engine import _LOG_CAP

        g = gen.random_biconnected_graph(40, seed=5)
        eng = PricingEngine(g, on_monopoly="inf")
        warm = [(s, 0) for s in (3, 9, 17, 25, 31)]
        rng = np.random.default_rng(2)
        for _ in range(300):
            eng.update_cost(int(rng.integers(1, g.n)),
                            float(rng.uniform(1.0, 10.0)))
            for s, t in warm:
                eng.price(s, t)
        log = list(eng._log.values())
        assert len(log) == _LOG_CAP
        witnessed = [upd for upd in log if upd.witness is not None]
        assert witnessed
        assert all(upd.graph is None for upd in witnessed)


class TestPriceMany:
    def test_matches_single_requests(self, random_graph):
        pairs = [(i, 0) for i in range(1, random_graph.n)]
        eng = PricingEngine(random_graph, on_monopoly="inf")
        batch = eng.price_many(pairs)
        checks = [(0, s, t, batch[(s, t)]) for s, t in pairs]
        verdict = verify(random_graph, [], checks)
        assert (verdict.checked, verdict.mismatches) == (len(pairs), 0)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_batch_priced_pairs_survive_a_far_update(self, seed):
        # A pair price_many cached is the same record price caches, so
        # the certificate retains it: halving the cost of the node
        # farthest from the AP must leave almost every pair intact.
        from repro.graph.dijkstra import node_weighted_spt

        g = gen.random_biconnected_graph(100, extra_edge_prob=0.05, seed=seed)
        pairs = [(s, 0) for s in range(1, g.n)]
        eng = PricingEngine(g)
        eng.price_many(pairs)
        far = int(np.argmax(node_weighted_spt(g, 0).dist))
        eng.update_cost(far, float(g.costs[far]) / 2)
        got = eng.price_many(pairs)
        assert eng.stats.invalidations < 0.1 * len(pairs)
        for s, t in pairs:
            want = vcg_unicast_payments(eng.graph, s, t, method="fast")
            assert answer_key(got[(s, t)]) == answer_key(want), (s, t)

    def test_repeat_batch_hits_cache(self, random_graph):
        pairs = [(i, 0) for i in range(1, 10)]
        eng = PricingEngine(random_graph, on_monopoly="inf")
        eng.price_many(pairs)
        misses = eng.stats.cache_misses
        eng.price_many(pairs)
        assert eng.stats.cache_misses == misses
        assert eng.stats.cache_hits >= len(pairs)

    def test_deduplicates_pairs(self, random_graph):
        eng = PricingEngine(random_graph)
        out = eng.price_many([(5, 0), (5, 0), (6, 0)])
        assert set(out) == {(5, 0), (6, 0)}
        assert eng.stats.cache_misses == 2

    def test_batch_counts_only_the_trees_it_reads(self):
        # 21 trees are cached; one Algorithm-1 pair reads two of them
        # (its target's, cached, and its source's, built).
        g = gen.random_biconnected_graph(40, seed=5)
        eng = PricingEngine(g)
        for s in range(1, 21):
            eng.price(s, 0)
        assert eng.cache_sizes()["spts"] == 21
        hits, misses = eng.stats.spt_cache_hits, eng.stats.spt_cache_misses
        eng.price_many([(25, 0)])
        assert eng.stats.spt_cache_hits - hits == 1
        assert eng.stats.spt_cache_misses - misses == 1
        # A batched target reads its own tree only, whatever the batch size.
        hits, misses = eng.stats.spt_cache_hits, eng.stats.spt_cache_misses
        eng.price_many([(s, 0) for s in range(21, 40)])
        assert eng.stats.spt_cache_hits - hits == 1
        assert eng.stats.spt_cache_misses - misses == 0
        assert eng.cache_sizes()["spts"] == 22

    def test_batch_builds_no_source_tree(self):
        g = gen.random_biconnected_graph(40, seed=5)
        eng = PricingEngine(g, on_monopoly="inf")
        got = eng.price_many([(s, 0) for s in range(1, g.n)])
        assert eng.cache_sizes()["spts"] == 1
        for (s, t), p in got.items():
            want = vcg_unicast_payments(g, s, t, method="naive", on_monopoly="inf")
            assert answer_key(p) == answer_key(want)


class TestWorkload:
    def test_generation_is_deterministic(self, random_graph):
        a = generate_workload(random_graph, n_ops=50, seed=3)
        b = generate_workload(random_graph, n_ops=50, seed=3)
        assert a == b
        c = generate_workload(random_graph, n_ops=50, seed=4)
        assert a != c

    def test_mix_and_targets(self, random_graph):
        ops = generate_workload(
            random_graph, n_ops=200, update_frac=0.5, seed=1, target=0
        )
        kinds = {op.kind for op in ops}
        assert kinds == {"price", "update"}
        assert all(op.target == 0 for op in ops if op.kind == "price")

    def test_random_targets(self, random_graph):
        ops = generate_workload(random_graph, n_ops=60, seed=2, target=None)
        queries = [op for op in ops if op.kind == "price"]
        assert all(op.source != op.target for op in queries)
        assert len({op.target for op in queries}) > 1

    def test_op_validation(self):
        with pytest.raises(ValueError):
            WorkloadOp(kind="teleport")
        with pytest.raises(ValueError):
            generate_workload(
                gen.random_biconnected_graph(8, seed=0), update_frac=1.5
            )
        with pytest.raises(TypeError):
            generate_workload(object())

    def test_trace_round_trip(self, tmp_path, random_graph):
        ops = generate_workload(random_graph, n_ops=40, seed=9)
        path = tmp_path / "trace.jsonl"
        save_trace(ops, path)
        assert load_trace(path) == ops

    def test_replay_compare_no_mismatches(self):
        g = gen.random_biconnected_graph(30, seed=11)
        ops = generate_workload(g, n_ops=120, update_frac=0.2, seed=11)
        eng = PricingEngine(g, on_monopoly="inf")
        report = replay(eng, ops, compare=True)
        assert isinstance(report, ReplayReport)
        assert report.mismatches == 0
        assert report.n_queries + report.n_updates == len(ops)
        assert report.final_version == eng.version
        assert report.naive_elapsed is not None
        assert report.speedup == report.naive_elapsed / report.elapsed
        assert "hit rate" in report.describe()

    def test_replay_without_compare_has_nan_speedup(self, random_graph):
        ops = generate_workload(random_graph, n_ops=20, seed=0)
        report = replay(PricingEngine(random_graph, on_monopoly="inf"), ops)
        assert report.naive_elapsed is None
        assert np.isnan(report.speedup)


class TestMetricsMirror:
    def test_engine_counters_reach_registry(self, random_graph):
        from repro.obs.metrics import REGISTRY

        REGISTRY.reset()
        REGISTRY.enable()
        try:
            eng = PricingEngine(random_graph)
            eng.price(5, 0)
            eng.price(5, 0)
            snap = REGISTRY.snapshot().counters
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert snap["engine.queries"] == 2
        assert snap["engine.cache_hits"] == 1
        assert snap["engine.cache_misses"] == 1


class TestPairSurvivalMargin:
    """The pair-survival certificate compares a through-``k`` lower
    bound against the witnessed maximum. The bound is *tight* precisely
    when a witnessed avoiding path runs through ``k`` — and the two
    sides sum the same node costs in different orders, so float noise
    can leave the bound a single ULP above the witnessed value. A
    near-tie must drop the entry (the avoiding path may use ``k``)."""

    @staticmethod
    def _engine_and_update(old, new):
        from repro.engine.engine import _CostUpdate

        g = gen.random_biconnected_graph(6, seed=3)
        eng = PricingEngine(g, on_monopoly="inf")
        dist = np.full(g.n, np.inf)
        dist[0], dist[1] = 0.1, 0.3  # d_k(s), d_k(t)
        return eng, _CostUpdate(2, old, new, g, witness=dist)

    def test_one_ulp_clearance_drops_the_entry(self):
        # bound = (0.1 + 0.2) + 0.3 is exactly one ULP above the same
        # mathematical sum taken in path order, (0.3 + 0.2) + 0.1.
        eng, upd = self._engine_and_update(old=0.2, new=5.0)
        witnessed = (0.3 + 0.2) + 0.1
        bound = (0.1 + upd.old) + 0.3
        assert bound > witnessed  # the raw strict test would survive
        assert not eng._pair_survives(witnessed, (0, 1), upd)

    def test_genuine_clearance_survives(self):
        eng, upd = self._engine_and_update(old=0.2, new=5.0)
        assert eng._pair_survives(0.25, (0, 1), upd)

    def test_endpoint_updates_always_survive(self):
        eng, upd = self._engine_and_update(old=0.2, new=5.0)
        upd.node = 0
        assert eng._pair_survives(0.6, (0, 1), upd)
