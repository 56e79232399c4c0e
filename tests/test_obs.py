"""Tests for the observability subsystem (``repro.obs``)."""

import io
import json
import logging as stdlib_logging

import pytest

from repro.engine.oracle import answer_key
from repro.obs import export as obs_export
from repro.obs import logging as obs_logging
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    TIMER_SAMPLE_CAP,
    _NULL_TIMED,
)
from repro.obs.tracing import Tracer


@pytest.fixture
def registry():
    r = MetricsRegistry(enabled=True)
    return r


@pytest.fixture(autouse=True)
def _clean_global_registry():
    """Tests in this module must not leak global enabled state."""
    yield
    REGISTRY.disable()
    REGISTRY.reset()


class TestCounters:
    def test_add_accumulates(self, registry):
        registry.add("x", 3)
        registry.add("x")
        assert registry.snapshot().counters["x"] == 4

    def test_counter_rejects_decrease(self, registry):
        with pytest.raises(ValueError, match="decrease"):
            registry.counter("x").inc(-1)

    def test_gauge_moves_both_ways(self, registry):
        registry.set_gauge("g", 5.0)
        registry.gauge("g").dec(2.0)
        assert registry.snapshot().gauges["g"] == 3.0

    def test_reset_drops_metrics_keeps_enabled(self, registry):
        registry.add("x")
        registry.reset()
        assert registry.enabled
        assert not registry.snapshot()


class TestTimers:
    def test_timed_records_stats(self, registry):
        for _ in range(5):
            with registry.timed("t"):
                pass
        st = registry.snapshot().timers["t"]
        assert st.count == 5
        assert st.sum >= st.max >= st.p95 >= st.p50 >= st.min >= 0.0

    def test_observe_exact_values(self, registry):
        for v in (1.0, 2.0, 3.0, 4.0, 100.0):
            registry.timer("t").observe(v)
        st = registry.snapshot().timers["t"]
        assert st.count == 5 and st.sum == 110.0
        assert st.min == 1.0 and st.max == 100.0
        assert st.p50 == 3.0 and st.p95 == 100.0

    def test_sample_cap_keeps_summary_exact(self, registry):
        t = registry.timer("t")
        for i in range(TIMER_SAMPLE_CAP + 10):
            t.observe(1.0)
        st = t.stats()
        assert st.count == TIMER_SAMPLE_CAP + 10
        assert st.p50 == st.p95 == 1.0

    def test_always_timed_measures_when_disabled(self):
        r = MetricsRegistry(enabled=False)
        with r.timed("t", always=True) as t:
            sum(range(1000))
        assert t.elapsed > 0.0
        assert not r.snapshot()  # measured but not recorded


class TestDisabledNoOp:
    def test_add_is_noop(self):
        r = MetricsRegistry(enabled=False)
        r.add("x", 7)
        r.set_gauge("g", 1.0)
        r.observe("t", 0.5)
        assert not r.snapshot()

    def test_timed_returns_shared_null(self):
        r = MetricsRegistry(enabled=False)
        cm = r.timed("t")
        assert cm is _NULL_TIMED and cm is r.timed("other")
        with cm as t:
            pass
        assert t.elapsed == 0.0

    def test_null_span_is_shared(self):
        tr = Tracer(enabled=False)
        assert tr.span("a") is tr.span("b")
        with tr.span("a"):
            pass
        assert tr.records == []


class TestSpans:
    def test_nesting_depth_and_parent(self):
        tr = Tracer(enabled=True)
        with tr.span("outer", n=3):
            with tr.span("inner"):
                with tr.span("leaf"):
                    pass
            with tr.span("sibling"):
                pass
        names = [r.name for r in tr.records]
        assert names == ["leaf", "inner", "sibling", "outer"]
        by_name = {r.name: r for r in tr.records}
        assert by_name["outer"].depth == 0 and by_name["outer"].parent is None
        assert by_name["inner"].parent == "outer" and by_name["inner"].depth == 1
        assert by_name["leaf"].parent == "inner" and by_name["leaf"].depth == 2
        assert by_name["sibling"].parent == "outer"
        assert by_name["outer"].attrs == {"n": 3}

    def test_span_durations_nest(self):
        tr = Tracer(enabled=True)
        with tr.span("outer"):
            with tr.span("inner"):
                sum(range(100))
        by_name = {r.name: r for r in tr.records}
        assert by_name["outer"].duration >= by_name["inner"].duration
        assert by_name["outer"].start <= by_name["inner"].start

    def test_chrome_export_loads(self, tmp_path):
        tr = Tracer(enabled=True)
        with tr.span("phase", items=2):
            with tr.span("step"):
                pass
        path = tmp_path / "trace.json"
        tr.export_chrome(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == 2
        for e in events:
            assert e["ph"] == "X"
            assert isinstance(e["ts"], float) and isinstance(e["dur"], float)
            assert "pid" in e and "tid" in e
        step = next(e for e in events if e["name"] == "step")
        assert step["args"]["parent"] == "phase"

    def test_reset_clears_records(self):
        tr = Tracer(enabled=True)
        with tr.span("a"):
            pass
        tr.reset()
        assert tr.records == []


class TestExport:
    def _snapshot(self, registry):
        registry.add("ops.count", 42)
        registry.set_gauge("queue.depth", 3.5)
        t = registry.timer("op.time")
        for v in (0.1, 0.2, 0.3):
            t.observe(v)
        return registry.snapshot()

    def test_json_round_trip(self, registry):
        snap = self._snapshot(registry)
        back = obs_export.snapshot_from_json(obs_export.snapshot_to_json(snap))
        assert back.counters == dict(snap.counters)
        assert back.gauges == dict(snap.gauges)
        assert back.timers["op.time"] == snap.timers["op.time"]

    def test_prometheus_round_trip(self, registry):
        snap = self._snapshot(registry)
        text = obs_export.to_prometheus_text(snap, prefix="repro")
        parsed = obs_export.parse_prometheus_text(text)
        assert parsed["repro_ops_count"] == 42
        assert parsed["repro_queue_depth"] == 3.5
        assert parsed["repro_op_time_count"] == 3
        assert parsed["repro_op_time_sum"] == pytest.approx(0.6)
        assert parsed['repro_op_time{quantile="0.5"}'] == pytest.approx(0.2)

    def test_prometheus_type_lines(self, registry):
        text = obs_export.to_prometheus_text(self._snapshot(registry))
        assert "# TYPE repro_ops_count counter" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_op_time summary" in text

    def test_flat_contains_timer_subkeys(self, registry):
        flat = self._snapshot(registry).flat()
        assert flat["ops.count"] == 42
        assert flat["op.time.count"] == 3

    def test_render_mentions_every_metric(self, registry):
        text = self._snapshot(registry).render()
        assert "ops.count 42" in text and "op.time count=3" in text


class TestLogging:
    def test_key_value_format(self):
        buf = io.StringIO()
        obs_logging.configure(level="info", stream=buf)
        log = obs_logging.get_logger("unit")
        log.info("it ran", extra={"n": 5, "label": "two words"})
        line = buf.getvalue().strip()
        assert "level=INFO" in line
        assert "logger=repro.unit" in line
        assert 'msg="it ran"' in line
        assert "n=5" in line and 'label="two words"' in line

    def test_json_format(self):
        buf = io.StringIO()
        obs_logging.configure(level="debug", json=True, stream=buf)
        obs_logging.get_logger("unit").debug("hello", extra={"k": 1})
        doc = json.loads(buf.getvalue())
        assert doc["msg"] == "hello" and doc["k"] == 1
        assert doc["logger"] == "repro.unit"

    def test_configure_is_idempotent(self):
        buf = io.StringIO()
        obs_logging.configure(level="info", stream=buf)
        obs_logging.configure(level="info", stream=buf)
        obs_logging.get_logger("unit").info("once")
        assert buf.getvalue().count("once") == 1

    def test_get_logger_namespacing(self):
        assert obs_logging.get_logger("cli").name == "repro.cli"
        assert obs_logging.get_logger("repro.cli").name == "repro.cli"
        assert obs_logging.get_logger().name == "repro"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            obs_logging.configure(level="loud")

    def teardown_method(self):
        # leave the namespace root clean for other tests
        root = stdlib_logging.getLogger("repro")
        for h in list(root.handlers):
            if getattr(h, "_repro_obs", False):
                root.removeHandler(h)
        root.setLevel(stdlib_logging.NOTSET)
        root.propagate = True


class TestInstrumentationInvariance:
    """Enabling metrics must not change any computed payment."""

    def test_fast_payment_bit_identical(self):
        from repro import generators
        from repro.core.fast_payment import fast_vcg_payments

        # near-cycle topology: a long LCP with several paid relays
        g = generators.random_biconnected_graph(
            60, extra_edge_prob=0.02, seed=11
        )
        REGISTRY.disable()
        REGISTRY.reset()
        base = fast_vcg_payments(g, 40, 0)
        REGISTRY.enable()
        instrumented = fast_vcg_payments(g, 40, 0)
        snap = REGISTRY.snapshot()
        REGISTRY.disable()
        assert len(base.payments) >= 3  # the comparison is non-trivial
        assert answer_key(instrumented) == answer_key(base)  # exact
        assert dict(instrumented.avoiding_costs) == dict(base.avoiding_costs)
        # and the run was actually observed
        assert snap.counters["fast_payment.runs"] == 1
        assert snap.counters["dijkstra.runs"] > 0
        assert snap.timers["fast_payment.time"].count == 1

    def test_naive_counts_avoiding_recomputations(self):
        from repro import generators, vcg_unicast_payments

        g = generators.random_biconnected_graph(40, seed=5)
        REGISTRY.reset()
        REGISTRY.enable()
        result = vcg_unicast_payments(g, 20, 0, method="naive")
        snap = REGISTRY.snapshot()
        REGISTRY.disable()
        assert snap.counters["vcg_unicast.avoiding_recomputations"] == len(
            result.relays
        )

    def test_dijkstra_counter_consistency(self):
        from repro import generators
        from repro.graph.dijkstra import node_weighted_spt

        g = generators.random_biconnected_graph(30, seed=2)
        REGISTRY.reset()
        REGISTRY.enable()
        node_weighted_spt(g, 0, backend="python")
        snap = REGISTRY.snapshot()
        REGISTRY.disable()
        # the indexed heap decrease-keys on re-push, so pop count is the
        # settled-node count and never exceeds the push-call count
        assert 0 < snap.counters["dijkstra.heap_pops"] <= snap.counters[
            "dijkstra.heap_pushes"
        ]
        assert snap.counters["dijkstra.heap_pops"] == g.n  # connected graph
        assert snap.counters["dijkstra.edge_relaxations"] >= snap.counters[
            "dijkstra.heap_pushes"
        ] - 1
