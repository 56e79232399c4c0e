"""Traced runs: spans around each layer's public functions, and the
per-layer metrics computed from them.

The wrappers live here, not in ``src/``: :func:`install_server`,
:func:`install_client` and :func:`install_sweep` patch the public
functions of each layer at the places the layer above looks them up
(class attributes, or the importing module's global). A span records
name, start, end, parent (the enclosing span on the same thread),
request id and a few join attributes. Spans stay in memory and are
written out when the process that recorded them is done.

Joins across threads and processes:

* client spans join server spans by the request id the server returns;
* an ``engine.price`` span (on a service worker thread) joins the
  ``service.price`` span that enqueued the same ``(source, target)``
  ticket — coalesced requests attach to that one engine span;
* an ``engine.price_many`` span joins its ``service.price_many`` span
  by the batch's pair tuple.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("client.call_ms.p50", "ms", "lower"),
    ("client.call_ms.p99", "ms", "lower"),
    ("client.retries_per_op", "1/op", "lower"),
    ("transport.ms.p50", "ms", "lower"),
    ("http.handle_self_ms.p50", "ms", "lower"),
    ("io.decode_ms.p50", "ms", "lower"),
    ("io.encode_ms.p50", "ms", "lower"),
    ("service.queue_wait_ms.p50", "ms", "lower"),
    ("service.queue_wait_ms.p99", "ms", "lower"),
    ("service.coalesced_frac", "fraction", "higher"),
    ("service.rejected_per_op", "1/op", "lower"),
    ("sync.read_wait_ms.p99", "ms", "lower"),
    ("sync.write_wait_ms.p99", "ms", "lower"),
    ("engine.price_self_ms.p50", "ms", "lower"),
    ("engine.update_self_ms.p99", "ms", "lower"),
    ("engine.price_many_self_ms.p50", "ms", "lower"),
    ("engine.pair_hit_frac", "fraction", "higher"),
    ("engine.spt_hit_frac", "fraction", "higher"),
    ("engine.retained_per_op", "1/op", "higher"),
    ("engine.repairs_per_op", "1/op", "lower"),
    ("engine.invalidations_per_op", "1/op", "lower"),
    ("engine.stale_evictions_per_op", "1/op", "lower"),
    ("persist.append_ms.p50", "ms", "lower"),
    ("persist.append_ms.p99", "ms", "lower"),
    ("alg1.calls_per_op", "1/op", "lower"),
    ("alg1.ms.p50", "ms", "lower"),
    ("spt.builds_per_op", "1/op", "lower"),
    ("spt.ms.p50", "ms", "lower"),
    ("spt_many.sources_per_call", "count", "higher"),
    ("spt_many.ms.p50", "ms", "lower"),
    ("link_spt.ms.p50", "ms", "lower"),
    ("allpairs.self_ms.p50", "ms", "lower"),
    ("deploy.ms.p50", "ms", "lower"),
    ("avoid.ms.p50", "ms", "lower"),
    ("link_table.self_ms.p50", "ms", "lower"),
    ("overpay.ms.p50", "ms", "lower"),
    ("server.cpu_ms_per_op", "ms", "lower"),
)


class SpanRecorder:
    """In-memory span store for one process.

    A span is ``(id, parent, name, start, end, request_id, attrs)``;
    times are ``time.monotonic()`` seconds, which every process on the
    host reads from the same clock.
    """

    def __init__(self, rid_of=None):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._rid_of = rid_of  # () -> request id in scope (server side)
        self._undo: list[tuple] = []

    def wrap(self, fn, name, attrs=None):
        """``fn`` recording a span per call; ``attrs(args, result)``
        returns the span's join attributes (``result`` is ``None`` when
        the call raised)."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            sid = next(rec._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.monotonic()
                stack.pop()
                rid = rec._rid_of() if rec._rid_of else None
                extra = attrs(args, result) if attrs else None
                if extra and "rid" in extra:
                    rid = extra.pop("rid")
                rec.spans.append((sid, parent, name, t0, t1, rid, extra))

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, attrs))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _key_attrs(args, result):
    attrs = {"key": [int(args[1]), int(args[2])]}
    if result is not None and hasattr(result, "coalesced"):
        attrs["coalesced"] = bool(result.coalesced)
    return attrs


def _batch_attrs(args, result):
    return {"batch": hash(tuple((int(s), int(t)) for s, t in args[1]))}


def _spt_many_attrs(args, result):
    return {"sources": len(result) if result is not None else 0}


def _client_attrs(args, result):
    return {"rid": getattr(result, "request_id", None)}


def install_server(rec: SpanRecorder) -> None:
    """Wrap every serving layer inside the server child."""
    from repro import io as wire
    from repro.core import allpairs, fast_payment
    from repro.engine import engine, persist, sync
    from repro.service import http, service

    for m in ("handle_price", "handle_price_many", "handle_update"):
        rec.patch(http.ServiceServer, m, "http.handle")
    rec.patch(wire, "from_wire", "io.decode")
    rec.patch(wire, "to_wire", "io.encode")
    svc = service.PricingService
    rec.patch(svc, "price", "service.price", _key_attrs)
    rec.patch(svc, "price_many", "service.price_many", _batch_attrs)
    for m in ("update_cost", "add_node", "remove_node"):
        rec.patch(svc, m, "service.update")
    rec.patch(sync.RWLock, "acquire_read", "sync.read_wait")
    rec.patch(sync.RWLock, "acquire_write", "sync.write_wait")
    eng = engine.PricingEngine
    rec.patch(eng, "price_versioned", "engine.price", _key_attrs)
    rec.patch(eng, "price_many_versioned", "engine.price_many", _batch_attrs)
    for m in ("update_cost", "add_node", "remove_node"):
        rec.patch(eng, m, "engine.update")
    rec.patch(persist.EnginePersistence, "append", "persist.append")
    for mod in (engine, allpairs):
        rec.patch(mod, "fast_vcg_payments", "alg1")
    for mod in (engine, allpairs, fast_payment):
        rec.patch(mod, "node_weighted_spt", "spt")
    rec.patch(allpairs, "node_weighted_spt_many", "spt_many", _spt_many_attrs)
    rec.patch(engine, "pairwise_vcg_payments", "allpairs")


def install_client(rec: SpanRecorder) -> None:
    """Wrap the client and wire layers in the generator process."""
    from repro import io as wire
    from repro.service.resilience import PricingClient

    for m in ("price", "price_many", "update_cost", "add_node", "remove_node"):
        rec.patch(PricingClient, m, "client.call", _client_attrs)
    rec.patch(wire, "from_wire", "io.decode")
    rec.patch(wire, "to_wire", "io.encode")


def install_sweep(rec: SpanRecorder) -> None:
    """Wrap the link-model layers the Figure-3 sweep runs."""
    from repro.analysis import experiments
    from repro.core import link_vcg

    rec.patch(experiments, "sample_deployment", "deploy")
    rec.patch(experiments, "all_sources_link_payments", "link_table")
    rec.patch(experiments, "overpayment_summary", "overpay")
    rec.patch(link_vcg, "link_weighted_spt", "link_spt")
    rec.patch(link_vcg, "all_sources_removal_distances", "avoid")


# ---------------------------------------------------------------------------
# analysis


class Trace:
    """One process's spans, indexed for self-time and subtree queries."""

    def __init__(self, spans, windows):
        """Keep the spans that start inside any ``(start, end)`` window."""
        self.spans = [
            s for s in spans if any(lo <= s[3] <= hi for lo, hi in windows)
        ]
        self.children = defaultdict(list)
        for s in self.spans:
            self.children[s[1]].append(s)

    def named(self, name):
        return [s for s in self.spans if s[2] == name]

    def self_time(self, span) -> float:
        return (span[4] - span[3]) - sum(c[4] - c[3] for c in self.children[span[0]])

    def layer_times(self, span, out) -> None:
        """Add the self time of ``span`` and its descendants, by layer."""
        layer = span[2].split(".")[0]
        out[layer] += self.self_time(span)
        for child in self.children[span[0]]:
            self.layer_times(child, out)


def _ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def _durations(spans):
    return [s[4] - s[3] for s in spans]


def _engine_links(server: Trace) -> dict[int, tuple]:
    """service span id -> (queue wait, engine span, enqueued) for every
    service span that enqueued a ticket or coalesced onto one."""
    links: dict[int, tuple] = {}
    for svc_name, eng_name, field in (
        ("service.price", "engine.price", "key"),
        ("service.price_many", "engine.price_many", "batch"),
    ):
        eng_by = defaultdict(list)
        for e in server.named(eng_name):
            eng_by[_join_key(e, field)].append(e)
        for key in eng_by:
            eng_by[key].sort(key=lambda s: s[3])
        for s in server.named(svc_name):
            attrs = s[6] or {}
            candidates = eng_by.get(_join_key(s, field), ())
            if attrs.get("coalesced"):
                # Attached to a ticket already in flight.
                for e in candidates:
                    if e[3] <= s[3] <= e[4]:
                        links[s[0]] = (0.0, e, False)
                        break
            else:
                for e in candidates:
                    if e[3] >= s[3]:
                        links[s[0]] = (e[3] - s[3], e, True)
                        break
    return links


def _join_key(span, field):
    value = (span[6] or {}).get(field)
    return tuple(value) if isinstance(value, list) else value


def layer_metrics(client_spans, server_spans, windows, counters, ops, cpu_ms, retries):
    """Every per-layer metric of a traced serving round.

    ``counters`` are ``/snapshot`` counter deltas over the measured
    window, ``ops`` the verified-work units completed in it.
    """
    client = Trace(client_spans, windows)
    server = Trace(server_spans, windows)
    ops = max(ops, 1)
    calls = client.named("client.call")
    by_rid = defaultdict(list)
    for s in server.spans:
        if s[5] is not None and s[2] in ("http.handle", "io.decode"):
            by_rid[s[5]].append(s)
    links = _engine_links(server)

    transport = []
    totals = defaultdict(float)  # layer -> seconds on matched calls
    covered_calls = 0.0
    for c in calls:
        server_side = by_rid.get(c[5])
        handles = [s for s in server_side or () if s[2] == "http.handle"]
        if not handles:
            continue
        h = handles[0]
        decode = sum(s[4] - s[3] for s in server_side if s[2] == "io.decode")
        client_io = sum(x[4] - x[3] for x in client.children[c[0]])
        t = (c[4] - c[3]) - client_io - decode - (h[4] - h[3])
        transport.append(t)
        parts = defaultdict(float)
        parts["transport"] += t
        parts["io"] += client_io + decode
        server.layer_times(h, parts)
        for svc in server.children[h[0]]:
            link = links.get(svc[0])
            if link is None or not link[2]:
                continue  # an update runs inline; a coalesced call waits
            # The enqueuing call's service span is its queue wait plus
            # the engine work on the worker thread.
            wait, eng, _ = link
            parts["service"] -= svc[4] - svc[3]
            parts["queue_wait"] += wait
            server.layer_times(eng, parts)
        for layer, v in parts.items():
            totals[layer] += v
        covered_calls += c[4] - c[3]

    def durations(name):
        return [s[4] - s[3] for s in server.named(name)]

    def self_times(name):
        return [server.self_time(s) for s in server.named(name)]

    def ratio(num, den):
        return num / den if den else 0.0

    count = counters.get
    waits = [w for w, _, enqueued in links.values() if enqueued]
    spt_many = server.named("spt_many")
    batched = [(s[6] or {}).get("sources", 0) for s in spt_many]
    io_dec = _durations(client.named("io.decode")) + durations("io.decode")
    io_enc = _durations(client.named("io.encode")) + durations("io.encode")
    hits, misses = count("engine.cache_hits", 0), count("engine.cache_misses", 0)
    spt_hits = count("engine.spt_cache_hits", 0)
    spt_misses = count("engine.spt_cache_misses", 0)
    metrics = {
        "client.call_ms.p50": _ms(_durations(calls), 50),
        "client.call_ms.p99": _ms(_durations(calls), 99),
        "client.retries_per_op": retries / ops,
        "transport.ms.p50": _ms(transport, 50),
        "http.handle_self_ms.p50": _ms(self_times("http.handle"), 50),
        "io.decode_ms.p50": _ms(io_dec, 50),
        "io.encode_ms.p50": _ms(io_enc, 50),
        "service.queue_wait_ms.p50": _ms(waits, 50),
        "service.queue_wait_ms.p99": _ms(waits, 99),
        "service.coalesced_frac": ratio(
            count("service.coalesced", 0), count("service.requests", 0)
        ),
        "service.rejected_per_op": count("service.rejected", 0) / ops,
        "sync.read_wait_ms.p99": _ms(durations("sync.read_wait"), 99),
        "sync.write_wait_ms.p99": _ms(durations("sync.write_wait"), 99),
        "engine.price_self_ms.p50": _ms(self_times("engine.price"), 50),
        "engine.update_self_ms.p99": _ms(self_times("engine.update"), 99),
        "engine.price_many_self_ms.p50": _ms(self_times("engine.price_many"), 50),
        "engine.pair_hit_frac": ratio(hits, hits + misses),
        "engine.spt_hit_frac": ratio(spt_hits, spt_hits + spt_misses),
        "engine.retained_per_op": count("engine.retained", 0) / ops,
        "engine.repairs_per_op": count("engine.repairs", 0) / ops,
        "engine.invalidations_per_op": count("engine.invalidations", 0) / ops,
        "engine.stale_evictions_per_op": count("engine.stale_evictions", 0) / ops,
        "persist.append_ms.p50": _ms(durations("persist.append"), 50),
        "persist.append_ms.p99": _ms(durations("persist.append"), 99),
        "alg1.calls_per_op": len(server.named("alg1")) / ops,
        "alg1.ms.p50": _ms(durations("alg1"), 50),
        "spt.builds_per_op": (len(server.named("spt")) + sum(batched)) / ops,
        "spt.ms.p50": _ms(durations("spt"), 50),
        "spt_many.sources_per_call": ratio(sum(batched), len(batched)),
        "spt_many.ms.p50": _ms(durations("spt_many"), 50),
        "allpairs.self_ms.p50": _ms(self_times("allpairs"), 50),
        "server.cpu_ms_per_op": cpu_ms / ops,
    }
    matched = max(len(transport), 1)
    diagnostics = {
        "matched_calls": len(transport),
        "client_calls": len(calls),
        "blocking_path_ms_mean": {
            layer: 1e3 * v / matched for layer, v in sorted(totals.items())
        },
        "client_call_ms_mean": 1e3 * covered_calls / matched,
        "blocking_path_coverage": ratio(sum(totals.values()), covered_calls),
    }
    return _complete(metrics), diagnostics, layers_seen(client.spans + server.spans)


def sweep_metrics(spans, windows, ops, cpu_ms):
    """Every per-layer metric of a traced Figure-3 sweep round."""
    trace = Trace(spans, windows)
    metrics = {
        "link_spt.ms.p50": _ms(_durations(trace.named("link_spt")), 50),
        "deploy.ms.p50": _ms(_durations(trace.named("deploy")), 50),
        "avoid.ms.p50": _ms(_durations(trace.named("avoid")), 50),
        "link_table.self_ms.p50": _ms(
            [trace.self_time(s) for s in trace.named("link_table")], 50
        ),
        "overpay.ms.p50": _ms(_durations(trace.named("overpay")), 50),
        "server.cpu_ms_per_op": cpu_ms / max(ops, 1),
    }
    return _complete(metrics), {}, layers_seen(trace.spans)


def _complete(metrics: dict) -> dict:
    """Every per-layer metric; a layer the workload never enters is 0."""
    return {name: metrics.get(name, 0.0) for name, _, _ in PER_LAYER}


def layers_seen(spans) -> list[str]:
    return sorted({s[2].split(".")[0] for s in spans})
