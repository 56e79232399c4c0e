"""The concurrent pricing service's acceptance claim: correct under load.

A seeded closed-loop load generator drives :class:`repro.service.
PricingService` the way a deployed access point would be driven — 8
reader threads pricing from a recurring hot pool of sources (the
steady-state mix of ``bench_engine``) while 2 writer threads re-declare
node costs — on the 500-node unit-disk instance. Every answer carries
the ``graph_version`` it was priced at; afterwards a serial replay of
the recorded update history recomputes every distinct ``(version,
source, target)`` from scratch and demands bit-identity. The
acceptance bar: **zero mismatches** while sustaining **>= 500 req/s**
through the full service stack (admission queue, deadlines, worker
pool — everything but the HTTP socket).
"""

import threading
import time

import numpy as np

from repro.core.vcg_unicast import vcg_unicast_payments
from repro.engine import PricingEngine
from repro.service import PricingService
from repro.wireless.topology import build_node_graph_from_udg

from conftest import emit

N_NODES = 500
RANGE_M = 300.0
REGION_M = 2000.0
HOT_SOURCES = 25  # size of the recurring source pool
N_READERS = 8
N_WRITERS = 2
UPDATES_PER_WRITER = 20


def _udg_instance(n: int = N_NODES, seed: int = 2004):
    """Paper-style deployment: n nodes uniform in a 2000 m square, UDG
    links at 300 m, scalar declared costs."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, REGION_M, size=(n, 2))
    costs = rng.uniform(1.0, 10.0, size=n)
    return build_node_graph_from_udg(points, RANGE_M, costs)


def _answer_key(payment):
    return (
        payment.path,
        payment.lcp_cost,
        tuple(sorted(payment.payments.items())),
    )


def _closed_loop(g, requests_per_reader, record=True):
    """One full load-generator run; returns (records, updates, stats,
    elapsed seconds, failures)."""
    rng = np.random.default_rng(5)
    hot = rng.choice(np.arange(1, g.n), size=HOT_SOURCES, replace=False)
    eng = PricingEngine(g, on_monopoly="inf")
    svc = PricingService(eng, workers=8, max_queue=1024, deadline_s=120.0)

    # Steady state: the hot pool is warm before the clock starts.
    for s in hot:
        svc.price(int(s), 0)

    records = []
    updates = []
    failures = []
    mu = threading.Lock()
    start = threading.Barrier(N_READERS + N_WRITERS + 1, timeout=60)

    def reader(idx):
        r = np.random.default_rng(1000 + idx)
        try:
            start.wait()
            for _ in range(requests_per_reader):
                # 90% hot-pool traffic, 10% cold sources — the same
                # mix the engine bench calls steady state.
                if r.random() < 0.9:
                    s = int(hot[r.integers(len(hot))])
                else:
                    s = int(r.integers(1, g.n))
                a = svc.price(s, 0)
                if record:
                    with mu:
                        records.append(
                            (s, 0, a.graph_version, _answer_key(a.payment))
                        )
        except BaseException as exc:
            failures.append(exc)

    def writer(idx):
        r = np.random.default_rng(2000 + idx)
        try:
            start.wait()
            for _ in range(UPDATES_PER_WRITER):
                node = int(r.integers(0, g.n))
                value = float(r.uniform(1.0, 10.0))
                version = svc.update_cost(node, value)
                if record:
                    with mu:
                        updates.append((version, node, value))
                time.sleep(0.005)
        except BaseException as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(N_READERS)
    ] + [
        threading.Thread(target=writer, args=(i,)) for i in range(N_WRITERS)
    ]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join(timeout=600)
    elapsed = time.perf_counter() - t0
    svc.close()
    assert not failures, failures
    return records, updates, svc.stats, elapsed


def test_service_load_zero_mismatches(benchmark, scale):
    """The PR's acceptance criterion, measured end to end."""
    requests_per_reader = 600 if scale.full else 150
    g = _udg_instance()
    # Pay one-time costs (scipy import, CSR build) outside the loop.
    vcg_unicast_payments(g, 1, 0, method="fast", on_monopoly="inf")

    records, updates, stats, elapsed = _closed_loop(g, requests_per_reader)
    total = N_READERS * requests_per_reader
    assert len(records) == total
    throughput = total / elapsed

    # Writer-lock serialization: versions are exactly 1..V (continuous
    # uniform values make accidental no-op updates a.s. impossible).
    versions = sorted(v for v, _, _ in updates)
    assert versions == list(range(1, N_WRITERS * UPDATES_PER_WRITER + 1))

    # Serial oracle replay: rebuild the graph at every version, price
    # each distinct (version, source, target) from scratch, demand
    # bit-identity with the answer served under concurrency.
    graph_at = {0: g}
    current = g
    for version, node, value in sorted(updates):
        current = current.with_declaration(node, value)
        graph_at[version] = current
    oracle = {}
    mismatches = 0
    for s, t, version, got in records:
        key = (version, s, t)
        if key not in oracle:
            want = vcg_unicast_payments(
                graph_at[version], s, t, method="fast", on_monopoly="inf"
            )
            oracle[key] = _answer_key(want)
        if got != oracle[key]:
            mismatches += 1

    emit(
        f"service load: {total} requests over {elapsed * 1e3:.0f} ms "
        f"({throughput:.0f} req/s), {len(updates)} concurrent updates, "
        f"{stats.rejected} rejected, {len(oracle)} distinct "
        f"(version, pair) keys verified, {mismatches} mismatches"
    )
    benchmark.extra_info["throughput_rps"] = round(throughput, 1)
    benchmark.extra_info["requests"] = total
    benchmark.extra_info["updates"] = len(updates)
    benchmark.extra_info["verified_keys"] = len(oracle)
    benchmark.extra_info["mismatches"] = mismatches

    # Timed round for BENCH_* comparisons: the same closed loop minus
    # the recording overhead.
    benchmark.pedantic(
        lambda: _closed_loop(g, requests_per_reader, record=False),
        rounds=1,
        iterations=1,
    )
    assert mismatches == 0
    assert throughput >= 500.0


# ---------------------------------------------------------------------------
# Chaos leg: the same zero-mismatch gate through the full HTTP stack
# while a seeded fault plan tears connections and injects 5xx.
# ---------------------------------------------------------------------------

N_CHAOS_CLIENTS = 4

CHAOS_RULE = dict(
    latency_p=0.05, latency_s=0.002, error_p=0.05, reset_p=0.05, torn_p=0.05
)


def _chaos_loop(g, requests_per_client, record=True):
    """Closed loop over HTTP: PricingClient callers retry through a
    seeded ChaosPlan; returns (records, updates, elapsed, fault_count)."""
    from repro.obs.metrics import MetricsRegistry
    from repro.service import (
        BackoffPolicy,
        ChaosPlan,
        ChaosRule,
        PricingClient,
        ServiceServer,
    )

    rng = np.random.default_rng(6)
    hot = rng.choice(np.arange(1, g.n), size=HOT_SOURCES, replace=False)
    eng = PricingEngine(g, on_monopoly="inf")
    svc = PricingService(eng, workers=8, max_queue=1024, deadline_s=120.0)
    plan = ChaosPlan(
        {"*": ChaosRule(**CHAOS_RULE)}, seed=2004, metrics=MetricsRegistry()
    )
    server = ServiceServer(svc, port=0, chaos=plan).start()

    records = []
    updates = []
    failures = []
    faults = [0]
    mu = threading.Lock()
    start = threading.Barrier(N_CHAOS_CLIENTS + 1, timeout=60)

    def client_loop(idx):
        # Client 0 is the only writer: a retried update ack then always
        # resolves at its original version (idempotency replay), so the
        # recorded history stays a faithful serial order.
        r = np.random.default_rng(3000 + idx)
        client = PricingClient(
            f"http://127.0.0.1:{server.port}",
            deadline_s=120.0,
            retry=BackoffPolicy(max_retries=12, base_s=0.002, cap_s=0.05),
            seed=idx,
            metrics=MetricsRegistry(),
        )
        try:
            start.wait()
            for i in range(requests_per_client):
                if idx == 0 and i % 10 == 9:
                    node = int(r.integers(0, g.n))
                    value = float(r.uniform(1.0, 10.0))
                    resp = client.update_cost(node, value)
                    if record:
                        with mu:
                            updates.append((resp.graph_version, node, value))
                else:
                    if r.random() < 0.9:
                        s = int(hot[r.integers(len(hot))])
                    else:
                        s = int(r.integers(1, g.n))
                    resp = client.price(s, 0)
                    if record:
                        with mu:
                            records.append(
                                (s, 0, resp.graph_version,
                                 _answer_key(resp.payment))
                            )
        except BaseException as exc:
            failures.append(exc)
        finally:
            with mu:
                faults[0] += (
                    client.stats.transport_failures
                    + client.stats.server_errors
                )
            client.close()

    threads = [
        threading.Thread(target=client_loop, args=(i,))
        for i in range(N_CHAOS_CLIENTS)
    ]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join(timeout=600)
    elapsed = time.perf_counter() - t0
    server.stop()
    svc.close()
    assert not failures, failures
    return records, updates, elapsed, faults[0]


def test_service_chaos_client_zero_mismatches(benchmark, scale):
    """The resilience acceptance bar: retried-through faults change
    nothing — every answer is still bit-identical to the serial oracle
    at its pinned version."""
    requests_per_client = 150 if scale.full else 50
    g = _udg_instance()
    vcg_unicast_payments(g, 1, 0, method="fast", on_monopoly="inf")

    records, updates, elapsed, faults = _chaos_loop(g, requests_per_client)
    throughput = len(records) / elapsed

    graph_at = {0: g}
    current = g
    for version, node, value in sorted(set(updates)):
        current = current.with_declaration(node, value)
        graph_at[version] = current
    oracle = {}
    mismatches = 0
    for s, t, version, got in records:
        key = (version, s, t)
        if key not in oracle:
            want = vcg_unicast_payments(
                graph_at[version], s, t, method="fast", on_monopoly="inf"
            )
            oracle[key] = _answer_key(want)
        if got != oracle[key]:
            mismatches += 1

    emit(
        f"chaos leg: {len(records)} answers over {elapsed * 1e3:.0f} ms "
        f"({throughput:.0f} req/s through HTTP + faults), "
        f"{faults} injected faults survived, {len(updates)} updates, "
        f"{len(oracle)} keys verified, {mismatches} mismatches"
    )
    benchmark.extra_info["requests"] = len(records)
    benchmark.extra_info["faults_survived"] = faults
    benchmark.extra_info["verified_keys"] = len(oracle)
    benchmark.extra_info["mismatches"] = mismatches

    benchmark.pedantic(
        lambda: _chaos_loop(g, requests_per_client, record=False),
        rounds=1,
        iterations=1,
    )
    assert mismatches == 0
    # The plan must actually have fired — a silently-null plan would
    # make this gate vacuous.
    assert faults > 0
