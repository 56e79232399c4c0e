"""The concurrent pricing service's acceptance claim: correct under load.

A seeded closed-loop load generator drives :class:`repro.service.
PricingService` the way a deployed access point would be driven — 8
reader threads pricing from a recurring hot pool of sources (the
steady-state mix of ``bench_engine``) while 2 writer threads re-declare
node costs — on the 500-node unit-disk instance. Every answer carries
the ``graph_version`` it was priced at; afterwards the serial oracle
(``repro.engine.oracle``) recomputes every distinct ``(version, source,
target)`` from scratch and demands bit-identity. The acceptance bar:
**zero mismatches** while sustaining **>= 500 req/s** through the full
service stack (admission queue, deadlines, worker pool — everything but
the HTTP socket); ``tools/chaos_smoke.py`` adds faults and a kill -9.
"""

import threading
import time

import numpy as np

from repro.core.vcg_unicast import vcg_unicast_payments
from repro.engine import PricingEngine
from repro.engine.oracle import verify
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
                            (a.graph_version, s, 0, a.payment)
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
                        updates.append((version, ("cost", node, value)))
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
    # Pay one-time costs (cached arc arrays) outside the loop.
    vcg_unicast_payments(g, 1, 0, method="fast", on_monopoly="inf")

    records, updates, stats, elapsed = _closed_loop(g, requests_per_reader)
    total = N_READERS * requests_per_reader
    assert len(records) == total
    throughput = total / elapsed

    # Writer-lock serialization: versions are exactly 1..V (continuous
    # uniform values make accidental no-op updates a.s. impossible).
    versions = sorted(v for v, _ in updates)
    assert versions == list(range(1, N_WRITERS * UPDATES_PER_WRITER + 1))

    # Serial oracle: every answer served under concurrency must be
    # bit-identical to a from-scratch price at the version it names.
    verdict = verify(g, updates, records)

    emit(
        f"service load: {total} requests over {elapsed * 1e3:.0f} ms "
        f"({throughput:.0f} req/s), {len(updates)} concurrent updates, "
        f"{stats.rejected} rejected, {verdict.checked} answers verified, "
        f"{verdict.mismatches} mismatches"
    )
    benchmark.extra_info["throughput_rps"] = round(throughput, 1)
    benchmark.extra_info["requests"] = total
    benchmark.extra_info["updates"] = len(updates)
    benchmark.extra_info["mismatches"] = verdict.mismatches

    # Timed round for BENCH_* comparisons: the same closed loop minus
    # the recording overhead.
    benchmark.pedantic(
        lambda: _closed_loop(g, requests_per_reader, record=False),
        rounds=1,
        iterations=1,
    )
    assert verdict.mismatches == 0, verdict.examples
    assert verdict.checked == total
    assert throughput >= 500.0
