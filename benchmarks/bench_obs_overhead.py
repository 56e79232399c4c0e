"""Instrumentation overhead on the Algorithm-1 hot path.

The observability layer promises a ~zero-cost no-op fast path: with the
registry and tracer off, instrumented code pays one attribute check per
flush site and a shared null context manager per timed/span site. The
flight recorder has no disabled mode — it is *always on* in the engine
— so its per-record cost is measured and folded into the same budget.
This bench verifies the promise on ``fast_vcg_payments`` (n = 100):

* measure the disabled-mode runtime of one payment computation;
* measure the *actual* per-site cost of the no-op primitives (null
  ``timed()``, null ``span()``, ``enabled`` checks) plus a live
  flight-recorder ``record()``, and scale it by the number of
  instrumentation sites one run crosses;
* assert the estimated instrumentation share stays **under 5%** of the
  run — the pre-instrumentation baseline is the run minus exactly those
  sites, so this bounds the regression directly;
* assert *enabled*-mode collection stays bounded too (< 2x the
  disabled run) — enabled mode may cost more, but observability that
  doubles request latency is a bug, not a feature.
"""

import time

from repro.core.fast_payment import fast_vcg_payments
from repro.graph import generators as gen
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import TRACER

from conftest import emit

N = 100
#: Instrumentation sites one fast_vcg_payments(n=100, auto backend) run
#: crosses: 1 timed + 4 spans (whole + 3 phases) + 2 Dijkstra flushes +
#: 2 counter-flush guards, plus headroom for the engine layer's flight
#: events (a few per query). Kept deliberately generous.
SITES_PER_RUN = 20


def _instance():
    g = gen.random_biconnected_graph(N, extra_edge_prob=4.0 / N, seed=99)
    return g, 0, N // 2


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _noop_site_cost(iterations: int = 20_000) -> float:
    """Measured seconds per instrumentation site on the cheap path.

    Three disabled no-op primitives plus one always-on flight record —
    the flight recorder is never off in production, so its real
    per-event cost belongs in the per-site budget.
    """
    flight = FlightRecorder(capacity=256)
    t0 = time.perf_counter()
    for _ in range(iterations):
        with REGISTRY.timed("bench.noop"):
            pass
        with TRACER.span("bench.noop"):
            pass
        if REGISTRY.enabled:  # the counter-flush guard pattern
            REGISTRY.add("bench.noop", 1)
        flight.record("bench.noop", request_id="r0", version=0)
    elapsed = time.perf_counter() - t0
    return elapsed / (4 * iterations)


def test_disabled_overhead_under_5_percent(benchmark):
    g, s, t = _instance()
    REGISTRY.disable()
    TRACER.disable()

    fast_vcg_payments(g, s, t)  # warm-up (cached arc arrays, allocations)
    t_disabled = _best_of(lambda: fast_vcg_payments(g, s, t))

    site = _noop_site_cost()
    est_overhead = site * SITES_PER_RUN
    share = est_overhead / t_disabled

    REGISTRY.reset()
    REGISTRY.enable()
    t_enabled = _best_of(lambda: fast_vcg_payments(g, s, t))
    REGISTRY.disable()

    emit(
        "obs overhead on fast_vcg_payments "
        f"(n={N})\n"
        f"  disabled run        {t_disabled * 1e6:9.1f} us\n"
        f"  per-site no-op cost {site * 1e9:9.1f} ns  x {SITES_PER_RUN} sites"
        f" = {est_overhead * 1e6:.3f} us ({share:.3%} of the run)\n"
        f"  metrics-enabled run {t_enabled * 1e6:9.1f} us "
        f"({t_enabled / t_disabled:.2f}x)"
    )
    benchmark.pedantic(
        lambda: fast_vcg_payments(g, s, t), rounds=3, iterations=1
    )
    assert share < 0.05, (
        f"disabled instrumentation costs {share:.2%} of a fast_payment run; "
        "the no-op fast path (flight recorder included) must stay under 5%"
    )
    assert t_enabled < 2.0 * t_disabled, (
        f"metrics-enabled run is {t_enabled / t_disabled:.2f}x the disabled "
        "run; enabled-mode collection must stay under 2x"
    )


def test_disabled_mode_records_nothing(benchmark):
    g, s, t = _instance()
    REGISTRY.disable()
    REGISTRY.reset()
    TRACER.reset()
    benchmark.pedantic(
        lambda: fast_vcg_payments(g, s, t), rounds=3, iterations=1
    )
    assert not REGISTRY.snapshot()
    assert TRACER.records == []
