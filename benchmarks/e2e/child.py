"""Child processes of the end-to-end benchmark.

``child.py serve`` builds the server from public API only —
``PricingEngine`` -> ``PricingService`` -> ``ServiceServer`` with the
``repro.cli serve`` defaults (4 workers, queue 64, 30 s deadline,
``on_monopoly="inf"``, metrics registry enabled). It reads one JSON
spec line on stdin (the generated graph and options), prints
``PORT <port>`` once listening, and drains and exits on ``stop``.

``child.py sweep`` prints ``READY`` once imported, then runs Figure-3(a)
sweeps back to back (at least ``min_sweeps``, and while the next one
should still end within ``budget_s``), checks them, and prints one JSON
result line.

With ``trace_out`` set in the spec, each wraps its layers (see
:mod:`spans`) and writes the spans there before exiting.
"""

from __future__ import annotations

import json
import sys
import time

from repro import io as wire
from repro.obs.metrics import REGISTRY

import spans


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def serve() -> None:
    from repro.engine import PricingEngine
    from repro.obs.context import current_request_id
    from repro.service import PricingService, ServiceServer

    spec = json.loads(sys.stdin.readline())
    rec = None
    if spec.get("trace_out"):
        rec = spans.SpanRecorder(rid_of=current_request_id)
        spans.install_server(rec)
    graph = wire.from_dict(spec["graph"])
    REGISTRY.enable()
    engine = PricingEngine(
        graph, on_monopoly="inf", checkpoint_dir=spec.get("wal_dir")
    )
    service = PricingService(engine)
    server = ServiceServer(service, port=0).start()
    print(f"PORT {server.port}", flush=True)
    for line in sys.stdin:
        if line.strip() == "stop":
            break
    server.stop()
    service.close()
    if rec is not None:
        rec.dump(spec["trace_out"])
    print("DONE", flush=True)


def sweep() -> None:
    import numpy as np

    from repro.analysis import experiments
    from repro.analysis.figures import fig3a
    from repro.core.link_vcg import link_vcg_payments
    from repro.utils.rng import derive_seed

    print("READY", flush=True)
    spec = json.loads(sys.stdin.readline())
    rec = None
    if spec.get("trace_out"):
        rec = spans.SpanRecorder()
        spans.install_sweep(rec)

    # Per-instance latency and the tables the oracle samples: one list
    # append per ~100 ms instance, negligible next to the work timed.
    instance_s: list[float] = []
    tables: list = []
    priced = experiments.run_overpayment_instance
    tabulate = experiments.all_sources_link_payments

    def timed_instance(*args, **kwargs):
        t0 = time.monotonic()
        try:
            return priced(*args, **kwargs)
        finally:
            instance_s.append(time.monotonic() - t0)

    def kept_table(dg, *args, **kwargs):
        table = tabulate(dg, *args, **kwargs)
        tables.append((dg, table))
        return table

    experiments.run_overpayment_instance = timed_instance
    experiments.all_sources_link_payments = kept_table

    n_values = tuple(spec["n_values"])
    base = (spec["seed"], "fig3_sweep", spec["round"])
    fig3a(
        n_values=(n_values[0],), instances=1, seed=derive_seed(*base, "warmup"), jobs=1
    )
    instance_s.clear()
    tables.clear()

    rng = np.random.default_rng(derive_seed(*base, "oracle"))
    out = {"sweeps": [], "checked": 0, "mismatches": [], "series": [], "windows": []}
    elapsed = cpu_s = 0.0
    while True:
        seed = derive_seed(*base, len(out["sweeps"]))
        t0, cpu0 = time.monotonic(), time.process_time()
        series = fig3a(n_values=n_values, instances=1, seed=seed, jobs=1)
        dt = time.monotonic() - t0
        elapsed += dt
        cpu_s += time.process_time() - cpu0
        out["windows"].append((t0, t0 + dt))
        out["sweeps"].append({"s": dt, "instances": list(instance_s)})
        out["series"].append(
            [[float(x) for x in series.series[k]] for k in ("IOR", "TOR")]
        )
        # Oracle (untimed): seeded sources of this sweep's tables
        # against the single-source link mechanism.
        for _ in range(spec["check_sources"]):
            dg, table = tables[int(rng.integers(len(tables)))]
            sources = list(table.sources())
            if not sources:
                continue
            s = sources[int(rng.integers(len(sources)))]
            out["checked"] += 1
            got = table.payment_result(s)
            want = link_vcg_payments(dg, s, table.root, on_monopoly="inf")
            if not _link_match(got, want):
                out["mismatches"].append(repr((s, got, want))[:300])
        instance_s.clear()
        tables.clear()
        enough = len(out["sweeps"]) >= spec["min_sweeps"]
        if enough and elapsed + dt > spec["budget_s"]:
            break
    out["elapsed_s"] = elapsed
    out["cpu_s"] = cpu_s
    out["peak_rss_mb"] = vm_hwm_mb()
    if rec is not None:
        rec.dump(spec["trace_out"])
    print(json.dumps(out), flush=True)


def _link_match(got, want) -> bool:
    """Same route exactly; values equal up to float summation order
    (the table sums each route from the access point's side)."""
    import math

    if got.path != want.path or set(got.payments) != set(want.payments):
        return False
    pairs = [(got.lcp_cost, want.lcp_cost)] + [
        (got.payments[k], want.payments[k]) for k in got.payments
    ]
    return all(a == b or math.isclose(a, b, rel_tol=1e-9) for a, b in pairs)


if __name__ == "__main__":
    import os

    os.sched_setaffinity(0, {int(c) for c in sys.argv[2].split(",")})
    {"serve": serve, "sweep": sweep}[sys.argv[1]]()
