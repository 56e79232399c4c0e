"""Seeded request/update traces and their replay harness.

A pricing service is exercised by a *workload*: an ordered mix of
``price`` queries and ``update`` cost changes (the paper's setting —
Section III.G prices everyone toward the access point while declared
costs are whatever the selfish nodes last announced). This module:

* generates seeded workloads (:func:`generate_workload`) with a
  configurable query/update mix — the benchmark default is the 90/10
  steady-state mix of ``benchmarks/bench_engine.py``;
* saves/loads them as JSON-lines traces (:func:`save_trace` /
  :func:`load_trace`), the format the ``repro-unicast engine`` CLI
  command replays;
* replays a trace against a :class:`~repro.engine.engine.PricingEngine`
  (:func:`replay`), optionally shadow-checking every answer against
  from-scratch pricing on the current snapshot and timing both sides.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.mechanism import UnicastPayment
from repro.engine.engine import EngineStats, PricingEngine
from repro.engine.oracle import answer_key
from repro.graph.node_graph import NodeWeightedGraph
from repro.utils.rng import derive_seed

__all__ = [
    "WorkloadOp",
    "ReplayReport",
    "generate_workload",
    "save_trace",
    "load_trace",
    "replay",
]


@dataclass(frozen=True)
class WorkloadOp:
    """One trace entry: a ``price`` query or an ``update`` cost change."""

    kind: str  # "price" | "update"
    source: int = -1
    target: int = -1
    node: int = -1
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("price", "update"):
            raise ValueError(f"unknown op kind {self.kind!r}")

    @classmethod
    def price(cls, source: int, target: int) -> "WorkloadOp":
        return cls(kind="price", source=int(source), target=int(target))

    @classmethod
    def update(cls, node: int, value: float) -> "WorkloadOp":
        return cls(kind="update", node=int(node), value=float(value))


def generate_workload(
    g: NodeWeightedGraph,
    n_ops: int = 1000,
    update_frac: float = 0.1,
    seed: int = 0,
    target: int | None = 0,
    hot_sources: int | None = None,
) -> list[WorkloadOp]:
    """A seeded stream of ``n_ops`` operations on a node-weighted graph.

    Each op is an update with probability ``update_frac`` (a uniformly
    chosen node re-declares a cost drawn from the initial cost range),
    else a query. Queries draw the source from a pool of ``hot_sources``
    distinct nodes (default ``max(n // 5, 10)`` — steady-state traffic
    repeats sources, which is what makes caching worth having) toward
    ``target`` (default: the access point 0; ``None`` draws a random
    target per query, the all-pairs generalization).

    Deterministic in ``(g, n_ops, update_frac, seed, ...)`` — streams
    are derived with :func:`repro.utils.rng.derive_seed` so traces are
    reproducible across sessions and processes.
    """
    if not isinstance(g, NodeWeightedGraph):
        raise TypeError("generate_workload expects a NodeWeightedGraph")
    if not 0.0 <= update_frac <= 1.0:
        raise ValueError(f"update_frac must be in [0, 1], got {update_frac}")
    rng = np.random.default_rng(derive_seed(seed, "engine-workload"))
    n = g.n
    lo = float(g.costs.min()) if n else 0.0
    hi = float(g.costs.max()) if n else 1.0
    if hi <= lo:
        hi = lo + 1.0
    if hot_sources is None:
        hot_sources = max(n // 5, min(10, n))
    candidates = [v for v in range(n) if target is None or v != target]
    pool = rng.choice(
        np.asarray(candidates, dtype=np.int64),
        size=min(int(hot_sources), len(candidates)),
        replace=False,
    )
    ops: list[WorkloadOp] = []
    for _ in range(int(n_ops)):
        if rng.random() < update_frac:
            node = int(rng.integers(n))
            value = float(rng.uniform(lo, hi))
            ops.append(WorkloadOp.update(node, value))
        else:
            src = int(pool[rng.integers(pool.shape[0])])
            if target is None:
                dst = int(rng.integers(n))
                while dst == src:
                    dst = int(rng.integers(n))
            else:
                dst = int(target)
            ops.append(WorkloadOp.price(src, dst))
    return ops


def save_trace(ops: Iterable[WorkloadOp], path) -> None:
    """Write a workload as JSON lines (one op per line)."""
    path = Path(path)
    with path.open("w") as fh:
        for op in ops:
            fh.write(json.dumps(asdict(op)) + "\n")


def load_trace(path) -> list[WorkloadOp]:
    """Read a workload written by :func:`save_trace`."""
    path = Path(path)
    ops = []
    for line in path.read_text().splitlines():
        if line.strip():
            ops.append(WorkloadOp(**json.loads(line)))
    return ops


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying a trace through an engine.

    ``naive_elapsed`` and ``mismatches`` are populated only when the
    replay shadow-checked against from-scratch pricing
    (``compare=True``); ``mismatches`` counts queries whose engine
    answer differed *at all* (payments, path or cost) from the fresh
    computation — the acceptance criterion demands zero.
    """

    n_queries: int
    n_updates: int
    elapsed: float
    final_version: int
    stats: EngineStats
    naive_elapsed: float | None = None
    mismatches: int = 0
    mismatch_keys: tuple[tuple[int, int], ...] = field(default=())

    @property
    def speedup(self) -> float:
        """Naive-over-engine wall-clock ratio (``nan`` without compare)."""
        if self.naive_elapsed is None or self.elapsed <= 0:
            return float("nan")
        return self.naive_elapsed / self.elapsed

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"replayed {self.n_queries} queries + {self.n_updates} updates "
            f"in {self.elapsed:.3f}s (engine version {self.final_version})",
            f"pair cache: {self.stats.cache_hits} hits / "
            f"{self.stats.cache_misses} misses "
            f"(hit rate {self.stats.hit_rate:.1%}); "
            f"SPT cache: {self.stats.spt_cache_hits} hits / "
            f"{self.stats.spt_cache_misses} misses",
            f"invalidations {self.stats.invalidations}, retained "
            f"{self.stats.retained}, stale evictions "
            f"{self.stats.stale_evictions}",
        ]
        if self.naive_elapsed is not None:
            lines.append(
                f"naive recompute: {self.naive_elapsed:.3f}s -> "
                f"speedup {self.speedup:.1f}x; mismatches {self.mismatches}"
            )
        return "\n".join(lines)


def replay(
    engine: PricingEngine,
    ops: Sequence[WorkloadOp],
    compare: bool = False,
) -> ReplayReport:
    """Run every op through ``engine``; optionally shadow-check and time
    the naive per-request recompute on the same op stream.

    With ``compare=True`` a second pass replays the trace with *no*
    caching — every query is priced from scratch on the then-current
    graph via the stateless entry point — and every engine answer is
    required to match bit-for-bit. The two passes are timed separately
    so the report's ``speedup`` is engine-vs-naive on identical work.
    """
    g0 = engine.graph  # pre-replay snapshot, for the shadow pass
    answers: list[UnicastPayment] = []
    n_queries = n_updates = 0
    t0 = time.perf_counter()
    for op in ops:
        if op.kind == "price":
            answers.append(engine.price(op.source, op.target))
            n_queries += 1
        else:
            engine.update_cost(op.node, op.value)
            n_updates += 1
    elapsed = time.perf_counter() - t0

    naive_elapsed = None
    mismatches: list[tuple[int, int]] = []
    if compare:
        from repro.core.vcg_unicast import vcg_unicast_payments

        # Rebuild the graph sequence from scratch, stateless pricing only.
        g = g0
        idx = 0
        t0 = time.perf_counter()
        for op in ops:
            if op.kind == "price":
                fresh = vcg_unicast_payments(
                    g,
                    op.source,
                    op.target,
                    method="fast",
                    backend=engine.backend,
                    on_monopoly=engine.on_monopoly,
                )
                if answer_key(fresh) != answer_key(answers[idx]):
                    mismatches.append((op.source, op.target))
                idx += 1
            else:
                g = g.with_declaration(op.node, op.value)
        naive_elapsed = time.perf_counter() - t0

    return ReplayReport(
        n_queries=n_queries,
        n_updates=n_updates,
        elapsed=elapsed,
        final_version=engine.version,
        stats=engine.stats,
        naive_elapsed=naive_elapsed,
        mismatches=len(mismatches),
        mismatch_keys=tuple(mismatches[:10]),
    )
