"""A long-lived, update-aware VCG pricing service.

Why a service layer
-------------------

Every entry point in :mod:`repro.core` prices one request on one
immutable graph. A deployed access point instead sees a *stream*:
mostly repeated ``price(source, target)`` queries, occasionally a node
re-declaring its cost or joining/leaving. Recomputing two Dijkstras and
an Algorithm-1 pass per request throws away almost all of the work —
the shortest-path structure barely changes between updates. Ad hoc-VCG
(PAPERS.md) runs the mechanism continuously over exactly such a drifting
network; this module supplies the machinery.

Versioned snapshots and dirty-region invalidation
-------------------------------------------------

The engine owns the current graph plus a monotonically increasing
``version``. It keeps two caches:

* an **SPT cache** ``root -> ShortestPathTree`` (Algorithm 1 consumes
  one tree per endpoint; trees are shared across every pair touching the
  endpoint, exactly like :func:`repro.core.allpairs.pairwise_vcg_payments`).
  It holds trees of the current version only: every version bump
  empties it, and a tree is rebuilt from scratch at its next use;
* a **pair cache** with one record kind: ``(source, target) ->
  (stamp, payment, witnessed)``. ``payment`` is the answer as served;
  ``stamp`` the version it was computed at; ``witnessed`` the largest
  path cost the answer rests on, ``max(lcp_cost, max over relays of
  ||P_{-k}||)``, read back from the payments (``p_k - c_k + lcp``) when
  the record is written. ``price`` and ``price_many`` write the same
  record, so a pair a batch priced survives updates like any other.

The engine serves the node model only; a link-weighted digraph
(Section III.F) is priced statelessly by :func:`repro.api.price_links`.

A pair stamp that does not match the current version marks the entry
stale. An *update* itself does almost no work: it swaps the
graph snapshot, bumps the version, drops the trees and appends a
``(node, old, new)`` record to a bounded **update log**. A cost
re-declaration logs the old and new cost; a node leaving is the paper's
``d |^k inf`` (Section III.A removes ``v_k`` this way to define
``P_{-v_k}``) and logs ``c_k -> +inf``; a node joining logs
``+inf -> c_n``. The last two are *topology* records. Whether a stale
pair is still usable is decided lazily, at lookup, by *fast-forwarding*
it through the logged updates one at a time — entries nobody asks for
again never cost anything. A fast-forwarded pair is re-stamped (counted
per logged step as ``retained``); one that fails is evicted (counted as
``invalidations``, or ``stale_evictions`` once it is older than the
log). Per logged update ``k: c_old -> c_new``:

* **Pair survival.** When ``k`` is an endpoint, a cost record leaves
  a cached result for ``(s, t)`` unchanged (endpoint costs never enter
  path costs or payments, Section II.C) and a topology record evicts it
  (the endpoint left, so the pair is now disconnected). Otherwise let
  ``B`` be the record's ``witnessed`` value. Path costs in the node model
  are *symmetric* (reversing a path keeps its internal nodes), so one
  **witness** ``dist`` array from ``k`` — solved once per logged update,
  distances only, and shared by every cached pair — supplies
  ``d_s[k] = d_k[s]`` and ``d_t[k] = d_k[t]`` for all endpoints at
  once. It is solved on a
  snapshot where ``k`` has its edges: the one a cost update or a join
  produced, the one before a leave. These distances never include
  ``c_k`` (root cost) nor the endpoint's own cost, so they are valid on
  both the old and the new graph. Any simple ``s``–``t`` path with
  ``k`` internal costs at least ``d_s[k] + c_k + d_t[k]``; if
  ``d_k[s] + min(c_old, c_new) + d_k[t] > B`` (strictly), no such path
  can affect the LCP or any avoiding path on either graph, so every
  number in the result is unchanged. Infinite ``B`` (a monopolized
  relay priced with ``on_monopoly="inf"``) never passes — conservative.

Once its witness exists, a log entry drops its snapshot and keeps only
``(node, old, new)`` and the distances. The log is capped (``_LOG_CAP``
updates); pairs older than the cap fall back to a plain rebuild at next
use.

Exactness under ties: every tree is canonical
(:func:`repro.graph.dijkstra.node_weighted_spt` sets each parent to the
smallest-id tight neighbour), so the path Algorithm 1 reads off the
trees is a function of the graph alone, whatever the backend, graph
size or update history. A certified update leaves every distance the
answer depends on, and every tight predecessor among them, unchanged,
so a retained pair keeps the path a fresh build would choose. The one
exception is zero costs: a node whose only tight predecessors are
zero-cost relays keeps its solver's parent, so path identity under
ties among zero-cost nodes rests on the tests, not on this argument.

Batching
--------

``price_many`` funnels cache misses into
:func:`~repro.core.allpairs.pairwise_vcg_payments`, sharing and growing
the engine's SPT cache, and stores every priced pair in the pair cache.
Misses that share a target (every source to the access point, Section
III.G) are priced by the all-sources batch
(:mod:`repro.core.all_sources`), which reads the target's tree and
builds no source tree; the SPT-cache counters count only the trees a
batch reads (:func:`~repro.core.allpairs.spt_roots`).

Concurrency and snapshot isolation
----------------------------------

The engine is safe to share across threads. A writer-preferring
reader–writer lock (:class:`repro.engine.sync.RWLock`) enforces
snapshot isolation: :meth:`PricingEngine.price` /
:meth:`PricingEngine.price_many` hold the read side, so any number of
queries run concurrently against one frozen ``(graph, version)``
snapshot, while :meth:`PricingEngine.update_cost` /
:meth:`PricingEngine.add_node` / :meth:`PricingEngine.remove_node` /
:meth:`PricingEngine.checkpoint` serialize through the write side and
publish the next version atomically. No query ever observes a
half-applied mutation, so every answer is bit-identical to what a
serial execution at that answer's ``graph_version`` would produce —
:meth:`PricingEngine.price_versioned` returns the pinned version
alongside the payment precisely so callers (the service layer, the
stress tests) can replay the serial oracle and check.

Two sharp edges follow from the design and are worth knowing:

* Cache *bookkeeping* (hit/miss counters, concurrent same-key inserts)
  is benign-racy under concurrent readers: both racers compute the
  same bit-identical value from the same snapshot and the last insert
  wins, so responses are exact even when counters are approximate.
* Once closed (:meth:`PricingEngine.close`), queries and mutations
  raise :class:`~repro.errors.EngineClosedError`; introspection
  properties stay readable.

Durability
----------

With ``checkpoint_dir=`` set, every applied mutation is appended to a
checksummed write-ahead log and :meth:`PricingEngine.checkpoint`
(manual, or automatic every ``checkpoint_every`` mutations) persists
the declared graph, its version and the engine configuration — not the
caches, which are derived data — atomically.
:meth:`PricingEngine.open` recovers a crashed engine bit-identically
by loading the newest valid checkpoint and replaying the WAL tail
through the very same mutation methods. The formats, fsync policies
and corruption-fallback rules live in :mod:`repro.engine.persist`
(and the operations guide, ``docs/engine.md``).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.allpairs import pairwise_vcg_payments, spt_roots
from repro.core.fast_payment import fast_vcg_payments
from repro.core.mechanism import (
    UnicastPayment,
    resolve_backend,
    resolve_monopoly_policy,
    spt_backend_for,
)
from repro.engine import persist as _persist_mod
from repro.engine.sync import RWLock
from repro.errors import EngineClosedError, InvalidRequestError, ReproError
from repro.graph.dijkstra import node_weighted_dist, node_weighted_spt
from repro.graph.node_graph import NodeWeightedGraph
from repro.graph.spt import ShortestPathTree
from repro.obs import logging as obs_logging
from repro.obs.context import request_scope
from repro.obs.flight import FLIGHT as _flight
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.tracing import TRACER as _tracer
from repro.utils.validation import check_node_index

__all__ = ["PricingEngine", "EngineStats"]

_log = obs_logging.get_logger("engine")


@dataclass
class EngineStats:
    """Always-on local counters (the :mod:`repro.obs` registry mirrors
    them under ``engine.*`` when enabled).

    ``cache_hits``/``cache_misses`` count pair-cache outcomes per priced
    pair; ``spt_cache_*`` the endpoint-tree cache (current-version trees
    only — every version bump empties it); ``invalidations`` pairs
    dropped at lookup because a logged update (cost or topology) may
    have changed them; ``stale_evictions`` pairs dropped because they
    aged out of the update log (the log cap or an explicit
    :meth:`PricingEngine.purge_stale`); ``retained``
    fast-forward steps that carried a pair through a logged update
    unchanged.

    ``wal_records``/``checkpoint_writes``/``recoveries`` count the
    durability layer (:mod:`repro.engine.persist`): mutations appended
    to the write-ahead log, checkpoint files written, and recoveries
    this engine was built from (0 or 1 — it mirrors into the cumulative
    ``engine.recoveries`` obs counter).
    """

    queries: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    spt_cache_hits: int = 0
    spt_cache_misses: int = 0
    invalidations: int = 0
    stale_evictions: int = 0
    retained: int = 0
    updates: int = 0
    wal_records: int = 0
    checkpoint_writes: int = 0
    recoveries: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (for reports and ``--metrics`` output)."""
        return asdict(self)

    @property
    def hit_rate(self) -> float:
        """Pair-cache hit rate over all priced pairs (``nan`` when idle)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else float("nan")


def _empty_payment(source: int, target: int) -> UnicastPayment:
    return UnicastPayment(source, target, (), 0.0, {}, scheme="vcg")


#: Updates remembered for lazy pair fast-forwarding; pairs
#: older than this fall back to a plain rebuild at next use. Memory
#: bound per remembered update: its graph snapshot until the witness
#: distances are solved (that snapshot's tail-cost CSR is ~190 KB on a
#: 500-node, 7,859-edge graph), then one ``n``-float ``dist`` array.
_LOG_CAP = 128


@dataclass
class _CostUpdate:
    """One logged update ``node: old -> new``, with what pair
    fast-forward needs (see the module docstring's pair-survival test).

    A leave is ``c_k -> +inf`` and a join ``+inf -> c_n``, both with
    ``topology`` set. ``graph`` is a snapshot on which ``node`` has its
    edges (the one the update produced; for a leave, the one before
    it); the witness distances from ``node`` are solved on it lazily,
    and the snapshot is dropped once the witness exists.
    """

    node: int
    old: float
    new: float
    graph: NodeWeightedGraph | None
    witness: np.ndarray | None = None
    topology: bool = False


class PricingEngine:
    """Long-lived pricing service over a versioned topology snapshot.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.node_graph.NodeWeightedGraph` (Sections
        II–III.E). Any other type, a link-weighted digraph included,
        raises :class:`TypeError`.
    backend, on_monopoly:
        The uniform pricing keywords, applied to every request this
        engine serves (see :func:`repro.core.mechanism.resolve_backend`).
    checkpoint_dir:
        When set, the engine is *durable*: every applied mutation is
        appended to a checksummed write-ahead log in this directory
        and :meth:`checkpoint` persists the graph atomically (see
        :mod:`repro.engine.persist`). The directory must not already
        hold engine state — recover that with :meth:`open` instead.
    fsync, fsync_every:
        WAL fsync policy: ``"always"`` (fsync per mutation — a kill -9
        loses nothing applied), ``"interval"`` (default; fsync every
        ``fsync_every`` records), ``"never"`` (OS page cache decides).
    checkpoint_every:
        Automatically :meth:`checkpoint` after this many logged
        mutations (``None`` = manual checkpoints only).
    retain:
        Checkpoint generations kept for corruption fallback.

    Every answer is exactly what the stateless
    :func:`repro.core.vcg_unicast_payments` (``method="fast"``) would
    return on the current snapshot. The caches only change *when* work
    happens, never the numbers — the hypothesis property in
    ``tests/test_engine.py`` interleaves updates and queries and checks
    bit-identity against from-scratch pricing.
    """

    def __init__(
        self,
        graph: NodeWeightedGraph,
        backend: str = "auto",
        on_monopoly: str = "raise",
        checkpoint_dir: str | Path | None = None,
        fsync: str = "interval",
        fsync_every: int = 64,
        checkpoint_every: int | None = None,
        retain: int = 2,
    ) -> None:
        if not isinstance(graph, NodeWeightedGraph):
            raise TypeError(
                "PricingEngine serves the node model and needs a "
                f"NodeWeightedGraph, got {type(graph).__name__} (price a "
                "link-weighted digraph with repro.api.price_links)"
            )
        self._graph = graph
        self._backend = resolve_backend(backend)
        self._on_monopoly = resolve_monopoly_policy(on_monopoly)
        self._rw = RWLock()
        self._closed = False
        self._version = 0
        # root -> current-version tree;
        # (source, target) -> (stamp, payment, witnessed), see _store
        self._spts: dict[int, ShortestPathTree] = {}
        self._pairs: dict[
            tuple[int, int], tuple[int, UnicastPayment, float]
        ] = {}
        # version -> the cost update that produced it; a stale entry
        # stamped v can fast-forward iff v >= _log_floor (every later
        # update is still in the log).
        self._log: dict[int, _CostUpdate] = {}
        self._log_floor = 0
        self.stats = EngineStats()
        #: The :class:`~repro.engine.persist.RecoveryReport` this engine
        #: was recovered from (``None`` for fresh engines).
        self.last_recovery: _persist_mod.RecoveryReport | None = None
        self._checkpoint_every = (
            int(checkpoint_every) if checkpoint_every else None
        )
        self._persist: _persist_mod.EnginePersistence | None = None
        if checkpoint_dir is not None:
            store = _persist_mod.EnginePersistence(
                checkpoint_dir,
                fsync=fsync,
                fsync_every=fsync_every,
                retain=retain,
            )
            if store.has_state():
                raise _persist_mod.PersistError(
                    f"{checkpoint_dir} already holds engine state; "
                    "recover it with PricingEngine.open() or point at "
                    "an empty directory"
                )
            self._persist = store
            self.checkpoint()  # the durable base the WAL extends

    # -- introspection -------------------------------------------------------

    @property
    def graph(self) -> NodeWeightedGraph:
        """The current topology snapshot (immutable; replaced on update)."""
        return self._graph

    @property
    def version(self) -> int:
        """Monotonic snapshot version; bumps on every applied update."""
        return self._version

    @property
    def model(self) -> str:
        """Always ``"node"``: the cost model the engine serves (kept
        on ``/healthz``, ``/v1/graph`` and in checkpoints)."""
        return "node"

    @property
    def backend(self) -> str:
        """The kernel backend every request is served with."""
        return self._backend

    @property
    def on_monopoly(self) -> str:
        """The monopoly policy every request is served with."""
        return self._on_monopoly

    @property
    def n(self) -> int:
        """Number of nodes in the current snapshot."""
        return self._graph.n

    @property
    def durable(self) -> bool:
        """True when the engine persists mutations (``checkpoint_dir=``)."""
        return self._persist is not None

    @property
    def closed(self) -> bool:
        """True after :meth:`close`; queries and mutations then raise."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise EngineClosedError(
                "engine is closed; queries and mutations no longer apply"
            )

    def graph_snapshot(
        self,
    ) -> tuple[NodeWeightedGraph, int]:
        """The current ``(graph, version)`` pair, read atomically.

        Reading ``eng.graph`` and ``eng.version`` separately can
        straddle a concurrent update; this takes the read lock once so
        the two always correspond.
        """
        with self._rw.read_locked():
            self._check_open()
            return self._graph, self._version

    def paused(self):
        """Exclusive pause: ``with eng.paused():`` blocks every query
        and mutation until the block exits.

        Readers drain first (writer preference), then the block runs
        alone — a quiescence point for consistent external backups, and
        the hook the concurrency tests use to stage deterministic
        interleavings.
        """
        return self._rw.write_locked()

    def __repr__(self) -> str:
        return (
            f"PricingEngine(n={self.n}, "
            f"version={self._version}, spts={len(self._spts)}, "
            f"pairs={len(self._pairs)})"
        )

    def _count(self, name: str, n: int = 1) -> None:
        """Bump ``self.stats.<name>`` and, when enabled, ``engine.<name>``."""
        setattr(self.stats, name, getattr(self.stats, name) + n)
        if _metrics.enabled:
            _metrics.add(f"engine.{name}", n)

    def _update_gauges(self) -> None:
        """Mirror the live resource footprint into ``engine.*`` gauges
        so cache growth is visible on ``/metrics``, not just hit/miss
        counters. Called after every query/update while enabled."""
        if _metrics.enabled:
            _metrics.set_gauge("engine.spt_cache_entries", len(self._spts))
            _metrics.set_gauge("engine.pair_cache_entries", len(self._pairs))
            _metrics.set_gauge("engine.update_log_entries", len(self._log))
            if self._persist is not None:
                _metrics.set_gauge(
                    "engine.wal_bytes", float(self._persist.wal_bytes)
                )
                _metrics.set_gauge(
                    "engine.wal_records_since_checkpoint",
                    float(self._persist.records_since_checkpoint),
                )

    # -- SPT cache -----------------------------------------------------------

    def _spt_of(self, root: int) -> ShortestPathTree:
        spt = self._spts.get(root)
        if spt is not None:
            self._count("spt_cache_hits")
            return spt
        self._count("spt_cache_misses")
        _flight.record("rebuild", version=self._version, value=float(root))
        spt = node_weighted_spt(
            self._graph, root, backend=spt_backend_for(self._backend)
        )
        self._spts[root] = spt
        return spt

    # -- queries -------------------------------------------------------------

    def price(self, source: int, target: int) -> UnicastPayment:
        """VCG outcome for one request on the current snapshot.

        Served from the pair cache when a same-version entry exists;
        otherwise computed (sharing cached endpoint SPTs) and cached.
        Raises exactly what the stateless entry points raise
        (:class:`~repro.errors.DisconnectedError`,
        :class:`~repro.errors.MonopolyError` under
        ``on_monopoly="raise"``). Thread-safe: runs under the shared
        read lock, so concurrent calls never observe a half-applied
        update.
        """
        with self._rw.read_locked():
            self._check_open()
            return self._price_locked(source, target)

    def price_versioned(
        self, source: int, target: int
    ) -> tuple[UnicastPayment, int]:
        """Like :meth:`price`, returning ``(payment, graph_version)``.

        The version is read under the same read-lock hold that served
        the query, so it names exactly the snapshot the payment was
        computed against — the handle a caller needs to verify the
        answer against a serial oracle (``docs/service.md``).
        """
        with self._rw.read_locked():
            self._check_open()
            return self._price_locked(source, target), self._version

    def _price_locked(self, source: int, target: int) -> UnicastPayment:
        source = check_node_index(source, self._graph.n)
        target = check_node_index(target, self._graph.n)
        self._count("queries")
        if source == target:
            return _empty_payment(source, target)
        key = (source, target)
        with request_scope() as rid:
            t0 = time.perf_counter()
            try:
                with _tracer.span(
                    "engine.price", source=source, target=target
                ):
                    cached = self._lookup_pair(key)
                    res = (
                        cached
                        if cached is not None
                        else self._compute_pair(key)
                    )
            except ReproError:
                raise  # domain outcome (disconnected, monopoly), not a crash
            except Exception as exc:
                _flight.record("error", rid, self._version)
                _flight.dump_error(exc)
                raise
            elapsed = time.perf_counter() - t0
            _flight.record("query", rid, self._version, elapsed)
            if _metrics.enabled:
                _metrics.observe("engine.price_time", elapsed)
                self._update_gauges()
            _log.debug(
                "request priced",
                extra={
                    "source": source,
                    "target": target,
                    "hit": cached is not None,
                    "version": self._version,
                    "elapsed_s": round(elapsed, 6),
                },
            )
            return res

    def _lookup_pair(self, key: tuple[int, int]) -> UnicastPayment | None:
        entry = self._pairs.get(key)
        if entry is not None:
            if entry[0] == self._version or self._fast_forward_pair(
                key, entry
            ):
                self._count("cache_hits")
                _flight.record("hit", version=self._version)
                return entry[1]
        self._count("cache_misses")
        _flight.record("miss", version=self._version)
        return None

    def _fast_forward_pair(
        self, key: tuple[int, int], entry: tuple[int, UnicastPayment, float]
    ) -> bool:
        """Re-stamp a stale pair if every logged update provably left it
        unchanged; evict it otherwise."""
        stamp, payment, witnessed = entry
        if stamp >= self._log_floor:
            for v in range(stamp + 1, self._version + 1):
                if not self._pair_survives(witnessed, key, self._log[v]):
                    self._pairs.pop(key, None)
                    self._count("invalidations")
                    _flight.record("invalidate", version=self._version)
                    return False
                self._count("retained")
            self._pairs[key] = (self._version, payment, witnessed)
            _flight.record(
                "fast_forward",
                version=self._version,
                value=float(self._version - stamp),
            )
            return True
        self._pairs.pop(key, None)
        self._count("stale_evictions")
        _flight.record("evict", version=self._version)
        return False

    def _compute_pair(self, key: tuple[int, int]) -> UnicastPayment:
        source, target = key
        payment = fast_vcg_payments(
            self._graph,
            source,
            target,
            on_monopoly=self._on_monopoly,
            backend=self._backend,
            spt_source=self._spt_of(source),
            spt_target=self._spt_of(target),
        ).to_unicast_payment()
        self._store(key, payment)
        return payment

    def _store(self, key: tuple[int, int], payment: UnicastPayment) -> None:
        """Cache ``payment`` at the current version with the largest
        quantity it witnessed, the bound pair survival tests against.

        That is ``max(lcp, max over relays k of ||P_{-k}||)``, each
        avoiding cost read back from its payment as
        ``p_k - c_k + lcp`` with the costs the pair was priced on. The
        payment was computed from the canonical sums as
        ``||P_{-k}|| - lcp + c_k``, so the read-back can differ from
        ``||P_{-k}||`` by the rounding of those two float operations:
        it was exact on 993 of 998 all-sources-to-AP pairs of two
        500-node instances (``bench_engine._udg_instance`` seeds 2004
        and 7) and within 1.4e-16 relative on the rest, far inside the
        certificate's 1e-9 margin. A monopoly relay pays ``inf``, so its
        pair never survives.
        """
        lcp = payment.lcp_cost
        costs = self._graph.costs
        witnessed = max(
            [lcp] + [p - costs[k] + lcp for k, p in payment.payments.items()]
        )
        self._pairs[key] = (self._version, payment, float(witnessed))

    def price_many(
        self, pairs: Iterable[tuple[int, int]]
    ) -> dict[tuple[int, int], UnicastPayment]:
        """Price a batch of ordered pairs; returns ``pair -> payment``.

        Cache hits are served directly; the remaining pairs funnel into
        the shared-SPT batch machinery
        (:func:`~repro.core.allpairs.pairwise_vcg_payments`), reusing —
        and growing — this engine's SPT cache. Thread-safe: the whole
        batch runs under one read-lock hold, so every pair in the
        returned dict was priced at the same version.
        """
        with self._rw.read_locked():
            self._check_open()
            return self._price_many_locked(pairs)

    def price_many_versioned(
        self, pairs: Iterable[tuple[int, int]]
    ) -> tuple[dict[tuple[int, int], UnicastPayment], int]:
        """Like :meth:`price_many`, returning ``(payments, version)``
        with the version pinned for the entire batch."""
        with self._rw.read_locked():
            self._check_open()
            return self._price_many_locked(pairs), self._version

    def _price_many_locked(
        self, pairs: Iterable[tuple[int, int]]
    ) -> dict[tuple[int, int], UnicastPayment]:
        self._count("batches")
        with request_scope() as rid:
            t0 = time.perf_counter()
            out: dict[tuple[int, int], UnicastPayment] = {}
            todo: list[tuple[int, int]] = []
            seen: set[tuple[int, int]] = set()
            for s, t in pairs:
                s = check_node_index(s, self._graph.n)
                t = check_node_index(t, self._graph.n)
                key = (s, t)
                if key in seen:
                    continue
                seen.add(key)
                self._count("queries")
                if s == t:
                    out[key] = _empty_payment(s, t)
                    continue
                cached = self._lookup_pair(key)
                if cached is not None:
                    out[key] = cached
                else:
                    todo.append(key)
            if todo:
                try:
                    with _tracer.span(
                        "engine.price_many",
                        pairs=len(out) + len(todo),
                        misses=len(todo),
                    ):
                        out.update(self._price_batch_serial(todo))
                except ReproError:
                    raise
                except Exception as exc:
                    _flight.record("error", rid, self._version)
                    _flight.dump_error(exc)
                    raise
            elapsed = time.perf_counter() - t0
            _flight.record("batch", rid, self._version, elapsed)
            self._update_gauges()
            _log.debug(
                "batch priced",
                extra={
                    "pairs": len(out),
                    "misses": len(todo),
                    "version": self._version,
                    "elapsed_s": round(elapsed, 6),
                },
            )
            return out

    def _price_batch_serial(
        self, todo: Sequence[tuple[int, int]]
    ) -> dict[tuple[int, int], UnicastPayment]:
        # Share (and grow) the engine's endpoint-SPT cache; count only
        # the trees the batch reads.
        shared = dict(self._spts)
        priced = pairwise_vcg_payments(
            self._graph,
            todo,
            on_monopoly=self._on_monopoly,
            backend=self._backend,
            spt_cache=shared,
        )
        for root in spt_roots(todo, self._backend):
            if root in self._spts:
                self._count("spt_cache_hits")
            else:
                self._count("spt_cache_misses")
                self._spts[root] = shared[root]
        for key, payment in priced.items():
            self._store(key, payment)
        return priced

    # -- updates -------------------------------------------------------------

    def update_cost(self, node: int, value: float) -> int:
        """Apply a declared-cost change; returns the new version.

        ``value`` is ``node``'s new declared cost (the ``d |^i d_i``
        operation). The update itself only swaps the snapshot, drops
        the cached trees and logs the change; cached pairs are
        fast-forwarded through the log lazily at their next lookup (see
        the module docstring).

        A ``node`` that is not an integer id (a link-model ``(u, v)``
        arc, say) raises :class:`~repro.errors.InvalidRequestError`.
        A no-op change (same value) leaves version and caches
        untouched. Thread-safe: serializes through the write lock;
        in-flight queries finish against the old snapshot first, then
        the new version is published atomically.
        """
        with self._rw.write_locked():
            self._check_open()
            return self._update_cost_locked(node, value)

    def _update_cost_locked(self, node, value: float) -> int:
        if not isinstance(node, numbers.Integral):
            raise InvalidRequestError(
                f"a cost update addresses a node id, got {node!r}"
            )
        node = check_node_index(node, self._graph.n)
        old = float(self._graph.costs[node])
        value = float(value)
        if value == old:
            return self._version
        self._graph = self._graph.with_declaration(node, value)
        self._bump_update()
        self._log_update(_CostUpdate(node, old, value, self._graph))
        _flight.record("update", version=self._version, value=float(node))
        self._persist_append(
            _persist_mod.update_record(node, value, self._version)
        )
        self._update_gauges()
        return self._version

    def _bump_update(self) -> None:
        self._version += 1
        self._spts.clear()
        self._count("updates")

    def _log_update(self, upd: _CostUpdate) -> None:
        """Log the update that produced the current version, dropping
        the oldest entry past ``_LOG_CAP``."""
        self._log[self._version] = upd
        if len(self._log) > _LOG_CAP:
            self._log_floor = min(self._log)
            del self._log[self._log_floor]

    def _witness_of(self, upd: _CostUpdate) -> np.ndarray:
        """The update's witness distances (from the updated node),
        solved on first use against the logged snapshot, which is then
        dropped: pair survival reads nothing else from it."""
        if upd.witness is None:
            upd.witness = node_weighted_dist(
                upd.graph, upd.node, backend=spt_backend_for(self._backend)
            )
            upd.graph = None
        return upd.witness

    def _pair_survives(
        self, witnessed: float, key: tuple[int, int], upd: _CostUpdate
    ) -> bool:
        s, t = key
        k = upd.node
        if k == s or k == t:
            # Endpoint costs never enter path costs or payments, but an
            # endpoint that left (or joined) changes the answer itself.
            return not upd.topology
        dist = self._witness_of(upd)
        # Path costs are symmetric, so the witness distances
        # double as d_s[k] and d_t[k] for every cached endpoint.
        bound = float(dist[s]) + min(upd.old, upd.new) + float(dist[t])
        if not np.isfinite(witnessed):
            return False
        # Strict clearance with a relative margin. The bound is tight
        # exactly when a witnessed avoiding path runs through ``k`` (it
        # IS the cheapest through-``k`` path) — a common case, not a
        # measure-zero tie — and the two sides sum the same node costs
        # in different orders, so float noise can push ``bound`` a few
        # ULPs above ``witnessed``. Any genuine clearance under
        # continuous costs dwarfs 1e-9; a near-tie must drop the entry
        # (conservative: it just recomputes).
        return bound > witnessed + 1e-9 * max(1.0, abs(witnessed))

    def remove_node(self, node: int) -> int:
        """Drop every edge incident to ``node``; returns the new version.

        Node ids stay stable (the repo-wide convention — payments on the
        shrunken network refer to the same ids). The node itself remains
        as an isolated vertex; pricing to or from it raises
        :class:`~repro.errors.DisconnectedError`. The edges are masked
        out of the CSR in O(n + m) vector work, and the leave is logged
        as the cost update ``c_k -> +inf``, so a cached pair survives it
        when every path through the node cost more than anything the
        pair witnessed; pairs with the node as an endpoint are evicted.
        Thread-safe (write lock).
        """
        with self._rw.write_locked():
            self._check_open()
            return self._remove_node_locked(node)

    def _remove_node_locked(self, node: int) -> int:
        node = check_node_index(node, self._graph.n)
        # The paper's ``d |^k inf``: the witness is rooted at ``node`` on
        # the snapshot where it still has its edges.
        before = self._graph
        self._graph = before.without_node(node)
        self._bump_update()
        self._log_update(
            _CostUpdate(
                node, float(before.costs[node]), math.inf, before,
                topology=True,
            )
        )
        _flight.record("topology", version=self._version, value=float(node))
        self._persist_append(
            _persist_mod.remove_record(node, self._version)
        )
        self._update_gauges()
        return self._version

    def add_node(self, cost: float = 0.0, neighbors=()) -> int:
        """Grow the snapshot by one node; returns the **new node's id**.

        The node joins with declared ``cost`` and undirected edges to
        ``neighbors`` (one ``np.insert`` into the CSR), logged as the
        cost update ``+inf -> cost`` that the pair certificate decides
        like any other. Thread-safe (write lock).
        """
        with self._rw.write_locked():
            self._check_open()
            return self._add_node_locked(cost, neighbors)

    def _add_node_locked(self, cost: float, neighbors) -> int:
        n = self._graph.n
        neighbors = list(neighbors)
        # A join lowers node ``n``'s cost from +inf; the witness is
        # rooted at ``n`` on the snapshot that has its edges.
        self._graph = self._graph.with_node(cost, neighbors)
        self._bump_update()
        self._log_update(
            _CostUpdate(
                n, math.inf, float(self._graph.costs[n]), self._graph,
                topology=True,
            )
        )
        _flight.record("topology", version=self._version, value=float(n))
        self._persist_append(
            _persist_mod.add_record(cost, neighbors, self._version)
        )
        self._update_gauges()
        return n

    # -- durability ----------------------------------------------------------

    def _persist_append(self, record: dict) -> None:
        """Log one applied mutation to the WAL; auto-checkpoint when due."""
        if self._persist is None:
            return
        self._persist.append(record)
        self._count("wal_records")
        if (
            self._checkpoint_every is not None
            and self._persist.records_since_checkpoint
            >= self._checkpoint_every
        ):
            self.checkpoint()

    def _checkpoint_state(self) -> _persist_mod.CheckpointState:
        """Snapshot everything a checkpoint preserves: the declared
        graph, its version and the engine configuration."""
        return _persist_mod.CheckpointState(
            graph=self._graph,
            graph_version=self._version,
            backend=self._backend,
            on_monopoly=self._on_monopoly,
        )

    def checkpoint(self) -> Path:
        """Persist the declared graph now; returns the checkpoint path.

        Writes atomically (temp file + rename), rotates the WAL so the
        new checkpoint starts an empty tail, and prunes generations
        past ``retain``. The caches are not written (a recovered engine
        rebuilds them at first use). Requires the engine to have been
        built with ``checkpoint_dir=``. Thread-safe: takes
        the write lock (reentrantly when an automatic checkpoint fires
        inside a mutation), so the persisted state is a quiescent
        snapshot.
        """
        if self._persist is None:
            raise _persist_mod.PersistError(
                "engine has no checkpoint_dir; pass one at construction "
                "or recover with PricingEngine.open()"
            )
        with self._rw.write_locked():
            self._check_open()
            path = self._persist.write_checkpoint(self._checkpoint_state())
            self._count("checkpoint_writes")
            _flight.record(
                "checkpoint",
                version=self._version,
                value=float(self._persist.seq),
            )
            self._update_gauges()
            return path

    @classmethod
    def open(
        cls,
        checkpoint_dir: str | Path,
        backend: str | None = None,
        on_monopoly: str | None = None,
        fsync: str = "interval",
        fsync_every: int = 64,
        checkpoint_every: int | None = None,
        retain: int = 2,
        resume: bool = True,
    ) -> "PricingEngine":
        """Recover an engine from a checkpoint directory.

        Loads the newest checkpoint that validates (falling back to
        older generations on corruption), replays the WAL tail above it
        through the normal mutation methods — so the recovered graph,
        version and every subsequent price are **bit-identical** to a
        process that never crashed — and, with ``resume=True``
        (default), re-attaches persistence and writes a fresh recovery
        checkpoint so the recovery itself is durable and any torn WAL
        tail is retired. ``resume=False`` gives a read-only view that
        leaves the directory untouched (inspection, tests).

        ``backend``/``on_monopoly`` default to the values the
        checkpoint recorded. The outcome (chosen checkpoint, records
        replayed, corruption tolerated) is ``engine.last_recovery``, a
        :class:`~repro.engine.persist.RecoveryReport`.
        """
        state, records, report = _persist_mod.load_state(checkpoint_dir)
        eng = cls(
            state.graph,
            backend=backend if backend is not None else state.backend,
            on_monopoly=(
                on_monopoly if on_monopoly is not None else state.on_monopoly
            ),
        )
        eng._version = state.graph_version
        eng._log_floor = state.graph_version
        applied = 0
        for rec in records:
            recorded = int(rec.get("version", -1))
            if recorded <= eng._version:
                continue  # duplicated tail after a crash mid-rotation
            _persist_mod.apply_record(eng, rec)
            applied += 1
            if eng._version != recorded:
                report.divergence = (
                    f"record for version {recorded} left the engine at "
                    f"{eng._version}; replay stopped at the consistent "
                    "prefix"
                )
                break
        report.wal_records = applied
        eng._count("recoveries")
        eng.last_recovery = report
        _flight.record(
            "recover",
            version=eng._version,
            value=float(report.wal_records),
        )
        _log.info(
            "engine recovered",
            extra={
                "dir": str(checkpoint_dir),
                "version": eng._version,
                "wal_records": report.wal_records,
                "clean": report.clean,
            },
        )
        if resume:
            eng._checkpoint_every = (
                int(checkpoint_every) if checkpoint_every else None
            )
            eng._persist = _persist_mod.EnginePersistence(
                checkpoint_dir,
                fsync=fsync,
                fsync_every=fsync_every,
                retain=retain,
            )
            eng.checkpoint()
        eng._update_gauges()
        return eng

    def close(self) -> None:
        """Retire the engine: flush and close the WAL, then refuse
        further queries and mutations with
        :class:`~repro.errors.EngineClosedError`.

        Idempotent. Takes the write lock, so in-flight queries finish
        first and nothing is ever half-served. Buffered WAL records are
        flushed on every append, so a clean process exit loses nothing
        even without ``close()`` — this exists to fsync the tail,
        release the file handle, and mark the handoff point
        deterministically (the context-manager form calls it).
        Introspection (``version``, ``graph``, ``stats``) stays
        readable on a closed engine.
        """
        with self._rw.write_locked():
            if self._closed:
                return
            self._closed = True
            if self._persist is not None:
                self._persist.close()

    def __enter__(self) -> "PricingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- maintenance ---------------------------------------------------------

    def cache_sizes(self) -> dict[str, int]:
        """Current entry counts (stale pairs included until evicted)."""
        return {"spts": len(self._spts), "pairs": len(self._pairs)}

    def purge_stale(self) -> int:
        """Drop every version-mismatched pair now; returns the count.

        Lazy eviction only reclaims a pair when it is queried again; call
        this after heavy churn to bound memory. (Trees never go stale:
        the version bump drops them.) Thread-safe (write lock).
        """
        with self._rw.write_locked():
            self._check_open()
            dropped = 0
            for key, (stamp, *_) in list(self._pairs.items()):
                if stamp != self._version:
                    del self._pairs[key]
                    dropped += 1
            if dropped:
                self._count("stale_evictions", dropped)
                _flight.record(
                    "evict", version=self._version, value=float(dropped)
                )
            self._update_gauges()
            return dropped
