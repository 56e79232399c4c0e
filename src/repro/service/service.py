"""The concurrent pricing service: admission control over a shared engine.

:class:`PricingService` is the piece between the HTTP layer
(:mod:`repro.service.http`) and the snapshot-isolated
:class:`~repro.engine.PricingEngine`. The engine guarantees that
concurrent queries are bit-identical to a serial execution; this layer
adds the serving policies a shared engine needs under load, and every
answer it returns is a fresh engine read over the costs declared now:

* **Bounded admission queue.** Price queries pass through a
  ``queue.Queue(maxsize=max_queue)`` drained by a fixed worker pool.
  A full queue rejects *immediately* with
  :class:`~repro.errors.ServiceOverloadedError` (HTTP 429) — callers
  get a fast, honest "back off" instead of an unbounded latency tail.
* **Deadlines.** Every request carries a deadline (default
  ``deadline_s``, overridable per call). A caller gives up with
  :class:`~repro.errors.DeadlineExceededError` (HTTP 504) when it
  expires, and workers skip tickets that expired while queued instead
  of burning engine time on answers nobody is waiting for.
* **Write-through updates.** ``update_cost`` / ``add_node`` /
  ``remove_node`` bypass the queue: the engine's writer lock already
  serializes them, and queueing mutations behind queries would only
  delay the version bump that queries are supposed to observe.
* **Graceful drain.** :meth:`close` stops admissions
  (:class:`~repro.errors.ServiceClosedError` afterwards), lets queued
  work finish, joins the workers, writes a final checkpoint when the
  engine is durable, and closes the engine (flushing its WAL).

Every answer carries the ``graph_version`` it was computed at —
returned by :meth:`PricingEngine.price_versioned` under the same
read-lock hold that served the query — so callers can replay a serial
oracle against the recorded update history and verify bit-identity
(``tests/test_service.py`` and ``benchmarks/bench_service.py`` do).

Observability: counters under ``service.*`` (requests, rejected,
timeouts, updates, batches), latency histograms
(``service.price_time``, ``service.batch_time``,
``service.update_time``) and a queue-depth gauge, all in the process
registry (:mod:`repro.obs.metrics`) next to the ``engine.*`` family.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple

from repro.engine.engine import PricingEngine
from repro.errors import (
    DeadlineExceededError,
    InvalidRequestError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.io import deadline_budget
from repro.obs import logging as obs_logging
from repro.obs.context import request_scope
from repro.obs.flight import FLIGHT
from repro.obs.metrics import REGISTRY as _metrics

__all__ = [
    "PricingService",
    "ServiceStats",
    "PricedAnswer",
    "BatchAnswer",
]

_log = obs_logging.get_logger("service")


@dataclass
class ServiceStats:
    """Always-on serving counters (mirrored under ``service.*`` in the
    obs registry when collectors are enabled).

    ``requests`` counts admitted price queries, ``batches`` admitted
    ``price_many`` calls, ``rejected`` queue-full rejections (the
    429s), ``timeouts`` deadline expiries (the 504s — waiter gave up or
    the ticket expired in queue), ``updates`` applied mutations,
    ``expired`` tickets a worker skipped because their deadline passed
    while they sat in the admission queue.
    """

    requests: int = 0
    batches: int = 0
    rejected: int = 0
    timeouts: int = 0
    updates: int = 0
    expired: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (reports, ``/healthz``)."""
        return asdict(self)


class PricedAnswer(NamedTuple):
    """One served query: the payment and the engine version it was
    priced at."""

    payment: object
    graph_version: int


class BatchAnswer(NamedTuple):
    """One served batch: ``pair -> payment`` plus the pinned version."""

    payments: dict
    graph_version: int


class _Ticket:
    """One unit of queued work and the one caller waiting on it."""

    __slots__ = (
        "kind", "key", "pairs", "budget", "deadline",
        "done", "result", "version", "error",
    )

    def __init__(self, kind: str, budget: float) -> None:
        self.kind = kind  # "pair" | "batch"
        self.key: tuple[int, int] | None = None
        self.pairs: list[tuple[int, int]] | None = None
        self.budget = budget
        self.deadline = time.monotonic() + budget
        self.done = threading.Event()
        self.result = None
        self.version = -1
        self.error: BaseException | None = None


class PricingService:
    """Concurrent, deadline-aware pricing front end over one engine.

    Every request, batches included, is priced in-process on the worker
    thread that drains its ticket: the service never fans out over
    worker processes (an all-sources batch to one target is a single
    pass, see :mod:`repro.core.all_sources`).

    Parameters
    ----------
    engine:
        The shared :class:`~repro.engine.PricingEngine`. The service
        owns its lifecycle from here on: :meth:`close` drains, writes a
        final checkpoint when durable, and closes it.
    workers:
        Threads draining the admission queue. Pricing releases the GIL
        inside the NumPy kernels, so a handful of workers keeps
        the engine busy; more mostly adds queue fairness.
    max_queue:
        Admission-queue capacity. Submits beyond it fail fast with
        :class:`~repro.errors.ServiceOverloadedError` (HTTP 429).
    deadline_s:
        Default per-request deadline (overridable per call); expiry
        raises :class:`~repro.errors.DeadlineExceededError` (504).
    """

    def __init__(
        self,
        engine: PricingEngine,
        workers: int = 4,
        max_queue: int = 64,
        deadline_s: float = 30.0,
    ) -> None:
        if workers < 1:
            raise InvalidRequestError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise InvalidRequestError(
                f"max_queue must be >= 1, got {max_queue}"
            )
        self._engine = engine
        self._deadline_s = deadline_budget(deadline_s)
        self._queue: queue.Queue[_Ticket | None] = queue.Queue(
            maxsize=int(max_queue)
        )
        self._max_queue = int(max_queue)
        self._mu = threading.Lock()
        self._closed = False
        self.stats = ServiceStats()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-{i}",
                daemon=True,
            )
            for i in range(int(workers))
        ]
        for t in self._workers:
            t.start()

    # -- introspection -------------------------------------------------------

    @property
    def engine(self) -> PricingEngine:
        """The engine this service fronts."""
        return self._engine

    @property
    def closed(self) -> bool:
        """True once :meth:`close` started draining."""
        return self._closed

    @property
    def queue_depth(self) -> int:
        """Tickets currently waiting in the admission queue."""
        return self._queue.qsize()

    @property
    def max_queue(self) -> int:
        """Admission-queue capacity (the 429 threshold)."""
        return self._max_queue

    @property
    def default_deadline_s(self) -> float:
        """Deadline applied when a request does not carry its own."""
        return self._deadline_s

    def __repr__(self) -> str:
        return (
            f"PricingService(workers={len(self._workers)}, "
            f"queue={self.queue_depth}/{self._max_queue}, "
            f"closed={self._closed})"
        )

    def _count(self, name: str, n: int = 1) -> None:
        if _metrics.enabled:
            _metrics.add(f"service.{name}", n)

    def _update_gauges(self) -> None:
        if _metrics.enabled:
            _metrics.set_gauge("service.queue_depth", self.queue_depth)

    def _new_ticket(self, kind: str, deadline_s: float | None) -> _Ticket:
        budget = (
            self._deadline_s if deadline_s is None
            else deadline_budget(deadline_s)
        )
        return _Ticket(kind, budget)

    # -- queries -------------------------------------------------------------

    def price(
        self, source: int, target: int, deadline_s: float | None = None
    ) -> PricedAnswer:
        """Price one request through the admission queue.

        Raises :class:`~repro.errors.ServiceOverloadedError` on a full
        queue, :class:`~repro.errors.DeadlineExceededError` on expiry,
        :class:`~repro.errors.ServiceClosedError` after :meth:`close`,
        and otherwise exactly what the engine raises
        (:class:`~repro.errors.DisconnectedError`, ...).
        """
        ticket = self._new_ticket("pair", deadline_s)
        ticket.key = (int(source), int(target))
        self._admit(ticket, "requests")
        return PricedAnswer(*self._await_ticket(ticket))

    def price_many(
        self,
        pairs: Iterable[tuple[int, int]],
        deadline_s: float | None = None,
    ) -> BatchAnswer:
        """Price a batch through the admission queue (one ticket).

        Batches share the queue's backpressure and deadline rules; the
        whole batch is priced under one engine read-lock hold, so every
        payment in the answer carries the same ``graph_version``.
        """
        ticket = self._new_ticket("batch", deadline_s)
        ticket.pairs = [(int(s), int(t)) for s, t in pairs]
        if not ticket.pairs:
            raise InvalidRequestError("pairs must be non-empty")
        self._admit(ticket, "batches")
        return BatchAnswer(*self._await_ticket(ticket))

    def _admit(self, ticket: _Ticket, counter: str) -> None:
        """Enqueue ``ticket`` or fail fast (closed: 503, full: 429)."""
        with self._mu:
            if self._closed:
                raise ServiceClosedError(
                    "service is draining; request not admitted"
                )
            try:
                self._queue.put_nowait(ticket)
            except queue.Full:
                self.stats.rejected += 1
                self._count("rejected")
                raise ServiceOverloadedError(
                    f"admission queue full ({self._max_queue} tickets); "
                    "retry with backoff"
                ) from None
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            self._count(counter)
            self._update_gauges()

    def _await_ticket(self, ticket: _Ticket):
        remaining = ticket.deadline - time.monotonic()
        if not ticket.done.wait(timeout=max(0.0, remaining)):
            self.stats.timeouts += 1
            self._count("timeouts")
            raise DeadlineExceededError(
                f"request deadline of {ticket.budget:.3f}s expired "
                "waiting for an answer"
            )
        if ticket.error is not None:
            raise ticket.error
        return ticket.result, ticket.version

    # -- updates (write-through; the engine's writer lock serializes) --------

    def update_cost(self, node: int, value: float) -> int:
        """Apply a cost re-declaration; returns the published version."""
        self._check_admitting()
        t0 = time.perf_counter()
        version = self._engine.update_cost(node, value)
        self._note_update(t0)
        return version

    def add_node(self, cost: float = 0.0, neighbors=()) -> int:
        """Grow the graph by one node; returns the new node's id."""
        self._check_admitting()
        t0 = time.perf_counter()
        node = self._engine.add_node(cost=cost, neighbors=neighbors)
        self._note_update(t0)
        return node

    def remove_node(self, node: int) -> int:
        """Disconnect a node; returns the published version."""
        self._check_admitting()
        t0 = time.perf_counter()
        version = self._engine.remove_node(node)
        self._note_update(t0)
        return version

    def graph(self):
        """The current ``(graph, version)`` snapshot, read atomically."""
        self._check_admitting()
        return self._engine.graph_snapshot()

    def _check_admitting(self) -> None:
        if self._closed:
            raise ServiceClosedError(
                "service is draining; request not admitted"
            )

    def _note_update(self, t0: float) -> None:
        self.stats.updates += 1
        self._count("updates")
        if _metrics.enabled:
            _metrics.observe("service.update_time", time.perf_counter() - t0)

    # -- worker pool ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.get()
            try:
                if ticket is None:
                    return  # drain sentinel
                self._serve_ticket(ticket)
            finally:
                self._queue.task_done()

    def _serve_ticket(self, ticket: _Ticket) -> None:
        t0 = time.perf_counter()
        if t0 >= ticket.deadline:
            # Expired while queued: don't burn engine time on an
            # answer nobody is waiting for. The waiter already raised
            # (and counted) its own timeout.
            self.stats.expired += 1
            self._count("expired_in_queue")
            FLIGHT.record("service.expired_in_queue")
            ticket.error = DeadlineExceededError(
                "request expired in the admission queue"
            )
        else:
            try:
                with request_scope():
                    if ticket.kind == "pair":
                        ticket.result, ticket.version = (
                            self._engine.price_versioned(*ticket.key)
                        )
                    else:
                        ticket.result, ticket.version = (
                            self._engine.price_many_versioned(ticket.pairs)
                        )
            except BaseException as exc:  # delivered to the waiter
                ticket.error = exc
        ticket.done.set()
        if _metrics.enabled:
            name = (
                "service.price_time"
                if ticket.kind == "pair"
                else "service.batch_time"
            )
            _metrics.observe(name, time.perf_counter() - t0)
            self._update_gauges()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Graceful drain: finish queued work, then retire the engine.

        Stops admitting (new submits raise
        :class:`~repro.errors.ServiceClosedError`), waits for the queue
        to empty and in-flight tickets to finish, joins the worker
        pool, writes a final checkpoint when the engine is durable, and
        closes the engine — flushing its WAL. Idempotent.
        """
        with self._mu:
            if self._closed:
                return
            self._closed = True
        self._queue.join()  # queued tickets all served
        for _ in self._workers:
            self._queue.put(None)  # one sentinel per worker
        for t in self._workers:
            t.join(timeout=30.0)
        if self._engine.durable and not self._engine.closed:
            self._engine.checkpoint()
        self._engine.close()
        self._update_gauges()
        _log.info(
            "service drained",
            extra={
                "requests": self.stats.requests,
                "rejected": self.stats.rejected,
                "timeouts": self.stats.timeouts,
                "updates": self.stats.updates,
            },
        )

    def __enter__(self) -> "PricingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
