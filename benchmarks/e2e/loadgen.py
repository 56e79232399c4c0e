"""The load generator: open- and closed-loop phases over real sockets.

One generator process drives the server with at most two threads, each
owning one :class:`~repro.service.PricingClient` (so at most two
connections). Every answer is recorded with the ``graph_version`` it
was priced at; every applied update is recorded with the version it
published, so the oracle can rebuild the graph the server saw.

Updates are serialized by a generator-side lock: the server then sees
one writer, and the version an ``add_node`` response reports is the one
that add published.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import DisconnectedError, error_code
from repro.service import PricingClient

from workloads import AP, Instance, Mirror, OpStream, rng_for

#: Pairs of every ``price_many`` answer checked against the oracle.
BATCH_SAMPLE = 50


def answer_key(payment) -> tuple:
    """The full answer the oracle must reproduce exactly."""
    return (
        "ok",
        tuple(payment.path),
        payment.lcp_cost,
        tuple(sorted(payment.payments.items())),
    )


@dataclass
class Phase:
    """What one measured phase produced."""

    name: str  # "open" | "closed"
    start: float  # time.monotonic()
    end: float = 0.0
    # (op kind, due, start, end, failure code or None) per attempted op
    ops: list = field(default_factory=list)
    units: int = 0  # verified-work units completed (pairs for ap_batch)
    cpu_s: float = 0.0  # generator process CPU over the phase


class Session:
    """Executes ops against one server and records what came back."""

    def __init__(self, url: str, inst: Instance, seed: int, rnd: int):
        self.url = url
        self.mirror = Mirror(inst.graph)
        self.pairs = tuple((s, AP) for s in inst.reachable)
        self.sample_rng = rng_for(seed, "batch-sample", rnd)
        self.update_lock = threading.Lock()
        self.record_lock = threading.Lock()
        #: (version, update) for every applied mutation
        self.history: list[tuple[int, tuple]] = []
        #: (version_lo, version_hi, source, target, observed answer)
        self.checks: list[tuple[int, int, int, int, tuple]] = []
        self._acked = 0  # newest version acknowledged to the generator
        self._issued = 0  # newest version an in-flight update may publish
        self.clients: list[PricingClient] = []

    def client(self, idx: int) -> PricingClient:
        c = PricingClient(self.url, deadline_s=30.0, timeout_s=10.0, seed=idx)
        self.clients.append(c)
        return c

    def close(self) -> None:
        for c in self.clients:
            c.close()

    def retries(self) -> int:
        return sum(c.stats.retries for c in self.clients)

    # -- ops ------------------------------------------------------------

    def execute(self, client: PricingClient, op: tuple) -> int:
        """Run one op; returns the verified-work units it carries."""
        kind = op[0]
        if kind == "price":
            lo = self._acked
            try:
                resp = client.price(op[1], op[2])
            except DisconnectedError as exc:  # MonopolyError included
                # An error envelope carries no version: accept any the
                # request could have seen.
                self._check(lo, self._issued, op[1], op[2], ("err", error_code(exc)))
            else:
                v = resp.graph_version
                self._check(v, v, op[1], op[2], answer_key(resp.payment))
            return 1
        with self.update_lock:
            if kind == "churn":
                cost, nbrs = self.mirror.leave(op[1])
                self._update(("remove", op[1]), client.remove_node, op[1])
                node = self.mirror.join(cost, nbrs)
                resp = self._update(
                    ("add", cost, tuple(nbrs)), client.add_node, cost, nbrs
                )
                if resp.node != node:
                    raise RuntimeError(f"add_node gave id {resp.node}, expected {node}")
                return 1
            # "cost", and the re-declaration that opens a "batch"
            self._update(("cost", op[1], op[2]), client.update_cost, op[1], op[2])
            self.mirror.set_cost(op[1], op[2])
            if kind == "cost":
                return 1
        resp = client.price_many(self.pairs)
        v = resp.graph_version
        sample = self.sample_rng.choice(
            len(self.pairs), size=min(BATCH_SAMPLE, len(self.pairs)), replace=False
        )
        for i in sample:
            p = resp.payments[int(i)]
            self._check(v, v, p.source, p.target, answer_key(p))
        return len(self.pairs)

    def _update(self, update: tuple, call, *args):
        """Send one mutation; record it with the version it published."""
        self._issued += 1
        resp = call(*args)
        self._acked = resp.graph_version
        with self.record_lock:
            self.history.append((resp.graph_version, update))
        return resp

    def _check(self, lo, hi, s, t, observed) -> None:
        with self.record_lock:
            self.checks.append((lo, hi, s, t, observed))


def _run_threads(target, n: int) -> None:
    errors: list[BaseException] = []

    def guarded(idx):
        try:
            target(idx)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _attempt(session: Session, client, op, phase: Phase, due: float) -> None:
    start = time.monotonic()
    failure = None
    units = 0
    try:
        units = session.execute(client, op)
    except Exception as exc:  # a failed op is data, not a crash
        failure = getattr(exc, "code", None) or type(exc).__name__
    end = time.monotonic()
    with session.record_lock:
        phase.ops.append((op[0], due, start, end, failure))
        phase.units += units


def open_loop(
    session: Session, clients, stream: OpStream, rate: float, duration: float
) -> Phase:
    """Poisson arrivals at ``rate``/s; each request is timed from its due
    time, so a stall also charges the requests queued behind it."""
    schedule = stream.arrivals(rate, duration)
    cursor = iter(schedule)
    take = threading.Lock()
    cpu0 = time.process_time()
    phase = Phase("open", time.monotonic() + 0.05)

    def worker(idx):
        client = clients[idx]
        while True:
            with take:
                item = next(cursor, None)
            if item is None:
                return
            due = phase.start + item[0]
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            _attempt(session, client, item[1], phase, due)

    _run_threads(worker, len(clients))
    phase.end = time.monotonic()
    phase.cpu_s = time.process_time() - cpu0
    return phase


def closed_loop(session: Session, clients, stream: OpStream, duration: float) -> Phase:
    """Each connection sends its next op as soon as the last completes."""
    take = threading.Lock()
    cpu0 = time.process_time()
    phase = Phase("closed", time.monotonic())
    stop_at = phase.start + duration

    def worker(idx):
        client = clients[idx]
        while time.monotonic() < stop_at:
            with take:
                op = stream.next_op()
            now = time.monotonic()
            _attempt(session, client, op, phase, now)

    _run_threads(worker, len(clients))
    phase.end = time.monotonic()
    phase.cpu_s = time.process_time() - cpu0
    return phase
