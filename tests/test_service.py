"""The concurrent pricing service and the snapshot-isolated engine.

The load-bearing test is the stress oracle: many reader threads price
through :class:`~repro.service.PricingService` while writer threads
mutate costs, every answer is pinned to the ``graph_version`` it was
computed at, and afterwards a serial replay of the recorded update
history must reproduce every payment bit-identically. Around it:
RWLock semantics, coalescing, backpressure (429), deadlines (504),
graceful drain, and the HTTP wire surface.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import io as repro_io
from repro.core.vcg_unicast import vcg_unicast_payments
from repro.engine import PricingEngine, RWLock
from repro.errors import (
    DeadlineExceededError,
    EngineClosedError,
    InvalidRequestError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.graph import generators as gen
from repro.service import DegradePolicy, PricingService, ServiceServer


def wait_until(predicate, timeout=5.0, interval=0.005):
    """Poll until ``predicate()`` or fail the test after ``timeout``."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(interval)
    pytest.fail("condition not reached within timeout")


def answer_key(payment):
    """Hashable bit-exact identity of a payment result."""
    return (payment.path, payment.lcp_cost, tuple(sorted(payment.payments.items())))


# ---------------------------------------------------------------------------
# RWLock
# ---------------------------------------------------------------------------


class TestRWLock:
    def test_many_concurrent_readers(self):
        lock = RWLock()
        inside = []
        barrier = threading.Barrier(4, timeout=5)

        def reader():
            with lock.read_locked():
                barrier.wait()  # all 4 hold the read lock at once
                inside.append(1)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert len(inside) == 4

    def test_writer_excludes_readers(self):
        lock = RWLock()
        entered = threading.Event()

        def reader():
            with lock.read_locked():
                entered.set()

        with lock.write_locked():
            t = threading.Thread(target=reader)
            t.start()
            assert not entered.wait(timeout=0.1)
        assert entered.wait(timeout=5)
        t.join(timeout=5)

    def test_write_is_reentrant(self):
        lock = RWLock()
        with lock.write_locked():
            with lock.write_locked():
                assert lock.write_held
            assert lock.write_held
        assert not lock.write_held

    def test_write_holder_may_read(self):
        lock = RWLock()
        with lock.write_locked():
            with lock.read_locked():
                assert lock.write_held

    def test_read_to_write_upgrade_refused(self):
        lock = RWLock()
        with lock.read_locked():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: a queued writer gets in before new readers."""
        lock = RWLock()
        order = []
        lock.acquire_read()
        writer_started = threading.Event()

        def writer():
            writer_started.set()
            with lock.write_locked():
                order.append("w")

        def late_reader():
            wait_until(lambda: writer_started.is_set())
            time.sleep(0.05)  # let the writer queue up first
            with lock.read_locked():
                order.append("r")

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=late_reader)
        tw.start()
        tr.start()
        time.sleep(0.15)
        lock.release_read()
        tw.join(timeout=5)
        tr.join(timeout=5)
        assert order == ["w", "r"]


# ---------------------------------------------------------------------------
# Engine snapshot isolation
# ---------------------------------------------------------------------------


class TestSnapshotIsolation:
    def test_price_versioned_pins_the_snapshot(self):
        g = gen.random_biconnected_graph(24, seed=5)
        eng = PricingEngine(g, on_monopoly="inf")
        p0, v0 = eng.price_versioned(7, 0)
        assert v0 == 0
        eng.update_cost(3, 9.99)
        p1, v1 = eng.price_versioned(7, 0)
        assert v1 == 1
        want = vcg_unicast_payments(
            g.with_declaration(3, 9.99), 7, 0, method="fast", on_monopoly="inf"
        )
        assert answer_key(p1) == answer_key(want)

    def test_graph_snapshot_is_atomic(self):
        g = gen.random_biconnected_graph(16, seed=6)
        eng = PricingEngine(g, on_monopoly="inf")
        eng.update_cost(2, 4.0)
        snap, version = eng.graph_snapshot()
        assert version == 1
        assert snap.costs[2] == 4.0

    def test_paused_blocks_queries(self):
        g = gen.random_biconnected_graph(16, seed=6)
        eng = PricingEngine(g, on_monopoly="inf")
        answered = threading.Event()
        t = threading.Thread(
            target=lambda: (eng.price(5, 0), answered.set())
        )
        with eng.paused():
            t.start()
            assert not answered.wait(timeout=0.1)
        assert answered.wait(timeout=5)
        t.join(timeout=5)

    def test_closed_engine_refuses(self):
        g = gen.random_biconnected_graph(12, seed=1)
        eng = PricingEngine(g, on_monopoly="inf")
        eng.close()
        eng.close()  # idempotent
        with pytest.raises(EngineClosedError):
            eng.price(5, 0)
        with pytest.raises(EngineClosedError):
            eng.update_cost(1, 2.0)


# ---------------------------------------------------------------------------
# PricingService basics
# ---------------------------------------------------------------------------


@pytest.fixture
def service():
    g = gen.random_biconnected_graph(32, seed=9)
    eng = PricingEngine(g, on_monopoly="inf")
    svc = PricingService(eng, workers=2, max_queue=16, deadline_s=10.0)
    yield svc
    if not svc.closed:
        svc.close()


class TestServiceBasics:
    def test_price_matches_direct_engine_answer(self, service):
        answer = service.price(7, 0)
        want = vcg_unicast_payments(
            service.engine.graph, 7, 0, method="fast", on_monopoly="inf"
        )
        assert answer_key(answer.payment) == answer_key(want)
        assert answer.graph_version == 0
        assert service.stats.requests == 1

    def test_price_many_pins_one_version(self, service):
        pairs = [(i, 0) for i in range(1, 6)]
        answer = service.price_many(pairs)
        assert set(answer.payments) == set(pairs)
        assert answer.graph_version == 0
        assert service.stats.batches == 1

    def test_updates_write_through_and_version(self, service):
        v = service.update_cost(3, 7.5)
        assert v == 1
        answer = service.price(7, 0)
        assert answer.graph_version == 1
        graph, version = service.graph()
        assert version == 1 and graph.costs[3] == 7.5
        assert service.stats.updates == 1

    def test_engine_errors_pass_through(self, service):
        from repro.errors import NodeNotFoundError

        with pytest.raises(NodeNotFoundError):
            service.price(999, 0)

    def test_invalid_parameters_rejected(self):
        g = gen.random_biconnected_graph(12, seed=2)
        eng = PricingEngine(g, on_monopoly="inf")
        with pytest.raises(InvalidRequestError):
            PricingService(eng, workers=0)
        with pytest.raises(InvalidRequestError):
            PricingService(eng, max_queue=0)
        with pytest.raises(InvalidRequestError):
            PricingService(eng, deadline_s=0.0)
        svc = PricingService(eng)
        with pytest.raises(InvalidRequestError):
            svc.price(1, 0, deadline_s=-1.0)
        with pytest.raises(InvalidRequestError):
            svc.price_many([])
        svc.close()


class TestCoalescing:
    def test_duplicate_inflight_requests_share_one_ticket(self):
        g = gen.random_biconnected_graph(24, seed=11)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(eng, workers=2, max_queue=16, deadline_s=10.0)
        k = 6
        answers = []
        errors = []
        started = threading.Barrier(k + 1, timeout=5)

        def submit():
            started.wait()
            try:
                answers.append(svc.price(9, 0))
            except BaseException as exc:  # pragma: no cover - fail below
                errors.append(exc)

        with eng.paused():  # workers cannot serve yet
            threads = [threading.Thread(target=submit) for _ in range(k)]
            for t in threads:
                t.start()
            started.wait()
            # every duplicate must have attached to the first ticket
            wait_until(lambda: svc.stats.requests == k)
        for t in threads:
            t.join(timeout=10)
        assert not errors
        assert len(answers) == k
        assert svc.stats.coalesced == k - 1
        assert sum(1 for a in answers if not a.coalesced) == 1
        keys = {answer_key(a.payment) for a in answers}
        versions = {a.graph_version for a in answers}
        assert len(keys) == 1 and versions == {0}
        svc.close()

    def test_finished_ticket_not_reused(self, service):
        a = service.price(5, 0)
        b = service.price(5, 0)
        assert not a.coalesced and not b.coalesced
        assert service.stats.coalesced == 0


class TestBackpressure:
    def test_full_queue_rejects_with_overloaded(self):
        g = gen.random_biconnected_graph(24, seed=12)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(eng, workers=1, max_queue=2, deadline_s=10.0)
        waiters = []
        with eng.paused():
            # First ticket: taken off the queue by the worker, which
            # then blocks inside the engine.
            waiters.append(_submit_async(svc, 1, 0))
            wait_until(lambda: svc.queue_depth == 0 and svc.stats.requests == 1)
            # Two more distinct keys fill the bounded queue.
            waiters.append(_submit_async(svc, 2, 0))
            waiters.append(_submit_async(svc, 3, 0))
            wait_until(lambda: svc.queue_depth == 2)
            with pytest.raises(ServiceOverloadedError):
                svc.price(4, 0)
            assert svc.stats.rejected == 1
        for thread, box in waiters:
            thread.join(timeout=10)
            assert box["error"] is None
        svc.close()

    def test_deadline_exceeded_while_waiting(self):
        g = gen.random_biconnected_graph(24, seed=13)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(eng, workers=1, max_queue=4, deadline_s=10.0)
        with eng.paused():
            with pytest.raises(DeadlineExceededError):
                svc.price(5, 0, deadline_s=0.05)
            assert svc.stats.timeouts == 1
        svc.close()

    def test_ticket_expired_in_queue_is_skipped(self):
        g = gen.random_biconnected_graph(24, seed=14)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(eng, workers=1, max_queue=4, deadline_s=10.0)
        with eng.paused():
            blocker_thread, blocker = _submit_async(svc, 1, 0)
            wait_until(lambda: svc.queue_depth == 0 and svc.stats.requests == 1)
            # Sits in the queue past its deadline while the worker is stuck.
            with pytest.raises(DeadlineExceededError):
                svc.price(2, 0, deadline_s=0.05)
            time.sleep(0.1)
        blocker_thread.join(timeout=10)
        assert blocker["error"] is None
        # The worker observed the expiry (skip path), counted it, and
        # never priced the abandoned key.
        wait_until(lambda: svc.stats.expired == 1)
        # A later request for the expired key starts fresh and succeeds.
        answer = svc.price(2, 0)
        assert answer.payment is not None
        assert not answer.degraded
        svc.close()

    def test_expired_ticket_error_reaches_late_coalescers(self):
        """A waiter that attached to a ticket which then expired in the
        queue gets the worker's DeadlineExceededError, not a hang."""
        g = gen.random_biconnected_graph(24, seed=16)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(eng, workers=1, max_queue=4, deadline_s=10.0)
        with eng.paused():
            blocker_thread, blocker = _submit_async(svc, 1, 0)
            wait_until(lambda: svc.queue_depth == 0 and svc.stats.requests == 1)
            # Queue a short-deadline ticket, then coalesce a second
            # waiter onto the same key with the same short deadline:
            # both expire in the queue while the worker is stuck.
            t2, box2 = _submit_async_deadline(svc, 2, 0, deadline_s=0.2)
            wait_until(lambda: svc.stats.requests == 2)
            t3, box3 = _submit_async_deadline(svc, 2, 0, deadline_s=0.2)
            wait_until(lambda: svc.stats.coalesced == 1)
            time.sleep(0.5)  # both expire while the worker is stuck
        blocker_thread.join(timeout=10)
        for th, box in ((t2, box2), (t3, box3)):
            th.join(timeout=10)
            assert isinstance(box["error"], DeadlineExceededError)
        assert blocker["error"] is None
        wait_until(lambda: svc.stats.expired == 1)
        svc.close()

    def test_close_racing_inflight_coalesced_burst(self):
        """close() must drain a burst of coalesced waiters cleanly:
        every waiter that was admitted before the drain gets the one
        shared answer, and none deadlocks against the drain."""
        g = gen.random_biconnected_graph(24, seed=17)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(eng, workers=2, max_queue=16, deadline_s=30.0)
        k = 12
        with eng.paused():
            waiters = [_submit_async(svc, 5, 0) for _ in range(k)]
            wait_until(lambda: svc.stats.requests == k)
            assert svc.stats.coalesced == k - 1
            # Start the drain while every waiter is still in flight;
            # it blocks on the stuck worker until the pause lifts.
            closer = threading.Thread(target=svc.close)
            closer.start()
            wait_until(lambda: svc.closed)
            # New work is refused the moment the drain starts ...
            with pytest.raises(ServiceClosedError):
                svc.price(7, 0)
        # ... but the burst admitted before it completes normally.
        closer.join(timeout=30)
        assert not closer.is_alive()
        keys = set()
        for thread, box in waiters:
            thread.join(timeout=10)
            assert box["error"] is None
            keys.add(answer_key(box["answer"].payment))
        assert len(keys) == 1
        assert svc.engine.closed


def _submit_async(svc, s, t):
    """Fire ``svc.price(s, t)`` on a thread; returns (thread, result box)."""
    return _submit_async_deadline(svc, s, t, deadline_s=None)


def _submit_async_deadline(svc, s, t, deadline_s):
    box = {"answer": None, "error": None}

    def run():
        try:
            box["answer"] = svc.price(s, t, deadline_s=deadline_s)
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread, box


# ---------------------------------------------------------------------------
# Stress oracle: concurrent answers == serial replay
# ---------------------------------------------------------------------------


class TestStressOracle:
    N_READERS = 8
    N_WRITERS = 2
    REQUESTS_PER_READER = 125  # 8 x 125 = 1000 total
    UPDATES_PER_WRITER = 25

    def test_concurrent_answers_bit_identical_to_serial_replay(self):
        import numpy as np

        g = gen.random_biconnected_graph(48, seed=2004)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(eng, workers=4, max_queue=256, deadline_s=60.0)

        records = []  # (source, target, version, answer_key)
        updates = []  # (version, node, value)
        failures = []
        rec_mu = threading.Lock()

        def reader(idx):
            rng = np.random.default_rng(1000 + idx)
            try:
                for _ in range(self.REQUESTS_PER_READER):
                    s = int(rng.integers(1, g.n))
                    t = int(rng.integers(0, 8))
                    if s == t:
                        s = (t + 1) % g.n or 1
                    a = svc.price(s, t)
                    with rec_mu:
                        records.append(
                            (s, t, a.graph_version, answer_key(a.payment))
                        )
            except BaseException as exc:
                failures.append(exc)

        def writer(idx):
            rng = np.random.default_rng(2000 + idx)
            try:
                for _ in range(self.UPDATES_PER_WRITER):
                    node = int(rng.integers(0, g.n))
                    value = float(rng.uniform(0.5, 20.0))
                    version = svc.update_cost(node, value)
                    with rec_mu:
                        updates.append((version, node, value))
                    time.sleep(0.002)
            except BaseException as exc:
                failures.append(exc)

        threads = [
            threading.Thread(target=reader, args=(i,))
            for i in range(self.N_READERS)
        ] + [
            threading.Thread(target=writer, args=(i,))
            for i in range(self.N_WRITERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not failures, failures
        assert len(records) == self.N_READERS * self.REQUESTS_PER_READER
        svc.close()

        # Writer-lock serialization => versions are a permutation of 1..V.
        versions = sorted(v for v, _, _ in updates)
        assert versions == list(range(1, len(updates) + 1))

        # Serial replay: reconstruct the graph at every version, then
        # demand every concurrent answer equals the from-scratch oracle
        # on the snapshot its version names. Bit-identical, not approx.
        graph_at = {0: g}
        current = g
        for version, node, value in sorted(updates):
            current = current.with_declaration(node, value)
            graph_at[version] = current

        oracle_cache = {}
        mismatches = 0
        for s, t, version, got in records:
            key = (version, s, t)
            if key not in oracle_cache:
                want = vcg_unicast_payments(
                    graph_at[version], s, t, method="fast", on_monopoly="inf"
                )
                oracle_cache[key] = answer_key(want)
            if got != oracle_cache[key]:
                mismatches += 1
        assert mismatches == 0


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_close_drains_and_refuses_afterwards(self, service):
        service.price(5, 0)
        service.close()
        service.close()  # idempotent
        assert service.closed
        assert service.engine.closed
        with pytest.raises(ServiceClosedError):
            service.price(5, 0)
        with pytest.raises(ServiceClosedError):
            service.price_many([(5, 0)])
        with pytest.raises(ServiceClosedError):
            service.update_cost(1, 2.0)
        with pytest.raises(ServiceClosedError):
            service.graph()

    def test_durable_drain_writes_final_checkpoint(self, tmp_path):
        from repro.engine import persist

        state = tmp_path / "state"
        g = gen.random_biconnected_graph(20, seed=3)
        eng = PricingEngine(g, on_monopoly="inf", checkpoint_dir=state)
        svc = PricingService(eng, workers=2)
        svc.update_cost(4, 6.25)
        svc.price(7, 0)
        svc.close()
        inventory = persist.scan(state)
        assert inventory.checkpoints
        # The drained state recovers to the served version.
        recovered = PricingEngine.open(state)
        assert recovered.version == 1
        assert recovered.graph.costs[4] == 6.25
        recovered.close()

    def test_queued_work_finishes_before_close_returns(self):
        g = gen.random_biconnected_graph(24, seed=15)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(eng, workers=2, max_queue=64, deadline_s=30.0)
        boxes = [_submit_async(svc, s, 0) for s in range(1, 9)]
        wait_until(lambda: svc.stats.requests >= 1)
        svc.close()
        for thread, box in boxes:
            thread.join(timeout=10)
            # Every admitted request was answered, none dropped.
            assert box["error"] is None or isinstance(
                box["error"], ServiceClosedError
            )
        answered = sum(1 for _, box in boxes if box["error"] is None)
        assert answered >= 1


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------


@pytest.fixture
def http_server():
    g = gen.random_biconnected_graph(28, seed=21)
    eng = PricingEngine(g, on_monopoly="inf")
    svc = PricingService(eng, workers=2, max_queue=16, deadline_s=10.0)
    server = ServiceServer(svc, port=0).start()
    yield server
    server.stop()
    if not svc.closed:
        svc.close()


def _post(url, obj, timeout=10.0):
    body = json.dumps(repro_io.to_wire(obj)).encode()
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), json.load(resp)


def _post_raw(url, body, timeout=10.0):
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


class TestHTTP:
    def test_price_round_trip_with_request_id(self, http_server):
        status, headers, doc = _post(
            f"{http_server.url}/v1/price", repro_io.PriceRequest(7, 0)
        )
        assert status == 200
        resp = repro_io.from_wire(doc)
        assert isinstance(resp, repro_io.PriceResponse)
        assert doc["schema_version"] == 1
        want = vcg_unicast_payments(
            http_server.service.engine.graph, 7, 0,
            method="fast", on_monopoly="inf",
        )
        assert answer_key(resp.payment) == answer_key(want)
        assert resp.graph_version == 0
        assert resp.request_id and headers["X-Request-Id"] == resp.request_id

    def test_price_many_preserves_request_order(self, http_server):
        pairs = ((5, 0), (9, 0), (5, 0), (3, 0))
        status, _, doc = _post(
            f"{http_server.url}/v1/price_many",
            repro_io.PriceManyRequest(pairs),
        )
        assert status == 200
        resp = repro_io.from_wire(doc)
        got = [(p.source, p.target) for p in resp.payments]
        assert got == [(5, 0), (9, 0), (3, 0)]  # duplicates collapsed

    def test_update_bumps_version_and_graph_reflects_it(self, http_server):
        status, _, doc = _post(
            f"{http_server.url}/v1/update",
            repro_io.UpdateRequest(op="cost", node=3, value=8.5),
        )
        assert status == 200
        resp = repro_io.from_wire(doc)
        assert resp.graph_version == 1
        with urllib.request.urlopen(
            f"{http_server.url}/v1/graph", timeout=10
        ) as r:
            graph_doc = json.load(r)
        graph_resp = repro_io.from_wire(graph_doc)
        assert graph_resp.graph_version == 1
        assert graph_resp.graph.costs[3] == 8.5
        assert graph_resp.model == "node"

    def test_add_node_returns_new_id(self, http_server):
        n = http_server.service.engine.n
        status, _, doc = _post(
            f"{http_server.url}/v1/update",
            repro_io.UpdateRequest(
                op="add_node", cost=1.5, neighbors=(0, 1, 2)
            ),
        )
        assert status == 200
        resp = repro_io.from_wire(doc)
        assert resp.node == n

    def test_unknown_node_maps_to_404(self, http_server):
        status, doc = _post_raw(
            f"{http_server.url}/v1/price",
            json.dumps(repro_io.to_wire(repro_io.PriceRequest(999, 0))).encode(),
        )
        assert status == 404
        err = repro_io.from_wire(doc)
        assert isinstance(err, repro_io.ErrorResponse)
        assert err.code == "graph.node_not_found"
        assert err.status == 404

    def test_malformed_json_maps_to_400(self, http_server):
        status, doc = _post_raw(f"{http_server.url}/v1/price", b"{not json")
        assert status == 400
        err = repro_io.from_wire(doc)
        assert err.code == "io.serialization"

    def test_wrong_envelope_maps_to_400(self, http_server):
        status, doc = _post_raw(
            f"{http_server.url}/v1/price",
            json.dumps(
                repro_io.to_wire(repro_io.UpdateRequest(op="remove_node", node=1))
            ).encode(),
        )
        assert status == 400
        err = repro_io.from_wire(doc)
        assert err.code == "request.invalid"
        assert "PriceRequest" in err.message

    def test_draining_service_maps_to_503(self, http_server):
        http_server.service.close()
        status, doc = _post_raw(
            f"{http_server.url}/v1/price",
            json.dumps(repro_io.to_wire(repro_io.PriceRequest(5, 0))).encode(),
        )
        assert status == 503
        err = repro_io.from_wire(doc)
        assert err.code == "service.closed"

    def test_healthz_reports_service_state(self, http_server):
        with urllib.request.urlopen(
            f"{http_server.url}/healthz", timeout=10
        ) as r:
            doc = json.load(r)
        assert doc["status"] == "ok"
        assert doc["engine_version"] == 0
        assert doc["model"] == "node"
        assert doc["max_queue"] == 16
        assert doc["recovering"] is False
        assert set(doc["service"]) == {
            "requests", "batches", "coalesced", "rejected",
            "timeouts", "updates", "degraded", "expired",
        }

    def test_healthz_reports_peak_rss(self, http_server):
        peaks = []
        for _ in range(2):
            with urllib.request.urlopen(
                f"{http_server.url}/healthz", timeout=10
            ) as r:
                peaks.append(json.load(r)["peak_rss_mb"])
        assert all(isinstance(p, float) and p > 0 for p in peaks)
        assert peaks[1] >= peaks[0]

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_maps_to_400(self, http_server, length):
        body = json.dumps(
            repro_io.to_wire(repro_io.PriceRequest(5, 0))
        ).encode()
        head = (
            "POST /v1/price HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        with socket.create_connection(
            ("127.0.0.1", http_server.port), timeout=5
        ) as sock:
            sock.sendall(head + body)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        status_line, _, rest = raw.partition(b"\r\n")
        assert status_line.split()[1] == b"400"
        err = repro_io.from_wire(json.loads(rest.partition(b"\r\n\r\n")[2]))
        assert isinstance(err, repro_io.ErrorResponse)
        assert err.code == "request.invalid"
        assert "Content-Length" in err.message

    def test_unknown_path_404_lists_endpoints(self, http_server):
        try:
            urllib.request.urlopen(f"{http_server.url}/v9/nope", timeout=10)
            pytest.fail("expected HTTP 404")
        except urllib.error.HTTPError as err:
            assert err.code == 404
            doc = json.load(err)
            assert "endpoints" in doc


class TestRetryAfter:
    def test_503_draining_carries_retry_after(self, http_server):
        http_server.service.close()
        try:
            _post(
                f"{http_server.url}/v1/price", repro_io.PriceRequest(5, 0)
            )
            pytest.fail("expected HTTP 503")
        except urllib.error.HTTPError as err:
            assert err.code == 503
            assert float(err.headers["Retry-After"]) == 1.0
            doc = json.load(err)
            assert repro_io.from_wire(doc).code == "service.closed"

    def test_429_queue_full_carries_retry_after(self):
        g = gen.random_biconnected_graph(24, seed=31)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(eng, workers=1, max_queue=1, deadline_s=30.0)
        server = ServiceServer(svc, port=0).start()
        try:
            with eng.paused():
                # Wedge the worker, then fill the one queue slot.
                _submit_async(svc, 1, 0)
                wait_until(
                    lambda: svc.queue_depth == 0 and svc.stats.requests == 1
                )
                _submit_async(svc, 2, 0)
                wait_until(lambda: svc.queue_depth == 1)
                try:
                    _post(
                        f"{server.url}/v1/price", repro_io.PriceRequest(3, 0)
                    )
                    pytest.fail("expected HTTP 429")
                except urllib.error.HTTPError as err:
                    assert err.code == 429
                    retry_after = float(err.headers["Retry-After"])
                    assert retry_after > 0.0
                    doc = json.load(err)
                    assert repro_io.from_wire(doc).code == "service.overloaded"
        finally:
            server.stop()
            svc.close()


class TestReadyz:
    def test_ready_when_serving(self, http_server):
        with urllib.request.urlopen(
            f"{http_server.url}/readyz", timeout=10
        ) as r:
            assert r.status == 200
            doc = json.load(r)
        assert doc["ready"] is True
        assert doc["reasons"] == []

    def test_not_ready_while_recovering(self, http_server):
        http_server.service.set_recovering(True)
        try:
            try:
                urllib.request.urlopen(f"{http_server.url}/readyz", timeout=10)
                pytest.fail("expected HTTP 503")
            except urllib.error.HTTPError as err:
                assert err.code == 503
                doc = json.load(err)
            assert doc["ready"] is False
            assert doc["reasons"] == ["recovering"]
            # Liveness is unaffected: don't kill a recovering process.
            with urllib.request.urlopen(
                f"{http_server.url}/healthz", timeout=10
            ) as r:
                assert r.status == 200
                assert json.load(r)["recovering"] is True
        finally:
            http_server.service.set_recovering(False)

    def test_not_ready_while_draining(self, http_server):
        http_server.service.close()
        try:
            urllib.request.urlopen(f"{http_server.url}/readyz", timeout=10)
            pytest.fail("expected HTTP 503")
        except urllib.error.HTTPError as err:
            assert err.code == 503
            assert json.load(err)["reasons"] == ["draining"]
        # /healthz still answers (load balancers can watch the drain).
        with urllib.request.urlopen(
            f"{http_server.url}/healthz", timeout=10
        ) as r:
            assert json.load(r)["status"] == "draining"


class TestDegradedMode:
    def _degradable(self, policy=None):
        g = gen.random_biconnected_graph(24, seed=33)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(
            eng,
            workers=1,
            max_queue=1,
            deadline_s=30.0,
            degrade=policy or DegradePolicy(),
        )
        return g, eng, svc

    def test_overload_serves_stamped_stale_answer(self):
        g, eng, svc = self._degradable()
        fresh = svc.price(5, 0)  # warm the last-committed cache
        assert not fresh.degraded
        with eng.paused():
            _submit_async(svc, 1, 0)
            wait_until(
                lambda: svc.queue_depth == 0 and svc.stats.requests == 2
            )
            _submit_async(svc, 2, 0)
            wait_until(lambda: svc.queue_depth == 1)
            # Saturated: the cached pair degrades instead of 429...
            stale = svc.price(5, 0)
            assert stale.degraded
            assert stale.graph_version == fresh.graph_version
            assert answer_key(stale.payment) == answer_key(fresh.payment)
            assert svc.stats.degraded == 1
            # ... while an unknown pair still gets the honest 429.
            with pytest.raises(ServiceOverloadedError):
                svc.price(7, 0)
        svc.close()

    def test_recovering_serves_from_cache_without_queueing(self):
        g, eng, svc = self._degradable()
        fresh = svc.price(5, 0)
        svc.set_recovering(True)
        stale = svc.price(5, 0)
        assert stale.degraded
        assert answer_key(stale.payment) == answer_key(fresh.payment)
        # Unknown keys fall through to the normal (live) path.
        live = svc.price(9, 0)
        assert not live.degraded
        svc.set_recovering(False)
        svc.close()

    def test_max_age_bounds_staleness(self):
        g, eng, svc = self._degradable(
            DegradePolicy(max_age_s=0.05, max_entries=64)
        )
        svc.price(5, 0)
        time.sleep(0.1)  # cache entry ages past the bound
        with eng.paused():
            _submit_async(svc, 1, 0)
            wait_until(
                lambda: svc.queue_depth == 0 and svc.stats.requests == 2
            )
            _submit_async(svc, 2, 0)
            wait_until(lambda: svc.queue_depth == 1)
            with pytest.raises(ServiceOverloadedError):
                svc.price(5, 0)
        svc.close()

    def test_degraded_stamp_on_the_wire_and_absent_when_fresh(self):
        g = gen.random_biconnected_graph(24, seed=34)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(
            eng, workers=1, max_queue=1, deadline_s=30.0,
            degrade=DegradePolicy(),
        )
        server = ServiceServer(svc, port=0).start()
        try:
            _, _, fresh_doc = _post(
                f"{server.url}/v1/price", repro_io.PriceRequest(5, 0)
            )
            # Fresh answers never carry the key at all — the wire bytes
            # match a build that predates degraded mode.
            assert "degraded" not in fresh_doc["data"]
            svc.set_recovering(True)
            _, _, stale_doc = _post(
                f"{server.url}/v1/price", repro_io.PriceRequest(5, 0)
            )
            assert stale_doc["data"]["degraded"] is True
            resp = repro_io.from_wire(stale_doc)
            assert resp.degraded
        finally:
            svc.set_recovering(False)
            server.stop()
            svc.close()
