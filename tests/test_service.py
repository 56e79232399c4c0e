"""The concurrent pricing service and the snapshot-isolated engine.

The load-bearing test is the stress oracle: many reader threads price
through :class:`~repro.service.PricingService` while writer threads
mutate costs, every answer is pinned to the ``graph_version`` it was
computed at, and afterwards a serial replay of the recorded update
history must reproduce every payment bit-identically. Around it:
RWLock semantics, backpressure (429), deadlines (504), graceful drain,
and the HTTP wire surface.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import io as repro_io
from repro.engine import PricingEngine, RWLock
from repro.engine.oracle import answer_key, verify
from repro.errors import (
    DeadlineExceededError,
    EngineClosedError,
    InvalidRequestError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.graph import generators as gen
from repro.service import PricingService, ServiceServer


def wait_until(predicate, timeout=5.0, interval=0.005):
    """Poll until ``predicate()`` or fail the test after ``timeout``."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(interval)
    pytest.fail("condition not reached within timeout")


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
        assert verify(g, [(1, ("cost", 3, 9.99))], [(1, 7, 0, p1)]).mismatches == 0

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
        checks = [(0, 7, 0, answer.payment)]
        assert verify(service.engine.graph, [], checks).mismatches == 0
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
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidRequestError):
                PricingService(eng, deadline_s=bad)
        svc = PricingService(eng)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidRequestError):
                svc.price(1, 0, deadline_s=bad)
        with pytest.raises(InvalidRequestError):
            svc.price_many([])
        svc.close()


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
        svc.close()

    def test_same_key_waiters_expire_on_separate_tickets(self):
        """Two same-key requests each queue their own ticket; when both
        expire in the queue, each waiter gets DeadlineExceededError and
        the worker skips both tickets."""
        g = gen.random_biconnected_graph(24, seed=16)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(eng, workers=1, max_queue=4, deadline_s=10.0)
        with eng.paused():
            blocker_thread, blocker = _submit_async(svc, 1, 0)
            wait_until(lambda: svc.queue_depth == 0 and svc.stats.requests == 1)
            t2, box2 = _submit_async_deadline(svc, 2, 0, deadline_s=0.2)
            t3, box3 = _submit_async_deadline(svc, 2, 0, deadline_s=0.2)
            wait_until(lambda: svc.queue_depth == 2)
            time.sleep(0.5)  # both expire while the worker is stuck
        blocker_thread.join(timeout=10)
        for th, box in ((t2, box2), (t3, box3)):
            th.join(timeout=10)
            assert isinstance(box["error"], DeadlineExceededError)
        assert blocker["error"] is None
        wait_until(lambda: svc.stats.expired == 2)
        assert svc.stats.timeouts == 2
        svc.close()

    def test_close_drains_inflight_same_key_burst(self):
        """close() must drain a burst of same-key requests cleanly:
        every request admitted before the drain is priced on its own
        ticket to the same answer, and none deadlocks against the
        drain."""
        g = gen.random_biconnected_graph(24, seed=17)
        eng = PricingEngine(g, on_monopoly="inf")
        svc = PricingService(eng, workers=2, max_queue=16, deadline_s=30.0)
        k = 12
        with eng.paused():
            waiters = [_submit_async(svc, 5, 0) for _ in range(k)]
            wait_until(lambda: svc.stats.requests == k)
            # Two tickets sit with the stuck workers, the rest queue.
            wait_until(lambda: svc.queue_depth == k - 2)
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

        records = []  # (version, source, target, payment)
        updates = []  # (version, ("cost", node, value))
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
                        records.append((a.graph_version, s, t, a.payment))
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
                        updates.append((version, ("cost", node, value)))
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
        versions = sorted(v for v, _ in updates)
        assert versions == list(range(1, len(updates) + 1))

        # Serial oracle: every concurrent answer equals the from-scratch
        # price on the snapshot its version names. Bit-identical.
        verdict = verify(g, updates, records)
        assert verdict.mismatches == 0, verdict.examples
        assert verdict.checked == len(records)


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


def _post_raw(url, body, timeout=10.0, headers=None):
    req = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
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
        checks = [(0, 7, 0, resp.payment)]
        assert verify(http_server.service.engine.graph, [], checks).mismatches == 0
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
        assert "recovering" not in doc
        assert set(doc["service"]) == {
            "requests", "batches", "rejected", "timeouts", "updates",
            "expired",
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

    @pytest.mark.parametrize("path", ["/v1/price", "/v1/price_many"])
    @pytest.mark.parametrize("where", ["body", "header"])
    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_deadline_maps_to_400(
        self, http_server, path, where, budget
    ):
        if path == "/v1/price":
            tag, data = "price-request", {"source": 5, "target": 0}
        else:
            tag, data = "price-many-request", {"pairs": [[5, 0]]}
        headers = {}
        if where == "body":
            data["deadline_s"] = float(budget)  # JSON NaN / Infinity
        else:
            headers["X-Deadline-S"] = budget
        doc = {"format": tag, "schema_version": 1, "data": data}
        status, err_doc = _post_raw(
            f"{http_server.url}{path}", json.dumps(doc).encode(),
            headers=headers,
        )
        assert status == 400
        err = repro_io.from_wire(err_doc)
        assert err.code == "request.invalid"
        assert "finite positive" in err.message

    @pytest.mark.parametrize(
        "path, data",
        [
            ("/v1/price", {"source": 1.5, "target": 0}),
            ("/v1/price", {"source": True, "target": 0}),
            ("/v1/price", {"source": 2.0, "target": 0}),
            ("/v1/price", {"source": "3", "target": 0}),
            ("/v1/price", {"source": 5, "target": 0.5}),
            ("/v1/price_many", {"pairs": [[5, 0], [1.5, 0]]}),
            ("/v1/update", {"op": "cost", "node": 3.7, "value": 2.0}),
            ("/v1/update", {"op": "remove_node", "node": True}),
            ("/v1/update", {"op": "cost", "edge": [1, 2.5], "value": 2.0}),
            ("/v1/update", {"op": "add_node", "neighbors": [0, 1.5]}),
            ("/v1/update", {"op": "add_node", "arcs": [[0, 1.5, 2.0]]}),
        ],
        ids=[
            "source-float", "source-bool", "source-integral-float",
            "source-string", "target-float", "pairs-float",
            "node-float", "node-bool", "edge-float", "neighbors-float",
            "arcs-float",
        ],
    )
    def test_non_integer_node_id_maps_to_400(self, http_server, path, data):
        tag = {
            "/v1/price": "price-request",
            "/v1/price_many": "price-many-request",
            "/v1/update": "update-request",
        }[path]
        doc = {"format": tag, "schema_version": 1, "data": data}
        status, err_doc = _post_raw(
            f"{http_server.url}{path}", json.dumps(doc).encode()
        )
        assert status == 400
        assert repro_io.from_wire(err_doc).code == "io.serialization"
        # Nothing was priced or applied for a truncated id.
        assert http_server.service.engine.version == 0
        assert http_server.service.stats.requests == 0

    @pytest.mark.parametrize(
        "path, data",
        [
            ("/v1/price", {"source": 5, "target": 0}),
            ("/v1/price_many", {"pairs": [[5, 0]]}),
            ("/v1/update", {"op": "cost", "node": 3, "value": 2.0}),
        ],
        ids=["price", "price_many", "update"],
    )
    @pytest.mark.parametrize(
        "version", ["abc", None, 1.5, True, "1", 0, 2],
        ids=["abc", "null", "1.5", "true", "str-1", "0", "2"],
    )
    def test_schema_version_other_than_1_maps_to_400(
        self, http_server, path, data, version
    ):
        tag = {
            "/v1/price": "price-request",
            "/v1/price_many": "price-many-request",
            "/v1/update": "update-request",
        }[path]
        doc = {"format": tag, "schema_version": version, "data": data}
        status, err_doc = _post_raw(
            f"{http_server.url}{path}", json.dumps(doc).encode()
        )
        assert status == 400
        err = repro_io.from_wire(err_doc)
        assert err.code == "io.serialization"
        assert "version" in err.message
        assert http_server.service.engine.version == 0
        assert http_server.service.stats.requests == 0

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
