"""The HTTP JSON API over :class:`~repro.service.PricingService`.

:class:`ServiceServer` is the process's one HTTP server: it serves the
pricing API and the telemetry endpoints from a single port (``serve``
and ``engine --serve`` both run it):

``POST /v1/price``
    Body: a ``price-request`` wire envelope (:mod:`repro.io`).
    Response: ``price-response`` — the payment, its ``graph_version``
    and the serving request id.
``POST /v1/price_many``
    Body: ``price-many-request``; response: ``price-many-response``.
``POST /v1/update``
    Body: ``update-request`` (``op`` = ``cost`` | ``add_node`` |
    ``remove_node``); response: ``update-response`` with the published
    version.
``GET /v1/graph``
    The current snapshot as a ``graph-response`` envelope (the nested
    graph payload round-trips through :func:`repro.io.from_wire`).
``GET /metrics``
    The process-wide registry in Prometheus text exposition format
    (:func:`repro.obs.export.to_prometheus_text`).
``GET /healthz``
    Liveness JSON: uptime, collector states, flight-event count, the
    engine's version, model and cache sizes, the service's queue
    depth and drain state, and the process's peak resident set
    (``peak_rss_mb``).
``GET /snapshot``
    The full metrics snapshot as JSON
    (:func:`repro.obs.export.snapshot_to_json` — round-trippable).
``GET /flight``
    The flight recorder's ring of recent engine events as JSON.
``GET /readyz``
    Readiness, split from liveness: 503 with the blocking reason
    (``draining``) while the server should not receive traffic, 200
    otherwise. Load balancers and the CI smoke gate on this;
    ``/healthz`` stays 200 through a drain so supervisors don't kill a
    process that is shutting down cleanly.

Failure-handling headers (see ``docs/service.md``):

* 429/503 error responses carry ``Retry-After`` (decimal seconds,
  from :data:`repro.errors.RETRY_AFTER_S`) so well-behaved clients
  back off by the server's own estimate.
* ``X-Deadline-S`` on a request caps the admission deadline at the
  caller's remaining budget — work the caller has already abandoned
  is dropped in the queue instead of computed.
* ``Idempotency-Key`` on ``POST /v1/update`` makes retried mutations
  safe: the first successful response is cached per key and replayed
  (with ``Idempotency-Replay: true``) for duplicates.

A seeded :class:`~repro.service.chaos.ChaosPlan` may be attached to
inject faults (latency, 5xx, connection resets, torn responses) for
resilience testing; with no plan attached the request path — and every
wire byte — is identical to a chaos-free build.

Every request runs inside :func:`repro.obs.context.request_scope`: the
minted id is returned as the ``X-Request-Id`` header on every response
(and inside the ``/v1`` response envelopes), and it joins the tracing
contextvars so spans and flight-recorder events correlate with the
wire. Failures become ``error-response`` envelopes; the status comes
from the one shared table in :mod:`repro.errors` (429 queue-full,
504 deadline, 404 unknown node, 422 disconnected/monopoly, 400
malformed envelope, 503 draining).

The server itself stays deliberately stdlib:
:class:`~http.server.ThreadingHTTPServer` gives one thread per
connection, and the admission queue inside
:class:`~repro.service.PricingService` — not the socket listener — is
the concurrency limiter that matters.
"""

from __future__ import annotations

import io
import json
import resource
import socket
import struct
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import io as repro_io
from repro.errors import (
    InvalidRequestError,
    SerializationError,
    error_code,
    http_status,
    retry_after_s,
)
from repro.obs import logging as obs_logging
from repro.obs.context import current_request_id, request_scope
from repro.obs.export import snapshot_to_json, to_prometheus_text
from repro.obs.flight import FLIGHT
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import TRACER
from repro.service.chaos import ChaosPlan
from repro.service.service import PricingService

__all__ = ["ServiceServer", "ENDPOINTS"]

_log = obs_logging.get_logger("service.http")

#: The routes ``/`` advertises (path -> one-line description).
ENDPOINTS = {
    "POST /v1/price": "price one (source, target) request",
    "POST /v1/price_many": "price a batch of ordered pairs",
    "POST /v1/update": "apply a cost/topology mutation",
    "GET /v1/graph": "current graph snapshot + version",
    "GET /metrics": "Prometheus text exposition of the metrics registry",
    "GET /healthz": "liveness + engine/cache/service status JSON",
    "GET /readyz": "readiness (503 + reasons while draining)",
    "GET /snapshot": "full metrics snapshot as JSON",
    "GET /flight": "flight-recorder ring (recent engine events) as JSON",
}

#: Reject request bodies past this size before parsing (a pricing
#: request is tiny; a batch of every pair in a 10k-node graph still
#: fits comfortably).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Entries kept in the ``Idempotency-Key`` replay cache for
#: ``POST /v1/update`` (LRU beyond that).
IDEMPOTENCY_CAP = 1024

_JSON = "application/json; charset=utf-8"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


class ServiceServer:
    """Background HTTP server: the ``/v1`` pricing API plus telemetry.

    Parameters
    ----------
    service:
        The :class:`~repro.service.PricingService` to front. The server
        never closes it — lifecycle stays with the caller (the CLI
        stops the listener first, then drains the service).
    port, host:
        Bind address; ``port=0`` picks an ephemeral port (tests).
    chaos:
        An optional seeded :class:`~repro.service.chaos.ChaosPlan`.
        ``None`` (default) leaves the request path untouched.

    The telemetry endpoints expose the process-wide
    :data:`~repro.obs.metrics.REGISTRY` and
    :data:`~repro.obs.flight.FLIGHT`.
    """

    def __init__(
        self,
        service: PricingService,
        port: int = 0,
        host: str = "127.0.0.1",
        chaos: ChaosPlan | None = None,
    ) -> None:
        self.service = service
        self._host = host
        self._requested_port = int(port)
        self.chaos = chaos
        self._idem: OrderedDict[str, dict] = OrderedDict()
        self._idem_mu = threading.Lock()
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at = 0.0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ServiceServer":
        """Bind and serve on a daemon thread; returns ``self``."""
        if self._httpd is not None:
            raise RuntimeError("ServiceServer is already running")
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), handler
        )
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        _log.info(
            "service server started",
            extra={"host": self._host, "port": self.port},
        )
        return self

    def stop(self) -> None:
        """Stop accepting connections and join the listener (idempotent).

        Does *not* drain the service — call
        :meth:`PricingService.close` after this for the full graceful
        shutdown (listener first, so no new requests race the drain).
        """
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ServiceServer":
        if self._httpd is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection ------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def uptime(self) -> float:
        """Seconds since :meth:`start` (0.0 before it)."""
        if self._httpd is None:
            return 0.0
        return time.monotonic() - self._started_at

    # -- endpoint payloads (also callable directly, e.g. from tests) --------

    def healthz(self) -> dict:
        eng = self.service.engine
        return {
            "status": "draining" if self.service.closed else "ok",
            "uptime_s": round(self.uptime(), 3),
            "engine_version": eng.version,
            "model": eng.model,
            "nodes": eng.n,
            "durable": eng.durable,
            **eng.cache_sizes(),
            "queue_depth": self.service.queue_depth,
            "max_queue": self.service.max_queue,
            "service": self.service.stats.as_dict(),
            "metrics_enabled": REGISTRY.enabled,
            "tracing_enabled": TRACER.enabled,
            "flight_events": len(FLIGHT),
            # ru_maxrss is in KiB on Linux: the same high-water mark
            # (VmHWM) the end-to-end benchmark gates.
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
            ),
        }

    def readyz(self) -> dict:
        """Readiness payload: ``ready`` plus the blocking reasons.

        Liveness (``/healthz``) answers "is the process up"; this
        answers "should it receive traffic". It goes false once the
        service starts draining. A recovering engine needs no reason of
        its own: ``serve --recover`` finishes recovery before the port
        is bound.
        """
        reasons = ["draining"] if self.service.closed else []
        return {
            "ready": not reasons,
            "reasons": reasons,
            "engine_version": self.service.engine.version,
            "queue_depth": self.service.queue_depth,
        }

    # -- idempotency replay cache (POST /v1/update) --------------------------

    def _idem_get(self, key: str) -> dict | None:
        with self._idem_mu:
            doc = self._idem.get(key)
            if doc is not None:
                self._idem.move_to_end(key)
            return doc

    def _idem_put(self, key: str, doc: dict) -> None:
        with self._idem_mu:
            self._idem[key] = doc
            self._idem.move_to_end(key)
            while len(self._idem) > IDEMPOTENCY_CAP:
                self._idem.popitem(last=False)

    # -- API handlers (one per /v1 route; return a wire envelope) -----------

    def handle_price(
        self, req: repro_io.PriceRequest, deadline_s: float | None = None
    ) -> dict:
        answer = self.service.price(
            req.source,
            req.target,
            deadline_s=_effective_deadline(req.deadline_s, deadline_s),
        )
        return repro_io.to_wire(
            repro_io.PriceResponse(
                payment=answer.payment,
                graph_version=answer.graph_version,
                request_id=current_request_id() or "",
            )
        )

    def handle_price_many(
        self, req: repro_io.PriceManyRequest, deadline_s: float | None = None
    ) -> dict:
        answer = self.service.price_many(
            req.pairs,
            deadline_s=_effective_deadline(req.deadline_s, deadline_s),
        )
        # Deterministic wire order: request order, duplicates collapsed
        # (the engine prices each distinct pair once).
        seen: set[tuple[int, int]] = set()
        payments = []
        for pair in req.pairs:
            if pair not in seen:
                seen.add(pair)
                payments.append(answer.payments[pair])
        return repro_io.to_wire(
            repro_io.PriceManyResponse(
                payments=tuple(payments),
                graph_version=answer.graph_version,
                request_id=current_request_id() or "",
            )
        )

    def handle_update(self, req: repro_io.UpdateRequest) -> dict:
        node: int | None = None
        if req.op == "cost":
            version = self.service.update_cost(req.node, req.value)
        elif req.op == "remove_node":
            version = self.service.remove_node(req.node)
        else:  # "add_node" (op already validated by the envelope)
            node = self.service.add_node(cost=req.cost, neighbors=req.neighbors)
            version = self.service.engine.version
        return repro_io.to_wire(
            repro_io.UpdateResponse(
                graph_version=version,
                request_id=current_request_id() or "",
                node=node,
            )
        )

    def handle_graph(self) -> dict:
        graph, version = self.service.graph()
        return repro_io.to_wire(
            repro_io.GraphResponse(
                graph=graph,
                graph_version=version,
                request_id=current_request_id() or "",
            )
        )


def _effective_deadline(
    envelope_s: float | None, header_s: float | None
) -> float | None:
    """The tighter of the envelope's and the ``X-Deadline-S`` budgets."""
    if envelope_s is None:
        return header_s
    if header_s is None:
        return envelope_s
    return min(envelope_s, header_s)


def _json_body(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _make_handler(server: ServiceServer) -> type:
    """A request-handler class closed over one :class:`ServiceServer`.

    Both route tables are built here, at :meth:`ServiceServer.start`,
    so they bind whatever handler methods the instance has then.
    """

    # path -> (handler, envelope class, handler takes deadline_s=).
    posts = {
        "/v1/price": (server.handle_price, repro_io.PriceRequest, True),
        "/v1/price_many": (
            server.handle_price_many,
            repro_io.PriceManyRequest,
            True,
        ),
        "/v1/update": (server.handle_update, repro_io.UpdateRequest, False),
    }

    def readyz() -> tuple[str, str, int]:
        doc = server.readyz()
        return _json_body(doc), _JSON, 200 if doc["ready"] else 503

    # path -> () -> (body, content type, status).
    gets = {
        "/v1/graph": lambda: (_json_body(server.handle_graph()), _JSON, 200),
        "/readyz": readyz,
        "/healthz": lambda: (_json_body(server.healthz()), _JSON, 200),
        "/metrics": lambda: (
            to_prometheus_text(REGISTRY.snapshot(), prefix="repro"),
            _PROMETHEUS,
            200,
        ),
        "/snapshot": lambda: (
            snapshot_to_json(REGISTRY.snapshot(), indent=2) + "\n",
            _JSON,
            200,
        ),
        "/flight": lambda: (_json_body(FLIGHT.snapshot()), _JSON, 200),
        "/": lambda: (_json_body({"endpoints": ENDPOINTS}), _JSON, 200),
    }

    class Handler(BaseHTTPRequestHandler):
        # Silenced default stderr chatter; requests log at DEBUG instead.
        def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
            _log.debug("service request", extra={"line": fmt % args})

        def _send(
            self,
            body: str,
            content_type: str,
            status: int = 200,
            request_id: str | None = None,
            extra_headers: dict[str, str] | None = None,
        ) -> None:
            payload = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            if request_id:
                self.send_header("X-Request-Id", request_id)
            if extra_headers:
                for name, value in extra_headers.items():
                    self.send_header(name, value)
            self.end_headers()
            if getattr(self, "_chaos_torn", False):
                # Injected torn response: the headers promised the full
                # Content-Length, but only half the body goes out
                # before the connection is destroyed — the client must
                # treat this as a transport failure, never parse it.
                self._chaos_torn = False
                self.wfile.write(payload[: max(1, len(payload) // 2)])
                try:
                    self.wfile.flush()
                except OSError:
                    pass
                self._abort_connection()
                return
            self.wfile.write(payload)

        def _send_json(
            self,
            doc,
            status: int = 200,
            request_id: str | None = None,
            extra_headers: dict[str, str] | None = None,
        ) -> None:
            self._send(
                _json_body(doc),
                _JSON,
                status,
                request_id=request_id,
                extra_headers=extra_headers,
            )

        def _send_error(self, exc: BaseException, rid: str) -> None:
            status = http_status(exc)
            doc = repro_io.to_wire(
                repro_io.ErrorResponse(
                    code=error_code(exc),
                    message=str(exc),
                    request_id=rid,
                    status=status,
                )
            )
            extra: dict[str, str] | None = None
            if status in (429, 503):
                hint = retry_after_s(exc)
                if hint is not None:
                    # Decimal seconds: finer-grained than the RFC's
                    # integer (integral hints round-trip unchanged).
                    extra = {"Retry-After": f"{hint:g}"}
            self._send_json(doc, status=status, request_id=rid, extra_headers=extra)

        def _abort_connection(self) -> None:
            """Destroy the connection with an RST (chaos reset/torn).

            ``SO_LINGER`` with a zero timeout turns ``close()`` into an
            abortive close, so the peer sees ``ECONNRESET`` rather than
            a clean EOF. The buffered writer is detached first so the
            handler's ``finish()`` doesn't trip over the dead socket.
            """
            self.close_connection = True
            try:
                self.connection.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                self.connection.close()
            except OSError:
                pass
            self.wfile = io.BytesIO()

        def _apply_chaos(self, path: str, rid: str) -> bool:
            """Inject the plan's faults; True = request fully handled."""
            plan = server.chaos
            if plan is None:
                return False
            decision = plan.decide(path)
            if decision is None:
                return False
            if decision.latency_s > 0.0:
                time.sleep(decision.latency_s)
            if decision.action == "reset":
                self._abort_connection()
                return True
            if decision.action == "torn":
                self._chaos_torn = True  # _send truncates the real body
                return False
            if decision.action == "error":
                doc = repro_io.to_wire(
                    repro_io.ErrorResponse(
                        code="internal",
                        message="chaos: injected server error",
                        request_id=rid,
                        status=decision.status,
                    )
                )
                # Drain the unread request body first so keep-alive
                # framing can't misparse it as the next request.
                length = self._content_length()
                if 0 < length <= MAX_BODY_BYTES:
                    self.rfile.read(length)
                self._send_json(doc, status=decision.status, request_id=rid)
                return True
            return False

        def _content_length(self) -> int:
            raw = self.headers.get("Content-Length") or "0"
            if not raw.isdecimal():
                # The body's framing is unknown: answer, then hang up.
                self.close_connection = True
                raise InvalidRequestError(
                    f"Content-Length must be a non-negative integer, "
                    f"got {raw!r}"
                )
            return int(raw)

        def _read_body(self):
            length = self._content_length()
            if length > MAX_BODY_BYTES:
                raise InvalidRequestError(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                )
            raw = self.rfile.read(length) if length else b""
            try:
                return json.loads(raw.decode("utf-8") or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise SerializationError(f"request body is not JSON: {e}")

        def _header_deadline(self) -> float | None:
            raw = self.headers.get("X-Deadline-S")
            if raw is None:
                return None
            try:
                budget = float(raw)
            except ValueError:
                raise InvalidRequestError(
                    f"X-Deadline-S must be a number, got {raw!r}"
                ) from None
            return repro_io.deadline_budget(budget, "X-Deadline-S")

        def do_POST(self) -> None:  # noqa: N802 (stdlib name)
            path = self.path.split("?", 1)[0].rstrip("/")
            route = posts.get(path)
            t0 = time.perf_counter()
            with request_scope(fresh=True) as rid:
                try:
                    if route is None:
                        self._send_json(
                            {
                                "error": f"no POST handler at {path!r}",
                                "endpoints": sorted(ENDPOINTS),
                            },
                            status=404,
                            request_id=rid,
                        )
                        return
                    if self._apply_chaos(path, rid):
                        return
                    handler, envelope, takes_deadline = route
                    deadline_s = self._header_deadline()
                    payload = repro_io.from_wire(self._read_body())
                    if not isinstance(payload, envelope):
                        raise InvalidRequestError(
                            f"{path} expects a {envelope.__name__} "
                            f"envelope, got {type(payload).__name__}"
                        )
                    # Body fully read (keep-alive framing safe): a
                    # retried update with a known key replays the
                    # cached first response instead of re-applying.
                    idem_key = None
                    if path == "/v1/update":
                        idem_key = self.headers.get("Idempotency-Key")
                        if idem_key:
                            cached = server._idem_get(idem_key)
                            if cached is not None:
                                if REGISTRY.enabled:
                                    REGISTRY.add(
                                        "service.idempotent_replays"
                                    )
                                self._send_json(
                                    cached,
                                    request_id=rid,
                                    extra_headers={
                                        "Idempotency-Replay": "true"
                                    },
                                )
                                return
                    if takes_deadline:
                        doc = handler(payload, deadline_s=deadline_s)
                    else:
                        doc = handler(payload)
                    if idem_key:
                        server._idem_put(idem_key, doc)
                    self._send_json(doc, request_id=rid)
                except BrokenPipeError:  # client went away mid-response
                    pass
                except Exception as exc:
                    try:
                        self._send_error(exc, rid)
                    except OSError:
                        pass
                finally:
                    if REGISTRY.enabled:
                        REGISTRY.observe(
                            f"service.http{path.replace('/', '.')}_time"
                            if route is not None
                            else "service.http.unknown_time",
                            time.perf_counter() - t0,
                        )

        def do_GET(self) -> None:  # noqa: N802 (stdlib name)
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            route = gets.get(path)
            with request_scope(fresh=True) as rid:
                try:
                    if self._apply_chaos(path, rid):
                        return
                    if route is None:
                        self._send_json(
                            {
                                "error": f"unknown path {path!r}",
                                "endpoints": sorted(ENDPOINTS),
                            },
                            status=404,
                            request_id=rid,
                        )
                        return
                    body, ctype, status = route()
                    self._send(body, ctype, status, request_id=rid)
                except BrokenPipeError:
                    pass
                except Exception as exc:
                    try:
                        self._send_error(exc, rid)
                    except OSError:
                        pass

    return Handler
