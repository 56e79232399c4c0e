"""Resilient HTTP client for the pricing service.

The paper's mechanism is only incentive-compatible if every node can
actually *obtain* its payment answer — in a selfish-network deployment
a pricing endpoint that times out is indistinguishable from a
strategic refusal. This module is the availability layer on the
caller's side of the wire:

* :class:`BackoffPolicy` — capped exponential backoff with **full
  jitter** (``delay = U(0, min(cap, base * 2**attempt))``). The jitter
  RNG is a dedicated seeded :class:`random.Random`, so retry schedules
  are reproducible in tests and chaos runs without perturbing any
  other seeded stream.
* :class:`CircuitBreaker` — the classic closed → open → half-open
  machine over a sliding window of attempt outcomes. While open, calls
  fail fast with :class:`~repro.errors.CircuitOpenError` instead of
  piling load on a struggling server; after ``cooldown_s`` a bounded
  number of half-open probes decide whether to close again.
  Transitions are counted as ``service.breaker_*`` metrics.
* :class:`PricingClient` — a stdlib-:mod:`http.client` front end to
  :class:`~repro.service.ServiceServer` that retries transport
  failures and retryable statuses (429/500/502/503/504), honors
  ``Retry-After``, propagates the caller's remaining deadline to the
  server via the ``X-Deadline-S`` header, and re-raises server error
  envelopes as their original taxonomy classes
  (:func:`~repro.errors.error_for_code`).

Retry safety is not symmetric across endpoints. ``/v1/price`` and
``/v1/price_many`` are GET-safe reads — retried unconditionally.
``/v1/update`` mutates: the client attaches a deterministic
``Idempotency-Key`` header, the server replays the cached first
response for a duplicate key, and — second line of defense, surviving
a server restart that drops the cache — re-applying ``update_cost``
with an unchanged value is a version-preserving no-op in the engine.

Determinism: with a fixed ``seed`` the client's jitter schedule and
idempotency keys are reproducible; the breaker takes an injectable
``time_fn`` so its state machine can be driven with a fake clock in
tests.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from collections import deque
from dataclasses import dataclass, field
from random import Random

from repro import io as repro_io
from repro.errors import (
    CircuitOpenError,
    ClientError,
    DeadlineExceededError,
    RetryExhaustedError,
    error_for_code,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "ClientStats",
    "PricingClient",
    "RETRYABLE_STATUSES",
]

#: Statuses a retry can help with: serving-layer pushback (429 queue
#: full, 503 draining, 504 deadline) and server-side faults
#: (500/502, e.g. injected by the chaos plan or a mid-crash worker).
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})

#: Transport-level failures worth retrying: refused/reset connections,
#: timeouts, torn responses (http.client raises ``IncompleteRead`` /
#: ``BadStatusLine``, both :class:`http.client.HTTPException`).
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with full jitter.

    ``delay(attempt, rng) = rng.uniform(0, min(cap_s, base_s * 2**attempt))``
    — the AWS "full jitter" scheme: retries from a thundering herd
    spread uniformly instead of re-synchronizing on power-of-two
    boundaries. ``max_retries`` bounds *re*-tries (total attempts =
    ``max_retries + 1``).
    """

    max_retries: int = 4
    base_s: float = 0.05
    cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_s < 0 or self.cap_s < 0:
            raise ValueError("base_s and cap_s must be >= 0")

    def delay_s(self, attempt: int, rng: Random) -> float:
        """The jittered sleep before retry number ``attempt`` (0-based)."""
        ceiling = min(self.cap_s, self.base_s * (2.0 ** attempt))
        return rng.uniform(0.0, ceiling)


class CircuitBreaker:
    """Per-host circuit breaker: closed → open → half-open → closed.

    Outcomes (success/failure) of the last ``window`` attempts feed a
    failure-rate check: once at least ``min_volume`` outcomes are
    recorded and the failure fraction reaches ``failure_threshold``,
    the breaker **opens** and :meth:`allow` returns ``False`` for
    ``cooldown_s`` seconds. It then goes **half-open**: up to
    ``half_open_probes`` in-flight probe calls are allowed; the first
    probe success closes the breaker (window cleared), the first
    failure re-opens it for another cooldown.

    Thread-safe; shareable between every client talking to one host.
    ``time_fn`` is injectable so tests can drive the machine with a
    fake clock.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        *,
        window: int = 20,
        failure_threshold: float = 0.5,
        min_volume: int = 5,
        cooldown_s: float = 1.0,
        half_open_probes: int = 1,
        time_fn=time.monotonic,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if min_volume < 1:
            raise ValueError("min_volume must be >= 1")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self._window: deque[bool] = deque(maxlen=window)
        self._failure_threshold = float(failure_threshold)
        self._min_volume = int(min_volume)
        self._cooldown_s = float(cooldown_s)
        self._half_open_probes = int(half_open_probes)
        self._time = time_fn
        self._metrics = REGISTRY if metrics is None else metrics
        self._mu = threading.Lock()
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._probes_in_flight = 0

    @property
    def state(self) -> str:
        with self._mu:
            self._maybe_half_open_locked()
            return self._state

    def allow(self) -> bool:
        """May a call proceed right now? (Reserves a half-open probe.)"""
        with self._mu:
            self._maybe_half_open_locked()
            if self._state == self.OPEN:
                self._metrics.add("service.breaker_short_circuits")
                return False
            if self._state == self.HALF_OPEN:
                if self._probes_in_flight >= self._half_open_probes:
                    self._metrics.add("service.breaker_short_circuits")
                    return False
                self._probes_in_flight += 1
            return True

    def record_success(self) -> None:
        with self._mu:
            if self._state == self.HALF_OPEN:
                self._transition_locked(self.CLOSED)
                self._window.clear()
                self._probes_in_flight = 0
            self._window.append(True)

    def record_failure(self) -> None:
        with self._mu:
            if self._state == self.HALF_OPEN:
                self._transition_locked(self.OPEN)
                self._opened_at = self._time()
                self._probes_in_flight = 0
                return
            self._window.append(False)
            if self._state == self.CLOSED and self._trips_locked():
                self._transition_locked(self.OPEN)
                self._opened_at = self._time()

    def _trips_locked(self) -> bool:
        if len(self._window) < self._min_volume:
            return False
        failures = sum(1 for ok in self._window if not ok)
        return failures / len(self._window) >= self._failure_threshold

    def _maybe_half_open_locked(self) -> None:
        if self._state == self.OPEN:
            if self._time() - self._opened_at >= self._cooldown_s:
                self._transition_locked(self.HALF_OPEN)
                self._probes_in_flight = 0

    def _transition_locked(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        self._metrics.add(f"service.breaker_{state}")
        # Gauge encoding: 0 closed, 1 open, 0.5 half-open.
        value = {self.CLOSED: 0.0, self.OPEN: 1.0, self.HALF_OPEN: 0.5}[state]
        self._metrics.set_gauge("service.breaker_state", value)


@dataclass
class ClientStats:
    """Counters a :class:`PricingClient` keeps (a mutable snapshot)."""

    requests: int = 0
    retries: int = 0
    transport_failures: int = 0
    server_errors: int = 0
    short_circuits: int = 0
    deadline_expired: int = 0
    idempotent_replays: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "retries": self.retries,
            "transport_failures": self.transport_failures,
            "server_errors": self.server_errors,
            "short_circuits": self.short_circuits,
            "deadline_expired": self.deadline_expired,
            "idempotent_replays": self.idempotent_replays,
        }


@dataclass
class _Attempt:
    """Outcome of one wire attempt (internal)."""

    status: int = 0
    headers: dict[str, str] = field(default_factory=dict)
    doc: object = None
    transport_error: BaseException | None = None


class PricingClient:
    """Retrying, breaker-guarded client for the pricing HTTP API.

    One persistent connection per calling thread (``http.client``
    connections are not thread-safe; the client object is — stats and
    the jitter RNG are lock-guarded, connections live in
    ``threading.local``). Pass a shared :class:`CircuitBreaker` to let
    several clients agree on a host's health.

    ``deadline_s`` is the *total* per-call budget: connect + every
    attempt + every backoff sleep. The remaining budget is propagated
    to the server as ``X-Deadline-S`` on each attempt so the admission
    queue can drop work the caller has already given up on.
    """

    def __init__(
        self,
        url: str,
        *,
        deadline_s: float = 30.0,
        timeout_s: float = 10.0,
        retry: BackoffPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        parsed = urllib.parse.urlsplit(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("", "http"):
            raise ClientError(f"unsupported scheme {parsed.scheme!r} (http only)")
        if not parsed.hostname:
            raise ClientError(f"no host in url {url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.deadline_s = float(deadline_s)
        self.timeout_s = float(timeout_s)
        self.retry = BackoffPolicy() if retry is None else retry
        self.breaker = breaker
        self.stats = ClientStats()
        self._metrics = REGISTRY if metrics is None else metrics
        self._rng = Random(seed)
        self._mu = threading.Lock()
        self._local = threading.local()
        self._closed = False
        # Deterministic idempotency-key stream: seed-derived prefix +
        # a process-wide-unique-enough counter.
        self._idem_prefix = f"c{seed}-{self._rng.getrandbits(32):08x}"
        self._idem_seq = 0

    # ------------------------------------------------------------------
    # public API

    def price(
        self, source: int, target: int, *, deadline_s: float | None = None
    ) -> repro_io.PriceResponse:
        doc = self._call(
            "POST",
            "/v1/price",
            repro_io.PriceRequest(source=source, target=target),
            idempotent=True,
            deadline_s=deadline_s,
        )
        return self._decode(doc, repro_io.PriceResponse)

    def price_many(
        self,
        pairs: list[tuple[int, int]],
        *,
        deadline_s: float | None = None,
    ) -> repro_io.PriceManyResponse:
        req = repro_io.PriceManyRequest(pairs=tuple(pairs))
        doc = self._call(
            "POST", "/v1/price_many", req, idempotent=True, deadline_s=deadline_s
        )
        return self._decode(doc, repro_io.PriceManyResponse)

    def update_cost(
        self, node: int, value: float, *, deadline_s: float | None = None
    ) -> repro_io.UpdateResponse:
        req = repro_io.UpdateRequest(op="cost", node=node, value=float(value))
        return self._update(req, deadline_s)

    def add_node(
        self,
        cost: float,
        neighbors: list[int],
        *,
        deadline_s: float | None = None,
    ) -> repro_io.UpdateResponse:
        req = repro_io.UpdateRequest(
            op="add_node", cost=float(cost), neighbors=tuple(neighbors)
        )
        return self._update(req, deadline_s)

    def remove_node(
        self, node: int, *, deadline_s: float | None = None
    ) -> repro_io.UpdateResponse:
        req = repro_io.UpdateRequest(op="remove_node", node=node)
        return self._update(req, deadline_s)

    def graph(self, *, deadline_s: float | None = None) -> repro_io.GraphResponse:
        doc = self._call(
            "GET", "/v1/graph", None, idempotent=True, deadline_s=deadline_s
        )
        return self._decode(doc, repro_io.GraphResponse)

    def healthz(self, *, deadline_s: float | None = None) -> dict:
        return self._call(
            "GET", "/healthz", None, idempotent=True, deadline_s=deadline_s
        )

    def readyz(self) -> tuple[bool, dict]:
        """One non-retried readiness probe: ``(ready, body)``."""
        attempt = self._attempt_once("GET", "/readyz", None, self.timeout_s, None)
        if attempt.transport_error is not None:
            raise ClientError(
                f"readyz probe failed: {attempt.transport_error}"
            ) from attempt.transport_error
        doc = attempt.doc if isinstance(attempt.doc, dict) else {}
        return attempt.status == 200, doc

    def close(self) -> None:
        self._closed = True
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "PricingClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # retry loop

    def _update(
        self, req: repro_io.UpdateRequest, deadline_s: float | None
    ) -> repro_io.UpdateResponse:
        with self._mu:
            self._idem_seq += 1
            key = f"{self._idem_prefix}-{self._idem_seq}"
        doc = self._call(
            "POST",
            "/v1/update",
            req,
            idempotent=False,
            idempotency_key=key,
            deadline_s=deadline_s,
        )
        return self._decode(doc, repro_io.UpdateResponse)

    def _call(
        self,
        method: str,
        path: str,
        body: object | None,
        *,
        idempotent: bool,
        idempotency_key: str | None = None,
        deadline_s: float | None = None,
    ):
        if self._closed:
            raise ClientError("client is closed")
        with self._mu:
            self.stats.requests += 1
        self._metrics.add("service.client_requests")
        budget = self.deadline_s if deadline_s is None else float(deadline_s)
        deadline = time.monotonic() + budget
        retryable = idempotent or idempotency_key is not None
        attempt_no = 0
        last_exc: BaseException | None = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                with self._mu:
                    self.stats.deadline_expired += 1
                raise DeadlineExceededError(
                    f"{method} {path}: deadline expired after "
                    f"{attempt_no} attempt(s)"
                ) from last_exc
            if self.breaker is not None and not self.breaker.allow():
                with self._mu:
                    self.stats.short_circuits += 1
                raise CircuitOpenError(
                    f"{method} {path}: circuit breaker open for "
                    f"{self.host}:{self.port}"
                ) from last_exc
            attempt = self._attempt_once(
                method, path, body, min(self.timeout_s, remaining), idempotency_key
            )
            retry_after: float | None = None
            if attempt.transport_error is not None:
                with self._mu:
                    self.stats.transport_failures += 1
                self._metrics.add("service.client_transport_failures")
                if self.breaker is not None:
                    self.breaker.record_failure()
                last_exc = attempt.transport_error
                should_retry = retryable
            elif attempt.status < 400:
                if self.breaker is not None:
                    self.breaker.record_success()
                if attempt.headers.get("idempotency-replay") == "true":
                    with self._mu:
                        self.stats.idempotent_replays += 1
                return attempt.doc
            else:
                # Typed server failure. 5xx counts against the host's
                # health; 4xx means the host is fine and *we* sent a
                # bad (or unservable-right-now) request.
                if attempt.status >= 500:
                    with self._mu:
                        self.stats.server_errors += 1
                    self._metrics.add("service.client_server_errors")
                    if self.breaker is not None:
                        self.breaker.record_failure()
                elif self.breaker is not None:
                    self.breaker.record_success()
                last_exc = self._envelope_error(attempt)
                should_retry = retryable and attempt.status in RETRYABLE_STATUSES
                retry_after = _parse_retry_after(attempt.headers)
            if attempt.transport_error is not None and not retryable:
                raise ClientError(
                    f"{method} {path}: transport failure on a "
                    f"non-retryable call: {last_exc}"
                ) from last_exc
            if not should_retry:
                raise last_exc  # type: ignore[misc]  # always set on this path
            if attempt_no >= self.retry.max_retries:
                raise RetryExhaustedError(
                    f"{method} {path}: {attempt_no + 1} attempt(s) failed; "
                    f"last: {last_exc}",
                    last=last_exc,
                ) from last_exc
            with self._mu:
                delay = self.retry.delay_s(attempt_no, self._rng)
                self.stats.retries += 1
            if retry_after is not None:
                delay = max(delay, retry_after)
            self._metrics.add("service.client_retries")
            if time.monotonic() + delay >= deadline:
                with self._mu:
                    self.stats.deadline_expired += 1
                raise DeadlineExceededError(
                    f"{method} {path}: next retry would overrun the "
                    f"deadline (backoff {delay:.3f}s)"
                ) from last_exc
            time.sleep(delay)
            attempt_no += 1

    def _attempt_once(
        self,
        method: str,
        path: str,
        body: object | None,
        timeout_s: float,
        idempotency_key: str | None,
    ) -> _Attempt:
        payload = None
        headers = {"Accept": "application/json"}
        if body is not None:
            payload = json.dumps(repro_io.to_wire(body)).encode("utf-8")
            headers["Content-Type"] = "application/json"
        headers["X-Deadline-S"] = f"{max(0.001, timeout_s):.3f}"
        if idempotency_key is not None:
            headers["Idempotency-Key"] = idempotency_key
        conn = self._connection(timeout_s)
        try:
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            status = resp.status
            hdrs = {k.lower(): v for k, v in resp.getheaders()}
        except _TRANSPORT_ERRORS as exc:
            self._drop_connection()
            return _Attempt(transport_error=exc)
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else None
        except (ValueError, UnicodeDecodeError) as exc:
            # A torn/garbled body is a transport failure, not a server
            # answer — retryable for idempotent calls.
            self._drop_connection()
            return _Attempt(transport_error=exc)
        return _Attempt(status=status, headers=hdrs, doc=doc)

    def _connection(self, timeout_s: float) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout_s
            )
            self._local.conn = conn
        else:
            conn.timeout = timeout_s
            if conn.sock is not None:
                conn.sock.settimeout(timeout_s)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # decoding

    def _envelope_error(self, attempt: _Attempt) -> BaseException:
        doc = attempt.doc
        if isinstance(doc, dict) and doc.get("format") == "error-response":
            try:
                err = repro_io.from_wire(doc)
            except Exception:  # malformed envelope: fall through
                err = None
            if isinstance(err, repro_io.ErrorResponse):
                return error_for_code(err.code, err.message)
        return ClientError(f"HTTP {attempt.status} with unrecognized body")

    def _decode(self, doc: object, expected: type):
        if not isinstance(doc, dict):
            raise ClientError(f"expected a wire envelope, got {type(doc).__name__}")
        decoded = repro_io.from_wire(doc)
        if not isinstance(decoded, expected):
            raise ClientError(
                f"expected {expected.__name__}, got {type(decoded).__name__}"
            )
        return decoded


def _parse_retry_after(headers: dict[str, str]) -> float | None:
    raw = headers.get("retry-after")
    if raw is None:
        return None
    try:
        return max(0.0, float(raw))
    except ValueError:
        return None
