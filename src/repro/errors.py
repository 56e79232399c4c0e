"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the common failure families (bad input graphs,
monopolies that make VCG payments undefined, protocol violations detected
by the secure distributed algorithm, an overloaded serving layer, ...).

Stable machine-readable codes
-----------------------------

Every class carries a ``code`` attribute — a stable, dotted,
machine-readable identifier (``"graph.disconnected"``,
``"service.overloaded"``, ...). Codes are the *wire contract*: the HTTP
service (:mod:`repro.service`) puts them in error envelopes, the CLI
prints them, and :data:`HTTP_STATUS` maps each code to exactly one HTTP
status so every surface agrees on what a failure means. Renaming a
class is invisible to clients as long as its code survives; codes are
append-only.

:func:`error_code` and :func:`http_status` resolve an *instance*
(walking the MRO, so subclasses inherit their family's code unless they
override it); non-:class:`ReproError` exceptions map to
``"internal"`` / 500.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "InvalidGraphError",
    "NodeNotFoundError",
    "DisconnectedError",
    "MonopolyError",
    "MechanismError",
    "InvalidRequestError",
    "SerializationError",
    "ProtocolError",
    "CheatingDetectedError",
    "ExperimentError",
    "EngineError",
    "EngineClosedError",
    "PersistError",
    "RecoveryError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "DeadlineExceededError",
    "ClientError",
    "CircuitOpenError",
    "RetryExhaustedError",
    "SupervisorError",
    "HTTP_STATUS",
    "RETRY_AFTER_S",
    "error_code",
    "http_status",
    "retry_after_s",
    "error_for_code",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""

    #: Stable machine-readable identifier (see the module docstring).
    code = "repro.error"


class GraphError(ReproError):
    """Base class for errors related to graph construction or queries."""

    code = "graph.error"


class InvalidGraphError(GraphError, ValueError):
    """A graph was constructed from inconsistent or invalid data.

    Examples: negative node costs, edge endpoints out of range, CSR arrays
    of mismatched lengths, duplicate edges where they are forbidden.
    """

    code = "graph.invalid"


class NodeNotFoundError(GraphError, KeyError):
    """A node index was out of range for the graph it was used with."""

    code = "graph.node_not_found"

    def __init__(self, node: int, n: int) -> None:
        super().__init__(f"node {node} out of range for graph with {n} nodes")
        self.node = int(node)
        self.n = int(n)


class DisconnectedError(GraphError):
    """No path exists between the requested endpoints.

    Raised by shortest-path queries that require a finite answer, and by
    experiment drivers when a generated topology fails the reachability
    requirements of the mechanism.
    """

    code = "graph.disconnected"

    def __init__(self, source: int, target: int, context: str = "") -> None:
        detail = f" ({context})" if context else ""
        super().__init__(f"no path from node {source} to node {target}{detail}")
        self.source = int(source)
        self.target = int(target)


class MonopolyError(DisconnectedError):
    """Removing an agent (or its collusion set) disconnects the endpoints.

    The VCG payment to such an agent is unbounded (the agent holds a
    monopoly), which the paper excludes by requiring the communication
    graph to be biconnected (Section II.B) — or ``G \\ Q(v_k)`` connected
    for the collusion-resistant schemes of Section III.E.
    """

    code = "mechanism.monopoly"

    def __init__(self, source: int, target: int, removed: object) -> None:
        DisconnectedError.__init__(
            self, source, target, context=f"after removing {removed!r}"
        )
        self.removed = removed


class MechanismError(ReproError):
    """A pricing-mechanism computation could not be carried out."""

    code = "mechanism.error"


class InvalidRequestError(ReproError, ValueError):
    """A request carried an invalid option or malformed parameters.

    The typed replacement for the bare ``ValueError`` the entry points
    used to raise on a bad ``method=``/``backend=``/``on_monopoly=``
    value — still a ``ValueError`` subclass, so pre-taxonomy ``except``
    clauses keep working.
    """

    code = "request.invalid"


class SerializationError(ReproError):
    """Unknown format tag, bad schema version, or malformed payload.

    Raised by :mod:`repro.io` (and therefore by everything layered on
    it: the engine's durable store, the service's wire envelopes).
    """

    code = "io.serialization"


class ProtocolError(ReproError):
    """A distributed protocol reached an invalid state."""

    code = "protocol.error"


class CheatingDetectedError(ProtocolError):
    """The secure distributed algorithm (Algorithm 2) flagged a node.

    Carries the identity of the flagged node and of the witness that
    detected the inconsistency, mirroring the paper's "notifies v_j and
    other nodes; v_j will then be punished accordingly".
    """

    code = "protocol.cheating"

    def __init__(self, cheater: int, witness: int, reason: str) -> None:
        super().__init__(
            f"node {cheater} flagged by witness {witness}: {reason}"
        )
        self.cheater = int(cheater)
        self.witness = int(witness)
        self.reason = reason


class ExperimentError(ReproError):
    """An experiment specification was invalid or a run failed."""

    code = "experiment.error"


class EngineError(ReproError):
    """Base class for :class:`~repro.engine.PricingEngine` failures."""

    code = "engine.error"


class EngineClosedError(EngineError):
    """The engine was closed; no further queries or mutations apply."""

    code = "engine.closed"


class PersistError(EngineError):
    """Unusable checkpoint directory or bad durability configuration."""

    code = "engine.persist"


class RecoveryError(PersistError):
    """Recovery found no usable state (e.g. no checkpoint validates)."""

    code = "engine.recovery"


class ServiceError(ReproError):
    """Base class for :mod:`repro.service` serving-layer failures."""

    code = "service.error"


class ServiceOverloadedError(ServiceError):
    """The admission queue is full; the request was rejected (HTTP 429)."""

    code = "service.overloaded"


class ServiceClosedError(ServiceError):
    """The service is draining or closed; no new requests are admitted."""

    code = "service.closed"


class DeadlineExceededError(ServiceError):
    """The request's deadline expired before an answer was served."""

    code = "service.deadline"


class ClientError(ReproError):
    """Base class for :class:`~repro.service.PricingClient` failures.

    Raised on the *caller's* side of the wire: the request never
    produced a usable answer (every retry failed, the breaker refused
    to try, ...). Server-side failures decoded from error envelopes are
    re-raised as their original taxonomy class instead (see
    :func:`error_for_code`).
    """

    code = "client.error"


class CircuitOpenError(ClientError):
    """The client's circuit breaker is open; the call was not attempted.

    Fail-fast pushback: the recent failure rate against this host
    crossed the breaker's threshold, so the client refuses to add load
    until the cooldown elapses and a half-open probe succeeds.
    """

    code = "client.circuit_open"


class RetryExhaustedError(ClientError):
    """Every retry attempt failed; carries the last failure as cause.

    ``__cause__`` (and the ``last`` attribute) hold the final
    attempt's exception so callers can still dispatch on the
    underlying failure family.
    """

    code = "client.retry_exhausted"

    def __init__(self, message: str, last: BaseException | None = None) -> None:
        super().__init__(message)
        self.last = last


class SupervisorError(ReproError):
    """The supervised server child could not be started or restarted."""

    code = "supervisor.error"


#: The one shared code → HTTP status table (the service's handlers and
#: the CLI both resolve through it — see :func:`http_status`). 4xx are
#: the caller's fault (bad envelope, unknown node, domain refusals),
#: 429/503/504 are serving-layer pushback, 5xx are our bugs.
HTTP_STATUS: dict[str, int] = {
    "repro.error": 500,
    "graph.error": 400,
    "graph.invalid": 400,
    "graph.node_not_found": 404,
    "graph.disconnected": 422,
    "mechanism.monopoly": 422,
    "mechanism.error": 422,
    "request.invalid": 400,
    "io.serialization": 400,
    "protocol.error": 500,
    "protocol.cheating": 500,
    "experiment.error": 500,
    "engine.error": 500,
    "engine.closed": 503,
    "engine.persist": 500,
    "engine.recovery": 500,
    "service.error": 500,
    "service.overloaded": 429,
    "service.closed": 503,
    "service.deadline": 504,
    "client.error": 500,
    "client.circuit_open": 503,
    "client.retry_exhausted": 503,
    "supervisor.error": 500,
    "internal": 500,
}

#: Default ``Retry-After`` hint (seconds) per retryable HTTP status.
#: 429 means "the queue is momentarily full" — retry almost
#: immediately; 503 means "draining" — back off longer.
RETRY_AFTER_S: dict[int, float] = {429: 0.05, 503: 1.0}


def error_code(exc: BaseException) -> str:
    """The stable code for an exception instance.

    :class:`ReproError` subclasses report their own (or their nearest
    ancestor's) ``code``; anything else is ``"internal"``.
    """
    code = getattr(exc, "code", None)
    return code if isinstance(code, str) else "internal"


def http_status(exc: BaseException) -> int:
    """The HTTP status an exception maps to (via :data:`HTTP_STATUS`).

    Unknown codes fall back up the exception's MRO so a subclass added
    without a table entry inherits its family's status, and ultimately
    to 500.
    """
    status = HTTP_STATUS.get(error_code(exc))
    if status is not None:
        return status
    for base in type(exc).__mro__:
        code = base.__dict__.get("code")
        if isinstance(code, str) and code in HTTP_STATUS:
            return HTTP_STATUS[code]
    return 500


def retry_after_s(exc: BaseException) -> float | None:
    """The ``Retry-After`` hint (seconds) for an exception, if any.

    An instance may carry an explicit ``retry_after_s`` attribute;
    otherwise the default for its HTTP status applies
    (:data:`RETRY_AFTER_S`). ``None`` means the status is not a
    back-off-and-retry condition.
    """
    explicit = getattr(exc, "retry_after_s", None)
    if isinstance(explicit, (int, float)):
        return float(explicit)
    return RETRY_AFTER_S.get(http_status(exc))


def _code_registry() -> dict[str, type[ReproError]]:
    """Map every taxonomy code to the class that *declares* it."""
    registry: dict[str, type[ReproError]] = {}
    stack: list[type[ReproError]] = [ReproError]
    while stack:
        cls = stack.pop()
        code = cls.__dict__.get("code")
        if isinstance(code, str) and code not in registry:
            registry[code] = cls
        stack.extend(cls.__subclasses__())
    return registry


def error_for_code(code: str, message: str) -> ReproError:
    """Rebuild a typed exception from a wire error envelope.

    The client uses this to re-raise server-side failures as the same
    taxonomy class the server raised, so ``except DisconnectedError:``
    works identically in-process and over HTTP. Classes with structured
    constructors (``NodeNotFoundError(node, n)``, ...) cannot be
    rebuilt from a message alone; those — and unknown codes — fall back
    to a generic :class:`ReproError` (or :class:`ClientError` for
    ``client.*`` codes) carrying the original ``code`` on the instance.
    """
    cls = _code_registry().get(code)
    if cls is not None:
        try:
            exc = cls(message)
        except (TypeError, ValueError):
            exc = None
        else:
            # A constructor that swallows the message (or mangles it)
            # is not a faithful rebuild; fall back to the generic path.
            if error_code(exc) == code:
                return exc
    fallback: ReproError = (
        ClientError(message) if code.startswith("client.") else ReproError(message)
    )
    fallback.code = code  # type: ignore[misc]  # shadow class attr per-instance
    return fallback
