"""Seeded server-side fault injection for :class:`ServiceServer`.

PR 3 proved the pattern at the protocol layer (seeded loss/delay/dup
with bit-identical loss=0 behavior); this is the same discipline at the
HTTP layer. A :class:`ChaosPlan` maps endpoints to :class:`ChaosRule`
probabilities and draws every fault decision from one seeded
:class:`random.Random`, so a chaos run is *reproducible*: the same
plan + seed + request order injects the same faults.

Fault kinds (per matching request, in priority order):

* ``reset_p`` — the connection is aborted with an RST (``SO_LINGER``
  zero-timeout close) before any response bytes; clients see
  ``ConnectionResetError`` / ``BadStatusLine``.
* ``torn_p`` — the *real* response is computed, its headers declare
  the full ``Content-Length``, but only half the body is written
  before the socket is torn down. This deliberately tears genuine
  payloads: an update may have been durably applied even though the
  client never saw the ack — exactly the case idempotency keys exist
  for.
* ``error_p`` — a synthetic ``error-response`` envelope with
  ``error_status`` (default 500) and code ``"internal"``.
* ``latency_p`` / ``latency_s`` — sleep before handling (combinable
  with the other faults).

The plan is **off by default**: a ``None`` plan (or one whose rules
are all zero-probability) leaves the server's code path and wire bytes
identical to a chaos-free build — asserted by
``tests/test_resilience.py``. Plans come from ``serve --chaos`` as
inline JSON or a path to a JSON file::

    {"seed": 7, "endpoints": {
        "/v1/price": {"error_p": 0.1, "reset_p": 0.05,
                       "latency_p": 0.2, "latency_s": 0.05},
        "*": {"torn_p": 0.02}}}

The ``"*"`` rule applies to every ``/v1/`` endpoint without an exact
rule; telemetry endpoints (``/healthz``, ``/readyz``, ``/metrics``,
...) are only faulted when named explicitly, so supervisors probing
liveness are not confused by injected faults.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from random import Random

from repro.errors import InvalidRequestError
from repro.obs.metrics import REGISTRY, MetricsRegistry

__all__ = ["ChaosRule", "ChaosDecision", "ChaosPlan"]


@dataclass(frozen=True)
class ChaosRule:
    """Per-endpoint fault probabilities (all default to "never")."""

    latency_p: float = 0.0
    latency_s: float = 0.0
    error_p: float = 0.0
    error_status: int = 500
    reset_p: float = 0.0
    torn_p: float = 0.0

    def __post_init__(self) -> None:
        for name in ("latency_p", "error_p", "reset_p", "torn_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise InvalidRequestError(
                    f"chaos {name} must be in [0, 1], got {p}"
                )
        if self.latency_s < 0.0:
            raise InvalidRequestError("chaos latency_s must be >= 0")
        if not 500 <= self.error_status <= 599:
            raise InvalidRequestError(
                f"chaos error_status must be a 5xx, got {self.error_status}"
            )

    @property
    def is_null(self) -> bool:
        return (
            self.latency_p == 0.0
            and self.error_p == 0.0
            and self.reset_p == 0.0
            and self.torn_p == 0.0
        )


@dataclass(frozen=True)
class ChaosDecision:
    """The faults to inject into one request.

    ``action`` is the terminal fault (``"reset"``, ``"torn"``,
    ``"error"``, or ``None`` for "respond normally"); ``latency_s`` is
    an additional pre-handling sleep (0 = none).
    """

    latency_s: float = 0.0
    action: str | None = None
    status: int = 500


class ChaosPlan:
    """A seeded, per-endpoint fault plan (thread-safe).

    ``rules`` maps an exact path (``"/v1/price"``) or the ``"*"``
    wildcard (any ``/v1/`` endpoint) to a :class:`ChaosRule`. All
    random draws come from one lock-guarded seeded RNG in request
    order.
    """

    def __init__(
        self,
        rules: dict[str, ChaosRule] | None = None,
        *,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.rules = dict(rules or {})
        self.seed = int(seed)
        self._rng = Random(self.seed)
        self._mu = threading.Lock()
        self._metrics = REGISTRY if metrics is None else metrics

    @property
    def is_null(self) -> bool:
        """True when no rule can ever fire (plan is effectively off)."""
        return all(rule.is_null for rule in self.rules.values())

    def rule_for(self, path: str) -> ChaosRule | None:
        rule = self.rules.get(path)
        if rule is not None:
            return rule
        if path.startswith("/v1/"):
            return self.rules.get("*")
        return None

    def decide(self, path: str) -> ChaosDecision | None:
        """Draw the fault decision for one request (``None`` = no faults).

        Terminal faults are prioritized reset > torn > error so a rule
        with several nonzero probabilities stays well-defined; the RNG
        consumes exactly one draw per configured nonzero probability,
        keeping the stream aligned across runs.
        """
        rule = self.rule_for(path)
        if rule is None or rule.is_null:
            return None
        with self._mu:
            latency = 0.0
            if rule.latency_p > 0.0 and self._rng.random() < rule.latency_p:
                latency = rule.latency_s
            action: str | None = None
            if rule.reset_p > 0.0 and self._rng.random() < rule.reset_p:
                action = "reset"
            if action is None and rule.torn_p > 0.0:
                if self._rng.random() < rule.torn_p:
                    action = "torn"
            if action is None and rule.error_p > 0.0:
                if self._rng.random() < rule.error_p:
                    action = "error"
        if latency == 0.0 and action is None:
            return None
        if latency > 0.0:
            self._metrics.add("service.chaos_latency")
        if action is not None:
            self._metrics.add(f"service.chaos_{action}")
        return ChaosDecision(latency_s=latency, action=action, status=rule.error_status)

    # ------------------------------------------------------------------
    # (de)serialization

    def to_doc(self) -> dict:
        return {
            "seed": self.seed,
            "endpoints": {
                path: {
                    f.name: getattr(rule, f.name)
                    for f in fields(ChaosRule)
                    if getattr(rule, f.name) != f.default
                }
                for path, rule in self.rules.items()
            },
        }

    @classmethod
    def from_doc(cls, doc: dict, *, metrics: MetricsRegistry | None = None
                 ) -> "ChaosPlan":
        if not isinstance(doc, dict):
            raise InvalidRequestError("chaos plan must be a JSON object")
        endpoints = doc.get("endpoints", {})
        if not isinstance(endpoints, dict):
            raise InvalidRequestError("chaos plan 'endpoints' must be an object")
        known = {f.name for f in fields(ChaosRule)}
        rules: dict[str, ChaosRule] = {}
        for path, spec in endpoints.items():
            if not isinstance(spec, dict):
                raise InvalidRequestError(
                    f"chaos rule for {path!r} must be an object"
                )
            unknown = set(spec) - known
            if unknown:
                raise InvalidRequestError(
                    f"chaos rule for {path!r} has unknown keys {sorted(unknown)}"
                )
            rules[str(path)] = ChaosRule(**spec)
        return cls(rules, seed=int(doc.get("seed", 0)), metrics=metrics)

    @classmethod
    def from_spec(cls, spec: str, *, metrics: MetricsRegistry | None = None
                  ) -> "ChaosPlan":
        """Parse ``--chaos`` input: inline JSON or a path to a JSON file."""
        text = spec.strip()
        if not text.startswith("{"):
            path = Path(text)
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise InvalidRequestError(
                    f"chaos plan file {spec!r} unreadable: {exc}"
                ) from exc
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise InvalidRequestError(
                f"chaos plan is not valid JSON: {exc}"
            ) from exc
        return cls.from_doc(doc, metrics=metrics)
