"""Mechanism-design primitives shared by all pricing schemes.

The standard model (Section II.A): agents hold private types, a mechanism
maps declared types to an *output* (here: the routing path) and a
*payment* per agent; agent utility is ``valuation + payment``. For unicast
relaying the valuation of agent ``k`` is ``-c_k`` when it relays and 0
otherwise, so ``u^k = p^k - x_k * c_k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "UnicastPayment",
    "relay_utility",
    "MechanismSpec",
    "PaymentResult",
    "resolve_backend",
    "resolve_monopoly_policy",
    "spt_backend_for",
    "canonical_cost",
    "BACKENDS",
    "MONOPOLY_POLICIES",
]

#: Every kernel backend a pricing entry point accepts. ``"auto"`` picks
#: the vectorized path (for the node model ``"scipy"`` is the same path;
#: see :mod:`repro.graph.dijkstra`); ``"python"`` is the scalar oracle;
#: ``"numpy"`` runs the vectorized Algorithm-1 kernels over the
#: pure-Python SPT builder (see :mod:`repro.core.fast_payment`).
BACKENDS: tuple[str, ...] = ("auto", "python", "scipy", "numpy")

#: What to do when a relay's removal disconnects the endpoints.
MONOPOLY_POLICIES: tuple[str, ...] = ("raise", "inf")


def resolve_backend(backend: str) -> str:
    """Validate a ``backend=`` keyword shared by every pricing entry point.

    Returns the backend unchanged; raises
    :class:`~repro.errors.InvalidRequestError` (a ``ValueError``
    subclass) on anything outside :data:`BACKENDS`. Centralizing the
    check keeps the error message (and the accepted set) identical
    across the node and link entry points.
    """
    if backend not in BACKENDS:
        from repro.errors import InvalidRequestError

        raise InvalidRequestError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def spt_backend_for(backend: str) -> str:
    """The Dijkstra backend matching a pricing ``backend``.

    The SPT layer knows ``"auto"``/``"python"``/``"scipy"`` only;
    ``"numpy"`` (vectorized payment kernels) deliberately runs over the
    pure-Python SPT builder so kernel comparisons are apples-to-apples.
    """
    return "python" if resolve_backend(backend) in ("python", "numpy") else backend


def resolve_monopoly_policy(on_monopoly: str) -> str:
    """Validate an ``on_monopoly=`` keyword (``"raise"`` or ``"inf"``).

    Raises :class:`~repro.errors.InvalidRequestError` (a ``ValueError``
    subclass) on anything else.
    """
    if on_monopoly not in MONOPOLY_POLICIES:
        from repro.errors import InvalidRequestError

        raise InvalidRequestError(
            f"on_monopoly must be 'raise' or 'inf', got {on_monopoly!r}"
        )
    return on_monopoly


def canonical_cost(costs: Sequence[float], nodes: Iterable[int]) -> float:
    """The cost of a path's internal ``nodes``, as ``math.fsum`` of
    their ``costs``.

    ``fsum`` is correctly rounded, so the value does not depend on the
    order the costs are added in. Every node-model pricing path reports
    ``||P||`` and each ``||P_{-v_k}||`` this way, over the nodes of the
    path that achieves it, so two methods that find the same paths agree
    bit for bit whatever order their Dijkstras summed in.
    """
    return math.fsum(costs[v] for v in nodes)


# The PR-4 ``warn_renamed_kwarg`` shim (``algorithm=``/``monopoly=``)
# completed its deprecation cycle in PR-9 and is gone; the renamed
# keywords now fail with a plain TypeError like any unknown kwarg.


@runtime_checkable
class PaymentResult(Protocol):
    """What every per-request pricing outcome exposes.

    :class:`UnicastPayment` and
    :class:`~repro.core.fast_payment.FastPaymentResult` implement it
    directly; the batch :class:`~repro.core.link_vcg.LinkPaymentTable`
    exposes the same shape per source via
    :meth:`~repro.core.link_vcg.LinkPaymentTable.payment_result` (and
    shares the ``to_dict``/``from_dict`` serialization contract).
    """

    @property
    def path(self) -> tuple[int, ...]: ...

    @property
    def payments(self) -> Mapping[int, float]: ...

    @property
    def path_cost(self) -> float: ...

    def to_dict(self) -> dict: ...


@dataclass(frozen=True)
class UnicastPayment:
    """The outcome of a unicast pricing mechanism for one source.

    Attributes
    ----------
    source, target:
        The communicating endpoints (target is usually the access point).
    path:
        The chosen route, source first. Empty when ``source == target``.
    lcp_cost:
        Cost of the route under the declared profile, using the owning
        model's convention (internal-node cost for the node model, relay
        arc cost for the link model — the source's own expense is never
        part of it, matching Section II.C).
    payments:
        Mapping node id -> payment from the source. VCG pays only on-path
        relays; the Section III.E schemes may also pay off-path nodes, so
        the mapping is not restricted to ``path``. Zero payments may be
        omitted.
    scheme:
        Short identifier of the producing scheme (``"vcg"``,
        ``"neighbor-collusion"``, ...), for reporting.
    """

    source: int
    target: int
    path: tuple[int, ...]
    lcp_cost: float
    payments: Mapping[int, float]
    scheme: str = "vcg"

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", tuple(int(v) for v in self.path))
        object.__setattr__(
            self,
            "payments",
            {int(k): float(v) for k, v in dict(self.payments).items()},
        )

    @property
    def relays(self) -> tuple[int, ...]:
        """Internal nodes of the route (the nodes VCG pays)."""
        return self.path[1:-1] if len(self.path) > 2 else ()

    def payment(self, node: int) -> float:
        """Payment to ``node`` (0 when the scheme pays it nothing)."""
        return self.payments.get(int(node), 0.0)

    @property
    def path_cost(self) -> float:
        """Cost of the chosen route (alias of ``lcp_cost``; the uniform
        :class:`PaymentResult` accessor shared by every result type)."""
        return self.lcp_cost

    @property
    def total_payment(self) -> float:
        """``p_i`` of Section III.G: the source's total outlay."""
        return float(sum(self.payments.values()))

    def to_dict(self) -> dict:
        """Tagged, versioned JSON-safe encoding (see :mod:`repro.io`)."""
        from repro import io

        return io.to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "UnicastPayment":
        """Inverse of :meth:`to_dict`; rejects payloads of other types."""
        from repro import io

        return io.decode_as(cls, payload)

    @property
    def overpayment_ratio(self) -> float:
        """``p_i / c(i, 0)`` — the per-source ratio behind IOR/TOR.

        ``nan`` when the route has no relays (a direct link costs and pays
        nothing; such sources are excluded from the paper's averages).
        """
        if self.lcp_cost <= 0:
            return float("nan")
        return self.total_payment / self.lcp_cost

    @property
    def overpayment(self) -> float:
        """Absolute overpayment ``p_i - c(i, 0)`` (>= 0 for VCG schemes)."""
        return self.total_payment - self.lcp_cost

    def on_path(self, node: int) -> bool:
        """True if the node lies on the chosen route."""
        return int(node) in self.path

    def describe(self) -> str:
        """One-line human-readable summary."""
        route = " -> ".join(map(str, self.path)) if self.path else "(empty)"
        return (
            f"[{self.scheme}] {self.source} => {self.target}: route {route}; "
            f"cost {self.lcp_cost:.6g}, pays {self.total_payment:.6g}"
        )


def relay_utility(
    result: UnicastPayment, true_costs: np.ndarray | Mapping[int, float], node: int
) -> float:
    """Utility ``u^k = p^k - x_k * c_k`` of agent ``node`` under ``result``.

    ``true_costs`` is indexed by node id; in the link model pass the true
    cost of the specific arc the path uses at ``node`` (helper:
    :func:`repro.core.link_vcg.relay_link_utility`).
    """
    node = int(node)
    cost = float(true_costs[node])
    used = node in result.relays
    return result.payment(node) - (cost if used else 0.0)


@dataclass(frozen=True)
class MechanismSpec:
    """A pluggable unicast mechanism: name + payment function.

    ``compute(graph, source, target)`` must return a
    :class:`UnicastPayment`. The truthfulness harness
    (:mod:`repro.core.truthfulness`) and the baseline comparisons both
    operate on this interface, so the paper's scheme, the collusion
    variants and the baselines are interchangeable test subjects.
    """

    name: str
    compute: Callable[..., UnicastPayment]
    properties: tuple[str, ...] = field(default_factory=tuple)

    def __call__(self, graph, source: int, target: int, **kwargs) -> UnicastPayment:
        return self.compute(graph, source, target, **kwargs)
