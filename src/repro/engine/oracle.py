"""The serial oracle: every versioned answer against a from-scratch price.

Each served answer names the ``graph_version`` it was priced at.
:func:`verify` rebuilds that graph from the recorded update history and
compares the full answer (:func:`answer_key`: path, LCP cost and every
payment) bit for bit against the Section III.A payment
``p_k = ||P_{-v_k}|| - ||P|| + c_k`` recomputed by
``vcg_unicast_payments(method="fast", on_monopoly="inf")``.

A history record is ``(version, update)``, with ``update`` one of
``("cost", node, value)``, ``("remove", node)`` or ``("add", cost,
neighbors)``, applied with :class:`~repro.engine.PricingEngine`'s
semantics. A check is ``(version, source, target, outcome)``, where
``outcome`` is the served payment or the ``DisconnectedError`` (or
``MonopolyError``) the request raised::

    >>> from repro.graph import generators as gen
    >>> from repro.engine import PricingEngine
    >>> g = gen.random_biconnected_graph(12, seed=1)
    >>> eng = PricingEngine(g, on_monopoly="inf")
    >>> v = eng.update_cost(3, 2.5)
    >>> verdict = verify(g, [(v, ("cost", 3, 2.5))], [(v, 5, 0, eng.price(5, 0))])
    >>> (verdict.checked, verdict.mismatches, verdict.unverifiable)
    (1, 0, 0)
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.vcg_unicast import vcg_unicast_payments
from repro.errors import DisconnectedError, error_code
from repro.graph.node_graph import NodeWeightedGraph

__all__ = ["Verdict", "answer_key", "apply_update", "verify"]

#: How many mismatches a :class:`Verdict` describes in ``examples``.
MAX_EXAMPLES = 5


@dataclass
class Verdict:
    """What :func:`verify` found: answers ``checked`` against the
    oracle, ``mismatches`` (wrong answers and inconsistent update
    records), ``unverifiable`` answers past a gap in the history, and
    ``examples`` describing the first :data:`MAX_EXAMPLES` mismatches."""

    checked: int = 0
    mismatches: int = 0
    unverifiable: int = 0
    examples: list[str] = field(default_factory=list)

    def _miss(self, what: str) -> None:
        self.mismatches += 1
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append(what)


def answer_key(outcome) -> tuple:
    """Hashable bit-exact identity of an outcome: a payment's path, LCP
    cost and every per-node payment, or ``("err", code)`` for an error."""
    if isinstance(outcome, BaseException):
        return ("err", error_code(outcome))
    return (
        tuple(outcome.path),
        outcome.lcp_cost,
        tuple(sorted(outcome.payments.items())),
    )


def apply_update(g: NodeWeightedGraph, update: tuple) -> NodeWeightedGraph:
    """``g`` after one recorded mutation, with the engine's semantics:
    a removed node keeps its id and cost but loses every edge, and an
    added node takes id ``g.n``."""
    kind = update[0]
    if kind == "cost":
        return g.with_declaration(int(update[1]), float(update[2]))
    if kind == "remove":
        return g.without_node(int(update[1]))
    if kind == "add":
        return g.with_node(update[1], update[2])
    raise ValueError(f"unknown update kind {kind!r}")


def _oracle_key(g: NodeWeightedGraph, s: int, t: int) -> tuple:
    try:
        p = vcg_unicast_payments(g, s, t, method="fast", on_monopoly="inf")
    except DisconnectedError as exc:  # MonopolyError included
        return answer_key(exc)
    return answer_key(p)


def _describe(key: tuple) -> str:
    if key[0] == "err":
        return f"error {key[1]}"
    path, lcp_cost, payments = key
    return f"path {list(path)} lcp_cost {lcp_cost!r} payments {dict(payments)}"


def _is_noop(g: NodeWeightedGraph, update: tuple) -> bool:
    """A cost re-declaration of the value ``g`` holds: the engine keeps
    the version, so the record names the version it found."""
    return (
        update[0] == "cost"
        and int(update[1]) < g.n
        and float(g.costs[update[1]]) == float(update[2])
    )


def _can_change(g: NodeWeightedGraph, update: tuple) -> bool:
    """Whether ``update`` could produce the version after ``g``'s: a
    cost record must give a node ``g`` already has a new value."""
    if update[0] != "cost":
        return True
    node = int(update[1])
    return node < g.n and float(g.costs[node]) != float(update[2])


def verify(base: NodeWeightedGraph, history, checks, base_version: int = 0) -> Verdict:
    """Check every ``(version, source, target, outcome)`` against the
    oracle at ``version``.

    ``base`` is the graph at ``base_version``; ``history`` holds the
    ``(version, update)`` records that follow it. A retried record
    counts once. A no-op cost re-declaration is not a change; it is
    checked against the graph at its own version, so it may name a node
    added by that version's change. Two changes at one version, or a
    change at or before ``base_version``, count as mismatches. Answers
    at versions after the first one no record produces count as
    ``unverifiable``. Each distinct ``(version, source, target)`` is
    priced once.
    """
    verdict = Verdict()
    updates: dict[int, list] = defaultdict(list)
    for version, update in history:
        if tuple(update) not in updates[version]:
            updates[version].append(tuple(update))
    for version in [v for v in updates if v <= base_version]:
        for update in updates.pop(version):
            if not _is_noop(base, update):
                verdict._miss(f"v{version}: {update!r} changes the base graph")
    by_version = defaultdict(list)
    for version, s, t, outcome in checks:
        by_version[version].append((s, t, outcome))

    g, v = base, base_version
    while True:
        expected: dict[tuple[int, int], tuple] = {}
        for s, t, outcome in by_version.pop(v, ()):
            if (s, t) not in expected:
                expected[(s, t)] = _oracle_key(g, s, t)
            want = expected[(s, t)]
            got = answer_key(outcome)
            verdict.checked += 1
            if got != want:
                verdict._miss(
                    f"v{v} {s}->{t}: observed {_describe(got)}; "
                    f"oracle {_describe(want)}"
                )
        records = updates.get(v + 1, ())
        change = next((u for u in records if _can_change(g, u)), None)
        if change is None:
            break
        g_next = apply_update(g, change)
        others = [u for u in records if u != change and not _is_noop(g_next, u)]
        if others:
            verdict._miss(f"v{v + 1}: two different updates {[change, others[0]]!r}")
            break
        v, g = v + 1, g_next
    verdict.unverifiable = sum(len(rest) for rest in by_version.values())
    return verdict
