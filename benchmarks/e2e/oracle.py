"""The oracle gate: every recorded answer against a serial recomputation.

The graph the server priced at each version is rebuilt from the
recorded update history (cost re-declarations, ``remove_node`` and
``add_node``, with the engine's documented semantics), and each
answer is compared in full — path, LCP cost and every payment —
against :func:`repro.core.vcg_unicast.vcg_unicast_payments` with
``method="fast"``. A ``DisconnectedError``/``MonopolyError`` outcome is
correct only if the oracle raises the same error at a version the
request could have seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.vcg_unicast import vcg_unicast_payments
from repro.errors import DisconnectedError, error_code
from repro.graph.node_graph import NodeWeightedGraph

from loadgen import answer_key


@dataclass
class Verdict:
    checked: int = 0
    mismatches: int = 0
    examples: list = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.checked += other.checked
        self.mismatches += other.mismatches
        self.examples.extend(other.examples[: 5 - len(self.examples)])

    def miss(self, what) -> None:
        self.mismatches += 1
        if len(self.examples) < 5:
            self.examples.append(repr(what)[:300])


def apply_update(g: NodeWeightedGraph, update: tuple) -> NodeWeightedGraph:
    """``g`` after one recorded mutation."""
    kind = update[0]
    if kind == "cost":
        return g.with_declaration(update[1], update[2])
    if kind == "remove":
        x = update[1]
        kept = [(u, v) for u, v in g.edge_iter() if u != x and v != x]
        return NodeWeightedGraph(g.n, kept, g.costs)
    _, cost, nbrs = update
    edges = list(g.edge_iter()) + [(g.n, v) for v in nbrs]
    return NodeWeightedGraph(g.n + 1, edges, np.append(g.costs, cost))


def oracle_answer(g: NodeWeightedGraph, s: int, t: int) -> tuple:
    try:
        p = vcg_unicast_payments(g, s, t, method="fast", on_monopoly="inf")
    except DisconnectedError as exc:  # MonopolyError included
        return ("err", error_code(exc))
    return answer_key(p)


def verify(base: NodeWeightedGraph, history: list, checks: list) -> Verdict:
    """Check every ``(lo, hi, s, t, observed)`` against the oracle."""
    verdict = Verdict()
    history = sorted(history)
    versions = [v for v, _ in history]
    if versions != list(range(1, len(versions) + 1)):
        verdict.miss(("update history is not versions 1..V", versions[:20]))
        return verdict
    by_version: dict[int, list] = {}
    pending = []  # error outcomes: any version in [lo, hi] may match
    for check in checks:
        lo, hi = check[0], check[1]
        if lo > len(history) or hi > len(history) + 1:
            verdict.miss(("answer at an unrecorded version", check))
        elif check[4][0] == "err":
            pending.append(check)
        else:
            by_version.setdefault(lo, []).append(check)
    verdict.checked = len(checks)
    g = base
    for v in range(len(history) + 1):
        if v:
            g = apply_update(g, history[v - 1][1])
        memo: dict[tuple[int, int], tuple] = {}
        for _, _, s, t, observed in by_version.get(v, ()):
            want = memo.get((s, t))
            if want is None:
                want = memo[(s, t)] = oracle_answer(g, s, t)
            if observed != want:
                verdict.miss((v, s, t, observed, want))
        still = []
        for check in pending:
            lo, hi, s, t, observed = check
            if lo <= v <= hi and oracle_answer(g, s, t) == observed:
                continue
            if v >= hi:
                verdict.miss(("error outcome the oracle never gives", check))
            else:
                still.append(check)
        pending = still
    for check in pending:
        verdict.miss(("error outcome the oracle never gives", check))
    return verdict

