"""All-to-all traffic: the paper's "easy generalization" (Section II.B/D).

The body of the paper fixes the destination to the access point, noting
"it is not very different to generalize to arbitrary node between any
pair" and that the Nisan-Ronen result "can be easily extended to deal
with all-to-all traffics". This module does both:

* :func:`pairwise_vcg_payments` — price any set of ordered pairs: one
  all-sources pass (:mod:`repro.core.all_sources`) per target that many
  sources share, Algorithm 1 per pair otherwise;
* :class:`TrafficMatrix` — per-pair traffic intensities ``T[i, j]``
  (Feigenbaum et al.'s model, quoted in II.D);
* :func:`network_economy` — aggregate the per-packet payments over a
  traffic matrix into each node's *income* (earned relaying), *spend*
  (paid as a source), *energy cost* (true cost of the packets it
  relayed) and *profit* — the quantities a device owner actually cares
  about when deciding whether to join the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.all_sources import price_sources
from repro.core.fast_payment import fast_vcg_payments
from repro.core.mechanism import UnicastPayment, resolve_backend, spt_backend_for
from repro.errors import InvalidGraphError, ReproError
from repro.graph.dijkstra import (
    ShortestPathTree,
    node_weighted_spt,
    node_weighted_spt_many,
)
from repro.graph.node_graph import NodeWeightedGraph
from repro.obs.metrics import REGISTRY as _metrics
from repro.utils.validation import check_node_index

__all__ = [
    "pairwise_vcg_payments",
    "spt_roots",
    "BATCH_MIN_SOURCES",
    "TrafficMatrix",
    "NodeEconomy",
    "NetworkEconomy",
    "network_economy",
]


#: The smallest number of distinct sources sharing one target for which
#: :func:`pairwise_vcg_payments` prices them through the all-sources
#: batch instead of per-pair Algorithm 1 (``auto``/``scipy`` backends).
#: Measured on the 500-node service instance (see ``docs/engine.md``).
BATCH_MIN_SOURCES = 2


def _batch_groups(
    pairs: Iterable[tuple[int, int]], backend: str
) -> dict[int, list[int]]:
    """``target -> distinct sources in request order`` for the targets
    whose pairs take the all-sources batch: under ``auto``/``scipy``,
    those shared by at least :data:`BATCH_MIN_SOURCES` sources.
    ``python`` and ``numpy`` keep per-pair Algorithm 1, the
    comparators."""
    if resolve_backend(backend) not in ("auto", "scipy"):
        return {}
    groups: dict[int, dict[int, None]] = {}
    for i, j in pairs:
        groups.setdefault(j, {})[i] = None
    return {
        j: list(group)
        for j, group in groups.items()
        if len(group) >= BATCH_MIN_SOURCES
    }


def spt_roots(
    pairs: Iterable[tuple[int, int]], backend: str = "auto"
) -> set[int]:
    """The endpoint trees :func:`pairwise_vcg_payments` reads to price
    ``pairs``: the target's alone for a batched target, both endpoints'
    for a pair priced by Algorithm 1."""
    pairs = list(pairs)
    batched = _batch_groups(pairs, backend)
    return {x for i, j in pairs for x in ((j,) if j in batched else (i, j))}


def pairwise_vcg_payments(
    g: NodeWeightedGraph,
    pairs: Iterable[tuple[int, int]],
    on_monopoly: str = "inf",
    backend: str = "auto",
    spt_cache: dict[int, ShortestPathTree] | None = None,
) -> dict[tuple[int, int], UnicastPayment]:
    """VCG payments for arbitrary ordered source-target pairs.

    Pairs are grouped by target. Under ``backend="auto"``/``"scipy"`` a
    target shared by at least :data:`BATCH_MIN_SOURCES` distinct sources
    prices its whole group in one pass of
    :func:`repro.core.all_sources.price_sources`: ``SPT(target)`` plus
    one Dijkstra per tree depth, no source tree. Every other pair, and
    every pair under ``"python"``/``"numpy"``, runs Algorithm 1 over the
    trees of both endpoints, each built once (in one batched solve) and
    shared by every pair that touches it. Either way the answer is the
    same bit for bit (canonical trees and canonical sums).

    Errors surface as the first failing pair in request order raises
    them, whichever way it was priced.

    ``spt_cache`` lets a long-lived caller (the
    :class:`~repro.engine.PricingEngine`) share its endpoint SPT cache:
    pre-populated entries are reused, missing roots are built here and
    left in the mapping for the caller to keep. The trees must belong to
    *this* graph and the caller's ``backend``. :func:`spt_roots` names
    the roots a call reads.

    In the node-cost model the payment is direction-symmetric (the path
    cost counts internal nodes only), but both orientations are priced
    as requested — callers with symmetric traffic can halve the work by
    canonicalizing pairs themselves.
    """
    out: dict[tuple[int, int], UnicastPayment] = {}
    spts: dict[int, ShortestPathTree] = spt_cache if spt_cache is not None else {}
    spt_backend = spt_backend_for(backend)

    def spt_of(x: int) -> ShortestPathTree:
        spt = spts.get(x)
        if spt is None:
            spt = spts[x] = node_weighted_spt(g, x, backend=spt_backend)
            if _metrics.enabled:
                _metrics.add("allpairs.spt_builds", 1)
        return spt

    pair_list = [
        (check_node_index(i, g.n), check_node_index(j, g.n))
        for i, j in pairs
    ]
    batched = _batch_groups(pair_list, backend)
    # Pre-build every tree Algorithm 1 will read and the cache lacks in
    # one batched multi-source solve (one compiled call per block of 32
    # endpoints, bounded transient memory, bit-identical trees).
    missing = {
        x
        for i, j in pair_list
        if j not in batched
        for x in (i, j)
        if x not in spts
    }
    if len(missing) > 1:
        built = node_weighted_spt_many(g, sorted(missing), backend=spt_backend)
        spts.update(built)
        if _metrics.enabled:
            _metrics.add("allpairs.spt_builds", len(built))

    groups: dict[int, dict[int, UnicastPayment | ReproError]] = {}
    for i, j in pair_list:
        if (i, j) in out:
            continue
        if j in batched:
            group = groups.get(j)
            if group is None:
                group = groups[j] = price_sources(
                    g, j, batched[j], on_monopoly, spt=spt_of(j)
                )
            outcome = group[i]
            if isinstance(outcome, ReproError):
                raise outcome
            out[(i, j)] = outcome
        else:
            out[(i, j)] = fast_vcg_payments(
                g,
                i,
                j,
                on_monopoly=on_monopoly,
                backend=backend,
                spt_source=spt_of(i),
                spt_target=spt_of(j),
            ).to_unicast_payment()
        if _metrics.enabled:
            _metrics.add("allpairs.pairs_priced", 1)
    return out


class TrafficMatrix:
    """Non-negative per-pair traffic intensities ``T[i, j]`` (packets).

    The diagonal must be zero. Sparse construction from triples is
    supported; :meth:`uniform` and :meth:`to_access_point` cover the two
    canonical workloads.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidGraphError(
                f"traffic matrix must be square, got {matrix.shape}"
            )
        if (matrix < 0).any() or not np.isfinite(matrix).all():
            raise InvalidGraphError("traffic intensities must be finite and >= 0")
        if np.diagonal(matrix).any():
            raise InvalidGraphError("self-traffic (diagonal) must be zero")
        self.matrix = matrix
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return int(self.matrix.shape[0])

    @classmethod
    def from_triples(
        cls, n: int, triples: Iterable[tuple[int, int, float]]
    ) -> "TrafficMatrix":
        """Build from sparse ``(source, target, intensity)`` triples."""
        m = np.zeros((n, n))
        for i, j, t in triples:
            m[check_node_index(i, n), check_node_index(j, n)] += float(t)
        return cls(m)

    @classmethod
    def uniform(cls, n: int, intensity: float = 1.0) -> "TrafficMatrix":
        """All-to-all: every ordered pair exchanges ``intensity`` packets."""
        m = np.full((n, n), float(intensity))
        np.fill_diagonal(m, 0.0)
        return cls(m)

    @classmethod
    def to_access_point(
        cls, n: int, root: int = 0, intensity: float = 1.0
    ) -> "TrafficMatrix":
        """The paper's main scenario: everyone sends to the AP."""
        m = np.zeros((n, n))
        m[:, check_node_index(root, n)] = float(intensity)
        m[root, root] = 0.0
        return cls(m)

    def pairs(self) -> Iterable[tuple[int, int, float]]:
        """Yield every nonzero ``(source, target, intensity)`` entry.

        One vectorized gather — no per-element scalar indexing back into
        the matrix; the yielded values are plain Python ints/floats.
        """
        src, dst = np.nonzero(self.matrix)
        vals = self.matrix[src, dst]
        yield from zip(src.tolist(), dst.tolist(), vals.tolist())


@dataclass(frozen=True)
class NodeEconomy:
    """One node's books under a traffic pattern."""

    node: int
    income: float  # payments received for relaying
    spend: float  # payments made as a source
    energy_cost: float  # true cost of packets actually relayed
    packets_relayed: float

    @property
    def profit(self) -> float:
        """Relaying profit: income minus true relaying cost (the agent's
        utility from its relay role; its own traffic's value is private)."""
        return self.income - self.energy_cost

    @property
    def net_cash(self) -> float:
        """Income minus spend (cash-flow view)."""
        return self.income - self.spend


@dataclass(frozen=True)
class NetworkEconomy:
    """Network-wide aggregation of :class:`NodeEconomy` entries."""

    nodes: tuple[NodeEconomy, ...]
    blocked_pairs: tuple[tuple[int, int], ...]

    def node(self, i: int) -> NodeEconomy:
        """The books of one node."""
        return self.nodes[i]

    @property
    def total_payment(self) -> float:
        """Total payment across all relays."""
        return float(sum(e.spend for e in self.nodes))

    @property
    def total_energy(self) -> float:
        """Total true relaying cost across all nodes."""
        return float(sum(e.energy_cost for e in self.nodes))

    @property
    def overpayment_ratio(self) -> float:
        """Total payment divided by the corresponding true cost."""
        if self.total_energy <= 0:
            return float("nan")
        return self.total_payment / self.total_energy

    def gini_income(self) -> float:
        """Income inequality across relays (0 = equal, -> 1 = concentrated).

        Useful for spotting choke-point relays that capture most of the
        network's payments.
        """
        incomes = np.sort(np.array([e.income for e in self.nodes]))
        total = incomes.sum()
        if total <= 0:
            return 0.0
        n = incomes.size
        ranks = np.arange(1, n + 1)
        return float((2 * (ranks * incomes).sum()) / (n * total) - (n + 1) / n)


def network_economy(
    g: NodeWeightedGraph,
    traffic: TrafficMatrix,
    payments: Mapping[tuple[int, int], UnicastPayment] | None = None,
    backend: str = "auto",
) -> NetworkEconomy:
    """Aggregate VCG payments over a traffic matrix.

    Pairs whose route is monopolized (infinite payment) are skipped and
    reported in ``blocked_pairs`` — in a deployment those sessions simply
    cannot be priced and would be refused.

    When ``payments`` is not supplied, the pairs are priced here through
    :func:`pairwise_vcg_payments` with the given ``backend``.
    """
    if traffic.n != g.n:
        raise InvalidGraphError(
            f"traffic matrix is {traffic.n}x{traffic.n} but the graph has "
            f"{g.n} nodes"
        )
    if payments is None:
        payments = pairwise_vcg_payments(
            g, ((i, j) for i, j, _ in traffic.pairs()), backend=backend
        )
    income = np.zeros(g.n)
    spend = np.zeros(g.n)
    energy = np.zeros(g.n)
    relayed = np.zeros(g.n)
    blocked: list[tuple[int, int]] = []
    for i, j, t in traffic.pairs():
        p = payments[(i, j)]
        if not np.isfinite(p.total_payment):
            blocked.append((i, j))
            continue
        spend[i] += t * p.total_payment
        for k in p.relays:
            income[k] += t * p.payment(k)
            energy[k] += t * float(g.costs[k])
            relayed[k] += t
    nodes = tuple(
        NodeEconomy(
            node=i,
            income=float(income[i]),
            spend=float(spend[i]),
            energy_cost=float(energy[i]),
            packets_relayed=float(relayed[i]),
        )
        for i in range(g.n)
    )
    return NetworkEconomy(nodes=nodes, blocked_pairs=tuple(blocked))
