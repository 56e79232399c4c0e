"""All-to-all traffic: the paper's "easy generalization" (Section II.B/D).

The body of the paper fixes the destination to the access point, noting
"it is not very different to generalize to arbitrary node between any
pair" and that the Nisan-Ronen result "can be easily extended to deal
with all-to-all traffics". This module does both:

* :func:`pairwise_vcg_payments` — price any set of ordered pairs with
  Algorithm 1 (one O(n log n + m) pass per distinct source);
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

from repro.core.fast_payment import fast_vcg_payments
from repro.core.mechanism import UnicastPayment, spt_backend_for
from repro.errors import InvalidGraphError
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
    "TrafficMatrix",
    "NodeEconomy",
    "NetworkEconomy",
    "network_economy",
]


def pairwise_vcg_payments(
    g: NodeWeightedGraph,
    pairs: Iterable[tuple[int, int]],
    on_monopoly: str = "inf",
    backend: str = "auto",
    spt_cache: dict[int, ShortestPathTree] | None = None,
) -> dict[tuple[int, int], UnicastPayment]:
    """VCG payments for arbitrary ordered source-target pairs.

    Results are computed with Algorithm 1, memoized per pair, and —
    crucially for batch workloads — the shortest path tree of every
    distinct *endpoint* is built once and shared across all pairs that
    touch it (an SPT rooted at ``x`` serves both roles, because paths
    are undirected). Pricing ``k`` pairs over ``e`` distinct endpoints
    therefore costs ``e`` Dijkstras plus ``k`` linear-time Algorithm-1
    passes: one O(n log n + m) pass per distinct endpoint, not per pair.

    ``spt_cache`` lets a long-lived caller (the
    :class:`~repro.engine.PricingEngine`) share its endpoint SPT cache:
    pre-populated entries are reused, missing roots are built here and
    left in the mapping for the caller to keep. The trees must belong to
    *this* graph and the caller's ``backend``.

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

    # Pre-build every distinct endpoint's SPT not already in the cache in
    # one batched multi-source solve (one compiled call per block of 32
    # endpoints instead of one Python round-trip per endpoint, with
    # bounded transient memory; bit-identical per-source trees).
    pair_list = [
        (check_node_index(i, g.n), check_node_index(j, g.n))
        for i, j in pairs
    ]
    missing = {x for ij in pair_list for x in ij if x not in spts}
    if len(missing) > 1:
        built = node_weighted_spt_many(g, sorted(missing), backend=spt_backend)
        spts.update(built)
        if _metrics.enabled:
            _metrics.add("allpairs.spt_builds", len(built))

    for i, j in pair_list:
        if (i, j) in out:
            continue
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
    the batched :func:`pairwise_vcg_payments` path with the given
    ``backend``. Callers that want parallel pricing compute payments via
    :func:`repro.api.price_all_pairs` with ``jobs=`` (strided chunks of
    this same batch on worker processes) and pass them in.
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
