"""Workloads, seeded instances and op streams of the end-to-end benchmark.

Everything a run sends to the system derives from ``--seed``: the
serving instance, the hot source pool and every op stream (one stream
per workload and round). The server child receives only the generated
graph; it never sees the seed.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from repro.graph.node_graph import NodeWeightedGraph
from repro.wireless.topology import build_node_graph_from_udg

AP = 0
N_NODES = 500
REGION_M = 2000.0
RANGE_M = 300.0
HOT_POOL = 25
SMOKE_NODES = 60
#: Node counts of one Figure-3(a) sweep (the paper's 100..500 step 50).
FIG3_N = tuple(range(100, 501, 50))
SMOKE_FIG3_N = (100, 150)


@dataclass(frozen=True)
class Workload:
    """One traffic mix and its per-round schedule.

    ``rate``/``open_s`` describe the open-loop phase (Poisson arrivals,
    skipped when ``rate`` is 0), ``closed_s``/``connections`` the
    closed-loop phase. ``slo_ms`` is the latency limit of
    ``slo_attainment``. ``sweeps`` > 0 marks the in-child Figure-3 sweep:
    it runs back-to-back sweeps for ``closed_s``, at least ``sweeps``.
    """

    name: str
    why: str
    rate: float = 0.0
    open_s: float = 0.0
    closed_s: float = 0.0
    connections: int = 2
    slo_ms: float = 25.0
    durable: bool = False
    sweeps: int = 0

    @property
    def serving(self) -> bool:
        return self.sweeps == 0

    def phases(self, seconds: float | None) -> tuple[float, float]:
        """(open_s, closed_s) of one round, scaled to ``seconds`` total."""
        if seconds is None:
            return self.open_s, self.closed_s
        scale = seconds / (self.open_s + self.closed_s)
        return self.open_s * scale, self.closed_s * scale


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hot_ap",
            "steady access-point stream: 98% price from a 25-source hot "
            "pool, so the pair cache answers and client/http/io/service "
            "dominate",
            rate=150.0, open_s=10.0, closed_s=5.0, connections=2,
            slo_ms=25.0,
        ),
        Workload(
            "churn",
            "writes beside reads: 39% cost updates and 1% leave/rejoin on "
            "a WAL-backed engine load the write lock, fast-forward, repair "
            "and the WAL",
            rate=120.0, open_s=10.0, closed_s=5.0, connections=2,
            slo_ms=50.0, durable=True,
        ),
        Workload(
            "ap_batch",
            "Section III.G pricing: an update then price_many of every "
            "source to the AP, so batched SPT, Algorithm 1 and encoding "
            "dominate",
            closed_s=10.0, connections=1, slo_ms=2000.0,
        ),
        Workload(
            "fig3_sweep",
            "the paper's Figure 3(a) sweep in a child process: the link "
            "model (deployment, link SPT, removal distances) no serving "
            "workload runs",
            closed_s=10.0, slo_ms=1000.0, sweeps=3,
        ),
    )
}


def rng_for(seed: int, *keys: int | str) -> np.random.Generator:
    """An independent generator for ``(seed, *keys)``."""
    words = [int(seed) & 0xFFFFFFFF]
    for k in keys:
        words.append(zlib.crc32(k.encode()) if isinstance(k, str) else int(k))
    return np.random.default_rng(words)


@dataclass(frozen=True)
class Instance:
    """The serving instance: graph, hot source pool, and the sources
    that can reach the access point (the only ones the streams draw)."""

    graph: NodeWeightedGraph
    hot: tuple[int, ...]
    reachable: tuple[int, ...]


def _component_of(g: NodeWeightedGraph, root: int) -> list[int]:
    seen = np.zeros(g.n, dtype=bool)
    seen[root] = True
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.indices[g.indptr[u] : g.indptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(int(v))
        frontier = nxt
    return [int(v) for v in np.flatnonzero(seen)]


def make_instance(seed: int, n: int = N_NODES) -> Instance:
    """Uniform deployment around a central access point, UDG links,
    declared costs U(1, 10).

    The square shrinks with ``n`` so smaller smoke instances keep the
    500-node density. Costs stay continuous: exact cost ties would let
    the engine and the oracle legitimately pick different paths.
    """
    rng = rng_for(seed, "instance", n)
    side = REGION_M * math.sqrt(n / N_NODES)
    points = rng.uniform(0.0, side, size=(n, 2))
    # The access point sits at the centre: a corner AP would double
    # every route's length, so per-seed work would vary far more than
    # the noise the benchmark must resolve.
    points[AP] = side / 2.0
    costs = rng.uniform(1.0, 10.0, size=n)
    g = build_node_graph_from_udg(points, RANGE_M, costs)
    reachable = [v for v in _component_of(g, AP) if v != AP]
    hot = rng.choice(reachable, size=min(HOT_POOL, len(reachable)), replace=False)
    return Instance(g, tuple(int(v) for v in hot), tuple(reachable))


#: Op kinds per block of 100 ops. Each block is shuffled, so the mix is
#: exact over every 100 ops: a rare, costly kind (a leave/rejoin) would
#: otherwise vary in count enough to swing a short run's throughput.
MIX = {
    "hot_ap": {"cost": 2, "hot": 88, "uniform": 10},
    "churn": {"hot": 60, "cost": 39, "churn": 1},
    "ap_batch": {"batch": 100},
}


class OpStream:
    """The seeded op stream of one workload round.

    Ops are tuples: ``("price", s, t)``, ``("cost", node, value)``,
    ``("churn", node)`` (leave, then rejoin with the node's current
    neighbours) and ``("batch", node, value)`` (one cost update, then
    ``price_many`` of every reachable source to the AP). Only original
    non-hot, non-AP nodes leave, each at most once, so the stream is
    fixed by the seed whatever order concurrent updates land in.
    """

    def __init__(self, workload: Workload, inst: Instance, seed: int, rnd: int):
        self.inst = inst
        self.rng = rng_for(seed, workload.name, rnd)
        self._block = [k for k, n in MIX[workload.name].items() for _ in range(n)]
        self._kinds: list[str] = []
        hot = set(inst.hot)
        self._leavers = [v for v in inst.reachable if v not in hot]
        self._n0 = inst.graph.n

    def next_op(self) -> tuple:
        rng, inst = self.rng, self.inst
        if not self._kinds:
            self._kinds = list(rng.permutation(self._block))
        kind = self._kinds.pop()
        if kind == "hot":
            return ("price", inst.hot[int(rng.integers(len(inst.hot)))], AP)
        if kind == "uniform":
            return ("price", inst.reachable[int(rng.integers(len(inst.reachable)))], AP)
        if kind == "batch":
            return ("batch", int(rng.integers(1, self._n0)), float(rng.uniform(1, 10)))
        if kind == "churn" and self._leavers:
            return ("churn", self._leavers.pop(int(rng.integers(len(self._leavers)))))
        return ("cost", int(rng.integers(self._n0)), float(rng.uniform(1, 10)))

    def arrivals(self, rate: float, duration: float) -> list[tuple[float, tuple]]:
        """Poisson schedule: ``(offset_s, op)`` pairs within ``duration``."""
        out = []
        t = 0.0
        while True:
            t += float(self.rng.exponential(1.0 / rate))
            if t >= duration:
                return out
            out.append((t, self.next_op()))


class Mirror:
    """The generator's view of the live topology (for rejoin neighbours).

    Only the update path touches it, under the generator's update lock.
    """

    def __init__(self, g: NodeWeightedGraph):
        self.adj = [set(int(v) for v in g.neighbors(u)) for u in range(g.n)]
        self.costs = [float(c) for c in g.costs]

    def set_cost(self, node: int, value: float) -> None:
        self.costs[node] = value

    def leave(self, node: int) -> tuple[float, list[int]]:
        """Detach ``node``; returns its cost and former neighbours."""
        nbrs = sorted(self.adj[node])
        for v in nbrs:
            self.adj[v].discard(node)
        self.adj[node] = set()
        return self.costs[node], nbrs

    def join(self, cost: float, nbrs: list[int]) -> int:
        node = len(self.adj)
        self.adj.append(set(nbrs))
        self.costs.append(cost)
        for v in nbrs:
            self.adj[v].add(node)
        return node
