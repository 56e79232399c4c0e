"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.graph import generators as gen
from repro.graph.link_graph import LinkWeightedDigraph
from repro.graph.node_graph import NodeWeightedGraph

# One shared profile: property tests run fast in CI but still explore.
settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_graph() -> NodeWeightedGraph:
    """A fixed 6-node biconnected graph with hand-checkable numbers.

        0 -- 1 -- 2
        |         |
        5 -- 4 -- 3          costs: [0, 1, 2, 3, 4, 5]
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    return NodeWeightedGraph(6, edges, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])


@pytest.fixture
def random_graph() -> NodeWeightedGraph:
    return gen.random_biconnected_graph(24, extra_edge_prob=0.2, seed=7)


@pytest.fixture
def random_digraph() -> LinkWeightedDigraph:
    return gen.random_robust_digraph(24, extra_arc_prob=0.2, seed=7)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def biconnected_graphs(
    draw,
    min_nodes: int = 4,
    max_nodes: int = 24,
    cost_low: float = 0.5,
    cost_high: float = 20.0,
):
    """Random biconnected node-weighted graphs with continuous costs."""
    n = draw(st.integers(min_nodes, max_nodes))
    p = draw(st.floats(0.0, 0.6))
    seed = draw(st.integers(0, 2**31 - 1))
    return gen.random_biconnected_graph(
        n, extra_edge_prob=p, cost_low=cost_low, cost_high=cost_high, seed=seed
    )


@st.composite
def robust_digraphs(
    draw,
    min_nodes: int = 4,
    max_nodes: int = 20,
):
    """Random single-failure-robust link-weighted digraphs."""
    n = draw(st.integers(min_nodes, max_nodes))
    p = draw(st.floats(0.0, 0.5))
    seed = draw(st.integers(0, 2**31 - 1))
    return gen.random_robust_digraph(n, extra_arc_prob=p, seed=seed)


@st.composite
def graph_with_endpoints(draw, **kwargs):
    """(graph, source, target) with distinct random endpoints."""
    g = draw(biconnected_graphs(**kwargs))
    source = draw(st.integers(0, g.n - 1))
    target = draw(st.integers(0, g.n - 1).filter(lambda t: t != source))
    return g, source, target


@st.composite
def digraph_with_endpoints(draw, **kwargs):
    g = draw(robust_digraphs(**kwargs))
    source = draw(st.integers(0, g.n - 1))
    target = draw(st.integers(0, g.n - 1).filter(lambda t: t != source))
    return g, source, target


# ---------------------------------------------------------------------------
# Deep graphs: hop depth far above Θ(√n), so relaxation solves hand off
# ---------------------------------------------------------------------------


def _grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c)
              for r in range(rows - 1) for c in range(cols)]
    return edges


def deep_graphs(seed: int = 0, zero_frac: float = 0.0) -> dict:
    """Connected node-weighted graphs whose shortest paths run for
    hundreds of hops: ``{name: graph}``.

    * ``path``: a 300-node path;
    * ``ladder``: two 150-node rails joined by rungs;
    * ``grid``: an 18 x 18 grid whose odd rows are walls (cost 1000)
      with one gap at alternating ends, so cheap paths snake row by row;
    * ``lollipop``: ``t - r - s`` with a 200-node chain from ``r`` back
      to ``s`` and an expensive detour ``x`` from the chain's head to
      ``t``: ``r``'s Algorithm-1 region is the whole chain, seeded at
      its far end.

    Costs are uniform in [1, 10), with a ``zero_frac`` share set to 0.
    """
    rng = np.random.default_rng(seed)

    def costs(n):
        c = rng.uniform(1.0, 10.0, size=n)
        c[rng.random(n) < zero_frac] = 0.0
        return c

    graphs = {}
    n = 300
    graphs["path"] = NodeWeightedGraph(
        n, [(i, i + 1) for i in range(n - 1)], costs(n)
    )
    half = 150
    rails = [(i, i + 1) for i in range(half - 1)]
    rails += [(half + i, half + i + 1) for i in range(half - 1)]
    rungs = [(i, half + i) for i in range(0, half, 3)]
    graphs["ladder"] = NodeWeightedGraph(2 * half, rails + rungs, costs(2 * half))
    side = 18
    c = costs(side * side)
    for r in range(1, side, 2):
        gap = side - 1 if r % 4 == 1 else 0
        for col in range(side):
            if col != gap:
                c[r * side + col] = 1000.0
    graphs["grid"] = NodeWeightedGraph(side * side, _grid_edges(side, side), c)
    chain = 200
    # t = 0, r = 1, s = 2, chain 3 .. chain + 2, detour x = chain + 3.
    x = chain + 3
    edges = [(0, 1), (1, 2), (1, 3), (chain + 2, 2), (3, x), (x, 0)]
    edges += [(3 + i, 4 + i) for i in range(chain - 1)]
    c = costs(chain + 4)
    c[2] = c[x] = 1e4
    graphs["lollipop"] = NodeWeightedGraph(chain + 4, edges, c)
    return graphs


class count_handoffs:
    """Context manager: ``with count_handoffs() as seen: ...`` leaves the
    number of relaxation solves that handed off to scipy in
    ``seen.count``. Enables the metrics registry for the block."""

    def __enter__(self):
        from repro.obs.metrics import REGISTRY

        REGISTRY.reset()
        REGISTRY.enable()
        self.count = 0
        return self

    def __exit__(self, *exc):
        from repro.obs.metrics import REGISTRY

        try:
            self.count = REGISTRY.snapshot().counters.get("dijkstra.handoffs", 0)
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        return False
