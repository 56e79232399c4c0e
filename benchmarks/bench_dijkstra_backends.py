"""Backend ablation: the heap Dijkstra against the vectorized solvers.

Node model: the pure-Python heap against the numpy frontier relaxation
(``relax_arcs``) on both sides of its hand-off — the 500-node service
deployment, which settles in a few rounds, and two deep graphs that pass
the Θ(√n) round bound and finish in one scipy Dijkstra: a 2000-hop path
and a 60x60 grid, the 2-D case the bound is sized for. Link
model: the heap against the compiled scipy backend. Each side re-checks
exact agreement on its instance.
"""

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph.dijkstra import link_weighted_spt, node_weighted_spt
from repro.graph.node_graph import NodeWeightedGraph
from repro.obs.metrics import REGISTRY
from repro.wireless.topology import build_node_graph_from_udg


@pytest.fixture(scope="module")
def udg_instance():
    """The service instance: 500 nodes in a 2000 m square, 300 m range,
    costs U(1, 10)."""
    rng = np.random.default_rng(2004)
    points = rng.uniform(0.0, 2000.0, size=(500, 2))
    return build_node_graph_from_udg(points, 300.0, rng.uniform(1.0, 10.0, 500))


@pytest.fixture(scope="module")
def deep_instance():
    """A 2000-node path: 2000 relaxation rounds' worth of depth."""
    n = 2000
    costs = np.random.default_rng(2004).uniform(1.0, 10.0, n)
    return NodeWeightedGraph(n, [(i, i + 1) for i in range(n - 1)], costs)


@pytest.fixture(scope="module")
def grid_instance():
    """A 60x60 grid rooted at a corner: 118 rounds against a bound of 68."""
    k = 60
    edges = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    edges += [(r * k + c, (r + 1) * k + c) for r in range(k - 1) for c in range(k)]
    costs = np.random.default_rng(2004).uniform(1.0, 10.0, k * k)
    return NodeWeightedGraph(k * k, edges, costs)


@pytest.fixture(scope="module")
def link_instance():
    return gen.random_robust_digraph(400, extra_arc_prob=0.02, seed=321)


def _handoffs(g, backend):
    """Hand-offs one build from node 0 makes (0 for the heap); the
    registry is on in every bench (``conftest.bench_metrics``)."""
    before = REGISTRY.snapshot().counters.get("dijkstra.handoffs", 0)
    node_weighted_spt(g, 0, backend=backend)
    return REGISTRY.snapshot().counters.get("dijkstra.handoffs", 0) - before


@pytest.mark.parametrize("backend", ["python", "auto"])
def test_node_spt_udg(benchmark, udg_instance, backend):
    spt = benchmark(lambda: node_weighted_spt(udg_instance, 0, backend=backend))
    assert np.isfinite(spt.dist).all()
    assert _handoffs(udg_instance, backend) == 0


@pytest.mark.parametrize("backend", ["python", "auto"])
def test_node_spt_deep(benchmark, deep_instance, backend):
    spt = benchmark(lambda: node_weighted_spt(deep_instance, 0, backend=backend))
    assert np.isfinite(spt.dist).all()
    assert _handoffs(deep_instance, backend) == (backend == "auto")


@pytest.mark.parametrize("backend", ["python", "auto"])
def test_node_spt_grid(benchmark, grid_instance, backend):
    spt = benchmark(lambda: node_weighted_spt(grid_instance, 0, backend=backend))
    assert np.isfinite(spt.dist).all()
    assert _handoffs(grid_instance, backend) == (backend == "auto")


def test_link_spt_python(benchmark, link_instance):
    spt = benchmark(
        lambda: link_weighted_spt(link_instance, 0, direction="to", backend="python")
    )
    assert np.isfinite(spt.dist).all()


def test_link_spt_scipy(benchmark, link_instance):
    spt = benchmark(
        lambda: link_weighted_spt(link_instance, 0, direction="to", backend="scipy")
    )
    assert np.isfinite(spt.dist).all()


def test_backends_agree_on_bench_instances(
    benchmark, udg_instance, deep_instance, grid_instance, link_instance
):
    a = benchmark.pedantic(
        lambda: node_weighted_spt(udg_instance, 0, backend="python"),
        rounds=1,
        iterations=1,
    )
    deep = node_weighted_spt(deep_instance, 0, backend="python")
    grid = node_weighted_spt(grid_instance, 0, backend="python")
    for g, heap in ((udg_instance, a), (deep_instance, deep), (grid_instance, grid)):
        vec = node_weighted_spt(g, 0)
        assert vec.dist.tobytes() == heap.dist.tobytes()
        assert np.array_equal(vec.parent, heap.parent)
    c = link_weighted_spt(link_instance, 0, direction="to", backend="python")
    d = link_weighted_spt(link_instance, 0, direction="to", backend="scipy")
    assert np.allclose(c.dist, d.dist)
