"""Section III.C claims: distributed convergence and message costs.

The paper: "the price entries decrease monotonically and converge to
stable values after finite number of rounds (at most n rounds)". The
bench measures rounds and transmissions as n grows and checks every
source's converged payments against the centralized all-sources batch.
"""

import pytest

from repro.core.all_sources import price_sources
from repro.distributed.payment_protocol import run_distributed_payments
from repro.graph import generators as gen

from conftest import emit


@pytest.mark.parametrize("n", [20, 50])
def test_distributed_round_speed(benchmark, n):
    g = gen.random_biconnected_graph(n, extra_edge_prob=4.0 / n, seed=77)
    result = benchmark.pedantic(
        lambda: run_distributed_payments(g, root=0), rounds=1, iterations=1
    )
    assert result.stats.converged


def test_convergence_scaling(benchmark, scale):
    sizes = (20, 40, 80) if not scale.full else (20, 40, 80, 160, 320)
    rows = []
    benchmark.pedantic(
        lambda: run_distributed_payments(
            gen.random_biconnected_graph(sizes[-1], extra_edge_prob=4.0 / sizes[-1], seed=13),
            root=0,
        ),
        rounds=1,
        iterations=1,
    )
    for n in sizes:
        g = gen.random_biconnected_graph(n, extra_edge_prob=4.0 / n, seed=13)
        res = run_distributed_payments(g, root=0)
        assert res.stats.converged
        # paper bound: at most n rounds (+ slack for challenge round trips)
        assert res.stats.rounds <= n + 5
        rows.append(
            (n, res.stats.rounds, res.stats.broadcasts, res.stats.unicasts)
        )
        # every source's converged payments equal the centralized
        # all-sources batch, which computes the same III.C fixed point
        cent = price_sources(g, 0, range(1, n), on_monopoly="inf")
        for i, p in cent.items():
            for k in p.relays:
                assert res.payment(i, k) == pytest.approx(p.payment(k), abs=1e-7)
    emit(
        "distributed two-stage protocol\n"
        + "\n".join(
            f"  n={n:4d} rounds={r:3d} broadcasts={b:6d} unicasts={u:5d}"
            for n, r, b, u in rows
        )
    )
    # rounds grow sub-linearly in n on expander-ish random topologies
    assert rows[-1][1] <= rows[-1][0]


def test_rounds_track_diameter(benchmark, scale):
    """Section III.C / [15]: convergence time is governed by the network
    diameter, not the node count — wide flat networks converge as fast as
    small ones, long thin ones take proportionally longer."""
    from repro.graph.connectivity import hop_diameter
    from repro.graph.node_graph import NodeWeightedGraph
    from repro.utils.rng import as_rng

    def ring_with_chords(n, chords, seed):
        rng = as_rng(seed)
        edges = [(i, (i + 1) % n) for i in range(n)]
        for _ in range(chords):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.append((int(u), int(v)))
        return NodeWeightedGraph(n, edges, rng.uniform(1, 10, size=n))

    def run():
        rows = []
        for n, chords in ((24, 40), (48, 6), (96, 0)):
            g = ring_with_chords(n, chords, seed=31)
            diam = hop_diameter(g)
            res = run_distributed_payments(g, root=0)
            assert res.stats.converged
            rows.append((n, diam, res.stats.rounds))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "convergence rounds vs hop diameter\n"
        + "\n".join(
            f"  n={n:3d} diameter={d:3d} rounds={r:3d}" for n, d, r in rows
        )
    )
    # rounds grow with diameter ...
    diams = [d for _, d, _ in rows]
    rounds = [r for _, _, r in rows]
    assert diams == sorted(diams)
    assert rounds == sorted(rounds)
    # ... and stay within a small constant of it (info moves 1 hop/round;
    # stage 2 needs a couple of extra sweeps for the avoiding paths)
    for _, d, r in rows:
        assert r <= 3 * d + 10
