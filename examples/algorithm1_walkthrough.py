#!/usr/bin/env python
"""Inside Algorithm 1: a step-by-step walkthrough on a small network.

Section III.B's fast payment computation is the paper's most technical
contribution. This example runs it on a graph small enough to print
everything — the shortest path trees, the level assignment (step 2), the
per-level region candidates (steps 3-4), the crossing edges (step 5) and
the resulting payments (step 6) — then confirms against the one-removal-
per-relay naive method.

Run:  python examples/algorithm1_walkthrough.py
"""

import numpy as np

from repro.core.fast_payment import fast_vcg_payments
from repro.core.vcg_unicast import vcg_unicast_payments
from repro.graph.dijkstra import node_weighted_spt
from repro.graph.node_graph import NodeWeightedGraph
from repro.utils.tables import ascii_table


def build_instance() -> tuple[NodeWeightedGraph, int, int]:
    """A 10-node instance with a 4-hop LCP and interesting detours.

        0 --- 1 --- 2 --- 3 --- 4      the cheap spine (costs 1..2)
        |    /|     |     |    /|
        5 --- 6 --- 7 --- 8 --- 9      a pricier parallel street
    """
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4),          # spine
        (5, 6), (6, 7), (7, 8), (8, 9),          # street
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),  # rungs
        (1, 5), (4, 8),                          # diagonals
    ]
    costs = [0.0, 1.0, 2.0, 1.5, 0.0, 4.0, 3.0, 5.0, 3.5, 4.5]
    return NodeWeightedGraph(10, edges, costs), 0, 4


def main() -> None:
    g, source, target = build_instance()
    result = fast_vcg_payments(g, source, target)
    path = result.path
    s = len(path) - 1
    print(f"request: {source} -> {target}")
    print(f"LCP P = {' -> '.join(map(str, path))}   (cost {result.lcp_cost})\n")

    # Step 1: the two SPTs.
    spt_i = node_weighted_spt(g, source, backend="python")
    spt_j = node_weighted_spt(g, target, backend="python")
    print("step 1 — shortest path trees:")
    print(
        ascii_table(
            ["node", "L(v) = dist from source", "R(v) = dist to target"],
            [[v, spt_i.dist[v], spt_j.dist[v]] for v in range(g.n)],
        )
    )

    # Step 2: levels.
    # The library reads the LCP from SPT(target) and runs the steps
    # rooted there; ``levels`` is re-indexed from the source.
    print("\nstep 2 — levels (the path node where the SPT(target) path joins P):")
    levels = result.levels
    by_level: dict[int, list[int]] = {}
    for v in range(g.n):
        by_level.setdefault(int(levels[v]), []).append(v)
    for l in sorted(by_level):
        marker = f" (removal of r_{l} = node {path[l]})" if 1 <= l <= s - 1 else ""
        print(f"  level {l}: nodes {by_level[l]}{marker}")

    # Steps 3-5 happen inside; show their product: the avoiding costs.
    print("\nsteps 3-5 — v_k-avoiding path costs (region + crossing-edge sweep):")
    rows = []
    for l in range(1, s):
        r_l = path[l]
        rows.append(
            [
                f"r_{l} = {r_l}",
                result.avoiding_costs[r_l],
                result.avoiding_costs[r_l] - result.lcp_cost,
            ]
        )
    print(ascii_table(["removed relay", "||P_-k||", "detour gap"], rows))
    print(f"  bookkeeping: {result.stats}")

    # Step 6: payments, checked against the naive oracle.
    print("\nstep 6 — payments p^k = ||P_-k|| - ||P|| + d_k:")
    naive = vcg_unicast_payments(g, source, target, method="naive")
    rows = []
    for k in result.path[1:-1]:
        rows.append(
            [k, g.costs[k], result.payments[k], naive.payment(k)]
        )
    print(
        ascii_table(
            ["relay", "declared cost", "fast payment", "naive payment"], rows
        )
    )
    agree = all(
        abs(result.payments[k] - naive.payment(k)) < 1e-9
        for k in result.path[1:-1]
    )
    print(f"\nfast == naive: {agree}")
    assert agree


if __name__ == "__main__":
    main()
