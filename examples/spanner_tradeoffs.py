#!/usr/bin/env python3
"""Size/stretch trade-offs for fault-tolerant +4 spanners (Theorem 33).

Sweeps the cluster-center count σ of the Lemma-32 construction on a
dense graph and reports the size decomposition (clustering edges vs
C x C preserver edges) together with the worst additive stretch
observed under sampled single faults — illustrating why Theorem 33's
balance σ = n^{1/(2^f + 1)} is the sweet spot.

Run:  python examples/spanner_tradeoffs.py
"""

from repro.analysis.experiments import format_table
from repro.graphs import generators
from repro.spanners import ft_plus4_spanner
from repro.spanners.additive import default_sigma
from repro.spt.bfs import UNREACHABLE, bfs_distances
from repro.graphs.base import Graph


def worst_stretch(graph, edges, fault_sets) -> int:
    sub = Graph(graph.n)
    for u, v in edges:
        sub.add_edge(u, v)
    worst = 0
    for faults in fault_sets:
        g_view = graph.without(faults)
        h_view = sub.without(faults)
        for s in range(0, graph.n, 4):
            dg = bfs_distances(g_view, s)
            dh = bfs_distances(h_view, s)
            for t in range(graph.n):
                if t == s or dg[t] == UNREACHABLE:
                    continue
                worst = max(worst, dh[t] - dg[t])
    return worst


def main() -> None:
    n = 60
    graph = generators.connected_erdos_renyi(n, 0.35, seed=33)
    print(f"dense input: n={n}, m={graph.m}")
    balanced = default_sigma(n, 0)
    print(f"Theorem 33 balance for 1-FT: sigma = sqrt(n) ~ {balanced}\n")

    fault_sets = generators.fault_sample(graph, 12, seed=2, size=1)
    rows = []
    for sigma in (2, balanced // 2, balanced, 2 * balanced, 4 * balanced):
        spanner = ft_plus4_spanner(
            graph, faults_tolerated=1, sigma=sigma, seed=5
        )
        rows.append({
            "sigma": sigma,
            "spanner_edges": spanner.size,
            "preserver_part": spanner.preserver_size,
            "clustered": len(spanner.clustered),
            "worst_stretch": worst_stretch(
                graph, spanner.edges, fault_sets
            ),
        })

    print(format_table(
        rows,
        title="1-FT +4 spanner: size decomposition vs sigma "
              "(stretch must stay <= 4)",
    ))
    print(
        "\nsmall sigma: few vertices cluster, the 'keep all incident "
        "edges' term dominates;\nlarge sigma: the C x C preserver "
        "grows as sigma * n.  The balance minimises the sum."
    )
    assert all(r["worst_stretch"] <= 4 for r in rows)


if __name__ == "__main__":
    main()
