"""The sourcewise setting (Chechik–Cohen): ``{s} x V`` replacement paths.

Section 1.1 recounts the sourcewise problem: report
``dist_{G \\ e}(s, v)`` for every vertex ``v`` and every edge ``e`` on
the selected ``s ~> v`` path.  This module answers it with the
library's machinery: one BFS per *selected tree edge*, optionally run
inside the 1-FT ``{s} x V`` preserver (correct by Definition 4, and on
dense graphs far fewer edges than ``G``).  The output format matches
:func:`repro.replacement.baselines.naive_sourcewise_replacement_distances`
so the test-suite can diff them entry by entry.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.graphs.base import Edge, Graph
from repro.core.scheme import RestorableTiebreaking
from repro.oracles.dso import SourcewiseDSO


def sourcewise_replacement_distances(
    graph: Graph,
    source: int,
    scheme: Optional[RestorableTiebreaking] = None,
    use_preserver: bool = True,
    seed: int = 0,
) -> Dict[Tuple[int, Edge], int]:
    """``{(v, e): dist_{G \\ e}(source, v)}`` for all selected-path faults.

    Parameters
    ----------
    graph:
        Undirected unweighted input.
    source:
        The single source ``s``.
    scheme:
        Optional prebuilt restorable scheme (shared across calls).
    use_preserver:
        Run the per-fault BFS inside the 1-FT ``{s} x V`` preserver
        (default) rather than the full graph.
    seed:
        Seed for a fresh scheme.
    """
    oracle = SourcewiseDSO(
        graph, [source], scheme=scheme,
        use_preserver=use_preserver, seed=seed,
    )
    if scheme is None:
        scheme = oracle.scheme  # reuse the one the oracle built
    tree = scheme.tree(source)
    out: Dict[Tuple[int, Edge], int] = {}
    for v in tree.reached_vertices():
        if v == source:
            continue
        path = tree.path_to(v)
        for e in path.edges():
            out[(v, e)] = oracle.query(source, v, e)
    return out
