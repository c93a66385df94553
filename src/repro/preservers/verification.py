"""Brute-force verification of the preserver property (Definition 4).

A subgraph ``H ⊆ G`` is an ``S x T`` f-FT preserver when
``dist_{H \\ F}(s, t) = dist_{G \\ F}(s, t)`` for all ``s ∈ S``,
``t ∈ T`` and ``|F| <= f``.  These checkers decide that *exactly* by
enumerating (or sampling) fault sets and comparing BFS distances in
``H \\ F`` against ``G \\ F`` — the ground truth every preserver test
and benchmark leans on.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import GraphError
from repro.graphs.base import Edge, Graph
from repro.scenarios.engine import ScenarioEngine


def _endpoints(label: str, edges: Iterable[Edge]) -> Iterator[int]:
    """Both endpoints of every edge; a non-pair raises GraphError."""
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise GraphError(f"malformed {label} {edge!r}") from None
        yield u
        yield v


def preserver_violations(
    graph: Graph,
    preserver_edges: Iterable[Edge],
    sources: Iterable[int],
    targets: Optional[Iterable[int]] = None,
    f: int = 1,
    fault_sets: Optional[Iterable[Sequence[Edge]]] = None,
) -> List[Tuple]:
    """All ``(F, s, t)`` where the subgraph loses a distance.

    Parameters
    ----------
    graph:
        The ground-truth graph ``G``.
    preserver_edges:
        The candidate preserver ``H`` as an edge set.
    sources, targets:
        ``S`` and ``T`` (``T`` defaults to ``S``, the subset setting;
        pass ``graph.vertices()`` for the ``S x V`` setting).
    f:
        Enumerate all fault sets of size ``<= f`` (ignored when
        ``fault_sets`` is given).
    fault_sets:
        Explicit fault universe for sampled verification on larger
        graphs (see :func:`repro.graphs.generators.fault_sample`).
        A fault edge between two vertices of ``G`` that is not an
        edge of ``G`` removes nothing.

    Returns
    -------
    list of ``(faults, s, t, dist_G, dist_H)`` tuples; empty = verified.
    ``faults`` is reported as a canonical tuple (each edge sorted, the
    set sorted and deduplicated), regardless of the orientation/order
    it was supplied in.

    Raises
    ------
    GraphError
        Before any sweep, naming the vertex, when a source, a target,
        an endpoint of a preserver edge or an endpoint of an explicit
        fault edge is not a vertex of ``G`` (or an edge is not a
        pair).
    """
    # One batched engine sweep: a CSR snapshot per graph (G and H), a
    # reusable O(|F|) scratch mask per scenario, and one bit-packed
    # multi-source BFS wave per (scenario, graph) serving the whole
    # source set.  Enumeration order is unchanged.
    engine = ScenarioEngine(graph)
    has_vertex = engine.csr.has_vertex
    edges = list(preserver_edges)
    source_list = list(sources)
    target_list = None if targets is None else list(targets)
    checks = [("source", source_list), ("target", target_list or ()),
              ("preserver edge", _endpoints("preserver edge", edges))]
    universe: Iterable[Sequence[Edge]]
    if fault_sets is None:
        graph_edges = list(graph.edges())
        universe = itertools.chain.from_iterable(
            itertools.combinations(graph_edges, size)
            for size in range(f + 1)
        )
    else:
        universe = [tuple(fs) for fs in fault_sets]
        checks.append(("fault edge", _endpoints(
            "fault edge", (e for fs in universe for e in fs))))
    for label, vertices in checks:
        for v in vertices:
            if not has_vertex(v):
                raise GraphError(f"unknown {label} vertex {v}")
    return engine.preserver_violations(edges, source_list, universe,
                                       target_list)


def verify_preserver(graph: Graph, preserver_edges: Iterable[Edge],
                     sources: Iterable[int], **kwargs) -> bool:
    """True when :func:`preserver_violations` finds nothing."""
    return not preserver_violations(graph, preserver_edges, sources, **kwargs)
