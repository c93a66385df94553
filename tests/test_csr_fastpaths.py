"""Randomized cross-checks: CSR fast paths == GraphLike reference.

The ``FaultView`` + generic-loop implementations are the reference; the
CSR array kernels must agree with them *exactly* on every graph and
fault set.  Hypothesis drives random connected graphs and random fault
choices through both code paths.
"""

from __future__ import annotations

import random
from array import array

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.weights import AntisymmetricWeights
from repro.graphs.base import Graph
from repro.spt.bfs import bfs_distances, bfs_layers, bfs_tree, hop_distance
from repro.spt.dijkstra import count_min_weight_paths, dijkstra

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# For suites parametrised over the session-global `backend` fixture:
# the pin is idempotent across hypothesis examples, so the
# function-scoped-fixture health check is a false positive here.
BACKEND_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)


def is_hop_row(row):
    """Every hop kernel returns its rows as ``array('i')``."""
    return isinstance(row, array) and row.typecode == "i"


@st.composite
def graphs_with_faults(draw, min_n=3, max_n=16, max_faults=3):
    """(graph, fault set) — faults drawn from edges plus a few non-edges."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    g = Graph(n)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        g.add_edge(order[i], order[rng.randrange(i)])
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    edges = list(g.edges())
    k = draw(st.integers(0, min(max_faults, len(edges))))
    faults = rng.sample(edges, k)
    if draw(st.booleans()) and n >= 2:
        faults.append((0, n - 1) if n > 2 else (0, 1))  # maybe absent
    return g, faults


@given(graphs_with_faults())
@settings(max_examples=120, **BACKEND_COMMON)
def test_bfs_distances_bit_identical(backend, case):
    g, faults = case
    ref_view = g.without(faults)
    fast_view = g.csr().without(faults)
    for s in g.vertices():
        fast, ref = bfs_distances(fast_view, s), bfs_distances(ref_view, s)
        assert is_hop_row(fast) and is_hop_row(ref)
        assert fast == ref
    assert bfs_distances(g.csr(), 0) == bfs_distances(g, 0)


@given(graphs_with_faults())
@settings(max_examples=100, **COMMON)
def test_bfs_tree_bit_identical(case):
    g, faults = case
    ref_view = g.without(faults)
    fast_view = g.csr().without(faults)
    for s in range(min(g.n, 5)):
        assert bfs_tree(fast_view, s) == bfs_tree(ref_view, s)


@given(graphs_with_faults())
@settings(max_examples=100, **COMMON)
def test_hop_distance_bit_identical(case):
    g, faults = case
    ref_view = g.without(faults)
    fast_view = g.csr().without(faults)
    pairs = [(0, g.n - 1), (g.n - 1, 0), (0, 0), (1 % g.n, g.n // 2)]
    for s, t in pairs:
        assert (hop_distance(fast_view, s, t)
                == hop_distance(ref_view, s, t))


@given(graphs_with_faults())
@settings(max_examples=60, **COMMON)
def test_bfs_layers_bit_identical(case):
    g, faults = case
    assert (bfs_layers(g.csr().without(faults), 0)
            == bfs_layers(g.without(faults), 0))


@given(graphs_with_faults(max_faults=1))
@settings(max_examples=60, **BACKEND_COMMON)
def test_dijkstra_bit_identical_under_unique_weights(backend, case):
    """Distances always agree; parents too, given unique shortest paths."""
    g, faults = case
    atw = AntisymmetricWeights.random(g, f=1, seed=11)
    ref_view = g.without(faults)
    fast_view = g.csr().without(faults)
    for s in range(min(g.n, 4)):
        ref_dist, ref_parent = dijkstra(ref_view, s, atw.weight)
        fast_dist, fast_parent = dijkstra(fast_view, s, atw.weight)
        assert fast_dist == ref_dist
        assert fast_parent == ref_parent


@given(graphs_with_faults(max_faults=0))
@settings(max_examples=40, **COMMON)
def test_dijkstra_targets_early_exit(case):
    g, _ = case
    atw = AntisymmetricWeights.random(g, f=1, seed=5)
    targets = {g.n - 1}
    ref_dist, _ = dijkstra(g, 0, atw.weight, targets=targets)
    fast_dist, _ = dijkstra(g.csr(), 0, atw.weight, targets=targets)
    assert fast_dist.get(g.n - 1) == ref_dist.get(g.n - 1)


@given(graphs_with_faults(max_faults=0))
@settings(max_examples=40, **COMMON)
def test_count_min_weight_paths_unique_on_csr(case):
    """The tiebreaking-uniqueness certificate holds on the fast path too."""
    g, _ = case
    atw = AntisymmetricWeights.random(g, f=1, seed=3)
    counts = count_min_weight_paths(g.csr(), 0, atw.weight)
    assert all(c == 1 for c in counts.values())
