"""Scalar-only groups: eccentricity and connectivity from wave reductions.

A group of eccentricity and connectivity queries alone reads no row
slot, so the planner asks the wave (and the delta path) for each
source's eccentricity instead of its row, and no row enters the
engine's LRU.  Hypothesis drives generated graphs and gather streams
through every path — cache, delta and wave, on both backends, with
delta on and off — and checks each scalar answer against a BFS over
the ``FaultView`` ``G \\ F``.  Fault sets mix disconnecting tree
edges, duplicated edges (in both orientations) and non-edges.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.graphs.base import Graph
from repro.query import (
    ConnectivityQuery,
    DistanceQuery,
    EccentricityQuery,
    Session,
    VectorQuery,
)
from repro.spt.bfs import UNREACHABLE, bfs_distances

BACKEND_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)

_SCALAR = (EccentricityQuery, ConnectivityQuery)


def oracle_eccentricity(g, source, faults):
    dist = bfs_distances(g.without(faults), source)
    return UNREACHABLE if UNREACHABLE in dist else max(dist)


def check_against_oracle(g, query, value):
    view = g.without(query.faults)
    if isinstance(query, EccentricityQuery):
        assert value == oracle_eccentricity(g, query.source, query.faults)
    elif isinstance(query, ConnectivityQuery):
        assert value == view.is_connected()
    elif isinstance(query, DistanceQuery):
        assert value == bfs_distances(view, query.source)[query.target]
    else:
        assert list(value) == list(bfs_distances(view, query.source))


@st.composite
def scalar_streams(draw):
    """(graph, gathers): each gather mixes 1-3 fault sets, and each
    fault set's group is scalar-only or carries row queries too."""
    n = draw(st.integers(1, 14))
    rng = random.Random(draw(st.integers(0, 2**16)))
    g = Graph(n)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        g.add_edge(order[i], order[rng.randrange(i)])
    for _ in range(draw(st.integers(0, n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    edges = sorted(g.edges())
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if not g.has_edge(u, v)]

    def fault_set():
        faults = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["edge", "duplicate", "non-edge"]))
            if kind == "non-edge" and non_edges:
                faults.append(rng.choice(non_edges))
            elif edges:
                u, v = rng.choice(edges)
                faults.append((u, v))
                if kind == "duplicate":
                    faults.append((v, u))
        return tuple(faults)

    pool = [fault_set() for _ in range(draw(st.integers(1, 3)))]
    gathers = []
    for _ in range(draw(st.integers(1, 4))):
        queries = []
        for faults in rng.sample(pool, rng.randint(1, len(pool))):
            sources = [rng.randrange(n)
                       for _ in range(draw(st.integers(1, 4)))]
            queries.extend(EccentricityQuery(s, faults) for s in sources)
            if draw(st.booleans()):
                queries.append(ConnectivityQuery(faults))
            if draw(st.booleans()):  # a row query joins the group
                s, t = rng.randrange(n), rng.randrange(n)
                queries.append(draw(st.sampled_from([
                    DistanceQuery(s, t, faults), VectorQuery(s, faults),
                ])))
        gathers.append(queries)
    return g, gathers


@pytest.mark.parametrize("delta", [True, False], ids=["delta", "no-delta"])
@given(case=scalar_streams())
@settings(max_examples=60, **BACKEND_COMMON)
def test_scalar_answers_match_the_oracle(backend, delta, case):
    g, gathers = case
    session = Session(g, delta=delta)
    for queries in gathers:
        scalar_only = all(isinstance(q, _SCALAR) for q in queries)
        before = session.cache_info().size
        for q, answer in zip(queries, session.answer(queries)):
            check_against_oracle(g, q, answer.value)
        if scalar_only:
            assert session.cache_info().size == before


@pytest.mark.parametrize("delta", [True, False], ids=["delta", "no-delta"])
@given(case=scalar_streams())
@settings(max_examples=40, **BACKEND_COMMON)
def test_a_scalar_gather_keeps_no_row_for_a_later_distance(
        backend, delta, case):
    g, gathers = case
    faults = gathers[0][0].faults
    # The fault-free rows live in the engine's base cache, not the LRU.
    assume(faults)
    session = Session(g, delta=delta)
    if delta:
        for s in range(g.n):  # warm every origin past the cold decline
            session.engine.base_tree_index(s)
    scalar = [EccentricityQuery(s, faults) for s in range(g.n)]
    scalar.append(ConnectivityQuery(faults))
    for q, answer in zip(scalar, session.answer(scalar)):
        check_against_oracle(g, q, answer.value)
        assert answer.provenance.source in ("delta", "wave")
    assert session.cache_info().size == 0
    # One gather, so no pair can ride a row another pair just cached.
    pairs = [DistanceQuery(s, g.n - 1 - s, faults) for s in range(g.n)]
    for q, answer in zip(pairs, session.answer(pairs)):
        check_against_oracle(g, q, answer.value)
        assert answer.provenance.source != "cache"


def test_scalar_groups_are_planned_from_their_kinds():
    g = Graph(3, [(0, 1), (1, 2)])
    F, G = ((0, 1),), ((1, 2),)
    plan = Session(g).planner.plan([
        EccentricityQuery(0, F), ConnectivityQuery(F),
        EccentricityQuery(1, G), DistanceQuery(1, 2, G),
    ])
    assert [group.scalar for group in plan.groups] == [True, False]
