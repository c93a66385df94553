#!/usr/bin/env python3
"""Weighted fault scenarios: Theorem 11's setting at stream scale.

The weighted twin of ``batch_scenarios.py``: one weighted base network
(think link latencies), a stream of fault sets, and per-scenario
questions answered by the weighted :class:`ScenarioEngine` — exact
weighted distances over a weight-carrying CSR snapshot, a weighted
touch filter (``d_s(u) + w(u, v) + d_t(v) == d_s(t)``), and a row
cache that answers repeated fault sets.  Restoration goes through the
middle-edge sweep of the weighted restoration lemma (Theorem 11),
sharing one engine so the perturbed shortest-path trees are built once
for the whole stream.

Run:  PYTHONPATH=src python examples/weighted_scenarios.py
"""

from repro.analysis.experiments import format_table, timed
from repro.query import ConnectivityQuery, DistanceQuery, Session
from repro.scenarios import random_fault_sets, single_edge_faults
from repro.spt.bfs import UNREACHABLE
from repro.weighted import WeightedGraph, restore_via_middle_edge


def main() -> None:
    # A sparse weighted network: weights are link latencies, so a
    # fault can degrade a route without disconnecting it.
    wg = WeightedGraph.random(150, 1.8 / 150, max_weight=20, seed=5)
    print(f"network: weighted sparse ER, n={wg.n}, m={wg.m}, "
          f"total weight {wg.total_weight()}")

    # The session builds (and owns) the weighted scenario engine; the
    # restoration sweep below shares it via session.engine.
    session = Session(wg)
    engine = session.engine
    s = 0
    dist_from_s = engine.base_distances(s)
    t = max(range(wg.n),  # monitored pair: farthest from s
            key=dist_from_s.__getitem__)
    base = dist_from_s[t]
    print(f"monitored pair ({s}, {t}): base weighted distance {base}")

    # Scenario universe: every single fault, plus sampled double faults
    # *with repeats* — the row cache's bread and butter.
    scenarios = list(single_edge_faults(wg))
    scenarios += random_fault_sets(wg, 2, 150, seed=7) * 2
    print(f"scenario stream: {len(scenarios)} fault sets "
          f"(double faults sampled twice each)")

    # --- batched weighted replacement distances -----------------------
    answers, secs = timed(
        session.answer, [DistanceQuery(s, t, f) for f in scenarios]
    )
    dists = [a.value for a in answers]
    degraded = sum(1 for d in dists if d != base)
    cut = sum(1 for d in dists if d == UNREACHABLE)
    info = session.cache_info()  # a frozen CacheInfo dataclass (PR 4)
    print(
        f"\nreplacement distances: {secs * 1e3:.1f} ms for the stream; "
        f"{degraded} scenarios degrade the route, {cut} cut it"
    )
    print(f"  row cache: {info.vector_hits} hits / "
          f"{info.vector_misses} misses ({info.size} rows)")

    # --- batched connectivity -----------------------------------------
    alive = [
        a.value for a in session.answer(
            ConnectivityQuery(f) for f in scenarios
        )
    ]
    print(f"  {sum(alive)}/{len(scenarios)} scenarios keep the "
          f"network connected")

    # --- Theorem 11 restoration through the shared engine -------------
    worst = [
        (f, d) for f, d in zip(scenarios, dists)
        if len(f) == 1 and d not in (base, UNREACHABLE)
    ]
    worst.sort(key=lambda item: -item[1])
    print(f"\nmiddle-edge restoration for the {min(5, len(worst))} "
          f"worst single faults (shared perturbed trees):")
    for f, d in worst[:5]:
        path, weight = restore_via_middle_edge(wg, s, t, f[0],
                                               engine=engine)
        assert weight == d and path.avoids(f)
        print(f"  fault {f[0]}: rerouted over {path.hops} hops, "
              f"weight {base} -> {weight}")

    # --- scenario table: worst degradations ---------------------------
    rows = [
        {
            "faults": str(list(f)),
            "dist": d if d != UNREACHABLE else "cut",
            "stretch": (d - base) if d != UNREACHABLE else "-",
        }
        for f, d in zip(scenarios, dists)
        if d != base
    ]
    rows.sort(key=lambda r: -(r["stretch"] if r["stretch"] != "-" else 10**9))
    print()
    print(format_table(rows[:8], title="worst-degraded scenarios"))


if __name__ == "__main__":
    main()
