#!/usr/bin/env python3
"""The declarative query API: describe questions, let the planner batch.

PR 1 batched the *scenarios*, PR 2 the *weights*, PR 3 the *sources*;
this tour shows the fourth rung: batching decided by a **planner**
instead of by each caller.  Callers build typed query objects
(:mod:`repro.query`) — replacement distances, monitored-pair health,
full vectors, eccentricities, connectivity — submit the mix to a
:class:`~repro.query.session.Session`, and gather typed answers tagged
with provenance (cache / filter / wave).  The planner groups the
stream by canonical fault set, picks the cheaper side to wave from
(many sources, few targets → wave from the targets), and issues one
batched kernel call per group.

Run:  PYTHONPATH=src python examples/query_session.py
"""

from repro.analysis.experiments import format_table, timed
from repro.graphs import generators
from repro.query import (
    ConnectivityQuery,
    EccentricityQuery,
    PairQuery,
    Session,
    VectorQuery,
)
from repro.scenarios import random_fault_sets
from repro.spt.bfs import bfs_tree


def main() -> None:
    graph = generators.connected_erdos_renyi(400, 6.0 / 400, seed=11)
    session = Session(graph)
    print(f"network: sparse ER, n={graph.n}, m={graph.m}")
    print(f"session: {session!r}")

    # --- one mixed stream: pairs + vectors + eccentricities ----------
    # A monitoring workload: many probe sources, two collector targets
    # (the skew that makes the planner wave from the target side), and
    # adversarial fault scenarios on a collector's shortest-path tree.
    probes = [3, 21, 47, 80, 101, 160, 204, 255, 307, 342]
    collectors = [377, 398]
    tree_edges = sorted(
        (min(v, p), max(v, p))
        for v, p in bfs_tree(graph, collectors[0]).items() if p is not None
    )
    scenarios = [(e,) for e in tree_edges[:24]]
    scenarios += random_fault_sets(graph, 2, 8, seed=3)

    for faults in scenarios:
        session.submit(
            PairQuery(s, t, faults) for s in probes for t in collectors
        )
        session.submit(
            VectorQuery(collectors[0], faults),
            EccentricityQuery(collectors[1], faults),
            ConnectivityQuery(faults),
        )
    print(f"\nsubmitted {session.pending} queries "
          f"({len(scenarios)} fault sets x {len(probes)}x"
          f"{len(collectors)} monitored pairs + per-scenario probes)")

    answers, secs = timed(session.gather)
    st = session.stats
    print(f"  gathered in {secs * 1e3:.1f} ms: {st.cache} cache / "
          f"{st.filter} filter / {st.wave} wave "
          f"({st.waves} batched waves)")
    plan = session.planner.plan([a.query for a in answers])
    target_side = sum(1 for g in plan.groups if g.side == "target")
    print(f"  planner sides: {target_side}/{len(plan.groups)} groups "
          f"waved from the target side "
          f"(e.g. {plan.groups[0].cost_source} source starts vs "
          f"{plan.groups[0].cost_target} target starts)")

    # --- provenance: replaying the stream is almost free -------------
    replay, resecs = timed(
        session.answer, [a.query for a in answers]
    )
    hit = sum(1 for a in replay if a.cached)
    print(f"  replay: {resecs * 1e3:.1f} ms, {hit}/{len(replay)} "
          f"answers straight from cache "
          f"({secs / max(resecs, 1e-9):.0f}x faster)")

    # --- typed values: worst-degraded monitored pairs ----------------
    rows = [
        {
            "pair": f"({a.query.source}, {a.query.target})",
            "faults": str(list(a.query.faults)),
            "dist": a.value.distance,
            "base": a.value.base,
            "stretch": ("cut" if a.value.disconnected
                        else a.value.stretch),
            "via": a.provenance.source,
        }
        for a in answers
        if isinstance(a.query, PairQuery) and a.value.stretch != 0
    ]
    rows.sort(key=lambda r: -(r["stretch"]
                              if r["stretch"] != "cut" else 10**9))
    print()
    print(format_table(rows[:8], title="worst-degraded monitored pairs"))

    print(f"\nsession: {session!r}")


if __name__ == "__main__":
    main()
