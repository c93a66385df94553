"""The batching planner: a mixed query stream → grouped kernel calls.

The :class:`Planner` takes an arbitrary mix of typed queries (see
:mod:`repro.query.queries`), validates the stream *before any kernel
runs* (mixed weightedness, unknown vertices, unservable kinds all
raise :class:`~repro.exceptions.QueryError`), groups it by canonical
fault set, and serves each group with **one** batched multi-source
wave — after the engine's cheaper layers (the row cache, the touch
filter, and the incremental-delta patch: wave starts whose orphaned
region is small are served by
:meth:`~repro.scenarios.engine.ScenarioEngine.try_delta` and tagged
with ``"delta"`` provenance) have answered everything they can.
That grouped pair ladder lives here and nowhere else: every pair
answer is a slot of a cached or freshly computed row, or a touch
filter verdict, and is never cached on its own.  A
:class:`~repro.query.queries.RestorationQuery` plans its target
distance as a :class:`~repro.query.queries.DistanceQuery` through the
same groups, then runs the engine's midpoint scan; the weighted
restoration helpers (:mod:`repro.weighted`) ask a
:class:`~repro.query.session.Session` for theirs.

Side choice (the ROADMAP's target-side batching): within a group the
distance/pair queries could be waved from their sources *or* — since
distances are symmetric on an undirected graph with symmetric weights
— from their targets.  The cost model is the number of distinct
vertices a wave would have to start from: vector/eccentricity queries
pin their sources into the wave either way, so

    cost(side) = | {side vertex of each pair query} ∪ {pinned sources} |

and the planner waves the cheaper side (ties go to the source side;
an engine over an antisymmetric weighted snapshot never flips).  The
choice is recorded on the :class:`PlanGroup` so tests and benches can
audit it.

Plan first, execute second: :meth:`Planner.plan` is pure (no engine
counters move), so a plan can be inspected — group count, chosen
sides, estimated wave costs — before :meth:`Planner.execute` touches
any cache or kernel.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs as _obs
from repro.backends.api import row_eccentricity
from repro.exceptions import QueryError
from repro.query.queries import (
    Answer,
    ConnectivityQuery,
    DistanceQuery,
    EccentricityQuery,
    MidpointQuery,
    PairQuery,
    PairReport,
    PreserverQuery,
    Provenance,
    Query,
    RestorationQuery,
    VectorQuery,
    check_stream,
)
from repro.scenarios.enumerate import FaultSet
from repro.spt.bfs import UNREACHABLE

__all__ = ["Planner", "Plan", "PlanGroup"]

_PAIR_KINDS = (DistanceQuery, PairQuery)
_VECTOR_KINDS = (VectorQuery, EccentricityQuery)


@dataclass
class PlanGroup:
    """One fault set's slice of the stream, plus the planned wave.

    ``cost_source`` / ``cost_target`` are the planner's *estimates*
    (distinct wave starts, cache-agnostic — the caches are consulted
    at execute time); ``wave_size`` is filled in by
    :meth:`Planner.execute` with the number of sources the group's
    wave actually traversed (0 when every query was served by a
    cache or the touch filter).
    """

    fault_key: FaultSet
    indices: List[int]
    side: str  # "source" | "target"
    cost_source: int
    cost_target: int
    wave_size: int = 0


@dataclass
class Plan:
    """A validated, grouped, side-chosen query stream, ready to run."""

    queries: List[Query]
    groups: List[PlanGroup] = field(default_factory=list)
    restoration: List[int] = field(default_factory=list)
    preserver: List[int] = field(default_factory=list)
    midpoint: List[int] = field(default_factory=list)
    waves: int = 0  # filled by execute(): kernel calls actually made

    def __len__(self) -> int:
        return len(self.queries)


class Planner:
    """Groups a mixed query stream and dispatches batched kernels.

    Parameters
    ----------
    engine:
        The :class:`~repro.scenarios.engine.ScenarioEngine` whose
        snapshot, caches and kernels serve the plans.  The planner
        only uses the engine's *kernel layer* (``source_vectors``,
        ``peek_vector`` / ``peek_any_vector``, ``faults_touch_pair``,
        ``try_delta``, ``base_distances``, ``midpoint_scan``,
        ``preserver_violations``).
    """

    def __init__(self, engine):
        self.engine = engine

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, queries: Iterable[Query]) -> Plan:
        """Validate and group ``queries``; no engine state is touched.

        Raises :class:`~repro.exceptions.QueryError` on a malformed
        stream: anything that is not a :class:`Query`, an unknown
        vertex, mixed ``weighted=`` declarations, a declaration that
        contradicts the engine, or a restoration query against a
        weighted engine.
        """
        engine = self.engine
        items = list(queries)
        want = check_stream(items)
        if want is not None and want != engine.weighted:
            mode = "weighted" if engine.weighted else "unweighted"
            raise QueryError(
                f"stream declares weighted={want} but the session "
                f"engine is {mode}; serving it would silently use "
                f"the wrong kernels"
            )
        has_vertex = engine.csr.has_vertex
        plan = Plan(queries=items)
        groups: "OrderedDict[FaultSet, List[int]]" = OrderedDict()
        seen_fault_keys = set()
        for i, q in enumerate(items):
            for attr in ("source", "target"):
                v = getattr(q, attr, None)
                if v is not None and not has_vertex(v):
                    raise QueryError(
                        f"unknown {attr} vertex {v} in {q!r}"
                    )
            if q.fault_key not in seen_fault_keys:
                seen_fault_keys.add(q.fault_key)
                # Fault edges between existing vertices that are not
                # present are tolerated (removing nothing, like
                # ``without()``), but an out-of-range endpoint is a
                # caller typo that would otherwise silently read as
                # "touches nothing" — surface it before any kernel.
                for u, v in q.fault_key:
                    if not (has_vertex(u) and has_vertex(v)):
                        raise QueryError(
                            f"fault edge ({u}, {v}) references an "
                            f"unknown vertex in {q!r}"
                        )
            if isinstance(q, RestorationQuery):
                if engine.weighted:
                    raise QueryError(
                        "RestorationQuery runs on hop distances and "
                        "tiebreaking schemes; the session engine is "
                        "weighted"
                    )
                plan.restoration.append(i)
                continue
            if isinstance(q, PreserverQuery):
                if engine.weighted:
                    raise QueryError(
                        "PreserverQuery checks hop-distance "
                        "preservation; the session engine is weighted"
                    )
                for label, vertices in (("source", q.sources),
                                        ("target", q.targets or ()),
                                        ("edge", [v for e in q.edges
                                                  for v in e])):
                    for v in vertices:
                        if not has_vertex(v):
                            raise QueryError(
                                f"unknown {label} vertex {v} in {q!r}"
                            )
                plan.preserver.append(i)
                continue
            if isinstance(q, MidpointQuery):
                if engine.weighted:
                    raise QueryError(
                        "MidpointQuery runs on hop distances and "
                        "tiebreaking schemes; the session engine is "
                        "weighted"
                    )
                plan.midpoint.append(i)
                continue
            groups.setdefault(q.fault_key, []).append(i)
        flip_ok = engine.symmetric_weights
        for fault_key, idxs in groups.items():
            pinned = {
                items[i].source for i in idxs
                if isinstance(items[i], _VECTOR_KINDS)
            }
            pairs = [items[i] for i in idxs
                     if isinstance(items[i], _PAIR_KINDS)]
            cost_source = len(pinned | {q.source for q in pairs})
            cost_target = len(pinned | {q.target for q in pairs})
            side = (
                "target"
                if pairs and flip_ok and cost_target < cost_source
                else "source"
            )
            plan.groups.append(PlanGroup(
                fault_key=fault_key, indices=idxs, side=side,
                cost_source=cost_source, cost_target=cost_target,
            ))
        return plan

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, plan: Plan, scheme=None) -> List[Answer]:
        """Run a plan: one batched kernel call per group that needs one.

        Answers align with the planned stream's order.  ``scheme`` is
        required iff the plan contains restoration queries.
        """
        if plan.restoration or plan.midpoint:
            # Scheme problems surface before ANY kernel runs (the
            # QueryError contract), not after the other groups' waves
            # have already mutated the engine caches.
            self._check_restoration_scheme(scheme)
        answers: List[Optional[Answer]] = [None] * len(plan.queries)
        plan.waves = 0
        with _obs.span("planner.execute", queries=len(plan.queries),
                       groups=len(plan.groups)):
            for group in plan.groups:
                self._execute_group(plan, group, answers)
            if plan.restoration:
                self._execute_restoration(plan, answers, scheme)
            if plan.preserver:
                self._execute_preserver(plan, answers)
            if plan.midpoint:
                self._execute_midpoint(plan, answers, scheme)
        if _obs.ENABLED:
            self._record_plan(plan, answers)
        return answers  # type: ignore[return-value]

    def run(self, queries: Iterable[Query], scheme=None) -> List[Answer]:
        """:meth:`plan` + :meth:`execute` in one call."""
        return self.execute(self.plan(queries), scheme=scheme)

    @staticmethod
    def _record_plan(plan: Plan,
                     answers: List[Optional[Answer]]) -> None:
        """The planner's observability seam: group sizes and the
        provenance mix, recorded once per executed plan (never inside
        the group loop's cache probes)."""
        _obs.inc("repro_plans_total")
        _obs.inc("repro_plan_waves_total", plan.waves)
        for group in plan.groups:
            _obs.observe("repro_plan_group_size",
                         float(len(group.indices)), side=group.side)
        # Tally locally, then one registry touch per provenance kind —
        # a per-answer inc would pay a label lookup per query and
        # dominate the enabled-overhead budget on large streams.
        tally: Dict[str, int] = {}
        for answer in answers:
            if answer is not None:
                source = answer.provenance.source
                tally[source] = tally.get(source, 0) + 1
        for source, count in tally.items():
            _obs.inc("repro_answers_total", count, provenance=source)

    # ------------------------------------------------------------------
    def _pair_value(self, query: Query, dist: int):
        """Wrap a scalar distance in the query kind's value type."""
        if isinstance(query, PairQuery):
            base = self.engine.base_distances(query.source)[query.target]
            return PairReport(base=base, distance=dist)
        return dist

    def _execute_group(self, plan: Plan, group: PlanGroup,
                       answers: List[Optional[Answer]]) -> None:
        engine = self.engine
        fault_key = group.fault_key
        flip = group.side == "target"
        kernel = ("csr_weighted_distances_many" if engine.weighted
                  else "csr_bfs_distances_many")
        queries = plan.queries
        # Phase 1: the cheap layers — vector cache, touch filter —
        # answer what they can; the rest joins the wave.
        pending: List[int] = []          # query indices awaiting the wave
        wave: "OrderedDict[int, None]" = OrderedDict()  # dedup, ordered
        conn: List[int] = []             # connectivity queries, deferred
        conn_vector = None               # any cached vector, for them
        for i in group.indices:
            q = queries[i]
            if isinstance(q, ConnectivityQuery):
                conn.append(i)
                continue
            if isinstance(q, _PAIR_KINDS):
                served = False
                for origin, other in (
                    ((q.source, q.target),)
                    if not engine.symmetric_weights else
                    ((q.source, q.target), (q.target, q.source))
                ):
                    vec = engine.peek_vector(origin, fault_key)
                    if vec is not None:
                        answers[i] = Answer(
                            q, self._pair_value(q, vec[other]),
                            Provenance("cache", "vector-cache"),
                        )
                        if conn_vector is None:
                            conn_vector = vec
                        served = True
                        break
                if served:
                    continue
                if not engine.faults_touch_pair(q.source, q.target,
                                                fault_key):
                    dist = engine.base_distances(q.source)[q.target]
                    answers[i] = Answer(
                        q, self._pair_value(q, dist),
                        Provenance("filter", "touch-filter"),
                    )
                    continue
                pending.append(i)
                wave[q.target if flip else q.source] = None
                continue
            # VectorQuery / EccentricityQuery
            vec = engine.peek_vector(q.source, fault_key)
            if vec is not None:
                answers[i] = Answer(q, self._vector_value(q, vec),
                                    Provenance("cache", "vector-cache"))
                if conn_vector is None:
                    conn_vector = vec
                continue
            pending.append(i)
            wave[q.source] = None
        if conn and not wave and conn_vector is None:
            # Nothing else forces a traversal: connectivity can ride
            # ANY cached vector under this fault set (undirected: one
            # full row convicts or acquits the whole graph); only a
            # fully cold fault set pays a wave of its own.
            cached = (engine.peek_any_vector(fault_key)
                      if engine.csr.n else None)
            if cached is not None:
                conn_vector = cached
            elif engine.csr.n:
                wave[0] = None
        # Phase 1.5: the delta path — wave starts whose orphaned
        # region the engine's cost model deems small are patched from
        # the base vectors instead of traversed (the vector lands in
        # the LRU either way); what the patch cannot serve stays in
        # the wave.
        rows: Dict[int, Sequence[int]] = {}
        delta_rows: Dict[int, Optional[str]] = {}
        if wave and fault_key and engine.delta_enabled:
            batch_hint = len(wave)
            for origin in list(wave):
                vec = engine.try_delta(origin, fault_key,
                                       batch_hint=batch_hint)
                if vec is not None:
                    rows[origin] = vec
                    # Which kernel backend patched this origin — the
                    # engine records it per repair call.
                    delta_rows[origin] = engine.last_repair_backend
                    del wave[origin]
        # Phase 2: one batched multi-source wave serves every pending
        # query (and populates the vector cache for later gathers).
        if wave:
            batch = list(wave)
            vectors = engine.source_vectors(batch, fault_key)
            rows.update(zip(batch, vectors))
            group.wave_size = len(batch)
            plan.waves += 1
        wave_of = Provenance(
            "wave", "masked-wave", kernel=kernel,
            side=group.side, wave_size=group.wave_size,
            backend=engine.last_wave_backend if group.wave_size else None,
        )
        repair_kernel = ("csr_dijkstra_repair" if engine.weighted
                         else "csr_bfs_repair")
        # One Provenance per patched origin: backends dispatch on the
        # orphaned-region size, so origins in the same group may have
        # been served by different backends.
        delta_of = {
            origin: Provenance("delta", "patched-region",
                               kernel=repair_kernel, side=group.side,
                               backend=served_by)
            for origin, served_by in delta_rows.items()
        }
        for i in pending:
            q = queries[i]
            if isinstance(q, _PAIR_KINDS):
                origin = q.target if flip else q.source
                dist = rows[origin][q.source if flip else q.target]
                answers[i] = Answer(
                    q, self._pair_value(q, dist),
                    delta_of.get(origin, wave_of),
                )
            else:
                answers[i] = Answer(
                    q, self._vector_value(q, rows[q.source]),
                    delta_of.get(q.source, wave_of),
                )
        for i in conn:
            q = queries[i]
            if engine.csr.n == 0:
                answers[i] = Answer(q, True, Provenance("filter", "empty"))
                continue
            if rows:
                origin, vec = next(iter(rows.items()))
                answers[i] = Answer(
                    q, row_eccentricity(vec) != UNREACHABLE,
                    delta_of.get(origin, wave_of),
                )
            else:
                answers[i] = Answer(
                    q, row_eccentricity(conn_vector) != UNREACHABLE,
                    Provenance("cache", "vector-cache"),
                )

    @staticmethod
    def _vector_value(query: Query, vec: Sequence[int]):
        if isinstance(query, EccentricityQuery):
            return row_eccentricity(vec)
        return vec

    def _check_restoration_scheme(self, scheme) -> None:
        if scheme is None:
            raise QueryError(
                "RestorationQuery/MidpointQuery needs a scheme: pass "
                "one to Session(scheme=...) or answer(..., scheme=...)"
            )
        scheme_graph = getattr(scheme, "graph", None)
        if scheme_graph is None or scheme_graph is self.engine.graph:
            return
        # Identity is the fast path; structural equality is what the
        # contract actually needs, and it is what a scheme that crossed
        # a pickle boundary (fleet shard, service payload) can offer —
        # its graph is a faithful copy, never the same object.
        if scheme_graph != self.engine.graph:
            raise QueryError(
                "scheme and session engine must share the same base "
                "graph (engine caches would silently answer for the "
                "wrong graph)"
            )

    def _execute_restoration(self, plan: Plan,
                             answers: List[Optional[Answer]],
                             scheme) -> None:
        """Figure-1 instances ``(s, t, e)``: the target
        ``dist_{G \\ e}(s, t)`` rides the grouped pair ladder as a
        :class:`DistanceQuery` (instances sharing a fault edge share
        one masked wave), then every connected instance gets the
        naive (``F' = ∅``) midpoint scan.  The value is ``(target,
        result)``, or ``None`` when the fault disconnects the pair."""
        engine = self.engine
        instances = [plan.queries[i] for i in plan.restoration]
        targets = self.plan(DistanceQuery(q.source, q.target, q.faults)
                            for q in instances)
        dists: List[Optional[Answer]] = [None] * len(instances)
        for group in targets.groups:
            self._execute_group(targets, group, dists)
        # The target waves, plus the scan batch booked as one unit.
        plan.waves += targets.waves + 1
        prov = Provenance("wave", "restoration-sweep",
                          kernel="restoration_sweep",
                          wave_size=len(instances))
        for i, q, dist in zip(plan.restoration, instances, dists):
            target = dist.value
            value = None if target == UNREACHABLE else (
                target,
                engine.midpoint_scan(scheme, q.source, q.target, q.faults),
            )
            answers[i] = Answer(q, value, prov)

    def _execute_preserver(self, plan: Plan,
                           answers: List[Optional[Answer]]) -> None:
        """One engine sweep per distinct ``(edges, sources, targets)``
        job: all fault sets of a job ride the same ``H`` snapshot, so
        a scenario stream pays the subgraph build exactly once."""
        engine = self.engine
        jobs: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        for i in plan.preserver:
            q = plan.queries[i]
            jobs.setdefault((q.edges, q.sources, q.targets),
                            []).append(i)
        for (edges, sources, targets), idxs in jobs.items():
            fault_keys = list(dict.fromkeys(
                plan.queries[i].fault_key for i in idxs
            ))
            flat = engine.preserver_violations(
                edges, sources, fault_keys, targets
            )
            by_key: Dict[Any, List[Tuple]] = {k: [] for k in fault_keys}
            for violation in flat:
                by_key[violation[0]].append(violation)
            # One wave per scenario per graph side (G \ F and H \ F).
            plan.waves += len(fault_keys)
            prov = Provenance(
                "wave", "preserver-sweep",
                kernel="csr_bfs_distances_many",
                wave_size=len(sources),
            )
            for i in idxs:
                q = plan.queries[i]
                answers[i] = Answer(q, tuple(by_key[q.fault_key]), prov)

    def _execute_midpoint(self, plan: Plan,
                          answers: List[Optional[Answer]],
                          scheme) -> None:
        engine = self.engine
        prov = Provenance("wave", "midpoint-scan",
                          kernel="midpoint_scan",
                          wave_size=len(plan.midpoint))
        for i in plan.midpoint:
            q = plan.queries[i]
            result = engine.midpoint_scan(
                scheme, q.source, q.target, q.faults, q.subset
            )
            answers[i] = Answer(q, result, prov)
        # Consecutive scans share the engine's cached tree indices;
        # book the batch as one unit of kernel work.
        plan.waves += 1
