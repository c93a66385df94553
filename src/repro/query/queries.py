"""Typed query objects — the value types of the declarative query API.

Each query kind is a frozen dataclass whose ``faults`` field is
canonicalized at construction (each edge sorted, the set sorted and
deduplicated), so two queries asking the same question compare equal,
hash equal, and land in the same planner group no matter how their
fault sets were spelled.  See :mod:`repro.query` for the full algebra
contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional

from repro.exceptions import QueryError
from repro.scenarios.enumerate import FaultSet, _canonical

__all__ = [
    "check_stream",
    "Query",
    "DistanceQuery",
    "PairQuery",
    "VectorQuery",
    "EccentricityQuery",
    "ConnectivityQuery",
    "RestorationQuery",
    "PairReport",
    "Provenance",
    "Answer",
]


class Query:
    """Common behaviour of every query kind (not itself a query).

    Subclasses are frozen dataclasses; this base canonicalizes the
    ``faults`` field in ``__post_init__`` (via ``object.__setattr__``,
    the frozen-dataclass idiom) and exposes it as :attr:`fault_key`,
    the grouping key of the :class:`~repro.query.planner.Planner`.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        try:
            key = _canonical(self.faults)
        except (TypeError, ValueError) as exc:
            raise QueryError(
                f"malformed fault set {self.faults!r} in "
                f"{type(self).__name__}: {exc}"
            ) from exc
        object.__setattr__(self, "faults", key)
        self._validate()

    def _validate(self) -> None:
        """Kind-specific structural checks (graph-free)."""

    @property
    def fault_key(self) -> FaultSet:
        """The canonical fault tuple — the planner's grouping key."""
        return self.faults


def check_stream(queries: Iterable[Any]) -> Optional[bool]:
    """The stream-level checks every transport makes before serving.

    Every item must be a typed query, and the stream may not mix
    ``weighted=True`` with ``weighted=False`` declarations — a
    property of the whole stream, which sharding could otherwise
    split into shards that each look consistent.  Returns the declared
    weightedness (``None`` when no query declares one); raises
    :class:`~repro.exceptions.QueryError` otherwise.
    """
    declared: Dict[bool, Query] = {}
    for q in queries:
        if not isinstance(q, Query) or type(q) is Query:
            raise QueryError(
                f"not a query object: {q!r} (use the typed query "
                f"classes from repro.query)"
            )
        if q.weighted is not None:
            declared.setdefault(bool(q.weighted), q)
    if len(declared) > 1:
        raise QueryError(
            "mixed weighted and unweighted queries in one stream: "
            f"{declared[True]!r} vs {declared[False]!r}"
        )
    return next(iter(declared), None)


@dataclass(frozen=True)
class DistanceQuery(Query):
    """``dist_{G \\ F}(source, target)`` — answer value is an ``int``
    (``UNREACHABLE`` = -1 when the faults disconnect the pair)."""

    source: int
    target: int
    faults: FaultSet = ()
    weighted: Optional[bool] = None


@dataclass(frozen=True)
class PairQuery(Query):
    """A monitored pair's health under ``F`` — answer value is a
    :class:`PairReport` (fault-free baseline, replacement distance,
    stretch)."""

    source: int
    target: int
    faults: FaultSet = ()
    weighted: Optional[bool] = None


@dataclass(frozen=True)
class VectorQuery(Query):
    """The full distance vector from ``source`` in ``G \\ F`` — answer
    value is a dense **read-only** row (shared with the engine's
    caches; do not mutate), ``UNREACHABLE`` (-1) where cut off: an
    ``array('i')`` of hop distances (indexing yields ints; compare
    with ``list(value)``), or a list of ints on a weighted engine."""

    source: int
    faults: FaultSet = ()
    weighted: Optional[bool] = None


@dataclass(frozen=True)
class EccentricityQuery(Query):
    """``max_v dist_{G \\ F}(source, v)`` — answer value is an ``int``,
    ``UNREACHABLE`` (-1) when some vertex is unreachable from
    ``source`` (a max over missing distances would silently
    understate, so disconnection is surfaced in-band, unlike the
    raising contract of :func:`repro.spt.apsp.eccentricity`).

    In a group of eccentricity and connectivity queries alone, the
    planner reads it straight off the wave's reduction mode (the last
    level the source's lane gained a vertex) and keeps no row; beside
    a row-reading query it is reduced from the group's row."""

    source: int
    faults: FaultSet = ()
    weighted: Optional[bool] = None


@dataclass(frozen=True)
class ConnectivityQuery(Query):
    """Does ``G \\ F`` stay connected? — answer value is a ``bool``.
    The planner answers it from any one source's eccentricity under
    ``F`` (undirected: one source that reaches every vertex acquits
    the whole graph, one that misses a vertex convicts it), so it
    rides along for free: on a row its group already holds, on a
    cached row, or — in a group of eccentricity and connectivity
    queries alone — on a wave reduction that builds no row.  Only a
    fault set nothing else asks about pays a one-source wave."""

    faults: FaultSet = ()
    weighted: Optional[bool] = None


@dataclass(frozen=True)
class RestorationQuery(Query):
    """Figure-1 style restoration instance: can the naive (``F' = ∅``)
    midpoint scan restore ``source ~> target`` around the single fault
    edge?  Answer value is ``(target_distance, RestorationResult |
    None)``, or ``None`` when the fault disconnects the pair.  Needs a
    scheme (``Session(scheme=...)`` or ``answer(..., scheme=...)``) and
    an unweighted engine."""

    source: int
    target: int
    faults: FaultSet = ()
    weighted: Optional[bool] = None

    def _validate(self) -> None:
        if len(self.faults) != 1:
            raise QueryError(
                f"RestorationQuery takes exactly one fault edge, got "
                f"{len(self.faults)}: {self.faults!r}"
            )


@dataclass(frozen=True)
class PairReport:
    """Value of a :class:`PairQuery`: the pair's health under ``F``."""

    base: int
    distance: int

    @property
    def disconnected(self) -> bool:
        return self.distance < 0

    @property
    def stretch(self) -> Optional[int]:
        """Extra distance the faults cost; ``None`` when disconnected."""
        return None if self.distance < 0 else self.distance - self.base


@dataclass(frozen=True)
class Provenance:
    """How an :class:`Answer` was produced.

    ``source`` is one of:

    * ``"cache"`` — served without traversing, by indexing a cached
      distance vector (``detail`` is ``"vector-cache"``; a fault-free
      query reads the base vectors the same way).
    * ``"filter"`` — the touch filter proved the fault set off every
      shortest path, so the base distance was returned in O(|F|).
    * ``"delta"`` — the fault set's orphaned region was small, so the
      answer was *patched* from the base vector by a repair kernel
      (:mod:`repro.incremental`) instead of re-traversing; ``kernel``
      names the repair kernel, ``side`` the patched origin's side for
      pair-type queries.
    * ``"wave"`` — computed by a batched kernel call in this gather;
      ``kernel`` names it, ``wave_size`` counts the sources the wave
      served, and ``side`` records the waved side (``"source"`` /
      ``"target"``) for pair-type queries.

    ``backend`` names the kernel backend (:mod:`repro.backends` —
    ``"pyloops"`` or ``"vectorized"``) that served a ``"wave"`` or
    ``"delta"`` answer; cache and filter answers ran no kernel, so it
    stays ``None``.

    ``worker`` names the fleet worker (:mod:`repro.fleet`) whose
    engine produced the answer; answers served by a plain in-process
    :class:`~repro.query.session.Session` leave it ``None``.

    ``coalesced`` is stamped by the scenario service
    (:mod:`repro.service`): the number of requests (tickets) — across
    *all* connected clients — in the micro-batch it rode that asked
    about this answer's canonical fault set.  A lone request reads 1
    however many of its own queries share the fault set, so a value
    above 1 means concurrent clients split the cost of one masked
    wave.  Answers served in-process leave it 0.
    """

    source: str
    detail: str = ""
    kernel: Optional[str] = None
    side: Optional[str] = None
    wave_size: int = 0
    backend: Optional[str] = None
    worker: Optional[str] = None
    coalesced: int = 0


@dataclass(frozen=True)
class Answer:
    """One query's typed result: the query, its value, its provenance."""

    query: Query
    value: Any
    provenance: Provenance

    @property
    def cached(self) -> bool:
        return self.provenance.source == "cache"

    @property
    def waved(self) -> bool:
        return self.provenance.source == "wave"

    @property
    def patched(self) -> bool:
        return self.provenance.source == "delta"
