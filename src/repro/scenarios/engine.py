"""The batched fault-scenario engine.

One base graph, many fault sets — the paper's methodology and the
library's dominant workload.  :class:`ScenarioEngine` serves it by
amortising everything that does not depend on the individual scenario:

* the CSR snapshot of the base graph (built once, shared by every
  scenario's O(|F|) arc-masked view);
* base BFS distance vectors per queried source/target;
* selected shortest-path trees (cached by the scheme) and their
  :class:`TreeFaultIndex` subtree intervals, which turn
  ``tree_fault_free_vertices`` from a per-scenario tree walk into an
  interval complement;
* a *touch filter* for pair queries: a fault set that contains no edge
  of any shortest ``s ~> t`` path cannot change ``dist(s, t)``, and
  membership is O(1) per fault edge against the two base distance
  vectors — so the common "fault missed me" scenario costs O(|F|)
  instead of a BFS;
* a bounded LRU *distance-vector cache* keyed by ``(source,
  canonical fault tuple)``: streams that share a fault set across many
  pairs pay one masked traversal per source, and later pairs are
  answered by indexing the cached row (hit/miss/eviction counters via
  :meth:`ScenarioEngine.cache_info`).  It caches rows only: a pair
  answer is one slot of a row, or O(|F|) work for the touch filter,
  so it is never booked as an entry of its own;
* batched multi-source waves: :meth:`ScenarioEngine.source_vectors`
  feeds every uncached source of one fault set to the bit-packed
  multi-source kernels of :mod:`repro.spt.batched`, so one sweep over
  the arc array serves the whole source batch (the query planner
  groups a mixed stream by canonical fault set, so each masked wave
  serves every query sharing that ``F``);
* *incremental deltas* (:mod:`repro.incremental`): a fault set whose
  orphaned region — the subtrees of the source's base SPT hanging
  below faulted tree edges — is small gets its distance vector
  *patched* from the base vector by a repair kernel instead of paying
  a full masked traversal.  :meth:`ScenarioEngine.try_delta` reads
  the orphan count off the :class:`TreeFaultIndex` subtree intervals
  in ``O(|F| log |F|)``, consults an explicit
  :class:`~repro.incremental.affected.CostModel`, and falls back to
  the wave path when the region is large (``delta_hits`` /
  ``delta_fallbacks`` counters in :meth:`cache_info`; ``delta=False``
  disables the strategy).

The engine is weight-aware: handed a
:class:`~repro.weighted.graph.WeightedGraph` (or any graph whose CSR
snapshot carries a flat ``weights`` array), base distances come from
the flat Dijkstra kernel instead of BFS, the touch filter generalises
to ``d_s(u) + w(u, v) + d_t(v) == d_s(t)``, and per-scenario queries
run masked weighted Dijkstra.  Scheme-based queries (midpoint scans,
preserver checks) remain unweighted-only and raise on a weighted
engine.

Per-scenario work then runs over flat arrays (see
:mod:`repro.spt.fastpaths`), serially — the fleet (:mod:`repro.fleet`)
is the library's one multi-process path.

The engine is the *kernel layer* under the declarative query API
(:mod:`repro.query`): a :class:`~repro.query.session.Session` owns an
engine and a planner that groups arbitrary mixed query streams onto
these batched kernels, and query streams enter through the session.
The engine's surface is the row primitives
(``source_vector``/``source_vectors``, ``base_distances``), the batch
jobs behind the planner's preserver and midpoint kinds
(``preserver_violations``, ``midpoint_scan``), and the planner
protocol (:meth:`peek_vector`, :meth:`peek_any_vector`,
:meth:`faults_touch_pair`, :meth:`try_delta`).  The pair ladder —
vector cache, touch filter, delta, masked wave — lives once, in the
planner: every pair answer, restoration targets included, comes
through it.

Example
-------
>>> from repro.graphs import generators
>>> from repro.scenarios import ScenarioEngine
>>> g = generators.grid(4, 4)
>>> engine = ScenarioEngine(g)
>>> engine.source_vector(0, [(0, 1)])[15]  # dist_{G \\ (0,1)}(0, 15)
6
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from time import perf_counter
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

from repro import obs as _obs
from repro.backends.dispatch import backend_for
from repro.exceptions import GraphError
from repro.graphs.base import Edge, Graph, canonical_edge
from repro.graphs.csr import CSRGraph
from repro.incremental.affected import CostModel, affected_region
from repro.scenarios.enumerate import _canonical
from repro.spt.batched import csr_bfs_distances_many
from repro.spt.bfs import UNREACHABLE
from repro.spt.fastpaths import (
    csr_bfs_distances,
    csr_bfs_tree,
    csr_dijkstra_flat,
    csr_weighted_distances,
)
from repro.spt.trees import ShortestPathTree

__all__ = ["CacheInfo", "ScenarioEngine", "TreeFaultIndex"]


@dataclass(frozen=True)
class CacheInfo:
    """Frozen snapshot of the engine's row-cache counters.

    ``vector_*`` cover the LRU of per-``(source, F)`` distance rows.
    ``delta_hits`` counts vectors served by *patching* the base
    vector over a small affected region (:mod:`repro.incremental`),
    ``delta_fallbacks`` the scenarios whose region was too large, so
    the cost model sent them back to the full-wave path.  ``size``
    counts the cached rows and ``maxsize`` bounds them.
    ``wave_backends`` reports which kernel backend
    (:mod:`repro.backends`) served the engine's batched waves, as
    sorted ``(name, count)`` pairs — JSON-able and hashable like every
    other field.

    Attribute access is the canonical interface; ``__getitem__`` and
    ``keys`` keep the mapping idiom working, so ``info["size"]``
    reads and ``dict(info)`` round-trips for JSON payloads.
    """

    vector_hits: int
    vector_misses: int
    vector_evictions: int
    delta_hits: int
    delta_fallbacks: int
    size: int
    maxsize: int
    wave_backends: Tuple[Tuple[str, int], ...] = ()

    def __getitem__(self, key: str) -> Any:
        if key not in _CACHE_INFO_FIELDS:
            raise KeyError(key)
        return getattr(self, key)

    def keys(self):
        return iter(_CACHE_INFO_FIELDS)

    def __iter__(self):
        # Mapping-style iteration (yields keys, so `"size" in info`
        # and `list(info)` behave like a raw dict).
        return iter(_CACHE_INFO_FIELDS)

    def __eq__(self, other) -> bool:
        if isinstance(other, CacheInfo):
            return self.as_dict() == other.as_dict()
        if isinstance(other, dict):  # the PR-2 raw-dict idiom
            return self.as_dict() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.as_dict().values()))

    def as_dict(self) -> Dict[str, Any]:
        """A plain dict (JSON-ready), same keys as the PR-2 payload."""
        return {name: getattr(self, name) for name in _CACHE_INFO_FIELDS}

    def publish(self, **labels: Any) -> None:
        """Mirror this snapshot into the obs registry as gauges.

        The observability contract for the engine counters: the hot
        paths keep bumping plain ints (a registry call per cache hit
        would tax the PR 1–5 loops), and every :meth:`cache_info`
        snapshot re-publishes them, making :class:`CacheInfo` the thin
        view through which the registry sees the cache plane.  No-op
        while :mod:`repro.obs` is disabled.
        """
        if not _obs.ENABLED:
            return
        for name in _CACHE_INFO_FIELDS:
            if name == "wave_backends":
                continue
            _obs.set_gauge(f"repro_cache_{name}",
                           float(getattr(self, name)), **labels)
        for backend, count in self.wave_backends:
            _obs.set_gauge("repro_cache_wave_backends", float(count),
                           backend=backend, **labels)

    @classmethod
    def merge(cls, infos: Iterable["CacheInfo"]) -> "CacheInfo":
        """Aggregate many snapshots into one (fleet / multi-session).

        Every counter sums — including ``size`` and ``maxsize``, which
        become the aggregate footprint and aggregate capacity of the
        merged caches — and the per-backend wave tallies merge by
        name.  Merging the per-worker reports of a
        :class:`~repro.fleet.session.FleetSession` equals the fleet's
        own :meth:`~repro.fleet.session.FleetSession.cache_info`.
        """
        totals = {name: 0 for name in _CACHE_INFO_FIELDS
                  if name != "wave_backends"}
        backends: Dict[str, int] = {}
        for info in infos:
            for name in totals:
                totals[name] += info[name]
            for backend, count in info.wave_backends:
                backends[backend] = backends.get(backend, 0) + count
        return cls(wave_backends=tuple(sorted(backends.items())),
                   **totals)


_CACHE_INFO_FIELDS = tuple(f.name for f in fields(CacheInfo))


def _snapshot_of(graph) -> CSRGraph:
    """The CSR snapshot to batch over.

    An immutable :class:`CSRGraph` (possibly weight-carrying) is
    adopted as-is; a graph with a cached ``csr()`` (``Graph``,
    ``WeightedGraph``) routes through it; anything else is flattened
    fresh.
    """
    if isinstance(graph, CSRGraph):
        return graph
    csr_method = getattr(graph, "csr", None)
    return csr_method() if csr_method is not None \
        else CSRGraph.from_graph(graph)


@contextmanager
def _scratch_masked(csr: CSRGraph, scratch: bytearray,
                    faults: Iterable[Edge]):
    """Zero the <= 2|F| fault-arc positions of ``scratch``, then restore.

    The per-scenario cost is O(|F|) against a long-lived buffer, versus
    the O(m) fresh-bytearray copy a :class:`CSRFaultView` would pay.
    The yielded mask is shared state: it must not outlive the block.
    """
    positions: List[int] = []
    for u, v in faults:
        pos = csr.arc_positions(u, v)
        if pos is not None:
            positions.extend(pos)
    for p in positions:
        scratch[p] = 0
    try:
        yield scratch
    finally:
        for p in positions:
            scratch[p] = 1


class TreeFaultIndex:
    """Subtree intervals of a shortest-path tree, for O(|F|) fault cuts.

    A vertex's selected root-path avoids a fault set ``F`` iff the
    vertex lies below no faulted *tree* edge.  Precomputing an Euler
    tour (entry/exit positions per vertex) makes "below a faulted
    edge" an interval membership, so the fault-free vertex set of a
    scenario is the complement of at most ``|F|`` disjoint intervals —
    no per-vertex ``canonical_edge`` hashing, no re-walk of the tree.

    Produces exactly the same sets as
    :func:`repro.core.restoration.tree_fault_free_vertices`.
    """

    __slots__ = ("tree", "_tour", "_enter", "_exit", "_edge_child", "_all")

    def __init__(self, tree):
        self.tree = tree
        children: Dict[int, List[int]] = {}
        for v in tree.vertices_by_hop():
            p = tree.parent(v)
            if p is not None:
                children.setdefault(p, []).append(v)
        tour: List[int] = []
        enter: Dict[int, int] = {}
        exit_: Dict[int, int] = {}
        stack: List[Tuple[int, bool]] = [(tree.root, False)]
        while stack:
            v, done = stack.pop()
            if done:
                exit_[v] = len(tour)
                continue
            enter[v] = len(tour)
            tour.append(v)
            stack.append((v, True))
            for c in reversed(children.get(v, ())):
                stack.append((c, False))
        self._tour = tour
        self._enter = enter
        self._exit = exit_
        self._edge_child = {
            canonical_edge(v, p): v
            for v, p in ((v, tree.parent(v)) for v in enter)
            if p is not None
        }
        self._all: Optional[frozenset] = None

    def cut_intervals(self, faults: Iterable[Edge]
                      ) -> List[Tuple[int, int]]:
        """Disjoint, sorted Euler intervals cut by the faulted tree edges.

        Subtree intervals are laminar (disjoint or nested), so after
        sorting, an interval starting inside the running frontier is
        nested under an already-cut subtree and dropped.  O(|F| log
        |F|) — no vertex is touched.  Callers needing both the orphan
        count and the orphans themselves should compute the intervals
        once and feed them to :meth:`orphans_of_intervals` (what
        :func:`repro.incremental.affected.affected_region` does).
        """
        cut: List[Tuple[int, int]] = []
        child_of = self._edge_child.get
        canon = canonical_edge
        enter, exit_ = self._enter, self._exit
        for u, v in faults:
            child = child_of(canon(u, v))
            if child is not None:
                cut.append((enter[child], exit_[child]))
        cut.sort()
        merged: List[Tuple[int, int]] = []
        keep = merged.append
        pos = 0
        for lo, hi in cut:
            if lo < pos:  # nested under an already-cut subtree
                continue
            keep((lo, hi))
            pos = hi
        return merged

    def orphan_estimate(self, faults: Iterable[Edge]) -> int:
        """How many vertices hang below a faulted tree edge — exact,
        in O(|F| log |F|), without materialising any of them.

        Each vertex appears once in the Euler tour, so a cut
        interval's length *is* its subtree's size; the estimate is
        the summed length of the merged intervals.  This is what lets
        the delta cost model (:mod:`repro.incremental.affected`)
        reject a half-the-graph fault set for the price of interval
        arithmetic.
        """
        return sum(hi - lo for lo, hi in self.cut_intervals(faults))

    def orphans_of_intervals(self, intervals: Iterable[Tuple[int, int]]
                             ) -> List[int]:
        """Materialise the vertices of already-computed cut intervals
        (O(|orphans|)) — the second half of :meth:`orphaned_vertices`
        for callers that sized the region first."""
        out: List[int] = []
        grow = out.extend
        tour = self._tour
        for lo, hi in intervals:
            grow(tour[lo:hi])
        return out

    def orphaned_vertices(self, faults: Iterable[Edge]) -> List[int]:
        """The vertices below some faulted tree edge — the complement
        of :meth:`fault_free_vertices` within the tree, materialised
        in O(|F| log |F| + |orphans|)."""
        return self.orphans_of_intervals(self.cut_intervals(faults))

    def fault_free_vertices(self, faults: Iterable[Edge]) -> Set[int]:
        """Vertices whose selected root-path avoids every fault edge."""
        cut = self.cut_intervals(faults)
        if not cut:
            if self._all is None:
                self._all = frozenset(self._tour)
            return set(self._all)
        good: List[int] = []
        grow = good.extend
        tour = self._tour
        pos = 0
        for lo, hi in cut:
            grow(tour[pos:lo])
            pos = hi
        grow(tour[pos:])
        return set(good)


class ScenarioEngine:
    """Batch evaluator for many fault scenarios over one base graph.

    Parameters
    ----------
    graph:
        The base :class:`~repro.graphs.base.Graph`,
        :class:`~repro.weighted.graph.WeightedGraph`, or any
        ``GraphLike`` that a CSR snapshot can be built from.  Assumed
        frozen for the engine's lifetime, per the library-wide
        scenario convention.  When the snapshot carries a flat weights
        array the engine runs in weighted mode: distances are exact
        weighted distances via the flat Dijkstra kernels.
    memoize:
        Capacity of the row cache: one LRU of distance vectors keyed
        ``(source, canonical fault tuple)``.  ``0`` disables it.
        Every entry is a dense O(n) row — ``4n`` bytes for a hop row
        (``array('i')``), about ``8n`` for a weighted row (a list of
        ints) — so the footprint is at most ``memoize`` rows; size
        ``memoize`` down on memory-constrained deployments.  (Vectors
        handed to long-lived consumers, e.g. DSO preprocessing rows,
        are aliased — the cache holds a reference to the same row
        object, not a copy.)
    delta:
        Enable the incremental-delta strategy (:meth:`try_delta`,
        default True): per-source base SPT indices are built lazily
        (one traversal per queried source, amortised across the
        stream like :meth:`base_distances`), and fault sets whose
        orphaned region the cost model deems small are served by
        patching instead of a full masked wave — bit-identical
        answers, counted under ``delta_hits`` / ``delta_fallbacks``.
        The patch-vs-wave decision is the default
        :class:`~repro.incremental.affected.CostModel`, kept as
        :attr:`delta_policy`.

    Notes
    -----
    All batch methods accept any iterable of fault sets (tuples, lists,
    or frozensets of edges in either orientation) and return results
    aligned with the input order.
    """

    def __init__(self, graph, memoize: int = 4096, delta: bool = True):
        self.graph = graph
        self.csr: CSRGraph = _snapshot_of(graph)
        self.weighted: bool = self.csr.weights is not None
        # The touch filter reads dist_t[x] as "distance from x to t",
        # which holds iff the weights are symmetric (always true for a
        # WeightedGraph snapshot; an adopted antisymmetric snapshot
        # from with_arc_weights must skip the filter, conservatively
        # treating every fault set as touching).
        self._symmetric_weights = (
            all(
                self.csr.weights[i] == self.csr.weights[j]
                for i, j in self.csr._arc_pos.values()
            ) if self.weighted else True
        )
        self._base_dist: Dict[int, Sequence[int]] = {}
        self._tree_index: Dict[int, TreeFaultIndex] = {}
        # Row cache: one bounded LRU of per-source distance vectors
        # keyed (s, F).  Pairs sharing (s, F) are answered by
        # indexing a cached vector instead of re-traversing.
        self._memo: "OrderedDict[Tuple, Sequence[int]]" = OrderedDict()
        self._memo_max = max(0, memoize)
        self.vector_hits = 0
        self.vector_misses = 0
        self.vector_evictions = 0
        # Incremental-delta state: per-source base SPT fault indices
        # (built lazily, or adopted via adopt_base_tree) and the
        # patch-vs-wave counters.
        self.delta_enabled = bool(delta)
        self.delta_policy = CostModel()
        self._delta_index: Dict[int, TreeFaultIndex] = {}
        # Sources declined once while cold — the warm-up bookkeeping
        # behind CostModel.build_worthwhile (bounded by n).
        self._delta_seen: Set[int] = set()
        self.delta_hits = 0
        self.delta_fallbacks = 0
        # Waves served per kernel backend (repro.backends) — surfaced
        # through cache_info() and the Session stats — and the backend
        # the latest wave and repair ran on, which the planner stamps
        # into provenance.
        self.wave_backends: Dict[str, int] = {}
        self.last_wave_backend: Optional[str] = None
        self.last_repair_backend: Optional[str] = None
        # Perturbed-weight state (weighted mode): snapshot per seed,
        # SSSP result per (seed, source) — the amortised substrate of
        # restore_via_middle_edge over a scenario stream.
        self._perturbed: Dict[int, Tuple[CSRGraph, int]] = {}
        self._perturbed_sssp: Dict[Tuple[int, int], Tuple] = {}
        # Reusable arc mask: zeroed at <= 2|F| positions per scenario
        # and restored afterwards, so per-scenario masking really is
        # O(|F|) (a fresh CSRFaultView would pay an O(m) buffer copy).
        self._scratch_mask = bytearray(b"\x01") * len(self.csr.indices)

    def _masked(self, faults: Iterable[Edge]):
        """The shared scratch mask with ``faults`` zeroed, then restored."""
        return _scratch_masked(self.csr, self._scratch_mask, faults)

    def _require_unweighted(self, what: str) -> None:
        if self.weighted:
            raise GraphError(
                f"{what} runs on hop distances and tiebreaking schemes; "
                f"it is not defined for a weighted engine"
            )

    def _require_weighted(self, what: str) -> None:
        if not self.weighted:
            raise GraphError(f"{what} requires a weighted engine")

    @property
    def symmetric_weights(self) -> bool:
        """True when ``dist(u, v) == dist(v, u)`` holds snapshot-wide.

        Always true on an unweighted engine (undirected hops) and on a
        ``WeightedGraph`` snapshot; false for an adopted antisymmetric
        snapshot built via ``with_arc_weights``.  The query planner
        consults this before waving a pair group from the target side.
        """
        return self._symmetric_weights

    def _memo_put(self, key: Tuple, row: Sequence[int]) -> None:
        """Insert a row into the LRU, evicting (and counting) overflow."""
        if not self._memo_max:
            return
        self._memo[key] = row
        self._memo.move_to_end(key)
        if len(self._memo) > self._memo_max:
            self._memo.popitem(last=False)
            self.vector_evictions += 1

    # ------------------------------------------------------------------
    # amortised base state
    # ------------------------------------------------------------------
    def base_distances(self, source: int) -> Sequence[int]:
        """Fault-free distances from ``source`` (computed once).

        Hop distances via array BFS on an unweighted engine (an
        ``array('i')`` row), exact weighted distances via the flat
        Dijkstra kernel on a weighted one (a list); either way a dense
        vector with ``UNREACHABLE`` (-1) where cut off.
        """
        cached = self._base_dist.get(source)
        if cached is None:
            if self.weighted:
                cached = csr_weighted_distances(self.csr, None, source)
            else:
                cached = csr_bfs_distances(self.csr, None, source)
            self._base_dist[source] = cached
        return cached

    def perturbed_csr(self, seed: int = 0) -> Tuple[CSRGraph, int]:
        """``(snapshot, scale)`` under perturbed-unique weights, per seed.

        Materialises :meth:`WeightedGraph.perturbed_weight
        <repro.weighted.graph.WeightedGraph.perturbed_weight>` into a
        flat (antisymmetric) per-arc array once per seed, so the
        middle-edge restoration sweep reads perturbed weights by index.
        """
        self._require_weighted("perturbed_csr")
        cached = self._perturbed.get(seed)
        if cached is None:
            perturbed = getattr(self.graph, "perturbed_weight", None)
            if perturbed is None:
                raise GraphError(
                    "perturbed_csr needs a WeightedGraph base "
                    "(got a bare weighted snapshot)"
                )
            arc_weight, scale = perturbed(seed=seed)
            cached = (self.csr.with_arc_weights(arc_weight), scale)
            self._perturbed[seed] = cached
        return cached

    def perturbed_sssp(self, source: int, seed: int = 0):
        """Cached ``(dist, parent)`` maps under perturbed weights."""
        key = (seed, source)
        cached = self._perturbed_sssp.get(key)
        if cached is None:
            pcsr, _ = self.perturbed_csr(seed)
            cached = csr_dijkstra_flat(pcsr, None, source)
            self._perturbed_sssp[key] = cached
        return cached

    def tree_index(self, tree) -> TreeFaultIndex:
        """The cached :class:`TreeFaultIndex` for a (scheme-cached) tree."""
        # Keyed by identity: schemes cache their trees, and the index
        # holds a strong reference, so the id stays valid while cached.
        cached = self._tree_index.get(id(tree))
        if cached is None or cached.tree is not tree:
            cached = TreeFaultIndex(tree)
            self._tree_index[id(tree)] = cached
        return cached

    def view(self, faults: Iterable[Edge]):
        """The O(|F|) arc-masked CSR view of ``G \\ F``."""
        return self.csr.without(faults)

    # ------------------------------------------------------------------
    # incremental deltas: patch base vectors instead of re-traversing
    # ------------------------------------------------------------------
    def base_tree_index(self, source: int) -> TreeFaultIndex:
        """The source's base-SPT :class:`TreeFaultIndex` (built once).

        The substrate of the delta path: a base shortest-path tree
        from ``source`` (deterministic BFS tree, or the flat-Dijkstra
        tree on a weighted engine) wrapped in subtree intervals, so a
        fault set's orphaned region reads off in O(|F| log |F|).
        Building costs one additional base-graph traversal per
        source, amortised across the scenario stream — which is why
        :meth:`try_delta` only builds for origins the cost model
        expects to repeat (``adopt_base_tree`` sidesteps the build
        entirely).
        """
        cached = self._delta_index.get(source)
        if cached is None:
            if self.weighted:
                dist, parent = csr_dijkstra_flat(self.csr, None, source)
                if source not in self._base_dist:
                    # The flat Dijkstra just produced exact base
                    # distances; render them dense rather than paying
                    # a second full traversal in base_distances.
                    dense = [UNREACHABLE] * self.csr.n
                    for v, d in dist.items():
                        dense[v] = d
                    self._base_dist[source] = dense
            else:
                parent = csr_bfs_tree(self.csr, None, source)
                base = self.base_distances(source)
                dist = {v: base[v] for v in parent}
            cached = TreeFaultIndex(
                ShortestPathTree(source, parent, dist)
            )
            self._delta_index[source] = cached
        return cached

    def adopt_base_tree(self, source: int, tree) -> None:
        """Adopt a caller-held SPT as ``source``'s delta index.

        Consumers that already paid for a shortest-path tree per
        source (a tiebreaking scheme, the DSO) can donate it instead
        of letting :meth:`base_tree_index` traverse again.  The tree
        is validated to be a genuine shortest-path tree of the base
        graph — every tree edge must exist and tighten the hop
        distance by exactly one, and the tree must reach every
        reachable vertex — because a stale or foreign tree would make
        the delta path silently patch the wrong region.  Unweighted
        engines only (a weighted engine derives its own SSSP tree).
        """
        self._require_unweighted("adopt_base_tree")
        if tree.root != source:
            raise GraphError(
                f"tree is rooted at {tree.root}, not at {source}"
            )
        base = self.base_distances(source)
        reached = 0
        for v in tree.vertices_by_hop():
            reached += 1
            p = tree.parent(v)
            if p is None:
                continue
            if not self.csr.has_edge(p, v) or base[v] != base[p] + 1:
                raise GraphError(
                    f"({p}, {v}) is not a tight edge of the base "
                    f"graph; refusing a non-shortest-path tree for "
                    f"source {source}"
                )
        if reached != sum(1 for d in base if d >= 0):
            raise GraphError(
                f"tree reaches {reached} vertices but {source} "
                f"reaches more in the base graph"
            )
        self._delta_index[source] = TreeFaultIndex(tree)

    def try_delta(self, source: int, faults: Iterable[Edge],
                  batch_hint: int = 1) -> Optional[Sequence[int]]:
        """The delta-patched ``(source, F)`` vector, or ``None``.

        Part of the planner protocol.  Reads the orphaned-region size
        off the base tree's subtree intervals and consults the
        engine's cost model: a small region is re-settled from its
        intact frontier by the repair kernels
        (:mod:`repro.incremental.repair`) — bit-identical to the full
        masked kernels, counted as a delta hit, and stored in the
        shared LRU vector cache like any waved vector — while a large
        one returns ``None`` (a counted fallback: the caller should
        traverse).  Returned vectors are read-only, like every cached
        vector.

        A *cold* origin (no base-tree index yet) is declined until
        the cost model's warm-up rule fires
        (:meth:`~repro.incremental.affected.CostModel.build_worthwhile`):
        building the index costs a full traversal — as much as the
        wave it would dodge — so the first faulted query per source
        rides the wave, and a large cold batch (``batch_hint`` =
        sources sharing the alternative wave's single sweep) keeps
        riding it; :meth:`adopt_base_tree` pre-warms for free.
        """
        if not self.delta_enabled:
            return None
        fault_key = _canonical(faults)
        if not fault_key:
            return self.base_distances(source)
        index = self._delta_index.get(source)
        if index is None:
            # Decline BEFORE touching base state: a declined origin
            # must cost dict lookups only, or a large cold batch
            # would pay one base traversal per source just to be told
            # to ride the shared wave.
            if not self.delta_policy.build_worthwhile(
                    source in self._delta_seen, batch_hint):
                self._delta_seen.add(source)
                self.delta_fallbacks += 1
                return None
            index = self.base_tree_index(source)
            self._delta_seen.discard(source)
        base = self.base_distances(source)
        region = affected_region(
            index, self.csr.n, source, fault_key,
            self.delta_policy, batch_hint=batch_hint,
        )
        if not region.patch:
            self.delta_fallbacks += 1
            return None
        kernel = ("csr_dijkstra_repair" if self.weighted
                  else "csr_bfs_repair")
        orphans = list(region.orphans)
        backend = backend_for(kernel, self.csr, batch=len(orphans))
        self.last_repair_backend = backend.name
        repair = getattr(backend, kernel)
        # Per-repair observability seam, same contract as _wave's.
        t0 = perf_counter() if _obs.ENABLED else 0.0
        with self._masked(fault_key) as mask:
            patched, _changed = repair(self.csr, mask, base, orphans)
        if _obs.ENABLED:
            dt = perf_counter() - t0
            _obs.observe("repro_delta_repair_seconds", dt,
                         kernel=kernel, backend=backend.name)
            _obs.inc("repro_delta_repairs_total",
                     kernel=kernel, backend=backend.name)
            _obs.emit_span("delta_repair", dt, kernel=kernel,
                           backend=backend.name, orphans=len(orphans))
        self.delta_hits += 1
        self._memo_put((source, fault_key), patched)
        return patched

    # ------------------------------------------------------------------
    # replacement-path queries
    # ------------------------------------------------------------------
    def faults_touch_pair(self, s: int, t: int,
                          faults: Iterable[Edge]) -> bool:
        """Could ``faults`` change ``dist(s, t)``?  O(|F|), no false negatives.

        An edge lies on some shortest ``s ~> t`` path iff one of its
        orientations satisfies ``d_s(u) + w(u, v) + d_t(v) == d_s(t)``
        (``w = 1`` on an unweighted engine); a fault set touching no
        such edge leaves the distance unchanged.  On the unweighted
        path, edges absent from the graph may pass the arithmetic test
        — that only costs a redundant BFS, never a wrong answer; the
        weighted path looks the weight up by arc position, so absent
        edges are skipped exactly.

        The test reads ``dist_t[x]`` as the ``x -> t`` distance, which
        requires symmetric weights; over an antisymmetric snapshot the
        filter degrades to "always touches" (still no false
        negatives, just no skipping).
        """
        if not self.csr.has_vertex(t):
            raise GraphError(f"unknown target vertex {t}")
        if not self._symmetric_weights:
            return True
        dist_s = self.base_distances(s)
        dist_t = self.base_distances(t)
        base = dist_s[t]
        if base == UNREACHABLE:
            return False
        n = self.csr.n
        if self.weighted:
            weights = self.csr.weights
            for u, v in faults:
                if u == v or not (0 <= u < n and 0 <= v < n):
                    continue  # tolerated, like without()
                pos = self.csr.arc_positions(u, v)
                if pos is None:
                    continue  # absent edge cannot touch any path
                a, b = canonical_edge(u, v)
                da, db = dist_s[a], dist_s[b]
                ta, tb = dist_t[a], dist_t[b]
                if (da != UNREACHABLE and tb != UNREACHABLE
                        and da + weights[pos[0]] + tb == base):
                    return True
                if (db != UNREACHABLE and ta != UNREACHABLE
                        and db + weights[pos[1]] + ta == base):
                    return True
            return False
        for u, v in faults:
            if not (0 <= u < n and 0 <= v < n):
                continue  # absent edges are tolerated, like without()
            du, dv = dist_s[u], dist_s[v]
            tu, tv = dist_t[u], dist_t[v]
            if du != UNREACHABLE and tv != UNREACHABLE and du + 1 + tv == base:
                return True
            if dv != UNREACHABLE and tu != UNREACHABLE and dv + 1 + tu == base:
                return True
        return False

    # ------------------------------------------------------------------
    # the planner protocol: counted peeks
    # ------------------------------------------------------------------
    def peek_vector(self, source: int,
                    faults: Iterable[Edge]) -> Optional[Sequence[int]]:
        """The cached (read-only) ``(source, F)`` vector, or ``None``.

        A hit is counted; a miss is silent — misses are only counted
        by the wave that actually traverses (:meth:`source_vectors`).
        The fault-free vector comes from the unbounded base-distance
        cache (uncounted, like the fault-free path of
        :meth:`source_vectors`).
        """
        fault_key = _canonical(faults)
        if not fault_key:
            return self._base_dist.get(source)
        key = (source, fault_key)
        cached = self._memo.get(key)
        if cached is None:
            return None
        self.vector_hits += 1
        self._memo.move_to_end(key)
        return cached

    def peek_any_vector(self, faults: Iterable[Edge]
                        ) -> Optional[Sequence[int]]:
        """*Any* cached vector under this fault set, or ``None``.

        For source-agnostic questions (connectivity of ``G \\ F``):
        scans the LRU for the fault key (bounded by ``maxsize``, far
        cheaper than the traversal it saves) and counts a hit like
        :meth:`peek_vector`; misses are silent.
        """
        fault_key = _canonical(faults)
        if not fault_key:
            return next(iter(self._base_dist.values()), None)
        found = next(
            (key for key in self._memo if key[1] == fault_key), None
        )
        if found is None:
            return None
        self.vector_hits += 1
        self._memo.move_to_end(found)
        return self._memo[found]

    def cache_info(self) -> CacheInfo:
        """A frozen :class:`CacheInfo` snapshot of the row cache.

        Attribute access (``info.vector_hits``) is canonical; the
        mapping idiom (``info["vector_hits"]``, ``dict(info)``) keeps
        working via :class:`CacheInfo`'s ``__getitem__`` / ``keys``.
        When :mod:`repro.obs` is enabled, the snapshot is also
        mirrored into the metrics registry (see
        :meth:`CacheInfo.publish`).
        """
        info = CacheInfo(
            vector_hits=self.vector_hits,
            vector_misses=self.vector_misses,
            vector_evictions=self.vector_evictions,
            delta_hits=self.delta_hits,
            delta_fallbacks=self.delta_fallbacks,
            size=len(self._memo),
            maxsize=self._memo_max,
            wave_backends=tuple(sorted(self.wave_backends.items())),
        )
        info.publish()
        return info

    # ------------------------------------------------------------------
    # kernel-backend seam
    # ------------------------------------------------------------------
    def _wave(self, mask: Optional[bytearray],
              sources: List[int]) -> List[Sequence[int]]:
        """One batched multi-source wave through the backend seam.

        Resolves the batched kernel for this engine (weighted or hop)
        via :func:`repro.backends.dispatch.backend_for`, records the
        serving backend as :attr:`last_wave_backend` and in the
        :attr:`wave_backends` tally, and returns the distance rows
        aligned with ``sources``.
        """
        kernel = ("csr_weighted_distances_many" if self.weighted
                  else "csr_bfs_distances_many")
        backend = backend_for(kernel, self.csr, batch=len(sources))
        name = backend.name
        self.last_wave_backend = name
        self.wave_backends[name] = self.wave_backends.get(name, 0) + 1
        # The per-wave observability seam: one guarded branch when
        # disabled (the obs overhead contract), one histogram/counter/
        # span record per *wave* — never per arc — when enabled.
        t0 = perf_counter() if _obs.ENABLED else 0.0
        rows: List[Sequence[int]] = getattr(backend, kernel)(
            self.csr, mask, sources)
        if _obs.ENABLED:
            dt = perf_counter() - t0
            _obs.observe("repro_wave_seconds", dt,
                         kernel=kernel, backend=name)
            _obs.inc("repro_waves_total", kernel=kernel, backend=name)
            _obs.observe("repro_wave_batch_size", float(len(sources)),
                         kernel=kernel, backend=name)
            _obs.emit_span("wave", dt, kernel=kernel, backend=name,
                           batch=len(sources))
        return rows

    def __repr__(self) -> str:
        return (
            f"ScenarioEngine(n={self.csr.n}, m={self.csr.m}, "
            f"weighted={self.weighted}, "
            f"vectors={self.vector_hits}h/{self.vector_misses}m/"
            f"{self.vector_evictions}e, "
            f"delta={self.delta_hits}h/{self.delta_fallbacks}f)"
        )

    def source_vectors(self, sources: Iterable[int],
                       faults: Iterable[Edge] = ()) -> List[Sequence[int]]:
        """Distance vectors for many sources under *one* fault set.

        The many-source primitive — the cache, then one wave: sources
        in the per-``(source, F)`` vector cache are answered without
        traversing, and every other source joins a single batched wave
        (:func:`~repro.spt.batched.csr_bfs_distances_many`, or its
        weighted sibling) under one shared arc mask, so one sweep over
        the arc array serves the whole batch.  Results align with the
        input order (duplicates included, served once).  The delta
        path is not offered here: the planner runs :meth:`try_delta`
        on its wave starts before it calls this method.  Afterwards
        :attr:`last_wave_backend` names the backend of this call's
        wave, or is ``None`` when every row came from a cache.

        Returned vectors are **read-only**: they may be shared with the
        engine's caches and with other callers.
        """
        self.last_wave_backend = None
        sources = list(sources)
        fault_key = _canonical(faults)
        if not fault_key:
            # The fault-free batch shares the unbounded base-distance
            # cache instead of churning the LRU.
            missing = [s for s in dict.fromkeys(sources)
                       if s not in self._base_dist]
            if missing:
                rows = self._wave(None, missing)
                self._base_dist.update(zip(missing, rows))
            return [self.base_distances(s) for s in sources]
        out: List[Optional[Sequence[int]]] = [None] * len(sources)
        pending: Dict[int, List[int]] = {}
        memo_get = self._memo.get
        for i, s in enumerate(sources):
            if s in pending:
                pending[s].append(i)
                continue
            key = (s, fault_key)
            cached = memo_get(key)
            if cached is not None:
                self.vector_hits += 1
                self._memo.move_to_end(key)
                out[i] = cached
                continue
            # One index list per *distinct* uncached source — allocation
            # proportional to the output, not to the loop trip count.
            pending[s] = [i]  # reprolint: disable=hot-loop-alloc
        if pending:
            # Misses count the sources the wave traverses, matching
            # peek_vector's documented contract.
            if self._memo_max:
                self.vector_misses += len(pending)
            waving = list(pending)
            with self._masked(fault_key) as mask:
                rows = self._wave(mask, waving)
            memo_put = self._memo_put
            for s, row in zip(waving, rows):
                memo_put((s, fault_key), row)
                for i in pending[s]:
                    out[i] = row
        return out

    def source_vector(self, source: int,
                      faults: Iterable[Edge] = ()) -> Sequence[int]:
        """The cached (read-only) distance vector of one ``(s, F)``."""
        return self.source_vectors([source], faults)[0]

    # ------------------------------------------------------------------
    # midpoint scans
    # ------------------------------------------------------------------
    def midpoint_scan(self, scheme, s: int, t: int,
                      faults: Iterable[Edge],
                      subset: Iterable[Edge] = ()):
        """Batched-state variant of
        :func:`repro.core.restoration.midpoint_scan`.

        Delegates to the core scan (one implementation, identical
        results) but injects the engine's cached
        :class:`TreeFaultIndex` lookup as the fault-free-vertices
        provider, so consecutive scenarios against the same pair share
        all tree work.
        """
        self._require_unweighted("midpoint_scan")
        from repro.core.restoration import midpoint_scan

        return midpoint_scan(
            scheme, s, t, faults, subset,
            fault_free=lambda tree, remaining:
                self.tree_index(tree).fault_free_vertices(remaining),
        )

    # ------------------------------------------------------------------
    # preserver queries
    # ------------------------------------------------------------------
    def preserver_violations(self, preserver_edges: Iterable[Edge],
                             sources: Iterable[int],
                             scenarios: Iterable[Iterable[Edge]],
                             targets: Optional[Iterable[int]] = None
                             ) -> List[Tuple]:
        """Batched Definition-4 check of ``H ⊆ G`` over a scenario stream.

        Same output shape as
        :func:`repro.preservers.verification.preserver_violations`:
        ``(faults, s, t, dist_G, dist_H)`` tuples, empty when ``H``
        preserves every queried distance in every scenario.  Both
        ``G \\ F`` and ``H \\ F`` run on CSR snapshots built once, and
        per scenario each snapshot is swept by **one** bit-packed
        multi-source wave serving the whole source set, instead of one
        BFS per source.
        """
        self._require_unweighted("preserver_violations")
        source_list = sorted(set(sources))
        target_list = (
            sorted(set(targets)) if targets is not None else source_list
        )
        sub = Graph(self.csr.n)
        for u, v in preserver_edges:
            sub.add_edge(u, v)
        sub_csr = sub.csr()
        sub_scratch = bytearray(b"\x01") * len(sub_csr.indices)
        bad: List[Tuple] = []
        for faults in scenarios:
            faults = _canonical(faults)
            with self._masked(faults) as g_mask, \
                    _scratch_masked(sub_csr, sub_scratch, faults) as h_mask:
                g_rows = csr_bfs_distances_many(self.csr, g_mask,
                                                source_list)
                h_rows = csr_bfs_distances_many(sub_csr, h_mask,
                                                source_list)
            for s, dist_g, dist_h in zip(source_list, g_rows, h_rows):
                for t in target_list:
                    if t != s and dist_g[t] != dist_h[t]:
                        bad.append((faults, s, t, dist_g[t], dist_h[t]))
        return bad
