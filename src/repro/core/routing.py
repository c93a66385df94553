"""Routing tables and MPLS-style restoration (Sections 1-2).

A consistent tiebreaking scheme can be encoded as a *routing table*: a
matrix whose ``(s, t)`` entry holds the next hop on the selected
``s ~> t`` path (Section 2, second bullet).  :class:`RoutingTable`
builds that matrix from any consistent scheme and routes by repeated
next-hop lookup.

:class:`MplsRouter` is the application sketched in the introduction:
carry *two* tables — one for the scheme ``pi`` and one for its reverse
``pi-bar`` — and restore a failed path by scanning midpoints ``x`` and
concatenating the ``s ~> x`` route from the first table with the
``x ~> t`` route from the second, accepting the shortest concatenation
that avoids the fault.  With a restorable scheme this label-switching
procedure is guaranteed to find a true replacement shortest path
(Theorem 2); no shortest-path recomputation happens at restore time.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.exceptions import DisconnectedError, GraphError, RestorationError
from repro.graphs.base import Edge, canonical_edge
from repro.spt.bfs import UNREACHABLE, bfs_distances
from repro.spt.paths import Path, join_at_midpoint


class RoutingTable:
    """Next-hop matrix encoding of a consistent tiebreaking scheme.

    ``table.next_hop(s, t)`` is the vertex after ``s`` on the selected
    ``s ~> t`` path, or ``None`` when ``s == t`` or ``t`` is
    unreachable.  ``route(s, t)`` replays hops to rebuild the full path;
    with a consistent scheme this reproduces ``scheme.path(s, t)``
    exactly (the converse direction the paper highlights).
    """

    def __init__(self, next_hops: Dict[Tuple[int, int], int], n: int):
        self._next = dict(next_hops)
        self._n = n

    @classmethod
    def from_scheme(cls, scheme) -> "RoutingTable":
        """Materialise the table from any scheme with ``tree()``.

        Note the construction consults only the per-source trees —
        exactly the information a router per source would hold.
        """
        graph = scheme.graph
        next_hops: Dict[Tuple[int, int], int] = {}
        for s in graph.vertices():
            tree = scheme.tree(s)
            for t in tree.reached_vertices():
                if t != s:
                    next_hops[(s, t)] = tree.next_hop(t)
        return cls(next_hops, graph.n)

    @property
    def n(self) -> int:
        return self._n

    def next_hop(self, s: int, t: int) -> Optional[int]:
        if s == t:
            return None
        return self._next.get((s, t))

    def route(self, s: int, t: int) -> Path:
        """Rebuild the full selected path by chaining next hops."""
        hops = [s]
        current = s
        seen = {s}
        while current != t:
            step = self.next_hop(current, t)
            if step is None:
                raise DisconnectedError(s, t)
            if step in seen:
                raise GraphError(
                    f"routing loop at {step} while routing {s} -> {t}; "
                    "the source scheme was not consistent"
                )
            seen.add(step)
            hops.append(step)
            current = step
        return Path(hops)

    def entries(self) -> int:
        """Number of populated (s, t) cells."""
        return len(self._next)

    def diff(self, other: "RoutingTable") -> Dict[Tuple[int, int], Tuple]:
        """Cells that differ between two tables: ``{(s,t): (old, new)}``.

        ``None`` marks an absent cell (unreachable destination).
        """
        changed: Dict[Tuple[int, int], Tuple] = {}
        keys = set(self._next) | set(other._next)
        for key in keys:
            old = self._next.get(key)
            new = other._next.get(key)
            if old != new:
                changed[key] = (old, new)
        return changed

    def __repr__(self) -> str:
        return f"RoutingTable(n={self._n}, entries={len(self._next)})"


def fault_patch(scheme, fault: Edge) -> Dict[Tuple[int, int], Tuple]:
    """The routing-table delta a single link failure requires.

    The paper's motivation asks for restoration with "easy-to-implement
    changes to the routing table".  With a *stable* scheme the patch is
    exactly the cells whose selected path used the failed edge — this
    function computes it as the diff between the fault-free table and
    the table of ``pi(.,.|e)``, and the test-suite confirms stability
    keeps every untouched-path cell out of the patch.

    Returns ``{(s, t): (old_next_hop, new_next_hop)}`` (``None`` =
    destination now unreachable).
    """
    fault = canonical_edge(*fault)
    graph = scheme.graph
    before: Dict[Tuple[int, int], int] = {}
    after: Dict[Tuple[int, int], int] = {}
    for s in graph.vertices():
        tree0 = scheme.tree(s)
        tree1 = scheme.tree(s, [fault])
        for t in tree0.reached_vertices():
            if t != s:
                before[(s, t)] = tree0.next_hop(t)
        for t in tree1.reached_vertices():
            if t != s:
                after[(s, t)] = tree1.next_hop(t)
    table_before = RoutingTable(before, graph.n)
    table_after = RoutingTable(after, graph.n)
    return table_before.diff(table_after)


class MplsRouter:
    """Two-table MPLS restoration per the paper's introduction.

    Parameters
    ----------
    scheme:
        A tiebreaking scheme (restorable for guaranteed success).  Two
        artifacts are precomputed from its non-faulty selections only:
        the forward routing table for ``pi`` and, for each destination
        ``x``, the selected-path hop distances — the contents of the
        second ("reverse") table ``pi-bar(x, t) = reverse(pi(t, x))``.

    At restore time the router never re-runs a shortest-path algorithm:
    it scans midpoints, filters those whose two table paths avoid the
    fault, and label-switches the concatenation.
    """

    def __init__(self, scheme):
        self._scheme = scheme
        self._graph = scheme.graph
        # pi(s, x) for all s, x — the forward table's path store; the
        # reverse table pi-bar is read as reversed forward paths.
        self._trees = {
            s: scheme.tree(s) for s in self._graph.vertices()
        }

    @property
    def graph(self):
        return self._graph

    def primary_path(self, s: int, t: int) -> Path:
        """The working (pre-fault) selected ``s ~> t`` path."""
        tree = self._trees[s]
        if not tree.reaches(t):
            raise DisconnectedError(s, t)
        return tree.path_to(t)

    def restore(self, s: int, t: int, failed_edge: Edge) -> Path:
        """Reroute ``s ~> t`` around one failed edge by concatenation.

        Scans midpoints ``x``; accepts the shortest concatenation
        ``pi(s, x) . pi-bar(x, t)`` avoiding the fault, then validates
        it is a true replacement shortest path.  Raises
        :class:`RestorationError` if the scan's best is suboptimal —
        which Theorem 2 rules out for restorable schemes.
        """
        failed = canonical_edge(*failed_edge)
        primary = self.primary_path(s, t)
        if not primary.uses_edge(failed):
            return primary  # nothing failed on the working path
        view = self._graph.without([failed])
        target = bfs_distances(view, s)[t]
        if target == UNREACHABLE:
            raise DisconnectedError(s, t, [failed])

        from repro.core.restoration import tree_fault_free_vertices

        good_s = tree_fault_free_vertices(self._trees[s], [failed])
        good_t = tree_fault_free_vertices(self._trees[t], [failed])
        candidates = good_s & good_t
        if not candidates:
            raise RestorationError(
                f"no midpoint survives fault {failed} for {s} -> {t}"
            )
        best = min(
            candidates,
            key=lambda x: (
                self._trees[s].hop_distance(x)
                + self._trees[t].hop_distance(x),
                x,
            ),
        )
        path = join_at_midpoint(
            self._trees[s].path_to(best), self._trees[t].path_to(best)
        )
        if path.hops != target:
            raise RestorationError(
                f"concatenation for {s} -> {t} under {failed} has "
                f"{path.hops} hops but replacement distance is {target}; "
                "the scheme is not restorable"
            )
        return path

    def restore_all_on_path(self, s: int, t: int) -> Dict[Edge, Path]:
        """Replacement path for every edge of the working ``s ~> t`` path.

        The single-pair replacement-paths workload, answered purely from
        the routing tables.
        """
        primary = self.primary_path(s, t)
        out: Dict[Edge, Path] = {}
        for edge in primary.edges():
            try:
                out[edge] = self.restore(s, t, edge)
            except DisconnectedError:
                continue
        return out

    def __repr__(self) -> str:
        return f"MplsRouter(n={self._graph.n}, scheme={self._scheme.name})"
