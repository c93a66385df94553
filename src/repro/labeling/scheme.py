"""Fault-tolerant exact distance labels (Theorem 30).

The construction is the paper's: the label of vertex ``v`` is an
explicit encoding of the edges of an f-FT ``{v} x V`` preserver built
with a restorable RPTS.  To answer ``dist_{G \\ F}(s, t)`` for
``|F| <= f + 1``, union the two decoded preservers, delete ``F``, and
run BFS — restorability guarantees some optimal replacement path is the
concatenation of a path in ``s``'s preserver and a path in ``t``'s
preserver, so the union preserves the distance (proof of Theorem 30).

Labels are genuine bitstrings: each edge is packed into
``2 * ceil(log2 n)`` bits, preceded by a fixed-width header (vertex id
and edge count).  :meth:`VertexLabel.bits` is therefore an honest
measurement of the ``O(n^{2-1/2^f} log n)`` bound that
``bench_thm30_labels`` tabulates.  Decoding uses *only* the label —
the query path never touches the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import LabelingError
from repro.graphs.base import Edge, Graph, canonical_edge
from repro.core.scheme import RestorableTiebreaking
from repro.preservers.ft_bfs import ft_sv_preserver
from repro.spt.bfs import bfs_distances


def _bits_for(n: int) -> int:
    """Bits needed to address one of ``n`` vertices."""
    return max(1, (n - 1).bit_length())


class _BitWriter:
    """Append-only bit buffer with fixed-width integer writes."""

    def __init__(self):
        self._value = 0
        self._bits = 0

    def write(self, value: int, width: int) -> None:
        if value < 0 or value >= (1 << width):
            raise LabelingError(f"{value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._bits += width

    def to_bytes(self) -> Tuple[bytes, int]:
        nbytes = (self._bits + 7) // 8
        padded = self._value << (nbytes * 8 - self._bits)
        return padded.to_bytes(nbytes, "big"), self._bits


class _BitReader:
    """Sequential fixed-width reads over a packed bit buffer."""

    def __init__(self, data: bytes, total_bits: int):
        self._value = int.from_bytes(data, "big") >> (
            len(data) * 8 - total_bits if data else 0
        )
        self._remaining = total_bits

    def read(self, width: int) -> int:
        if width > self._remaining:
            raise LabelingError("label truncated")
        self._remaining -= width
        return (self._value >> self._remaining) & ((1 << width) - 1)


@dataclass(frozen=True)
class VertexLabel:
    """One vertex's label: a packed bitstring plus its bit length."""

    vertex: int
    data: bytes
    bits: int

    @classmethod
    def encode(cls, vertex: int, n: int, edges: Iterable[Edge]
               ) -> "VertexLabel":
        """Pack ``(vertex, n, |E_H|, E_H)`` into a bitstring."""
        edge_list = sorted(edges)
        width = _bits_for(n)
        writer = _BitWriter()
        writer.write(n, 32)
        writer.write(vertex, width)
        writer.write(len(edge_list), 32)
        for u, v in edge_list:
            writer.write(u, width)
            writer.write(v, width)
        data, bits = writer.to_bytes()
        return cls(vertex=vertex, data=data, bits=bits)

    def decode(self) -> Tuple[int, int, List[Edge]]:
        """Unpack to ``(n, vertex, edges)`` — label-only, no graph."""
        reader = _BitReader(self.data, self.bits)
        n = reader.read(32)
        width = _bits_for(n)
        vertex = reader.read(width)
        count = reader.read(32)
        edges = []
        for _ in range(count):
            u = reader.read(width)
            v = reader.read(width)
            edges.append((u, v))
        return n, vertex, edges


class DistanceLabeling:
    """An (f+1)-FT exact distance labeling of one graph (Theorem 30).

    Build once with :meth:`build`; query with the *static* method
    :meth:`query`, which sees only two labels and the fault set —
    faithfully modelling the distributed-label setting (the instance
    itself is just a label store).
    """

    def __init__(self, labels: Dict[int, VertexLabel], f: int):
        self._labels = dict(labels)
        self._f = f

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Graph, f: int = 0, seed: int = 0,
              scheme: Optional[RestorableTiebreaking] = None,
              max_fault_sets: Optional[int] = None) -> "DistanceLabeling":
        """Label every vertex of ``graph`` against ``f + 1`` faults.

        ``f`` is the overlay depth: the label of ``v`` encodes an f-FT
        ``{v} x V`` preserver, and queries tolerate ``|F| <= f + 1``.
        """
        if scheme is None:
            scheme = RestorableTiebreaking.build(graph, f=f + 1, seed=seed)
        labels: Dict[int, VertexLabel] = {}
        for v in graph.vertices():
            preserver = ft_sv_preserver(
                scheme, [v], f, max_fault_sets=max_fault_sets
            )
            labels[v] = VertexLabel.encode(v, graph.n, preserver.edges)
        return cls(labels, f)

    # ------------------------------------------------------------------
    @property
    def faults_tolerated(self) -> int:
        """Queries are exact for fault sets up to this size."""
        return self._f + 1

    def label(self, v: int) -> VertexLabel:
        if v not in self._labels:
            raise LabelingError(f"no label for vertex {v}")
        return self._labels[v]

    def label_bits(self, v: int) -> int:
        return self.label(v).bits

    def max_label_bits(self) -> int:
        """The scheme's label size — the quantity Theorem 30 bounds."""
        return max(label.bits for label in self._labels.values())

    def total_bits(self) -> int:
        return sum(label.bits for label in self._labels.values())

    # ------------------------------------------------------------------
    @staticmethod
    def query(label_s: VertexLabel, label_t: VertexLabel,
              faults: Iterable[Edge] = ()) -> int:
        """``dist_{G \\ F}(s, t)`` from the two labels alone.

        Decodes both preservers, unions them, removes ``F``, and runs
        BFS.  Returns ``-1`` when the faults disconnect the pair.
        """
        n_s, s, edges_s = label_s.decode()
        n_t, t, edges_t = label_t.decode()
        if n_s != n_t:
            raise LabelingError(
                f"labels from different graphs (n={n_s} vs n={n_t})"
            )
        fault_set = {canonical_edge(u, v) for u, v in faults}
        union = Graph(n_s)
        for u, v in edges_s:
            if canonical_edge(u, v) not in fault_set:
                union.add_edge(u, v)
        for u, v in edges_t:
            if canonical_edge(u, v) not in fault_set:
                union.add_edge(u, v)
        return bfs_distances(union, s)[t]

    def distance(self, s: int, t: int, faults: Iterable[Edge] = ()) -> int:
        """Instance-level convenience wrapper around :meth:`query`."""
        if s == t:
            return 0
        return self.query(self.label(s), self.label(t), faults)

    def __repr__(self) -> str:
        return (
            f"DistanceLabeling(vertices={len(self._labels)}, "
            f"faults_tolerated={self.faults_tolerated}, "
            f"max_bits={self.max_label_bits()})"
        )
