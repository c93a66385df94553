"""The kernel-backend protocol and the one optional-numpy gate.

A *kernel backend* is an object exposing the hot-kernel surface of the
CSR scenario stack — the single-source traversals of
:mod:`repro.spt.fastpaths`, the batched waves of
:mod:`repro.spt.batched`, and the delta-repair kernels of
:mod:`repro.incremental.repair` — as attributes with identical
signatures and **bit-identical** results (exact int distances, the
``UNREACHABLE`` sentinel, the documented parent tie-breaks).  The
public kernel entry points stay where they always were; each is now a
thin wrapper that asks :mod:`repro.backends.dispatch` which backend
should serve the call.

Two backends are registered:

* ``pyloops`` (:mod:`repro.backends.pyloops`) — the existing
  pure-Python loops.  Always available; stays the cross-checked
  reference implementation.
* ``vectorized`` (:mod:`repro.backends.vectorized`) — numpy kernels
  over the snapshot's cached ndarray mirrors.  Available only when
  numpy is importable; the dispatcher falls back to ``pyloops``
  otherwise.

numpy is an *optional* dependency (``pip install repro[numpy]``), and
:func:`numpy_or_none` is the single place that decides whether it is
available — every consumer (the vectorized backend, the dispatcher,
``analysis/bounds``) goes through it.  Setting the ``REPRO_NO_NUMPY``
environment variable to a non-empty value other than ``"0"`` makes it
report numpy as absent, which is how the no-numpy CI leg and the
fallback tests simulate an uninstalled numpy in-process.
"""

from __future__ import annotations

import os
from array import array
from typing import (
    Any, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple,
    TypeAlias, Union,
)

from repro.exceptions import GraphError
from repro.graphs.csr import CSRGraph

__all__ = [
    "UNREACHABLE",
    "HopRow",
    "KERNEL_NAMES",
    "KernelBackend",
    "check_source",
    "numpy_or_none",
    "row_eccentricity",
]

#: Sentinel distance for unreachable vertices — must match
#: ``repro.spt.fastpaths.UNREACHABLE`` (asserted by the test suite;
#: duplicated here because backends sit *below* ``spt`` in the layer
#: DAG and cannot import upward at module level).
UNREACHABLE = -1

#: A dense hop-distance row: ``array('i')``, 4 bytes a slot, as every
#: hop kernel returns it (weighted rows stay Python lists, whose ints
#: are unbounded).  A string, because ``array`` is not subscriptable
#: at runtime.
HopRow: TypeAlias = "array[int]"

#: Every kernel a backend must serve, i.e. the attribute surface of
#: :class:`KernelBackend`.  The dispatcher uses these names to resolve
#: kernels; the protocol-conformance test iterates them.
KERNEL_NAMES: Tuple[str, ...] = (
    "csr_bfs_distances",
    "csr_weighted_distances",
    "csr_dijkstra_flat",
    "csr_bfs_distances_many",
    "csr_weighted_distances_many",
    "csr_dijkstra_flat_many",
    "csr_bfs_repair",
    "csr_dijkstra_repair",
)


def check_source(csr: CSRGraph, source: int, role: str = "source") -> None:
    """Shared source-vertex validation for backend kernels."""
    if not csr.has_vertex(source):
        raise GraphError(f"unknown {role} vertex {source}")


def numpy_or_none() -> Optional[Any]:
    """The ``numpy`` module, or ``None`` when it is unavailable.

    The one gate for the optional dependency: returns ``None`` when
    numpy is not importable *or* when the ``REPRO_NO_NUMPY``
    environment variable is set to a non-empty value other than
    ``"0"`` (the in-process absence simulation used by tests and the
    no-numpy CI leg).  Import failures are probed once per process;
    the environment override is re-read on every call so tests can
    flip it with ``monkeypatch``.
    """
    flag = os.environ.get("REPRO_NO_NUMPY", "")
    if flag and flag != "0":
        return None
    return _import_numpy()


_NUMPY_PROBE: List[Any] = []


def _import_numpy() -> Optional[Any]:
    if not _NUMPY_PROBE:
        try:
            import numpy
        except ImportError:
            numpy = None  # type: ignore[assignment]
        _NUMPY_PROBE.append(numpy)
    return _NUMPY_PROBE[0]


#: ``UNREACHABLE`` in a hop row's slot read as an unsigned C int.
_CUT_OFF = (1 << 8 * array("i").itemsize) - 1


def row_eccentricity(row: Sequence[int]) -> int:
    """``UNREACHABLE`` if ``row`` holds it, else its largest entry.

    The one reduction behind eccentricity and connectivity answers
    (connected iff the result is not ``UNREACHABLE``).  A hop row is
    reduced in C by numpy, in one pass: hop rows hold depths ``>= 0``
    or ``UNREACHABLE``, and read as unsigned C ints (``np.uintc``, the
    item size of typecode ``'i'``) the ``UNREACHABLE`` slots become
    the largest value, so a single ``maximum.reduce`` finds both the
    cut-off and the eccentricity.  The reduction uses numpy only once
    the process has loaded it (any vectorized kernel does): like the
    dispatcher's small calls, it never pays numpy's import itself.
    Any other row (a weighted list, or any row before numpy is
    loaded or without it) takes the Python scan.  Returns a Python
    ``int`` either way, so answers pickle exactly as before.  ``row``
    must be non-empty.
    """
    np = numpy_or_none() if _NUMPY_PROBE else None
    if np is not None and isinstance(row, array) and row.typecode == "i":
        top = int(np.maximum.reduce(np.frombuffer(row, dtype=np.uintc)))
        return UNREACHABLE if top == _CUT_OFF else top
    return UNREACHABLE if UNREACHABLE in row else max(row)


class KernelBackend(Protocol):
    """Structural type of a kernel backend.

    Signatures and result shapes mirror the public entry points in
    :mod:`repro.spt.fastpaths`, :mod:`repro.spt.batched` and
    :mod:`repro.incremental.repair`; see those modules for the full
    semantics.  Two deliberate restrictions keep the surface
    backend-friendly:

    * ``csr_dijkstra_flat`` takes no ``targets`` early-exit parameter —
      early exit is inherently sequential, so the public wrapper always
      routes targeted calls to the pure-Python loops.
    * ``sources`` / ``orphans`` arrive as concrete lists (the public
      wrappers materialise iterables once, to measure the batch width
      for dispatch).

    Hop kernels return every dense row as a :data:`HopRow`
    (``array('i')``); weighted kernels return lists.
    ``csr_bfs_distances_many`` has one reduction mode:
    ``eccentricity=True`` returns each source's
    :func:`row_eccentricity` as an ``int`` and builds no row.
    """

    name: str

    def csr_bfs_distances(self, csr: CSRGraph, mask: Optional[bytearray],
                          source: int) -> HopRow:
        ...

    def csr_weighted_distances(self, csr: CSRGraph,
                               mask: Optional[bytearray],
                               source: int) -> List[int]:
        ...

    def csr_dijkstra_flat(self, csr: CSRGraph, mask: Optional[bytearray],
                          source: int
                          ) -> Tuple[Dict[int, int],
                                     Dict[int, Optional[int]]]:
        ...

    def csr_bfs_distances_many(self, csr: CSRGraph,
                               mask: Optional[bytearray],
                               sources: Iterable[int],
                               eccentricity: bool = False
                               ) -> Union[List[HopRow], List[int]]:
        ...

    def csr_weighted_distances_many(self, csr: CSRGraph,
                                    mask: Optional[bytearray],
                                    sources: Iterable[int]
                                    ) -> List[List[int]]:
        ...

    def csr_dijkstra_flat_many(self, csr: CSRGraph,
                               mask: Optional[bytearray],
                               sources: Iterable[int]
                               ) -> List[Tuple[Dict[int, int],
                                               Dict[int, Optional[int]]]]:
        ...

    def csr_bfs_repair(self, csr: CSRGraph, mask: Optional[bytearray],
                       base: Sequence[int], orphans: Iterable[int]
                       ) -> Tuple[HopRow, List[int]]:
        ...

    def csr_dijkstra_repair(self, csr: CSRGraph, mask: Optional[bytearray],
                            base: List[int], orphans: Iterable[int]
                            ) -> Tuple[List[int], List[int]]:
        ...
