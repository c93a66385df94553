"""Per-call backend selection from one measured work-size table.

The public kernel entry points (``spt/fastpaths``, ``spt/batched``,
``incremental/repair``) each ask :func:`backend_for` which backend
should serve a call, passing the snapshot and the batch width.  The
decision, in precedence order:

1. **Pin** — :func:`set_backend` ``("pyloops" | "vectorized")`` pins
   the process; ``set_backend(None)`` (or ``"auto"``) clears the pin.
2. **Auto** (the default) — ``pyloops`` when numpy is unavailable;
   otherwise the *work* of the call (arcs × batch width, scaled to
   the touched region for repair kernels) is compared against the
   kernel's entry in :data:`THRESHOLDS`: ndarray dispatch overhead
   dominates tiny calls, the loops' per-arc interpreter frames
   dominate big ones.  Weighted kernels additionally require the
   snapshot's weights to fit the vectorized backend's int64 headroom
   (:func:`repro.backends.vectorized.weighted_safe`) — tiebreaking
   perturbations on very large graphs can exceed 64 bits, and those
   calls stay on the loops.

:data:`THRESHOLDS` was measured by ``benchmarks/bench_backends.py``
on the reference container (Linux/x86-64, CPython 3.11) and is
deliberately conservative — near the crossover both backends cost
about the same, so erring toward ``pyloops`` keeps small-graph
workloads regression-free.  It is read-only data, not a knob: every
process routes by the same table, and re-fitting it is a change to
this module backed by a new ``bench_backends`` run.

Forcing ``vectorized`` without numpy raises
:class:`~repro.exceptions.BackendError`; the ``auto`` mode never
raises — it falls back to the loops.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional

from repro.backends.api import numpy_or_none
from repro.backends.pyloops import PyLoopsBackend
from repro.exceptions import BackendError
from repro.graphs.csr import CSRGraph

__all__ = [
    "THRESHOLDS",
    "backend_for",
    "current_mode",
    "kernel_impl",
    "set_backend",
]

_MODES = ("auto", "pyloops", "vectorized")

#: Kernels whose vectorized implementation reads the weights mirror —
#: auto-dispatch routes them to the loops when the snapshot's weights
#: (or any path sum of them) could overflow int64.
_WEIGHTED_KERNELS = frozenset((
    "csr_weighted_distances",
    "csr_weighted_distances_many",
    "csr_dijkstra_flat",
    "csr_dijkstra_flat_many",
    "csr_dijkstra_repair",
))

#: Repair kernels touch ~``batch × avg_degree`` arcs, not the whole
#: arc array — their work estimate is scaled accordingly.
_REPAIR_KERNELS = frozenset(("csr_bfs_repair", "csr_dijkstra_repair"))

#: Minimum work (arcs × batch width) at which auto-dispatch prefers
#: the vectorized backend, per kernel.  Measured crossovers from
#: ``bench_backends.py`` on the reference container, rounded toward
#: pyloops; read-only, so no caller can re-tune one process.
THRESHOLDS: Mapping[str, int] = MappingProxyType({
    "csr_bfs_distances": 4_000,
    "csr_weighted_distances": 2_000,
    "csr_dijkstra_flat": 4_000,
    "csr_bfs_distances_many": 12_000,
    "csr_weighted_distances_many": 12_000,
    "csr_dijkstra_flat_many": 100_000,
    "csr_bfs_repair": 500,
    "csr_dijkstra_repair": 200,
})

_mode: Optional[str] = None

_pyloops: Optional[PyLoopsBackend] = None
_vectorized: Optional[Any] = None


def _pyloops_backend() -> PyLoopsBackend:
    # Constructed lazily: building it imports spt/incremental, which
    # import this module — at module-import time that would be a cycle.
    global _pyloops
    if _pyloops is None:
        _pyloops = PyLoopsBackend()
    return _pyloops


def _vectorized_backend() -> Optional[Any]:
    """The vectorized backend, or None when numpy is unavailable.

    Availability is re-checked on every resolution (``REPRO_NO_NUMPY``
    can flip between calls); the instance itself is built once.
    """
    global _vectorized
    if numpy_or_none() is None:
        return None
    if _vectorized is None:
        from repro.backends.vectorized import VectorizedBackend
        _vectorized = VectorizedBackend()
    return _vectorized


def set_backend(name: Optional[str]) -> Optional[str]:
    """Pin the process to one backend; returns the previous pin.

    ``"pyloops"`` / ``"vectorized"`` force every dispatched call onto
    that backend; ``None`` or ``"auto"`` clears the pin, so calls route
    by :data:`THRESHOLDS` again.  Forcing ``"vectorized"`` while numpy
    is unavailable raises :class:`BackendError` here, at configuration
    time, rather than at the first kernel call.
    """
    global _mode
    if name is not None and name not in _MODES:
        raise BackendError(
            f"unknown backend {name!r}; expected one of {_MODES}")
    if name == "vectorized" and numpy_or_none() is None:
        raise BackendError(
            "cannot force the vectorized backend: numpy is unavailable")
    previous = _mode
    _mode = None if name == "auto" else name
    return previous


def current_mode() -> str:
    """The effective dispatch mode: the pin, else ``"auto"``."""
    return _mode or "auto"


def _work(kernel: str, csr: CSRGraph, batch: int) -> int:
    arcs = len(csr.indices)
    if kernel in _REPAIR_KERNELS:
        # A repair touches the orphaned region's rows, not the whole
        # arc array: ~batch rows of average degree.
        return batch * (arcs // max(csr.n, 1) + 1)
    return arcs * max(batch, 1)


def backend_for(kernel: str, csr: CSRGraph, batch: int = 1) -> Any:
    """The backend that should serve ``kernel`` on this call.

    ``batch`` is the call's width: the number of sources for the
    ``_many`` kernels, the orphan count for the repair kernels, 1 for
    single-source calls.
    """
    if _mode == "pyloops":
        return _pyloops_backend()
    if _mode == "vectorized":
        vec = _vectorized_backend()
        if vec is None:
            raise BackendError(
                "vectorized backend forced but numpy is unavailable")
        return vec
    # Work check first: small calls resolve without even probing for
    # numpy, keeping the auto path's overhead on tiny graphs to a table
    # lookup and a comparison.
    if _work(kernel, csr, batch) < THRESHOLDS[kernel]:
        return _pyloops_backend()
    vec = _vectorized_backend()
    if vec is None:
        return _pyloops_backend()
    if kernel in _WEIGHTED_KERNELS:
        from repro.backends.vectorized import weighted_safe
        if not weighted_safe(csr):
            return _pyloops_backend()
    return vec


def kernel_impl(kernel: str, csr: CSRGraph, batch: int = 1
                ) -> Callable[..., Any]:
    """The callable that should serve ``kernel`` on this call."""
    return getattr(backend_for(kernel, csr, batch), kernel)
