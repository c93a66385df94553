"""Per-call backend selection from a calibrated work-size table.

The public kernel entry points (``spt/fastpaths``, ``spt/batched``,
``incremental/repair``) each ask :func:`backend_for` which backend
should serve a call, passing the snapshot and the batch width.  The
decision, in precedence order:

1. **Explicit mode** — :func:`set_backend` ``("pyloops" |
   "vectorized" | "auto")`` pins the process; ``set_backend(None)``
   clears the pin.
2. **Environment override** — ``REPRO_BACKEND`` (same three values),
   re-read on every resolution so tests can monkeypatch it.
3. **Auto** (the default) — ``pyloops`` when numpy is unavailable;
   otherwise the *work* of the call (arcs × batch width, scaled to
   the touched region for repair kernels) is compared against the
   kernel's calibrated threshold: ndarray dispatch overhead dominates
   tiny calls, the loops' per-arc interpreter frames dominate big
   ones.  Weighted kernels additionally require the snapshot's
   weights to fit the vectorized backend's int64 headroom
   (:func:`repro.backends.vectorized.weighted_safe`) — tiebreaking
   perturbations on very large graphs can exceed 64 bits, and those
   calls stay on the loops.

The default thresholds were measured by ``benchmarks/bench_backends.py``
on the reference container (Linux/x86-64, CPython 3.11); they are
deliberately conservative — near the crossover both backends cost
about the same, so erring toward ``pyloops`` keeps small-graph
workloads regression-free.  :func:`calibrate` re-measures the
crossover per kernel on the current machine and installs the result
for the calling process only: nothing is persisted, so importing the
package reads no file and every process starts from the shipped
defaults.

Forcing ``vectorized`` without numpy raises
:class:`~repro.exceptions.BackendError`; the ``auto`` mode never
raises — it falls back to the loops.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs as _obs
from repro.backends.api import KERNEL_NAMES, numpy_or_none
from repro.backends.pyloops import PyLoopsBackend
from repro.exceptions import BackendError
from repro.graphs.csr import CSRGraph

__all__ = [
    "backend_for",
    "backend_name_for",
    "calibrate",
    "current_mode",
    "kernel_impl",
    "record_threshold_gauges",
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
#: pyloops; ``calibrate()`` re-measures for the current machine.
DEFAULT_THRESHOLDS: Dict[str, int] = {
    "csr_bfs_distances": 4_000,
    "csr_weighted_distances": 2_000,
    "csr_dijkstra_flat": 4_000,
    "csr_bfs_distances_many": 12_000,
    "csr_weighted_distances_many": 12_000,
    "csr_dijkstra_flat_many": 100_000,
    "csr_bfs_repair": 500,
    "csr_dijkstra_repair": 200,
}

_thresholds: Dict[str, int] = dict(DEFAULT_THRESHOLDS)

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
    that backend; ``"auto"`` pins the calibrated-table mode (shadowing
    any ``REPRO_BACKEND`` value); ``None`` clears the pin so the
    environment override applies again.  Forcing ``"vectorized"``
    while numpy is unavailable raises :class:`BackendError` here, at
    configuration time, rather than at the first kernel call.
    """
    global _mode
    if name is not None and name not in _MODES:
        raise BackendError(
            f"unknown backend {name!r}; expected one of {_MODES}")
    if name == "vectorized" and numpy_or_none() is None:
        raise BackendError(
            "cannot force the vectorized backend: numpy is unavailable")
    previous = _mode
    _mode = name
    return previous


def current_mode() -> str:
    """The effective dispatch mode (pin, else env override, else auto)."""
    if _mode is not None:
        return _mode
    env = os.environ.get("REPRO_BACKEND", "").strip()
    if not env:
        return "auto"
    if env not in _MODES:
        raise BackendError(
            f"unknown REPRO_BACKEND={env!r}; expected one of {_MODES}")
    return env


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
    mode = current_mode()
    if mode == "pyloops":
        return _pyloops_backend()
    if mode == "vectorized":
        vec = _vectorized_backend()
        if vec is None:
            raise BackendError(
                "vectorized backend forced but numpy is unavailable")
        return vec
    # Work check first: small calls resolve without even probing for
    # numpy, keeping the auto path's overhead on tiny graphs to a dict
    # lookup and a comparison.
    if _work(kernel, csr, batch) < _thresholds[kernel]:
        return _pyloops_backend()
    vec = _vectorized_backend()
    if vec is None:
        return _pyloops_backend()
    if kernel in _WEIGHTED_KERNELS:
        from repro.backends.vectorized import weighted_safe
        if not weighted_safe(csr):
            return _pyloops_backend()
    return vec


def backend_name_for(kernel: str, csr: CSRGraph, batch: int = 1) -> str:
    """:func:`backend_for`, reported as a name (for provenance)."""
    return backend_for(kernel, csr, batch).name


def kernel_impl(kernel: str, csr: CSRGraph, batch: int = 1
                ) -> Callable[..., Any]:
    """The callable that should serve ``kernel`` on this call."""
    return getattr(backend_for(kernel, csr, batch), kernel)


def thresholds() -> Dict[str, int]:
    """A copy of the active dispatch table (kernel → min work)."""
    return dict(_thresholds)


def set_thresholds(table: Dict[str, int]) -> None:
    """Install measured thresholds (unknown kernel names rejected)."""
    unknown = set(table) - set(DEFAULT_THRESHOLDS)
    if unknown:
        raise BackendError(f"unknown kernels in threshold table: "
                           f"{sorted(unknown)}")
    _thresholds.update(table)


def reset_thresholds() -> None:
    """Restore the shipped :data:`DEFAULT_THRESHOLDS`."""
    _thresholds.clear()
    _thresholds.update(DEFAULT_THRESHOLDS)


def record_threshold_gauges() -> None:
    """Publish the active dispatch table as observability gauges
    (``repro_backend_threshold{kernel=...}``).  No-op while
    :mod:`repro.obs` is disabled."""
    if not _obs.ENABLED:
        return
    for kernel, value in _thresholds.items():
        _obs.set_gauge("repro_backend_threshold", float(value),
                       kernel=kernel)


def calibrate(sizes: Iterable[int] = (200, 800, 3200),
              seed: int = 0, repeats: int = 3) -> Dict[str, int]:
    """Measure per-kernel crossovers and install them for the process.

    For each kernel, both backends are timed on Erdős–Rényi snapshots
    of the given sizes (batched kernels at width 32, repair on a
    clustered orphan region); the threshold becomes the geometric
    midpoint between the largest work where pyloops won and the
    smallest where vectorized won.  Returns the installed table (also
    available via :func:`thresholds`).  No-op fallback: when numpy is
    unavailable the shipped defaults are kept and returned.
    """
    import timeit

    if numpy_or_none() is None:
        return thresholds()
    from repro.graphs.generators import gnm

    pyl = _pyloops_backend()
    vec = _vectorized_backend()
    assert vec is not None

    probes: List[Tuple[CSRGraph, Optional[bytearray]]] = []
    for n in sizes:
        graph = gnm(n, min(4 * n, n * (n - 1) // 2), seed=seed + n)
        csr = CSRGraph.from_graph(
            graph, arc_weight=lambda u, v: 1 + (u * 31 + v * 17) % 16)
        probes.append((csr, None))

    measured: Dict[str, int] = {}
    for kernel in KERNEL_NAMES:
        last_loop_win = 0
        first_vec_win = 0
        for csr, mask in probes:
            batch = 32 if kernel.endswith("_many") else 1
            args = _probe_args(kernel, csr, mask, batch, seed)
            if args is None:
                continue
            t_loop = min(timeit.repeat(
                lambda: getattr(pyl, kernel)(*args), number=1,
                repeat=repeats))
            t_vec = min(timeit.repeat(
                lambda: getattr(vec, kernel)(*args), number=1,
                repeat=repeats))
            work = _work(kernel, csr,
                         batch if not kernel.endswith("_repair")
                         else len(args[3]))
            if t_vec < t_loop:
                if not first_vec_win or work < first_vec_win:
                    first_vec_win = work
            elif work > last_loop_win:
                last_loop_win = work
        if first_vec_win:
            measured[kernel] = max(
                1, int((max(last_loop_win, 1) * first_vec_win) ** 0.5))
        else:
            # vectorized never won on the probes: keep it off up to
            # well past the largest probe.
            measured[kernel] = max(last_loop_win * 4,
                                   DEFAULT_THRESHOLDS[kernel])
    set_thresholds(measured)
    record_threshold_gauges()
    return thresholds()


def _probe_args(kernel: str, csr: CSRGraph, mask: Optional[bytearray],
                batch: int, seed: int) -> Optional[Tuple[Any, ...]]:
    """Arguments for one calibration probe call, or None to skip."""
    import random
    rng = random.Random(seed ^ 0x5EED)
    n = csr.n
    if n == 0:
        return None
    if kernel.endswith("_repair"):
        pyl = _pyloops_backend()
        if kernel == "csr_dijkstra_repair":
            base = pyl.csr_weighted_distances(csr, mask, 0)
        else:
            base = pyl.csr_bfs_distances(csr, mask, 0)
        orphans = sorted(rng.sample(range(n), max(2, n // 8)))
        return (csr, mask, base, orphans)
    if kernel.endswith("_many"):
        sources = [rng.randrange(n) for _ in range(batch)]
        return (csr, mask, sources)
    return (csr, mask, 0)
