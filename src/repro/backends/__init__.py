"""Kernel backends: one hot-kernel surface, multiple implementations.

The CSR stack's hot kernels — single-source traversals
(:mod:`repro.spt.fastpaths`), batched multi-source waves
(:mod:`repro.spt.batched`), and delta repair
(:mod:`repro.incremental.repair`) — are served through a *backend
seam*: every public entry point is a thin wrapper that asks
:mod:`repro.backends.dispatch` which implementation should run this
call.  Two backends are registered:

* ``pyloops`` (:mod:`repro.backends.pyloops`) — the original
  pure-Python loops.  Always available, and the behavioural reference
  every other backend is pinned against.
* ``vectorized`` (:mod:`repro.backends.vectorized`) — numpy kernels
  over cached per-snapshot ndarray mirrors
  (:meth:`repro.graphs.csr.CSRGraph.ndarrays`).  Requires numpy
  (optional extra ``repro[numpy]``); the dispatcher falls back to
  ``pyloops`` when it is absent.

Backends are **bit-identical** by contract: exact int distances, the
same ``UNREACHABLE`` sentinels, the same documented parent tie-breaks
— enforced by the hypothesis cross-check suites parametrised over
backends.  Selection is per call, from one read-only measured
work-size table (:data:`~repro.backends.dispatch.THRESHOLDS`, read by
:func:`~repro.backends.dispatch.backend_for`), and can be pinned with
:func:`~repro.backends.dispatch.set_backend`.  :func:`numpy_or_none`
is the single gate for the optional numpy dependency across the
package.
"""

from repro.backends.api import (
    KERNEL_NAMES,
    HopRow,
    KernelBackend,
    UNREACHABLE,
    check_source,
    numpy_or_none,
    row_eccentricity,
)
from repro.backends.dispatch import (
    THRESHOLDS,
    backend_for,
    current_mode,
    kernel_impl,
    set_backend,
)

__all__ = [
    "KERNEL_NAMES",
    "HopRow",
    "KernelBackend",
    "THRESHOLDS",
    "UNREACHABLE",
    "backend_for",
    "check_source",
    "current_mode",
    "kernel_impl",
    "numpy_or_none",
    "row_eccentricity",
    "set_backend",
]
