"""Single source of truth for what ``reprolint`` enforces.

Three registries, one per rule family:

* :data:`LAYERS` — the declared layer DAG.  The order here is the
  *enforced* architecture: a module may import (at module level) only
  from its own layer or below.  Function-level (deferred) imports are
  the sanctioned escape hatch for the handful of genuinely cyclic
  conveniences (``graphs.io`` exporting labelings, ``Graph.csr()``),
  because they cost an import only on first use and cannot create an
  import cycle at module-load time.
* :data:`HOT_PATHS` — the hot-path registry: ``"module:qualname"``
  :mod:`fnmatch` patterns naming the functions whose inner loops carry
  the PR 1–5 speedup story.  Kernel-hygiene rules fire only inside
  these.
* :data:`CACHE_GETTERS` — the engine surface the cache-aliasing
  rules key on.
"""

from __future__ import annotations

from typing import Optional, Tuple

# ---------------------------------------------------------------------------
# Layer DAG.  Rank 0 is the bottom; a module whose first package segment
# sits at rank r may import, at module level, only segments of rank <= r.
# The order differs deliberately from a naive reading of the package
# list: ``core`` (restoration schemes, weight perturbations) *consumes*
# ``spt`` trees, the scenario engine consumes ``incremental`` repair
# kernels, and since PR 4 the domain packages (oracles, preservers,
# replacement, ...) enter through ``query.Session`` — so ``query`` sits
# below them, not above.
# ---------------------------------------------------------------------------
LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("exceptions",),
    # The observability plane sits at the very bottom (stdlib-only, no
    # repro imports beyond exceptions-level hygiene) so every layer —
    # kernel dispatch included — may instrument through it at module
    # level.  Its use inside hot kernels is separately forbidden by
    # OB401.
    ("obs",),
    ("graphs",),
    # The kernel-backend seam sits below ``spt``: the public kernels
    # dispatch *down* into it, and the pyloops backend's upward binding
    # of the loop implementations is a function-level deferred import.
    ("backends",),
    ("spt",),
    ("core", "dag"),
    ("incremental",),
    ("scenarios",),
    ("query",),
    # The engine fleet shards ``query.Session`` streams across worker
    # processes — it builds sessions, so it sits strictly above
    # ``query`` and below the domain packages (which may one day adopt
    # a fleet the way they adopt a session).
    ("fleet",),
    # The scenario service is a network front over a session or a
    # fleet: it builds neither graphs nor kernels, only serves them,
    # so it sits directly above ``fleet`` and below the domain
    # packages (a served domain consumer connects as a client).
    ("service",),
    ("weighted", "oracles", "preservers", "replacement",
     "spanners", "labeling", "distributed"),
    # Top of the DAG: entry points and tooling may import anything.
    # "" is the root ``repro`` facade package itself.
    ("analysis", "cli", "devtools", "__main__", ""),
)

_SEGMENT_RANK = {
    segment: rank
    for rank, family in enumerate(LAYERS)
    for segment in family
}


def layer_rank(module: str) -> Optional[int]:
    """Rank of a dotted module name, or None when outside the DAG.

    ``repro.spt.fastpaths`` -> rank of ``spt``; ``repro`` itself is the
    top-rank facade; non-``repro`` modules and unknown segments return
    None (not checked).
    """
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    segment = parts[1] if len(parts) > 1 else ""
    return _SEGMENT_RANK.get(segment)


# ---------------------------------------------------------------------------
# Hot-path registry: ``"module-pattern:qualname-pattern"`` (fnmatch on
# both sides).  Keep this list tight — hygiene findings are only as
# credible as the claim that the function is genuinely hot.
# ---------------------------------------------------------------------------
HOT_PATHS: Tuple[str, ...] = (
    # CSR traversal kernels: one call per (scenario, source) wave.
    "repro.spt.fastpaths:csr_*",
    "repro.spt.batched:csr_*",
    "repro.spt.batched:_blocked_rows",
    # Delta-repair kernels: one call per patched scenario.
    "repro.incremental.repair:csr_*",
    "repro.incremental.affected:affected_region",
    # Engine inner loops: one pass per query batch / fault set.
    "repro.scenarios.engine:ScenarioEngine.source_vectors",
    "repro.scenarios.engine:TreeFaultIndex.cut_intervals",
    "repro.scenarios.engine:TreeFaultIndex.orphans_of_intervals",
    "repro.scenarios.engine:TreeFaultIndex.fault_free_vertices",
)

# ---------------------------------------------------------------------------
# Vectorized hot paths: ndarray kernels, same per-call heat as
# HOT_PATHS but a different hygiene profile — whole-array temporaries
# are the *point*, so the allocation rules (KH103/KH104/KH106) don't
# apply, while attribute loads off module globals in inner loops
# (``np.minimum.at`` unhoisted) still do (KH101, relaxed to
# module-global bases) and so does unhoisted global access (KH102).
# ---------------------------------------------------------------------------
VECTORIZED_HOT_PATHS: Tuple[str, ...] = (
    "repro.backends.vectorized:csr_*",
    "repro.backends.vectorized:_weighted_dist",
    "repro.backends.vectorized:_repair_region",
    "repro.backends.vectorized:_arc_ids",
    "repro.backends.vectorized:_decode_depths",
)

# ---------------------------------------------------------------------------
# Cache-aliasing contract.  Methods whose return value may alias a
# vector held in the engine's shared LRU (or its base-distance cache).
# Anything bound from one of these is read-only until copied.
# ---------------------------------------------------------------------------
CACHE_GETTERS: Tuple[str, ...] = (
    "peek_vector",
    "peek_any_vector",
    "try_delta",
    "source_vectors",
    "base_distances",
)

# Calls recognised as producing a fresh object (clearing taint).
COPY_CALLS: Tuple[str, ...] = ("list", "sorted", "tuple", "dict", "set", "frozenset")
COPY_METHODS: Tuple[str, ...] = ("copy", "deepcopy")

# Methods that mutate their receiver in place: a list's, plus those
# only an ``array`` row has.
MUTATING_METHODS: Tuple[str, ...] = (
    "sort", "reverse", "append", "extend", "insert", "remove", "pop", "clear",
    "byteswap", "frombytes", "fromfile", "fromlist", "fromunicode",
)
