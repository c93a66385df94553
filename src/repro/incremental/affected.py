"""The affected region of a fault set, and the delta-vs-wave cost model.

Fix a source ``s`` with base distance vector ``d`` and a base
shortest-path tree ``T_s`` (any SPT of the base graph rooted at ``s``).
For a fault set ``F``:

* a vertex whose selected root-path in ``T_s`` avoids every edge of
  ``F`` keeps its base distance exactly — that path survives in
  ``G \\ F``, and removing edges can only increase distances;
* therefore only the vertices *below* a faulted tree edge (the
  **orphans**) can change, and they can only get farther (or be cut
  off entirely).

The orphan set is a union of subtrees, which the engine's
:class:`~repro.scenarios.engine.TreeFaultIndex` already encodes as
Euler-tour intervals: the orphan *count* is the summed length of the
(merged) cut intervals — ``O(|F| log |F|)``, no vertex touched — and
materialising the orphans themselves is ``O(|F| log |F| + |affected|)``.
That asymmetry is the whole point of :func:`affected_region`: the
decision to patch is taken from the estimate alone, so a fault set
that orphans half the graph costs only the interval arithmetic before
falling back to the full masked wave.

Cost model
----------
Let ``k`` be the orphan count and ``deg`` the average degree.  A
repair re-settles the orphans from their intact frontier, touching
``O(k * deg)`` arcs (each orphan's incident arcs once for seeding,
once for propagation); a full masked wave touches ``O(n + n * deg)``.
The ratio of the two is ``k / n`` up to constants, so the model
compares the orphan count against ``patch_ratio * n`` — plus an
absolute ``min_orphans`` floor under which patching always wins (the
repair's setup cost is a handful of dict operations).  The model is an
explicit frozen dataclass so tests can pin it; every engine runs the
default model (``ScenarioEngine.delta_policy``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Tuple

__all__ = ["AffectedRegion", "CostModel", "affected_region"]


@dataclass(frozen=True)
class CostModel:
    """Decides delta-patch vs full wave from the orphan estimate.

    ``patch_ratio`` bounds the orphaned *fraction* of the graph a
    patch may take on (repair work scales with the orphans' arc
    volume, a wave with the whole snapshot's — see the module
    docstring for the algebra); ``min_orphans`` is an absolute floor
    below which patching always wins regardless of graph size.

    Batch sharing: the alternative to ``k`` per-source patches under
    one fault set is a *single* bit-packed wave serving all ``k``
    sources in one masked sweep (PR 3), so the per-source patch
    budget shrinks with the batch — past the ``min_orphans`` floor,
    ``patch_worthwhile`` requires ``estimate * batch_hint <=
    patch_ratio * n``, never letting ``k`` individual repairs out-work
    the one wave they replace.

    ``max_cold_batch`` guards the *setup* cost the patch algebra
    ignores: a source with no base-tree index yet must pay a full
    traversal to build one — as much as the wave it would dodge — so
    building only pays off when the source repeats.  The engine
    therefore builds cold indices only for origins that have been
    declined once before **and** whose pending batch is at most this
    size: a large cold batch is exactly the workload PR 3's single
    bit-packed wave serves best, and ``k`` cold tree builds would
    cost ``k`` times that wave.
    """

    patch_ratio: float = 0.25
    min_orphans: int = 8
    max_cold_batch: int = 4

    def patch_worthwhile(self, estimate: int, n: int,
                         batch_hint: int = 1) -> bool:
        """Should ``estimate`` orphans (of ``n`` vertices) be patched,
        given ``batch_hint`` sources sharing the alternative wave?"""
        if estimate <= self.min_orphans:
            return True
        return estimate * max(1, batch_hint) <= self.patch_ratio * n

    def build_worthwhile(self, seen_before: bool, batch_hint: int) -> bool:
        """Should a *cold* origin's base tree be built now?

        ``seen_before`` — the origin was already declined once (so it
        demonstrably repeats); ``batch_hint`` — how many origins the
        alternative wave would share its sweep with.
        """
        return seen_before and batch_hint <= self.max_cold_batch


@dataclass(frozen=True)
class AffectedRegion:
    """One ``(source, F)`` affected-region verdict.

    ``estimate`` is the exact orphan count (read off the subtree
    intervals without materialising); ``orphans`` is the materialised
    vertex tuple when ``patch`` is True and ``None`` otherwise — the
    fallback path never pays for vertices it will not re-settle.
    """

    source: int
    faults: Tuple
    estimate: int
    patch: bool
    orphans: Optional[Tuple[int, ...]] = None

    def __len__(self) -> int:
        return self.estimate


def affected_region(index: Any, n: int, source: int, faults: Iterable,
                    model: Optional[CostModel] = None,
                    batch_hint: int = 1) -> AffectedRegion:
    """The affected region of ``faults`` against a base tree index.

    Parameters
    ----------
    index:
        A :class:`~repro.scenarios.engine.TreeFaultIndex` built over
        the source's base shortest-path tree (duck-typed: anything
        with ``cut_intervals`` / ``orphans_of_intervals``).
    n:
        Vertex count of the base snapshot (the wave cost the model
        compares against).
    source:
        The tree's root, recorded on the region for bookkeeping.
    faults:
        The canonical fault tuple.
    model:
        The :class:`CostModel`; defaults to a fresh default model.
    batch_hint:
        How many sources would share the alternative wave's sweep
        (shrinks the per-source patch budget — see :class:`CostModel`).
    """
    if model is None:
        model = CostModel()
    faults = tuple(faults)
    # One interval computation serves both the estimate and the
    # materialisation — the patch path must not pay the sort twice.
    intervals = index.cut_intervals(faults)
    estimate = sum(hi - lo for lo, hi in intervals)
    patch = model.patch_worthwhile(estimate, n, batch_hint)
    orphans = (tuple(index.orphans_of_intervals(intervals))
               if patch else None)
    return AffectedRegion(source=source, faults=faults, estimate=estimate,
                          patch=patch, orphans=orphans)
