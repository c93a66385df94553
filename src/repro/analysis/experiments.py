"""Experiment runners shared by the benchmark suite.

Every benchmark in ``benchmarks/`` is a thin pytest-benchmark wrapper
around one of these runners; each runner returns a list of row dicts
recording the paper's claimed bound next to the measured quantity so
the tables printed by the benches (and recorded in EXPERIMENTS.md) all
share one format.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.graphs import generators
from repro.core.scheme import BFSTiebreaking, RestorableTiebreaking
from repro.query.queries import RestorationQuery
from repro.query.session import Session
from repro.scenarios.engine import ScenarioEngine


def format_table(rows: Sequence[Dict], columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render rows as an aligned text table (benchmark stdout format)."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    widths = {
        c: max(len(c), max(len(fmt(r.get(c, ""))) for r in rows))
        for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        lines.append(
            "  ".join(fmt(r.get(c, "")).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 1 — tiebreaking sensitivity
# ----------------------------------------------------------------------
def restoration_success_rate(scheme, pairs_with_faults,
                             engine: Optional[ScenarioEngine] = None,
                             session: Optional[Session] = None
                             ) -> Dict[str, int]:
    """Count midpoint-scan (F' = ∅) successes/failures for a scheme.

    For each ``(s, t, e)`` instance, the scan concatenates *non-faulty*
    selections only — exactly the naive restoration-by-concatenation of
    the introduction.  An instance fails when the best concatenation
    avoiding ``e`` is longer than the true replacement distance (or no
    midpoint survives).

    The instance stream is submitted as
    :class:`~repro.query.queries.RestorationQuery` objects through a
    :class:`~repro.query.session.Session` (one may be passed in to
    share its caches across schemes over the same graph — ``engine``
    is the pre-PR-4 spelling, wrapped on sight), which amortises base
    BFS vectors and per-tree fault indices instead of rebuilding a
    :class:`~repro.graphs.views.FaultView` per instance, and groups
    the sweep's many pairs per fault edge onto one masked multi-source
    wave (sharing the ``(source, F)`` vector cache across schemes on
    a shared session).
    """
    # Session.adopt enforces the sharing contract: the passed session
    # or engine must cover the scheme's base graph (GraphError
    # otherwise — caches would silently answer for the wrong graph),
    # and passing both only works when they agree.
    session = Session.adopt(scheme.graph, engine=engine, session=session)
    answers = session.answer(
        (RestorationQuery(s, t, (e,)) for s, t, e in pairs_with_faults),
        scheme=scheme,
    )
    counts = {"instances": 0, "successes": 0, "failures": 0}
    for answer in answers:
        if answer.value is None:
            continue  # fault disconnects the pair; nothing to restore
        target, result = answer.value
        counts["instances"] += 1
        if result is not None and result.path.hops == target:
            counts["successes"] += 1
        else:
            counts["failures"] += 1
    return counts


def sensitivity_instances(graph, scheme, limit: Optional[int] = None):
    """All ``(s, t, e)`` with ``e`` on the selected ``s ~> t`` path."""
    out = []
    for s in graph.vertices():
        for t in graph.vertices():
            if s >= t:
                continue
            path = scheme.path(s, t)
            if path is None:
                continue
            for e in path.edges():
                out.append((s, t, e))
                if limit is not None and len(out) >= limit:
                    return out
    return out


def figure1_experiment(families: Sequence[str], size: int,
                       seed: int = 0, limit: int = 2000) -> List[Dict]:
    """Fig. 1: naive concatenation under BFS vs restorable tiebreaking."""
    rows = []
    for family in families:
        graph = generators.by_name(family, size, seed=seed)
        session = Session(graph)  # shared across the two schemes
        for name, scheme in (
            ("bfs-lex", BFSTiebreaking(graph)),
            ("restorable", RestorableTiebreaking.build(graph, f=1, seed=seed)),
        ):
            instances = sensitivity_instances(graph, scheme, limit=limit)
            counts = restoration_success_rate(scheme, instances,
                                              session=session)
            total = max(counts["instances"], 1)
            rows.append({
                "family": family,
                "scheme": name,
                "instances": counts["instances"],
                "failures": counts["failures"],
                "failure_rate": counts["failures"] / total,
            })
    return rows


# ----------------------------------------------------------------------
# timing helpers
# ----------------------------------------------------------------------
def timed(fn: Callable, *args, **kwargs):
    """Run ``fn`` once; return ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
