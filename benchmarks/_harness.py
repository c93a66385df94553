"""Shared plumbing for the benchmark suite.

Every benchmark computes an experiment table (paper bound vs measured
value), prints it, and persists it under ``benchmarks/results/`` so the
numbers recorded in EXPERIMENTS.md are regenerable artifacts.  Each
machine-readable payload written via :func:`emit_json` is additionally
folded into one top-level ``BENCH_SUMMARY.json`` at the repo root, so
the perf trajectory across PRs is a single machine-readable file
instead of a directory of per-bench snapshots.

Run ``python benchmarks/_harness.py`` to rebuild the summary from
whatever ``results/*.json`` files currently exist.

A ``--quick`` smoke run writes its tables and JSON under
``results/quick/`` instead (gitignored), so it never overwrites the
committed snapshot of a full run, and the summary's ``benches`` and
``speedups`` fold only the top-level full-run files.  Its ``history``
entry is still appended, marked ``quick``.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import subprocess
from typing import Dict, List, Optional, Sequence

from repro.analysis.experiments import format_table
from repro.backends import numpy_or_none

# Both paths resolved, so relative_to() below stays valid when the
# checkout is reached through a symlink.
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
SUMMARY_PATH = RESULTS_DIR.parent.parent / "BENCH_SUMMARY.json"

#: What every bench run rewrites itself, relative to the checkout
#: root: changes there cannot make a run's tree dirty.
BENCH_OUTPUTS = ("benchmarks/results", "BENCH_SUMMARY.json")


def results_dir(quick: bool = False) -> pathlib.Path:
    """Where a run's snapshots go: ``results/``, or ``results/quick/``
    for a ``--quick`` smoke run (created on demand)."""
    path = RESULTS_DIR / "quick" if quick else RESULTS_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


def emit(name: str, rows: Sequence[Dict], title: str,
         columns: Optional[Sequence[str]] = None,
         notes: str = "", quick: bool = False) -> str:
    """Render, print, and persist one experiment table (under
    ``results/quick/`` when ``quick``)."""
    table = format_table(rows, columns=columns, title=title)
    if notes:
        table = table + "\n" + notes
    (results_dir(quick) / f"{name}.txt").write_text(table + "\n")
    print()
    print(table)
    return table


def emit_json(name: str, payload: Dict) -> pathlib.Path:
    """Persist one experiment as machine-readable JSON.

    Written next to the ``.txt`` tables under ``benchmarks/results/``
    (``results/quick/`` when ``payload["params"]["quick"]`` is true),
    so CI and trend tooling can consume the numbers without parsing
    the human-facing render.  The top-level ``BENCH_SUMMARY.json`` is
    refreshed from the full results directory on every write, and a
    ``history`` entry (bench name + params + headline speedup) is
    appended for this run — ``results/*.json`` keeps only the latest
    snapshot per bench, so the history list is what actually records
    the perf trajectory across PRs.  Each entry is stamped with when
    (``utc``), where (``host``) and at which revision (``rev``) it ran,
    and whether the tree had changes that revision does not hold
    (``dirty``), so a series can be tied to a commit and a machine.
    """
    params = payload.get("params")
    quick = params.get("quick") if isinstance(params, dict) else None
    path = results_dir(bool(quick)) / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    here = pathlib.Path(__file__).resolve().parent
    aggregate_summary(history_entry={
        "bench": name,
        "params": params,
        "speedup": payload.get("speedup"),
        # Uniform top-level marker so trend tooling can filter CI
        # smoke runs out of the trajectory without digging into each
        # bench's params shape (None = the bench didn't say).
        "quick": quick,
        # Fleet benches record their worker count so the trajectory
        # can separate scaling runs from single-process baselines
        # (None = not a fleet bench / the bench didn't say).
        "workers": (params.get("workers")
                    if isinstance(params, dict) else None),
        # Service benches record their concurrent-client count, same
        # idea one layer up (None = not a service bench).
        "clients": (params.get("clients")
                    if isinstance(params, dict) else None),
        "rev": git_revision(here),
        "dirty": git_dirty(here),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "host": host_fingerprint(),
    })
    return path


def git_revision(directory: pathlib.Path) -> Optional[str]:
    """``git rev-parse --short HEAD`` in ``directory``, or ``None``
    outside a git checkout (or without git)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=directory,
            capture_output=True, text=True, check=False)
    except OSError:
        return None
    rev = done.stdout.strip()
    return rev if done.returncode == 0 and rev else None


def git_dirty(directory: pathlib.Path) -> Optional[bool]:
    """Whether the checkout holding ``directory`` has uncommitted
    changes or untracked files outside :data:`BENCH_OUTPUTS`, or
    ``None`` outside a git checkout (or without git)."""
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all",
             "--", ":/",
             *(f":(top,exclude){path}" for path in BENCH_OUTPUTS)],
            cwd=directory, capture_output=True, text=True, check=False)
    except OSError:
        return None
    if done.returncode != 0:
        return None
    return bool(done.stdout.strip())


def host_fingerprint() -> Dict[str, object]:
    """The host facts a timing depends on: usable CPUs, the Python
    version and the numpy version the kernels could use (``None``
    when numpy is absent or ``REPRO_NO_NUMPY`` switches it off)."""
    numpy = numpy_or_none()
    return {
        "nproc": (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
    }


def _load_history() -> List[Dict]:
    """The history list carried in the existing summary (if any).

    The history lives only in ``BENCH_SUMMARY.json`` itself — the
    per-bench files are latest-run snapshots — so it must be read
    back before the summary is rewritten, or every run would erase
    the trajectory it is supposed to record.
    """
    try:
        previous = json.loads(SUMMARY_PATH.read_text())
    except (OSError, ValueError):
        return []
    if not isinstance(previous, dict):
        return []
    history = previous.get("history")
    return history if isinstance(history, list) else []


def aggregate_summary(history_entry: Optional[Dict] = None) -> pathlib.Path:
    """Fold every full-run ``results/*.json`` into the top-level summary.

    The summary maps each bench name to its latest full payload plus a
    flat ``speedups`` index (bench -> headline speedup, taken from the
    payload's ``speedup`` key when present) so trend tooling can diff
    the perf trajectory across PRs with one lookup, and an append-only
    ``history`` list — one entry per ``emit_json`` run, preserved
    across rebuilds — recording the run-over-run trajectory that the
    latest-snapshot ``benches`` mapping forgets.
    """
    benches: Dict[str, Dict] = {}
    speedups: Dict[str, float] = {}
    for path in sorted(RESULTS_DIR.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue  # half-written or foreign file: skip, don't die
        if not isinstance(payload, dict):
            continue
        benches[path.stem] = payload
        headline = payload.get("speedup")
        if isinstance(headline, (int, float)):
            speedups[path.stem] = headline
    history = _load_history()
    if history_entry is not None:
        history.append(history_entry)
    summary = {
        "source": str(RESULTS_DIR.relative_to(SUMMARY_PATH.parent)),
        "benches": benches,
        "speedups": speedups,
        "history": history,
    }
    SUMMARY_PATH.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return SUMMARY_PATH


if __name__ == "__main__":
    print(f"wrote {aggregate_summary()}")
