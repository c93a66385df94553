"""OBS — the observability plane's overhead contract, measured.

Two experiments, the PR-10 acceptance bar:

* **overhead** — one mixed query stream (the bench_query_planner
  workload shape) answered by identical fresh sessions with the obs
  plane *disabled* and *enabled*.  Answers — values AND provenance —
  are asserted bit-identical before any timing is trusted: recording
  must never steer dispatch, planning, or caching.  The enabled run
  must cost **<= 5%** over disabled.  The disabled path is bounded
  analytically as well as differentially: the per-seam cost is one
  module-attribute load plus one branch (``if _obs.ENABLED:``), so the
  bench micro-times that guard, multiplies by a generous estimate of
  how many times the workload evaluates it (every metric update, every
  span, tripled for the helper-internal re-checks), and requires the
  product to stay **<= 1%** of the disabled runtime.
* **trace** — a traced service run: a client answers fault-set queries
  through ``BackgroundServer`` over a two-worker ``FleetSession``, and
  the resulting span buffer is dumped as JSON-lines
  (``results/obs_trace.jsonl``, or ``results/quick/`` for a
  ``--quick`` run).  The bench walks the parent links and
  requires **>= 1** complete cross-process chain
  ``client.request -> service.request -> coalescer.wave ->
  fleet.gather -> worker.execute`` — the worker half crossed a real
  process boundary via ``ExecuteReply.spans``.

Run standalone (CI smoke: ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_obs.py [--quick]

``--quick`` shrinks the workload and skips the percentage assertions
(too noisy at smoke scale) but still requires bit-identical answers
and the cross-process chain.
"""

from __future__ import annotations

import argparse
import sys
import timeit

from repro import obs
from repro.analysis.experiments import timed
from repro.graphs import generators
from repro.query import DistanceQuery, Session, VectorQuery

try:
    from _harness import emit, emit_json, results_dir
except ImportError:  # running standalone, not under benchmarks/conftest
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from _harness import emit, emit_json, results_dir

from bench_query_planner import build_stream


# ----------------------------------------------------------------------
# experiment 1: overhead
# ----------------------------------------------------------------------
def answer_stream(graph, stream):
    """A fresh session per run so caches never carry between configs."""
    session = Session(graph, delta=False)
    return session.answer(stream)


def measure_interleaved(graph, stream, repeats):
    """Paired disabled/enabled runs; overhead = median paired ratio.

    Each iteration times both configs back to back, so thermal and
    frequency drift hit the pair alike and the per-iteration ratio
    isolates the recording cost; the median over iterations shrugs
    off the odd noisy pair that a min-vs-min comparison would let
    pick opposite outliers from.
    """
    ratios = []
    t_off = t_on = float("inf")
    disabled_answers = enabled_answers = None
    for _ in range(repeats):
        obs.disable()
        disabled_answers, off = timed(answer_stream, graph, stream)
        obs.enable()
        enabled_answers, on = timed(answer_stream, graph, stream)
        ratios.append(on / off)
        t_off = min(t_off, off)
        t_on = min(t_on, on)
    obs.disable()
    overhead = sorted(ratios)[len(ratios) // 2] - 1.0
    return disabled_answers, t_off, enabled_answers, t_on, overhead


def guard_cost_seconds() -> float:
    """Median micro-timed cost of one ``if _obs.ENABLED:`` check."""
    number = 200_000
    runs = [timeit.timeit("_obs.ENABLED", globals={"_obs": obs},
                          number=number) / number
            for _ in range(5)]
    return sorted(runs)[len(runs) // 2]


def recorded_events() -> int:
    """How many recording calls the enabled run made, over-counted.

    Counter values over-count increments with ``amount > 1`` and every
    gauge is charged ten updates — deliberately generous, since this
    feeds the *upper bound* on what the disabled path pays in guards.
    """
    events = len(obs.span_records())
    for record in obs.snapshot():
        if record["kind"] == "counter":
            events += int(record["value"])
        elif record["kind"] == "histogram":
            events += int(record["count"])
        else:
            events += 10
    return events


def run_overhead(quick: bool, seed: int):
    if quick:
        n, num_faults, num_sources, num_targets, per_fault, repeats = \
            150, 10, 8, 3, 12, 1
    else:
        n, num_faults, num_sources, num_targets, per_fault, repeats = \
            600, 50, 80, 8, 64, 5
    graph = generators.connected_erdos_renyi(n, 4.0 / n, seed=seed)
    stream = build_stream(graph, num_faults, num_sources, num_targets,
                          per_fault, seed + 1)

    obs.reset()
    answer_stream(graph, stream)  # warm the import/backend state

    disabled_answers, t_off, enabled_answers, t_on, enabled_overhead \
        = measure_interleaved(graph, stream, repeats)
    # the registry accumulated over every enabled repeat; normalise to
    # one run's worth of recording events (rounded up)
    events = -(-recorded_events() // repeats)
    obs.reset()

    # bit-identical: values AND provenance, or nothing else matters
    mismatched = [
        (a.query, a.value, b.value)
        for a, b in zip(disabled_answers, enabled_answers)
        if a.value != b.value or a.provenance != b.provenance
    ]
    if mismatched:
        raise AssertionError(
            f"observability changed {len(mismatched)} answers, "
            f"first: {mismatched[0]!r}")

    guard = guard_cost_seconds()
    # 3x: the seam's own guard plus the helpers' internal re-checks.
    disabled_bound = (guard * events * 3) / t_off
    rows = [
        {"config": "obs disabled (default)", "queries": len(stream),
         "seconds": t_off, "overhead_pct": 100.0 * disabled_bound,
         "bar_pct": 1.0},
        {"config": "obs enabled (metrics + spans)",
         "queries": len(stream), "seconds": t_on,
         "overhead_pct": 100.0 * enabled_overhead, "bar_pct": 5.0},
    ]
    payload = {
        "bench": "obs_overhead",
        "params": {"quick": quick, "seed": seed, "n": graph.n,
                   "queries": len(stream), "repeats": repeats},
        "rows": rows,
        "guard_seconds": guard,
        "recorded_events": events,
        "disabled_bound_pct": 100.0 * disabled_bound,
        "enabled_overhead_pct": 100.0 * enabled_overhead,
    }
    return rows, payload, disabled_bound, enabled_overhead, events


# ----------------------------------------------------------------------
# experiment 2: the cross-process trace chain
# ----------------------------------------------------------------------
CHAIN = ("client.request", "service.request", "coalescer.wave",
         "fleet.gather", "worker.execute")


def chain_of(record, by_id):
    """Span names from this record up its parent links to the root."""
    names = []
    while record is not None:
        names.append(record["name"])
        record = by_id.get(record["parent_id"])
    return tuple(reversed(names))


def run_trace(seed: int, quick: bool = False):
    from repro.fleet import FleetSession
    from repro.service import BackgroundServer, ServiceClient

    graph = generators.connected_erdos_renyi(80, 0.08, seed=seed)
    edges = sorted(graph.edges())[:4]
    queries = [DistanceQuery(0, graph.n - 1, (e,)) for e in edges]
    queries += [VectorQuery(1, (edges[0],))]

    obs.reset()
    obs.enable()
    with FleetSession(graph, workers=2) as fleet:
        with BackgroundServer(fleet) as server:
            with ServiceClient(*server.address,
                               client="bench-obs") as client:
                answers = client.answer(queries)
    obs.disable()
    if len(answers) != len(queries):
        raise AssertionError("traced run lost answers")

    records = obs.span_records()
    path = results_dir(quick) / "obs_trace.jsonl"
    with open(path, "w", encoding="utf-8") as stream:
        lines = obs.write_jsonl(stream)

    by_id = {r["span_id"]: r for r in records}
    chains = [chain_of(r, by_id) for r in records
              if r["name"] == "worker.execute"]
    complete = [c for c in chains if c == CHAIN]
    return path, lines, len(records), complete


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (CI): tiny stream, no "
                             "percentage assertions")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rows, payload, disabled_bound, enabled_overhead, events = \
        run_overhead(args.quick, args.seed)
    trace_path, lines, span_count, complete = run_trace(args.seed,
                                                        args.quick)
    payload["trace"] = {
        "jsonl": str(trace_path), "lines": lines,
        "spans": span_count, "complete_chains": len(complete),
        "chain": list(CHAIN),
    }
    emit(
        "obs_overhead", rows,
        "OBS: recording overhead, disabled (guard bound) and enabled "
        "(differential), bit-identical answers required",
        notes=(
            f"disabled bound {100 * disabled_bound:.3f}% of runtime "
            f"({events} recording events, bar 1%); enabled "
            f"{100 * enabled_overhead:+.1f}% (bar 5%); traced service "
            f"run exported {lines} JSON lines with "
            f"{len(complete)} complete cross-process chains "
            f"({' -> '.join(CHAIN)}) to {trace_path.name}"
        ),
        quick=args.quick,
    )
    emit_json("obs_overhead", payload)

    failed = []
    if not complete:
        failed.append("no complete cross-process span chain in the "
                      "traced service run")
    if not args.quick and disabled_bound > 0.01:
        failed.append(f"disabled guard bound "
                      f"{100 * disabled_bound:.3f}% > 1%")
    if not args.quick and enabled_overhead > 0.05:
        failed.append(f"enabled overhead "
                      f"{100 * enabled_overhead:.1f}% > 5%")
    for line in failed:
        print(f"FAIL: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
