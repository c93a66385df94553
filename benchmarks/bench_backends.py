"""BACKENDS — pyloops vs numpy-vectorised kernels across the seam.

Every kernel the dispatcher routes is served by both registered
backends (:mod:`repro.backends`) and timed.  Hop cells, on each
snapshot:

* **single-wave** — one ``csr_bfs_distances`` traversal;
* **batch 32 / batch 256** — ``csr_bfs_distances_many``, the
  bit-packed multi-source wave against the loop sweep;
* **delta-repair** — ``csr_bfs_repair`` on a clustered orphan region;
* **eccentricity 32** — ``csr_bfs_distances_many`` in its reduction
  mode (``eccentricity=True``: no depth decode, no rows) on the batch
  32 sources.  The row also times row mode on both backends
  (``pyloops_rows_s`` / ``vectorized_rows_s``), and
  ``*_reduce_gain`` is row time over reduced time.  The reduced
  values are asserted equal to ``row_eccentricity`` of the rows.

Weighted cells, on a weighted copy of the same snapshot (arc weights
``1 + (u*31 + v*17) % 16``):

* **single-wave** — ``csr_weighted_distances`` and
  ``csr_dijkstra_flat``;
* **batch 32** — ``csr_weighted_distances_many`` and
  ``csr_dijkstra_flat_many``;
* **delta-repair** — ``csr_dijkstra_repair`` on the same orphan ball.

Snapshots are ``n in {200, 2_000, 20_000}``, sparse (``m = 4n``).
Every (workload, kernel, n) cell asserts the two backends' outputs are
**bit-identical** before any timing is trusted, and is timed warm:
each backend's first call on the cell is timed apart and reported as
``pyloops_first_call_s`` / ``vectorized_first_call_s``, because it
pays one-time process costs (``import numpy``'s lazy submodules, the
snapshot's ndarray mirror) that no later call pays.  Each row also
reports ``auto_backend``, the backend the dispatch table
(:data:`repro.backends.dispatch.THRESHOLDS`) picks for the cell, and
``auto_ratio``, that pick's time over the faster backend's (1.0 when
auto picks the faster one).  The notes print the worst cell against
a 1.15x target; it is not asserted, because sub-millisecond cells
swing by about 30% between runs on a shared host.  A final experiment
checks the auto-dispatch guard: on the smallest snapshot, ``auto``
must not regress more than 5% against forced ``pyloops`` (the
measured thresholds route tiny calls to the loops, so the dispatch
overhead is all that is being measured).

Acceptance targets (asserted on full runs, skipped under ``--quick``):
**>= 3x** vectorized speedup on the large batched workload, and the
small-graph auto guard above.

Run standalone (CI smoke: ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_backends.py [--quick]

Results are persisted human-readable (``results/backends.txt``),
machine-readable (``results/backends.json``), and folded into the
top-level ``BENCH_SUMMARY.json`` (including its per-run history).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.backends import backend_for, numpy_or_none, set_backend
from repro.backends.api import row_eccentricity
from repro.backends.dispatch import _pyloops_backend, _vectorized_backend
from repro.graphs import generators
from repro.spt.fastpaths import csr_bfs_distances

try:
    from _harness import emit, emit_json
except ImportError:  # running standalone, not under benchmarks/conftest
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from _harness import emit, emit_json


def best_of(fn, repeats):
    """(result, best warm seconds, first-call seconds).

    The first call is timed on its own and kept out of the best: it
    pays one-time process costs (numpy's lazy submodule imports, the
    snapshot's ndarray mirror) that no later call pays, so billing it
    to a cell would time process start-up instead of the kernel.
    """
    t0 = time.perf_counter()
    result = fn()
    first = time.perf_counter() - t0
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best, first


def build_snapshot(n: int, seed: int):
    graph = generators.gnm(n, min(4 * n, n * (n - 1) // 2), seed=seed)
    return graph.csr()


def orphan_ball(csr, radius_target: int):
    """A clustered orphan region: the first ~n/8 vertices by hop depth."""
    dist = csr_bfs_distances(csr, None, 0)
    want = max(2, csr.n // 8)
    ranked = sorted(v for v in range(csr.n) if dist[v] > 0)
    ranked.sort(key=lambda v: (dist[v], v))
    return sorted(ranked[:want]), dist


def arc_weight(u: int, v: int) -> int:
    """The weighted cells' arc weights, 1..16."""
    return 1 + (u * 31 + v * 17) % 16


def workloads(csr, seed: int):
    """(name, kernel, args, batch) probes over one snapshot: the hop
    cells, then the weighted cells on a weighted copy of it."""
    import random

    rng = random.Random(seed)
    n = csr.n
    sources32 = [rng.randrange(n) for _ in range(32)]
    sources256 = [rng.randrange(n) for _ in range(256)]
    orphans, base = orphan_ball(csr, 2)
    weighted = csr.with_arc_weights(arc_weight)
    # The repair base comes from the loops, so the vectorized first
    # call on the weighted copy still pays its ndarray mirror.
    weighted_base = _pyloops_backend().csr_weighted_distances(
        weighted, None, 0)
    return [
        ("single-wave", "csr_bfs_distances", (csr, None, 0), 1),
        ("batch 32", "csr_bfs_distances_many", (csr, None, sources32), 32),
        ("batch 256", "csr_bfs_distances_many", (csr, None, sources256),
         256),
        ("delta-repair", "csr_bfs_repair", (csr, None, base, orphans),
         len(orphans)),
        ("single-wave", "csr_weighted_distances", (weighted, None, 0), 1),
        ("single-wave", "csr_dijkstra_flat", (weighted, None, 0), 1),
        ("batch 32", "csr_weighted_distances_many",
         (weighted, None, sources32), 32),
        ("batch 32", "csr_dijkstra_flat_many",
         (weighted, None, sources32), 32),
        ("delta-repair", "csr_dijkstra_repair",
         (weighted, None, weighted_base, orphans), len(orphans)),
    ]


def reduction_cell(pyl, vec, csr, seed: int, repeats: int):
    """The eccentricity-mode cell: the batch 32 wave reduced against
    the same wave's rows, on both backends."""
    import random

    rng = random.Random(seed)  # the same draw as workloads()' batch 32
    sources = [rng.randrange(csr.n) for _ in range(32)]
    cell = {"workload": "eccentricity 32",
            "kernel": "csr_bfs_distances_many", "n": csr.n,
            "m": len(csr.indices) // 2, "batch": 32}
    reduced = {}
    for backend in (pyl, vec):
        kernel = backend.csr_bfs_distances_many
        rows, t_rows, _ = best_of(
            lambda: kernel(csr, None, sources), repeats)
        eccs, t_eccs, first = best_of(
            lambda: kernel(csr, None, sources, eccentricity=True),
            repeats)
        if eccs != [row_eccentricity(row) for row in rows]:
            raise AssertionError(
                f"{backend.name} eccentricity mode diverges from its "
                f"rows at n={csr.n}")
        reduced[backend.name] = eccs
        cell[f"{backend.name}_s"] = t_eccs
        cell[f"{backend.name}_first_call_s"] = first
        cell[f"{backend.name}_rows_s"] = t_rows
        cell[f"{backend.name}_reduce_gain"] = (
            t_rows / t_eccs if t_eccs else float("inf"))
    if reduced["pyloops"] != reduced["vectorized"]:
        raise AssertionError(
            f"eccentricity mode diverges between backends at n={csr.n}")
    t_loop, t_vec = cell["pyloops_s"], cell["vectorized_s"]
    auto = backend_for("csr_bfs_distances_many", csr, 32).name
    cell["speedup"] = t_loop / t_vec if t_vec else float("inf")
    cell["auto_backend"] = auto
    cell["auto_ratio"] = ((t_loop if auto == "pyloops" else t_vec)
                          / min(t_loop, t_vec))
    return cell


def run_experiment(quick: bool, seed: int):
    sizes = [200] if quick else [200, 2_000, 20_000]
    pyl = _pyloops_backend()
    vec = _vectorized_backend()
    assert vec is not None, "bench_backends needs numpy"

    rows = []
    big_batched_speedup = None
    for n in sizes:
        csr = build_snapshot(n, seed + n)
        # Every cell is timed warm (after one untimed call, reported
        # as *_first_call_s), best-of-3 on full runs: single samples
        # on shared machines swing 2-3x.
        repeats = 1 if quick else 3
        for name, kernel, args, batch in workloads(csr, seed):
            loops_out, t_loop, first_loop = best_of(
                lambda: getattr(pyl, kernel)(*args), repeats)
            vec_out, t_vec, first_vec = best_of(
                lambda: getattr(vec, kernel)(*args), repeats)
            if loops_out != vec_out:
                raise AssertionError(
                    f"{kernel} diverges between backends at n={n}")
            speedup = t_loop / t_vec if t_vec else float("inf")
            auto = backend_for(kernel, args[0], batch).name
            t_auto = t_loop if auto == "pyloops" else t_vec
            rows.append({
                "workload": name, "kernel": kernel, "n": n,
                "m": len(csr.indices) // 2, "batch": batch,
                "pyloops_s": t_loop, "vectorized_s": t_vec,
                "speedup": speedup, "auto_backend": auto,
                "auto_ratio": t_auto / min(t_loop, t_vec),
                "pyloops_first_call_s": first_loop,
                "vectorized_first_call_s": first_vec,
            })
            if name == "batch 256" and n == max(sizes):
                big_batched_speedup = speedup
        rows.append(reduction_cell(pyl, vec, csr, seed, repeats))

    # Auto-dispatch guard: tiny calls must stay loops-priced.  The
    # wave itself is ~100us, so single-call samples drown the few-us
    # dispatch delta in timer jitter — each sample times a loop of
    # calls and the best per-call average is compared.
    csr_small = build_snapshot(200, seed)
    inner, samples = (5, 3) if quick else (50, 9)

    def per_call(fn):
        best = float("inf")
        for _ in range(samples):
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best / inner

    set_backend("pyloops")
    try:
        t_forced = per_call(lambda: csr_bfs_distances(csr_small, None, 0))
    finally:
        set_backend(None)
    set_backend("auto")
    try:
        t_auto = per_call(lambda: csr_bfs_distances(csr_small, None, 0))
    finally:
        set_backend(None)
    auto_overhead = t_auto / t_forced - 1.0 if t_forced else 0.0
    # The worst table pick, over the kernel cells (the guard row times
    # dispatch overhead, not a pick).
    worst = max(rows, key=lambda row: row["auto_ratio"])
    rows.append({
        "workload": "auto-dispatch guard", "kernel": "csr_bfs_distances",
        "n": csr_small.n, "m": len(csr_small.indices) // 2, "batch": 1,
        "pyloops_s": t_forced, "vectorized_s": t_auto,
        "speedup": 1.0 / (1.0 + auto_overhead),
        "auto_backend": backend_for("csr_bfs_distances", csr_small).name,
        "auto_ratio": t_auto / min(t_forced, t_auto),
    })

    payload = {
        "bench": "backends",
        "params": {"quick": quick, "seed": seed, "sizes": sizes},
        "rows": rows,
        "big_batched_speedup": big_batched_speedup,
        "auto_dispatch_overhead": auto_overhead,
        "worst_auto_ratio": worst["auto_ratio"],
        # Row time over reduced time of the batch 32 wave, per
        # snapshot and backend: what the eccentricity mode saves.
        "reduce_gain": {
            str(row["n"]): {
                name: row[f"{name}_reduce_gain"]
                for name in ("pyloops", "vectorized")
            }
            for row in rows if row["workload"] == "eccentricity 32"
        },
    }
    return rows, payload, big_batched_speedup, auto_overhead, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (CI): n=200 only, no "
                             "speedup assertions")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if numpy_or_none() is None:
        print("bench_backends: numpy unavailable, nothing to compare")
        return 0

    rows, payload, big_speedup, auto_overhead, worst = run_experiment(
        args.quick, args.seed)
    headline = (f"{big_speedup:.1f}x" if big_speedup is not None
                else "n/a (quick)")
    emit(
        "backends", rows,
        "BACKENDS: pyloops vs vectorized kernels "
        "(bit-identical outputs asserted per cell)",
        notes=(
            f"large batched speedup: {headline} (target >= 3x); "
            f"auto-dispatch overhead on a small single wave: "
            f"{auto_overhead * 100:+.1f}% (bar: <= 5%); "
            f"auto vs the faster backend, worst cell: "
            f"{worst['auto_ratio']:.2f}x ({worst['kernel']}, "
            f"n={worst['n']}, batch={worst['batch']}; target <= 1.15x, "
            f"not asserted); eccentricity mode vs rows, batch 32 "
            f"(row time / reduced time): " + ", ".join(
                f"n={n} pyloops {gain['pyloops']:.2f}x vectorized "
                f"{gain['vectorized']:.2f}x"
                for n, gain in payload["reduce_gain"].items())
        ),
        quick=args.quick,
    )
    emit_json("backends", payload)
    failed = []
    if not args.quick:
        if big_speedup is not None and big_speedup < 3.0:
            failed.append(
                f"large batched: expected >= 3x, measured "
                f"{big_speedup:.2f}x")
        if auto_overhead > 0.05:
            failed.append(
                f"auto dispatch regresses small waves by "
                f"{auto_overhead * 100:.1f}% (> 5%)")
    for line in failed:
        print(f"FAIL: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
