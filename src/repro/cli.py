"""Command-line interface: ``python -m repro <command>``.

Five commands, each a thin veneer over the library:

* ``demo`` — the quickstart flow on a built-in graph (or an edge-list
  file): select, break, restore, report.
* ``verify`` — certify a scheme's properties (consistency, stability,
  restorability) on a graph, exhaustively.
* ``preserver`` — build an S x S fault-tolerant preserver and print
  (or save) its edges, with optional verification.
* ``labels`` — build a fault-tolerant distance labeling and report
  label sizes against the Theorem-30 bound.
* ``query`` — drive a mixed declarative query stream (pairs, vectors,
  eccentricities, connectivity) through a :mod:`repro.query` session
  and report what the planner batched, cached, and filtered — or,
  with ``--connect HOST:PORT``, through a running scenario service.
* ``serve`` — run the scenario service (:mod:`repro.service`): an
  asyncio front over one shared session (or fleet) backend, with
  cross-client wave coalescing and admission control; with
  ``--metrics-port`` it also records observability metrics
  (:mod:`repro.obs`) and exposes them over HTTP in Prometheus text.
* ``stats`` — ask a running service for its counters, backend cache
  numbers, and observability snapshot (``--prometheus`` dumps the
  scrape text).

Graph-construction errors (:class:`~repro.exceptions.GraphError`)
exit 2 with a one-line message on stderr — the argparse convention —
never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.exceptions import GraphError
from repro.graphs import generators
from repro.graphs.base import Graph
from repro.graphs.io import read_edgelist

#: The one source of truth for --family choices, shared by every
#: subcommand (previously spelled per subparser) and kept in lockstep
#: with ``generators.by_name``.
FAMILIES = generators.FAMILIES


def _load_graph(args) -> Graph:
    if args.input:
        try:
            return read_edgelist(args.input)
        except OSError as exc:
            # A missing/unreadable file is a usage error like any
            # other bad graph input: surface it through the same
            # exit-2 path instead of a traceback.
            raise GraphError(f"cannot read {args.input}: {exc}") from exc
    return generators.by_name(args.family, args.size, seed=args.seed)


def _add_graph_args(parser) -> None:
    parser.add_argument("--input", help="edge-list file (overrides family)")
    parser.add_argument(
        "--family", default="er", choices=FAMILIES,
        help="built-in graph family (default: er)",
    )
    parser.add_argument("--size", type=int, default=20,
                        help="family size parameter (default: 20)")
    parser.add_argument("--seed", type=int, default=0)


def cmd_demo(args) -> int:
    from repro import RestorableTiebreaking, restore_by_concatenation

    graph = _load_graph(args)
    print(f"graph: n={graph.n}, m={graph.m}")
    scheme = RestorableTiebreaking.build(graph, f=1, seed=args.seed)
    s, t = 0, graph.n - 1
    path = scheme.path(s, t)
    if path is None:
        print(f"{s} and {t} are disconnected; nothing to demo")
        return 1
    print(f"selected {s} ~> {t}: {path} ({path.hops} hops)")
    for e in path.edges():
        result = restore_by_concatenation(scheme, s, t, [e])
        print(f"  fault {e}: restored via midpoint {result.midpoint} "
              f"-> {result.path.hops} hops")
    return 0


def cmd_verify(args) -> int:
    from repro import RestorableTiebreaking
    from repro.core import properties

    graph = _load_graph(args)
    scheme = RestorableTiebreaking.build(
        graph, f=args.faults, method=args.method, seed=args.seed
    )
    print(f"graph: n={graph.n}, m={graph.m}; scheme: {scheme.name}")
    checks = {
        "tiebreaking (Def 18)": scheme.weights.verify_tiebreaking(),
        "consistent (Def 14)": properties.is_consistent(scheme),
        "stable (Def 16)": properties.is_stable(scheme),
        "1-restorable (Def 17)": properties.is_restorable(scheme),
    }
    failed = False
    for name, ok in checks.items():
        print(f"  {name:<24} {'OK' if ok else 'VIOLATED'}")
        failed |= not ok
    return 1 if failed else 0


def cmd_preserver(args) -> int:
    from repro.preservers import ft_ss_preserver, verify_preserver
    from repro.graphs.io import preserver_to_json

    graph = _load_graph(args)
    sources = (
        [int(x) for x in args.sources.split(",")]
        if args.sources else
        list(range(0, graph.n, max(1, graph.n // 4)))
    )
    preserver = ft_ss_preserver(
        graph, sources, faults_tolerated=args.faults, seed=args.seed
    )
    print(f"graph: n={graph.n}, m={graph.m}; S={sources}")
    print(f"{args.faults}-FT S x S preserver: {preserver.size} edges "
          f"({preserver.fault_sets_explored} fault sets explored)")
    if args.check:
        sampled = generators.fault_sample(
            graph, 20, seed=args.seed, size=args.faults
        )
        ok = verify_preserver(graph, preserver.edges, sources,
                              fault_sets=sampled)
        print(f"sampled verification: {'OK' if ok else 'VIOLATED'}")
        if not ok:
            return 1
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(preserver_to_json(preserver))
        print(f"written to {args.output}")
    return 0


def cmd_labels(args) -> int:
    from repro.labeling import DistanceLabeling
    from repro.analysis.bounds import thm30_label_bits_bound

    graph = _load_graph(args)
    overlay = args.faults - 1
    labeling = DistanceLabeling.build(graph, f=overlay, seed=args.seed)
    bound = thm30_label_bits_bound(graph.n, overlay)
    print(f"graph: n={graph.n}, m={graph.m}")
    print(f"{args.faults}-FT labels: max {labeling.max_label_bits()} bits, "
          f"total {labeling.total_bits()} bits "
          f"(Theorem 30 bound ~{bound:.0f} bits/label)")
    return 0


def cmd_query(args) -> int:
    import random

    from repro.query import (
        ConnectivityQuery,
        DistanceQuery,
        EccentricityQuery,
        Session,
        VectorQuery,
    )
    from repro.scenarios import random_fault_sets

    graph = _load_graph(args)
    workers = getattr(args, "workers", 0)
    connect = getattr(args, "connect", None)
    if connect:
        from repro.service import ServiceClient

        host, _, port = connect.rpartition(":")
        session = ServiceClient(host or "127.0.0.1", int(port))
    elif workers > 0:
        from repro.fleet import FleetSession

        session = FleetSession(graph, workers=workers)
    else:
        session = Session(graph)
    rng = random.Random(args.seed)
    vertices = sorted(graph.vertices())
    pairs = [
        (rng.choice(vertices), rng.choice(vertices))
        for _ in range(args.pairs)
    ]
    scenarios = random_fault_sets(
        graph, args.faults, args.scenarios, seed=args.seed
    )
    probe = vertices[0]
    for faults in scenarios:
        session.submit(DistanceQuery(s, t, faults) for s, t in pairs)
        session.submit(
            VectorQuery(probe, faults),
            EccentricityQuery(probe, faults),
            ConnectivityQuery(faults),
        )
    print(f"graph: n={graph.n}, m={graph.m}")
    if connect:
        print(f"service: connected to {session.server!r} at "
              f"{connect} — the local graph args must describe the "
              f"served graph")
    elif workers > 0:
        print(f"fleet: {workers} workers, sharded by fault set")
    print(f"query stream: {session.pending} queries "
          f"({len(scenarios)} fault sets x {len(pairs)} monitored pairs "
          f"+ vector/eccentricity/connectivity probes)")
    answers = session.gather()
    # Fault-free base distances through the same session surface, so
    # the degraded-pair count works for local and fleet sessions alike
    # (a fleet hides its engines behind the worker boundary).
    base = {
        a.query.source: a.value
        for a in session.answer(
            VectorQuery(s) for s in sorted({s for s, _ in pairs})
        )
    }
    degraded = sum(
        1 for a in answers
        if isinstance(a.query, DistanceQuery)
        and a.value != base[a.query.source][a.query.target]
    )
    cut = sum(
        1 for a in answers
        if isinstance(a.query, ConnectivityQuery) and not a.value
    )
    st = session.stats
    waves = ("counted server-side" if connect
             else f"served by {st.waves} batched waves")
    print(f"answers: {st.cache} cache / {st.filter} filter / "
          f"{st.delta} delta / {st.wave} wave ({waves})")
    _print_provenance(answers)
    print(f"degraded monitored-pair answers: {degraded}; "
          f"disconnecting fault sets: {cut}/{len(scenarios)}")
    print(f"engine LRU: {_cache_line(session.cache_info())}")
    if connect:
        server = session.server_stats()["server"]
        print(f"service: {server['batches']} micro-batches, "
              f"{server['coalesced_queries']} queries shared their "
              f"fault set's wave with another request")
    elif workers > 0:
        shares = ", ".join(
            f"{name}={count}" for name, count in
            sorted(st.by_worker.items())
        )
        print(f"worker shares: {shares}")
    session.close()
    print(f"session: {session!r}")
    return 0


def _cache_line(info) -> str:
    """One line of a :class:`~repro.scenarios.engine.CacheInfo`: the
    LRU's rows, its vector-cache counters and the delta counters."""
    return (f"{info.size}/{info.maxsize} rows, vector cache "
            f"{info.vector_hits}h/{info.vector_misses}m/"
            f"{info.vector_evictions}e, delta "
            f"{info.delta_hits}h/{info.delta_fallbacks}f")


def _print_provenance(answers) -> None:
    """One line per provenance dimension the answers actually carry:
    which kernel backend served the waves/repairs, which fleet worker
    produced each answer, and how many answers shared their fault
    set's wave with another request (``coalesced > 1``)."""
    from collections import Counter

    backends = Counter(a.provenance.backend for a in answers
                       if a.provenance.backend)
    if backends:
        print("backends: " + ", ".join(
            f"{name}={count}" for name, count in sorted(backends.items())))
    workers = Counter(a.provenance.worker for a in answers
                      if a.provenance.worker)
    if workers:
        print("workers: " + ", ".join(
            f"{name}={count}" for name, count in sorted(workers.items())))
    shared = sum(1 for a in answers if (a.provenance.coalesced or 0) > 1)
    if shared:
        print(f"coalesced: {shared}/{len(answers)} answers shared "
              f"their fault set's wave with another request")


def cmd_serve(args) -> int:
    import asyncio

    from repro.query import Session
    from repro.service import ScenarioServer

    graph = _load_graph(args)
    if args.workers > 0:
        from repro.fleet import FleetSession

        backend = FleetSession(graph, workers=args.workers)
    else:
        backend = Session(graph)

    metrics_server = None
    if args.metrics_port is not None:
        from repro import obs

        obs.enable()
        metrics_server = obs.MetricsServer(
            obs.render_prometheus, host=args.host,
            port=args.metrics_port)

    async def _serve() -> None:
        server = ScenarioServer(
            backend, host=args.host, port=args.port,
            max_batch=args.max_batch,
        )
        await server.start()
        host, port = server.address
        print(f"serving n={graph.n}, m={graph.m} on {host}:{port} "
              f"(requests read in one loop turn share a batch, "
              f"those arriving mid-batch share the next, <= "
              f"{server.coalescer.max_batch} queries)")
        if metrics_server is not None:
            print(f"metrics: http://{args.host}:"
                  f"{metrics_server.port}/ (Prometheus text)")
        if args.port_file:
            from pathlib import Path

            Path(args.port_file).write_text(f"{host}:{port}\n")
        try:
            if args.ttl > 0:
                await asyncio.sleep(args.ttl)
            else:
                await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.drain()
            print(f"drained: {server.counters()}")

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        if metrics_server is not None:
            metrics_server.close()
        if args.workers > 0:
            backend.close()
    return 0


def cmd_stats(args) -> int:
    from repro.obs.export import render_prometheus
    from repro.service import ServiceClient

    host, _, port = args.connect.rpartition(":")
    with ServiceClient(host or "127.0.0.1", int(port),
                       client="repro-stats") as client:
        reply = client.server_stats()
    server = reply.get("server", {})
    print(f"server {client.server!r} at {args.connect}")
    print("counters: " + ", ".join(
        f"{name}={value}" for name, value in sorted(server.items())))
    info = reply.get("cache")
    if info is not None:
        print(f"backend LRU: {_cache_line(info)}")
    obs_view = reply.get("obs") or {}
    metrics = obs_view.get("metrics", [])
    spans = obs_view.get("spans", [])
    state = "on" if obs_view.get("enabled") else "off"
    print(f"observability: {state}, {len(metrics)} metrics, "
          f"{len(spans)} spans buffered")
    if args.prometheus and metrics:
        print(render_prometheus(metrics), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Restorable shortest path tiebreaking "
                    "(Bodwin & Parter, PODC 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="select, break, restore")
    _add_graph_args(demo)
    demo.set_defaults(fn=cmd_demo)

    verify = sub.add_parser("verify", help="certify scheme properties")
    _add_graph_args(verify)
    verify.add_argument("--faults", type=int, default=1)
    verify.add_argument("--method", default="random",
                        choices=["random", "deterministic", "uniform"])
    verify.set_defaults(fn=cmd_verify)

    pres = sub.add_parser("preserver", help="build an S x S FT preserver")
    _add_graph_args(pres)
    pres.add_argument("--faults", type=int, default=1)
    pres.add_argument("--sources", help="comma-separated vertex ids")
    pres.add_argument("--check", action="store_true",
                      help="verify on sampled fault sets")
    pres.add_argument("--output", help="write the preserver as JSON")
    pres.set_defaults(fn=cmd_preserver)

    labels = sub.add_parser("labels", help="build FT distance labels")
    _add_graph_args(labels)
    labels.add_argument("--faults", type=int, default=1)
    labels.set_defaults(fn=cmd_labels)

    query = sub.add_parser(
        "query", help="drive a declarative query stream through a session"
    )
    _add_graph_args(query)
    query.add_argument("--pairs", type=int, default=12,
                       help="monitored (s, t) pairs (default: 12)")
    query.add_argument("--scenarios", type=int, default=10,
                       help="random fault sets (default: 10)")
    query.add_argument("--faults", type=int, default=1,
                       help="faults per scenario (default: 1)")
    query.add_argument("--workers", type=int, default=0,
                       help="shard the stream across N fleet worker "
                            "processes (default: 0 = in-process)")
    query.add_argument("--connect", metavar="HOST:PORT",
                       help="answer through a running scenario "
                            "service instead of in-process (the "
                            "graph args must describe the served "
                            "graph)")
    query.set_defaults(fn=cmd_query)

    serve = sub.add_parser(
        "serve", help="run the scenario service over a shared session"
    )
    _add_graph_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default: 0 = pick a free one)")
    serve.add_argument("--port-file",
                       help="write the bound HOST:PORT to this file "
                            "once listening (for scripted clients)")
    serve.add_argument("--workers", type=int, default=0,
                       help="back the service with an N-worker fleet "
                            "(default: 0 = one in-process session)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="coalescer cap on queries per batch "
                            "(default: 64)")
    serve.add_argument("--ttl", type=float, default=0,
                       help="serve for this many seconds then drain "
                            "(default: 0 = forever)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="enable observability and expose "
                            "Prometheus metrics over HTTP on this "
                            "port (0 = pick a free one)")
    serve.set_defaults(fn=cmd_serve)

    stats = sub.add_parser(
        "stats", help="query a running scenario service's counters "
                      "and observability snapshot"
    )
    stats.add_argument("--connect", metavar="HOST:PORT", required=True,
                       help="the service's bound address")
    stats.add_argument("--prometheus", action="store_true",
                       help="dump the server's metrics in Prometheus "
                            "text format")
    stats.set_defaults(fn=cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GraphError as exc:
        # Bad graph input (unknown family, malformed edge list, ...)
        # is a usage error: exit 2 with a message, never a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
