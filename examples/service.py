#!/usr/bin/env python3
"""The scenario service: many clients, one backend, shared waves.

A :class:`~repro.service.ScenarioServer` is an asyncio network front
over one shared :class:`~repro.query.Session` (or a sharded
:class:`~repro.fleet.FleetSession`).  Clients speak the exact session
dialect over a socket — and the server's
:class:`~repro.service.Coalescer` batches the requests it reads in
one poll together.  Each batch runs on the server's event loop, so
requests that arrive while one runs wait in their sockets and share
the next: clients querying the *same* failure ride one masked wave.
This tour walks the three things the service adds:

1. **The dialect over the wire** — `ServiceClient` is a drop-in for
   `Session`: submit/gather/answer, typed answers with provenance.
2. **Cross-client coalescing under load** — while a third client's
   sweep runs, two clients ask about the same fault set; their
   requests wait for it and share the next batch, one wave answers
   both, and every answer's ``provenance.coalesced`` says how many
   clients' requests asked about its fault set.
3. **Admission control** — typed ``ServiceError`` backpressure
   instead of unbounded queues.

Run:  PYTHONPATH=src python examples/service.py
"""

import threading
import time

from repro.exceptions import ServiceError
from repro.graphs import generators
from repro.query import DistanceQuery, EccentricityQuery, Session, VectorQuery
from repro.service import BackgroundServer, ServiceClient


def main() -> None:
    graph = generators.connected_erdos_renyi(400, 5.0 / 400, seed=7)
    backend = Session(graph, delta=False)

    with BackgroundServer(backend) as server:
        host, port = server.address
        print(f"serving {server.server.name!r} on {host}:{port}")

        # --- 1. the session dialect, spoken over a socket ------------
        with ServiceClient(host, port, client="tour") as client:
            print(f"welcome: server={client.server!r} "
                  f"limits={client.limits}")
            client.submit(DistanceQuery(0, graph.n - 1, [(0, 1)]))
            client.submit([EccentricityQuery(3, [(0, 1)])])
            answers = client.gather()
            for a in answers:
                print(f"  {type(a.query).__name__}: value={a.value} "
                      f"via {a.provenance.source}")

        # --- 2. cross-client coalescing under load -------------------
        # A request that finds the backend idle goes to it at the end
        # of the loop turn that read it, with whatever else that poll
        # read.  The batch runs on the server's event loop, which
        # reads no frames until it ends: requests that arrive
        # meanwhile wait in their sockets, and the next poll reads
        # them together into the next batch.
        # Carol's sweep over 200 failures is running when Alice and
        # Bob both ask about fault set F: their two requests share
        # the batch after the sweep, the planner groups them by fault
        # set, and one wave serves both.
        F, *others = [(e,) for e in graph.edges()]
        a = ServiceClient(host, port, client="noc-alice")
        b = ServiceClient(host, port, client="noc-bob")
        carol = ServiceClient(host, port, client="noc-carol")
        sweep = [VectorQuery(0, faults) for faults in others[:200]]
        sweeping = threading.Thread(target=carol.answer, args=(sweep,))
        sweeping.start()
        time.sleep(0.05)  # the sweep reaches the server and starts
        barrier = threading.Barrier(2)
        results = {}

        def ask(name, client, source):
            barrier.wait()
            results[name] = client.answer([VectorQuery(source, F)])

        threads = [
            threading.Thread(target=ask, args=("alice", a, 0)),
            threading.Thread(target=ask, args=("bob", b, 1)),
        ]
        for t in threads:
            t.start()
        for t in threads + [sweeping]:
            t.join()
        carol.close()
        for name, (answer,) in sorted(results.items()):
            p = answer.provenance
            print(f"coalesced for {name}: wave_size={p.wave_size} "
                  f"coalesced={p.coalesced} (both clients, one wave)")
        counters = a.server_stats()["server"]
        print(f"server counters: batches={counters['batches']} "
              f"coalesced_queries={counters['coalesced_queries']}")

        # --- 3. admission control ------------------------------------
        # The per-client in-flight budget is 256 (the default); a
        # 300-query request is refused outright with a typed,
        # machine-readable error.
        try:
            a.answer([DistanceQuery(0, t % graph.n) for t in range(300)])
        except ServiceError as exc:
            print(f"backpressure: code={exc.code!r} ({exc})")

        a.close()
        b.close()
        print(f"\nbackend served everything: {backend!r}")


if __name__ == "__main__":
    main()
