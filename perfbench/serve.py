"""The server process of the warm benchmark workloads.

Hosts three :class:`~repro.runtime.service.CampaignService`\\ s in fleet
mode (``shared_store=True``) over one
:class:`~repro.runtime.sharded_store.ShardedRecordStore`, each fronted by a
loopback TCP server: one standalone, two joined into a fleet.  Prints
``{"standalone": url, "fleet": [url, url]}`` once listening, serves until
standard input closes, then shuts everything down and prints its report as
the last line::

    {"measured": 0, "retries": 0, "quarantined": 0, "trace": {...} | null}

``--trace 1`` wraps the layers of this process too, from start to shutdown
(see ``tracing.py``), so the warm-up search and the first store reads count;
the report then carries the raw span self times and counters.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.runtime import CampaignService, ShardedRecordStore
from repro.runtime.transport import serve_tcp

from tracing import Tracer


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer().install() if args.trace else None
    store = ShardedRecordStore(args.store)
    services = [
        CampaignService(store=store, shared_store=True, name=name)
        for name in ("standalone", "member-0", "member-1")
    ]
    servers = [serve_tcp(service) for service in services]
    fleet = [server.url for server in servers[1:]]
    for server in servers[1:]:
        server.join_fleet(fleet, self_url=server.url)
    print(json.dumps({"standalone": servers[0].url, "fleet": fleet}), flush=True)

    sys.stdin.read()

    for server in servers:
        server.close()
    stats = [service.stats() for service in services]
    for service in services:
        service.shutdown()
    store.close()
    report = {
        "measured": sum(s.measured for s in stats),
        "retries": sum(s.retries for s in stats),
        "quarantined": sum(s.quarantined for s in stats),
        "trace": None,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.count("service.retries", report["retries"])
        tracer.count("service.quarantined", report["quarantined"])
        report["trace"] = tracer.snapshot()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
