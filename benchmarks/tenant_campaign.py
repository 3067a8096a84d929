"""Two concurrent in-process tenants running one RSU campaign on one service.

Both tenants are ``Session.connect(service)`` sessions started together on a
shared :class:`~repro.runtime.service.CampaignService`; each measures the same
campaign of ``COUNT`` RSU samples of size ``2^N`` on the default machine.  The
script counts the plans that reach the machine's fused prepare step, checks
that both tables are equal, and prints one line::

    wall_s prepared_plans distinct_plans

Each distinct plan should be prepared once however many tenants run it.
To compare two checkouts, alternate runs of each over ten or more pairs::

    PYTHONPATH=src python benchmarks/tenant_campaign.py 13 400
    PYTHONPATH=src python benchmarks/tenant_campaign.py 9 10000
"""

from __future__ import annotations

import sys
import threading
import time

from repro.machine.machine import SimulatedMachine
from repro.runtime.service import CampaignService
from repro.runtime.session import Session
from repro.wht.encoding import plan_key


def main(n: int, count: int) -> str:
    prepared: "list[str]" = []
    original = SimulatedMachine._prepare_fused

    def recording(machine, plans):
        prepared.extend(plan_key(plan) for plan in plans)
        return original(machine, plans)

    SimulatedMachine._prepare_fused = recording
    try:
        with CampaignService(workers=2) as service:
            sessions = [Session.connect(service) for _ in range(2)]
            tables = [None, None]
            start = threading.Barrier(len(sessions))

            def run(index: int) -> None:
                start.wait()
                tables[index] = sessions[index].campaign(n, count)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            began = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - began
    finally:
        SimulatedMachine._prepare_fused = original
    if not tables[0].equals(tables[1]):
        raise SystemExit("tenant tables differ")
    return f"{wall:.3f} {len(prepared)} {len(set(prepared))}"


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: tenant_campaign.py N COUNT")
    print(main(int(sys.argv[1]), int(sys.argv[2])))
