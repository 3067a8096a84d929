"""Quickstart: sessions, plans, campaigns and models in five minutes.

Run with::

    python examples/quickstart.py

The script walks through the library in the order a new user meets it: open a
:func:`repro.session` (the single entry point owning machine, scale, execution
backend and campaign store), build WHT plans, check they all compute the same
transform, measure them through the session, run a measurement campaign, and
evaluate the analytic models the paper builds its search-pruning argument on.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.models import CacheMissModel, InstructionCountModel
from repro.wht import (
    iterative_plan,
    left_recursive_plan,
    parse_plan,
    right_recursive_plan,
)
from repro.wht.transform import apply_plan, random_input, wht_reference


def main() -> None:
    n = 10  # transform size 2^10 = 1024

    # 1. A session bundles the simulated machine, the experiment scale, an
    #    execution backend and a campaign store.  Presets cover the common
    #    cases; pass backend="multiprocess" to fan campaigns out across
    #    worker processes, or store="./campaigns" to persist completed
    #    campaigns to disk so later runs skip re-measurement.
    sess = repro.session(machine="default", scale="default", backend="serial")
    print(sess.describe())

    # 2. Plans are split trees; the canonical algorithms are one-liners and
    #    arbitrary algorithms can be parsed from the WHT package's syntax.
    plans = {
        "iterative": iterative_plan(n),
        "right recursive": right_recursive_plan(n),
        "left recursive": left_recursive_plan(n),
        "custom": parse_plan("split[small[4],split[small[3],small[3]]]"),
    }
    print("\nPlans under study:")
    for name, plan in plans.items():
        print(f"  {name:16s} {plan}")

    # 3. Every plan computes the same Walsh–Hadamard transform.
    x = random_input(n, seed=42)
    reference = wht_reference(x)
    for name, plan in plans.items():
        assert np.allclose(apply_plan(plan, x), reference), name
    print("\nAll plans agree with the reference transform.")

    # 4. The session measures plans on its machine (the paper's Opteron+PAPI
    #    stand-in); one table row per plan.
    table = sess.measure_plans(plans.values())
    print(f"\n{'plan':16s} {'instructions':>14s} {'L1 misses':>10s} {'cycles':>12s}")
    for name, instructions, misses, cycles in zip(
        plans, table.instructions, table.l1_misses, table.cycles
    ):
        print(f"{name:16s} {instructions:>14.0f} {misses:>10.0f} {cycles:>12.0f}")

    # 5. Campaigns are the paper's random-sampling methodology: RSU-random
    #    plans measured through the session's backend and cached in its
    #    store.  (This is what sess.run_all() builds every figure from.)
    campaign = sess.campaign(n, 5)
    print("\nFive RSU-random plans and their measured cycles:")
    for plan, cycles in zip(campaign.plans, campaign.cycles):
        print(f"  {cycles:>12.0f}  {plan}")

    # 6. The analytic models give instruction counts without running
    #    anything, and a cache-miss estimate from the plan structure alone.
    machine = sess.machine
    instruction_model = InstructionCountModel(machine.config.instruction_model)
    miss_model = CacheMissModel.from_machine_config(machine.config)
    print("\nAnalytic models (no execution):")
    print(f"{'plan':16s} {'model instructions':>20s} {'model misses':>14s}")
    for name, plan in plans.items():
        print(
            f"{name:16s} {instruction_model.count(plan):>20d} "
            f"{miss_model.misses(plan):>14d}"
        )

    # 7. The DP search the WHT package uses to find its best algorithm:
    best = sess.search(n)
    print(f"\nDP-best plan at 2^{n}: {best.best_plan} ({best.best_cost:.0f} cycles)")

    # 8. Searches are parameterised by an *objective* over named metrics.
    #    objective="cycles" is the classic search through the session's
    #    batched cost engine (one simulated run populates every hardware
    #    counter metric, and all records persist in the session's store);
    #    model metrics and weighted composites — the paper's alpha*I +
    #    beta*M — plug into the same API and reuse every cached record.
    by_cycles = sess.search(n, use_engine=True, objective="cycles")
    by_misses = sess.search(n, objective="l1_misses")
    combined = sess.search(n, objective=repro.WeightedObjective.combined(1.0, 0.05))
    model_only = sess.search(n, objective="model_instructions")  # zero measurements
    print("\nThe same search under four objectives (the paper's point: they differ):")
    for label, result in (
        ("cycles", by_cycles),
        ("l1_misses", by_misses),
        ("1.00*I + 0.05*M", combined),
        ("model instructions", model_only),
    ):
        print(f"  {label:20s} best = {result.best_plan} ({result.best_cost:.0f})")

    # 9. Batches are where the measurement substrate earns its keep: the
    #    engine fuses a candidate list's distinct plans into one cross-plan
    #    workload (one vectorised cache pass per level, analytic shortcuts
    #    for footprints that fit a cache level — see DESIGN.md §10).  Timing
    #    notes, one laptop core, Opteron-like geometry: an engine-cold DP
    #    search at n=16 runs in ~0.3 s and the paper's 1000-candidate pruned
    #    search at n=14 in ~2 s (both were several seconds per-plan; a
    #    warm-store resume is still milliseconds with zero measurements).
    import time

    from repro.wht.random_plans import RSUSampler

    engine = sess.cost_engine()
    batch = RSUSampler().sample_many(n, 200, rng=0)
    measured_before = engine.measured
    start = time.perf_counter()
    engine.records(batch, ("cycles",))
    elapsed = time.perf_counter() - start
    print(
        f"\nBatched measurement: {len(batch)} RSU plans in {elapsed:.3f} s "
        f"({engine.measured - measured_before} simulated; duplicates and "
        f"already-searched plans came from the record cache)"
    )

    # 10. Many sessions, one measurement pipeline: a campaign service owns a
    #     job queue, a worker fleet and a sharded record store, and any
    #     number of sessions connect to it (threads here; across processes
    #     with a disk-backed service store).  Overlapping work is deduped
    #     fleet-wide — the second session's whole search is served from the
    #     first one's measurements, and both match a private session's
    #     result bit for bit.
    with repro.serve(workers=2) as service:
        first = repro.Session.connect(service)
        second = repro.Session.connect(service)
        best_first = first.search(n)
        measured_after_first = service.stats().measured
        best_second = second.search(n)
        stats = service.stats()
        assert str(best_first.best_plan) == str(best_second.best_plan)
        assert stats.measured == measured_after_first  # second session: zero
        print(
            f"\nCampaign service: two sessions searched n={n}; "
            f"{stats.measured} real measurements total, "
            f"{stats.store_hits + stats.dedup_savings} duplicate requests "
            f"served without touching the machine"
        )

    # 11. Chaos run: the service survives injected failures without changing
    #     a single answer.  A FaultPlan schedules faults deterministically
    #     from a seed; here ~25% of backend batches fail and the plan that
    #     won step 8's cycles search is poisoned outright (its batch always
    #     fails, ending in the dead-letter quarantine).  A fallback-armed
    #     session degrades gracefully — batches the service cannot answer
    #     run through a private engine, bit-identically — so the search
    #     still completes and still agrees with the fault-free result.
    fault_plan = repro.FaultPlan(
        seed=0,
        backend=repro.FaultSpec(error_rate=0.2, crash_rate=0.05),
        poison_plans=[by_cycles.best_plan],
    )
    chaotic_backend = repro.FaultyBackend(repro.BatchedBackend(), fault_plan)
    with repro.CampaignService(
        backend=chaotic_backend, workers=2, max_attempts=3, backoff_base=0.005
    ) as service:
        survivor = repro.Session.connect(service, fallback=True)
        best_chaos = survivor.search(n, use_engine=True)
        assert str(best_chaos.best_plan) == str(by_cycles.best_plan)
        assert best_chaos.best_cost == by_cycles.best_cost
        stats = service.stats()
        print(
            f"\nChaos run: {fault_plan.injected()} injected failures, "
            f"{stats.retries} retries, {stats.quarantined} poison batch(es) "
            f"quarantined, {survivor.cost_engine().fallbacks} batch(es) "
            f"served by fallback — result bit-identical to the clean search "
            f"({service.health().describe()})"
        )

    # 12. Multi-host: the same service behind a socket.  serve_tcp fronts a
    #     CampaignService with a length-prefixed JSON-frame protocol, and
    #     Session.connect("tcp://host:port") gives a remote session the full
    #     engine surface — request-id idempotency, heartbeats and reconnect
    #     with deterministic backoff guarantee no duplicate measurements even
    #     across network failures (DESIGN.md §13).  The remote search matches
    #     the in-process one bit for bit.
    with repro.CampaignService(workers=2) as service:
        local = repro.Session.connect(service)
        best_local = local.search(n, use_engine=True)
        with repro.serve_tcp(service, host="127.0.0.1", port=0) as server:
            remote = repro.Session.connect(server.url)
            best_remote = remote.search(n, use_engine=True)
            assert str(best_remote.best_plan) == str(best_local.best_plan)
            assert best_remote.best_cost == best_local.best_cost
            wire_stats = server.stats()
            remote.close()
            print(
                f"\nRemote session over {server.url}: "
                f"{wire_stats['requests']} framed requests, result "
                f"bit-identical to the in-process session"
            )

    # 13. The whole experiment catalogue as data: a suite spec declares
    #     machines x scale x seeds x experiments, and repro.suite(spec).run()
    #     executes it baseline-first (shared campaigns measured once per
    #     context), streams tables to sinks, and records a manifest so an
    #     interrupted run resumes where it stopped.  Re-running against the
    #     same store measures nothing — and extra objectives in a sweep are
    #     evaluated from cached records at zero measurement cost
    #     (DESIGN.md §14).  The committed paper spec lives at
    #     benchmarks/suites/paper.json; here a CI-sized inline spec.
    result = repro.suite(
        {
            "name": "quickstart-suite",
            "machines": ["tiny"],
            "scale": "ci",
            "experiments": [
                "figure5",
                {
                    "id": "sweep",
                    "kind": "objective_sweep",
                    "options": {"objectives": ["cycles", "instructions"], "sizes": [6]},
                },
            ],
        }
    ).run()
    assert result.ok
    sweep = result.get("sweep").figure
    rho, tau = sweep.disagreement(6, "cycles", "instructions")
    print(
        f"\nSuite run: {len(result.completed)} experiments, "
        f"{result.total_measured} measurements; cycles-vs-instructions "
        f"rank agreement at n=6: rho={rho:.3f}, tau={tau:.3f}"
    )

    # 14. The fleet: many servers, one record space.  A *list* of URLs turns
    #     Session.connect into a fleet tenant — every batch is striped over a
    #     rendezvous-hash ring of servers sharing one sharded record store.
    #     The client's ring is the only router: a server measures every key
    #     it is sent.  When a member dies mid-run the client rehashes its
    #     keys to the survivors, whose shared store serves whatever the dead
    #     member persisted.  The search completes, bit-identical to the
    #     single-session result, with zero duplicate measurements
    #     (DESIGN.md §15).
    import tempfile

    with tempfile.TemporaryDirectory() as shared_dir:
        services = [
            repro.CampaignService(
                store=repro.ShardedRecordStore(shared_dir, auto_compact=None),
                workers=2,
                shared_store=True,
            )
            for _ in range(3)
        ]
        servers = [
            repro.serve_tcp(service, host="127.0.0.1", port=0)
            for service in services
        ]
        urls = [server.url for server in servers]
        for server in servers:
            server.join_fleet(urls, self_url=server.url)
        fleet_sess = repro.Session.connect(urls)
        engine = fleet_sess.cost_engine()
        victim = 1
        servers[victim].close()  # one member dies out from under the client
        services[victim].shutdown()
        best_fleet = fleet_sess.search(n, use_engine=True)
        assert str(best_fleet.best_plan) == str(by_cycles.best_plan)
        assert best_fleet.best_cost == by_cycles.best_cost
        assert engine.failovers >= 1
        print(
            f"\nFleet run over {len(urls)} servers with one killed mid-run: "
            f"{engine.failovers} failover(s), zero duplicate measurements, "
            f"search bit-identical to the single-session result ({engine!r})"
        )
        fleet_sess.close()
        for index, server in enumerate(servers):
            if index != victim:
                server.close()
                services[index].shutdown()


if __name__ == "__main__":
    main()
