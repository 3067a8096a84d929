"""One iteration of one benchmark workload, run in a fresh process.

``run.py`` starts this script once per iteration so that every cold
iteration really is cold: the package keeps process-level caches (the
theory optimiser, plan encodings) that a second run in the same process
would hit.  The protocol is JSON lines on standard output::

    {"event": "ready"}                  set-up is complete
    {"event": "done", ...}              timed phase, gates and counters

``run.py`` times set-up from process start to the ``ready`` line.  Run by
hand for a single iteration::

    PYTHONPATH=src python3 perfbench/workloads.py --workload dp18-cold \\
        --size tiny --scratch .perfbench_work/manual
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.machine.configs import default_machine_config, tiny_machine_config
from repro.machine.machine import MachineConfig, SimulatedMachine
from repro.runtime import (
    CostEngine,
    FleetClient,
    RemoteServiceClient,
    ShardedRecordStore,
)
from repro.search.dp import dp_search
from repro.suite.runner import SuiteRun
from repro.wht.encoding import plan_key

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
PAPER_SPEC = ROOT / "benchmarks" / "suites" / "paper.json"


@dataclass(frozen=True)
class Size:
    """The machines and problem sizes of one benchmark size."""

    dp_machine: Callable[[], MachineConfig]
    dp_n: int
    suite_machine: str
    suite_scale: str
    warm_machine: Callable[[], MachineConfig]
    warm_n: int


SIZES = {
    # The paper's large size on the scaled default machine.
    "paper": Size(
        dp_machine=lambda: default_machine_config(noise_sigma=0.0),
        dp_n=18,
        suite_machine="default",
        suite_scale="default",
        warm_machine=default_machine_config,
        warm_n=16,
    ),
    # Seconds-long versions of every workload, for the benchmark's own tests.
    "tiny": Size(
        dp_machine=lambda: tiny_machine_config(noise_sigma=0.0),
        dp_n=10,
        suite_machine="tiny",
        suite_scale="ci",
        warm_machine=lambda: tiny_machine_config(noise_sigma=0.02),
        warm_n=8,
    ),
}


class RoundTimer:
    """Latency of every ``records`` call of one client class, while active.

    A round is one ``records`` call: one search round's batch, or one
    campaign batch.  Calls that raise are counted as well as timed.
    """

    def __init__(self, cls: type):
        self.cls = cls
        self.latencies_ms: list[float] = []
        self.raised = 0

    def __enter__(self) -> "RoundTimer":
        original = self._original = self.cls.__dict__["records"]

        @functools.wraps(original)
        def records(client, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(client, *args, **kwargs)
            except Exception:
                self.raised += 1
                raise
            finally:
                self.latencies_ms.append((time.perf_counter() - start) * 1e3)

        self.cls.records = records
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.cls.records = self._original


def same_search(a, b) -> bool:
    """Whether two DP results agree bit for bit on every exponent."""
    return (
        {m: plan_key(p) for m, p in a.best_plans.items()}
        == {m: plan_key(p) for m, p in b.best_plans.items()}
        and a.best_costs == b.best_costs
    )


def tree_digest(root: Path, exclude: tuple[str, ...] = ("manifest.json",)) -> str:
    """SHA-256 over every file under ``root`` (relative path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        relative = path.relative_to(root).as_posix()
        if relative in exclude:
            continue
        digest.update(relative.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


# -- correctness gates ----------------------------------------------------------------
#
# Each gate maps the workload's output to named checks; the run is correct
# only when every check of every iteration holds.


def dp_gates(result, measured: int, n: int, reference: dict) -> dict[str, bool]:
    distinct = {plan_key(record.plan) for record in result.candidates}
    return {
        "best_plan": plan_key(result.best_plans[n]) == reference["best_plan"],
        "best_cost": result.best_costs[n] == reference["best_cost"],
        "measured_distinct": measured == len(distinct),
    }


def suite_gates(statuses: dict[str, str], units: int, digest: "str | None") -> dict[str, bool]:
    gates = {
        "units_complete": len(statuses) == units
        and all(status == "complete" for status in statuses.values()),
    }
    if digest is not None:
        gates["sink_digest"] = digest == REFERENCE["suite_digest"]
    return gates


def warm_gates(matches: list[bool], client_measured: int, server_measured: int) -> dict[str, bool]:
    return {
        "searches_match_fill": bool(matches) and all(matches),
        "client_measured_zero": client_measured == 0,
        "server_measured_zero": server_measured == 0,
    }


# -- workloads --------------------------------------------------------------------------


class Workload:
    """Set-up, one timed phase, gates.  ``close`` always runs."""

    def __init__(self, size: Size, seed: int, scratch: Path, count: int, trace: bool):
        self.size = size
        self.seed = seed
        self.scratch = scratch
        self.count = count
        self.trace = trace
        #: Round timers of the timed phase, by client kind.
        self.rounds: dict[str, RoundTimer] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self):
        """The timed phase; fills :attr:`rounds`."""
        raise NotImplementedError

    def finish(self, output) -> dict:
        """Gates and failure counters: ``{"gates", "failed", "ops", "remote"}``."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class DPCold(Workload):
    """Cold DP search into a fresh sharded store on a noise-free machine."""

    def setup(self) -> None:
        self.store = ShardedRecordStore(self.scratch / "store")
        self.engine = CostEngine(
            SimulatedMachine(self.size.dp_machine()), store=self.store, seed=self.seed
        )

    def run(self):
        with RoundTimer(CostEngine) as self.rounds["local"]:
            return dp_search(self.size.dp_n, self.engine)

    def finish(self, result) -> dict:
        n = self.size.dp_n
        gates = dp_gates(result, self.engine.measured, n, REFERENCE["dp"][str(n)])
        return {"gates": gates, "failed": 0, "ops": 0, "remote": None}

    def close(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            store.close()


class PaperSuiteCold(Workload):
    """The paper's figure suite, cold, into a fresh store and artifacts dir."""

    def setup(self) -> None:
        spec = json.loads(PAPER_SPEC.read_text())
        spec["machines"] = [self.size.suite_machine]
        spec["scale"] = self.size.suite_scale
        spec["seeds"] = [self.seed]
        self.units = len(spec["experiments"])
        self.artifacts = self.scratch / "artifacts"
        self.suite = SuiteRun(
            spec, store=str(self.scratch / "store"), artifacts=str(self.artifacts)
        )

    def run(self):
        with RoundTimer(CostEngine) as self.rounds["local"]:
            return self.suite.run()

    def finish(self, result) -> dict:
        statuses = result.statuses()
        digest = None
        if self.size is SIZES["paper"] and self.seed == REFERENCE["default_seed"]:
            digest = tree_digest(self.artifacts)
        failed = sum(1 for status in statuses.values() if status != "complete")
        return {
            "gates": suite_gates(statuses, self.units, digest),
            "failed": failed,
            "ops": len(statuses),
            "remote": None,
        }


class WarmRemote(Workload):
    """Warm DP searches through a TCP client, then a fleet client.

    One server process hosts a standalone server and a two-member fleet
    over one store that set-up fills with a cold search.  Each loop uses
    its own connections: one for the standalone server, one per member.
    """

    def setup(self) -> None:
        self.config = self.size.warm_machine()
        store = ShardedRecordStore(self.scratch / "store")
        try:
            engine = CostEngine(SimulatedMachine(self.config), store=store, seed=self.seed)
            self.fill = dp_search(self.size.warm_n, engine)
        finally:
            store.close()
        self.server = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "serve.py"),
                "--store",
                str(self.scratch / "store"),
                "--trace",
                str(int(self.trace)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("server process exited during set-up")
        urls = json.loads(line)
        self.clients = {
            "tcp": RemoteServiceClient(urls["standalone"], self.config, seed=self.seed),
            "fleet": FleetClient(urls["fleet"], self.config, seed=self.seed),
        }
        # Let lazy set-up finish before timing: connections, the servers'
        # record caches (read from the store on first touch).
        self.warmup = [self.search(client) for client in self.clients.values()]

    def search(self, client) -> bool:
        """One warm search; whether it equals the fill search bit for bit."""
        return same_search(dp_search(self.size.warm_n, client), self.fill)

    def run(self):
        matches = []
        for kind, client in self.clients.items():
            with RoundTimer(type(client)) as self.rounds[kind]:
                matches += [self.search(client) for _ in range(self.count)]
        return matches

    def finish(self, matches) -> dict:
        clients, self.clients = self.clients, {}
        fallbacks = sum(client.fallbacks for client in clients.values())
        measured = sum(client.measured for client in clients.values())
        for client in clients.values():
            client.close()
        report = self.stop_server()
        return {
            "gates": warm_gates([*self.warmup, *matches], measured, report["measured"]),
            "failed": fallbacks + report["retries"] + report["quarantined"],
            "ops": 0,
            "remote": report["trace"],
        }

    def stop_server(self) -> dict:
        """Ask the server to shut down; its last line is its report."""
        server, self.server = self.server, None
        try:
            out, _ = server.communicate(input="", timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        if server.returncode != 0:
            raise RuntimeError(f"server process exited with {server.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        for client in getattr(self, "clients", {}).values():
            client.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.kill()
            server.communicate()


WORKLOADS: dict[str, type[Workload]] = {
    "dp18-cold": DPCold,
    "paper-suite-cold": PaperSuiteCold,
    "warm-remote": WarmRemote,
}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_iteration(
    workload: Workload, emit: Callable[[dict], None], setup_only: bool = False
) -> dict:
    """Set up, time one phase, check it; returns the ``done`` event."""
    try:
        workload.setup()
        emit({"event": "ready"})
        if setup_only:
            return {"event": "done", "setup_only": True, "rss_mb": peak_rss_mb()}
        tracer = Tracer().install() if workload.trace else None
        try:
            start = time.perf_counter()
            output = workload.run()
            wall_s = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome = workload.finish(output)
    finally:
        workload.close()
    rounds = workload.rounds
    done = {
        "event": "done",
        "wall_s": wall_s,
        "rounds_ms": {kind: timer.latencies_ms for kind, timer in rounds.items()},
        "attempted": sum(len(t.latencies_ms) for t in rounds.values()) + outcome["ops"],
        "failed": sum(t.raised for t in rounds.values()) + outcome["failed"],
        "gates": outcome["gates"],
        "rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        done["layers"] = tracer.metrics(wall_s, outcome["remote"])
    return done


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="paper")
    parser.add_argument("--seed", type=int, default=REFERENCE["default_seed"])
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--count", type=int, default=1, help="warm searches per client")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    def emit(event: dict) -> None:
        print(json.dumps(event), flush=True)

    args.scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](
        SIZES[args.size], args.seed, args.scratch, args.count, bool(args.trace)
    )
    try:
        emit(run_iteration(workload, emit, setup_only=args.setup_only))
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
