#!/usr/bin/env python3
"""The repository's benchmark: one command, every end-to-end metric.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload dp18-cold [--seed N] [--seconds S] [--trace 0|1]

Workloads (``BENCHMARK.json`` says why each was chosen):

``dp18-cold``
    ``dp_search(18, CostEngine(...))`` on the noise-free scaled default
    machine, cold, into a fresh ``ShardedRecordStore``.
``paper-suite-cold``
    The suite ``benchmarks/suites/paper.json`` (figures 1-11, correlations,
    theory, objective sweep), cold, into a fresh store and artifacts dir.
``warm-remote``
    Warm ``dp_search(16, ·)`` searches through ``RemoteServiceClient``
    against a standalone TCP server, then as many through ``FleetClient``
    against a two-member fleet, all in one server process over a store
    filled by a cold search at set-up.

Every iteration runs in a fresh process (``workloads.py``), so a cold
iteration is cold and every warm iteration gets a fresh server process.
Every process of a run shares one CPU.  The seed drives the engine seeds
and the suite's scale seed; the same seed gives the same inputs.  The work
done is a fixed function of ``--seconds``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(median over set-ups, from process start to set-up complete), ``wall_s``
(fastest timed phase of the run's iterations) and ``peak_rss_mb``.  With ``--trace 1`` they are the
per-layer ones: those of ``tracing.py``, from alternate iterations traced
by wrapping the layers' public functions, and the per-``records``-call
latency of the TCP and fleet clients, from the untraced iterations.  One
line per metric is printed, then one JSON object::

    {"correct": true, "attempted": 36, "failed": 0, "metrics": {...}}

``correct`` is false when any correctness gate of any iteration failed.
``attempted`` counts ``records`` calls and suite units; ``failed`` adds
calls that raised, client fallbacks, server retries and quarantined tasks,
and failed suite units.  Exit status: 0 when correct, 1 when a gate
failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for stores and artifacts, inside the checkout.
WORK = ROOT / ".perfbench_work"
#: Every run ends within this many seconds.
DEADLINE_S = 170.0
#: Set-ups measured per run, at least (``setup_s`` is their median).
SETUP_SAMPLES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: Clients whose per-``records``-call latency the untraced iterations give.
ROUND_KINDS = ("tcp", "fleet")
PER_LAYER = {
    **{name: unit for name, (unit, _better) in LAYER_METRICS.items()},
    **{
        f"{kind}.{name}": unit
        for kind in ROUND_KINDS
        for name, unit in (("rounds", "count"), ("round_p50_ms", "ms"), ("round_p99_ms", "ms"))
    },
}


@dataclass(frozen=True)
class Schedule:
    """How much work a run of ``seconds`` does: a fixed function of it."""

    #: Seconds of ``--seconds`` budgeted per cold iteration (sets the iteration count).
    iteration_s: float = 0.0
    #: Warm searches (per client) per second of timed phase (sets the count).
    searches_per_s: float = 0.0
    #: Iterations of a warm workload, each with a fresh server process.
    warm_iterations: int = 4

    def iterations(self, seconds: int) -> int:
        if self.searches_per_s:
            return self.warm_iterations
        return max(1, round(seconds / self.iteration_s))

    def count(self, seconds: int) -> int:
        if not self.searches_per_s:
            return 1
        return max(1, round(seconds * self.searches_per_s / self.warm_iterations))


SCHEDULES = {
    "dp18-cold": Schedule(iteration_s=7.0),
    "paper-suite-cold": Schedule(iteration_s=5.0),
    # One search through each client takes ~1/120 s (TCP) + ~1/36 s (fleet).
    "warm-remote": Schedule(searches_per_s=27.0),
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run to the end."""


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[max(math.ceil(len(ordered) * q / 100.0), 1) - 1]


def run_worker(args: list[str], scratch: Path, deadline: float) -> tuple[float, dict]:
    """One iteration in a fresh process: ``(set-up seconds, done event)``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(HERE / "workloads.py"), "--scratch", str(scratch), *args]
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), process.kill)
    watchdog.start()
    setup_s = None
    done = None
    try:
        for line in process.stdout:
            if not line.startswith('{"event"'):
                continue
            event = json.loads(line)
            if event["event"] == "ready":
                setup_s = time.perf_counter() - start
            elif event["event"] == "done":
                done = event
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if process.returncode != 0 or setup_s is None or done is None:
        raise BenchmarkError(f"{' '.join(args)}: worker exited with {process.returncode}")
    return setup_s, done


def run(workload: str, seed: int, seconds: int, trace: bool, size: str = "paper") -> dict:
    """Run one benchmark; returns the final result object."""
    schedule = SCHEDULES[workload]
    iterations = schedule.iterations(seconds)
    if trace:
        iterations = max(iterations, 2)  # at least one untraced, one traced
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--size", size, "--seed", str(seed)]
    work = WORK / str(os.getpid())
    setups: list[float] = []
    events: list[dict] = []
    try:
        for index in range(iterations):
            traced = trace and index % 2 == 1
            setup_s, done = run_worker(
                [*base, "--count", str(schedule.count(seconds)), "--trace", str(int(traced))],
                work / str(index),
                deadline,
            )
            setups.append(setup_s)
            done["traced"] = traced
            events.append(done)
        for index in range(iterations, SETUP_SAMPLES):
            setup_s, _ = run_worker([*base, "--setup-only"], work / f"setup{index}", deadline)
            setups.append(setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [event for event in events if not event["traced"]]
    rounds = {
        kind: [latency for event in plain for latency in event["rounds_ms"][kind]]
        for kind in events[0]["rounds_ms"]
    }
    round_metrics = {}
    for kind in ROUND_KINDS:
        latencies = rounds.get(kind, [])
        round_metrics[f"{kind}.rounds"] = len(latencies)
        round_metrics[f"{kind}.round_p50_ms"] = percentile(latencies, 50) if latencies else 0.0
        round_metrics[f"{kind}.round_p99_ms"] = percentile(latencies, 99) if latencies else 0.0
    if trace:
        traced = [event for event in events if event["traced"]]
        metrics = {
            name: statistics.fmean(event["layers"][name] for event in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(event["wall_s"] for event in traced)
            / statistics.median(event["wall_s"] for event in plain)
            - 1.0
        )
        metrics.update(round_metrics)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            # Contention from other tenants of the host only ever adds time,
            # in bursts of a second or two; the fastest of a run's fresh
            # iterations varied half as much between runs as their median.
            "wall_s": min(event["wall_s"] for event in plain),
            "peak_rss_mb": max(event["rss_mb"] for event in events),
        }
        units = END_TO_END
    return {
        "correct": all(all(event["gates"].values()) for event in events),
        "attempted": sum(event["attempted"] for event in events),
        "failed": sum(event["failed"] for event in events),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "samples": {
            "setup": len(setups),
            "iterations": len(events),
            "rounds": round_metrics,
            "gates": {name: all(e["gates"][name] for e in events) for name in events[0]["gates"]},
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", choices=sorted(SCHEDULES), required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: reference.json")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("paper", "tiny"),
        default="paper",
        help="tiny: seconds-long versions of every workload, for tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Every process of the run (workers, server processes) shares one CPU:
    # the load is one single-threaded closed loop, and unpinned client and
    # server processes bouncing between CPUs made sub-millisecond rounds
    # vary by a quarter between otherwise identical runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seed = args.seed
    if seed is None:
        seed = json.loads((HERE / "reference.json").read_text())["default_seed"]
    try:
        result = run(args.workload, seed, args.seconds, bool(args.trace), args.size)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    samples = result.pop("samples")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"samples: {samples['setup']} set-ups, {samples['iterations']} iterations")
    print(f"rounds: {json.dumps(samples['rounds'])}")
    print(f"gates: {json.dumps(samples['gates'])}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
