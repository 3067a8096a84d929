"""Tests of the benchmark itself, on the seconds-long ``tiny`` size.

Collected only by explicit path, like the repository's other benchmarks::

    PYTHONPATH=src python -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import workloads
from tracing import Tracer
from workloads import SIZES, dp_gates, run_iteration, suite_gates, warm_gates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run_benchmark(
        "--workload", workload, "--size", "tiny", "--seconds", "1", "--trace", str(trace)
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("--workload", "dp18-cold", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- correctness gates reject wrong results ------------------------------------------


def _dp_result(size, seed=0):
    from repro.machine.machine import SimulatedMachine
    from repro.runtime import CostEngine
    from repro.search.dp import dp_search

    engine = CostEngine(SimulatedMachine(size.dp_machine()), seed=seed)
    return dp_search(size.dp_n, engine), engine.measured


def test_dp_gate_accepts_the_reference_and_rejects_a_wrong_result():
    size = SIZES["tiny"]
    reference = workloads.REFERENCE["dp"][str(size.dp_n)]
    result, measured = _dp_result(size)
    assert all(dp_gates(result, measured, size.dp_n, reference).values())

    wrong_cost = dict(reference, best_cost=reference["best_cost"] + 1)
    assert not dp_gates(result, measured, size.dp_n, wrong_cost)["best_cost"]
    wrong_plan = dict(reference, best_plan="small[10]")
    assert not dp_gates(result, measured, size.dp_n, wrong_plan)["best_plan"]
    assert not dp_gates(result, measured + 1, size.dp_n, reference)["measured_distinct"]


def test_dp_gate_fails_an_iteration_whose_search_went_wrong(tmp_path, monkeypatch):
    size = SIZES["tiny"]
    reference = dict(workloads.REFERENCE["dp"][str(size.dp_n)])
    reference["best_cost"] *= 2
    monkeypatch.setitem(workloads.REFERENCE["dp"], str(size.dp_n), reference)
    workload = workloads.DPCold(size, 1, tmp_path, 1, False)
    done = run_iteration(workload, lambda event: None)
    assert done["gates"]["best_cost"] is False
    assert done["gates"]["best_plan"] is True


def test_suite_gate_rejects_a_failed_unit_and_a_wrong_digest():
    statuses = {"a": "complete", "b": "complete"}
    assert all(suite_gates(statuses, 2, workloads.REFERENCE["suite_digest"]).values())
    assert not suite_gates({"a": "complete", "b": "failed"}, 2, None)["units_complete"]
    assert not suite_gates({"a": "complete"}, 2, None)["units_complete"]
    assert not suite_gates(statuses, 2, "0" * 64)["sink_digest"]


def test_suite_digest_is_deterministic(tmp_path):
    digests = []
    for index in range(2):
        workload = workloads.PaperSuiteCold(SIZES["tiny"], 7, tmp_path / str(index), 1, False)
        workload.setup()
        assert workload.run().ok
        digests.append(workloads.tree_digest(workload.artifacts))
    assert digests[0] == digests[1]


def test_warm_gate_rejects_a_mismatch_and_any_measurement():
    assert all(warm_gates([True, True], 0, 0).values())
    assert not warm_gates([True, False], 0, 0)["searches_match_fill"]
    assert not warm_gates([], 0, 0)["searches_match_fill"]
    assert not warm_gates([True], 1, 0)["client_measured_zero"]
    assert not warm_gates([True], 0, 3)["server_measured_zero"]


def test_warm_search_comparison_is_bit_exact():
    first, _ = _dp_result(SIZES["tiny"])
    second, _ = _dp_result(SIZES["tiny"])
    assert workloads.same_search(first, second)
    second.best_costs[3] = second.best_costs[3] * (1 + 1e-12)
    assert not workloads.same_search(first, second)


# -- resource lifetime -----------------------------------------------------------------


def test_warm_remote_leaves_no_server_process_or_client_thread(tmp_path):
    threads_before = set(threading.enumerate())
    workload = workloads.WarmRemote(SIZES["tiny"], 3, tmp_path, 2, False)
    servers = []
    setup = workload.setup

    def setup_and_remember():
        setup()
        servers.append(workload.server)

    workload.setup = setup_and_remember
    done = run_iteration(workload, lambda event: None)
    assert all(done["gates"].values())
    assert servers and servers[0].returncode == 0
    assert not Path(f"/proc/{servers[0].pid}").exists()
    deadline = time.monotonic() + 10
    while set(threading.enumerate()) - threads_before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not set(threading.enumerate()) - threads_before


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    from repro.runtime.cost_engine import CostEngine
    from repro.runtime.transport import FrameTransport

    before = (CostEngine.records, FrameTransport.__dict__["encode"])
    tracer = Tracer().install()
    assert CostEngine.records is not before[0]
    workload = workloads.DPCold(SIZES["tiny"], 1, tmp_path, 1, False)
    workload.setup()
    try:
        workload.run()
    finally:
        tracer.uninstall()
        workload.close()
    assert (CostEngine.records, FrameTransport.__dict__["encode"]) == before
    metrics = tracer.metrics(1.0)
    assert metrics["cost_engine.calls"] == SIZES["tiny"].dp_n
    assert metrics["machine.l1.simulate_s"] > 0


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", *sys.argv[1:]]))
