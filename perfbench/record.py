"""Re-record ``perfbench/results.json``: the latest numbers of every workload.

For each workload of ``BENCHMARK.json`` this runs the benchmark twice at
the default seed — untraced for the end-to-end numbers, traced for the
per-layer breakdown — and writes both next to the environment they were
measured in.  It also checks the ``dp18-cold`` breakdown against the facts
the simulator work is planned on: the L2 pass has the largest self time,
the L1 pass the second largest, named layers cover at least 90 % of the
traced wall time, and every layer above the backend stays under 1 %::

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Layers above the execution backend, by their self-time metric.
ABOVE_BACKEND = ("search.self_s", "cost_engine.self_s", "store.append_s", "store.read_s")


def run(workload: str, trace: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def breakdown_facts(layers: dict[str, float]) -> dict[str, object]:
    """The ``dp18-cold`` seed facts, checked on a traced breakdown."""
    times = {name: value for name, value in layers.items() if name.endswith("_s")}
    wall = sum(times.values())  # self times plus unattributed time partition the wall
    ranked = sorted(
        (name for name in times if name != "trace.unattributed_s"),
        key=times.get,
        reverse=True,
    )
    above = sum(layers[name] for name in ABOVE_BACKEND)
    return {
        "largest_self_time": ranked[0],
        "second_self_time": ranked[1],
        "named_layer_share": 1.0 - layers["trace.unattributed_s"] / wall,
        "above_backend_share": above / wall,
        "holds": ranked[:2] == ["machine.l2.simulate_s", "machine.l1.simulate_s"]
        and layers["trace.unattributed_s"] <= 0.1 * wall
        and above < 0.01 * wall,
    }


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    results = {
        "note": "Latest numbers at the default seed; regenerate with python3 perfbench/record.py.",
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "run_seconds": seconds,
        },
        "workloads": {},
    }
    for workload in benchmark["workloads"]:
        name = workload["name"]
        untraced, traced = run(name, 0, seconds), run(name, 1, seconds)
        entry = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "end_to_end": untraced["metrics"],
            "per_layer": {k: v for k, v in traced["metrics"].items() if v},
        }
        if name == "dp18-cold":
            entry["breakdown_facts"] = breakdown_facts(traced["metrics"])
        results["workloads"][name] = entry
        print(name, json.dumps(entry["end_to_end"]), flush=True)
    (HERE / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    facts = results["workloads"]["dp18-cold"]["breakdown_facts"]
    print("dp18-cold breakdown facts:", json.dumps(facts))
    return 0 if facts["holds"] else 1


if __name__ == "__main__":
    sys.exit(main())
