"""Suite results must not depend on the execution substrate.

The acceptance gate: running one spec through a connected
:class:`CampaignService` session produces sink files **byte-identical** to a
plain serial session's — the transport never leaks into the results.
"""

from __future__ import annotations

from _suite_helpers import sink_files, tiny_spec_dict
from repro.runtime.service import CampaignService
from repro.runtime.store import MemoryStore
from repro.suite import SuiteRun, SuiteSpec

# figure9 adds a scatter over the large campaign; the sweep exercises the
# engine-records path through the service as well.
SPEC = tiny_spec_dict(
    experiments=[
        "figure5",
        "figure9",
        {
            "id": "sweep",
            "kind": "objective_sweep",
            "options": {"objectives": ["cycles", "instructions"], "sizes": [5], "count": 8},
        },
    ]
)


def test_service_session_sinks_are_bit_identical_to_plain(tmp_path):
    spec = SuiteSpec.from_dict(SPEC)
    plain_dir = tmp_path / "plain"
    service_dir = tmp_path / "service"

    plain = SuiteRun(spec, store=MemoryStore(), artifacts=str(plain_dir)).run()
    assert plain.ok and plain.completed and plain.total_measured > 0

    with CampaignService(workers=2) as service:
        connected = SuiteRun(spec, service=service, artifacts=str(service_dir)).run()
    assert connected.ok and connected.completed

    plain_files = sink_files(plain_dir)
    service_files = sink_files(service_dir)
    assert set(plain_files) == set(service_files)
    assert plain_files  # CSV + JSONL + figure artifacts actually exist
    different = [name for name, blob in plain_files.items() if service_files[name] != blob]
    assert different == []


def test_service_suite_prepares_each_distinct_plan_once(prepared_keys):
    # The default sweep re-draws the n=7 population that figure5's campaign
    # measured; the service's machine serves it from its prepared cache.
    spec = SuiteSpec.from_dict(tiny_spec_dict(experiments=["figure5", "objective_sweep"]))
    with CampaignService(workers=2) as service:
        result = SuiteRun(spec, service=service).run()
    assert result.ok, result.describe()
    assert prepared_keys
    assert len(prepared_keys) == len(set(prepared_keys))
