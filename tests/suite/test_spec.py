"""SuiteSpec validation, normalisation and hashing."""

from __future__ import annotations

import dataclasses
import json

import pytest

from _suite_helpers import tiny_spec_dict
from repro.config import ci_scale, default_scale, paper_scale
from repro.machine.configs import tiny_machine_config
from repro.suite import SpecError, SuiteSpec, load_spec
from repro.suite.spec import spec_from_dict


# -- validation errors (path-prefixed, actionable) --------------------------------


def test_minimal_spec_defaults():
    spec = SuiteSpec.from_dict({"name": "s", "experiments": ["theory"]})
    assert [m.id for m in spec.machines] == ["default"]
    assert spec.scale == default_scale()
    assert spec.seeds == (default_scale().seed,)
    assert spec.experiments[0].id == "theory"
    assert spec.experiments[0].kind == "theory"


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"experiments": ["theory"]}, r"spec\.name"),
        ({"name": "s"}, r"spec\.experiments"),
        ({"name": "s", "experiments": []}, r"at least one experiment"),
        ({"name": "s", "experiments": ["theory"], "bogus": 1}, r"unknown top-level keys"),
        ({"name": "s", "experiments": ["nope"]}, r"experiments\[0\]\.kind: unknown kind"),
        (
            {"name": "s", "experiments": ["theory"], "machines": ["warp-drive"]},
            r"machines\[0\]: unknown machine preset",
        ),
        ({"name": "s", "experiments": ["theory"], "machines": []}, r"at least one machine"),
        (
            {"name": "s", "experiments": ["theory"], "machines": ["tiny", "tiny"]},
            r"duplicate machine ids",
        ),
        (
            {"name": "s", "experiments": ["theory", "theory"]},
            r"duplicate experiment ids",
        ),
        (
            {"name": "s", "experiments": ["theory"], "scale": {"warp": 9}},
            r"scale: unknown scale keys",
        ),
        (
            {"name": "s", "experiments": ["theory"], "scale": "galactic"},
            r"scale: unknown scale preset",
        ),
        ({"name": "s", "experiments": ["theory"], "seeds": []}, r"at least one seed"),
        ({"name": "s", "experiments": ["theory"], "seeds": [1, 1]}, r"duplicate seeds"),
        (
            {"name": "s", "experiments": [{"id": "a/b", "kind": "theory"}]},
            r"may not contain",
        ),
        (
            {"name": "s", "experiments": [{"kind": "theory", "options": {"bogus": 1}}]},
            r"experiments\[0\]\.options: unknown option",
        ),
        (
            {"name": "s", "experiments": [{"kind": "search"}]},
            r"options\.n: required",
        ),
        (
            {
                "name": "s",
                "experiments": [
                    {"kind": "objective_sweep", "options": {"objectives": ["cycles"]}}
                ],
            },
            r"at least two objectives",
        ),
    ],
)
def test_invalid_specs_fail_with_the_offending_path(payload, message):
    with pytest.raises(SpecError, match=message):
        SuiteSpec.from_dict(payload)


def test_spec_error_is_a_value_error():
    assert issubclass(SpecError, ValueError)


# -- axis parsing ----------------------------------------------------------------


def test_experiment_shorthand_and_explicit_forms_agree():
    short = SuiteSpec.from_dict({"name": "s", "experiments": ["figure5"]})
    explicit = SuiteSpec.from_dict(
        {"name": "s", "experiments": [{"id": "figure5", "kind": "figure5"}]}
    )
    assert short.experiments == explicit.experiments
    assert short.spec_hash() == explicit.spec_hash()


def test_repeated_kind_needs_distinct_ids():
    spec = SuiteSpec.from_dict(
        {
            "name": "s",
            "experiments": [
                {"id": "s6", "kind": "search", "options": {"n": 6}},
                {"id": "s7", "kind": "search", "options": {"n": 7}},
            ],
        }
    )
    assert [e.id for e in spec.experiments] == ["s6", "s7"]


def test_inline_machine_config_round_trips():
    from repro.runtime.transport import machine_config_to_wire

    wire = machine_config_to_wire(tiny_machine_config())
    spec = SuiteSpec.from_dict(
        {
            "name": "s",
            "machines": [{"id": "custom", "config": wire}],
            "experiments": ["theory"],
        }
    )
    machine = spec.machines[0].build()
    assert spec.machines[0].id == "custom"
    assert machine.config == tiny_machine_config()
    # Normalised dict keeps the inline config, so the hash covers it.
    assert spec.to_dict()["machines"][0]["config"] == wire


def test_scale_preset_and_field_overrides():
    preset = SuiteSpec.from_dict({"name": "s", "scale": "ci", "experiments": ["theory"]})
    assert preset.scale == ci_scale()
    overridden = SuiteSpec.from_dict(
        {"name": "s", "scale": {"sample_count": 7}, "experiments": ["theory"]}
    )
    assert overridden.scale == dataclasses.replace(default_scale(), sample_count=7)


def test_with_scale_rederives_mirroring_seeds_only():
    spec = SuiteSpec.from_dict(tiny_spec_dict())
    rescaled = spec.with_scale({"seed": 999})
    assert rescaled.seeds == (999,)
    pinned = SuiteSpec.from_dict(tiny_spec_dict(seeds=[41, 42]))
    assert pinned.with_scale({"seed": 999}).seeds == (41, 42)


# -- hashing ---------------------------------------------------------------------


def test_spec_hash_is_stable_and_key_order_independent():
    a = SuiteSpec.from_dict(tiny_spec_dict())
    shuffled = dict(reversed(list(tiny_spec_dict().items())))
    b = SuiteSpec.from_dict(shuffled)
    assert a.spec_hash() == b.spec_hash()


def test_spec_hash_distinguishes_specs():
    base = SuiteSpec.from_dict(tiny_spec_dict())
    assert base.spec_hash() != SuiteSpec.from_dict(tiny_spec_dict(name="other")).spec_hash()
    assert (
        base.spec_hash()
        != SuiteSpec.from_dict(tiny_spec_dict(seeds=[1, 2])).spec_hash()
    )


def test_to_dict_round_trips_through_from_dict():
    spec = SuiteSpec.from_dict(tiny_spec_dict())
    again = SuiteSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.spec_hash() == spec.spec_hash()


# -- loading ---------------------------------------------------------------------


def test_load_spec_reads_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tiny_spec_dict()))
    spec = load_spec(str(path))
    assert spec.name == "tiny-suite"


def test_load_spec_reports_missing_file_and_bad_json(tmp_path):
    with pytest.raises(SpecError, match="cannot read spec file"):
        load_spec(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SpecError, match="not valid JSON"):
        load_spec(str(bad))


def test_spec_from_dict_passes_instances_through(tiny_spec):
    assert spec_from_dict(tiny_spec) is tiny_spec


# -- committed specs and the figure view ------------------------------------------


def test_committed_specs_validate():
    for name in ("paper.json", "ci.json", "paper-geometry.json"):
        spec = load_spec(f"benchmarks/suites/{name}")
        assert spec.experiments


def test_paper_geometry_spec_runs_the_paper_experiments_on_the_opteron():
    with open("benchmarks/suites/paper-geometry.json", encoding="utf-8") as handle:
        payload = json.load(handle)
    spec = SuiteSpec.from_dict(payload)
    paper = load_spec("benchmarks/suites/paper.json")
    assert [machine.preset for machine in spec.machines] == ["opteron"]
    assert spec.scale == paper_scale()
    assert spec.experiments == paper.experiments


def test_figure_view_matches_the_runner():
    """Figure-at-a-time use and the suite runner drive one registry."""
    import repro
    from repro.suite import SuiteRun

    spec = {
        "name": "parity",
        "machines": ["tiny"],
        "scale": "ci",
        "seeds": [ci_scale().seed],
        "experiments": ["figure1", "figure9", "correlations"],
    }
    result = SuiteRun(spec, store=None).run()
    view = repro.session(machine="tiny", scale="ci", store="none").suite()
    assert result.get("figure1").figure == view.figure("figure1")
    assert result.get("figure9").figure.best == view.figure("figure9").best
    assert result.get("correlations").figure.as_rows() == view.figure("correlations").as_rows()
