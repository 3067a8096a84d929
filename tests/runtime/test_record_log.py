"""Durability tests for the append-log cost record store.

Covers the contracts the log format makes: a truncated trailing record
(crash mid-append) loses only itself on reopen, compaction is read-equivalent
to the original log, and the log is the only record format a store reads.
"""

import json

import pytest

from repro.machine.configs import tiny_machine_config
from repro.machine.machine import SimulatedMachine
from repro.runtime.cost_engine import CostEngine
from repro.runtime.store import (
    LOG_FORMAT_VERSION,
    CampaignStore,
    CostLogKey,
    DiskStore,
    MemoryStore,
    NullStore,
    machine_config_hash,
)
from repro.wht.encoding import plan_key
from repro.wht.random_plans import random_plan, random_plans

KEY = CostLogKey(machine_hash="abc", seed=3)


def _log_file(store: DiskStore, key: CostLogKey = KEY):
    return store.path / f"{key.token()}.jsonl"


class TestAppendLogBasics:
    def test_append_and_read_roundtrip(self, tmp_path):
        store = DiskStore(tmp_path)
        store.append_cost_records(KEY, {"small[1]": {"cycles": 2.5}})
        store.append_cost_records(
            KEY, {"small[1]": {"instructions": 7.0}, "small[2]": {"cycles": 9.0}}
        )
        records = store.get_cost_records(KEY)
        assert records == {
            "small[1]": {"cycles": 2.5, "instructions": 7.0},
            "small[2]": {"cycles": 9.0},
        }

    def test_appends_are_appends_not_rewrites(self, tmp_path):
        store = DiskStore(tmp_path)
        store.append_cost_records(KEY, {f"small[{i}]": {"cycles": float(i)} for i in range(1, 5)})
        size_before = _log_file(store).stat().st_size
        store.append_cost_records(KEY, {"small[5]": {"cycles": 5.0}})
        grown = _log_file(store).stat().st_size - size_before
        # One record appended: the file grows by one line, not by a rewrite.
        assert 0 < grown < size_before

    def test_empty_append_is_a_noop(self, tmp_path):
        store = DiskStore(tmp_path)
        store.append_cost_records(KEY, {})
        assert not _log_file(store).exists()
        assert store.get_cost_records(KEY) == {}

    def test_keys_partition_logs(self, tmp_path):
        store = DiskStore(tmp_path)
        other = CostLogKey(machine_hash="abc", seed=4)
        store.append_cost_records(KEY, {"small[1]": {"cycles": 1.0}})
        assert store.get_cost_records(other) == {}
        assert KEY.token() != other.token()

    def test_later_record_wins_per_metric(self, tmp_path):
        store = DiskStore(tmp_path)
        store.append_cost_records(KEY, {"small[1]": {"cycles": 1.0, "instructions": 3.0}})
        store.append_cost_records(KEY, {"small[1]": {"cycles": 2.0}})
        record = store.get_cost_records(KEY)["small[1]"]
        assert record == {"cycles": 2.0, "instructions": 3.0}

    def test_memory_store_parity(self):
        store = MemoryStore()
        store.append_cost_records(KEY, {"small[1]": {"cycles": 2.5}})
        store.append_cost_records(KEY, {"small[1]": {"instructions": 7.0}})
        assert store.get_cost_records(KEY) == {
            "small[1]": {"cycles": 2.5, "instructions": 7.0}
        }
        returned = store.get_cost_records(KEY)
        returned["small[1]"]["cycles"] = 99.0  # mutating the copy is safe
        assert store.get_cost_records(KEY)["small[1]"]["cycles"] == 2.5

    def test_null_store_never_retains(self):
        store = NullStore()
        store.append_cost_records(KEY, {"small[1]": {"cycles": 1.0}})
        assert store.get_cost_records(KEY) == {}
        store.compact_cost_records(KEY)


class TestTruncatedTail:
    def test_truncated_trailing_record_keeps_durable_prefix(self, tmp_path):
        store = DiskStore(tmp_path)
        store.append_cost_records(KEY, {"small[1]": {"cycles": 1.0}})
        store.append_cost_records(KEY, {"small[2]": {"cycles": 2.0}})
        file = _log_file(store)
        raw = file.read_text()
        # Simulate a crash mid-append: cut the last record in half.
        file.write_text(raw[: len(raw) - len(raw.splitlines()[-1]) // 2 - 1])
        records = DiskStore(tmp_path).get_cost_records(KEY)
        assert records == {"small[1]": {"cycles": 1.0}}

    def test_appends_after_a_crash_are_recovered(self, tmp_path):
        store = DiskStore(tmp_path)
        store.append_cost_records(KEY, {"small[1]": {"cycles": 1.0}})
        file = _log_file(store)
        with open(file, "a", encoding="utf-8") as handle:
            handle.write('{"p": "small[2]", "v": {"cyc')  # partial line, no newline
        # The partial tail is ignored on read...
        assert DiskStore(tmp_path).get_cost_records(KEY) == {"small[1]": {"cycles": 1.0}}
        # ...and a later append must NOT glue onto it: the appender
        # terminates the partial line, so only the crashed record is lost.
        fresh = DiskStore(tmp_path)
        fresh.append_cost_records(KEY, {"small[3]": {"cycles": 3.0}})
        assert fresh.get_cost_records(KEY) == {
            "small[1]": {"cycles": 1.0},
            "small[3]": {"cycles": 3.0},
        }
        # Compaction drops the dead partial line for good.
        fresh.compact_cost_records(KEY)
        assert fresh.get_cost_records(KEY) == {
            "small[1]": {"cycles": 1.0},
            "small[3]": {"cycles": 3.0},
        }

    def test_corrupt_line_mid_file_loses_only_itself(self, tmp_path):
        store = DiskStore(tmp_path)
        store.append_cost_records(KEY, {"small[1]": {"cycles": 1.0}})
        with open(_log_file(store), "a", encoding="utf-8") as handle:
            handle.write("###damaged###\n")
        store.append_cost_records(KEY, {"small[2]": {"cycles": 2.0}})
        assert store.get_cost_records(KEY) == {
            "small[1]": {"cycles": 1.0},
            "small[2]": {"cycles": 2.0},
        }

    def test_batches_are_written_as_single_appends(self, tmp_path):
        # Each batch must land whole (one os.write), so two batches can
        # never interleave mid-line; observable contract: every line of the
        # log is independently parseable JSON.
        store = DiskStore(tmp_path)
        big_batch = {f"plan-{i}": {"cycles": float(i)} for i in range(5000)}
        store.append_cost_records(KEY, big_batch)
        store.append_cost_records(KEY, {"tail": {"cycles": -1.0}})
        for line in _log_file(store).read_text().splitlines():
            json.loads(line)
        assert len(store.get_cost_records(KEY)) == 5001

    def test_incompatible_log_version_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        file = _log_file(store)
        file.write_text(
            json.dumps({"version": LOG_FORMAT_VERSION + 1, "key": KEY.as_dict()})
            + "\n"
            + json.dumps({"p": "small[1]", "v": {"cycles": 1.0}})
            + "\n"
        )
        assert store.get_cost_records(KEY) == {}

    def test_garbage_log_file_is_a_miss_not_a_crash(self, tmp_path):
        store = DiskStore(tmp_path)
        _log_file(store).write_text("not json at all\n")
        assert store.get_cost_records(KEY) == {}


class TestCompaction:
    def test_compaction_is_read_equivalent_and_smaller(self, tmp_path):
        store = DiskStore(tmp_path)
        # Many overlapping appends: per-metric updates to the same plans.
        for round_index in range(10):
            store.append_cost_records(
                KEY,
                {
                    f"small[{i}]": {"cycles": float(i), "round": float(round_index)}
                    for i in range(1, 8)
                },
            )
        before = store.get_cost_records(KEY)
        size_before = _log_file(store).stat().st_size
        store.compact_cost_records(KEY)
        assert store.get_cost_records(KEY) == before
        assert _log_file(store).stat().st_size < size_before
        # Compaction is idempotent.
        store.compact_cost_records(KEY)
        assert store.get_cost_records(KEY) == before

    def test_compacting_a_missing_log_is_a_noop(self, tmp_path):
        DiskStore(tmp_path).compact_cost_records(KEY)
        assert not _log_file(DiskStore(tmp_path)).exists()


def _log_lines(store: DiskStore, key: CostLogKey = KEY) -> int:
    """Record lines in the log (excluding the version header)."""
    raw = _log_file(store, key).read_text().strip().splitlines()
    return sum(1 for line in raw if "version" not in json.loads(line))


class TestAutoCompaction:
    def test_off_by_default(self, tmp_path):
        store = DiskStore(tmp_path)
        for _ in range(20):
            store.append_cost_records(KEY, {"small[1]": {"cycles": 1.0}})
        assert _log_lines(store) == 20

    def test_rejects_ratio_below_one(self, tmp_path):
        with pytest.raises(ValueError):
            DiskStore(tmp_path, auto_compact=0.5)

    def test_triggers_when_lines_exceed_the_ratio(self, tmp_path):
        store = DiskStore(tmp_path, auto_compact=3.0)
        # Re-append the same two plans: distinct stays at 2, lines grow.
        records = {"small[1]": {"cycles": 1.0}, "small[2]": {"cycles": 2.0}}
        for _ in range(3):
            store.append_cost_records(KEY, records)
        assert _log_lines(store) == 6  # 6 lines, 2 plans: 6 <= 3.0 * 2 keeps it
        store.append_cost_records(KEY, records)
        # 8 > 3.0 * 2 triggered a compaction down to one line per plan.
        assert _log_lines(store) == 2
        assert store.get_cost_records(KEY) == {
            "small[1]": {"cycles": 1.0},
            "small[2]": {"cycles": 2.0},
        }

    def test_reads_stay_equivalent_across_many_rounds(self, tmp_path):
        store = DiskStore(tmp_path, auto_compact=2.0)
        mirror = DiskStore(tmp_path / "mirror")  # no auto-compaction
        for round_index in range(12):
            batch = {
                f"small[{i}]": {"cycles": float(i * round_index)}
                for i in range(1, 5)
            }
            store.append_cost_records(KEY, batch)
            mirror.append_cost_records(KEY, batch)
        assert store.get_cost_records(KEY) == mirror.get_cost_records(KEY)
        assert _log_lines(store) < _log_lines(mirror)

    def test_counters_seed_from_an_existing_log(self, tmp_path):
        plain = DiskStore(tmp_path)
        records = {"small[1]": {"cycles": 1.0}}
        for _ in range(9):
            plain.append_cost_records(KEY, records)
        # A fresh store over the same directory sees the 9 existing lines and
        # compacts on its very first over-ratio append.
        compacting = DiskStore(tmp_path, auto_compact=4.0)
        compacting.append_cost_records(KEY, records)
        assert _log_lines(compacting) == 1
        assert compacting.get_cost_records(KEY) == records

    def test_distinct_plan_growth_does_not_trigger(self, tmp_path):
        store = DiskStore(tmp_path, auto_compact=2.0)
        for index in range(30):
            store.append_cost_records(
                KEY, {f"small[{index}]": {"cycles": float(index)}}
            )
        # Every line is a distinct plan: ratio stays 1, nothing compacts.
        assert _log_lines(store) == 30


class TestOneRecordFormat:
    def test_pre_append_log_tables_are_not_read(self, tmp_path):
        """A per-metric ``costs-*.json`` table from before the append log is
        neither read nor touched: the log is the only record format."""
        config = tiny_machine_config(noise_sigma=0.0)
        key = CostLogKey(machine_hash=machine_config_hash(config), seed=0)
        legacy = tmp_path / "costs-cycles-0123456789abcdef0123.json"
        payload = {
            "version": 1,
            "key": {"machine_hash": key.machine_hash, "metric": "cycles", "seed": 0},
            "costs": {"small[1]": 10.0},
        }
        legacy.write_text(json.dumps(payload))
        store = DiskStore(tmp_path)
        assert store.get_cost_records(key) == {}
        engine = CostEngine(SimulatedMachine(config), store=store)
        engine.batch(random_plans(5, 3, rng=9))
        store.compact_cost_records(key)
        assert engine.measured == 3
        assert json.loads(legacy.read_text()) == payload


class TestNondeterministicMetrics:
    def test_wall_time_is_memoised_but_never_persisted(self, tmp_path):
        config = tiny_machine_config(noise_sigma=0.0)
        store = DiskStore(tmp_path)
        engine = CostEngine(SimulatedMachine(config), store=store)
        plan = random_plan(5, rng=20)
        first = engine.records([plan], ("wall_time",))[0]["wall_time"]
        # Memoised within the engine's lifetime...
        assert engine.records([plan], ("wall_time",))[0]["wall_time"] == first
        assert engine.measured == 1
        # ...but absent from the store: another host's timing must never be
        # served as a cache hit.
        for values in store.get_cost_records(engine.key).values():
            assert "wall_time" not in values
        resumed = CostEngine(SimulatedMachine(config), store=store)
        resumed.records([plan], ("wall_time",))
        assert resumed.measured == 1  # re-measured, not served stale

    def test_foreign_wall_time_records_are_scrubbed_on_load(self, tmp_path):
        config = tiny_machine_config(noise_sigma=0.0)
        store = DiskStore(tmp_path)
        seeded = CostEngine(SimulatedMachine(config), store=store)
        plan = random_plan(5, rng=21)
        cycles = seeded(plan)
        # A foreign writer (or an older build) persisted a wall_time value.
        store.append_cost_records(
            seeded.key, {plan_key(plan): {"wall_time": 123.456}}
        )
        engine = CostEngine(SimulatedMachine(config), store=store)
        assert engine(plan) == cycles and engine.measured == 0  # cycles cached
        record = engine.records([plan], ("wall_time",))[0]
        assert record["wall_time"] != 123.456  # freshly measured, not foreign
        assert engine.measured == 1


class TestEngineDurability:
    def test_costs_survive_mid_search_abandonment(self, tmp_path):
        """Every value an engine ever returned is on disk, even without any
        explicit flush/close — the append happens before records() returns."""
        config = tiny_machine_config(noise_sigma=0.0)
        engine = CostEngine(SimulatedMachine(config), store=DiskStore(tmp_path))
        plan = random_plan(6, rng=11)
        value = engine(plan)
        del engine  # no shutdown hook involved
        resumed = CostEngine(SimulatedMachine(config), store=DiskStore(tmp_path))
        assert resumed(plan) == value
        assert resumed.measured == 0

    def test_engine_compact_shrinks_disk_log(self, tmp_path):
        config = tiny_machine_config(noise_sigma=0.0)
        store = DiskStore(tmp_path)
        engine = CostEngine(SimulatedMachine(config), store=store)
        plans = random_plans(6, 5, rng=12)
        engine.batch(plans)
        engine.records(plans, ("model_instructions",))
        engine.records(plans, ("wall_time",))
        log = store.path / f"{engine.key.token()}.jsonl"
        size_before = log.stat().st_size
        before = store.get_cost_records(engine.key)
        engine.compact()
        assert store.get_cost_records(engine.key) == before
        assert log.stat().st_size <= size_before


def _faulty_store(path):
    from repro.runtime.faults import FaultPlan, FaultyStore

    return FaultyStore(MemoryStore(), FaultPlan(seed=0))


def _sharded_store(path):
    from repro.runtime.sharded_store import ShardedRecordStore

    return ShardedRecordStore(path)


@pytest.mark.parametrize(
    "store_factory",
    [
        lambda path: MemoryStore(),
        lambda path: NullStore(),
        DiskStore,
        _sharded_store,
        _faulty_store,
    ],
    ids=[
        "MemoryStore",
        "NullStore",
        "DiskStore",
        "ShardedRecordStore",
        "FaultyStore",
    ],
)
def test_protocol_members_exist(store_factory, tmp_path):
    store = store_factory(tmp_path)
    assert isinstance(store, CampaignStore)
    assert callable(store.get_cost_records)
    assert callable(store.append_cost_records)
    assert callable(store.compact_cost_records)
