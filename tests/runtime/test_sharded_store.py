"""Sharded record store: shard layout, crash tolerance, compaction."""

import json
import threading

import pytest

from repro.runtime.sharded_store import ShardedRecordStore
from repro.runtime.store import CostLogKey, DiskStore


KEY_A = CostLogKey(machine_hash="a" * 64, seed=0)
KEY_B = CostLogKey(machine_hash="b" * 64, seed=0)
KEY_A1 = CostLogKey(machine_hash="a" * 64, seed=1)


def records(prefix, count, metric="cycles"):
    return {f"{prefix}{index}": {metric: float(index + 1)} for index in range(count)}


class TestShardLayout:
    def test_each_key_gets_its_own_shard(self, tmp_path):
        with ShardedRecordStore(tmp_path) as store:
            store.append_cost_records(KEY_A, records("a", 3))
            store.append_cost_records(KEY_B, records("b", 2))
            store.append_cost_records(KEY_A1, records("c", 1))
            paths = list(store.shard_paths())
            assert len(paths) == 3
            assert len({path.parent for path in paths}) == 3
            assert store.get_cost_records(KEY_A) == records("a", 3)
            assert store.get_cost_records(KEY_B) == records("b", 2)
            assert store.get_cost_records(KEY_A1) == records("c", 1)

    def test_round_trip_merges_metrics(self, tmp_path):
        with ShardedRecordStore(tmp_path) as store:
            store.append_cost_records(KEY_A, {"p": {"cycles": 1.0}})
            store.append_cost_records(KEY_A, {"p": {"instructions": 2.0}})
            assert store.get_cost_records(KEY_A) == {
                "p": {"cycles": 1.0, "instructions": 2.0}
            }

    def test_reopen_sees_existing_shards(self, tmp_path):
        with ShardedRecordStore(tmp_path) as store:
            store.append_cost_records(KEY_A, records("a", 4))
        with ShardedRecordStore(tmp_path) as store:
            assert store.get_cost_records(KEY_A) == records("a", 4)
            assert len(store.shard_stats()) == 1

    def test_empty_append_is_a_no_op(self, tmp_path):
        with ShardedRecordStore(tmp_path) as store:
            store.append_cost_records(KEY_A, {})
            assert list(store.shard_paths()) == []

    def test_campaign_tables_stay_at_root(self, tmp_path):
        from repro.machine.configs import tiny_machine
        from repro.runtime.campaigns import run_campaign

        machine = tiny_machine(noise_sigma=0.0)
        with ShardedRecordStore(tmp_path) as store:
            table = run_campaign(machine, 4, 5, seed=3, store=store)
            again = run_campaign(machine, 4, 5, seed=3, store=store)
            assert table.equals(again)
            assert list(tmp_path.glob("rsu-*.json"))  # tables stay at the root


class TestRootLayout:
    def test_flat_root_logs_are_not_read(self, tmp_path):
        # A root directory is either a flat DiskStore or a sharded store: the
        # sharded store neither reads nor retires record logs at its root.
        flat = DiskStore(tmp_path)
        flat.append_cost_records(KEY_A, records("a", 5))
        with ShardedRecordStore(tmp_path) as store:
            assert store.get_cost_records(KEY_A) == {}
            store.append_cost_records(KEY_A, records("s", 2))
            assert store.get_cost_records(KEY_A) == records("s", 2)
        assert flat.get_cost_records(KEY_A) == records("a", 5)


class TestCrashTolerance:
    def test_truncated_tail_is_ignored_on_reopen(self, tmp_path):
        with ShardedRecordStore(tmp_path) as store:
            store.append_cost_records(KEY_A, records("a", 3))
            [log] = store.shard_paths()
        # Simulate a crash mid-append: a half-written last line.
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"p": "torn", "v": {"cyc')
        with ShardedRecordStore(tmp_path) as store:
            recovered = store.get_cost_records(KEY_A)
            assert recovered == records("a", 3)
            # The store remains appendable after recovery.
            store.append_cost_records(KEY_A, {"fresh": {"cycles": 9.0}})
        with ShardedRecordStore(tmp_path) as store:
            assert store.get_cost_records(KEY_A)["fresh"] == {"cycles": 9.0}

    def test_compaction_preserves_reads_exactly(self, tmp_path):
        with ShardedRecordStore(tmp_path, auto_compact=None) as store:
            for index in range(6):
                store.append_cost_records(KEY_A, {"p": {"cycles": float(index)}})
                store.append_cost_records(KEY_A, records("x", 3))
            before = store.get_cost_records(KEY_A)
            [log] = store.shard_paths()
            lines_before = sum(1 for _ in open(log, encoding="utf-8"))
            store.compact_cost_records(KEY_A)
            after = store.get_cost_records(KEY_A)
            lines_after = sum(1 for _ in open(log, encoding="utf-8"))
            assert after == before
            assert lines_after < lines_before

    def test_background_compaction_triggers_on_ratio(self, tmp_path):
        with ShardedRecordStore(tmp_path, auto_compact=2.0) as store:
            for _ in range(8):
                store.append_cost_records(KEY_A, {"p": {"cycles": 1.0}})
            store.drain_compactions()
            [log] = store.shard_paths()
            stats = store.shard_stats()[0]
            assert stats.record_lines <= 4  # compacted towards one line/plan
            assert store.get_cost_records(KEY_A) == {"p": {"cycles": 1.0}}

    def test_inline_compaction_mode(self, tmp_path):
        store = ShardedRecordStore(
            tmp_path, auto_compact=1.5, background_compaction=False
        )
        for _ in range(6):
            store.append_cost_records(KEY_A, {"p": {"cycles": 2.0}})
        stats = store.shard_stats()[0]
        assert stats.record_lines <= 3
        assert store.get_cost_records(KEY_A) == {"p": {"cycles": 2.0}}


class TestConcurrency:
    def test_concurrent_writers_lose_nothing(self, tmp_path):
        with ShardedRecordStore(tmp_path, auto_compact=3.0) as store:
            workers = 6
            per_worker = 20

            def write(worker):
                for index in range(per_worker):
                    store.append_cost_records(
                        KEY_A,
                        {f"w{worker}-{index}": {"cycles": float(index)}},
                    )

            threads = [
                threading.Thread(target=write, args=(worker,))
                for worker in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            store.drain_compactions()
            recovered = store.get_cost_records(KEY_A)
            assert len(recovered) == workers * per_worker

    def test_readers_race_compaction_safely(self, tmp_path):
        with ShardedRecordStore(tmp_path, auto_compact=None) as store:
            for index in range(50):
                store.append_cost_records(KEY_A, {f"p{index}": {"cycles": 1.0}})
            stop = threading.Event()
            failures = []

            def read():
                while not stop.is_set():
                    recovered = store.get_cost_records(KEY_A)
                    if len(recovered) < 50:
                        failures.append(len(recovered))

            reader = threading.Thread(target=read)
            reader.start()
            for _ in range(5):
                store.compact_cost_records(KEY_A)
            stop.set()
            reader.join()
            assert failures == []


class TestMaintenance:
    def test_clear_drops_everything_and_store_stays_usable(self, tmp_path):
        store = ShardedRecordStore(tmp_path)
        store.append_cost_records(KEY_A, records("a", 3))
        store.append_cost_records(KEY_B, records("b", 3))
        store.clear()
        assert list(store.shard_paths()) == []
        assert store.get_cost_records(KEY_A) == {}
        store.append_cost_records(KEY_A, {"p": {"cycles": 1.0}})
        assert store.get_cost_records(KEY_A) == {"p": {"cycles": 1.0}}
        store.close()

    def test_shard_stats_parse_headers(self, tmp_path):
        with ShardedRecordStore(tmp_path) as store:
            store.append_cost_records(KEY_A, records("a", 4))
            store.append_cost_records(KEY_A1, records("c", 2))
            stats = {
                (shard.machine_hash, shard.seed): shard
                for shard in store.shard_stats()
            }
            assert stats[(KEY_A.machine_hash, 0)].distinct_plans == 4
            assert stats[(KEY_A1.machine_hash, 1)].distinct_plans == 2
            for shard in stats.values():
                assert shard.size_bytes > 0
                assert shard.record_lines >= shard.distinct_plans

    def test_close_is_idempotent_and_reentrant(self, tmp_path):
        store = ShardedRecordStore(tmp_path)
        store.append_cost_records(KEY_A, {"p": {"cycles": 1.0}})
        store.close()
        store.close()
        # Still readable and writable after close; only auto-compaction stops.
        assert store.get_cost_records(KEY_A) == {"p": {"cycles": 1.0}}
        store.append_cost_records(KEY_A, {"q": {"cycles": 2.0}})

    def test_bad_auto_compact_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedRecordStore(tmp_path, auto_compact=0.5)

    def test_shard_log_is_valid_jsonl_with_header(self, tmp_path):
        with ShardedRecordStore(tmp_path) as store:
            store.append_cost_records(KEY_A, records("a", 2))
            [log] = store.shard_paths()
            lines = [
                json.loads(line)
                for line in open(log, encoding="utf-8")
                if line.strip()
            ]
            assert lines[0].get("version")
            assert lines[0]["key"]["machine_hash"] == KEY_A.machine_hash
