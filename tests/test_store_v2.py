"""Tests for the sharded ResultStore (v2) and the query API.

Covers the PR's storage guarantees:

* shard write/load round-trip, including multi-shard grids;
* ``compact()`` idempotence (byte-for-byte no-op on a clean store)
  and healing (orphan/corrupt/tmp files removed);
* corrupt-shard recovery — the engine re-runs exactly the lost trials;
* legacy v1 single-file stores are read and migrated to shards;
* the query layer filters and aggregates cached records without any
  re-simulation.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.runner import (
    ExperimentSpec,
    ResultStore,
    run_experiment,
)
from repro.runner.query import (
    QueryError,
    aggregate,
    filter_records,
    parse_where,
    percentile,
    record_field,
    require_known_fields,
)


def spec_for(**overrides) -> ExperimentSpec:
    base = dict(
        algorithm="gather_known",
        family="ring",
        sizes=(4, 5),
        label_sets=((1, 2),),
        seeds=(0, 1),
        graph_seed_mode="fixed",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def tree_bytes(root) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestShardRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        spec = spec_for()
        store = ResultStore(tmp_path)
        result = run_experiment(spec, workers=1, store=store)
        assert store.load(spec) == {
            r["key"]: r for r in result.records
        }

    def test_multi_shard_layout(self, tmp_path):
        spec = spec_for()
        store = ResultStore(tmp_path, shard_size=1)
        run_experiment(spec, workers=1, store=store)
        directory = store.dir_for(spec)
        shards = sorted(directory.glob("shard-*.json"))
        assert len(shards) == 4  # one record per shard
        index = json.loads((directory / "index.json").read_text())
        assert index["total"] == 4
        assert index["shards"] == {s.name: 1 for s in shards}
        sidecar = json.loads((directory / "spec.json").read_text())
        assert sidecar["spec"] == spec.to_dict()
        assert sidecar["spec_hash"] == spec.spec_hash()

    def test_shard_size_does_not_change_records(self, tmp_path):
        spec = spec_for()
        small = ResultStore(tmp_path / "small", shard_size=1)
        big = ResultStore(tmp_path / "big", shard_size=100)
        run_experiment(spec, workers=1, store=small)
        run_experiment(spec, workers=1, store=big)
        assert small.load(spec) == big.load(spec)

    def test_incremental_save_extends_shards(self, tmp_path):
        spec = spec_for()
        store = ResultStore(tmp_path, shard_size=2)
        run_experiment(spec, workers=1, store=store)
        records = store.load(spec)
        dropped = sorted(records)[-1]
        del records[dropped]
        store.save(spec, records)
        rerun = run_experiment(spec, workers=1, store=store)
        assert rerun.executed == 1 and rerun.cached == 3
        assert len(store.load(spec)) == 4


class TestCompact:
    def test_compact_is_idempotent(self, tmp_path):
        spec = spec_for()
        store = ResultStore(tmp_path)
        run_experiment(spec, workers=1, store=store)
        store.compact(spec)
        before = tree_bytes(tmp_path)
        stats = store.compact(spec)
        assert tree_bytes(tmp_path) == before
        assert stats["records"] == 4

    def test_compact_without_spec_uses_sidecars(self, tmp_path):
        store = ResultStore(tmp_path)
        run_experiment(spec_for(), workers=1, store=store)
        run_experiment(spec_for(sizes=(6,)), workers=1, store=store)
        stats = store.compact()
        assert stats["specs"] == 2
        assert stats["records"] == 6

    def test_compact_of_unswept_spec_creates_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        stats = store.compact(spec_for())
        assert stats == {"specs": 0, "records": 0, "removed": 0}
        assert list(tmp_path.iterdir()) == []

    def test_compact_survives_version_bump(self, tmp_path, monkeypatch):
        # A package version change alters what the spec would hash
        # to; compaction (with or without an explicit spec) must
        # still rewrite the store it found on disk instead of
        # creating empty orphan directories.
        import repro

        spec = spec_for()
        store = ResultStore(tmp_path)
        run_experiment(spec, workers=1, store=store)
        original_dir = store.dir_for(spec)
        monkeypatch.setattr(repro, "__version__", "0.0.0-bumped")
        for stats in (store.compact(), store.compact(spec_for())):
            assert stats == {"specs": 1, "records": 4, "removed": 0}
            assert original_dir.is_dir()
            dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
            assert dirs == [original_dir]

    def test_compact_removes_stale_files(self, tmp_path):
        spec = spec_for()
        store = ResultStore(tmp_path)
        run_experiment(spec, workers=1, store=store)
        directory = store.dir_for(spec)
        (directory / "shard-9999.json").write_text("{broken")
        (directory / "shard-0000.tmp").write_text("partial write")
        stats = store.compact(spec)
        assert stats["removed"] == 2
        assert not (directory / "shard-9999.json").exists()
        assert not list(directory.glob("*.tmp"))
        assert len(store.load(spec)) == 4


class TestConcurrentWrites:
    def test_threads_rewriting_one_shard_never_collide(self, tmp_path):
        # Every save rewrites shard-0000.json with different content, so
        # each one goes through a temp file; writers sharing one temp
        # name rename it away under each other (FileNotFoundError).
        spec = spec_for()
        store = ResultStore(tmp_path)
        threads, saves = 4, 300
        barrier = threading.Barrier(threads)
        errors: list[BaseException] = []

        def writer(t: int) -> None:
            barrier.wait()
            try:
                for i in range(saves):
                    store.save(spec, {"key": {"thread": t, "save": i}})
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        workers = [
            threading.Thread(target=writer, args=(t,))
            for t in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert errors == []
        directory = store.dir_for(spec)
        assert not list(directory.glob("*.tmp"))
        (record,) = store.load(spec).values()
        assert record["save"] == saves - 1


class TestCorruptShardRecovery:
    def test_lost_shard_reruns_only_its_trials(self, tmp_path):
        spec = spec_for()
        store = ResultStore(tmp_path, shard_size=2)
        first = run_experiment(spec, workers=1, store=store)
        assert first.executed == 4
        shards = sorted(store.dir_for(spec).glob("shard-*.json"))
        shards[0].write_text("\x00 corrupted \x00")
        rerun = run_experiment(spec, workers=1, store=store)
        assert rerun.executed == 2 and rerun.cached == 2
        assert rerun.canonical_json() == first.canonical_json()
        # The corrupt shard was healed by the post-run save.
        assert len(store.load(spec)) == 4

    def test_wrong_version_shard_is_ignored(self, tmp_path):
        spec = spec_for()
        store = ResultStore(tmp_path)
        run_experiment(spec, workers=1, store=store)
        shard = next(store.dir_for(spec).glob("shard-*.json"))
        payload = json.loads(shard.read_text())
        payload["version"] = 99
        shard.write_text(json.dumps(payload))
        assert store.load(spec) == {}


class TestLegacyMigration:
    def make_legacy(self, store, spec) -> dict:
        records = {
            r["key"]: r
            for r in run_experiment(spec, workers=1).records
        }
        store.legacy_path_for(spec).parent.mkdir(
            parents=True, exist_ok=True
        )
        store.legacy_path_for(spec).write_text(json.dumps({
            "version": 1,
            "spec": spec.to_dict(),
            "spec_hash": spec.spec_hash(),
            "trials": records,
        }))
        return records

    def test_legacy_file_is_read(self, tmp_path):
        spec = spec_for()
        store = ResultStore(tmp_path)
        records = self.make_legacy(store, spec)
        assert store.load(spec) == records

    def test_compact_counts_the_migrated_legacy_file(self, tmp_path):
        spec = spec_for()
        store = ResultStore(tmp_path)
        self.make_legacy(store, spec)
        stats = store.compact()
        assert stats["records"] == 4
        assert stats["removed"] == 1  # the unlinked v1 single file
        assert not store.legacy_path_for(spec).exists()
        assert store.dir_for(spec).is_dir()

    def test_engine_run_migrates_legacy_to_shards(self, tmp_path):
        spec = spec_for()
        store = ResultStore(tmp_path)
        self.make_legacy(store, spec)
        result = run_experiment(spec, workers=1, store=store)
        assert result.executed == 0 and result.cached == 4
        assert not store.legacy_path_for(spec).exists()
        assert store.dir_for(spec).is_dir()
        assert len(store.load(spec)) == 4

    def test_pre_scenario_records_are_backfilled(self, tmp_path):
        # PR1-era records lack the wake/placement/adversary fields;
        # loading must default them so the sweep table and query
        # filters treat old and new records uniformly.
        spec = spec_for()
        store = ResultStore(tmp_path)
        records = self.make_legacy(store, spec)
        stripped = {}
        for key, rec in records.items():
            rec = dict(rec)
            del rec["wake_schedule"]
            del rec["adversary"]
            stripped[key] = rec
        store.legacy_path_for(spec).write_text(json.dumps({
            "version": 1,
            "spec": spec.to_dict(),
            "spec_hash": spec.spec_hash(),
            "trials": stripped,
        }))
        loaded = store.load(spec)
        assert all(
            r["wake_schedule"] == "simultaneous"
            and r["adversary"] == "fixed"
            for r in loaded.values()
        )
        # End to end: the cached sweep renders and queries cleanly.
        from repro.__main__ import main

        assert main([
            "sweep", "--sizes", "4,5", "--seeds", "0,1",
            "--fixed-graph-seed", "--quiet",
            "--cache-dir", str(tmp_path),
        ]) == 0
        assert main([
            "query", "--cache-dir", str(tmp_path),
            "--where", "wake_schedule=simultaneous", "--group-by", "n",
        ]) == 0
        # Migration persisted the backfilled fields into the shards.
        shard_records = store.load(spec)
        assert store.dir_for(spec).is_dir()
        assert all(
            "wake_schedule" in r for r in shard_records.values()
        )

    def test_legacy_store_is_listed(self, tmp_path):
        spec = spec_for()
        store = ResultStore(tmp_path)
        self.make_legacy(store, spec)
        entries = store.list_specs()
        assert len(entries) == 1
        assert entries[0]["spec_hash"] == spec.spec_hash()
        assert entries[0]["trials"] == 4

    def test_interrupted_migration_lists_spec_once(self, tmp_path):
        # A crash between writing the v2 directory and unlinking the
        # legacy file leaves both; the directory must win everywhere
        # or queries double-count every record.
        spec = spec_for()
        store = ResultStore(tmp_path)
        records = self.make_legacy(store, spec)
        store.save(spec, records)
        # Recreate the leftover legacy file next to the v2 dir.
        self.make_legacy(store, spec)
        assert store.legacy_path_for(spec).exists()
        assert store.dir_for(spec).is_dir()
        entries = store.list_specs()
        assert len(entries) == 1
        assert len(list(store.iter_records())) == 4
        assert len(list(store.iter_records(spec.spec_hash()))) == 4


class TestEnumeration:
    def test_list_specs_and_iter_records(self, tmp_path):
        store = ResultStore(tmp_path)
        run_experiment(spec_for(), workers=1, store=store)
        run_experiment(spec_for(sizes=(6,)), workers=1, store=store)
        entries = store.list_specs()
        assert len(entries) == 2
        assert sorted(e["trials"] for e in entries) == [2, 4]
        assert len(list(store.iter_records())) == 6

    def test_iter_records_spec_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = spec_for()
        run_experiment(spec, workers=1, store=store)
        prefix = spec.spec_hash()[:6]
        assert len(list(store.iter_records(prefix))) == 4
        # A typo'd hash is an error, not a silently empty study.
        with pytest.raises(ValueError, match="no cached spec"):
            list(store.iter_records("no-such-hash"))

    def test_ambiguous_spec_prefix_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        run_experiment(spec_for(), workers=1, store=store)
        run_experiment(spec_for(sizes=(6,)), workers=1, store=store)
        # The empty prefix matches both cached specs.
        with pytest.raises(ValueError, match="ambiguous"):
            list(store.iter_records(""))


class TestQueryLayer:
    def records(self, tmp_path) -> list[dict]:
        store = ResultStore(tmp_path)
        spec = spec_for(
            wake_schedules=("simultaneous", "staggered:2"),
            placements=("default", "spread"),
        )
        run_experiment(spec, workers=1, store=store)
        return list(store.iter_records())

    def test_filter_by_axis(self, tmp_path):
        records = self.records(tmp_path)
        assert len(records) == 16
        matched = filter_records(
            records,
            {"n": "4", "wake_schedule": "staggered:2"},
        )
        assert len(matched) == 4
        assert all(r["n"] == 4 for r in matched)

    def test_filter_by_ok(self, tmp_path):
        records = self.records(tmp_path)
        assert len(filter_records(records, {"ok": "true"})) == 16
        assert filter_records(records, {"ok": "false"}) == []

    def test_record_field_falls_through_to_metrics(self, tmp_path):
        record = self.records(tmp_path)[0]
        assert record_field(record, "rounds") == (
            record["metrics"]["rounds"]
        )
        assert record_field(record, "labels") == "1-2"
        assert record_field(record, "no_such_field") is None

    def test_record_field_dotted_path_descends(self):
        record = {
            "key": "k", "ok": True,
            "metrics": {"frontier": {"depth": 3, "meta": {"tag": "x"}}},
        }
        assert record_field(record, "frontier.depth") == 3
        assert record_field(record, "frontier.meta.tag") == "x"

    def test_record_field_dotted_missing_key_is_query_error(self):
        record = {
            "key": "k", "ok": True, "metrics": {"frontier": {"depth": 3}},
        }
        with pytest.raises(QueryError) as err:
            record_field(record, "frontier.width")
        # The error names the full path and the offending record.
        assert "frontier.width" in str(err.value)
        assert "record" in str(err.value)

    def test_record_field_dotted_non_dict_is_query_error(self):
        # A scalar where a dict was expected (e.g. a sidecar written
        # by an older engine) must not surface as a bare TypeError.
        record = {"key": "k", "ok": True, "metrics": {"frontier": 7}}
        with pytest.raises(QueryError, match="frontier.depth"):
            record_field(record, "frontier.depth")

    def test_dotted_fields_validate_by_head(self, tmp_path):
        records = self.records(tmp_path)
        # A dotted path is validated by its head field only; nested
        # misses are reported per record by record_field instead.
        with pytest.raises(QueryError, match="unknown field"):
            require_known_fields(records, ["no_such.thing"])
        require_known_fields(records, ["rounds"])

    def test_aggregate_group_by(self, tmp_path):
        rows = aggregate(
            self.records(tmp_path),
            group_by=("wake_schedule",),
            metrics=("rounds",),
            stats=("count", "mean", "max"),
        )
        assert [r["group"]["wake_schedule"] for r in rows] == [
            "simultaneous", "staggered:2",
        ]
        for row in rows:
            assert row["count"] == 8
            assert row["rounds"]["max"] >= row["rounds"]["mean"]

    def test_group_values_keep_their_types(self, tmp_path):
        store = ResultStore(tmp_path)
        run_experiment(
            spec_for(sizes=(4, 8, 10)), workers=1, store=store
        )
        rows = aggregate(
            list(store.iter_records()),
            group_by=("n",),
            metrics=("rounds",),
            stats=("count",),
        )
        # Numeric group keys stay ints and sort numerically, not
        # lexicographically (which would give 10, 4, 8).
        assert [r["group"]["n"] for r in rows] == [4, 8, 10]

    def test_format_value_is_big_int_safe(self):
        from repro.runner.query import format_value

        assert format_value(None) == "-"
        assert format_value(29762) == "29762"
        assert format_value(12.5) == "12.50"
        assert format_value("spread") == "spread"
        # Unknown-bound clocks exceed the int-to-str digit limit;
        # rendering must stay compact and not raise.
        assert format_value(10 ** 400) == "1.000e400"
        assert "e" in format_value(1e300)

    def test_table_groups_tolerate_partially_absent_fields(
        self, tmp_path, capsys
    ):
        # 'moves' exists on gather records but not gossip records; a
        # --group-by over the mixed cache must render, not crash.
        from repro.__main__ import main

        store = ResultStore(tmp_path)
        run_experiment(spec_for(), workers=1, store=store)
        run_experiment(
            spec_for(
                algorithm="gossip_known", family="edge", sizes=(2,),
                message_sets=(("101", "01"),),
            ),
            workers=1,
            store=store,
        )
        assert main([
            "query", "--cache-dir", str(tmp_path),
            "--group-by", "moves",
        ]) == 0
        out = capsys.readouterr().out
        assert "groups:" in out

    def test_mean_survives_astronomical_rounds(self):
        # gather_unknown records carry exact integers with hundreds
        # of digits; mean must not crash on float overflow.
        rows = aggregate(
            [
                {"ok": True, "metrics": {"rounds": 10 ** 400}},
                {"ok": True, "metrics": {"rounds": 10 ** 400 + 2}},
            ],
            metrics=("rounds",),
            stats=("mean", "max"),
        )
        assert rows[0]["rounds"]["mean"] == 10 ** 400 + 1
        assert rows[0]["rounds"]["max"] == 10 ** 400 + 2

    def test_percentiles_nearest_rank(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 50) == 20
        assert percentile(values, 95) == 40
        assert percentile([7], 95) == 7
        assert percentile([], 50) is None

    def test_parse_where_rejects_garbage(self):
        assert parse_where(["a=1", "b=x"]) == {"a": "1", "b": "x"}
        with pytest.raises(QueryError):
            parse_where(["no-equals-sign"])

    def test_parse_where_rejects_conflicting_clauses(self):
        # Clauses are conjunctive; keeping only the last n= would
        # silently answer a different question.
        with pytest.raises(QueryError, match="conflicting"):
            parse_where(["n=4", "n=5"])
        assert parse_where(["n=4", "n=4"]) == {"n": "4"}

    def test_unknown_stat_raises(self, tmp_path):
        with pytest.raises(QueryError, match="unknown stat"):
            aggregate(self.records(tmp_path), stats=("median",))

    def test_row_key_names_rejected_as_metrics(self, tmp_path):
        # metrics=("count",) would clobber the per-group row count.
        with pytest.raises(QueryError, match="row key"):
            aggregate(self.records(tmp_path), metrics=("count",))

    def test_typoed_field_rejected_by_cli(self, tmp_path, capsys):
        # 'wake' instead of 'wake_schedule' must error, not silently
        # report that no such trials are cached.
        from repro.__main__ import main
        from repro.runner.query import require_known_fields

        records = self.records(tmp_path)
        with pytest.raises(QueryError, match="unknown field"):
            require_known_fields(records, ["wake"])
        require_known_fields(records, ["wake_schedule", "rounds"])
        assert main([
            "query", "--cache-dir", str(tmp_path),
            "--where", "wake=staggered:2",
        ]) == 2
        assert "unknown field" in capsys.readouterr().out
        assert main([
            "query", "--cache-dir", str(tmp_path),
            "--metrics", "ronuds",
        ]) == 2


class TestQueryCLI:
    def sweep(self, tmp_path) -> None:
        from repro.__main__ import main

        assert main([
            "sweep", "--sizes", "4,5", "--seeds", "0,1",
            "--wake", "simultaneous,staggered:2", "--quiet",
            "--cache-dir", str(tmp_path),
        ]) == 0

    def test_query_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main

        self.sweep(tmp_path)
        assert main([
            "query", "--cache-dir", str(tmp_path),
            "--where", "wake_schedule=staggered:2",
            "--group-by", "n", "--metrics", "rounds",
            "--stats", "mean,p95,max",
        ]) == 0
        out = capsys.readouterr().out
        assert "matched: 4" in out
        assert "rounds.p95" in out

    def test_query_list(self, tmp_path, capsys):
        from repro.__main__ import main

        self.sweep(tmp_path)
        assert main(["query", "--cache-dir", str(tmp_path),
                     "--list"]) == 0
        out = capsys.readouterr().out
        assert "gather_known" in out

    def test_query_list_honors_spec_prefix(self, tmp_path, capsys):
        from repro.__main__ import main

        self.sweep(tmp_path)
        spec_hash = ResultStore(tmp_path).list_specs()[0]["spec_hash"]
        assert main(["query", "--cache-dir", str(tmp_path), "--list",
                     "--spec", spec_hash[:6]]) == 0
        assert spec_hash in capsys.readouterr().out
        assert main(["query", "--cache-dir", str(tmp_path), "--list",
                     "--spec", "zzzz"]) == 2
        assert "error" in capsys.readouterr().out

    def test_query_list_rejects_filter_flags(self, tmp_path, capsys):
        from repro.__main__ import main

        self.sweep(tmp_path)
        assert main(["query", "--cache-dir", str(tmp_path), "--list",
                     "--where", "n=4"]) == 2
        assert "only composes with" in capsys.readouterr().out
        assert main(["query", "--cache-dir", str(tmp_path), "--list",
                     "--stats", "p95"]) == 2
        assert "only composes with" in capsys.readouterr().out

    def test_query_json_output(self, tmp_path, capsys):
        from repro.__main__ import main

        self.sweep(tmp_path)
        capsys.readouterr()  # drain the sweep's own output
        assert main([
            "query", "--cache-dir", str(tmp_path),
            "--group-by", "wake_schedule", "--json",
        ]) == 0
        captured = capsys.readouterr()
        # stdout is pure JSON (pipeable); the summary goes to stderr.
        rows = json.loads(captured.out)
        assert len(rows) == 2
        assert "matched:" in captured.err

    def test_query_missing_store_errors(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["query", "--cache-dir",
                     str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().out

    def test_query_json_errors_keep_stdout_pure(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["query", "--cache-dir", str(tmp_path / "nope"),
                     "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_compact_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        self.sweep(tmp_path)
        assert main(["compact", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "compacted 1 spec(s)" in out

    def test_compact_rejects_bad_shard_size(self, tmp_path, capsys):
        from repro.__main__ import main

        self.sweep(tmp_path)
        assert main(["compact", "--cache-dir", str(tmp_path),
                     "--shard-size", "0"]) == 2
        assert "error" in capsys.readouterr().out


class TestStoreMerge:
    """``ResultStore.merge_from`` — the multi-host union operation."""

    def run_into(self, path, **overrides) -> ResultStore:
        store = ResultStore(path)
        run_experiment(spec_for(**overrides), workers=1, store=store)
        return store

    def split_store(self, tmp_path):
        """One spec's records split across two disjoint worker stores."""
        spec = spec_for()
        records = {
            r["key"]: r for r in run_experiment(spec, workers=1).records
        }
        keys = sorted(records)
        half = len(keys) // 2
        store_a = ResultStore(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        store_a.save(spec, {k: records[k] for k in keys[:half]})
        store_b.save(spec, {k: records[k] for k in keys[half:]})
        return spec, records, store_a, store_b

    def test_disjoint_shards_union(self, tmp_path):
        spec, records, store_a, store_b = self.split_store(tmp_path)
        merged = ResultStore(tmp_path / "merged")
        stats = merged.merge_from([store_a, store_b])
        assert stats == {
            "specs": 1, "records": 4, "duplicates": 0, "skipped": 0,
        }
        assert merged.load(spec) == records

    def test_merged_store_is_byte_canonical(self, tmp_path):
        spec, records, store_a, store_b = self.split_store(tmp_path)
        merged = ResultStore(tmp_path / "merged")
        merged.merge_from([store_a, store_b])
        reference = ResultStore(tmp_path / "reference")
        reference.save(spec, records)
        assert tree_bytes(tmp_path / "merged") == tree_bytes(
            tmp_path / "reference"
        )

    def test_identical_duplicates_stay_silent(self, tmp_path, recwarn):
        # Two workers that both covered a chunk hold identical records
        # for it: the normal overlap case must not spam warnings.
        import warnings as warnings_mod

        store_a = self.run_into(tmp_path / "a")
        store_b = self.run_into(tmp_path / "b")
        merged = ResultStore(tmp_path / "merged")
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")  # any warning fails
            stats = merged.merge_from([store_a, store_b])
        assert stats["duplicates"] == 0
        assert stats["records"] == 4

    def test_conflicting_duplicates_warn_last_wins(self, tmp_path):
        from repro.runner import MergeWarning

        spec = spec_for()
        store_a = self.run_into(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        records = dict(store_a.load(spec))
        doctored_key = sorted(records)[0]
        doctored = json.loads(json.dumps(records[doctored_key]))
        doctored["metrics"]["rounds"] = -1
        store_b.save(spec, {**records, doctored_key: doctored})
        merged = ResultStore(tmp_path / "merged")
        with pytest.warns(MergeWarning, match="duplicate"):
            stats = merged.merge_from([store_a, store_b])
        assert stats["duplicates"] == 1
        # Last source wins: the doctored record survives.
        assert merged.load(spec)[doctored_key]["metrics"]["rounds"] == -1

    def test_corrupt_shard_in_one_source(self, tmp_path):
        spec, records, store_a, store_b = self.split_store(tmp_path)
        # Corrupt one of store_b's shards: only its records go missing,
        # and nothing crashes (matching load()'s recovery semantics).
        shard = sorted(store_b.dir_for(spec).glob("shard-*.json"))[0]
        lost = len(json.loads(shard.read_text())["trials"])
        shard.write_text("{not json")
        merged = ResultStore(tmp_path / "merged")
        stats = merged.merge_from([store_a, store_b])
        assert stats["records"] == len(records) - lost
        survivors = merged.load(spec)
        assert len(survivors) == len(records) - lost
        assert all(records[k] == r for k, r in survivors.items())

    def test_legacy_v1_source_is_migrated(self, tmp_path):
        spec = spec_for()
        records = {
            r["key"]: r for r in run_experiment(spec, workers=1).records
        }
        legacy = ResultStore(tmp_path / "legacy")
        legacy.legacy_path_for(spec).parent.mkdir(
            parents=True, exist_ok=True
        )
        legacy.legacy_path_for(spec).write_text(json.dumps({
            "version": 1,
            "spec": spec.to_dict(),
            "spec_hash": spec.spec_hash(),
            "trials": records,
        }))
        merged = ResultStore(tmp_path / "merged")
        stats = merged.merge_from([legacy])
        assert stats["specs"] == 1
        # The destination is born sharded (v2): merging migrates.
        assert merged.dir_for(spec).is_dir()
        assert not merged.legacy_path_for(spec).exists()
        assert merged.load(spec) == records

    def test_unreadable_spec_sidecar_is_skipped(self, tmp_path):
        from repro.runner import MergeWarning

        spec = spec_for()
        source = self.run_into(tmp_path / "src")
        (source.dir_for(spec) / "spec.json").write_text("{broken")
        merged = ResultStore(tmp_path / "merged")
        with pytest.warns(MergeWarning, match="skipping"):
            stats = merged.merge_from([source])
        assert stats == {
            "specs": 0, "records": 0, "duplicates": 0, "skipped": 1,
        }

    def test_merge_is_incremental_over_dest(self, tmp_path):
        # The destination's own records are the base layer: merging a
        # second worker store into an existing merge result composes.
        spec, records, store_a, store_b = self.split_store(tmp_path)
        merged = ResultStore(tmp_path / "merged")
        merged.merge_from([store_a])
        merged.merge_from([store_b])
        assert merged.load(spec) == records

    def test_merge_cli_reports_and_warns(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = spec_for()
        store_a = self.run_into(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        records = dict(store_a.load(spec))
        key = sorted(records)[0]
        doctored = json.loads(json.dumps(records[key]))
        doctored["metrics"]["rounds"] = -1
        store_b.save(spec, {key: doctored})
        assert main([
            "merge", "--into", str(tmp_path / "merged"),
            str(tmp_path / "a"), str(tmp_path / "b"),
        ]) == 0
        captured = capsys.readouterr()
        assert "merged 1 spec(s), 4 record(s)" in captured.out
        assert "1 conflicting duplicate(s)" in captured.out
        assert "warning:" in captured.err


class TestStreamingQuery:
    """The query CLI aggregates shard by shard, never whole specs."""

    def sweep(self, tmp_path, shard_size=1) -> None:
        store = ResultStore(tmp_path, shard_size=shard_size)
        run_experiment(spec_for(), workers=1, store=store)

    def test_iter_records_streams_per_shard(self, tmp_path):
        self.sweep(tmp_path)  # four records, one per shard
        store = ResultStore(tmp_path)
        streamed = list(store.iter_records())
        spec = spec_for()
        assert streamed == [
            store.load(spec)[k] for k in sorted(store.load(spec))
        ]

    def test_overlapping_shards_yield_each_key_once(self, tmp_path):
        # An interrupted save can leave a stale shard whose keys also
        # live in a fresh one; streaming must not double-count them.
        self.sweep(tmp_path, shard_size=256)  # all keys in shard-0000
        store = ResultStore(tmp_path)
        spec = spec_for()
        directory = store.dir_for(spec)
        fresh = json.loads((directory / "shard-0000.json").read_text())
        stale_key = sorted(fresh["trials"])[0]
        stale = dict(fresh)
        stale["shard"] = 1
        stale["trials"] = {stale_key: fresh["trials"][stale_key]}
        (directory / "shard-0001.json").write_text(json.dumps(stale))
        streamed = list(store.iter_spec_records(spec.spec_hash()))
        assert len(streamed) == len(store.load(spec)) == 4
        assert len({r["key"] for r in streamed}) == 4

    def test_query_cli_never_materializes_a_spec(
        self, tmp_path, capsys, monkeypatch
    ):
        self.sweep(tmp_path)

        def forbidden(self, spec):
            raise AssertionError(
                "query must stream shards, not load() whole specs"
            )

        monkeypatch.setattr(ResultStore, "load", forbidden)
        from repro.__main__ import main

        assert main([
            "query", "--cache-dir", str(tmp_path),
            "--group-by", "n", "--metrics", "rounds",
        ]) == 0
        assert "groups: 2" in capsys.readouterr().out

    def test_streaming_rows_match_list_aggregation(self, tmp_path):
        from repro.runner.query import StreamAggregator, aggregate

        self.sweep(tmp_path)
        store = ResultStore(tmp_path)
        records = list(store.iter_records())
        for where, group_by in (
            ({}, ("n",)),
            ({"n": "4"}, ("seed",)),
            ({}, ("n", "seed")),
        ):
            reference = aggregate(
                filter_records(records, where),
                group_by=group_by,
                metrics=("rounds", "moves"),
            )
            streaming = StreamAggregator(
                where, group_by=group_by, metrics=("rounds", "moves")
            )
            for record in records:
                streaming.add(record)
            assert streaming.rows() == reference

    def test_streaming_json_output_matches_reference(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main
        from repro.runner.query import aggregate

        self.sweep(tmp_path)
        assert main([
            "query", "--cache-dir", str(tmp_path),
            "--group-by", "n", "--metrics", "rounds",
            "--stats", "count,mean,p50,p95,max", "--json",
        ]) == 0
        emitted = json.loads(capsys.readouterr().out)
        records = list(ResultStore(tmp_path).iter_records())
        assert emitted == aggregate(records, group_by=("n",))

    def test_decomposable_stats_use_running_aggregates(self, tmp_path):
        # Without percentile stats the aggregator must not keep
        # per-record values — only [count, total, min, max] per group
        # — and still match the list-based reference exactly.
        from repro.runner.query import StreamAggregator, aggregate

        self.sweep(tmp_path)
        records = list(ResultStore(tmp_path).iter_records())
        stats = ("count", "mean", "min", "max", "sum")
        streaming = StreamAggregator(
            {}, group_by=("n",), metrics=("rounds",), stats=stats
        )
        for record in records:
            streaming.add(record)
        assert not streaming._keep_values
        for group in streaming._groups.values():
            state = group["metrics"]["rounds"]
            assert state is None or len(state) == 4
        assert streaming.rows() == aggregate(
            records, group_by=("n",), metrics=("rounds",), stats=stats
        )

    def test_running_mean_survives_astronomical_rounds(self):
        # gather_unknown round counts are exact integers with
        # hundreds of digits; the running-aggregate mean must take
        # the same integer-division fallback as _stat does.
        from repro.runner.query import StreamAggregator, aggregate

        records = [
            {"ok": True, "n": 2, "metrics": {"rounds": 10 ** 400 + i}}
            for i in range(3)
        ]
        stats = ("count", "mean", "max")
        streaming = StreamAggregator({}, metrics=("rounds",), stats=stats)
        for record in records:
            streaming.add(record)
        assert streaming.rows() == aggregate(
            records, metrics=("rounds",), stats=stats
        )

    def test_streaming_counters_match_summary(self, tmp_path, capsys):
        from repro.__main__ import main

        self.sweep(tmp_path)
        assert main([
            "query", "--cache-dir", str(tmp_path),
            "--where", "n=4",
        ]) == 0
        assert (
            "records: 4  matched: 2  aggregated: 2  groups: 1"
            in capsys.readouterr().out
        )

    def test_streaming_unknown_field_still_rejected(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        self.sweep(tmp_path)
        assert main([
            "query", "--cache-dir", str(tmp_path),
            "--where", "wormholes=3",
        ]) == 2
        assert "unknown field 'wormholes'" in capsys.readouterr().out


class TestCorruptIndexRecovery:
    """A damaged ``index.json`` must never lose records or listings."""

    def sweep(self, tmp_path):
        spec = spec_for()
        store = ResultStore(tmp_path)
        run_experiment(spec, workers=1, store=store)
        return spec, store

    def index_path(self, spec, tmp_path):
        return tmp_path / spec.spec_hash() / "index.json"

    def test_garbage_index_falls_back_to_shard_scan(self, tmp_path):
        spec, store = self.sweep(tmp_path)
        self.index_path(spec, tmp_path).write_text("{not json")
        (entry,) = store.list_specs()
        assert entry["trials"] == 4
        assert len(store.load(spec)) == 4

    def test_missing_index_falls_back_to_shard_scan(self, tmp_path):
        spec, store = self.sweep(tmp_path)
        self.index_path(spec, tmp_path).unlink()
        (entry,) = store.list_specs()
        assert entry["trials"] == 4

    def test_wrong_version_index_falls_back(self, tmp_path):
        spec, store = self.sweep(tmp_path)
        self.index_path(spec, tmp_path).write_text(
            json.dumps({"version": 99, "total": 0})
        )
        (entry,) = store.list_specs()
        assert entry["trials"] == 4

    def test_compact_heals_a_corrupt_index(self, tmp_path):
        spec, store = self.sweep(tmp_path)
        healthy = tree_bytes(tmp_path)
        self.index_path(spec, tmp_path).write_text("{not json")
        stats = store.compact()
        assert stats == {"specs": 1, "records": 4, "removed": 0}
        assert tree_bytes(tmp_path) == healthy

    def test_rerun_with_corrupt_index_simulates_nothing(self, tmp_path):
        # The engine's cache subtraction reads shards, not the index:
        # a corrupt index alone never forces a re-simulation.
        spec, store = self.sweep(tmp_path)
        self.index_path(spec, tmp_path).write_text("garbage")
        result = run_experiment(spec, workers=1, store=store)
        assert result.executed == 0
        assert result.cached == 4


class TestMergeWithSearchRecords:
    """``merge_from`` when a sibling store holds search records."""

    def populate(self, tmp_path):
        from repro.runner.search import SearchSpec, run_search

        sweep_store = ResultStore(tmp_path / "sweep")
        run_experiment(spec_for(), workers=1, store=sweep_store)
        search_spec = SearchSpec(
            algorithm="gather_known", family="ring", n=6,
            labels=(1, 2), strategy="hill_climb", budget=6,
            max_delay=20,
        )
        search_store = ResultStore(tmp_path / "search")
        result = run_search(search_spec, store=search_store)
        return sweep_store, search_store, search_spec, result

    def test_merge_unions_search_and_sweep_stores(self, tmp_path):
        sweep_store, search_store, spec, result = self.populate(tmp_path)
        merged = ResultStore(tmp_path / "merged")
        stats = merged.merge_from([sweep_store, search_store])
        assert stats["specs"] == 2
        assert stats["skipped"] == 0
        assert stats["duplicates"] == 0
        loaded = merged.load(spec)
        assert loaded == search_store.load(spec)
        kinds = {r.get("kind") for r in loaded.values()}
        assert kinds == {"eval", "round"}

    def test_merged_search_store_is_byte_canonical(self, tmp_path):
        _, search_store, spec, _ = self.populate(tmp_path)
        merged = ResultStore(tmp_path / "merged")
        merged.merge_from([search_store])
        assert tree_bytes(tmp_path / "merged") == tree_bytes(
            tmp_path / "search"
        )

    def test_merged_search_sidecar_keeps_its_kind(self, tmp_path):
        sweep_store, search_store, spec, _ = self.populate(tmp_path)
        merged = ResultStore(tmp_path / "merged")
        merged.merge_from([sweep_store, search_store])
        sidecar = json.loads(
            (tmp_path / "merged" / spec.spec_hash() / "spec.json")
            .read_text()
        )
        assert sidecar["spec"]["kind"] == "search"

    def test_search_resumes_from_a_merged_store(self, tmp_path):
        from repro.runner.search import run_search

        sweep_store, search_store, spec, first = self.populate(tmp_path)
        merged = ResultStore(tmp_path / "merged")
        merged.merge_from([sweep_store, search_store])
        resumed = run_search(spec, store=merged)
        assert resumed.simulated == 0
        assert resumed.best_value == first.best_value

    def test_compact_covers_search_stores(self, tmp_path):
        _, search_store, spec, result = self.populate(tmp_path)
        before = tree_bytes(tmp_path / "search")
        stats = search_store.compact()
        assert stats["specs"] == 1
        assert stats["records"] == len(result.records)
        assert tree_bytes(tmp_path / "search") == before
