"""The metrics layer: registry, snapshots, merge, CLI, and the
never-affects-results contract.

Pins the observability contract of this PR: counters/gauges/histograms
cost one ``is None`` test when disabled, a metrics-on sweep produces
byte-identical records *and* store bytes to a metrics-off one, pool
workers ship cumulative snapshots that fold with replace-per-worker
semantics, and a two-worker manifest sweep merges into one fleet-wide
snapshot whose trial counters equal the serial run's.
"""

from __future__ import annotations

import json

import pytest

from repro.metrics import registry as metrics_registry
from repro.metrics import snapshot as snap_mod
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    _bucket_of,
)
from repro.runner import ExperimentSpec, run_experiment


def make_spec(**overrides):
    base = dict(
        algorithm="gather_known", family="ring", sizes=(4, 5),
        label_sets=((1, 2),), seeds=(0,),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def series_by_name(snapshot: dict) -> dict:
    out = {}
    for row in snapshot["series"]:
        labels = tuple(sorted(row["labels"].items()))
        out[(row["name"], labels)] = row
    return out


def counter_value(snapshot: dict, name: str, **labels) -> int:
    key = (name, tuple(sorted(labels.items())))
    return series_by_name(snapshot)[key]["value"]


def sum_counters(snapshot: dict, name: str) -> int:
    return sum(
        row["value"]
        for row in snapshot["series"]
        if row["name"] == name and row["kind"] == "counter"
    )


class TestPrimitives:
    def test_counter_inc_and_raw_value(self):
        c = Counter()
        c.inc()
        c.inc(3)
        c.value += 2
        assert c.value == 6

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(4)
        g.set(1.5)
        assert g.value == 1.5

    def test_bucket_convention(self):
        # Bucket e covers [2**(e-1), 2**e); non-positive values -> 0.
        assert _bucket_of(0) == 0
        assert _bucket_of(-3) == 0
        assert _bucket_of(1) == 1
        assert _bucket_of(2) == 2
        assert _bucket_of(3) == 2
        assert _bucket_of(4) == 3
        assert _bucket_of(0.75) == 0  # frexp exponent, [0.5, 1)
        assert _bucket_of(1.5) == 1
        # Exact for arbitrarily large ints: no float conversion.
        huge = 1 << 5000
        assert _bucket_of(huge) == 5001
        assert _bucket_of(huge - 1) == 5000

    def test_histogram_tracks_exact_stats(self):
        h = Histogram()
        for v in (1, 2, 3, 100):
            h.observe(v)
        assert h.count == 4
        assert h.total == 106
        assert (h.min, h.max) == (1, 100)
        assert h.buckets == {1: 1, 2: 2, 7: 1}

    def test_timer_observes_wall_seconds(self):
        reg = Registry()
        with reg.timer("t.wall"):
            pass
        h = reg.histogram("t.wall")
        assert h.count == 1
        assert h.total >= 0


class TestRegistry:
    def test_labels_create_distinct_series(self):
        reg = Registry()
        reg.counter("c", backend="serial").inc()
        reg.counter("c", backend="process").inc(2)
        snap = reg.snapshot()
        assert counter_value(snap, "c", backend="serial") == 1
        assert counter_value(snap, "c", backend="process") == 2

    def test_kind_mismatch_raises(self):
        reg = Registry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_sorted_and_schema_tagged(self):
        reg = Registry(source="unit")
        reg.counter("b").inc()
        reg.counter("a").inc()
        snap = reg.snapshot()
        assert snap["schema"] == metrics_registry.SCHEMA_NAME
        assert snap["version"] == metrics_registry.SCHEMA_VERSION
        assert snap["source"] == "unit"
        names = [row["name"] for row in snap["series"]]
        assert names == sorted(names)
        assert snap_mod.validate_snapshot(snap) == []

    def test_current_is_none_by_default(self):
        assert metrics_registry.current() is None

    def test_attached_scopes_and_restores(self):
        outer, inner = Registry("outer"), Registry("inner")
        with metrics_registry.attached(outer):
            assert metrics_registry.current() is outer
            with metrics_registry.attached(inner):
                assert metrics_registry.current() is inner
            assert metrics_registry.current() is outer
        assert metrics_registry.current() is None

    def test_attached_none_is_a_noop_scope(self):
        with metrics_registry.attached(None) as reg:
            assert reg is None
            assert metrics_registry.current() is None
        outer = Registry()
        with metrics_registry.attached(outer):
            with metrics_registry.attached(None) as reg:
                assert reg is outer

    def test_absorb_replaces_per_worker(self):
        # Workers ship *cumulative* snapshots: only the latest per
        # worker may count, while distinct workers sum.
        wa = Registry("wa")
        wa.counter("n").inc(2)
        first = wa.snapshot()
        wa.counter("n").inc(3)
        second = wa.snapshot()
        wb = Registry("wb")
        wb.counter("n").inc(10)
        parent = Registry("parent")
        parent.absorb("wa", first)
        parent.absorb("wa", second)  # replaces, not adds
        parent.absorb("wb", wb.snapshot())
        assert counter_value(parent.snapshot(), "n") == 15


class TestSnapshotAlgebra:
    def snap(self, build) -> dict:
        reg = Registry("s")
        build(reg)
        return reg.snapshot()

    def test_merge_sums_counters_and_folds_histograms(self):
        a = self.snap(lambda r: (
            r.counter("c").inc(2), r.histogram("h").observe(1),
        ))
        b = self.snap(lambda r: (
            r.counter("c").inc(3), r.histogram("h").observe(100),
            r.gauge("g").set(7),
        ))
        merged = snap_mod.merge_snapshots([a, b], source="m")
        assert counter_value(merged, "c") == 5
        rows = series_by_name(merged)
        h = rows[("h", ())]
        assert h["count"] == 2
        assert h["sum"] == 101
        assert (h["min"], h["max"]) == (1, 100)
        assert rows[("g", ())]["value"] == 7
        assert snap_mod.validate_snapshot(merged) == []

    def test_merge_rejects_kind_conflict(self):
        a = self.snap(lambda r: r.counter("x").inc())
        b = self.snap(lambda r: r.gauge("x").set(1))
        with pytest.raises(ValueError):
            snap_mod.merge_snapshots([a, b])

    def test_validate_catches_corruption(self):
        snap = self.snap(lambda r: r.histogram("h").observe(2))
        assert snap_mod.validate_snapshot(snap) == []
        broken = json.loads(json.dumps(snap))
        idx = next(
            i for i, row in enumerate(broken["series"])
            if row["name"] == "h"
        )
        broken["series"][idx]["buckets"] = {"2": 5}  # != count
        assert snap_mod.validate_snapshot(broken)
        assert snap_mod.validate_snapshot({"schema": "nope"})

    def test_diff_reports_deltas_and_one_sided_series(self):
        before = self.snap(lambda r: r.counter("c").inc(1))
        after = self.snap(lambda r: (
            r.counter("c").inc(4), r.counter("new").inc(),
        ))
        rows = {row["name"]: row for row in
                snap_mod.diff_snapshots(before, after)}
        assert rows["c"]["delta"] == 3
        assert rows["new"]["only"] == "after"

    def test_prometheus_exposition_shape(self):
        snap = self.snap(lambda r: (
            r.counter("runner.trials.executed", status="ok").inc(4),
            r.histogram("sim.wall_seconds").observe(0.25),
        ))
        text = snap_mod.to_prometheus(snap)
        assert "# TYPE runner_trials_executed_total counter" in text
        assert 'runner_trials_executed_total{status="ok"} 4' in text
        assert 'sim_wall_seconds_bucket{le="+Inf"} 1' in text
        assert "sim_wall_seconds_count 1" in text

    def test_prometheus_survives_big_int_observations(self):
        # Exponents beyond float range must not overflow the bucket
        # bound rendering.
        snap = self.snap(lambda r: r.histogram("big").observe(1 << 2000))
        text = snap_mod.to_prometheus(snap)
        assert 'le="+Inf"' in text

    def test_write_load_round_trip(self, tmp_path):
        snap = self.snap(lambda r: r.counter("c").inc(2))
        path = tmp_path / "snap.json"
        snap_mod.write_snapshot(path, snap)
        assert snap_mod.load_snapshot(path) == snap
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other"}')
        with pytest.raises(ValueError):
            snap_mod.load_snapshot(bad)


class TestSchedulerIntegration:
    def run_sim(self):
        from repro.core import run_gather_known
        from repro.graphs import ring

        return run_gather_known(ring(6, seed=42), [5, 9, 12], 8)

    def test_segment_attributes_are_thin_views(self):
        from repro.graphs import ring
        from repro.sim import AgentSpec, Simulation
        from repro.core.gather_known import gather_known_program
        from repro.core.parameters import KnownBoundParameters

        params = KnownBoundParameters(4)
        program = gather_known_program(params, max_phases=12)
        graph = ring(4, seed=1)
        sim = Simulation(
            graph, [AgentSpec(1, 0, program), AgentSpec(2, 2, program)]
        )
        sim.run()
        assert sim.segments > 0
        assert sim.segment_edges >= sim.segments
        # The public attributes stay writable (thin views over the
        # standalone counters), as pre-metrics callers expect.
        sim.segments = 0
        assert sim.segments == 0

    def test_run_flushes_sim_counters_once(self):
        reg = Registry("t")
        with metrics_registry.attached(reg):
            self.run_sim()
        snap = reg.snapshot()
        assert counter_value(snap, "sim.runs") == 1
        assert counter_value(snap, "sim.walk.segments") > 0
        assert counter_value(snap, "sim.walk.segment_edges") > 0
        assert counter_value(snap, "sim.events") > 0
        rows = series_by_name(snap)
        assert rows[("sim.wall_seconds", ())]["count"] == 1

    def test_failed_run_flushes_its_counters(self):
        """A run whose program raises still flushes once: it counts in
        ``sim.runs.failed``, not ``sim.runs``, and its events count in
        ``sim.events``.  The ``gather_unknown`` edge trial fails when
        the smaller label wakes last (ROADMAP item 1)."""
        from repro.core.gather_unknown import HypothesisBudgetError
        from repro.core.runs import prepare_gather_unknown
        from repro.graphs import single_edge

        reg = Registry("t")
        with metrics_registry.attached(reg):
            prepared = prepare_gather_unknown(
                single_edge(), [1, 2], wake_rounds=[10, 0]
            )
            with pytest.raises(HypothesisBudgetError):
                prepared.run()
        snap = reg.snapshot()
        names = {row["name"] for row in snap["series"]}
        assert "sim.runs" not in names
        assert counter_value(snap, "sim.runs.failed") == 1
        events = prepared.simulation._events
        assert events > 0
        assert counter_value(snap, "sim.events") == events
        assert snap_mod.validate_snapshot(snap) == []

    def test_paced_batches_flush_once_per_run(self):
        """A ``gather_unknown`` run flushes its paced-walk batches; a
        run without paced walks adds no such series."""
        from repro.core import run_gather_unknown
        from repro.graphs import single_edge

        reg = Registry("t")
        with metrics_registry.attached(reg):
            report = run_gather_unknown(single_edge(), [1, 2])
        snap = reg.snapshot()
        batches = counter_value(snap, "sim.paced.batches")
        edges = counter_value(snap, "sim.paced.edges")
        assert 0 < batches < edges <= report.total_moves
        assert snap_mod.validate_snapshot(snap) == []
        assert "sim_paced_edges" in snap_mod.to_prometheus(snap)
        reg = Registry("t")
        with metrics_registry.attached(reg):
            self.run_sim()
        names = {row["name"] for row in reg.snapshot()["series"]}
        assert "sim.paced.batches" not in names

    def test_unattached_run_records_nothing(self):
        reg = Registry("t")
        self.run_sim()  # no registry attached: nothing to flush
        # Collectors still publish their process-wide totals, but no
        # per-run series can appear without an attached registry.
        names = {row["name"] for row in reg.snapshot()["series"]}
        assert "sim.runs" not in names
        assert "sim.walk.segments" not in names

    def test_intern_and_cache_collectors_report_totals(self):
        from repro.explore import uxs as uxs_mod
        from repro.sim import agent as agent_mod

        reg = Registry("t")
        with metrics_registry.attached(reg):
            self.run_sim()
        snap = reg.snapshot()
        hits, misses = agent_mod.intern_stats()
        assert counter_value(snap, "sim.plan_intern.hits") == hits
        assert counter_value(snap, "sim.plan_intern.misses") == misses
        stats = uxs_mod.cache_stats()
        assert (
            counter_value(snap, "explore.seq_cache.hits")
            == stats["seq_hits"]
        )


class TestNeverAffectsResults:
    def test_records_and_store_bytes_identical(self, tmp_path):
        spec = make_spec()
        plain_dir = tmp_path / "plain"
        metered_dir = tmp_path / "metered"
        plain = run_experiment(spec, store=str(plain_dir))
        reg = Registry("t")
        with metrics_registry.attached(reg):
            metered = run_experiment(spec, store=str(metered_dir))
        assert metered.canonical_json() == plain.canonical_json()
        # Metrics are excluded from record bytes AND store bytes: the
        # two store trees must be file-for-file byte-identical.
        plain_files = sorted(
            p.relative_to(plain_dir)
            for p in plain_dir.rglob("*") if p.is_file()
        )
        metered_files = sorted(
            p.relative_to(metered_dir)
            for p in metered_dir.rglob("*") if p.is_file()
        )
        assert plain_files == metered_files
        for rel in plain_files:
            assert (plain_dir / rel).read_bytes() == \
                (metered_dir / rel).read_bytes(), rel
        # And the metered run did actually meter.
        assert sum_counters(
            reg.snapshot(), "runner.trials.executed"
        ) == len(plain.records)

    def test_spec_hash_ignores_metrics_attachment(self):
        spec = make_spec()
        plain_hash = spec.spec_hash()
        with metrics_registry.attached(Registry("t")):
            assert make_spec().spec_hash() == plain_hash


class TestPoolSnapshots:
    def test_process_backend_folds_worker_snapshots(self, tmp_path):
        spec = make_spec(seeds=(0, 1))
        reg = Registry("parent")
        with metrics_registry.attached(reg):
            result = run_experiment(
                spec, workers=2, store=str(tmp_path / "s"),
                backend="process",
            )
        snap = reg.snapshot()
        assert sum_counters(snap, "runner.trials.executed") == \
            result.executed == 4
        assert counter_value(
            snap, "runner.backend.records", backend="process"
        ) == 4
        assert counter_value(snap, "sim.runs") == 4

    def test_pipelined_inline_counts_batches(self, tmp_path):
        spec = make_spec(seeds=(0, 1))
        reg = Registry("parent")
        with metrics_registry.attached(reg):
            result = run_experiment(
                spec, workers=1, store=str(tmp_path / "s"),
                backend="pipelined",
            )
        snap = reg.snapshot()
        assert counter_value(
            snap, "runner.backend.records", backend="pipelined"
        ) == len(result.records) == 4
        rows = series_by_name(snap)
        batches = counter_value(
            snap, "runner.backend.batches", backend="pipelined"
        )
        assert rows[("runner.backend.batch_size", ())]["count"] == batches

    def test_worker_envelope_protocol(self):
        from repro.runner import worker as worker_mod

        payload = {"trials": [dict(
            key="t", algorithm="gather_known", family="ring", n=4,
            n_bound=4, labels=[1, 2], messages=None, seed=0,
            graph_seed=3, placement="default",
            wake_schedule="simultaneous", adversary="fixed",
        )]}
        bare = worker_mod.run_trial_batch(payload)
        assert isinstance(bare, list)
        with metrics_registry.attached(Registry("w")):
            wrapped = worker_mod.run_trial_batch(payload)
        assert isinstance(wrapped, dict)
        assert wrapped["records"] == bare
        envelope = wrapped["__metrics__"]
        assert envelope["worker"] == "w"
        assert snap_mod.validate_snapshot(envelope["snapshot"]) == []


class TestManifestFleet:
    def worker_args(self, tmp_path, name, extra=()):
        return [
            "--sizes", "4,5", "--seeds", "0,1", "--chunk-size", "2",
            "--manifest-dir", str(tmp_path / "shared"),
            "--cache-dir", str(tmp_path / name),
            "--worker-id", name, "--quiet",
            "--metrics", str(tmp_path / f"{name}.json"), *extra,
        ]

    def test_two_worker_merge_equals_serial(self, tmp_path):
        from repro.runner.cli import merge_main, worker_main

        # Serial baseline for the trial counters.
        reg = Registry("serial")
        with metrics_registry.attached(reg):
            serial = run_experiment(
                make_spec(seeds=(0, 1)), store=str(tmp_path / "base")
            )
        serial_executed = sum_counters(
            reg.snapshot(), "runner.trials.executed"
        )
        assert serial_executed == len(serial.records) == 4

        assert worker_main(
            self.worker_args(tmp_path, "wa", ("--max-chunks", "1"))
        ) == 0
        assert worker_main(self.worker_args(tmp_path, "wb")) == 0
        fleet = tmp_path / "fleet.json"
        assert merge_main([
            "--into", str(tmp_path / "merged"),
            str(tmp_path / "wa"), str(tmp_path / "wb"),
            str(tmp_path / "shared"),
            "--metrics", str(fleet),
        ]) == 0
        snapshot = snap_mod.load_snapshot(fleet)
        assert snap_mod.validate_snapshot(snapshot) == []
        assert sum_counters(
            snapshot, "runner.trials.executed"
        ) == serial_executed
        assert sum_counters(
            snapshot, "runner.manifest.chunks.claimed"
        ) == 2
        # Both participants wrote sidecars next to the manifest.
        sidecars = snap_mod.find_sidecars([tmp_path / "shared"])
        assert {p.stem for p in sidecars} == {"wa", "wb"}

    def test_manifest_backend_writes_engine_sidecar(self, tmp_path):
        reg = Registry("engine")
        with metrics_registry.attached(reg):
            result = run_experiment(
                make_spec(seeds=(0,)),
                store=str(tmp_path / "s"),
                backend="manifest",
                backend_options={"worker_id": "engine-test"},
            )
        assert result.failed == 0
        sidecars = snap_mod.find_sidecars([tmp_path / "s"])
        assert [p.stem for p in sidecars] == ["engine-test"]
        snapshot = snap_mod.load_snapshot(sidecars[0])
        assert sum_counters(snapshot, "runner.trials.executed") == \
            len(result.records)


class TestMetricsCLI:
    def run_cli(self, *argv):
        from repro.__main__ import main

        return main(["metrics", *argv])

    def make_snapshot(self, tmp_path, name="snap.json", inc=2):
        reg = Registry("cli")
        reg.counter("c").inc(inc)
        reg.histogram("h").observe(3)
        path = tmp_path / name
        snap_mod.write_snapshot(path, reg.snapshot())
        return path

    def test_summary_table_and_json(self, tmp_path, capsys):
        path = self.make_snapshot(tmp_path)
        assert self.run_cli("summary", str(path)) == 0
        out = capsys.readouterr().out
        assert "counter" in out and "histogram" in out
        assert self.run_cli("summary", str(path), "--json") == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["schema"] == metrics_registry.SCHEMA_NAME

    def test_export_prometheus_to_file(self, tmp_path, capsys):
        path = self.make_snapshot(tmp_path)
        out = tmp_path / "metrics.prom"
        assert self.run_cli(
            "export", str(path), "--format", "prometheus",
            "-o", str(out),
        ) == 0
        assert "c_total 2" in out.read_text()

    def test_diff_counts_changed_series(self, tmp_path, capsys):
        before = self.make_snapshot(tmp_path, "before.json", inc=1)
        after = self.make_snapshot(tmp_path, "after.json", inc=5)
        assert self.run_cli("diff", str(before), str(after)) == 0
        out = capsys.readouterr().out
        assert "c" in out and "series changed" in out
        rows = {
            row["name"]: row
            for row in snap_mod.diff_snapshots(
                snap_mod.load_snapshot(before),
                snap_mod.load_snapshot(after),
            )
        }
        assert rows["c"]["delta"] == 4

    def test_missing_and_malformed_files_exit_1(self, tmp_path, capsys):
        assert self.run_cli("summary", str(tmp_path / "nope.json")) == 1
        assert "error:" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert self.run_cli("summary", str(bad)) == 1

    def test_schema_check_tool(self, tmp_path):
        import subprocess
        import sys

        path = self.make_snapshot(tmp_path)
        proc = subprocess.run(
            [sys.executable, "tools/check_metrics_schema.py", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "series valid" in proc.stdout


class TestWorkerResets:
    def test_reset_helpers_zero_the_tallies(self):
        from repro.explore import uxs as uxs_mod
        from repro.sim import agent as agent_mod

        agent_mod.intern_plan((("w", 1),))
        uxs_mod.UXSProvider().sequence(3)
        agent_mod.reset_intern_stats()
        uxs_mod.reset_cache_stats()
        assert agent_mod.intern_stats() == (0, 0)
        assert set(uxs_mod.cache_stats().values()) == {0}
