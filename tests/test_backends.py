"""Tests for the pluggable execution backends (``repro.runner.backends``).

Covers the subsystem's hard guarantees:

* registry — the four shipped backends resolve by name, unknown names
  fail loudly, and ``ExperimentSpec.backend`` participates in backend
  selection without ever touching the spec's identity;
* equivalence — ``serial``, ``process``, ``pipelined`` and
  ``manifest`` produce byte-identical records (and stores) for the
  same spec, including captured failures;
* pipelining — trials sharing a graph are batched so the graph is
  built once per batch, not once per trial;
* manifest — lock-free chunk claims, idempotent creation, stale/foreign
  manifests rejected, the two-worker CLI flow (worker + worker + merge)
  reproducing the serial store byte-for-byte.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from repro.__main__ import main
from repro.events import JsonlTraceProcessor, ListProcessor, attached
from repro.events.types import BackendChunkClaimed
from repro.metrics import registry as metrics_registry
from repro.runner import (
    BACKENDS,
    BackendError,
    ExperimentSpec,
    get_backend,
    register_backend,
    run_experiment,
)
from repro.runner import worker as worker_mod
from repro.runner.backends import manifest as manifest_mod
from repro.runner.backends.pipelined import plan_batches
from repro.runner.spec import SpecError
from repro.runner.trial import execute_trial


def cli_spec(sizes=(4, 5), seeds=(0, 1)) -> ExperimentSpec:
    """The spec ``python -m repro worker --sizes .. --seeds ..`` runs."""
    return ExperimentSpec(
        algorithm="gather_known", family="ring", sizes=sizes,
        label_sets=((1, 2),), seeds=seeds,
    )


def cli_spec_args(spec: ExperimentSpec) -> list[str]:
    return [
        "--sizes", ",".join(map(str, spec.sizes)),
        "--seeds", ",".join(map(str, spec.seeds)),
    ]


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        algorithm="gather_known",
        family="ring",
        sizes=(4, 5),
        label_sets=((1, 2),),
        seeds=(1,),
        graph_seed_mode="fixed",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def scenario_spec(**overrides) -> ExperimentSpec:
    """A grid whose scenario axes share graphs (pipelining's target)."""
    base = dict(
        algorithm="gather_known",
        family="ring",
        sizes=(5, 6),
        label_sets=((1, 2),),
        seeds=(0, 1),
        wake_schedules=("simultaneous", "random:10"),
        placements=("spread", "random"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(autouse=True)
def clean_graph_cache():
    worker_mod._GRAPH_CACHE.clear()
    yield
    worker_mod._GRAPH_CACHE.clear()


class TestRegistry:
    def test_four_backends_ship(self):
        assert set(BACKENDS) >= {
            "serial", "process", "pipelined", "manifest"
        }

    def test_get_backend_resolves_by_name(self):
        for name in ("serial", "process", "pipelined", "manifest"):
            assert get_backend(name).name == name

    def test_unknown_backend_lists_known(self):
        with pytest.raises(BackendError, match="serial"):
            get_backend("quantum")

    def test_register_requires_name(self):
        class Anonymous:
            name = ""

            def execute(self, ctx):
                return iter(())

        with pytest.raises(BackendError):
            register_backend(Anonymous())

    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(SpecError, match="unknown execution backend"):
            small_spec(backend="quantum")

    def test_backend_is_not_part_of_spec_identity(self):
        plain = small_spec()
        pipelined = small_spec(backend="pipelined")
        assert pipelined.backend == "pipelined"
        assert "backend" not in pipelined.to_dict()
        assert plain.to_dict() == pipelined.to_dict()
        assert plain.spec_hash() == pipelined.spec_hash()

    def test_spec_backend_drives_dispatch(self, monkeypatch):
        calls: list[str] = []
        real = get_backend("serial")

        class Recording:
            name = "serial"

            def execute(self, ctx):
                calls.append(self.name)
                return real.execute(ctx)

        monkeypatch.setitem(BACKENDS, "serial", Recording())
        run_experiment(small_spec(backend="serial"), workers=4)
        assert calls == ["serial"]  # spec.backend beat the workers=4 default

    def test_explicit_backend_overrides_spec_backend(self, monkeypatch):
        calls: list[str] = []
        real = get_backend("serial")

        class Recording:
            name = "serial"

            def execute(self, ctx):
                calls.append(self.name)
                return real.execute(ctx)

        monkeypatch.setitem(BACKENDS, "serial", Recording())
        run_experiment(
            small_spec(backend="pipelined"), workers=1, backend="serial"
        )
        assert calls == ["serial"]

    def test_factory_specs_need_the_serial_backend(self):
        spec = small_spec(graph_factory=lambda n: None)
        with pytest.raises(SpecError):
            run_experiment(spec, workers=1, backend="pipelined")
        with pytest.raises(SpecError):
            run_experiment(spec, workers=2, backend="serial")


class TestBackendEquivalence:
    def test_all_backends_byte_identical(self, tmp_path):
        reference = run_experiment(scenario_spec(), workers=1)
        assert reference.failed == 0
        runs = {
            "serial": run_experiment(
                scenario_spec(), workers=1, backend="serial"
            ),
            "process": run_experiment(
                scenario_spec(), workers=2, backend="process"
            ),
            "pipelined-inline": run_experiment(
                scenario_spec(), workers=1, backend="pipelined"
            ),
            "pipelined-pool": run_experiment(
                scenario_spec(), workers=2, backend="pipelined"
            ),
            "manifest": run_experiment(
                scenario_spec(), backend="manifest", store=tmp_path
            ),
        }
        for name, result in runs.items():
            assert (
                result.canonical_json() == reference.canonical_json()
            ), f"{name} diverged from the serial reference"

    def test_failures_captured_identically(self):
        # Size 2 is infeasible for the ring family: the failure record
        # must be identical whether the graph is built per trial
        # (serial) or once per batch (pipelined).
        spec = small_spec(sizes=(2, 4))
        serial = run_experiment(spec, workers=1)
        pipelined = run_experiment(spec, workers=1, backend="pipelined")
        pooled = run_experiment(spec, workers=2, backend="pipelined")
        assert serial.failed == 1
        assert serial.canonical_json() == pipelined.canonical_json()
        assert serial.canonical_json() == pooled.canonical_json()

    def test_pipelined_trace_matches_serial(self, tmp_path):
        # One same-graph batch: every trial brackets its own
        # simulation events with TrialStart/TrialEnd, in grid order.
        spec = ExperimentSpec(
            algorithm="gather_known",
            family="ring",
            sizes=(8,),
            label_sets=((1, 2), (3, 1)),
            seeds=(0,),
            placements=("spread", "eccentric"),
            graph_seed_mode="fixed",
        )
        lines = {}
        for backend in ("serial", "pipelined"):
            path = tmp_path / f"{backend}.jsonl"
            with attached(JsonlTraceProcessor(path)):
                run_experiment(spec, workers=1, backend=backend)
            lines[backend] = path.read_bytes().splitlines()
        # SweepStart names the backend; every other line is the same.
        for payloads in lines.values():
            start = json.loads(payloads[1])
            assert start["type"] == "SweepStart"
            del start["backend"]
            payloads[1] = start
        assert lines["pipelined"] == lines["serial"]

    def test_manifest_store_matches_serial_store(self, tmp_path):
        spec_kwargs = dict(sizes=(4, 5), seeds=(0, 1))
        run_experiment(
            small_spec(**spec_kwargs),
            backend="manifest",
            store=tmp_path / "m",
        )
        run_experiment(
            small_spec(**spec_kwargs), workers=1, store=tmp_path / "s"
        )
        manifest_files = {
            p.relative_to(tmp_path / "m"): p.read_bytes()
            for p in sorted((tmp_path / "m").rglob("*.json"))
            if "manifest" not in p.parts
        }
        serial_files = {
            p.relative_to(tmp_path / "s"): p.read_bytes()
            for p in sorted((tmp_path / "s").rglob("*.json"))
        }
        assert manifest_files == serial_files
        assert manifest_files  # shards were actually written

    def test_backend_runs_hit_each_others_cache(self, tmp_path):
        spec = scenario_spec()
        first = run_experiment(
            spec, workers=2, backend="pipelined", store=tmp_path
        )
        assert first.executed == len(first.records)
        rerun = run_experiment(
            spec, workers=1, backend="serial", store=tmp_path
        )
        assert rerun.executed == 0
        assert rerun.cached == len(first.records)


class TestPipelined:
    def test_plan_batches_groups_by_graph(self):
        trials = scenario_spec().trials()
        batches = plan_batches(trials, batch_size=100)
        # One batch per distinct (family, n, graph_seed); every trial
        # of a batch shares its graph coordinates.
        keys = set()
        total = 0
        for batch in batches:
            coords = {(t.family, t.n, t.graph_seed) for t in batch}
            assert len(coords) == 1
            keys |= coords
            total += len(batch)
        assert total == len(trials)
        assert len(batches) == len(keys)

    def test_plan_batches_splits_large_groups(self):
        trials = scenario_spec().trials()
        batches = plan_batches(trials, batch_size=3)
        assert all(len(b) <= 3 for b in batches)
        assert sum(len(b) for b in batches) == len(trials)
        with pytest.raises(ValueError):
            plan_batches(trials, batch_size=0)

    def test_inline_pipelined_builds_each_graph_once(self, monkeypatch):
        builds: list[tuple] = []
        original = worker_mod._build_graph

        def counting(trial):
            builds.append((trial.family, trial.n, trial.graph_seed))
            return original(trial)

        monkeypatch.setattr(worker_mod, "_build_graph", counting)
        spec = scenario_spec()
        trials = spec.trials()
        distinct = {(t.family, t.n, t.graph_seed) for t in trials}
        assert len(distinct) < len(trials)  # scenarios share graphs
        result = run_experiment(spec, workers=1, backend="pipelined")
        assert result.failed == 0
        assert len(builds) == len(distinct)

    def test_batch_size_option_respected(self, monkeypatch):
        batched: list[int] = []
        original = plan_batches

        def recording(pending, batch_size):
            batched.append(batch_size)
            return original(pending, batch_size)

        import repro.runner.backends.pipelined as pipelined_mod

        monkeypatch.setattr(pipelined_mod, "plan_batches", recording)
        run_experiment(
            small_spec(),
            workers=1,
            backend="pipelined",
            backend_options={"batch_size": 3},
        )
        assert batched == [3]


    @pytest.mark.parametrize(
        "algorithm,family,n",
        [
            ("gather_known", "ring", 8),
            ("gather_known", "torus", 9),
            ("gather_unknown", "edge", 2),
        ],
    )
    def test_batch_records_match_serial(self, algorithm, family, n):
        spec = ExperimentSpec(
            algorithm=algorithm,
            family=family,
            sizes=(n,),
            label_sets=((1, 2), (3, 1)),
            seeds=(0, 1),
            placements=("spread", "eccentric"),
            graph_seed_mode="fixed",
        )
        trials = spec.trials()
        graph = worker_mod.shared_graph(trials[0])
        assert graph is not None
        batch_records = [
            r.record()
            for r in worker_mod.execute_trial_batch(trials, graph=graph)
        ]
        serial_records = [
            execute_trial(t, graph=graph).record() for t in trials
        ]
        assert batch_records == serial_records

    def test_batch_captures_prepare_errors_like_serial(self):
        # gather_known needs distinct labels; duplicate labels fail at
        # run construction, which the batch must capture in the exact
        # "{type}: {message}" form the serial path records.
        spec = ExperimentSpec(
            algorithm="gather_known",
            family="ring",
            sizes=(6,),
            label_sets=((2, 2),),
            seeds=(0, 1),
            graph_seed_mode="fixed",
        )
        trials = spec.trials()
        graph = worker_mod.shared_graph(trials[0])
        batch_records = [
            r.record()
            for r in worker_mod.execute_trial_batch(trials, graph=graph)
        ]
        serial_records = [
            execute_trial(t, graph=graph).record() for t in trials
        ]
        assert batch_records == serial_records
        assert not batch_records[0]["ok"]


class TestManifest:
    def test_ensure_manifest_is_idempotent(self, tmp_path):
        spec = small_spec()
        mdir_a, payload_a = manifest_mod.ensure_manifest(tmp_path, spec)
        mdir_b, payload_b = manifest_mod.ensure_manifest(
            tmp_path, spec, chunk_size=99  # ignored: manifest exists
        )
        assert mdir_a == mdir_b
        assert payload_a == payload_b
        assert payload_a["total"] == len(spec.trials())

    def test_foreign_manifest_rejected(self, tmp_path):
        spec = small_spec()
        mdir, payload = manifest_mod.ensure_manifest(tmp_path, spec)
        tampered = dict(payload, spec_hash="0" * 16)
        (mdir / "manifest.json").write_text(json.dumps(tampered))
        with pytest.raises(manifest_mod.ManifestError, match="belongs"):
            manifest_mod.ensure_manifest(tmp_path, spec)

    def test_claims_are_exclusive(self, tmp_path):
        spec = small_spec()
        mdir, _ = manifest_mod.ensure_manifest(tmp_path, spec)
        assert manifest_mod.claim_chunk(mdir, 0, "alice")
        assert not manifest_mod.claim_chunk(mdir, 0, "bob")

    def test_manifest_backend_requires_a_store(self):
        with pytest.raises(BackendError, match="store"):
            run_experiment(small_spec(), backend="manifest")

    def test_detailed_status_reports_claim_ages(self, tmp_path):
        spec = small_spec()
        mdir, payload = manifest_mod.ensure_manifest(
            tmp_path, spec, chunk_size=2
        )
        assert manifest_mod.claim_chunk(mdir, 0, "alice")
        status = manifest_mod.detailed_status(mdir, payload)
        assert status["done"] == 0
        assert status["pending"] == len(payload["chunks"]) - 1
        (claim,) = status["in_flight"]
        assert claim["chunk"] == 0
        assert claim["worker"] == "alice"
        assert claim["age_s"] >= 0.0

    def test_detailed_status_clamps_skewed_claims(self, tmp_path):
        # A claim stamped by a worker clock running ahead of ours has
        # a negative raw age: clamp to zero and flag it, so it can
        # never masquerade as (or hide) a stale claim.
        spec = small_spec()
        mdir, payload = manifest_mod.ensure_manifest(
            tmp_path, spec, chunk_size=2
        )
        assert manifest_mod.claim_chunk(mdir, 0, "alice")
        claim_path = mdir / "claims" / "chunk-0000.claim"
        future = claim_path.stat().st_mtime + 3600
        os.utime(claim_path, (future, future))
        status = manifest_mod.detailed_status(mdir, payload)
        (claim,) = status["in_flight"]
        assert claim["age_s"] == 0.0
        assert claim["skewed"] is True

    def test_detailed_status_marks_normal_claims_unskewed(self, tmp_path):
        spec = small_spec()
        mdir, payload = manifest_mod.ensure_manifest(
            tmp_path, spec, chunk_size=2
        )
        assert manifest_mod.claim_chunk(mdir, 0, "alice")
        status = manifest_mod.detailed_status(mdir, payload)
        assert status["in_flight"][0]["skewed"] is False

    def test_detailed_status_tolerates_corrupt_claims(self, tmp_path):
        # A truncated claim that parses as non-dict JSON (or not at
        # all) must degrade to worker '?', not crash the status tool.
        spec = small_spec()
        mdir, payload = manifest_mod.ensure_manifest(
            tmp_path, spec, chunk_size=2
        )
        claim = mdir / "claims" / "chunk-0000.claim"
        claim.write_text('["not", "a", "dict"]')
        status = manifest_mod.detailed_status(mdir, payload)
        assert status["in_flight"][0]["worker"] == "?"

    def test_scan_manifests_skips_unreadable(self, tmp_path):
        spec = small_spec()
        mdir, _ = manifest_mod.ensure_manifest(tmp_path, spec)
        rotten = tmp_path / "deadbeef" / "manifest"
        rotten.mkdir(parents=True)
        (rotten / "manifest.json").write_text("{not json")
        scanned = manifest_mod.scan_manifests(tmp_path)
        assert [entry[0] for entry in scanned] == [spec.spec_hash()]

    def test_manifest_status_cli(self, tmp_path, capsys):
        spec = small_spec()
        mdir, _ = manifest_mod.ensure_manifest(
            tmp_path, spec, chunk_size=2
        )
        manifest_mod.claim_chunk(mdir, 0, "ghost-worker")
        assert main([
            "manifest", "status", "--manifest-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert spec.spec_hash() in out
        assert "ghost-worker" in out

    def test_manifest_status_cli_json(self, tmp_path, capsys):
        spec = small_spec()
        manifest_mod.ensure_manifest(tmp_path, spec, chunk_size=2)
        assert main([
            "manifest", "status", "--manifest-dir", str(tmp_path),
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["spec_hash"] == spec.spec_hash()
        assert payload[0]["done"] == 0

    def test_manifest_status_cli_without_manifests(
        self, tmp_path, capsys
    ):
        assert main([
            "manifest", "status", "--manifest-dir", str(tmp_path),
        ]) == 2
        assert "error" in capsys.readouterr().out

    def test_stuck_foreign_claim_times_out(self, tmp_path):
        spec = small_spec(sizes=(4,))
        mdir, _ = manifest_mod.ensure_manifest(
            tmp_path, spec, chunk_size=16
        )
        # Another (crashed) worker holds the only chunk forever.
        assert manifest_mod.claim_chunk(mdir, 0, "ghost")
        with pytest.raises(RuntimeError, match="timed out"):
            run_experiment(
                spec,
                backend="manifest",
                store=tmp_path,
                backend_options={
                    "chunk_size": 16,
                    "timeout": 0.05,
                    "poll_interval": 0.01,
                },
            )

    def test_captured_failures_are_retried_not_replayed(
        self, tmp_path, monkeypatch
    ):
        # Size 2 is infeasible for the ring family.  The failed
        # trial's chunk result must not be served on the next run —
        # failures re-run, exactly as with the result store.
        spec = small_spec(sizes=(2, 4))
        options = {"chunk_size": 1}
        first = run_experiment(
            spec, backend="manifest", store=tmp_path,
            backend_options=options,
        )
        assert first.failed == 1
        executions: list[int] = []
        original = manifest_mod.execute_chunk

        def counting(spec_hash, keys, by_key, provider):
            executions.append(len(keys))
            return original(spec_hash, keys, by_key, provider)

        monkeypatch.setattr(manifest_mod, "execute_chunk", counting)
        second = run_experiment(
            spec, backend="manifest", store=tmp_path,
            backend_options=options,
        )
        assert second.failed == 1
        assert second.cached == 1  # the ok trial came from the store
        assert executions == [1]  # only the failed chunk re-ran
        assert first.canonical_json() == second.canonical_json()

    def test_sweep_cli_manifest_without_cache_is_an_error(self, capsys):
        assert main([
            "sweep", "--sizes", "4", "--backend", "manifest",
            "--no-cache", "--quiet",
        ]) == 2
        assert "error" in capsys.readouterr().out

    def test_engine_joins_results_of_other_workers(self, tmp_path):
        # Simulate a foreign worker by pre-executing chunk 0 out of
        # band: the engine must claim the rest and still return the
        # complete, byte-identical record set.
        from repro.explore.uxs import UXSProvider

        spec = small_spec(sizes=(4, 5), seeds=(0, 1))
        mdir, payload = manifest_mod.ensure_manifest(
            tmp_path, spec, chunk_size=1
        )
        by_key = {t.key: t for t in spec.trials()}
        assert manifest_mod.claim_chunk(mdir, 0, "foreign")
        records = manifest_mod.execute_chunk(
            payload["spec_hash"], payload["chunks"][0], by_key,
            UXSProvider(),
        )
        manifest_mod.write_chunk_result(
            mdir, 0, payload["spec_hash"], records
        )
        result = run_experiment(
            spec, backend="manifest", store=tmp_path,
            backend_options={"chunk_size": 1, "timeout": 5.0},
        )
        reference = run_experiment(spec, workers=1)
        assert result.canonical_json() == reference.canonical_json()
        # Records collected from the foreign worker's chunk must not
        # count as simulated by this invocation.
        assert result.executed == len(spec.trials()) - 1

    def test_chunk_stolen_while_waiting_is_observable(
        self, tmp_path, monkeypatch
    ):
        # A ghost holds fresh claims on every chunk, so the engine's
        # first claim loop finds nothing and it starts waiting; each
        # poll sleep then ages the ghost's claims past the steal TTL.
        # The chunks it steals while waiting must be announced and
        # counted exactly like chunks claimed up front.
        spec = small_spec(sizes=(4, 5), seeds=(0, 1))
        mdir, payload = manifest_mod.ensure_manifest(
            tmp_path, spec, chunk_size=1
        )
        n_chunks = len(payload["chunks"])
        for chunk_id in range(n_chunks):
            assert manifest_mod.claim_chunk(mdir, chunk_id, "ghost")
        skew = [0.0]

        class AgingClock:
            monotonic = staticmethod(time.monotonic)

            @staticmethod
            def time():
                return time.time() + skew[0]

            @staticmethod
            def sleep(_seconds):
                skew[0] += 60.0

        monkeypatch.setattr(manifest_mod, "time", AgingClock)
        events = ListProcessor()
        reg = metrics_registry.Registry()
        with attached(events), metrics_registry.attached(reg):
            result = run_experiment(
                spec, backend="manifest", store=tmp_path,
                backend_options={
                    "chunk_size": 1, "steal_ttl": 5.0,
                    "poll_interval": 0.0, "timeout": 5.0,
                },
            )
        assert result.executed == len(spec.trials())
        assert reg.counter("runner.manifest.chunks.stolen").value == n_chunks
        claimed = events.of_type(BackendChunkClaimed)
        assert sorted(e.chunk for e in claimed) == list(range(n_chunks))
        assert reg.counter(
            "runner.backend.records", backend="manifest"
        ).value == len(spec.trials())


class TestWorkerMergeCLI:
    SPEC_ARGS = [
        "--sizes", "4,5,6", "--seeds", "0,1",
        "--wake", "simultaneous,random:10",
        "--placement", "spread,random",
    ]

    def test_two_workers_merge_to_serial_bytes(self, tmp_path, capsys):
        shared = str(tmp_path / "shared")
        assert main([
            "worker", *self.SPEC_ARGS,
            "--manifest-dir", shared,
            "--cache-dir", str(tmp_path / "store-a"),
            "--worker-id", "A", "--chunk-size", "4",
            "--max-chunks", "2", "--quiet",
        ]) == 0
        assert main([
            "worker", *self.SPEC_ARGS,
            "--manifest-dir", shared,
            "--cache-dir", str(tmp_path / "store-b"),
            "--worker-id", "B", "--chunk-size", "4", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "worker A: claimed 2 chunk(s)" in out
        assert "6/6 chunks done" in out
        assert main([
            "merge", "--into", str(tmp_path / "merged"),
            str(tmp_path / "store-a"), str(tmp_path / "store-b"),
        ]) == 0
        assert main([
            "sweep", *self.SPEC_ARGS, "--quiet",
            "--cache-dir", str(tmp_path / "reference"),
        ]) == 0
        merged = {
            p.relative_to(tmp_path / "merged"): p.read_bytes()
            for p in sorted((tmp_path / "merged").rglob("*.json"))
        }
        reference = {
            p.relative_to(tmp_path / "reference"): p.read_bytes()
            for p in sorted((tmp_path / "reference").rglob("*.json"))
        }
        assert merged == reference
        assert merged  # non-empty store

    def test_worker_resumes_partially_drained_manifest(self, tmp_path):
        # Worker A dies after one chunk; a re-invoked worker (same
        # store) claims the remainder — nothing is executed twice.
        shared = str(tmp_path / "shared")
        common = [
            "worker", "--sizes", "4,5", "--seeds", "0,1",
            "--manifest-dir", shared,
            "--cache-dir", str(tmp_path / "store"),
            "--chunk-size", "1", "--quiet",
        ]
        assert main(common + ["--max-chunks", "1"]) == 0
        assert main(common) == 0
        from repro.runner import ResultStore

        spec = ExperimentSpec(
            algorithm="gather_known", family="ring", sizes=(4, 5),
            label_sets=((1, 2),), seeds=(0, 1),
        )
        assert len(ResultStore(tmp_path / "store").load(spec)) == 4

    def test_worker_bad_args_exit_2(self, capsys):
        assert main(["worker", "--chunk-size", "0"]) == 2
        assert "error" in capsys.readouterr().out

    def test_merge_without_sources_exit_2(self, tmp_path, capsys):
        assert main([
            "merge", "--into", str(tmp_path / "merged"),
            str(tmp_path / "empty"),
        ]) == 2
        assert "error" in capsys.readouterr().out


class TestSweepBackendCLI:
    def test_sweep_backend_flag(self, tmp_path, capsys):
        assert main([
            "sweep", "--sizes", "4,5", "--backend", "pipelined",
            "--workers", "2", "--cache-dir", str(tmp_path / "p"),
            "--quiet",
        ]) == 0
        assert main([
            "sweep", "--sizes", "4,5", "--backend", "serial",
            "--cache-dir", str(tmp_path / "s"), "--quiet",
        ]) == 0
        capsys.readouterr()
        pipelined = {
            p.relative_to(tmp_path / "p"): p.read_bytes()
            for p in sorted((tmp_path / "p").rglob("*.json"))
        }
        serial = {
            p.relative_to(tmp_path / "s"): p.read_bytes()
            for p in sorted((tmp_path / "s").rglob("*.json"))
        }
        assert pipelined == serial

    def test_progress_reports_throughput_and_eta(self, tmp_path, capsys):
        assert main([
            "sweep", "--sizes", "4,5",
            "--cache-dir", str(tmp_path),
        ]) == 0
        captured = capsys.readouterr()
        # Progress lines render on stderr (via the console event
        # processor); stdout keeps the table and summary.
        progress = [
            line for line in captured.err.splitlines()
            if "trials/s" in line
        ]
        assert any("eta" in line for line in progress)
        # The summary line carries throughput and elapsed time too.
        assert any(
            line.startswith("trials:") and "trials/s" in line
            for line in captured.out.splitlines()
        )
        # A fully-cached re-run has no simulated trials: cached lines
        # stay rate-free and the summary omits the throughput suffix.
        assert main([
            "sweep", "--sizes", "4,5",
            "--cache-dir", str(tmp_path),
        ]) == 0
        rerun = capsys.readouterr()
        assert "simulated: 0" in rerun.out
        assert "trials/s" not in rerun.out
        assert "trials/s" not in rerun.err


class TestClaimTakeover:
    def _age(self, mdir, chunk_id, seconds):
        path = mdir / "claims" / f"chunk-{chunk_id:04d}.claim"
        past = path.stat().st_mtime - seconds
        os.utime(path, (past, past))

    def test_fresh_claim_is_not_stealable(self, tmp_path):
        spec = small_spec()
        mdir, _ = manifest_mod.ensure_manifest(tmp_path, spec)
        assert manifest_mod.claim_chunk(mdir, 0, "alice")
        assert manifest_mod.steal_claim(mdir, 0, "bob", ttl=300) is None

    def test_expired_claim_is_taken_over_with_bumped_generation(
        self, tmp_path
    ):
        spec = small_spec()
        mdir, _ = manifest_mod.ensure_manifest(tmp_path, spec)
        assert manifest_mod.claim_chunk(mdir, 0, "alice") == "alice#0"
        self._age(mdir, 0, seconds=60)
        token = manifest_mod.steal_claim(mdir, 0, "bob", ttl=5)
        assert token == "bob#1"
        claim = manifest_mod.read_claim(mdir, 0)
        assert claim["worker"] == "bob"
        assert claim["generation"] == 1
        # A third worker can dethrone the thief once *its* claim ages.
        self._age(mdir, 0, seconds=60)
        assert manifest_mod.steal_claim(mdir, 0, "carol", ttl=5) == "carol#2"

    def test_skewed_claim_is_never_stolen(self, tmp_path):
        # A claim stamped by a clock running ahead of ours has a
        # negative raw age; the PR 6 clamp makes its age 0, so even a
        # zero TTL cannot justify a takeover.
        spec = small_spec()
        mdir, _ = manifest_mod.ensure_manifest(tmp_path, spec)
        assert manifest_mod.claim_chunk(mdir, 0, "alice")
        path = mdir / "claims" / "chunk-0000.claim"
        future = path.stat().st_mtime + 3600
        os.utime(path, (future, future))
        assert manifest_mod.steal_claim(mdir, 0, "bob", ttl=0) is None

    def test_dethroned_workers_late_write_is_discarded(self, tmp_path):
        spec = small_spec()
        mdir, payload = manifest_mod.ensure_manifest(tmp_path, spec)
        spec_hash = payload["spec_hash"]
        records = [{"key": "k", "ok": True, "metrics": {}}]
        token_a = manifest_mod.claim_chunk(mdir, 0, "alice")
        self._age(mdir, 0, seconds=60)
        token_b = manifest_mod.steal_claim(mdir, 0, "bob", ttl=5)
        # Alice (presumed dead) wakes up and writes under her old
        # token: the result must read as absent, not double-merge.
        manifest_mod.write_chunk_result(
            mdir, 0, spec_hash, records, token=token_a
        )
        assert manifest_mod.read_chunk_result(mdir, 0) is None
        # Bob's write under the live token is honored.
        manifest_mod.write_chunk_result(
            mdir, 0, spec_hash, records, token=token_b
        )
        assert manifest_mod.read_chunk_result(mdir, 0) == records

    def test_status_reports_dethroned_late_write_as_in_flight(
        self, tmp_path
    ):
        # Alice's late write is discarded by the claim loop, so the
        # status tools must not count it as done: bob's chunk is
        # still in flight (a drained-queue check must not pass).
        spec = small_spec()
        mdir, payload = manifest_mod.ensure_manifest(tmp_path, spec)
        token_a = manifest_mod.claim_chunk(mdir, 0, "alice")
        self._age(mdir, 0, seconds=60)
        assert manifest_mod.steal_claim(mdir, 0, "bob", ttl=5)
        manifest_mod.write_chunk_result(
            mdir, 0, payload["spec_hash"],
            [{"key": "k", "ok": True, "metrics": {}}], token=token_a,
        )
        status = manifest_mod.detailed_status(mdir, payload)
        assert status["done"] == 0
        assert [(c["chunk"], c["worker"]) for c in status["in_flight"]] == [
            (0, "bob")
        ]
        assert manifest_mod.manifest_status(mdir, payload)["done"] == 0

    def test_tokenless_results_stay_valid(self, tmp_path):
        # Pre-takeover manifests (and engine-internal execution) write
        # results without tokens; they must never be invalidated.
        spec = small_spec()
        mdir, payload = manifest_mod.ensure_manifest(tmp_path, spec)
        records = [{"key": "k", "ok": True, "metrics": {}}]
        manifest_mod.claim_chunk(mdir, 0, "alice")
        manifest_mod.write_chunk_result(
            mdir, 0, payload["spec_hash"], records
        )
        assert manifest_mod.read_chunk_result(mdir, 0) == records

    def test_claim_next_steals_only_with_ttl(self, tmp_path):
        spec = small_spec()
        mdir, payload = manifest_mod.ensure_manifest(
            tmp_path, spec, chunk_size=1
        )
        n = len(payload["chunks"])
        for chunk_id in range(n):
            assert manifest_mod.claim_chunk(mdir, chunk_id, "ghost")
            self._age(mdir, chunk_id, seconds=60)
        assert manifest_mod.claim_next(mdir, n, "bob") is None
        claim = manifest_mod.claim_next(mdir, n, "bob", steal_ttl=5)
        assert claim == (0, "bob#1", True)

    def test_worker_steal_cli_finishes_and_matches_serial(self, tmp_path):
        # Worker A claims one chunk and "crashes" before executing the
        # rest (simulated by --max-chunks); a ghost claim pins another
        # chunk.  Worker B with --steal must drain everything and the
        # merged store must byte-equal a serial sweep.
        shared = tmp_path / "shared"
        spec_args = ["--sizes", "4,5", "--seeds", "0,1"]
        assert main([
            "worker", *spec_args,
            "--manifest-dir", str(shared),
            "--cache-dir", str(tmp_path / "store-a"),
            "--worker-id", "A", "--chunk-size", "1",
            "--max-chunks", "1", "--quiet",
        ]) == 0
        spec = ExperimentSpec(
            algorithm="gather_known", family="ring", sizes=(4, 5),
            label_sets=((1, 2),), seeds=(0, 1),
        )
        mdir = manifest_mod.manifest_dir(shared, spec.spec_hash())
        stuck = None
        for chunk_id in range(4):
            if manifest_mod.claim_chunk(mdir, chunk_id, "ghost"):
                stuck = chunk_id
                break
        assert stuck is not None
        self._age(mdir, stuck, seconds=60)
        assert main([
            "worker", *spec_args,
            "--manifest-dir", str(shared),
            "--cache-dir", str(tmp_path / "store-b"),
            "--worker-id", "B", "--chunk-size", "1",
            "--steal", "--claim-ttl", "5", "--poll-interval", "0.05",
            "--quiet",
        ]) == 0
        assert main([
            "merge", "--into", str(tmp_path / "merged"),
            str(tmp_path / "store-a"), str(tmp_path / "store-b"),
        ]) == 0
        assert main([
            "sweep", *spec_args, "--quiet",
            "--cache-dir", str(tmp_path / "reference"),
        ]) == 0
        merged = {
            p.relative_to(tmp_path / "merged"): p.read_bytes()
            for p in sorted((tmp_path / "merged").rglob("*.json"))
        }
        reference = {
            p.relative_to(tmp_path / "reference"): p.read_bytes()
            for p in sorted((tmp_path / "reference").rglob("*.json"))
        }
        assert merged == reference and merged

    def test_worker_claim_ttl_without_steal_exit_2(self, capsys):
        assert main([
            "worker", "--sizes", "4", "--claim-ttl", "5",
            "--manifest-dir", "unused",
        ]) == 2
        assert "--steal" in capsys.readouterr().out

    def test_worker_bad_chunk_size_word_exit_2(self, capsys):
        assert main([
            "worker", "--sizes", "4", "--chunk-size", "many",
            "--manifest-dir", "unused",
        ]) == 2
        assert "auto" in capsys.readouterr().out


def _observe(run) -> tuple[list[int], dict[str, int]]:
    """The ``BackendChunkClaimed`` chunk sequence and manifest chunk
    counters of one ``run()``."""
    events = ListProcessor()
    reg = metrics_registry.Registry()
    with attached(events), metrics_registry.attached(reg):
        run()
    return (
        [e.chunk for e in events.of_type(BackendChunkClaimed)],
        {
            name: reg.counter(f"runner.manifest.chunks.{name}").value
            for name in ("claimed", "stolen", "collected")
        },
    )


class TestOneClaimLoop:
    """``python -m repro worker`` and ``--backend manifest`` run the
    same claim loop, so they agree on events, counters and errors."""

    def _lay_out(self, root, spec, foreign_chunk):
        """A chunk-size-1 manifest with one chunk already executed by
        a foreign worker."""
        from repro.explore.uxs import UXSProvider

        mdir, payload = manifest_mod.ensure_manifest(
            root, spec, chunk_size=1
        )
        token = manifest_mod.claim_chunk(mdir, foreign_chunk, "foreign")
        records = manifest_mod.execute_chunk(
            payload["spec_hash"], payload["chunks"][foreign_chunk],
            {t.key: t for t in spec.trials()}, UXSProvider(),
        )
        manifest_mod.write_chunk_result(
            mdir, foreign_chunk, payload["spec_hash"], records, token=token
        )
        return mdir

    def test_worker_and_backend_emit_identical_streams(self, tmp_path):
        spec = cli_spec()
        self._lay_out(tmp_path / "w", spec, foreign_chunk=1)
        self._lay_out(tmp_path / "e", spec, foreign_chunk=1)
        worker = _observe(lambda: main([
            "worker", *cli_spec_args(spec),
            "--manifest-dir", str(tmp_path / "w"),
            "--cache-dir", str(tmp_path / "w-store"), "--quiet",
        ]))
        engine = _observe(lambda: run_experiment(
            spec, backend="manifest", store=tmp_path / "e",
            backend_options={"chunk_size": 1, "timeout": 5.0},
        ))
        assert worker == engine
        assert worker == (
            [0, 2, 3], {"claimed": 3, "stolen": 0, "collected": 1}
        )

    def test_steal_worker_times_out_on_unstealable_claim(
        self, tmp_path, monkeypatch, capsys
    ):
        # A claim stamped by a clock far ahead of ours is never stale
        # (the skew clamp), so a --steal worker can neither steal it
        # nor see its result: it must give up with exit 1 once the
        # idle timeout passes, not poll forever.
        spec = cli_spec(sizes=(4,), seeds=(0,))
        mdir, _ = manifest_mod.ensure_manifest(
            tmp_path / "shared", spec, chunk_size=1
        )
        assert manifest_mod.claim_chunk(mdir, 0, "ahead")
        claim_path = mdir / "claims" / "chunk-0000.claim"
        future = claim_path.stat().st_mtime + 3600
        os.utime(claim_path, (future, future))
        idle = [0.0]

        class IdleClock:
            time = staticmethod(time.time)

            @staticmethod
            def monotonic():
                return time.monotonic() + idle[0]

            @staticmethod
            def sleep(_seconds):
                idle[0] += 120.0

        monkeypatch.setattr(manifest_mod, "time", IdleClock)
        assert main([
            "worker", *cli_spec_args(spec),
            "--manifest-dir", str(tmp_path / "shared"),
            "--cache-dir", str(tmp_path / "store"),
            "--steal", "--claim-ttl", "0", "--quiet",
        ]) == 1
        assert "made no progress" in capsys.readouterr().out
        assert manifest_mod.read_claim(mdir, 0)["worker"] == "ahead"

    @pytest.mark.parametrize("edit", ["rename", "drop"])
    def test_stale_manifest_rejected_at_attach(
        self, tmp_path, capsys, edit
    ):
        spec = cli_spec()
        for root in (tmp_path / "w", tmp_path / "e"):
            mdir, payload = manifest_mod.ensure_manifest(
                root, spec, chunk_size=2
            )
            if edit == "rename":
                payload["chunks"][0][0] += "-renamed"
            else:
                payload["chunks"][-1].pop()
            (mdir / "manifest.json").write_text(json.dumps(payload))
        assert main([
            "worker", *cli_spec_args(spec),
            "--manifest-dir", str(tmp_path / "w"),
            "--cache-dir", str(tmp_path / "w-store"), "--quiet",
        ]) == 2
        assert "stale" in capsys.readouterr().out
        with pytest.raises(manifest_mod.ManifestError, match="stale"):
            run_experiment(
                spec, backend="manifest", store=tmp_path / "e",
                backend_options={"chunk_size": 2},
            )
        assert not list(tmp_path.rglob("*.claim"))


def _worker_process(argv: list[str]) -> None:
    sys.exit(main(argv))


class TestClaimStress:
    def test_concurrent_worker_processes_claim_each_chunk_once(
        self, tmp_path
    ):
        from repro.metrics import snapshot as snapshot_mod
        from repro.runner.backends.process import pool_context

        spec = cli_spec(seeds=tuple(range(12)))
        shared = tmp_path / "shared"
        mp = pool_context()
        procs = [
            mp.Process(target=_worker_process, args=([
                "worker", *cli_spec_args(spec),
                "--manifest-dir", str(shared),
                "--cache-dir", str(tmp_path / f"store-{i}"),
                "--worker-id", f"w{i}", "--chunk-size", "1", "--quiet",
                "--metrics", str(tmp_path / f"w{i}.json"),
            ],))
            for i in range(4)
        ]
        for proc in procs:
            proc.start()
        try:
            for proc in procs:
                proc.join(timeout=120)
            assert [proc.exitcode for proc in procs] == [0] * 4
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
        mdir = manifest_mod.manifest_dir(shared, spec.spec_hash())
        n_chunks = len(spec.trials())
        assert n_chunks == 24
        assert len(list((mdir / "results").iterdir())) == n_chunks
        for chunk_id in range(n_chunks):
            assert manifest_mod.read_chunk_result(mdir, chunk_id)
            assert manifest_mod.read_claim(mdir, chunk_id)["generation"] == 0
        snapshot, count = snapshot_mod.fold_sidecars([shared])
        assert count == 4
        assert sum(
            row["value"] for row in snapshot["series"]
            if row["name"] == "runner.manifest.chunks.claimed"
        ) == n_chunks
        assert main([
            "merge", "--into", str(tmp_path / "merged"),
            *(str(tmp_path / f"store-{i}") for i in range(4)),
        ]) == 0
        assert main([
            "sweep", *cli_spec_args(spec), "--quiet",
            "--cache-dir", str(tmp_path / "reference"),
        ]) == 0
        merged = {
            p.relative_to(tmp_path / "merged"): p.read_bytes()
            for p in sorted((tmp_path / "merged").rglob("*.json"))
        }
        reference = {
            p.relative_to(tmp_path / "reference"): p.read_bytes()
            for p in sorted((tmp_path / "reference").rglob("*.json"))
        }
        assert merged == reference and merged


class TestChunkPlanning:
    def test_cost_estimate_orders_by_size_and_weights_unknown(self):
        trials = small_spec(sizes=(4, 5)).trials()
        costs = [manifest_mod.estimate_trial_cost(t) for t in trials]
        assert costs == sorted(costs)
        unknown = small_spec(
            algorithm="gather_unknown", sizes=(4,)
        ).trials()[0]
        known = trials[0]
        assert manifest_mod.estimate_trial_cost(unknown) == (
            manifest_mod.estimate_trial_cost(known) * 512
        )

    def test_heuristic_planning_clamps_to_min_chunks(self):
        # Cheap small-graph trials would fit hundreds per chunk; the
        # planner keeps at least _AUTO_CHUNK_MIN_CHUNKS chunks so a
        # preempted fleet can redistribute.
        spec = small_spec(sizes=(4, 5), seeds=tuple(range(8)))
        total = len(spec.trials())
        size = manifest_mod.plan_chunk_size(spec)
        assert size == total // manifest_mod._AUTO_CHUNK_MIN_CHUNKS

    def test_heuristic_planning_shrinks_for_expensive_algorithms(self):
        spec = small_spec(
            algorithm="gather_unknown", sizes=(4, 5),
            seeds=tuple(range(8)),
        )
        assert manifest_mod.plan_chunk_size(spec) == 1

    def test_measured_seconds_refine_chunk_size(self, tmp_path):
        from repro.metrics.registry import Registry

        spec = small_spec(sizes=(4, 5), seeds=tuple(range(20)))
        reg = Registry(source="worker-A")
        for _ in range(4):
            reg.histogram("runner.trial.wall_seconds").observe(10.0)
        sidecar_dir = tmp_path / spec.spec_hash() / "manifest" / "metrics"
        sidecar_dir.mkdir(parents=True)
        (sidecar_dir / "A.json").write_text(
            json.dumps(reg.snapshot())
        )
        # 30s target / 10s measured mean -> 3 trials per chunk.
        assert manifest_mod.plan_chunk_size(spec, tmp_path) == 3
        # Without the sidecar the heuristic would have said min-chunks.
        assert manifest_mod.plan_chunk_size(spec) == 10

    def test_ensure_manifest_auto_sizes_chunks(self, tmp_path):
        spec = small_spec(sizes=(4, 5), seeds=tuple(range(8)))
        _, payload = manifest_mod.ensure_manifest(
            tmp_path, spec, chunk_size=None
        )
        assert payload["chunk_size"] == manifest_mod.plan_chunk_size(spec)
