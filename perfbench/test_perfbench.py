"""Tests of the benchmark's own code (run with the repo's pytest)."""

from __future__ import annotations

import json
import pathlib
import re
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.span("runner.workload", algorithm="gather_known"):
        clock.now = 1.0
        with tracer.span("runner.trial"):
            clock.now = 2.0
            with tracer.span("sim.run"):
                clock.now = 5.0
            clock.now = 5.5
        with tracer.span("store.save"):
            clock.now = 6.0
        clock.now = 7.0
    spans = tracer.spans
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    # root 7.0 - (4.5 + 0.5); trial 4.5 - 3.0; the leaves keep theirs
    assert tracing.self_times(spans) == [2.0, 1.5, 3.0, 0.5]
    assert sum(tracing.self_times(spans)) == spans[0].duration
    metrics = layers.from_spans(spans)
    assert metrics["store.save_s"] == 0.5
    assert metrics["sim.run_s.gather_known"] == 3.0
    assert metrics["runner.self_s"] == 3.5
    assert metrics["runner.trial_s.max"] == 4.5


def test_trials_a_batch_ran_itself_share_its_remaining_time():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.span("runner.batch", trials=3):
        with tracer.span("runner.trial"):
            clock.now = 1.0
        clock.now = 5.0
    assert sorted(layers.trial_times(tracer.spans)) == [1.0, 2.0, 2.0]


def test_wrappers_install_and_uninstall_cleanly():
    from repro.runner import TrialSpec, execute_trial
    from repro.runner.trial import FAMILIES
    from repro.sim.scheduler import Simulation

    families = dict(FAMILIES)
    simulation_run = Simulation.run
    trial = TrialSpec(
        key="t", algorithm="gather_known", family="ring", n=4,
        n_bound=4, labels=(1, 2), messages=None, seed=0, graph_seed=0,
        placement="default",
    )
    tracer = tracing.Tracer()
    with tracing.traced(tracer) as installation:
        assert installation.count > len(families)
        assert Simulation.run is not simulation_run
        import repro.runner as runner

        plain = runner.execute_trial(trial).record()
    names = {s.name for s in tracer.spans}
    assert {"runner.trial", "graphs.build", "explore.uxs_verify",
            "core.prepare", "sim.run"} <= names
    assert tracing.find_leaks() == []
    assert Simulation.run is simulation_run
    assert all(FAMILIES[k] is v for k, v in families.items())
    recorded = len(tracer.spans)
    assert execute_trial(trial).record() == plain
    assert len(tracer.spans) == recorded


def test_install_undoes_its_patches_when_it_fails(monkeypatch):
    monkeypatch.setattr(
        tracing, "_METHODS", tracing._METHODS + (
            ("repro.runner.store", "ResultStore", "no_such_method", "x.y"),
        )
    )
    try:
        tracing.install(tracing.Tracer())
    except KeyError:
        pass
    else:  # pragma: no cover - the bad target must raise
        raise AssertionError("install accepted a missing method")
    assert tracing.find_leaks() == []


def test_every_metric_name_is_well_formed():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["end_to_end"]]
    names += [m["name"] for m in declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert set(run.END_TO_END_UNITS) == {
        m["name"] for m in declared["end_to_end"]
    }
    produced = {
        **layers.from_spans([]),
        **layers.from_registry({}),
        **layers.from_records([]),
    }
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(produced) <= set(per_layer)
    for name, unit in per_layer.items():
        assert run.unit_of(name) == unit, name


def test_seed_changes_the_grid_but_not_its_shape():
    for name in workloads.NAMES:
        base = workloads.build(name, workloads.DEFAULT_SEED)
        other = workloads.build(name, workloads.DEFAULT_SEED + 1)
        assert workloads.grid_shape(base) == workloads.grid_shape(other)
        for a, b in zip(base.jobs, other.jobs):
            if a.kind == "search":
                assert a.spec.seed != b.spec.seed
            else:
                keys_a = {t.key for t in a.spec.trials()}
                keys_b = {t.key for t in b.spec.trials()}
                assert keys_a.isdisjoint(keys_b), a.name
        assert workloads.grid_shape(
            workloads.build(name, workloads.DEFAULT_SEED)
        ) == workloads.grid_shape(base)


def test_only_the_known_failure_class_is_tolerated():
    known = {
        "key": "k", "ok": False, "algorithm": "gather_unknown",
        "wake_schedule": "random:20",
        "error": "HypothesisBudgetError: agent 3 exceeded 3 hypotheses",
    }
    outcome = workloads.Outcome(records=[known], attempted=1, failed=1)
    assert workloads.check({"job": outcome}, None) == []
    other = dict(known, error="RuntimeError: boom")
    outcome = workloads.Outcome(records=[other], attempted=1, failed=1)
    assert workloads.check({"job": outcome}, None)
