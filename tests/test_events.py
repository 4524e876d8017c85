"""The typed event stream: emission, processors, traces, CLI.

Pins the observability contract of this PR: what the scheduler and
runner emit (and in which order), that an unobserved run emits
nothing and stays byte-identical, and that the JSONL trace
round-trips through ``python -m repro trace``.
"""

from __future__ import annotations

import io
import json
import threading

from repro.core import run_gather_known
from repro.events import (
    SCHEMA_VERSION,
    AgentMove,
    EventDispatcher,
    JsonlTraceProcessor,
    ListProcessor,
    RoundAdvance,
    SimulationEnd,
    SimulationStart,
    SweepProgress,
    TrialEnd,
    TrialStart,
    WalkSegment,
    WatchFired,
    from_payload,
    to_payload,
)
from repro.events import stream as event_stream
from repro.events.processors import ConsoleProgressProcessor
from repro.events.types import EdgeBlocked
from repro.events.replay import extract_scenes, load_trace, round_trip
from repro.events.schema import validate_payload, validate_trace
from repro.graphs import ring
from repro.sim import AgentSpec, Simulation


def run_collected(fn, *args, **kwargs):
    """Run ``fn`` with a ListProcessor attached; return (result, events)."""
    collector = ListProcessor()
    with event_stream.attached(collector):
        result = fn(*args, **kwargs)
    return result, collector.events


class TestEmissionOrder:
    """Exact event order for a seeded ``gather_known`` ring trial."""

    def gather(self):
        return run_collected(
            run_gather_known, ring(6, seed=42), [5, 9, 12], 8
        )

    def test_stream_brackets_the_simulation(self):
        report, events = self.gather()
        assert isinstance(events[0], SimulationStart)
        assert isinstance(events[-1], SimulationEnd)
        assert sum(isinstance(e, SimulationStart) for e in events) == 1
        assert sum(isinstance(e, SimulationEnd) for e in events) == 1
        end = events[-1]
        assert end.final_round == report.round
        assert end.events == report.events
        assert end.total_moves == report.total_moves
        assert end.gathered is True

    def test_start_carries_topology_and_agents(self):
        _report, events = self.gather()
        start = events[0]
        assert start.n == 6
        assert len(start.edges) == 6  # a ring has n edges
        assert [a[0] for a in start.agents] == [5, 9, 12]

    def test_round_advance_is_a_commit_marker(self):
        # Every in-round event is emitted before the RoundAdvance that
        # commits its round, and committed rounds strictly increase.
        _report, events = self.gather()
        committed = [e.round for e in events if isinstance(e, RoundAdvance)]
        assert committed == sorted(set(committed))
        last = -1
        for event in events:
            if isinstance(event, RoundAdvance):
                last = event.round
            elif isinstance(event, (WalkSegment, AgentMove)):
                assert event.round > last
        assert committed  # the run advanced at least one round

    def test_walk_segment_precedes_its_watch(self):
        # A watch carried through a batched walk is observed at the
        # segment's final round: the WalkSegment event comes first,
        # then the WatchFired at ``round + length``.
        _report, events = self.gather()
        fired = [e for e in events if isinstance(e, WatchFired)]
        assert fired
        for watch in fired:
            for prior in events:
                if prior is watch:
                    break
                if (
                    isinstance(prior, WalkSegment)
                    and prior.round + prior.length == watch.round
                    and watch.agent in prior.walkers
                ):
                    assert watch.node == prior.routes[
                        prior.walkers.index(watch.agent)
                    ][-1]
                    break

    def test_stream_is_deterministic(self):
        _r1, events1 = self.gather()
        _r2, events2 = self.gather()
        assert [to_payload(e) for e in events1] == [
            to_payload(e) for e in events2
        ]


class TestZeroCostWhenUnobserved:
    def test_no_processor_emits_nothing(self):
        assert event_stream.current() is None
        sim_events: list = []

        class Spy:
            def on_event(self, event):  # pragma: no cover - must not run
                sim_events.append(event)

            def shutdown(self):
                pass

        report = run_gather_known(ring(6, seed=42), [5, 9, 12], 8)
        assert sim_events == []
        assert report.leader is not None

    def test_unobserved_simulation_has_no_dispatcher(self):
        graph = ring(4, seed=1)
        sim = Simulation(graph, [AgentSpec(1, 0, None), AgentSpec(2, 2, None)])
        assert sim._emit is None

    def test_results_identical_with_and_without_processor(self):
        plain = run_gather_known(ring(6, seed=42), [5, 9, 12], 8)
        observed, events = run_collected(
            run_gather_known, ring(6, seed=42), [5, 9, 12], 8
        )
        assert events
        assert plain.round == observed.round
        assert plain.node == observed.node
        assert plain.leader == observed.leader
        assert plain.events == observed.events
        assert plain.total_moves == observed.total_moves


class TestMoveLogParity:
    def test_events_expand_to_the_trace_move_log(self):
        # AgentMove rows plus per-edge expansion of WalkSegment routes
        # reproduce the trace-mode move_log exactly — the event stream
        # loses nothing to batching.
        from repro.core.runs import prepare_gather_known

        def traced_run():
            prepared = prepare_gather_known(ring(5, seed=7), [3, 8], 6)
            prepared.simulation.trace = True
            prepared.simulation.run()
            return prepared.simulation

        sim, events = run_collected(traced_run)
        expanded = []
        for event in events:
            if isinstance(event, AgentMove):
                expanded.append(
                    (event.round, event.agent, event.src, event.dst)
                )
            elif isinstance(event, WalkSegment):
                for w, agent in enumerate(event.walkers):
                    route = event.routes[w]
                    for j in range(event.length):
                        expanded.append(
                            (event.round + j, agent, route[j], route[j + 1])
                        )
        # Trace mode orders each round's expanded rows by agent index;
        # the event expansion interleaves per walker — sort both by
        # (round, agent) for a well-defined comparison.
        key = lambda row: (row[0], row[1])  # noqa: E731
        assert sorted(expanded, key=key) == sorted(sim.move_log, key=key)


class TestStallEvents:
    """Under ``ring-sweep`` dynamics blocked edges stall inside walk
    segments: every stall is still an ``EdgeBlocked``, and replay draws
    no move from a node to itself."""

    def test_stalls_are_edge_blocked_and_replay_skips_them(self):
        from repro.core.runs import prepare_gather_known
        from repro.sim.faults import make_dynamics

        def run():
            graph = ring(5, seed=7)
            prepared = prepare_gather_known(
                graph, [3, 8], 6,
                dynamics=make_dynamics("ring-sweep", graph),
            )
            prepared.simulation.run()
            return prepared.simulation

        sim, events = run_collected(run)
        blocked = [e for e in events if isinstance(e, EdgeBlocked)]
        assert len(blocked) == sim.edges_blocked > 0
        committed = -1  # every EdgeBlocked precedes its round's commit
        for event in events:
            if isinstance(event, RoundAdvance):
                committed = event.round
            elif isinstance(event, EdgeBlocked):
                assert event.round > committed
        stalled = 0  # segments with stalls, each followed by its EdgeBlocked
        for i, event in enumerate(events):
            if isinstance(event, WalkSegment):
                stalls = sum(
                    route[t] == route[t + 1]
                    for route in event.routes for t in range(event.length)
                )
                stalled += stalls > 0
                after = events[i + 1:i + 1 + stalls]
                assert all(isinstance(e, EdgeBlocked) for e in after)
        assert stalled
        (scene,) = extract_scenes(
            [to_payload(e) for e in events], max_frames=10**9
        )
        assert scene["frames"]
        assert all(
            src != dst for f in scene["frames"] for _a, src, dst in f["moves"]
        )


class TestDispatcher:
    def test_attached_composes_with_enclosing_scope(self):
        outer, inner = ListProcessor(), ListProcessor()
        with event_stream.attached(outer):
            with event_stream.attached(inner):
                event_stream.current().emit(RoundAdvance(round=1, resumes=0))
            # Only the newly attached processor is shut down on exit.
            assert inner.shutdown_called
            assert not outer.shutdown_called
            event_stream.current().emit(RoundAdvance(round=2, resumes=0))
        assert outer.shutdown_called
        assert event_stream.current() is None
        assert len(outer.events) == 2
        assert len(inner.events) == 1

    def test_attached_without_processors_is_a_noop(self):
        with event_stream.attached():
            assert event_stream.current() is None
        with event_stream.attached(None):
            assert event_stream.current() is None

    def test_dispatcher_preserves_processor_order(self):
        order = []

        class Tagger:
            def __init__(self, tag):
                self.tag = tag

            def on_event(self, event):
                order.append(self.tag)

            def shutdown(self):
                pass

        dispatcher = EventDispatcher([Tagger("a"), Tagger("b")])
        dispatcher.emit(RoundAdvance(round=0, resumes=0))
        assert order == ["a", "b"]


class TestTraceFile:
    def emit_sample(self, path):
        trace = JsonlTraceProcessor(path, source="test")
        with event_stream.attached(trace):
            run_gather_known(ring(5, seed=3), [1, 2], 5)
            event_stream.current().emit(
                TrialStart(key="k", algorithm="gather_known",
                           family="ring", n=5, seed=0)
            )
            event_stream.current().emit(
                TrialEnd(key="k", ok=True, error=None, rounds=1,
                         moves=2, events=3)
            )
        return trace

    def test_trace_validates_and_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace = self.emit_sample(path)
        report = validate_trace(path)
        assert report.ok, report.errors
        assert report.events == trace.lines
        header, payloads = load_trace(path)
        assert header["version"] == SCHEMA_VERSION
        assert round_trip(payloads) == len(payloads)

    def test_payload_codec_restores_tuples(self):
        event = WalkSegment(
            round=3, length=2, walkers=(0,), routes=((1, 2, 3),),
            observers=(),
        )
        payload = json.loads(json.dumps(to_payload(event)))
        assert from_payload(payload) == event

    def test_validate_payload_rejects_bad_shapes(self):
        good = to_payload(RoundAdvance(round=1, resumes=2))
        assert validate_payload(good) == []
        assert validate_payload({"type": "NoSuchEvent"})
        assert validate_payload({"type": "RoundAdvance", "round": 1})
        bad = dict(good)
        bad["round"] = "not-an-int"
        assert validate_payload(bad)

    def test_corrupt_trace_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        self.emit_sample(path)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        report = validate_trace(path)
        assert not report.ok
        assert any("line 3" in err for err in report.errors)


class TestTraceCLI:
    def run_cli(self, *argv):
        from repro.__main__ import main

        return main(["trace", *argv])

    def make_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace = JsonlTraceProcessor(path, source="test")
        with event_stream.attached(trace):
            run_gather_known(ring(4, seed=2), [1, 2], 4)
        return path

    def test_validate_replay_summary_schema(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        assert self.run_cli("validate", str(path)) == 0
        assert "ok" in capsys.readouterr().out
        assert self.run_cli("replay", str(path)) == 0
        assert "round-trip cleanly" in capsys.readouterr().out
        assert self.run_cli("summary", str(path), "--json") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["simulations"] == 1
        assert self.run_cli("schema") == 0
        schema = json.loads(capsys.readouterr().out)
        assert schema["version"] == SCHEMA_VERSION
        assert "WalkSegment" in schema["events"]

    def test_validate_fails_on_corrupt_trace(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type":"Bogus"}\n')
        assert self.run_cli("validate", str(path)) == 1
        assert "Bogus" in capsys.readouterr().out

    def test_replay_renders_html(self, tmp_path):
        path = self.make_trace(tmp_path)
        out = tmp_path / "replay.html"
        assert self.run_cli("replay", str(path), "--html", str(out)) == 0
        html = out.read_text()
        assert "__SCENES__" not in html
        assert "SimulationStart" not in html  # scenes are data, not types


class TestPacedWalkTrace:
    """Paced walks batched across agents emit exactly the per-step
    event stream: one ``AgentMove`` per edge and one ``RoundAdvance``
    per event round, with the same ``resumes``."""

    # sha256 of the trace the per-step code wrote for this sweep.
    SWEEP = [
        "sweep", "--algorithm", "gather_unknown", "--family", "edge",
        "--sizes", "2", "--seeds", "0,1",
        "--wake", "simultaneous,staggered:4", "--backend", "serial",
        "--quiet",
    ]
    SHA256 = (
        "48dc56fa0f93287344786413c0533ed4a6050e5daae7e8671c2c0ae7991fcd00"
    )

    def test_sweep_trace_is_pinned(self, tmp_path):
        import hashlib

        from repro.__main__ import main

        path = tmp_path / "t.jsonl"
        assert main([
            *self.SWEEP, "--cache-dir", str(tmp_path / "store"),
            "--events", str(path),
        ]) == 0
        data = path.read_bytes()
        assert data.count(b"\n") == 5355  # the header and 5354 events
        assert hashlib.sha256(data).hexdigest() == self.SHA256

    def test_batches_run_with_a_stream_attached(self):
        from repro.core import run_gather_unknown
        from repro.graphs import single_edge
        from repro.metrics import registry as metrics_registry

        reg = metrics_registry.Registry("t")
        with metrics_registry.attached(reg):
            report, events = run_collected(
                run_gather_unknown, single_edge(), [2, 3]
            )
        batches = [
            row["value"] for row in reg.snapshot()["series"]
            if row["name"] == "sim.paced.batches"
        ]
        assert batches and batches[0] > 0
        # Every edge is an AgentMove, except those of walk segments.
        moves = sum(isinstance(e, AgentMove) for e in events)
        segment_edges = sum(
            len(route) - 1
            for e in events if isinstance(e, WalkSegment)
            for route in e.routes
        )
        assert moves + segment_edges == report.total_moves


class TestConsoleProcessor:
    def test_progress_lines_are_line_atomic(self):
        stream = io.StringIO()
        console = ConsoleProgressProcessor(stream)
        workers = [
            threading.Thread(
                target=lambda tag=tag: [
                    console.note(f"{tag} {i}") for i in range(50)
                ]
            )
            for tag in ("alpha", "beta", "gamma")
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 150
        assert all(
            line.split()[0] in ("alpha", "beta", "gamma") for line in lines
        )

    def test_renders_sweep_progress_with_rate(self):
        stream = io.StringIO()
        console = ConsoleProgressProcessor(stream)
        console.on_event(SweepProgress(
            done=1, total=2, key="a", ok=True, cached=True,
        ))
        console.on_event(SweepProgress(
            done=2, total=2, key="b", ok=False, cached=False,
        ))
        lines = stream.getvalue().splitlines()
        assert lines[0] == "[1/2] a  cached"
        assert lines[1].startswith("[2/2] b  FAILED")

    def test_quiet_keeps_the_meter_ticking(self):
        stream = io.StringIO()
        console = ConsoleProgressProcessor(stream, quiet=True)
        console.on_event(SweepProgress(
            done=1, total=1, key="a", ok=True, cached=False,
        ))
        assert stream.getvalue() == ""
        assert console.meter.simulated == 1
        assert "trials/s" in console.summary()


class TestRunnerByteIdentity:
    def test_records_identical_with_processors_attached(self, tmp_path):
        from repro.runner import ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            algorithm="gather_known", family="ring", sizes=(4, 5),
            label_sets=((1, 2),), seeds=(0,),
        )
        plain = run_experiment(spec).canonical_json()
        observed, events = run_collected(run_experiment, spec)
        assert observed.canonical_json() == plain
        kinds = {type(e).__name__ for e in events}
        assert {"SweepStart", "TrialStart", "SimulationStart",
                "TrialEnd", "SweepEnd"} <= kinds


class TestSceneExtraction:
    """``extract_scenes`` on traces with watch events."""

    def gather_payloads(self):
        _report, events = run_collected(
            run_gather_known, ring(6, seed=42), [5, 9, 12], 8
        )
        return events, [to_payload(e) for e in events]

    def test_midsegment_watch_lands_on_expanded_frame(self):
        # A watch firing *inside* a batched walk targets a round that
        # has no AgentMove row of its own — its frame exists only
        # because WalkSegment routes expand to per-edge moves.  The
        # watch must attach to that expanded frame.
        payloads = [
            to_payload(
                SimulationStart(
                    n=4,
                    edges=((0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 3, 1)),
                    agents=((1, 0, None), (2, 3, None)),
                )
            ),
            to_payload(
                WalkSegment(
                    round=5, length=3, walkers=(0,),
                    routes=((0, 1, 2, 3),), observers=(),
                )
            ),
            to_payload(WatchFired(round=6, agent=1, node=2, count=2)),
            to_payload(
                SimulationEnd(
                    final_round=8, events=4, total_moves=3,
                    gathered=True,
                )
            ),
        ]
        (scene,) = extract_scenes(payloads)
        rounds = [f["round"] for f in scene["frames"]]
        assert rounds == ["5", "6", "7"]
        mid = scene["frames"][1]
        assert mid["moves"] == [[0, 1, 2]]
        assert mid["watches"] == [[1, 2]]
        assert scene["frames"][0]["watches"] == []
        assert scene["final_round"] == "8"

    def test_watch_on_unknown_round_is_dropped(self):
        # A watch whose round has no frame (nothing moved then) cannot
        # attach anywhere; it is silently skipped, not crashed on.
        # Seeded gather runs produce exactly this: the watch fires on
        # the arrival round *after* a segment's last departure row.
        events, payloads = self.gather_payloads()
        fired = [e for e in events if isinstance(e, WatchFired)]
        assert fired
        (scene,) = extract_scenes(payloads, max_frames=10**9)
        assert not scene["truncated"]
        rounds = {f["round"] for f in scene["frames"]}
        stray = [e for e in fired if str(e.round) not in rounds]
        assert stray  # this trace's watch fires on a still round
        assert sum(len(f["watches"]) for f in scene["frames"]) == len(
            fired
        ) - len(stray)
