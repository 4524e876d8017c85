"""Semantics tests for the event-driven synchronous scheduler."""

from __future__ import annotations

import pytest

from repro.graphs import PortGraph, path_graph, single_edge
from repro.sim import (
    AgentSpec,
    BudgetExceededError,
    DeadlockError,
    Simulation,
    SimulationError,
    WatchTriggered,
)
from repro.sim.agent import declare, move, wait, wait_stable


def triangle() -> PortGraph:
    return PortGraph(3, [(0, 0, 1, 0), (1, 1, 2, 0), (2, 1, 0, 1)])


def run_single(graph, program, start=0, label=1, **kwargs):
    sim = Simulation(graph, [AgentSpec(label, start, program)], **kwargs)
    return sim.run()


class TestBasics:
    def test_move_takes_one_round(self):
        def program(ctx):
            obs = yield from move(ctx, 0)
            assert obs.round == 1
            assert obs.entry_port == 0
            return "done"

        result = run_single(single_edge(), program)
        assert result.outcomes[0].payload == "done"
        assert result.outcomes[0].finish_node == 1
        assert result.outcomes[0].moves == 1

    def test_wait_duration_exact(self):
        def program(ctx):
            yield from wait(ctx, 41)
            assert ctx.obs.round == 41
            return None

        result = run_single(single_edge(), program)
        assert result.outcomes[0].finish_round == 41

    def test_wait_zero_is_noop(self):
        def program(ctx):
            yield from wait(ctx, 0)
            yield from move(ctx, 0)
            return None

        result = run_single(single_edge(), program)
        assert result.outcomes[0].finish_round == 1

    def test_huge_wait_is_cheap(self):
        big = 7 * 2**64

        def program(ctx):
            yield from wait(ctx, big)
            return ctx.obs.round

        result = run_single(single_edge(), program)
        assert result.outcomes[0].payload == big
        assert result.events <= 3

    def test_initial_observation(self):
        def program(ctx):
            assert ctx.obs.round == 0
            assert ctx.obs.degree == 1
            assert ctx.obs.curcard == 1
            assert ctx.obs.entry_port is None
            yield from wait(ctx, 1)
            return None

        run_single(single_edge(), program)

    def test_declare_records_round_and_node(self):
        def program(ctx):
            yield from move(ctx, 0)
            yield from declare(ctx, "payload")

        result = run_single(single_edge(), program)
        out = result.outcomes[0]
        assert out.declared
        assert out.finish_round == 1
        assert out.finish_node == 1
        assert out.payload == "payload"

    def test_invalid_port_raises(self):
        def program(ctx):
            yield from move(ctx, 5)

        with pytest.raises(SimulationError, match="invalid port"):
            run_single(single_edge(), program)

    def test_degree_and_entry_after_move(self):
        def program(ctx):
            obs = yield from move(ctx, 1)  # 0 -> 2 on the triangle
            assert obs.degree == 2
            assert obs.entry_port == 1
            return None

        run_single(triangle(), program)


class TestCardinality:
    def test_curcard_counts_colocated(self):
        readings = {}

        def program(ctx):
            yield from wait(ctx, 1)
            readings[ctx.label] = ctx.curcard()
            return None

        g = single_edge()
        sim = Simulation(
            g, [AgentSpec(1, 0, program), AgentSpec(2, 1, program)]
        )
        sim.run()
        assert readings == {1: 1, 2: 1}

    def test_curcard_counts_dormant_agents(self):
        def mover(ctx):
            obs = yield from move(ctx, 0)
            return obs.curcard

        def sleeper(ctx):
            yield from wait(ctx, 1)
            return "woke"

        g = single_edge()
        sim = Simulation(
            g,
            [
                AgentSpec(1, 0, mover, wake_round=0),
                AgentSpec(2, 1, sleeper, wake_round=None),
            ],
        )
        result = sim.run()
        assert result.outcomes[0].payload == 2  # mover sees the sleeper

    def test_crossing_agents_do_not_meet(self):
        """Two agents swapping along one edge notice nothing."""
        cards = {}

        def program(ctx):
            obs = yield from move(ctx, 0)
            cards[ctx.label] = obs.curcard
            return None

        g = single_edge()
        sim = Simulation(
            g, [AgentSpec(1, 0, program), AgentSpec(2, 1, program)]
        )
        sim.run()
        assert cards == {1: 1, 2: 1}

    def test_simultaneous_arrivals_counted_together(self):
        cards = {}

        def program(ctx):
            obs = yield from move(ctx, ctx.label - 1)  # hack: both port 0
            cards[ctx.label] = obs.curcard
            return None

        def to_center(ctx):
            obs = yield from move(ctx, 0)
            cards[ctx.label] = obs.curcard
            return None

        g = path_graph(3)  # 0 - 1 - 2
        sim = Simulation(
            g,
            [
                AgentSpec(1, 0, to_center),
                AgentSpec(2, 2, to_center),
            ],
        )
        sim.run()
        assert cards == {1: 2, 2: 2}


class TestWatches:
    def test_wait_interrupted_by_arrival(self):
        def waiter(ctx):
            try:
                yield from wait(ctx, 1000, watch=("gt", 1))
            except WatchTriggered as trig:
                return ("interrupted", trig.observation.round)
            return ("completed", ctx.obs.round)

        def visitor(ctx):
            yield from wait(ctx, 7)
            yield from move(ctx, 0)
            return None

        g = single_edge()
        sim = Simulation(
            g, [AgentSpec(1, 1, waiter), AgentSpec(2, 0, visitor)]
        )
        result = sim.run()
        assert result.outcomes[0].payload == ("interrupted", 8)

    def test_wait_watch_ignores_balanced_traffic(self):
        """One agent leaves while another enters: CurCard unchanged,
        the watcher must NOT fire (the paper's Section 1.4 example)."""

        def waiter(ctx):
            yield from wait(ctx, 2)  # let the first visitor settle in
            assert ctx.curcard() == 2
            try:
                yield from wait(ctx, 20, watch=("ne", 2))
            except WatchTriggered:
                return "noticed"
            return "blind"

        def swapper_out(ctx):
            yield from move(ctx, 0)  # join the waiter at node 1
            yield from wait(ctx, 3)
            yield from move(ctx, 0)  # leave at the same round B enters
            yield from wait(ctx, 30)
            return None

        def swapper_in(ctx):
            yield from wait(ctx, 4)
            yield from move(ctx, 0)  # enter the waiter's node
            yield from wait(ctx, 30)
            return None

        g = path_graph(3)  # nodes 0 - 1 - 2, canonical ports
        sim = Simulation(
            g,
            [
                AgentSpec(1, 1, waiter),
                AgentSpec(2, 0, swapper_out),
                AgentSpec(3, 2, swapper_in),
            ],
        )
        result = sim.run()
        assert result.outcomes[0].payload == "blind"

    def test_pre_satisfied_watch_fires_immediately(self):
        def program(ctx):
            yield from wait(ctx, 1)  # let both agents be present
            try:
                yield from wait(ctx, 100, watch=("gt", 0))
            except WatchTriggered:
                return ctx.obs.round
            return None

        g = single_edge()
        sim = Simulation(
            g,
            [
                AgentSpec(1, 0, program),
                AgentSpec(2, 1, program),
            ],
        )
        result = sim.run()
        # curcard (=1) > 0 already holds: no rounds may pass.
        assert result.outcomes[0].payload == 1

    def test_move_watch_triggers_on_arrival(self):
        def mover(ctx):
            yield from wait(ctx, 1)
            try:
                yield from move(ctx, 0, watch=("gt", 1))
            except WatchTriggered as trig:
                return trig.observation.curcard
            return None

        def sitter(ctx):
            yield from wait(ctx, 50)
            return None

        g = single_edge()
        sim = Simulation(
            g, [AgentSpec(1, 0, mover), AgentSpec(2, 1, sitter)]
        )
        result = sim.run()
        assert result.outcomes[0].payload == 2

    def test_eq_watch(self):
        def waiter(ctx):
            try:
                yield from wait(ctx, 1000, watch=("eq", 3))
            except WatchTriggered:
                return ctx.obs.round
            return None

        def visitor(delay):
            def program(ctx):
                yield from wait(ctx, delay)
                yield from move(ctx, 0)
                yield from wait(ctx, 2000)
                return None

            return program

        g = path_graph(3)
        sim = Simulation(
            g,
            [
                AgentSpec(1, 1, waiter),
                AgentSpec(2, 0, visitor(10)),
                AgentSpec(3, 2, visitor(20)),
            ],
        )
        result = sim.run()
        assert result.outcomes[0].payload == 21


class TestWaitStable:
    def test_completes_after_quiet_window(self):
        def waiter(ctx):
            yield from wait_stable(ctx, 10)
            return ctx.obs.round

        def mover(ctx):
            yield from wait(ctx, 4)
            yield from move(ctx, 0)  # change at the waiter's node at round 5
            yield from wait(ctx, 100)
            return None

        g = single_edge()
        sim = Simulation(
            g, [AgentSpec(1, 1, waiter), AgentSpec(2, 0, mover)]
        )
        result = sim.run()
        # Change lands at round 5; window of 10 including the change
        # round completes at round 14.
        assert result.outcomes[0].payload == 14

    def test_restarts_on_each_change(self):
        def waiter(ctx):
            yield from wait_stable(ctx, 10)
            return ctx.obs.round

        def bouncer(ctx):
            for _ in range(3):
                yield from wait(ctx, 4)
                yield from move(ctx, 0)  # enter the waiter's node
                yield from wait(ctx, 4)
                yield from move(ctx, 0)  # leave it again
            yield from wait(ctx, 200)
            return None

        g = single_edge()
        sim = Simulation(
            g, [AgentSpec(1, 1, waiter), AgentSpec(2, 0, bouncer)]
        )
        result = sim.run()
        # Changes at the waiter's node land at rounds 5, 10, ..., 30;
        # the 10-round quiet window (change round included) then
        # completes at round 30 + 10 - 1 = 39.
        assert result.outcomes[0].payload == 39

    def test_quiet_from_start(self):
        def waiter(ctx):
            yield from wait_stable(ctx, 5)
            return ctx.obs.round

        result = run_single(single_edge(), waiter)
        # No change ever: the window counts from round 0.
        assert result.outcomes[0].payload == 4


class TestWakeups:
    def test_adversary_delayed_wake(self):
        def program(ctx):
            return ctx.wake_round
            yield  # pragma: no cover

        g = single_edge()
        sim = Simulation(
            g,
            [
                AgentSpec(1, 0, program, wake_round=0),
                AgentSpec(2, 1, program, wake_round=33),
            ],
        )
        result = sim.run()
        assert result.outcomes[1].payload == 33

    def test_dormant_woken_by_visit(self):
        def visitor(ctx):
            yield from wait(ctx, 9)
            yield from move(ctx, 0)
            return None

        def sleeper(ctx):
            return ctx.wake_round
            yield  # pragma: no cover

        g = single_edge()
        sim = Simulation(
            g,
            [
                AgentSpec(1, 0, visitor, wake_round=0),
                AgentSpec(2, 1, sleeper, wake_round=None),
            ],
        )
        result = sim.run()
        assert result.outcomes[1].payload == 10  # visit lands at round 10

    def test_visit_beats_later_adversary_wake(self):
        def visitor(ctx):
            yield from move(ctx, 0)
            return None

        def sleeper(ctx):
            return ctx.wake_round
            yield  # pragma: no cover

        g = single_edge()
        sim = Simulation(
            g,
            [
                AgentSpec(1, 0, visitor, wake_round=0),
                AgentSpec(2, 1, sleeper, wake_round=500),
            ],
        )
        result = sim.run()
        assert result.outcomes[1].payload == 1

    def test_all_dormant_rejected(self):
        def program(ctx):
            yield from wait(ctx, 1)
            return None

        with pytest.raises(SimulationError):
            Simulation(
                single_edge(),
                [
                    AgentSpec(1, 0, program, wake_round=None),
                    AgentSpec(2, 1, program, wake_round=None),
                ],
            )

    def test_unvisited_dormant_is_deadlock(self):
        def lazy(ctx):
            yield from wait(ctx, 5)
            return None

        g = single_edge()
        sim = Simulation(
            g,
            [
                AgentSpec(1, 0, lazy, wake_round=0),
                AgentSpec(2, 1, lazy, wake_round=None),
            ],
        )
        with pytest.raises(DeadlockError):
            sim.run()


class TestValidation:
    def test_duplicate_start_nodes_rejected(self):
        def program(ctx):
            yield from wait(ctx, 1)

        with pytest.raises(SimulationError):
            Simulation(
                single_edge(),
                [AgentSpec(1, 0, program), AgentSpec(2, 0, program)],
            )

    def test_duplicate_labels_rejected(self):
        def program(ctx):
            yield from wait(ctx, 1)

        with pytest.raises(SimulationError):
            Simulation(
                single_edge(),
                [AgentSpec(1, 0, program), AgentSpec(1, 1, program)],
            )

    def test_label_must_be_positive(self):
        with pytest.raises(ValueError):
            AgentSpec(0, 0, lambda ctx: iter(()))

    def test_event_budget(self):
        def spinner(ctx):
            while True:
                yield from move(ctx, 0)

        with pytest.raises(BudgetExceededError):
            run_single(single_edge(), spinner, max_events=100)

    def test_round_budget(self):
        def patient(ctx):
            yield from wait(ctx, 10**9)
            return None

        with pytest.raises(BudgetExceededError):
            run_single(single_edge(), patient, max_round=1000)

    def test_trace_records_moves(self):
        def program(ctx):
            yield from move(ctx, 0)
            yield from move(ctx, 0)
            return None

        g = single_edge()
        sim = Simulation(g, [AgentSpec(1, 0, program)], trace=True)
        sim.run()
        assert sim.move_log == [(0, 0, 0, 1), (1, 0, 1, 0)]


class TestLocalClock:
    def test_local_time_relative_to_wake(self):
        def program(ctx):
            yield from wait(ctx, 5)
            return ctx.local_time()

        g = single_edge()
        sim = Simulation(
            g,
            [
                AgentSpec(1, 0, program, wake_round=0),
                AgentSpec(2, 1, program, wake_round=100),
            ],
        )
        result = sim.run()
        assert result.outcomes[0].payload == 5
        assert result.outcomes[1].payload == 5

    def test_entry_recording(self):
        def program(ctx):
            ctx.record_entries()
            yield from move(ctx, 0)
            yield from move(ctx, 0)
            log = ctx.stop_recording_entries()
            return log

        result = run_single(single_edge(), program)
        assert result.outcomes[0].payload == [0, 0]


class TestWalkSegments:
    """White-box tests of the multi-edge walk fast path."""

    def _ring6(self):
        from repro.graphs import ring

        return ring(6)

    def test_solo_walk_is_one_segment(self):
        """A lone walker with a far-future co-waiter: the whole plan
        runs as a single segment (one physical event, m virtual)."""
        from repro.sim.agent import walk

        def walker(ctx):
            walked = yield from walk(ctx, (~1,) * 6)
            return walked.rows()

        def sitter(ctx):
            yield from wait(ctx, 50)
            return "sat"

        g = self._ring6()
        sim = Simulation(
            g,
            [AgentSpec(1, 0, walker), AgentSpec(2, 3, sitter)],
            trace=True,
        )
        result = sim.run()
        assert sim.segments == 1
        assert sim.segment_edges == 6
        # events stay per-step compatible: walker wake + 6 virtual
        # moves... (wake resume is the first of them) + end-of-walk
        # resume + sitter wake + sitter wait-end.
        assert result.outcomes[0].moves == 6
        # The trace expands into per-edge entries.
        walker_moves = [entry for entry in sim.move_log if entry[1] == 0]
        assert [r for r, _, _, _ in walker_moves] == list(range(6))
        # The walker's per-edge CurCard history reports the transit of
        # the sitter's node (round-3 arrival at node 3: CurCard 2)
        # without the segment breaking: plain waiters are safe to
        # visit.
        trace = result.outcomes[0].payload
        assert [rec[3] for rec in trace] == [1, 1, 2, 1, 1, 1]
        assert [rec[0] for rec in trace] == [1, 2, 3, 4, 5, 6]

    def test_lockstep_pair_is_one_cohort_segment(self):
        from repro.sim.agent import walk

        def walker(ctx):
            walked = yield from walk(ctx, (~1,) * 5, watch=("ne", 2))
            return [rec[3] for rec in walked.rows()]

        def mover(ctx):
            yield from move(ctx, 0)
            walked = yield from walk(ctx, (~1,) * 5, watch=("ne", 2))
            return [rec[3] for rec in walked.rows()]

        g = self._ring6()
        sim = Simulation(
            g,
            [
                AgentSpec(1, 1, walker, wake_round=1),
                AgentSpec(2, 0, mover, wake_round=0),
            ],
        )
        result = sim.run()
        # Agent 2 joins agent 1 in round 0; from round 1 both walk the
        # same plan in lockstep as one joint segment.
        assert sim.segments >= 1
        assert result.outcomes[0].payload == [2] * 5
        assert result.outcomes[1].payload == [2] * 5

    def test_walk_truncates_before_dormant_node(self):
        from repro.sim.agent import walk

        def walker(ctx):
            walked = yield from walk(ctx, (~1,) * 4)
            return [rec[3] for rec in walked.rows()]

        def dormant(ctx):
            yield from wait(ctx, 2)
            return ctx.obs.round

        g = self._ring6()
        sim = Simulation(
            g,
            [
                AgentSpec(1, 0, walker),
                AgentSpec(2, 2, dormant, wake_round=None),
            ],
        )
        result = sim.run()
        # The walker circles 0 -> 5 -> 4 -> 3 -> 2: the segment covers
        # the first three edges, the step onto the dormant node 2 goes
        # through the ordinary machinery (arrival observed in round 4,
        # CurCard 2), and the dormant agent starts in round 4.
        assert result.outcomes[0].payload == [1, 1, 1, 2]
        assert result.outcomes[1].wake_round == 4
        assert result.outcomes[1].payload == 6

    def test_event_budget_mid_segment_matches_per_step(self):
        from repro.sim.agent import walk

        def walker(ctx):
            yield from walk(ctx, (~1,) * 6)
            return "done"

        g = self._ring6()
        sim = Simulation(g, [AgentSpec(1, 0, walker)], max_events=4)
        with pytest.raises(BudgetExceededError, match="round 4"):
            sim.run()
        # Exactly the per-step state: events overflows to budget + 1,
        # moves applied for the rounds before the violating resume.
        assert sim._events == 5
        assert sim._outcomes[0].moves == 4

    def test_round_budget_mid_segment_matches_per_step(self):
        from repro.sim.agent import walk

        def walker(ctx):
            yield from walk(ctx, (~1,) * 6)
            return "done"

        g = self._ring6()
        sim = Simulation(g, [AgentSpec(1, 0, walker)], max_round=3)
        with pytest.raises(
            BudgetExceededError, match="next event at round 4"
        ):
            sim.run()
        assert sim._outcomes[0].moves == 4

    def test_walk_observation_round_sequence(self):
        from repro.sim.agent import walk

        def walker(ctx):
            walked = yield from walk(ctx, (~1, ~1, ~1))
            return [(rec[0], rec[2]) for rec in walked.rows()]

        g = self._ring6()
        result = run_single(g, walker)
        assert result.outcomes[0].payload == [(1, 1), (2, 1), (3, 1)]


class TestLazyLastChange:
    """Segments log their routes for ``last_change``; the log is folded
    in on a stability read or when it reaches its bound."""

    @staticmethod
    def _run_with_bound(monkeypatch, bound, run):
        """Run ``run()`` with the log bound set to ``bound``; returns
        the report's facts, the segments logged and the longest log
        held."""
        from repro.sim import scheduler

        monkeypatch.setattr(scheduler, "_PENDING_SEGMENTS_CAP", bound)
        log_segment = scheduler.Simulation._log_segment
        logged, held = [0], [0]

        def spy(self, *args):
            logged[0] += 1
            held[0] = max(held[0], len(self._pending_segments) + 1)
            log_segment(self, *args)

        monkeypatch.setattr(scheduler.Simulation, "_log_segment", spy)
        report = run()
        monkeypatch.undo()
        facts = (
            repr(report), report.events, report.total_moves,
            [repr(o) for o in report.sim_result.outcomes],
        )
        return facts, logged[0], held[0]

    def test_gather_unknown_edge_log_stays_bounded(self, monkeypatch):
        """gather_unknown never waits for stability, so only the bound
        keeps its log short.  A bound below the trial's segment count
        must hold, and must not change the outcome."""
        from repro.core.runs import run_gather_unknown
        from repro.sim import scheduler

        def run():
            return run_gather_unknown(single_edge(), [2, 3])

        cap = scheduler._PENDING_SEGMENTS_CAP
        report, logged, held = self._run_with_bound(monkeypatch, cap, run)
        assert logged > 0 and held <= cap
        small, logged, held = self._run_with_bound(monkeypatch, 4, run)
        assert logged > 4 and held == 4
        assert small == report

    def test_gather_known_outcome_independent_of_bound(self, monkeypatch):
        """Folding after every segment (bound 1) and only on stability
        reads give the same gathering, round for round."""
        from repro.core.runs import run_gather_known
        from repro.graphs import ring

        def run():
            return run_gather_known(ring(6), [1, 2], 6, start_nodes=[0, 3])

        lazy, logged, _held = self._run_with_bound(monkeypatch, 64, run)
        eager, _logged, held = self._run_with_bound(monkeypatch, 1, run)
        assert logged > 0 and held == 1
        assert eager == lazy
