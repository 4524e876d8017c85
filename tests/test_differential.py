"""Differential testing: event-compressed scheduler vs naive reference.

Randomized agent scripts (moves, multi-edge walks, watched waits,
stability waits) run on both the production scheduler
(:mod:`repro.sim.scheduler`) and the independent round-by-round
reference (:mod:`repro.sim.reference`).  The two runs must agree
*byte for byte*: every field of every :class:`AgentOutcome`, the
``events`` counter (the fast path counts a virtual resume per walked
edge), the trace-mode ``move_log``, and — where budgets bite — the
exception type and message.  This is the strongest check that walk
segments and quiet-round skipping never change semantics.

The seeded randomized suite runs 210 deterministic scenarios across a
ring, a torus and random regular graphs (acceptance bar: >= 200),
each mixing walk plans (rule and absolute steps), dormant agents woken
mid-plan, and watches firing mid-segment.

Both segment planners are held to the oracle: the walk-segment,
seeded and lazy-``last_change`` classes run with the planner that
static-edge runs bind, and their ``...Scalar`` subclasses rerun every
test with the scalar planner forced.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventDispatcher, ListProcessor, WalkSegment
from repro.events.types import EdgeBlocked
from repro.graphs import (
    lollipop,
    path_graph,
    random_regular,
    ring,
    single_edge,
    star_graph,
    torus,
)
from repro.core import runs
from repro.core.runs import prepare_gather_unknown
from repro.explore.explo import ExploStats, explo
from repro.metrics import registry as metrics_registry
from repro.runner import ExperimentSpec
from repro.runner.spec import TrialSpec
from repro.runner.trial import (
    _build_graph,
    _prepare_faulted,
    _resolve_trial_faults,
    resolve_scenario,
)
from repro.sim import AgentSpec, Simulation, WatchTriggered
from repro.sim.agent import (
    move,
    observe,
    paced_walk,
    wait,
    wait_stable,
    walk,
)
from repro.sim.faults import EdgeDynamics, make_dynamics
from repro.sim.ops import resolve_walk_step
from repro.sim.reference import ReferenceSimulation

GRAPHS = {
    "edge": single_edge(),
    "path3": path_graph(3),
    "ring4": ring(4),
    "star4": star_graph(4),
}

# Families for the extended randomized suite: a ring, a 3x3 torus and
# two seeded random regular graphs (cycles, chords and degree >= 3).
EXTENDED_GRAPHS = {
    "ring6": ring(6),
    "torus33": torus(3, 3, seed=11),
    "regular6": random_regular(6, 3, seed=2),
    "regular8": random_regular(8, 3, seed=5),
}

WATCHES = [None, ("gt", 1), ("ne", 1), ("eq", 2), ("lt", 2)]

op_strategy = st.one_of(
    st.tuples(
        st.just("move"),
        st.integers(0, 3),
        st.sampled_from(WATCHES),
    ),
    st.tuples(
        st.just("wait"),
        st.integers(1, 25),
        st.sampled_from(WATCHES),
    ),
    st.tuples(st.just("stable"), st.integers(1, 8)),
    st.tuples(
        st.just("walk"),
        st.lists(st.integers(-6, -1), min_size=1, max_size=10).map(tuple),
        st.sampled_from(WATCHES),
    ),
    st.tuples(st.just("observe"), st.integers(1, 12)),
)

script_strategy = st.lists(op_strategy, min_size=0, max_size=10)


def scripted_program(script):
    """Turn an op script into an agent program that logs observations."""

    def program(ctx):
        log = []
        for op in script:
            kind = op[0]
            if kind == "move":
                port = op[1] % ctx.degree()
                try:
                    obs = yield from move(ctx, port, watch=op[2])
                    log.append(
                        ("move", obs.round, obs.curcard, obs.entry_port)
                    )
                except WatchTriggered as trig:
                    log.append(
                        ("move!", trig.observation.round,
                         trig.observation.curcard)
                    )
            elif kind == "wait":
                try:
                    yield from wait(ctx, op[1], watch=op[2])
                    log.append(
                        ("wait", ctx.obs.round, ctx.obs.curcard)
                    )
                except WatchTriggered as trig:
                    log.append(
                        ("wait!", trig.observation.round,
                         trig.observation.curcard)
                    )
            elif kind in ("walk", "walk_summary"):
                # Optional fourth field: ``stop_before_invalid``.
                # ``walk`` logs the per-edge records; ``walk_summary``
                # what EXPLO reads instead: the minimum CurCard and the
                # backtrack plans (whole and cut), besides the length
                # and the entry ports.
                try:
                    result = yield from walk(ctx, op[1], op[2], *op[3:])
                    if kind == "walk":
                        log.append((kind, tuple(result.rows())))
                    else:
                        log.append((
                            kind, len(result), result.min_card,
                            tuple(result.entries()), result.backtrack(),
                            result.backtrack(len(result) // 2),
                        ))
                except WatchTriggered as trig:
                    log.append(
                        (kind + "!", trig.observation.round,
                         trig.observation.curcard,
                         trig.observation.entry_port)
                    )
            elif kind in ("explo", "explo_rows"):
                # ``("explo", plan, watch, limit)``: EXPLO of a fixed
                # plan; ``explo_rows`` runs its per-edge definition.
                helper = explo if kind == "explo" else explo_by_rows
                try:
                    stats = yield from helper(
                        ctx, FixedPlan(op[1]), 0, op[2], op[3]
                    )
                    log.append(("explo", stats.min_curcard, stats.rounds,
                                ctx.obs.round, ctx.obs.entry_port))
                except WatchTriggered as trig:
                    log.append(("explo!", trig.observation.round,
                                trig.observation.curcard))
            elif kind == "record":
                ctx.record_entries()
            elif kind == "recorded":
                log.append(("recorded", tuple(ctx.stop_recording_entries())))
            elif kind in ("paced", "paced_steps"):
                # ``("paced", steps, pace, stop_before_invalid,
                # stop_degree)``; ``paced_steps`` runs the per-step
                # definition of the op instead.
                helper = paced_walk if kind == "paced" else paced_by_steps
                entries = yield from helper(
                    ctx, op[1], op[2],
                    stop_before_invalid=op[3], stop_degree=op[4],
                )
                obs = ctx.obs
                log.append(("paced", tuple(entries), obs.round,
                            obs.degree, obs.entry_port, obs.curcard))
            elif kind == "observe":
                records = yield from observe(ctx, op[1])
                log.append(("observe", tuple(records)))
            else:
                yield from wait_stable(ctx, op[1])
                log.append(("stable", ctx.obs.round, ctx.obs.curcard))
        return log

    return program


class FixedPlan:
    """A UXS provider stand-in whose EXPLO plan is one fixed tuple."""

    def __init__(self, plan):
        self.plan = plan

    def walk_plan(self, n):
        return self.plan


def explo_by_rows(ctx, provider, n, watch=None, limit=None):
    """The definition of :func:`explo` on per-edge rows: the minimum of
    every CurCard read, and the backtrack built from the entry ports
    (fresh tuples, so no plan memo is involved)."""
    plan = provider.walk_plan(n)
    length = len(plan)
    total = 2 * length if limit is None else min(limit, 2 * length)
    effective = min(length, total)
    cards = [ctx.curcard()]
    forward = (yield from walk(ctx, plan[:effective], watch)).rows()
    cards.extend(rec[3] for rec in forward)
    remaining = total - effective
    if remaining > 0:
        back = tuple(reversed([rec[2] for rec in forward]))[:remaining]
        rows = (yield from walk(ctx, back, watch)).rows()
        cards.extend(rec[3] for rec in rows)
    return ExploStats(min(cards), total)


def paced_by_steps(
    ctx, steps, pace, stop_before_invalid=False, stop_degree=None
):
    """The definition of :func:`paced_walk`: wait ``pace``, then move,
    per step (Algorithm 7's per-edge loop)."""
    entries = []
    entry = None
    for step in steps:
        degree = ctx.degree()
        if stop_degree is not None and degree >= stop_degree:
            break
        port = resolve_walk_step(step, entry, degree)
        if stop_before_invalid and not 0 <= port < degree:
            break
        yield from wait(ctx, pace)
        obs = yield from move(ctx, port)
        entry = obs.entry_port
        entries.append(entry)
    return entries


def _specs(scripts, wakes, starts=None):
    if starts is None:
        starts = list(range(len(scripts)))
    return [
        AgentSpec(i + 1, starts[i], scripted_program(scripts[i]), wakes[i])
        for i in range(len(scripts))
    ]


def run_both(
    graph,
    scripts,
    wakes,
    starts=None,
    max_events=None,
    max_round=None,
    faults=None,
    dynamics=None,
    horizon=None,
    events=None,
):
    """Run the same scenario on both schedulers (trace mode).

    ``dynamics`` is a factory ``graph -> EdgeDynamics`` so each
    scheduler gets its own instance; ``events`` is an event dispatcher
    for the fast scheduler only.  Returns ``(fast_sim,
    fast_outcome), (ref_sim, ref_outcome)`` where each outcome is
    either a :class:`SimulationResult` or the raised exception.
    """
    fast = Simulation(
        graph,
        _specs(scripts, wakes, starts),
        max_events=max_events,
        max_round=max_round,
        trace=True,
        faults=faults,
        dynamics=None if dynamics is None else dynamics(graph),
        horizon=horizon,
        events=events,
    )
    try:
        fast_out = fast.run()
    except Exception as exc:  # compared against the reference's error
        fast_out = exc
    ref = ReferenceSimulation(
        graph,
        _specs(scripts, wakes, starts),
        max_events=max_events,
        max_round=max_round,
        trace=True,
        faults=faults,
        dynamics=None if dynamics is None else dynamics(graph),
        horizon=horizon,
    )
    try:
        ref_out = ref.run()
    except Exception as exc:
        ref_out = exc
    return (fast, fast_out), (ref, ref_out)


class EveryRoundReference(ReferenceSimulation):
    """The oracle without its idle-round jump: every round processed."""

    idle_jump = False


def run_every_round(graph, scripts, wakes, starts=None, dynamics=None,
                    **kw):
    """The reference run of :func:`run_both`, processing every round."""
    ref = EveryRoundReference(
        graph,
        _specs(scripts, wakes, starts),
        trace=True,
        dynamics=None if dynamics is None else dynamics(graph),
        **kw,
    )
    try:
        out = ref.run()
    except Exception as exc:
        out = exc
    return ref, out


def assert_equivalent(fast_pair, ref_pair):
    """Byte-for-byte equality of results, events, blocked moves and
    move logs."""
    fast, fast_out = fast_pair
    ref, ref_out = ref_pair
    if isinstance(fast_out, Exception) or isinstance(ref_out, Exception):
        assert type(fast_out) is type(ref_out), (fast_out, ref_out)
        assert str(fast_out) == str(ref_out)
        return
    assert fast_out.events == ref_out.events
    assert fast.edges_blocked == ref.edges_blocked
    assert fast_out.final_round == ref_out.final_round
    assert fast_out.total_moves == ref_out.total_moves
    assert fast_out.crashed_labels == ref_out.crashed_labels
    assert fast_out.timed_out == ref_out.timed_out
    for out, exp in zip(fast_out.outcomes, ref_out.outcomes):
        assert out.label == exp.label
        assert out.start_node == exp.start_node
        assert out.wake_round == exp.wake_round
        assert out.finish_round == exp.finish_round
        assert out.finish_node == exp.finish_node
        assert out.payload == exp.payload, "observation logs diverged"
        assert out.declared == exp.declared
        assert out.moves == exp.moves
        assert out.crashed == exp.crashed
    assert fast.move_log == ref.move_log


def _bind_scalar_planner(sim):
    """Stand-in for ``Simulation._resolve_planner``: the scalar planner
    on every run, static edges included."""
    sim._planner = Simulation._plan_segment


def force_scalar_planner(monkeypatch):
    """Make every ``Simulation`` built from now on plan with the scalar
    planner (it binds its planner on the first walk round)."""
    monkeypatch.setattr(Simulation, "_resolve_planner", _bind_scalar_planner)


class _PlannerChoice:
    """Runs a class's tests with one segment planner."""

    planner = "static"

    @pytest.fixture(autouse=True)
    def _force_planner(self, monkeypatch):
        if self.planner == "scalar":
            force_scalar_planner(monkeypatch)


class TestHandPickedScenarios:
    def test_two_sitters(self):
        scripts = [[("wait", 5, None)], [("wait", 9, None)]]
        assert_equivalent(*run_both(GRAPHS["edge"], scripts, [0, 0]))

    def test_watched_wait_interrupted(self):
        scripts = [
            [("wait", 100, ("gt", 1))],
            [("wait", 7, None), ("move", 0, None), ("wait", 50, None)],
        ]
        assert_equivalent(*run_both(GRAPHS["edge"], scripts, [0, 0]))

    def test_stability_restarts(self):
        scripts = [
            [("stable", 6)],
            [
                ("wait", 3, None), ("move", 0, None),
                ("wait", 3, None), ("move", 0, None),
                ("wait", 40, None),
            ],
        ]
        assert_equivalent(*run_both(GRAPHS["edge"], scripts, [0, 0]))

    def test_crossing_on_edge(self):
        scripts = [
            [("move", 0, ("gt", 1)), ("wait", 5, None)],
            [("move", 0, ("gt", 1)), ("wait", 5, None)],
        ]
        assert_equivalent(*run_both(GRAPHS["edge"], scripts, [0, 0]))

    def test_delayed_wake(self):
        scripts = [
            [("move", 0, None), ("wait", 30, None)],
            [("wait", 2, None), ("move", 1, None)],
        ]
        assert_equivalent(*run_both(GRAPHS["ring4"], scripts, [0, 13]))

    def test_three_agents_star(self):
        scripts = [
            [("move", 0, None), ("wait", 20, ("eq", 3))],
            [("wait", 4, None), ("move", 0, None), ("wait", 20, None)],
            [("wait", 8, None), ("move", 0, None), ("wait", 20, None)],
        ]
        assert_equivalent(*run_both(GRAPHS["star4"], scripts, [0, 0, 0]))


class TestWalkSegments(_PlannerChoice):
    """Hand-picked scenarios aimed at the walk fast path."""

    def test_solo_walk_around_ring(self):
        scripts = [
            [("walk", (~0, ~0, ~0, ~0, ~0, ~0), None), ("wait", 4, None)],
            [("wait", 60, None)],
        ]
        assert_equivalent(*run_both(EXTENDED_GRAPHS["ring6"], scripts, [0, 0]))

    def test_walk_through_plain_waiter(self):
        """A walk transits the node of a plain-waiting static agent:
        the walker's CurCard trace must show the meeting, the waiter
        must observe nothing, and last_change must feed a later
        wait_stable correctly."""
        scripts = [
            [("walk", (~0,) * 12, None), ("wait", 3, None)],
            [("wait", 40, None), ("stable", 5)],
        ]
        assert_equivalent(
            *run_both(EXTENDED_GRAPHS["ring6"], scripts, [0, 0], [0, 3])
        )

    def test_walk_watch_fires_mid_segment(self):
        """Two walkers head toward each other; the (gt, 1) watch must
        fire at the exact meeting edge."""
        scripts = [
            [("walk", (~0,) * 6, ("gt", 1)), ("wait", 9, None)],
            [("walk", (~1,) * 6, ("gt", 1)), ("wait", 9, None)],
        ]
        assert_equivalent(
            *run_both(EXTENDED_GRAPHS["ring6"], scripts, [0, 0], [0, 3])
        )

    def test_walk_wakes_dormant_mid_plan(self):
        """The route crosses a dormant agent's start node: the segment
        must truncate so the wake-up happens at per-step timing."""
        scripts = [
            [("walk", (~0,) * 10, None), ("wait", 30, None)],
            [("move", 1, None), ("wait", 10, None)],
        ]
        assert_equivalent(
            *run_both(EXTENDED_GRAPHS["ring6"], scripts, [0, None], [0, 4])
        )

    def test_walk_into_watching_waiter(self):
        """The route crosses a *watching* waiter: truncation must let
        the ordinary machinery deliver the trigger."""
        scripts = [
            [("walk", (~0,) * 10, None), ("wait", 30, None)],
            [("wait", 50, ("gt", 1)), ("move", 0, None)],
        ]
        assert_equivalent(
            *run_both(EXTENDED_GRAPHS["ring6"], scripts, [0, 0], [0, 4])
        )

    def test_lockstep_pair_walks_jointly(self):
        """Two co-located agents walk the same plan with a (ne, 2)
        watch — the merged-group EXPLO pattern."""
        tour = (~0, ~1, ~0, ~1, ~2, ~0)
        scripts = [
            [("move", 0, None), ("walk", tour, ("ne", 2)),
             ("wait", 7, None)],
            [("wait", 1, None), ("walk", tour, ("ne", 2)),
             ("wait", 7, None)],
        ]
        # Agent 1 moves onto agent 2's node in round 0; from round 1
        # they walk in lockstep.
        assert_equivalent(
            *run_both(
                EXTENDED_GRAPHS["torus33"], scripts, [0, 0],
                [1, 0],
            )
        )

    def test_absolute_and_rule_steps_mixed(self):
        scripts = [
            [("walk", (1, ~2, 0, ~1, 1, 0), None), ("wait", 5, None)],
            [("wait", 25, None)],
        ]
        assert_equivalent(
            *run_both(EXTENDED_GRAPHS["regular6"], scripts, [0, 0])
        )

    def test_invalid_absolute_step_rejected_identically(self):
        scripts = [
            [("walk", (0, 9, 0), None)],
            [("wait", 9, None)],
        ]
        assert_equivalent(
            *run_both(EXTENDED_GRAPHS["ring6"], scripts, [0, 0])
        )

    def test_event_budget_crossed_mid_segment(self):
        scripts = [
            [("walk", (~0,) * 10, None), ("wait", 5, None)],
            [("wait", 40, None)],
        ]
        for budget in (3, 5, 8, 11, 12, 13):
            assert_equivalent(
                *run_both(
                    EXTENDED_GRAPHS["ring6"], scripts, [0, 0],
                    max_events=budget,
                )
            )

    def test_round_budget_crossed_mid_segment(self):
        scripts = [
            [("walk", (~0,) * 10, None), ("wait", 5, None)],
            [("wait", 40, None)],
        ]
        for budget in (2, 4, 9, 10, 11):
            assert_equivalent(
                *run_both(
                    EXTENDED_GRAPHS["ring6"], scripts, [0, 0],
                    max_round=budget,
                )
            )

    def test_stale_heap_entry_never_trips_round_budget(self):
        """A watch-interrupted long wait leaves a superseded heap entry
        at its original wake round; with an unvisited dormant agent
        remaining, both schedulers must report the deadlock — the fast
        one must not mistake the stale entry for a round-budget breach
        at a phantom round."""
        scripts = [
            [("wait", 1000, ("gt", 1))],
            [("move", 0, None)],
            [("wait", 2, None)],
        ]
        assert_equivalent(
            *run_both(
                GRAPHS["path3"], scripts, [0, 0, None],
                max_round=500,
            )
        )

    # A later walker cuts the joint segment below the route already
    # planned for an earlier one.  The earlier ``walk_summary`` walker
    # must then resume exactly where the cut segment ended.
    RING8 = ring(8)  # nodes 0-1-2-3-4-5-6-7-0
    BOUNCE = [0, 1, 0, 7, 0, 1]

    def _later_walker_cut(self, second, third, wakes, starts):
        graph = self.RING8
        first = [
            ("walk_summary", ports_along(graph, self.BOUNCE), None),
            ("wait", 10, None),
        ]
        assert_equivalent(
            *run_both(graph, [first, second, third], wakes, starts)
        )

    def test_later_walker_cut_by_dormant_node(self):
        second = [
            ("walk_summary", ports_along(self.RING8, [3, 4, 5, 6]),
             None),
            ("wait", 10, None),
        ]
        self._later_walker_cut(
            second, [("wait", 5, None)], [0, 0, None], [0, 3, 6]
        )

    def test_later_walker_cut_by_watched_node(self):
        second = [
            ("walk_summary", ports_along(self.RING8, [3, 4, 5, 6]),
             None),
            ("wait", 10, None),
        ]
        self._later_walker_cut(
            second, [("wait", 50, ("gt", 1))], [0, 0, 0], [0, 3, 6]
        )

    def test_later_walker_cut_by_invalid_absolute_step(self):
        """Port 2 does not exist on a ring: the second walker stops
        quietly before it (``stop_before_invalid``)."""
        plan = ports_along(self.RING8, [3, 4, 5]) + (2, 0)
        second = [("walk", plan, None, True), ("wait", 10, None)]
        self._later_walker_cut(
            second, [("wait", 30, None)], [0, 0, 0], [0, 3, 6]
        )

    def test_later_walker_cut_by_its_watch(self):
        """The second walker's watch fires on meeting a plain waiter,
        after both routes were planned."""
        second = [
            ("walk_summary", ports_along(self.RING8, [3, 4, 5, 6, 7]),
             ("gt", 1)),
            ("wait", 10, None),
        ]
        self._later_walker_cut(
            second, [("wait", 30, None)], [0, 0, 0], [0, 3, 5]
        )

    @pytest.mark.parametrize("graph_name", sorted(EXTENDED_GRAPHS))
    @pytest.mark.parametrize("horizon", [3, 7, 20])
    def test_segment_stops_at_the_horizon(self, graph_name, horizon):
        """A walk longer than the graceful horizon ends where per-step
        execution ends it: after the horizon round's move."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [[("walk", tour * 6, None)], [("wait", 1000, None)]]
        assert_equivalent(*run_both(
            graph, scripts, [0, 0], horizon=horizon
        ))


class TestWalkSegmentsScalar(TestWalkSegments):
    """The walk-segment scenarios with the scalar planner forced."""

    planner = "scalar"


def covering_tour(graph, start=0):
    """Exit-port sequence of a DFS closed walk visiting every node.

    An agent executing these moves from ``start`` provably visits all
    nodes (and returns home), which guarantees that every dormant
    agent on the graph is woken by the tour.
    """
    ports: list[int] = []
    visited = {start}

    def dfs(node):
        for port in range(graph.degree(node)):
            dst, entry = graph.neighbor(node, port)
            if dst not in visited:
                visited.add(dst)
                ports.append(port)
                dfs(dst)
                ports.append(entry)

    dfs(start)
    assert len(visited) == graph.n
    return ports


def random_script(rng, min_degree, max_ops=8):
    """A seeded random op script mixing moves, walks, paced walks,
    watched waits, per-round observations and stability waits.  Walk
    plans mix rule
    steps (always valid) with absolute ports below ``min_degree``
    (valid on every node)."""
    script = []
    for _ in range(rng.randrange(max_ops + 1)):
        kind = rng.choice(
            ("move", "wait", "stable", "walk", "walk", "observe", "paced")
        )
        if kind == "move":
            script.append(("move", rng.randrange(4), rng.choice(WATCHES)))
        elif kind == "wait":
            script.append(
                ("wait", rng.randrange(1, 26), rng.choice(WATCHES))
            )
        elif kind == "walk":
            steps = tuple(
                ~rng.randrange(6)
                if rng.random() < 0.6
                else rng.randrange(min_degree)
                for _ in range(rng.randrange(1, 13))
            )
            script.append(("walk", steps, rng.choice(WATCHES)))
        elif kind == "observe":
            script.append(("observe", rng.randrange(1, 10)))
        elif kind == "paced":
            steps = tuple(
                ~rng.randrange(6)
                if rng.random() < 0.6
                else rng.randrange(min_degree)
                for _ in range(rng.randrange(1, 13))
            )
            script.append((
                "paced", steps, rng.randrange(6), False,
                rng.choice((None, None, 3, 4)),
            ))
        else:
            script.append(("stable", rng.randrange(1, 9)))
    return script


class TestSeededRandomizedSuite(_PlannerChoice):
    """210 deterministic differential scenarios (>= 200 required) on
    ring / torus / random-regular graphs, every one exercising walk
    plans alongside watches, wait_stable and dormant wake-ups."""

    SEEDS_PER_GRAPH = 70
    FAMILIES = ("ring6", "torus33", "regular8")

    @pytest.mark.parametrize("graph_name", FAMILIES)
    @pytest.mark.parametrize("seed", range(SEEDS_PER_GRAPH))
    def test_randomized_programs_agree(self, graph_name, seed):
        graph = EXTENDED_GRAPHS[graph_name]
        min_degree = min(graph.degree(v) for v in graph.nodes())
        rng = random.Random(f"{graph_name}/{seed}")
        # Agent 0 walks a covering tour as one big absolute-step walk
        # plan (waking every dormant agent), then improvises.
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour, rng.choice(WATCHES))]
            + random_script(rng, min_degree, max_ops=4)
        ]
        agents = rng.randrange(2, min(5, graph.n) + 1)
        for _ in range(agents - 1):
            scripts.append(random_script(rng, min_degree))
        # Mix of adversary wakes and dormant (visit-woken) agents; the
        # tour guarantees the dormant ones always start eventually.
        wakes = [0] + [
            rng.choice([None, 0, rng.randrange(1, 7)])
            for _ in range(agents - 1)
        ]
        fast, ref = run_both(graph, scripts, wakes)
        assert_equivalent(fast, ref)
        if self.planner == "static":
            assert_equivalent(ref, run_every_round(graph, scripts, wakes))

    @pytest.mark.parametrize("graph_name", sorted(EXTENDED_GRAPHS))
    def test_all_dormant_but_one(self, graph_name):
        """Every agent except the tourer starts dormant and is woken
        purely by visits; both simulators must agree on wake timing."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour, None), ("wait", 5, None)],
            [("stable", 4), ("move", 1, None)],
            [("wait", 3, ("gt", 1)), ("move", 2, None)],
            [("stable", 2), ("wait", 6, ("eq", 2))],
        ]
        wakes = [0, None, None, None]
        assert_equivalent(*run_both(graph, scripts, wakes))

    @pytest.mark.parametrize("seed", range(4))
    def test_stability_watch_interplay_on_torus(self, seed):
        """wait_stable windows repeatedly broken by a tour through the
        waiter's node, with watch-carrying waits in between."""
        graph = EXTENDED_GRAPHS["torus33"]
        rng = random.Random(9000 + seed)
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour + tour, None)],
            [("stable", rng.randrange(2, 9))] * 3,
            [("wait", 50, ("gt", 1)), ("stable", 5), ("wait", 4, None)],
        ]
        assert_equivalent(
            *run_both(graph, scripts, [0, 0, rng.randrange(0, 5)])
        )


class TestSeededRandomizedSuiteScalar(TestSeededRandomizedSuite):
    """The seeded suite with the scalar planner forced."""

    planner = "scalar"


def ports_along(graph, route):
    """Absolute exit ports that walk ``route`` (a node sequence)."""
    ports = []
    for src, dst in zip(route, route[1:]):
        (port,) = [
            p for p in range(graph.degree(src))
            if graph.neighbor(src, p)[0] == dst
        ]
        ports.append(port)
    return tuple(ports)


class TestLazyLastChange(_PlannerChoice):
    """Scenarios aimed at resolving ``last_change`` on read: segments
    only log their routes, and a ``wait_stable`` folds the log in."""

    GRAPH = EXTENDED_GRAPHS["ring6"]  # nodes 0-1-2-3-4-5-0

    def test_stable_on_node_no_logged_segment_touched(self):
        """Several segments bounce on edge 0-1 while the waiter's node
        3 changed only by a direct move: the scan runs off the end of
        the log without resolving it."""
        bounce = ports_along(self.GRAPH, [0, 1, 0, 1, 0, 1, 0])
        scripts = [
            [("walk", bounce, None)] * 4 + [("wait", 3, None)],
            [("move", 0, None), ("wait", 40, None), ("stable", 5)],
        ]
        fast, ref = run_both(self.GRAPH, scripts, [0, 0], [0, 4])
        assert fast[0].segments >= 4
        assert_equivalent(fast, ref)

    def test_more_segments_than_the_log_holds(self):
        """A tour crosses the waiter's node, then more bounce segments
        than the log bound follow before the waiter's next stability
        wait.  Its window reaches back past the crossing, so the
        crossing must survive the bounded fold."""
        tour = ports_along(self.GRAPH, [0, 1, 2, 3, 4, 5, 0])
        bounce = ports_along(self.GRAPH, [0, 1, 0])
        bounces = 80  # the scheduler folds its log at 64 segments
        scripts = [
            [("wait", 2, None), ("walk", tour, None)]
            + [("walk", bounce, None)] * bounces,
            [("stable", 2), ("wait", 2 * bounces + 10, None),
             ("stable", 2 * bounces + 40)],
        ]
        fast, ref = run_both(self.GRAPH, scripts, [0, 0], [0, 3])
        assert fast[0].segments > bounces
        assert_equivalent(fast, ref)

    @pytest.mark.parametrize("crash_round", [5, 9, 14, 20])
    def test_crash_on_a_node_segments_crossed(self, crash_round):
        """Agent 2 sits on node 3 and crashes while or after segments
        cross it; agent 3 then waits for stability on node 3, with a
        window reaching back over both crossings.  The crash's direct
        write and the logged crossings must fold to the latest."""
        loop = ports_along(self.GRAPH, [0, 1, 2, 3, 4, 5] * 2 + [0])
        scripts = [
            [("wait", 1, None), ("walk", loop, None), ("wait", 3, None)],
            [("wait", 100, None)],
            [("move", 0, None), ("wait", 30, None), ("stable", 30),
             ("wait", 3, None)],
        ]
        assert_equivalent(*run_both(
            self.GRAPH, scripts, [0, 0, 0], [0, 3, 4],
            faults=[(2, crash_round)], horizon=400,
        ))

    def test_three_walkers_crossing_and_colliding(self):
        """One 8-edge segment of three walkers with a collision (t=0,
        t=4), a lockstep pair (t=1) and crossings (t=4, t=6) whose
        nodes see no change; every agent then waits for stability."""
        routes = [
            [0, 1, 2, 1, 0, 1, 2, 1, 0],
            [1, 2, 3, 2, 1, 0, 1, 2, 3],
            [3, 2, 3, 4, 5, 0, 5, 0, 5],
        ]
        walker = [
            [("walk", ports_along(self.GRAPH, route), None), ("stable", 3)]
            for route in routes
        ]
        reader = [("wait", 12, None), ("stable", 4), ("wait", 2, None)]
        fast, ref = run_both(
            self.GRAPH, walker + [reader, reader], [0] * 5,
            [0, 1, 3, 2, 4],
        )
        assert (fast[0].segments, fast[0].segment_edges) == (1, 24)
        assert_equivalent(fast, ref)


class TestLazyLastChangeScalar(TestLazyLastChange):
    """The lazy ``last_change`` scenarios with the scalar planner."""

    planner = "scalar"


class TestCurCardsByException(_PlannerChoice):
    """Scenarios aimed at the static-edge planner's rules: a group of
    walkers in one state sees its own size at every arrival, except
    where it meets a standing agent, another group or an observer's
    node.  On ring ``0-1-...-7-0`` the group gathers on node 1 in round
    0 and walks from round 1 with one shared plan object; every
    scenario runs with ``walk`` and with ``walk_summary``."""

    GRAPH = ring(8)

    def group(self, kind, size, route, watch=None, *extra):
        """Scripts of ``size`` walkers (starting on nodes ``1, 0, 2``)
        that meet on node 1, then walk ``route`` (a node sequence, or a
        plan) together, and their start nodes."""
        plan = route if isinstance(route, tuple) else \
            ports_along(self.GRAPH, route)
        walk_op = (kind, plan, watch) + extra
        firsts = [
            ("wait", 1, None),
            ("move", ports_along(self.GRAPH, [0, 1])[0], None),
            ("move", ports_along(self.GRAPH, [2, 1])[0], None),
        ]
        scripts = [[first, walk_op, ("wait", 5, None)]
                   for first in firsts[:size]]
        return scripts, [1, 0, 2][:size]

    def run(self, scripts, starts, wakes=None):
        if wakes is None:
            wakes = [0] * len(scripts)
        fast, ref = run_both(self.GRAPH, scripts, wakes, starts)
        assert_equivalent(fast, ref)
        return fast[0]

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_standing_agent_passed_twice(self, kind, size):
        """A plain waiter on node 4 adds itself to the group's CurCard
        on both passes, and observes nothing."""
        scripts, starts = self.group(
            kind, size, [1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5]
        )
        sim = self.run(scripts + [[("wait", 60, None)]], starts + [4])
        assert sim.segments >= 1

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    @pytest.mark.parametrize("size", [1, 2])
    def test_dormant_agent_mid_route(self, kind, size):
        """The segment ends before the dormant agent's node, so the
        arrival wakes it at per-step timing."""
        scripts, starts = self.group(kind, size, [1, 2, 3, 4, 5, 6])
        dormant = [("wait", 3, None), ("move", 0, None), ("wait", 20, None)]
        self.run(scripts + [dormant], starts + [4], [0] * size + [None])

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    @pytest.mark.parametrize("watch", [None, ("gt", 3), ("lt", 4)])
    def test_three_identical_walkers_meet_a_fourth(self, kind, watch):
        """A group of three meets a lone walker on three successive
        arrivals (CurCard 4); its watch fires at the first meeting, or
        on its own size at the first arrival."""
        scripts, starts = self.group(kind, 3, [1, 2, 3, 4, 5], watch)
        lone = [
            ("wait", 1, None),
            (kind, ports_along(self.GRAPH, [5, 4, 3, 4, 5]), None),
            ("wait", 5, None),
        ]
        self.run(scripts + [lone], starts + [5])

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    @pytest.mark.parametrize("size", [1, 2])
    def test_observer_passed_twice(self, kind, size):
        """An observer on node 3 sees the group arrive twice and leave
        in between."""
        scripts, starts = self.group(
            kind, size, [1, 2, 3, 4, 3, 2, 1, 0]
        )
        observer = [("wait", 1, None), ("observe", 10), ("wait", 3, None)]
        self.run(scripts + [observer], starts + [3])

    # Watches that hold on the group's own size: they fire on the
    # first arrival, so no segment of two rounds is safe.
    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    @pytest.mark.parametrize("size, watch", [
        (1, ("gt", 0)), (1, ("ne", 2)), (1, ("eq", 1)), (1, ("lt", 2)),
        (2, ("gt", 1)), (2, ("ne", 1)), (2, ("eq", 2)), (2, ("lt", 3)),
    ])
    def test_watch_fires_on_the_group_size(self, kind, size, watch):
        scripts, starts = self.group(kind, size, [1, 2, 3, 4, 5], watch)
        sim = self.run(scripts + [[("wait", 40, None)]], starts + [6])
        assert sim.segments == 0

    # A plain waiter on the first arrival's node changes the verdict
    # there: it cancels a watch that holds on the group's size (which
    # then fires on the second arrival), or it fires a ``gt`` watch.
    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    @pytest.mark.parametrize("size, watch", [
        (1, ("ne", 2)), (1, ("eq", 1)), (1, ("lt", 2)),
        (2, ("ne", 3)), (2, ("eq", 2)), (2, ("lt", 3)),
        (2, ("gt", 2)),
    ])
    def test_standing_agent_changes_the_watch_verdict(
        self, kind, size, watch
    ):
        scripts, starts = self.group(kind, size, [1, 2, 3, 4, 5], watch)
        sim = self.run(scripts + [[("wait", 40, None)]], starts + [2])
        assert sim.segments == (watch[0] != "gt")

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    @pytest.mark.parametrize("size", [1, 2])
    def test_route_cut_by_an_invalid_absolute_step(self, kind, size):
        """Port 2 does not exist on a ring: ``walk`` stops quietly
        before it, ``walk_summary`` is rejected like a bad ``move``."""
        plan = ports_along(self.GRAPH, [1, 2, 3, 4]) + (2, 0)
        extra = (True,) if kind == "walk" else ()
        scripts, starts = self.group(kind, size, plan, None, *extra)
        self.run(scripts + [[("wait", 30, None)]], starts + [6])


    # Walkers group only on an identical state ``(plan, position in
    # plan, node, exit port)``.  On a star (center 0, leaves 1-4) two
    # walkers of one plan object stand on the center in round 1 and
    # differ in one part of the state only; their routes part.
    STAR = star_graph(5)

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    def test_same_plan_and_position_other_exit_port(self, kind):
        """Entered from leaves 1 and 3, the rule step ``~1`` sends the
        two walkers on to leaves 2 and 4 (where a waiter stands)."""
        plan = (0, ~1, 0, ~1, 0, ~1, 0)
        walker = [(kind, plan, None), ("wait", 5, None)]
        scripts = [walker, walker, [("wait", 1, None), ("wait", 40, None)]]
        fast, ref = run_both(self.STAR, scripts, [0, 0, 0], [1, 3, 4])
        assert_equivalent(fast, ref)
        assert fast[0].segments >= 1

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    def test_same_plan_and_exit_port_other_position(self, kind):
        """One walker starts the plan on the center while the other,
        one step in, is back there: both take port 0 next, then part."""
        plan = (0, 0, ~1, 0, ~1, 0, ~1)
        scripts = [
            [("wait", 1, None), (kind, plan, None), ("wait", 5, None)],
            [(kind, plan, None), ("wait", 5, None)],
        ]
        fast, ref = run_both(self.STAR, scripts, [0, 0], [0, 1])
        assert_equivalent(fast, ref)
        assert fast[0].segments >= 1

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    def test_same_position_and_exit_port_other_plan(self, kind):
        """Entered from leaves 1 and 2, ``~1`` and ``~0`` both send the
        walkers to leaf 2; back on the center, their plans part."""
        scripts = [
            [(kind, (0, ~1, 0, ~1, 0), None), ("wait", 5, None)],
            [(kind, (0, ~0, 0, ~2, 0), None), ("wait", 5, None)],
            [("wait", 1, None), ("wait", 40, None)],
        ]
        fast, ref = run_both(self.STAR, scripts, [0, 0, 0], [1, 2, 3])
        assert_equivalent(fast, ref)
        assert fast[0].segments >= 1

class TestCurCardsByExceptionScalar(TestCurCardsByException):
    """The CurCard scenarios with the scalar planner forced."""

    planner = "scalar"


class _AllBlockedRound(EdgeDynamics):
    """Blocks *every* edge during one specific round (and nothing
    else): the harshest liveness round a dynamics adversary can deal,
    where every attempted move must burn the round and retry."""

    __slots__ = ("block_round",)

    def __init__(self, graph, block_round: int) -> None:
        super().__init__(graph)
        self.block_round = block_round

    def blocked_edge(self, round_: int) -> int:  # pragma: no cover
        return -1

    def blocked(self, node: int, port: int, round_: int) -> bool:
        return round_ == self.block_round


class TestFaultedDifferential:
    """Crash faults and dynamic edges agree byte-for-byte between the
    event-compressed scheduler and the naive reference, on the same
    ring / torus / random-regular families as the unfaulted suite."""

    FAMILIES = ("ring6", "torus33", "regular8")

    @pytest.mark.parametrize("graph_name", FAMILIES)
    def test_crash_before_wake(self, graph_name):
        """An agent crashed before its wake round never acts — and a
        dormant victim crashed before any visit is simply removed."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour, None), ("wait", 4, None)],
            [("move", 0, None), ("wait", 6, None)],
            [("stable", 3), ("move", 1, None)],
        ]
        # Agent 2 wakes at round 9 but crashes at 4; agent 3 is
        # dormant and crashes before the tour reaches it.
        assert_equivalent(*run_both(
            graph, scripts, [0, 9, None],
            faults=[(2, 4), (3, 1)],
        ))

    @pytest.mark.parametrize("graph_name", FAMILIES)
    @pytest.mark.parametrize("crash_round", [3, 7, 12])
    def test_crash_mid_walk_segment(self, graph_name, crash_round):
        """Crashing a walker mid-plan truncates its batched segment at
        exactly the fault round on both schedulers."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour + tour, None)],
            [("wait", 2, None), ("walk", tour, ("gt", 1))],
        ]
        assert_equivalent(*run_both(
            graph, scripts, [0, 0],
            faults=[(1, crash_round)],
        ))

    @pytest.mark.parametrize("graph_name", FAMILIES)
    def test_crash_of_last_mover(self, graph_name):
        """Crashing the only still-active agent must end the run
        identically (no survivor left to advance the round clock)."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [
            [("wait", 3, None)],
            [("wait", 5, None)],
            [("walk", tour + tour + tour, None)],
        ]
        assert_equivalent(*run_both(
            graph, scripts, [0, 0, 0],
            faults=[(3, 20)],
            horizon=500,
        ))

    @pytest.mark.parametrize("graph_name", FAMILIES)
    def test_fully_blocked_round(self, graph_name):
        """A round in which every edge is blocked: all movers burn the
        round and retry, watchers see no arrivals, and both schedulers
        place every delayed move identically."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour, None), ("wait", 3, None)],
            [("move", 0, None), ("move", 1, ("gt", 1)), ("wait", 4, None)],
            [("wait", 2, ("gt", 1)), ("move", 1, None)],
        ]
        assert_equivalent(*run_both(
            graph, scripts, [0, 0, 2],
            dynamics=lambda g: _AllBlockedRound(g, block_round=3),
        ))

    @pytest.mark.parametrize("graph_name", FAMILIES)
    @pytest.mark.parametrize("strategy", ["ring-sweep:2", "ring-random"])
    def test_builtin_dynamics_schedules(self, graph_name, strategy):
        """The shipped sweep/hash adversaries agree across schedulers
        (the hash schedule is stateless, so both instances see the
        identical blocked-edge sequence)."""
        graph = EXTENDED_GRAPHS[graph_name]
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour + tour, None)],
            [("stable", 3), ("move", 1, None), ("wait", 5, None)],
            [("wait", 4, ("gt", 1)), ("move", 0, None)],
        ]
        assert_equivalent(*run_both(
            graph, scripts, [0, 0, None],
            dynamics=lambda g: make_dynamics(strategy, g, seed=13),
        ))

    @pytest.mark.parametrize("graph_name", FAMILIES)
    @pytest.mark.parametrize("strategy", ["ring-sweep", "ring-random"])
    def test_walk_summary_cohort_under_dynamics(self, graph_name, strategy):
        """Blocked edges cut a later ``walk_summary`` walker's route
        below the routes already planned for earlier walkers."""
        graph = EXTENDED_GRAPHS[graph_name]
        rule = tuple(~(i % 3) for i in range(24))
        scripts = [
            [("walk_summary", rule, None), ("wait", 3, None)],
            [("walk_summary", rule[5:], None),
             ("walk_summary", rule, ("gt", 1))],
            [("walk_summary", rule[2:], ("eq", 2)), ("wait", 4, None)],
        ]
        assert_equivalent(*run_both(
            graph, scripts, [0, 0, 0],
            dynamics=lambda g: make_dynamics(strategy, g, seed=13),
        ))

    @pytest.mark.parametrize("graph_name", FAMILIES)
    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_faulted_programs_agree(self, graph_name, seed):
        """Seeded random scripts with seeded crash schedules (and, on
        odd seeds, hash dynamics): the fault-handling differential
        analogue of the main randomized suite."""
        graph = EXTENDED_GRAPHS[graph_name]
        min_degree = min(graph.degree(v) for v in graph.nodes())
        rng = random.Random(f"faults/{graph_name}/{seed}")
        tour = tuple(covering_tour(graph))
        scripts = [
            [("walk", tour, rng.choice(WATCHES))]
            + random_script(rng, min_degree, max_ops=4)
        ]
        agents = rng.randrange(2, min(5, graph.n) + 1)
        for _ in range(agents - 1):
            scripts.append(random_script(rng, min_degree))
        wakes = [0] + [
            rng.choice([None, 0, rng.randrange(1, 7)])
            for _ in range(agents - 1)
        ]
        victims = rng.sample(range(1, agents + 1), rng.randrange(1, agents))
        faults = sorted(
            (label, rng.randrange(0, 25)) for label in victims
        )
        dynamics = (
            (lambda g: make_dynamics("ring-random", g, seed=seed))
            if seed % 2
            else None
        )
        fast, ref = run_both(
            graph, scripts, wakes,
            faults=faults, dynamics=dynamics, horizon=400,
        )
        assert_equivalent(fast, ref)
        assert_equivalent(ref, run_every_round(
            graph, scripts, wakes,
            faults=faults, dynamics=dynamics, horizon=400,
        ))


class _Stalls(EdgeDynamics):
    """Blocks every edge leaving ``node`` in the rounds ``stalls[node]``
    (any container of rounds; a ``range`` can block for good)."""

    __slots__ = ("stalls",)

    def __init__(self, graph, stalls) -> None:
        super().__init__(graph)
        self.stalls = stalls

    def blocked_edge(self, round_: int) -> int:  # pragma: no cover
        return -1

    def blocked(self, node: int, port: int, round_: int) -> bool:
        return round_ in self.stalls.get(node, ())


class TestStallsInSegments:
    """Blocked edges become stall rounds inside walk segments: the
    walker stays put and retries its port, exactly as the per-step
    retry does.  Ring ``0-1-2-3-4-5-0``; each scenario runs with
    ``walk`` and with ``walk_summary``, and must match the reference."""

    GRAPH = EXTENDED_GRAPHS["ring6"]

    def run(self, kind, routes, after, wakes, starts, stalls, others,
            horizon=None):
        """The first agents walk ``routes`` (``(nodes, watch)`` pairs)
        with ``kind`` and then run ``after``; the rest run the scripts
        ``others``.  Returns the WalkSegments that stall."""
        scripts = [
            [(kind, ports_along(self.GRAPH, route), watch)] + after
            for route, watch in routes
        ] + others
        collector = ListProcessor()
        fast, ref = run_both(
            self.GRAPH, scripts, wakes, starts,
            dynamics=lambda g: _Stalls(g, stalls),
            horizon=horizon, events=EventDispatcher([collector]),
        )
        assert_equivalent(fast, ref)
        blocked = collector.of_type(EdgeBlocked)
        assert len(blocked) == fast[0].edges_blocked > 0
        return [
            seg for seg in collector.of_type(WalkSegment)
            if any(
                route[t] == route[t + 1]
                for route in seg.routes for t in range(seg.length)
            )
        ]

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    def test_stall_mid_segment(self, kind):
        """Three rounds blocked at node 2 sit inside one segment; the
        walker transits a plain waiter before and after."""
        stalled = self.run(
            kind, [([0, 1, 2, 3, 4, 5, 0, 1, 2], None)],
            [("wait", 3, None)], [0, 0], [0, 3],
            {2: range(2, 5)}, others=[[("wait", 60, None)]],
        )
        assert stalled and stalled[0].length == 11

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    def test_pair_meets_a_stalled_walker(self, kind):
        """The pair's second walker is held on node 2 while the first
        arrives there (CurCard 2 on arrival); both then leave
        together."""
        stalled = self.run(
            kind,
            [([0, 1, 2, 3, 4], ("gt", 2)), ([2, 3, 4, 5, 0], None)],
            [("wait", 3, None)], [0, 0, 0], [0, 2, 5],
            {2: range(0, 4)}, others=[[("wait", 60, None)]],
        )
        assert stalled and len(stalled[0].walkers) == 2

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    def test_stall_just_before_a_watched_node(self, kind):
        """The walker is held on node 2, next to a watching waiter on
        node 3: no segment may end on the stall, and none may enter
        the watched node, so the wait runs through per-step retries."""
        self.run(
            kind, [([0, 1, 2, 3, 4, 5, 0], None)],
            [("wait", 3, None)], [0, 0, 0], [0, 3, 5],
            {2: range(2, 5)},
            others=[[("wait", 100, ("gt", 1))], [("wait", 60, None)]],
        )

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    def test_heap_event_due_mid_stall(self, kind):
        """A waiter's move falls due while the walker is held on node
        2: the segment holding the earlier stall on node 1 ends on the
        last round the walker moved."""
        stalled = self.run(
            kind, [([0, 1, 2, 3, 4, 5, 0, 1], None)],
            [("wait", 3, None)], [0, 0], [0, 4],
            {1: {1}, 2: range(3, 9)},
            others=[[("wait", 6, None), ("move", 0, None),
                     ("wait", 30, None)]],
        )
        assert stalled and stalled[0].length == 3

    @pytest.mark.parametrize("kind", ["walk", "walk_summary"])
    def test_edge_blocked_for_good_under_a_horizon(self, kind):
        """Node 2's edges never come back: the walker stalls there
        until the graceful horizon ends the run."""
        self.run(
            kind, [([0, 1, 2, 3, 4, 5, 0], None)],
            [("wait", 3, None)], [0, 0], [0, 4],
            {1: {1}, 2: range(3, 10**9)},
            others=[[("wait", 1000, None)]], horizon=30,
        )


class TestFaultedSearchTrial:
    """A whole ``gather_known`` trial on a dynamic ring agrees with the
    reference: the first trial of the seed-0 hill-climb search over
    ring n=5 with ``ring-sweep`` dynamics and one random crash."""

    TRIAL = {
        "key": "gather_known/ring/n=5/labels=1-2/place=nodes:1-2/"
               "wake=explicit:10-0/faults=crash:2@128/dyn=ring-sweep/seed=0",
        "algorithm": "gather_known",
        "family": "ring",
        "n": 5,
        "n_bound": 5,
        "labels": [1, 2],
        "messages": None,
        "seed": 0,
        "graph_seed": 5665171331674006558,
        "placement": "nodes:1-2",
        "wake_schedule": "explicit:10-0",
        "faults": "crash:2@128",
        "dynamics": "ring-sweep",
    }

    @pytest.mark.slow
    def test_trial_matches_reference(self):
        trial = TrialSpec.from_dict(self.TRIAL)
        graph = _build_graph(trial)
        starts, wakes = resolve_scenario(trial, graph, 0)
        faults = _resolve_trial_faults(trial, wakes, 0)
        prepared, horizon = _prepare_faulted(
            trial, graph, None, starts, wakes, faults, 0
        )
        fast = prepared.simulation
        ref = ReferenceSimulation(
            graph,
            fast.specs,
            max_events=fast.max_events,
            faults=faults,
            dynamics=make_dynamics(trial.dynamics, graph),
            horizon=horizon,
        )

        def summary(result):
            # Payloads are GatherOutcome objects without __eq__.
            return (
                result.final_round, result.total_moves, result.events,
                result.crashed_labels, result.timed_out,
                [(o.label, o.wake_round, o.finish_round, o.finish_node,
                  o.declared, o.crashed, o.moves, repr(o.payload))
                 for o in result.outcomes],
            )

        fast_summary = summary(fast.run())
        assert fast_summary == summary(ref.run())
        assert fast_summary[:3] == (109248, 7332, 9491)
        assert fast.edges_blocked == ref.edges_blocked == 1772
        # Blocked edges stall inside segments instead of cutting them.
        assert fast.segments <= 250


def _trial_summary(result):
    """A run's outcome, comparable across schedulers (payloads are
    outcome objects without ``__eq__``), or the raised error."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return (
        result.final_round, result.total_moves, result.events,
        result.crashed_labels, result.timed_out,
        [(o.label, o.wake_round, o.finish_round, o.finish_node,
          o.declared, o.crashed, o.moves, repr(o.payload))
         for o in result.outcomes],
    )


def _run_to_summary(sim):
    try:
        return _trial_summary(sim.run())
    except Exception as exc:  # compared against the other scheduler's
        return _trial_summary(exc)


class TestUnknownSizeTrials:
    """Whole ``GatherUnknownUpperBound`` trials agree with the oracle.

    Their clocks reach hundreds of digits, so the oracle runs them
    thanks to its idle-round jump; the paced walks of the ball
    traversal and the unwind are most of their edges.  Trials are built
    as the runner builds them, failures included: ``random:20`` wakes
    that exceed the hypothesis budget must fail identically."""

    GRID = ExperimentSpec(
        algorithm="gather_unknown",
        family="edge",
        sizes=(2,),
        label_sets=((1, 2), (2, 3), (1, 3)),
        seeds=(0, 1),
        wake_schedules=("simultaneous", "staggered:4", "random:20"),
    )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "trial", GRID.trials(), ids=lambda trial: trial.key
    )
    def test_gather_unknown_trial_matches_reference(self, trial):
        graph = _build_graph(trial)
        starts, wakes = resolve_scenario(trial, graph, 0)
        fast = prepare_gather_unknown(
            graph, list(trial.labels), start_nodes=starts, wake_rounds=wakes
        ).simulation
        ref = ReferenceSimulation(graph, fast.specs, max_events=fast.max_events)
        fast_summary = _run_to_summary(fast)
        assert fast_summary == _run_to_summary(ref)
        assert fast._c_paced_batches.value > 0

    @pytest.mark.slow
    def test_gossip_unknown_trial_matches_reference(self, monkeypatch):
        built = []

        class Recorded(Simulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(runs, "Simulation", Recorded)
        graph = single_edge()
        report = runs.run_gossip_unknown(
            graph, [1, 2], ["01", "1"], start_nodes=[0, 1],
            wake_rounds=[0, 3],
        )
        (fast,) = built
        ref = ReferenceSimulation(graph, fast.specs, max_events=fast.max_events)
        assert _trial_summary(fast.result()) == _run_to_summary(ref)
        assert report.events == fast.result().events


class TestPlannerParity:
    """Both planners hand the scheduler the same segments: equal
    ``WalkSegment`` events and walk-watch fire counts on a cohort whose
    later walker's watch cuts the joint segment."""

    def run_observed(self, planner, monkeypatch):
        if planner == "scalar":
            force_scalar_planner(monkeypatch)
        graph = ring(8)
        scripts = [
            [("walk_summary", ports_along(graph, [0, 1, 0, 7, 0, 1]),
              None)],
            [("walk_summary", ports_along(graph, [3, 4, 5, 6, 7]),
              ("gt", 1))],
            [("wait", 30, None)],
        ]
        collector = ListProcessor()
        with metrics_registry.attached(metrics_registry.Registry()) as reg:
            Simulation(
                graph, _specs(scripts, [0, 0, 0], [0, 3, 5]),
                events=EventDispatcher([collector]),
            ).run()
        segments = [e for e in collector.events if isinstance(e, WalkSegment)]
        return segments, reg.counter("sim.watch.fires").value

    def test_walk_segments_and_watch_fires_match(self, monkeypatch):
        static = self.run_observed("static", monkeypatch)
        scalar = self.run_observed("scalar", monkeypatch)
        assert scalar == static
        segments, watch_fires = scalar
        assert segments[0].length == 2
        assert all(
            len(route) == seg.length + 1
            for seg in segments for route in seg.routes
        )
        assert watch_fires == 1


@settings(max_examples=120, deadline=None)
@given(
    graph_name=st.sampled_from(sorted(GRAPHS)),
    scripts=st.lists(script_strategy, min_size=2, max_size=3),
    wake_picks=st.lists(st.integers(0, 6), min_size=3, max_size=3),
    data=st.data(),
)
def test_differential_property(graph_name, scripts, wake_picks, data):
    """Property: both simulators agree on every randomized scenario."""
    graph = GRAPHS[graph_name]
    scripts = scripts[: graph.n]  # at most one agent per node
    if len(scripts) < 2:
        scripts = scripts + [[("wait", 3, None)]]
        scripts = scripts[: max(2, min(graph.n, len(scripts)))]
    if len(scripts) > graph.n:
        scripts = scripts[: graph.n]
    wakes = [0] + [wake_picks[i % 3] for i in range(len(scripts) - 1)]
    assert_equivalent(*run_both(graph, scripts, wakes))


def _stepped(scripts):
    """The scripts with every paced op replaced by its per-step
    definition."""
    return [
        [("paced_steps",) + op[1:] if op[0] == "paced" else op
         for op in script]
        for script in scripts
    ]


def _observed_run(graph, scripts, wakes, starts, dynamics=None, **kw):
    """A fast-scheduler run in trace mode with an event collector:
    ``(sim, result or exception, events)``."""
    collector = ListProcessor()
    sim = Simulation(
        graph,
        _specs(scripts, wakes, starts),
        trace=True,
        events=EventDispatcher([collector]),
        dynamics=None if dynamics is None else dynamics(graph),
        **kw,
    )
    try:
        out = sim.run()
    except Exception as exc:
        out = exc
    return sim, out, collector.events


@pytest.mark.parametrize("pace", range(6))
class TestPacedWalks:
    """Paced walk ops, which the scheduler advances jointly across
    walkers between interactions, agree with the oracle (which runs
    them a round at a time) and with their per-step definition ``wait
    pace; move`` on the fast scheduler — results, ``move_log`` and the
    event stream, ``AgentMove`` and ``RoundAdvance`` included."""

    RING = EXTENDED_GRAPHS["ring6"]  # nodes 0-1-2-3-4-5-0

    def check(self, graph, scripts, wakes, starts=None, batched=True,
              **kw):
        assert_equivalent(*run_both(graph, scripts, wakes, starts, **kw))
        paced = _observed_run(graph, scripts, wakes, starts, **kw)
        stepped = _observed_run(graph, _stepped(scripts), wakes, starts, **kw)
        assert_equivalent(paced[:2], stepped[:2])
        assert paced[2] == stepped[2]
        if batched is not None:
            assert (paced[0]._c_paced_batches.value > 0) == batched
        return paced

    def laps(self, route, times):
        return ports_along(self.RING, route) * times

    def test_walkers_cross_one_edge_in_the_same_round(self, pace):
        """Both agents of the edge swap nodes in every move: no node's
        CurCard ever varies, so the stability waits after the walks
        must see no change."""
        scripts = [
            [("paced", (0,) * 7, pace, False, None), ("stable", 4),
             ("wait", 2, None)],
            [("paced", (0,) * 5, pace, False, None), ("stable", 3)],
        ]
        self.check(GRAPHS["edge"], scripts, [0, 0])

    def test_lockstep_pair_swaps_then_parts(self, pace):
        """Two walkers in step swap nodes three times (no count
        changes), then part; stability readers on their nodes and on
        the nodes they pass afterwards see only the parting moves."""
        scripts = [
            [("paced", ports_along(self.RING, [0, 1, 0, 1, 2, 3, 4]), pace,
              False, None), ("stable", 6)],
            [("paced", ports_along(self.RING, [1, 0, 1, 0, 5, 4, 3]), pace,
              False, None), ("stable", 9)],
            [("wait", 45, None), ("stable", 40)],
        ]
        self.check(self.RING, scripts, [0, 0, 0], [0, 1, 3])

    def test_walkers_end_together_then_walk_jointly(self, pace):
        """Walkers in step end their paced walks in one round and walk
        on as one cohort: the segment lists them in the per-step
        resume order, which the batch must hand on."""
        scripts = [
            [("paced", self.laps([0, 1, 2, 3], 1), pace, False, None),
             ("walk", self.laps([3, 4, 5, 0, 1], 1), None)],
            [("paced", self.laps([3, 4, 5, 0], 1), pace, False, None),
             ("walk", self.laps([0, 1, 2, 3, 4], 1), None)],
        ]
        paced = self.check(self.RING, scripts, [0, 0], [0, 3])
        (segment,) = [e for e in paced[2] if isinstance(e, WalkSegment)]
        assert segment.walkers == (0, 1)

    def test_walkers_in_file_cancel_on_the_middle_node(self, pace):
        """On the path ``0-1-2-3`` two walkers in step move right
        twice: each move's arrival and departure cancel on the node
        between them, so node 2 last changed on the first move, and
        the stability wait there must count from it."""
        graph = path_graph(4)
        scripts = [
            [("paced", ports_along(graph, [0, 1, 2]), pace, False, None),
             ("stable", 2 * pace + 4)],
            [("paced", ports_along(graph, [1, 2, 3]), pace, False, None),
             ("wait", 1, None)],
        ]
        self.check(graph, scripts, [0, 0], [0, 1])

    def test_interleaved_walkers_with_other_paces(self, pace):
        """Two walkers with other paces and phases tour the ring in
        opposite directions, then wait for stability; a third agent
        reads stability on a node both crossed."""
        scripts = [
            [("paced", self.laps([0, 1, 2, 3, 4, 5, 0], 2), pace, False,
              None), ("stable", 5)],
            [("paced", self.laps([3, 2, 1, 0, 5, 4, 3], 2), pace + 2,
              False, None), ("stable", 2)],
            [("wait", 40, None), ("stable", 60), ("wait", 1, None)],
        ]
        self.check(self.RING, scripts, [0, 3, 0], [0, 3, 5])

    def test_lockstep_walkers_with_other_paces(self, pace):
        """Walkers whose move rounds coincide only now and then (paces
        p and 2p + 1) cross and meet on the edge."""
        scripts = [
            [("paced", (0,) * 9, pace, False, None), ("stable", 3)],
            [("paced", (0,) * 5, 2 * pace + 1, False, None), ("stable", 4)],
        ]
        self.check(GRAPHS["edge"], scripts, [0, 0])

    def test_watched_waiter_passed_twice(self, pace):
        """The first pass fires the waiter's ``eq 2`` watch, the second
        does not fire its ``gt 2`` watch."""
        graph = path_graph(5)
        route = [0, 1, 2, 3, 4, 3, 2, 1, 0]
        scripts = [
            [("paced", ports_along(graph, route), pace, False, None)],
            [("wait", 200, ("eq", 2)), ("wait", 200, ("gt", 2))],
        ]
        self.check(graph, scripts, [0, 0], [0, 2])

    def test_stable_reader_after_a_batch(self, pace):
        """A plain waiter's node is crossed inside batches; its later
        stability window reaches back over the crossings."""
        scripts = [
            [("paced", self.laps([0, 1, 2, 3, 4, 5, 0], 2), pace, False,
              None), ("wait", 3, None)],
            [("wait", 90, None), ("stable", 130)],
        ]
        self.check(self.RING, scripts, [0, 0], [0, 2])

    def test_dormant_agent_on_the_route(self, pace):
        """The first arrival on a dormant agent's node wakes it."""
        scripts = [
            [("paced", self.laps([0, 1, 2, 3, 4, 5, 0], 2), pace, False,
              None)],
            [("move", 0, None), ("wait", 3, None)],
        ]
        self.check(self.RING, scripts, [0, None], [0, 3])

    @pytest.mark.parametrize("victim, at", [(1, 3), (1, 9), (2, 8)])
    def test_crash_inside_a_stretch(self, pace, victim, at):
        """A crash of the walker or of a waiter on its route, falling
        inside a stretch of paced moves."""
        scripts = [
            [("paced", self.laps([0, 1, 2, 3, 4, 5, 0], 2), pace, False,
              None)],
            [("wait", 100, None), ("stable", 3)],
        ]
        self.check(
            self.RING, scripts, [0, 0], [0, 3],
            faults=[(victim, at * (pace + 1) + 1)],
        )

    @pytest.mark.parametrize("budget", [3, 8, 13])
    def test_event_budget_inside_a_stretch(self, pace, budget):
        scripts = [
            [("paced", self.laps([0, 1, 2, 3, 4, 5, 0], 2), pace, False,
              None)],
            [("paced", self.laps([3, 4, 5, 0, 1, 2, 3], 1), pace + 1,
              False, None)],
        ]
        self.check(self.RING, scripts, [0, 1], [0, 3], max_events=budget,
                   batched=None if budget < 8 else True)

    @pytest.mark.parametrize("edges", [2, 7])
    def test_horizon_and_round_budget_inside_a_stretch(self, pace, edges):
        scripts = [
            [("paced", self.laps([0, 1, 2, 3, 4, 5, 0], 2), pace, False,
              None)],
            [("wait", 500, None)],
        ]
        last = edges * (pace + 1) + 1
        self.check(self.RING, scripts, [0, 0], [0, 3], horizon=last)
        self.check(self.RING, scripts, [0, 0], [0, 3], max_round=last)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_stop_degree(self, pace, where):
        """On ``lollipop(4, 4)`` the tail ``7-6-5-4`` has degrees 1-2,
        the clique junction 0 degree 4: the walk stops on arriving
        there, or at once from a clique node."""
        graph = lollipop(4, 4)
        route = {
            "first": [1, 2, 3],
            "middle": [7, 6, 5, 4, 0, 1, 2],
            "last": [7, 6, 5, 4, 0, 1],
        }[where]
        scripts = [
            [("paced", ports_along(graph, route), pace, False, 3),
             ("stable", 2)],
            [("wait", 60, None)],
        ]
        self.check(graph, scripts, [0, 0], [route[0], 5],
                   batched=where != "first")

    @pytest.mark.parametrize("invalid_at", [0, 3, 5])
    @pytest.mark.parametrize("stop", [True, False])
    def test_invalid_step(self, pace, invalid_at, stop):
        """An invalid absolute port (5 on the ring) at the first, a
        middle or the last step: a quiet stop, or the per-step
        rejection after the wait."""
        plan = list(self.laps([0, 1, 2, 3, 4, 5, 0], 1))
        plan[invalid_at] = 5
        scripts = [
            [("paced", tuple(plan), pace, stop, None), ("wait", 2, None)],
            [("wait", 40, None)],
        ]
        self.check(self.RING, scripts, [0, 0], [0, 3],
                   batched=invalid_at > 0)

    def test_ring_sweep_dynamics(self, pace):
        """On dynamic edges a paced move keeps the per-step path,
        blocked-edge retries included."""
        scripts = [
            [("paced", self.laps([0, 1, 2, 3, 4, 5, 0], 2), pace, False,
              None)],
            [("paced", self.laps([3, 2, 1, 0, 5, 4, 3], 1), pace, False,
              None), ("stable", 3)],
        ]
        self.check(
            self.RING, scripts, [0, 2], [0, 3], batched=False,
            dynamics=lambda g: make_dynamics("ring-sweep", g, seed=3),
        )


def _by_rows(scripts):
    """The scripts with every EXPLO run by its per-edge definition."""
    return [
        [("explo_rows",) + op[1:] if op[0] == "explo" else op
         for op in script]
        for script in scripts
    ]


class TestWalksByReference(_PlannerChoice):
    """EXPLO reads its walks by reference: the minimum CurCard by
    exception and the backtrack from a plan memoized on the forward
    walk's route.  Every scenario must match the oracle (whose walks
    arrive one edge at a time, so their backtracks take the fallback
    that builds the plan from entry ports) and, on the fast scheduler,
    EXPLO's per-edge definition: results, ``move_log`` and the event
    stream.  On ring ``0-1-...-7-0`` the plans are absolute."""

    RING8 = ring(8)

    @pytest.fixture(autouse=True)
    def _count_memo_backtracks(self, monkeypatch):
        from repro.sim import agent as agent_mod

        self.memo_backtracks = 0
        route_backtrack = agent_mod._route_backtrack

        def counted(*args):
            self.memo_backtracks += 1
            return route_backtrack(*args)

        monkeypatch.setattr(agent_mod, "_route_backtrack", counted)

    def plan(self, route):
        return ports_along(self.RING8, route)

    def check(self, scripts, wakes, starts):
        fast, ref = run_both(self.RING8, scripts, wakes, starts)
        assert_equivalent(fast, ref)
        by_ref = _observed_run(self.RING8, scripts, wakes, starts)
        by_rows = _observed_run(self.RING8, _by_rows(scripts), wakes, starts)
        assert_equivalent(by_ref[:2], by_rows[:2])
        assert by_ref[2] == by_rows[2]
        return by_ref[0], fast[1].outcomes

    @pytest.mark.parametrize("watch", [None, ("gt", 1), ("eq", 3)])
    def test_two_groups_meet_mid_tour(self, watch):
        """Tours from nodes 0 and 4 in opposite directions meet on node
        2 in the forward part and again in the backtrack; a ``gt 1``
        watch cuts both tours at the first meeting, an ``eq 3`` watch
        never fires."""
        scripts = [
            [("explo", self.plan([0, 1, 2, 3, 4, 5]), watch, None)],
            [("explo", self.plan([4, 3, 2, 1, 0, 7]), watch, None)],
        ]
        sim, outcomes = self.check(scripts, [0, 0], [0, 4])
        if watch == ("gt", 1):
            assert [o.payload for o in outcomes] == [[("explo!", 2, 2)]] * 2
        else:
            assert [o.payload[0][:3] for o in outcomes] == \
                [("explo", 1, 10)] * 2
            assert sim.segments == 2  # meetings do not cut segments
            assert self.memo_backtracks >= 2

    @pytest.mark.parametrize("same_plan", [True, False])
    def test_every_arrival_is_a_meeting(self, same_plan):
        """Two agents on node 1 tour one route.  With one plan object
        they are one group of size 2; with two equal plan objects they
        are two groups that meet on every arrival.  Either way every
        CurCard is at least 2, and 3 on the waiter's node 3."""
        plan = self.plan([1, 2, 3, 4, 5])
        other = plan if same_plan else tuple(list(plan))
        scripts = [
            [("move", self.plan([0, 1])[0], None),
             ("explo", plan, None, None)],
            [("wait", 1, None), ("explo", other, None, None)],
            [("wait", 40, None)],
        ]
        sim, outcomes = self.check(scripts, [0, 0, 0], [0, 1, 3])
        for o in outcomes[:2]:
            assert o.payload[-1][:3] == ("explo", 2, 8)
        assert sim.segments == 2

    def test_tour_cut_by_its_watch(self):
        """A standing agent on node 3 fires the watch in the forward
        part."""
        scripts = [
            [("explo", self.plan([0, 1, 2, 3, 4, 5]), ("gt", 1), None)],
            [("wait", 40, None)],
        ]
        _sim, outcomes = self.check(scripts, [0, 0], [0, 3])
        assert outcomes[0].payload == [("explo!", 3, 2)]

    def test_tour_cut_by_its_watch_on_the_backtrack(self):
        """An agent that steps onto node 0 in round 4 fires the watch on
        the backtrack's last arrival."""
        scripts = [
            [("explo", self.plan([0, 1, 2, 3, 4, 5]), ("gt", 1), None)],
            [("wait", 4, None), ("move", self.plan([7, 0])[0], None),
             ("wait", 40, None)],
        ]
        _sim, outcomes = self.check(scripts, [0, 0], [0, 7])
        assert outcomes[0].payload == [("explo!", 10, 2)]

    @pytest.mark.parametrize("limit", [1, 3, 5, 6, 8, 11, 12, 20])
    def test_tour_truncated_by_limit(self, limit):
        """TZ's last slot: ``limit`` cuts the forward part (below the
        plan's length 6) or the backtrack (below 12), passing a waiter
        on node 2."""
        scripts = [
            [("explo", self.plan([0, 1, 2, 3, 4, 5, 6]), None, limit),
             ("wait", 2, None)],
            [("wait", 40, None)],
        ]
        _sim, outcomes = self.check(scripts, [0, 0], [0, 2])
        assert outcomes[0].payload[0][2:4] == (min(limit, 12),) * 2

    def test_forward_walk_split_by_another_agents_moves(self):
        """Another agent's moves in rounds 2-4 force the tour's edges
        there through the per-edge machinery, so the forward walk
        arrives in pieces and its backtrack takes the fallback; the
        entry ports are recorded by ``ctx.entries_log`` throughout."""
        scripts = [
            [("record",),
             ("explo", self.plan([0, 1, 2, 3, 4, 5, 6]), None, None),
             ("recorded",)],
            [("wait", 2, None), ("move", 0, None), ("move", 1, None),
             ("move", 0, None), ("wait", 40, None)],
        ]
        sim, outcomes = self.check(scripts, [0, 0], [0, 7])
        assert sim.segments >= 2
        assert self.memo_backtracks == 0
        recorded = outcomes[0].payload[1][1]
        assert len(recorded) == 12

    def test_walk_recorded_by_entries_log(self):
        """``ctx.entries_log`` records every entry port of a tour that
        ran as whole segments, backtrack included."""
        scripts = [
            [("record",),
             ("explo", self.plan([0, 1, 2, 3, 4, 5]), None, None),
             ("recorded",)],
            [("wait", 40, None)],
        ]
        sim, outcomes = self.check(scripts, [0, 0], [0, 3])
        assert sim.segments == 2
        assert self.memo_backtracks >= 1
        recorded = outcomes[0].payload[1][1]
        assert len(recorded) == 10


class TestWalksByReferenceScalar(TestWalksByReference):
    """The reference-path scenarios with the scalar planner forced: its
    one-off routes carry the same references."""

    planner = "scalar"


@pytest.mark.parametrize("algorithm, family, size", [
    ("gather_known", "ring", 5),
    ("talking", "torus", 9),
])
def test_cleared_and_warm_route_caches_agree(algorithm, family, size):
    """One trial from cleared route caches and again from warm ones
    (chases, meeting and backtrack memos all reused): byte-identical
    records, ``move_log`` and event stream."""
    from repro.baselines import talking
    from repro.events import stream as event_stream
    from repro.runner.trial import execute_trial
    from repro.sim import segments

    (trial,) = ExperimentSpec(
        algorithm=algorithm, family=family, sizes=(size,),
        label_sets=((1, 2),), seeds=(0,),
        wake_schedules=("staggered:3",),
    ).trials()

    def observe(clear):
        if clear:
            segments._GRAPH_CACHES.clear()
        collector = ListProcessor()
        with event_stream.attached(collector):
            record = execute_trial(trial).record()
        if clear:
            segments._GRAPH_CACHES.clear()
        built = []

        class Traced(Simulation):
            def __init__(self, *args, **kwargs):
                kwargs["trace"] = True
                super().__init__(*args, **kwargs)
                built.append(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runs, "Simulation", Traced)
            mp.setattr(talking, "Simulation", Traced)
            execute_trial(trial)
        (sim,) = built
        return record, sim.move_log, collector.events

    cold = observe(clear=True)
    warm = observe(clear=False)
    assert cold[0]["ok"], cold[0]
    assert cold == warm
    assert cold[1] and cold[2]
