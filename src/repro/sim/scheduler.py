"""Event-driven scheduler for the synchronous agent model.

The model is synchronous (Section 1.2 of the paper): in every round
each awake agent performs exactly one move instruction (``take port p``
or ``wait``).  A naive simulator would iterate rounds one by one, which
is hopeless here — ``GatherUnknownUpperBound`` contains waiting periods
of ``7 * 2**64`` rounds and the known-bound algorithm waits for
millions of rounds between moves.

This scheduler exploits a simple invariant: *node occupancies only
change in rounds in which some agent moves.*  Time therefore advances
directly from one "interesting" round to the next through a priority
queue of wake events; a wait of any length is O(1).  Rounds are plain
Python integers, so clocks beyond 10**24 (reached by the unknown-bound
algorithm) are exact.

Semantics of a round ``r``:

1. every agent due at ``r`` is resumed with an observation of the
   state *at* ``r`` and yields its next op;
2. all moves issued in round ``r`` are applied simultaneously — agents
   crossing on an edge do not notice each other;
3. nodes whose cardinality changed get ``last_change = r + 1`` and
   watching agents are woken at ``r + 1``;
4. a dormant agent whose node receives an arrival in round ``r + 1``
   wakes (starts its program) at ``r + 1``.

Walk segments
-------------
The paper's algorithms are walk-dominated (one EXPLO(N) is ~4 N^2
log N edges), so deterministic walks get the same O(1) treatment as
waits: a ``walk`` op carries a whole precomputed plan of exit ports,
and the segment planner executes the longest prefix during which the
per-step model could not have diverged as a *single* event.  Round
semantics of a segment of ``m`` rounds starting at round ``r``: the
walker moves in rounds ``r .. r+m-1`` exactly as if it had issued
``m`` individual moves (occupancies are updated accordingly, and in
trace mode the segment expands into per-edge ``move_log`` entries),
and its next op is read at round ``r+m``.  All walkers due in the
same round are planned *jointly* — their mutual meetings, and
therefore the exact CurCard each observes on every arrival, are
computed by the planner — and the segment is truncated at the first
round where anything outside the cohort could act:

* another agent's scheduled heap event falls due (``<= r+m``);
* a walker would step onto a node with a watching (``wait``-watch or
  ``wait_stable``) or dormant agent, whose wake-up needs the ordinary
  machinery (a node occupied by plain waiters is safe to transit: its
  occupants observe nothing, and their cardinality contributes to the
  walker's computed CurCard trace);
* a walker's own watch fires on a computed CurCard (that edge is the
  segment's last);
* a plan runs out, an absolute step is an invalid port, or the round /
  event budget or the graceful horizon would be crossed mid-segment.

A dynamics-blocked edge does not cut a segment.  It is a *stall
round* inside it: the walker's route repeats its node, it observes
nothing, and it tries the same port again the next round — exactly
the per-step retry.  A walker that stalls moves fewer edges than the
segment has rounds, and no segment ends on a stall (the walker's
next step there would be a retry, not a resume).

The ``events`` counter stays bit-for-bit compatible with the per-step
model: a segment of ``m`` rounds counts ``m`` (virtual) resumes per
member, which is also what a blocked move's retry rounds cost.

``last_change`` of the transited nodes is resolved on read, not per
segment: only ``wait_stable`` reads it, so each segment appends its
routes to a short log, and the log is folded in (with the per-round
rule of single moves) when a stability wait asks or when the log
reaches a fixed length.

Two planners exist — :func:`repro.sim.segments.plan_segment`, which
computes CurCards by exception on cached routes and plans every
static-edge run, and the scalar :meth:`Simulation._plan_segment` —
with one contract: both start from :meth:`Simulation._segment_horizon`
and return a :class:`SegmentPlan` of the joint length whose walkers
are references into a :class:`Route`, which one method,
:meth:`Simulation._apply_segment`, commits.  The agent is resumed with
the reference; per-edge lists are built only for whoever reads them.
Only the scalar planner runs on dynamic-edge runs, so only it plans
stalls.

Paced walks
-----------
A ``paced`` op is a walk plan with a wait of ``pace`` rounds before
every edge — by definition ``wait pace; move`` per step, two resumes
per edge.  The scheduler runs those resumes without re-entering the
generator: a paced walker's heap entry is the expiry of the wait
before its next edge or the arrival after it, and the generator
resumes only where the op ends.  Paced walkers read entry ports and
degrees, never CurCard, so their routes depend on no other agent, and
on static edges the scheduler advances *all* of them jointly, one
batch per interaction-free stretch (:meth:`Simulation._paced_batch`):
every move, wait expiry and arrival below the first round at which
another agent acts, an op ends, a fault, the horizon or a budget
falls, or a move would leave or enter a node holding a watcher or a
dormant agent — which then runs through the ordinary machinery.  A
batch commits occupancies, ``last_change``, ``events``, ``move_log``
and the event stream exactly as the per-step rounds would have.
Dynamic-edge runs keep the per-step path, retries included.

Fault injection
---------------
Crash faults, dynamic edges and the graceful round horizon (see
:mod:`repro.sim.faults` and docs/experiments.md) hang off three
constructor parameters that default to ``None``; every hot-path site
they touch costs a single ``is None`` test, keeping unfaulted runs —
and their records, traces and metrics — byte-identical to a build
without the feature.  A crash is processed at the *start* of its
round, before adversary wake-ups and resumes; a dynamics-blocked move
costs the round but not the edge (the agent retries the port next
round, one event per retry); when the horizon expires the run ends
with every live agent finalized undeclared and ``timed_out=True``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import compress
from operator import and_, eq
from typing import Callable, Iterable

from ..events import stream as _event_stream
from ..metrics import registry as _metrics_registry
from ..events.types import (
    AgentMove as _EvAgentMove,
    EdgeBlocked as _EvEdgeBlocked,
    FaultInjected as _EvFaultInjected,
    RoundAdvance as _EvRoundAdvance,
    SimulationEnd as _EvSimulationEnd,
    SimulationStart as _EvSimulationStart,
    WalkSegment as _EvWalkSegment,
    WatchFired as _EvWatchFired,
)
from ..graphs.port_graph import PortGraph
from .agent import AgentContext
from .ops import (
    _WATCH_PREDICATES,
    _arrivals,
    BudgetExceededError,
    DeadlockError,
    DECLARE,
    MOVE,
    OBSERVE,
    Observation,
    PACED,
    PacedObservation,
    SimulationError,
    WAIT,
    WAIT_STABLE,
    WALK,
    WalkObservation,
    watch_hit,
)

# Agent lifecycle states.
_DORMANT = 0
_RUNNING = 1
_DONE = 2

# Guard against non-advancing agent programs (zero-duration op loops).
_MAX_RESUMES_PER_ROUND = 100_000

# Walk segments logged for lazy ``last_change`` resolution are folded in
# once this many are pending, so runs without stability waits keep a
# bounded log.
_PENDING_SEGMENTS_CAP = 64

# A segment bound no cap has lowered yet (see _segment_horizon).
_UNBOUNDED = float("inf")


class AgentSpec:
    """Description of one agent given to :class:`Simulation`.

    Parameters
    ----------
    label:
        The agent's positive integer label (its algorithm parameter).
    start_node:
        Starting node (simulator-internal id; never shown to the agent).
    program:
        ``callable(ctx) -> generator`` producing the agent's op stream.
    wake_round:
        Round at which the adversary wakes the agent, or ``None`` for a
        dormant agent woken only by a visiting agent.
    """

    __slots__ = ("label", "start_node", "program", "wake_round")

    def __init__(
        self,
        label: int,
        start_node: int,
        program: Callable[[AgentContext], object],
        wake_round: int | None = 0,
    ) -> None:
        if label < 1:
            raise ValueError("agent labels are positive integers")
        if wake_round is not None and wake_round < 0:
            raise ValueError("wake_round must be >= 0")
        self.label = label
        self.start_node = start_node
        self.program = program
        self.wake_round = wake_round


class AgentOutcome:
    """Result record for one agent after the simulation ends."""

    __slots__ = (
        "label",
        "start_node",
        "wake_round",
        "finish_round",
        "finish_node",
        "payload",
        "declared",
        "crashed",
        "moves",
    )

    def __init__(self, label: int, start_node: int) -> None:
        self.label = label
        self.start_node = start_node
        self.wake_round: int | None = None
        self.finish_round: int | None = None
        self.finish_node: int | None = None
        self.payload: object = None
        self.declared = False
        self.crashed = False
        self.moves = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"AgentOutcome(label={self.label}, declared={self.declared}, "
            f"crashed={self.crashed}, "
            f"finish_round={self.finish_round}, node={self.finish_node}, "
            f"moves={self.moves})"
        )


class SimulationResult:
    """Aggregate outcome of a run."""

    __slots__ = (
        "outcomes",
        "events",
        "final_round",
        "total_moves",
        "crashed_labels",
        "timed_out",
    )

    def __init__(
        self,
        outcomes: list[AgentOutcome],
        events: int,
        final_round: int,
        total_moves: int,
        crashed_labels: tuple[int, ...] = (),
        timed_out: bool = False,
    ) -> None:
        self.outcomes = outcomes
        self.events = events
        self.final_round = final_round
        self.total_moves = total_moves
        # Robustness fields (fault injection; docs/experiments.md):
        # labels crashed by the fault adversary, in spec order, and
        # whether the run ended by round-horizon expiry rather than by
        # every agent terminating on its own.
        self.crashed_labels = crashed_labels
        self.timed_out = timed_out

    def gathered(self) -> bool:
        """Did every agent declare at the same node in the same round?"""
        if not self.outcomes or not all(o.declared for o in self.outcomes):
            return False
        rounds = {o.finish_round for o in self.outcomes}
        nodes = {o.finish_node for o in self.outcomes}
        return len(rounds) == 1 and len(nodes) == 1

    def declaration_round(self) -> int:
        """The common declaration round (requires :meth:`gathered`)."""
        if not self.gathered():
            raise SimulationError("agents did not gather")
        return self.outcomes[0].finish_round

    def meeting_node(self) -> int:
        """The common declaration node (requires :meth:`gathered`)."""
        if not self.gathered():
            raise SimulationError("agents did not gather")
        return self.outcomes[0].finish_node

    def payloads(self) -> list[object]:
        """Per-agent final payloads in spec order."""
        return [o.payload for o in self.outcomes]

    def survivors_gathered(self) -> bool:
        """Did every *non-crashed* agent declare at one node, one round?

        The graceful-degradation criterion: a run whose survivors
        gathered is a success of the remainder even though
        :meth:`gathered` is false (crashed agents never declare).
        """
        survivors = [o for o in self.outcomes if not o.crashed]
        if not survivors or not all(o.declared for o in survivors):
            return False
        rounds = {o.finish_round for o in survivors}
        nodes = {o.finish_node for o in survivors}
        return len(rounds) == 1 and len(nodes) == 1

    def partial_groups(self) -> tuple[int, ...]:
        """Sizes of the final co-location groups of surviving agents.

        Group sizes are reported largest-first; a fully gathered
        remainder is ``(len(survivors),)``.  Agents that never got a
        final position (impossible today) are skipped defensively.
        """
        groups: dict[int, int] = {}
        for o in self.outcomes:
            if o.crashed or o.finish_node is None:
                continue
            groups[o.finish_node] = groups.get(o.finish_node, 0) + 1
        return tuple(sorted(groups.values(), reverse=True))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SimulationResult(agents={len(self.outcomes)}, "
            f"events={self.events}, final_round={self.final_round})"
        )


def _arrival_index(arrived, t: int) -> int | None:
    """Index of route index ``t`` in ascending ``arrived`` (``None``
    when the walker stalls in that round)."""
    i = bisect_left(arrived, t)
    return i if i < len(arrived) and arrived[i] == t else None


def _first_fire(watch, k: int, extra: dict[int, int], m: int) -> int:
    """First arrival index below ``m`` whose CurCard fires ``watch``
    (``m`` when none does): CurCard is ``k`` except at ``extra``."""
    hit = _WATCH_PREDICATES[watch[0]]
    value = watch[1]
    if hit(k, value):
        # Fires at the first arrival that is no exception, unless an
        # exception before it fires or every arrival is one.
        i = 0
        while i in extra and not hit(k + extra[i], value):
            i += 1
        return i
    first = m
    for i, more in extra.items():
        if i < first and hit(k + more, value):
            first = i
    return first


class Route:
    """A planned walk route, as parallel Python lists.

    ``nodes[j + 1]`` is where the walker is after ``nodes[j]``, one
    round later; ``entries[j]`` and ``degrees[j]`` describe the
    walker's ``j``-th arrival.  A walker planned from ``offset`` over
    ``m`` rounds, ``edges`` of them arrivals, walked ``nodes[offset:
    offset + m + 1]`` and arrived as ``entries[offset:offset +
    edges]`` — on the static planner's shared
    :class:`repro.sim.segments.Chase` any offset, on the scalar
    planner's one-off routes (which repeat a node in each stall round)
    offset 0.  ``backtracks`` is the agent side's memo of reverse
    plans (see :meth:`repro.sim.agent.Walked.backtrack`).
    """

    __slots__ = ("nodes", "entries", "degrees", "backtracks")

    def __init__(self, nodes, entries, degrees) -> None:
        self.nodes = nodes
        self.entries = entries
        self.degrees = degrees
        self.backtracks: dict | None = None


class SegmentPlan:
    """A planned walk segment, the one output of both segment planners.

    ``m`` is the segment length in rounds.  ``walkers[w]`` is ``(route,
    offset, size, extra)`` for the w-th walker: the walker's rounds
    are ``route.nodes[offset:offset + m + 1]`` of a :class:`Route`,
    and its CurCard is ``size`` on every arrival except the arrival
    indices in ``extra``, where ``extra[i]`` (positive) agents are
    added.  ``extra`` holds no index past the walker's last arrival.
    Walkers in one identical state share the route and ``extra``, so
    both are read-only.  ``observer_cards[o]`` is ``(size, extra)`` for
    the o-th observer: its CurCard in each of the ``m`` rounds, by
    exception too.
    ``watch_fired`` marks a segment whose last edge fires a walk watch
    — the walk helper will raise :class:`WatchTriggered` at the resume.

    ``stalls`` is ``None`` when every walker moves in every round, so
    each has ``m`` arrivals.  Otherwise ``stalls[w]`` maps each of the
    w-th walker's blocked rounds, as an ``offset`` from the segment's
    first round, to its ``port``: in round ``round_ + offset`` the
    walker stays put (``nodes[offset + 1] == nodes[offset]``) and it
    retries ``port`` the next round.  A stall
    round has no arrival, and no walker stalls in the last round.
    """

    __slots__ = ("m", "walkers", "observer_cards", "watch_fired", "stalls")

    def __init__(
        self, m, walkers, observer_cards, watch_fired=False, stalls=None
    ) -> None:
        self.m = m
        self.walkers = walkers
        self.observer_cards = observer_cards
        self.watch_fired = watch_fired
        self.stalls = stalls


class _PacedWalk:
    """Scheduler state of one paced walk op (see ``Simulation._paced_batch``).

    ``pos`` is the plan position of the edge being crossed or waited
    for, ``port`` its exit port, and ``entries`` the entry ports of the
    edges crossed so far.  ``arrive`` says what the walker's one heap
    entry is: the arrival resume after that edge (true), or the expiry
    of the wait before it (false).
    """

    __slots__ = ("steps", "pos", "pace", "stop_degree", "port", "entries",
                 "arrive")

    def __init__(self, steps, pos, pace, stop_degree, port) -> None:
        self.steps = steps
        self.pos = pos
        self.pace = pace
        self.stop_degree = stop_degree
        self.port = port
        self.entries: list[int] = []
        self.arrive = False


def _paced_moves(first: int, period: int, length: int, bound: int):
    """``(moves, arrivals)`` of a paced route before round ``bound``.

    The route's edges are crossed in rounds ``first + j * period``
    (``j < length``) and arrived at one round later.
    """
    if bound <= first:
        return 0, 0
    n = (bound - 1 - first) // period + 1
    if n > length:
        n = length
    if first + (n - 1) * period + 1 >= bound:
        return n, n - 1
    return n, n


def _paced_events(plans, bound) -> int:
    """Resumes a paced batch's walkers make in rounds before ``bound``:
    the pending arrival, a wait expiry per move (pace > 0) and an
    arrival per move."""
    total = 0
    for entry, walk, route in plans:
        if route is None or entry[0] >= bound:
            continue
        _pos, _port, _chase, _off, length, first, period = route
        n, arrived = _paced_moves(first, period, length, bound)
        total += arrived + (n if walk.pace else 0) + (1 if walk.arrive else 0)
    return total


class Simulation:
    """Run a set of agents on a port-labelled graph.

    Parameters
    ----------
    graph:
        The network.
    specs:
        One :class:`AgentSpec` per agent; start nodes must be pairwise
        distinct (the paper's model) and labels pairwise distinct.
    max_events:
        Abort with :class:`BudgetExceededError` after this many agent
        resumptions (safety valve for runaway programs).
    max_round:
        Abort when the clock would pass this round.
    trace:
        When true, record every move as ``(round, agent_index,
        from_node, to_node)`` in :attr:`move_log`.
    events:
        An :class:`repro.events.EventDispatcher` to emit typed events
        to.  ``None`` (default) uses the process-global dispatcher
        from :mod:`repro.events.stream` — which is usually absent, in
        which case emission costs a single ``is None`` check per
        site.  ``False`` disables emission regardless of the global.
    faults:
        Crash-fault schedule: an iterable of ``(label, round)`` pairs
        (see :mod:`repro.sim.faults`).  The agent is removed at the
        *start* of its fault round — it never acts in that round, and
        unlike a declared agent it stops occupying its node, so
        watchers observe the departure.  ``None`` (default) disables
        fault handling entirely (zero hot-path cost).
    dynamics:
        An :class:`repro.sim.faults.EdgeDynamics` consulted at every
        edge traversal.  A blocked move costs the round but not the
        edge: the agent retries the same port next round (one event
        per retry round) without re-entering its program.  ``None``
        (default) keeps the graph static.
    horizon:
        Graceful-degradation round horizon: when the next event would
        fall after this round — or no agent can ever run again — the
        run ends with every live agent finalized undeclared and
        ``timed_out=True`` on the result, instead of raising.  ``None``
        (default) keeps the strict deadlock / budget behavior.
    """

    def __init__(
        self,
        graph: PortGraph,
        specs: Iterable[AgentSpec],
        max_events: int | None = None,
        max_round: int | None = None,
        trace: bool = False,
        events=None,
        faults=None,
        dynamics=None,
        horizon: int | None = None,
    ) -> None:
        self.graph = graph
        self.specs = list(specs)
        if not self.specs:
            raise SimulationError("no agents")
        starts = [s.start_node for s in self.specs]
        if len(set(starts)) != len(starts):
            raise SimulationError("agents must start at distinct nodes")
        labels = [s.label for s in self.specs]
        if len(set(labels)) != len(labels):
            raise SimulationError("agent labels must be distinct")
        if any(s.start_node < 0 or s.start_node >= graph.n for s in self.specs):
            raise SimulationError("start node out of range")
        if all(s.wake_round is None for s in self.specs):
            raise SimulationError("at least one agent must be woken")
        self.max_events = max_events
        self.max_round = max_round
        self.trace = trace
        self.move_log: list[tuple[int, int, int, int]] = []

        k = len(self.specs)
        self._pos = list(starts)
        self._state = [_DORMANT] * k
        self._gens: list = [None] * k
        self._ctxs: list[AgentContext | None] = [None] * k
        self._epoch = [0] * k
        self._entry_port: list[int | None] = [None] * k
        self._watch: list = [None] * k  # active wait-watch, if any
        self._wait_until: list = [None] * k  # watched wait's expiry round
        self._stable: list[int | None] = [None] * k  # wait_stable window
        self._walk_trace: list = [None] * k  # pending fast-path segment
        # Paced walk ops in flight (a _PacedWalk per walker, else None)
        # and how many there are; see _paced_batch.
        self._paced: list = [None] * k
        self._paced_n = 0
        self._label_index = {s.label: i for i, s in enumerate(self.specs)}
        self._outcomes = [AgentOutcome(s.label, s.start_node) for s in self.specs]

        self._counts = [0] * graph.n
        for s in self.specs:
            self._counts[s.start_node] += 1
        self._last_change = [0] * graph.n
        # Walk segments not yet folded into _last_change, as
        # ``(round, m, routes)``; see _last_change_of.
        self._pending_segments: list[tuple[int, int, list]] = []
        self._dormant_at: list[set[int]] = [set() for _ in range(graph.n)]
        self._watchers: list[set[int]] = [set() for _ in range(graph.n)]

        # Fault injection (docs/experiments.md, "Faults & dynamics").
        # All three stay None on unfaulted runs so the hot path pays at
        # most one ``is None`` test per site.
        self.horizon = horizon
        self.timed_out = False
        self._dynamics = dynamics
        self._retry_move: list[int | None] | None = (
            [None] * k if dynamics is not None else None
        )
        self._c_faults = _metrics_registry.Counter()
        self._c_edges_blocked = _metrics_registry.Counter()
        if faults:
            queue: list[tuple[int, int]] = []
            for label, fround in faults:
                fidx = self._label_index.get(label)
                if fidx is None:
                    raise SimulationError(
                        f"fault targets unknown agent label {label!r}"
                    )
                if fround < 0:
                    raise SimulationError(
                        f"fault rounds must be >= 0, got {fround}"
                    )
                queue.append((fround, fidx))
            queue.sort()
            self._fault_queue: list[tuple[int, int]] | None = queue
            self._fault_i = 0
            self._crashed: list[bool] | None = [False] * k
        else:
            self._fault_queue = None
            self._fault_i = 0
            self._crashed = None

        self._heap: list[tuple[int, int, int, int]] = []
        self._seq = 0
        self._events = 0
        self._active = 0  # agents not DONE (dormant agents count)
        # Fast-path diagnostics (not part of SimulationResult): how
        # many walk segments ran as single events, and how many edges
        # they covered in total.  Kept as standalone per-simulation
        # counters (the public ``segments`` / ``segment_edges``
        # attributes are thin views) and folded into the attached
        # metrics registry once, at ``result()`` — never per segment,
        # so the hot path stays registry-free.
        self._c_segments = _metrics_registry.Counter()
        self._c_segment_edges = _metrics_registry.Counter()
        self._c_watch_fires = _metrics_registry.Counter()
        self._c_paced_batches = _metrics_registry.Counter()
        self._c_paced_edges = _metrics_registry.Counter()
        self._mx = _metrics_registry.current()
        self._metrics_flushed = False
        # Segment planner (and, on static edges, the graph's shared
        # route cache), bound on the first walk round: walk-free runs
        # never import the planner module or build a cache.
        self.route_cache = None
        self._planner = None

        for idx, s in enumerate(self.specs):
            self._active += 1
            self._dormant_at[s.start_node].add(idx)
            if s.wake_round is not None:
                self._push(s.wake_round, idx)

        # Typed event stream (docs/observability.md).  ``_emit`` is
        # None on the no-processor path, so every emission site is a
        # single attribute test.
        self._emit = None
        self._end_emitted = False
        if events is not False:
            dispatcher = (
                events if events is not None else _event_stream.current()
            )
            if dispatcher is not None:
                self.attach_events(dispatcher)

    def attach_events(self, dispatcher) -> None:
        """Attach an event dispatcher (emits :class:`SimulationStart`).

        Used by ``__init__`` and by tools that obtain an
        already-constructed simulation (e.g. via
        :func:`repro.core.runs.prepare_gather_known`) and want its
        event stream.
        """
        self._emit = dispatcher
        dispatcher.emit(_EvSimulationStart(
            n=self.graph.n,
            edges=tuple(self.graph.edges()),
            agents=tuple(
                (s.label, s.start_node, s.wake_round) for s in self.specs
            ),
        ))

    # ------------------------------------------------------------------
    # Traditional-model capability (baselines only).
    # ------------------------------------------------------------------

    def colocated_labels(self, label: int) -> list[int]:
        """Labels of all agents at the same node as ``label`` right now.

        This is the *traditional* model's perception ("co-located
        agents can talk"), deliberately unavailable to the paper's
        algorithms; only the baseline implementations in
        :mod:`repro.baselines` call it.  Every talking-baseline agent
        calls this on each scheduling round, so the label lookup uses
        the map built once in ``__init__`` rather than a linear scan.
        """
        idx = self._label_index[label]
        node = self._pos[idx]
        return sorted(
            s.label
            for i, s in enumerate(self.specs)
            if self._pos[i] == node
        )

    # ------------------------------------------------------------------
    # Heap helpers.
    # ------------------------------------------------------------------

    def _push(self, round_: int, idx: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (round_, self._seq, idx, self._epoch[idx]))

    def _reschedule(self, round_: int, idx: int) -> None:
        self._epoch[idx] += 1
        self._push(round_, idx)

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute until every agent terminates.

        With a metrics registry attached, the counters are flushed once
        the loop ends, also when it raises: a failed run counts its
        events and segments, and counts in ``sim.runs.failed`` instead
        of ``sim.runs``.
        """
        if self._mx is None:
            while self._active > 0:
                self.step_round()
            return self.result()
        try:
            with self._mx.timer("sim.wall_seconds"):
                while self._active > 0:
                    self.step_round()
        finally:
            self._flush_metrics()
        return self.result()

    def next_event_round(self) -> int | None:
        """Round of the next real event, or ``None`` if the heap is dry.

        Drops stale heads (superseded epochs, finished agents) so the
        round budget and deadlock checks see the next *real* event,
        exactly as the reference oracle derives it.  A pending crash
        fault targeting a live agent is an event too: time jumps to
        the fault round even when every survivor waits past it.
        """
        head = self._live_head()
        if self._fault_queue is not None:
            fault = self._next_fault_round()
            if fault is not None and (head is None or fault < head):
                return fault
        return head

    def _live_head(self) -> int | None:
        """Round of the earliest live heap entry; drops stale heads."""
        heap = self._heap
        while heap:
            _, _, i0, ep0 = heap[0]
            if ep0 != self._epoch[i0] or self._state[i0] == _DONE:
                heapq.heappop(heap)
            else:
                return heap[0][0]
        return None

    def _next_fault_round(self) -> int | None:
        """Round of the earliest pending fault with a live target.

        Entries whose target already terminated are skipped for good
        (termination is final), so repeated calls stay cheap.
        """
        queue = self._fault_queue
        i = self._fault_i
        while i < len(queue):
            round_, idx = queue[i]
            if self._state[idx] != _DONE:
                self._fault_i = i
                return round_
            i += 1
        self._fault_i = i
        return None

    @property
    def finished(self) -> bool:
        """True once every agent has terminated."""
        return self._active == 0

    # Back-compat thin views over the standalone fast-path counters
    # (migrated to metrics counters; see __init__).

    @property
    def segments(self) -> int:
        """Walk segments executed as single scheduler events."""
        return self._c_segments.value

    @segments.setter
    def segments(self, value: int) -> None:
        self._c_segments.value = value

    @property
    def segment_edges(self) -> int:
        """Total edges covered by batched walk segments."""
        return self._c_segment_edges.value

    @segment_edges.setter
    def segment_edges(self, value: int) -> None:
        self._c_segment_edges.value = value

    @property
    def edges_blocked(self) -> int:
        """Moves the edge dynamics blocked, stalls inside segments included."""
        return self._c_edges_blocked.value

    def result(self) -> SimulationResult:
        """The aggregate outcome; only valid once :attr:`finished`."""
        if self._active > 0:
            raise SimulationError(
                f"simulation still has {self._active} active agent(s)"
            )
        final_round = max(
            (o.finish_round for o in self._outcomes if o.finish_round is not None),
            default=0,
        )
        total_moves = sum(o.moves for o in self._outcomes)
        crashed_labels = (
            tuple(o.label for o in self._outcomes if o.crashed)
            if self._crashed is not None
            else ()
        )
        result = SimulationResult(
            self._outcomes,
            self._events,
            final_round,
            total_moves,
            crashed_labels=crashed_labels,
            timed_out=self.timed_out,
        )
        if self._emit is not None and not self._end_emitted:
            self._end_emitted = True
            self._emit.emit(_EvSimulationEnd(
                final_round=final_round,
                events=self._events,
                total_moves=total_moves,
                gathered=result.gathered(),
            ))
        if self._mx is not None:
            self._flush_metrics()
        return result

    def _flush_metrics(self) -> None:
        """Fold this simulation's counters into the attached registry,
        once.  A run that has not finished (its loop raised) counts in
        ``sim.runs.failed``, a finished one in ``sim.runs``."""
        if self._metrics_flushed:
            return
        # One aggregated flush per simulation: the per-event hot path
        # never touches the registry.  Round counts are deliberately
        # not recorded (exact big ints; see docs/observability.md).
        self._metrics_flushed = True
        mx = self._mx
        name = "sim.runs" if self._active == 0 else "sim.runs.failed"
        mx.counter(name).value += 1
        mx.counter("sim.events").value += self._events
        mx.counter("sim.walk.segments").value += self._c_segments.value
        mx.counter("sim.walk.segment_edges").value += (
            self._c_segment_edges.value
        )
        mx.counter("sim.watch.fires").value += self._c_watch_fires.value
        if self._c_paced_batches.value:
            mx.counter("sim.paced.batches").value += (
                self._c_paced_batches.value
            )
            mx.counter("sim.paced.edges").value += (
                self._c_paced_edges.value
            )
        if self._c_faults.value:
            mx.counter("sim.faults.injected").value += (
                self._c_faults.value
            )
        if self.timed_out:
            mx.counter("sim.faults.timeouts").value += 1
        if self._c_edges_blocked.value:
            mx.counter("sim.edges.blocked").value += (
                self._c_edges_blocked.value
            )

    def step_round(self) -> None:
        """Drain and execute exactly one event-round."""
        heap = self._heap
        round_ = self.next_event_round()
        if round_ is None:
            if self.horizon is not None:
                self._graceful_stop()
                return
            raise DeadlockError(
                f"{self._active} agent(s) can never run again "
                "(dormant and unvisited, or waiting forever)"
            )
        if self.horizon is not None and round_ > self.horizon:
            self._graceful_stop()
            return
        if self.max_round is not None and round_ > self.max_round:
            raise BudgetExceededError(
                f"round budget exceeded: next event at round {round_}"
            )
        if self._fault_queue is not None:
            self._apply_faults(round_)
        if self._paced_n and self.route_cache is not None:
            if self._paced_batch(round_):
                return
        pending_moves: list[tuple[int, int]] = []  # (idx, port)
        pending_walks: list[tuple] = []  # (idx, head, steps, pos, watch)
        pending_observes: list[tuple[int, int]] = []  # (idx, remaining)
        retries = self._retry_move
        paced = self._paced if self._paced_n else None
        resumes = 0
        while heap and heap[0][0] == round_:
            _, _, idx, epoch = heapq.heappop(heap)
            if epoch != self._epoch[idx] or self._state[idx] == _DONE:
                continue
            resumes += 1
            if resumes > _MAX_RESUMES_PER_ROUND:
                raise SimulationError(
                    f"agent resumed too often in round {round_}; "
                    "non-advancing program?"
                )
            if (
                self._state[idx] != _DORMANT
                and self._watch[idx] is not None
                and self._stable[idx] is None
                and not watch_hit(
                    self._watch[idx], self._counts[self._pos[idx]]
                )
                and round_ < self._wait_until[idx]
            ):
                # Early arrival notification whose condition a
                # start-of-round crash revoked before this resume: the
                # watched wait is still running.  Re-arm its original
                # expiry (a later occupancy change can still
                # reschedule it earlier) and charge no event — the
                # agent never acts.  Only faults open this window:
                # ordinary departures commit at round end, after every
                # resume of the round.
                self._push(self._wait_until[idx], idx)
                continue
            self._events += 1
            if self.max_events is not None and self._events > self.max_events:
                raise BudgetExceededError(
                    f"event budget exceeded at round {round_}"
                )
            if retries is not None and retries[idx] is not None:
                # A dynamics-blocked move retries verbatim: the agent's
                # program is not re-entered and observes nothing.
                pending_moves.append((idx, retries[idx]))
                retries[idx] = None
                continue
            if (
                paced is not None
                and paced[idx] is not None
                and self._paced_step(idx, round_, pending_moves)
            ):
                continue  # a paced walk's wait expiry or arrival
            op = self._resume(idx, round_)
            if op is None:
                continue  # agent terminated
            kind = op[0]
            if kind == MOVE:
                pending_moves.append((idx, op[1]))
            elif kind == WALK:
                pending_walks.append((idx, op[1], op[2], op[3], op[4]))
            elif kind == WAIT:
                self._begin_wait(idx, round_, op[1], op[2])
            elif kind == WAIT_STABLE:
                self._begin_wait_stable(idx, round_, op[1])
            elif kind == OBSERVE:
                if op[1] < 1:
                    raise SimulationError(
                        f"observe duration must be >= 1, got {op[1]}"
                    )
                pending_observes.append((idx, op[1]))
            elif kind == DECLARE:
                self._finish(idx, round_, op[1], declared=True)
            elif kind == PACED:
                self._begin_paced(idx, round_, op, pending_moves)
            else:
                raise SimulationError(f"unknown op {op!r}")
        if pending_walks or pending_observes:
            self._exec_walks(
                pending_walks, pending_observes, round_, pending_moves
            )
        if pending_moves:
            self._apply_moves(pending_moves, round_)
        if self._emit is not None:
            self._emit.emit(_EvRoundAdvance(round=round_, resumes=resumes))

    # ------------------------------------------------------------------
    # Agent resumption.
    # ------------------------------------------------------------------

    def _make_observation(
        self, idx: int, round_: int, triggered: bool
    ) -> Observation:
        node = self._pos[idx]
        walked = self._walk_trace[idx]
        if walked is None:
            obs = Observation(
                round_,
                self.graph.degree(node),
                self._entry_port[idx],
                self._counts[node],
                triggered,
            )
        else:
            self._walk_trace[idx] = None
            if type(walked) is list:  # a paced walk's entry ports
                obs = PacedObservation(
                    round_,
                    self.graph.degree(node),
                    self._entry_port[idx],
                    self._counts[node],
                    walked,
                )
            else:
                obs = WalkObservation(
                    round_,
                    self.graph.degree(node),
                    self._entry_port[idx],
                    self._counts[node],
                    triggered,
                    walked,
                )
        self._entry_port[idx] = None
        return obs

    def _resume(self, idx: int, round_: int) -> tuple | None:
        """Advance one agent; returns its next op or None if it ended."""
        state = self._state[idx]
        triggered = False
        if state == _DORMANT:
            self._start_agent(idx, round_)
        else:
            watch = self._watch[idx]
            if watch is not None:
                triggered = watch_hit(watch, self._counts[self._pos[idx]])
                if triggered:
                    self._c_watch_fires.value += 1
                    if self._emit is not None:
                        self._emit.emit(_EvWatchFired(
                            round=round_,
                            agent=idx,
                            node=self._pos[idx],
                            count=self._counts[self._pos[idx]],
                        ))
                self._unwatch(idx)
            if self._stable[idx] is not None:
                window = self._stable[idx]
                node = self._pos[idx]
                # Re-verify stability; occupancy changes reschedule the
                # wake, so reaching here with an up-to-date epoch means
                # the window elapsed - assert the invariant cheaply.
                stable_at = self._last_change_of(node) + window - 1
                if round_ < stable_at:
                    self._push(stable_at, idx)
                    return None
                self._stable[idx] = None
                self._watchers[node].discard(idx)
        obs = self._make_observation(idx, round_, triggered)
        gen = self._gens[idx]
        try:
            if self._state[idx] == _DORMANT:
                self._state[idx] = _RUNNING
                self._ctxs[idx].obs = obs
                op = next(gen)
            else:
                op = gen.send(obs)
        except StopIteration as stop:
            self._finish(idx, round_, stop.value, declared=False)
            return None
        if op[0] == MOVE or op[0] == WALK or op[0] == PACED:
            port = op[1]
            node = self._pos[idx]
            if not isinstance(port, int) or port < 0 or port >= self.graph.degree(node):
                raise SimulationError(
                    f"agent {self.specs[idx].label} took invalid port "
                    f"{port!r} at a node of degree {self.graph.degree(node)}"
                )
        return op

    def _start_agent(self, idx: int, round_: int) -> None:
        spec = self.specs[idx]
        ctx = AgentContext(spec.label)
        ctx.wake_round = round_
        self._ctxs[idx] = ctx
        self._gens[idx] = spec.program(ctx)
        self._outcomes[idx].wake_round = round_
        self._dormant_at[spec.start_node].discard(idx)

    def _finish(
        self, idx: int, round_: int, payload: object, declared: bool
    ) -> None:
        self._state[idx] = _DONE
        self._active -= 1
        out = self._outcomes[idx]
        out.finish_round = round_
        out.finish_node = self._pos[idx]
        out.payload = payload
        out.declared = declared
        self._unwatch(idx)
        node = self._pos[idx]
        self._watchers[node].discard(idx)
        self._stable[idx] = None
        self._gens[idx] = None

    # ------------------------------------------------------------------
    # Fault injection and graceful degradation.
    # ------------------------------------------------------------------

    def _apply_faults(self, round_: int) -> None:
        """Crash every agent whose fault falls due at ``round_``.

        Runs before any resume of the round: a crashed agent never
        acts in its fault round.  Entries targeting already-terminated
        agents are skipped (their crash never happens).
        """
        queue = self._fault_queue
        while self._fault_i < len(queue) and queue[self._fault_i][0] <= round_:
            _, idx = queue[self._fault_i]
            self._fault_i += 1
            if self._state[idx] == _DONE:
                continue
            self._crash(idx, round_)

    def _crash(self, idx: int, round_: int) -> None:
        """Remove agent ``idx`` at the start of ``round_``.

        Unlike a *declared* agent — which keeps occupying its node —
        a crashed agent's occupancy is removed at its fault round, so
        co-located watchers observe the departure exactly as they would
        a move away: firing watches and stability windows reschedule
        precisely as :meth:`_apply_moves` would on an occupancy change.
        A dormant agent can crash too (it simply never wakes); dormant
        *neighbors* are not woken — a crash is a departure, not a visit.
        """
        self._c_faults.value += 1
        node = self._pos[idx]
        self._state[idx] = _DONE
        self._active -= 1
        self._crashed[idx] = True
        out = self._outcomes[idx]
        out.finish_round = round_
        out.finish_node = node
        out.declared = False
        out.crashed = True
        self._unwatch(idx)
        self._watchers[node].discard(idx)
        self._stable[idx] = None
        self._dormant_at[node].discard(idx)
        self._gens[idx] = None
        self._walk_trace[idx] = None
        self._drop_paced(idx)
        if self._retry_move is not None:
            self._retry_move[idx] = None
        self._counts[node] -= 1
        self._last_change[node] = round_
        if self._watchers[node]:
            new_count = self._counts[node]
            for widx in list(self._watchers[node]):
                watch = self._watch[widx]
                if watch is not None:
                    if watch_hit(watch, new_count):
                        self._reschedule(round_, widx)
                elif self._stable[widx] is not None:
                    self._reschedule(
                        round_ + self._stable[widx] - 1, widx
                    )
        if self._emit is not None:
            self._emit.emit(_EvFaultInjected(
                round=round_,
                agent=idx,
                label=self.specs[idx].label,
                node=node,
            ))

    def _graceful_stop(self) -> None:
        """Finalize every live agent undeclared: the horizon expired.

        Fault-aware termination: survivors that can no longer gather
        (a crash removed a teammate, or dynamics starved them) end
        with a structured partial outcome — ``finish_round=None``,
        final position recorded — instead of running out their event
        budget.  Also reached when no agent can ever run again, which
        without a horizon would be a :class:`DeadlockError`.
        """
        self.timed_out = True
        for idx in range(len(self.specs)):
            if self._state[idx] == _DONE:
                continue
            self._state[idx] = _DONE
            self._active -= 1
            node = self._pos[idx]
            out = self._outcomes[idx]
            out.finish_round = None
            out.finish_node = node
            out.declared = False
            self._unwatch(idx)
            self._watchers[node].discard(idx)
            self._stable[idx] = None
            self._dormant_at[node].discard(idx)
            self._gens[idx] = None
            self._walk_trace[idx] = None
            self._drop_paced(idx)
        self._heap.clear()

    # ------------------------------------------------------------------
    # Op handlers.
    # ------------------------------------------------------------------

    def _begin_wait(self, idx: int, round_: int, duration, watch) -> None:
        if duration < 1:
            raise SimulationError(f"wait duration must be >= 1, got {duration}")
        self._push(round_ + duration, idx)
        if watch is not None:
            self._watch[idx] = watch
            self._wait_until[idx] = round_ + duration
            self._watchers[self._pos[idx]].add(idx)

    def _begin_wait_stable(self, idx: int, round_: int, window) -> None:
        if window < 1:
            raise SimulationError(f"stability window must be >= 1, got {window}")
        node = self._pos[idx]
        candidate = self._last_change_of(node) + window - 1
        if candidate < round_:
            candidate = round_
        self._stable[idx] = window
        self._watchers[node].add(idx)
        self._push(candidate, idx)

    def _unwatch(self, idx: int) -> None:
        if self._watch[idx] is not None:
            self._watch[idx] = None
            self._watchers[self._pos[idx]].discard(idx)

    # ------------------------------------------------------------------
    # Lazy last_change (only stability waits read it).
    # ------------------------------------------------------------------

    def _last_change_of(self, node: int) -> int:
        """Latest round in which ``node``'s cardinality changed."""
        if self._pending_segments:
            self._resolve_pending()
        return self._last_change[node]

    def _log_segment(self, round_: int, m: int, routes: list) -> None:
        """Defer a segment's ``last_change`` updates to the next read.

        ``routes`` holds one ``(nodes, offset)`` per walker: its rounds
        are ``nodes[offset:offset + m + 1]``.
        """
        pending = self._pending_segments
        pending.append((round_, m, routes))
        if len(pending) >= _PENDING_SEGMENTS_CAP:
            self._resolve_pending()

    def _resolve_pending(self) -> None:
        """Fold the logged segments into ``_last_change``, then clear them.

        Scans newest-first, round by round, with :meth:`_apply_moves`'
        rule: a node changed in a round iff its arrivals and departures
        there do not cancel (Section 1.4).  The first changed round
        found per node is its latest, and the scan stops once every
        node has one.  Folding with ``max`` is exact: direct writes
        (moves, crashes) always land on the current round, so a logged
        change beats exactly the direct writes made before its segment.
        """
        pending = self._pending_segments
        n = self.graph.n
        found: dict[int, int] = {}
        for round_, m, routes in reversed(pending):
            if len(found) == n:
                break
            for t in range(m - 1, -1, -1):
                deltas: dict[int, int] = {}
                for nodes, off in routes:
                    src, dst = nodes[off + t], nodes[off + t + 1]
                    if src != dst:
                        deltas[src] = deltas.get(src, 0) - 1
                        deltas[dst] = deltas.get(dst, 0) + 1
                for v, delta in deltas.items():
                    if delta and v not in found:
                        found[v] = round_ + t + 1
                if len(found) == n:
                    break
        last_change = self._last_change
        for v, changed in found.items():
            if changed > last_change[v]:
                last_change[v] = changed
        pending.clear()

    # ------------------------------------------------------------------
    # Walk segments (the multi-edge fast path).
    # ------------------------------------------------------------------

    def _resolve_planner(self) -> None:
        """Bind the segment planner: the cached-route one on static edges.

        Dynamic-edge runs keep the scalar planner, which plans blocked
        edges as stall rounds: cached routes know nothing about
        per-round edge liveness.
        """
        self._planner = Simulation._plan_segment
        if self._dynamics is not None:
            return
        from . import segments

        self.route_cache = segments.route_cache_for(self.graph)
        self._planner = segments.plan_segment

    def _exec_walks(
        self,
        walks: list[tuple],
        observes: list[tuple[int, int]],
        round_: int,
        pending_moves: list[tuple[int, int]],
    ) -> None:
        """Execute the round's walk/observe ops: one segment, or fall back.

        All walkers and observers due this round are planned jointly.
        When a useful segment exists (>= 2 rounds for everyone) it runs
        as a single event per cohort member; otherwise every walk
        degrades to its first edge and every observe to a one-round
        observation through the ordinary machinery, which handles
        watcher wake-ups, dormant starts and same-round movers exactly
        as the per-step model does.
        """
        if self._planner is None:
            self._resolve_planner()
        if not pending_moves:
            plan = self._planner(self, walks, observes, round_)
            if plan is not None:
                self._apply_segment(walks, observes, round_, plan)
                return
        # Per-edge / per-round fallback.  Observers degrade first:
        # their next-round heap events bound any later walker segment
        # exactly like the one-round waits they are equivalent to.
        for idx, _remaining in observes:
            self._push(round_ + 1, idx)
        for idx, head, _steps, _pos, _watch in walks:
            pending_moves.append((idx, head))

    def _segment_horizon(
        self,
        walks: list[tuple],
        observes: list[tuple[int, int]],
        round_: int,
    ) -> int:
        """Joint segment bound both planners start from, before routes.

        The shortest remaining plan or observation, capped by the next
        live heap event, the round and event budgets, the graceful
        horizon and the next fault round.  Under edge dynamics a plan
        bounds edges, not rounds (a walker can stall), so the plans cap
        the rounds only when nothing else does; the scalar planner ends
        each route where its plan runs out.  Returns 0 when a walker
        starts on a watched node: the departure must notify the
        watchers through the ordinary machinery.  A result below 2
        means no segment.
        """
        # Plain comparisons rather than min(): this runs in every
        # round that issues a walk.
        bounds = [len(steps) - pos for _i, _h, steps, pos, _w in walks]
        if observes:
            bounds.extend(remaining for _i, remaining in observes)
        plan_m = min(bounds)
        m = plan_m if self._dynamics is None else _UNBOUNDED
        head = self._live_head()
        if head is not None:
            gap = head - round_
            if gap < m:
                m = gap
        if self.max_round is not None:
            # Truncating here reproduces the per-step budget raise: the
            # segment-end resume lands at max_round + 1 and the main
            # loop rejects it with the exact per-step message.
            gap = self.max_round - round_ + 1
            if gap < m:
                m = gap
        if self.horizon is not None:
            # Likewise: the segment-end resume lands past the horizon,
            # where the main loop stops the run gracefully.
            gap = self.horizon - round_ + 1
            if gap < m:
                m = gap
        if self.max_events is not None:
            # Cap so the virtual resumes cannot cross the budget inside
            # the segment; the violating resume then happens (and
            # raises) at the segment-end round, as per-step execution
            # would.
            cohort = len(walks) + len(observes)
            gap = (self.max_events - self._events) // cohort + 1
            if gap < m:
                m = gap
        if self._fault_queue is not None:
            # No segment may reach a fault round: a crash is processed
            # at the *start* of its round (unlike moves, which commit
            # at the end), so planned arrival cards would go stale the
            # moment the segment's last observation landed on it.  End
            # strictly before, so every walker is back in the ordinary
            # machinery when the crash hits (a crashed walker vanishes
            # mid-walk; survivors replan around the hole).
            fault = self._next_fault_round()
            if fault is not None and fault - round_ - 1 < m:
                m = fault - round_ - 1
        if m == _UNBOUNDED:
            m = plan_m  # a stall-free bound: always safe, always finite
        if m < 2:
            return m
        watchers = self._watchers
        pos_of = self._pos
        for idx, _head, _steps, _pos, _watch in walks:
            if watchers[pos_of[idx]]:
                return 0
        return m

    def _plan_segment(
        self,
        walks: list[tuple],
        observes: list[tuple[int, int]],
        round_: int,
    ) -> SegmentPlan | None:
        """Scalar twin of :func:`repro.sim.segments.plan_segment`.

        The longest prefix the cohort can walk without possible
        divergence, as a :class:`SegmentPlan`, or ``None`` when no
        segment of at least two rounds is safe.  Plans walkers only:
        a cohort with observers gets ``None``.  Used on dynamic-edge
        runs (only it plans stalls).  Under edge dynamics a blocked edge is
        a stall round of the plan, not a cut: the walker stays on its
        node and retries the port the next round — no arrival record,
        no watch check — while it still counts toward the CurCard of
        walkers arriving there.  This is the hot loop of such runs, so
        it works on the graph's adjacency list directly and mutates
        ``_counts`` in place (walkers off their start nodes) for the
        duration of the planning.
        """
        if observes:
            return None
        m = self._segment_horizon(walks, observes, round_)
        if m < 2:
            return None
        counts = self._counts
        watchers = self._watchers
        dormant_at = self._dormant_at
        adj = self.graph._adj  # hot path: one indexing per step
        dyn = self._dynamics
        # Walkers leave their start nodes in the first round; every
        # other agent (waiting, finished, dormant) is static for the
        # whole segment.  Taking the walkers out of ``_counts`` while
        # planning makes ``counts[v]`` the static occupancy directly
        # (restored before returning).  A walker stalled on its start
        # node is counted through the cohort's routes instead.
        for idx, _head, _steps, _pos, _watch in walks:
            counts[self._pos[idx]] -= 1
        watch_fired = False
        stalls: list[dict[int, int]] | None = None
        try:
            # Pass 1 — structural: simulate each route, truncating
            # before any node whose occupants the ordinary machinery
            # must wake.  A later walker may shorten the joint segment
            # below an earlier walker's route; the plan is cut to the
            # final ``m`` on return.
            routes: list[list[int]] = []
            entries: list[list[int]] = []
            degrees: list[list[int]] = []
            for w, (idx, head, steps, pos, _watch) in enumerate(walks):
                node = self._pos[idx]
                route = [node]
                ents: list[int] = []
                degs: list[int] = []
                ports = adj[node]
                port = head  # validated by _resume
                left = len(steps) - pos  # edges the plan still holds
                t = 0  # rounds planned
                e = 0  # edges moved
                while True:
                    if dyn is not None and dyn.blocked(node, port, round_ + t):
                        # A stall round: stay, retry the port next round.
                        if stalls is None:
                            stalls = [{} for _ in walks]
                        stalls[w][t] = port
                        route.append(node)
                        t += 1
                        if t >= m:
                            break
                        continue
                    node, entry = ports[port]
                    if watchers[node] or dormant_at[node]:
                        m = t  # stop before waking anyone
                        break
                    route.append(node)
                    ents.append(entry)
                    ports = adj[node]
                    degree = len(ports)
                    degs.append(degree)
                    t += 1
                    e += 1
                    if t >= m:
                        break
                    if e == left:
                        m = t  # the plan ran out: stalls made m exceed it
                        break
                    step = steps[pos + e]
                    if step >= 0:
                        if step >= degree:
                            m = t  # invalid step ends the joint segment
                            break
                        port = step
                    else:
                        port = (entry + ~step) % degree
                if m < 2:
                    return None
                routes.append(route)
                entries.append(ents)
                degrees.append(degs)
            # Pass 2 — exact CurCard per arrival, by exception: each
            # walker is a group of one whose arrival adds the static
            # occupancy of its node and every other walker there that
            # round (a stalled one included).  The first firing walk
            # watch cuts the segment.
            walkers = range(len(walks))
            arrived = [
                range(1, m + 1) if stalls is None or not stalls[w]
                else _arrivals(stalls[w], m)
                for w in walkers
            ]
            extras = [
                {i: c for i, t in enumerate(arrived[w])
                 if (c := counts[routes[w][t]])}
                for w in walkers
            ]
            for w in walkers:
                for x in range(w + 1, len(walks)):
                    for t in compress(range(1, m + 1), map(
                        eq, routes[w][1:m + 1], routes[x][1:m + 1]
                    )):
                        for y in (w, x):
                            i = _arrival_index(arrived[y], t)
                            if i is not None:
                                extras[y][i] = extras[y].get(i, 0) + 1
            for w, (_idx, _head, _steps, _pos, watch) in enumerate(walks):
                if watch is not None:
                    i = _first_fire(watch, 1, extras[w], len(arrived[w]))
                    if i < len(arrived[w]) and arrived[w][i] <= m:
                        m = arrived[w][i]  # the firing edge is the last
                        watch_fired = True
            if stalls is not None:
                # No walker stalls in the last round: its next step
                # there is a retry, not a resume.  Ending earlier also
                # drops a watch that fired on that round's arrival.
                stalled = set().union(*stalls)
                while m - 1 in stalled:
                    m -= 1
                    watch_fired = False
            if m < 2:
                return None
        finally:
            for idx, _head, _steps, _pos, _watch in walks:
                counts[self._pos[idx]] += 1
        plan = []
        for w, (route, ents, degs, extra) in enumerate(
            zip(routes, entries, degrees, extras)
        ):
            del route[m + 1:]
            arrivals = m
            if stalls is not None:
                kept = stalls[w] = {
                    t: port for t, port in stalls[w].items() if t < m
                }
                arrivals -= len(kept)
            del ents[arrivals:]
            del degs[arrivals:]
            extra = {i: c for i, c in extra.items() if i < arrivals}
            plan.append((Route(route, ents, degs), 0, 1, extra))
        if stalls is not None and not any(stalls):
            stalls = None
        return SegmentPlan(m, plan, [], watch_fired, stalls)

    def _apply_segment(
        self,
        walks: list[tuple],
        observes: list[tuple[int, int]],
        round_: int,
        plan: SegmentPlan,
    ) -> None:
        """Commit a :class:`SegmentPlan` for the whole cohort as one event.

        Performs the per-step model's bookkeeping for the whole
        traversed prefix — occupancies, move counts, virtual ``events``,
        blocked moves, (in trace mode) per-edge ``move_log`` entries,
        and a log entry from which ``last_change`` is resolved on read
        — then schedules each member's next resume at ``round_ + m``
        with a reference to its segment attached (a
        :class:`~repro.sim.ops.WalkObservation` is built from it at the
        resume).  A stall round costs its walker an event like any
        other round (a retry does) but adds no arrival.  An observer
        neither moves nor changes any occupancy: it receives the
        per-round CurCard trace of its node, exactly as ``m`` one-round
        observations would.
        """
        counts = self._counts
        pos = self._pos
        m = plan.m
        end_round = round_ + m
        stalls = plan.stalls
        self._c_segments.value += 1
        if plan.watch_fired:
            # The segment's last edge fires a walk watch: the walk
            # helper raises WatchTriggered at the resume.
            self._c_watch_fires.value += 1
        walkers = plan.walkers
        total = 0
        for w, walk in enumerate(walks):
            idx = walk[0]
            route, off, size, extra = walkers[w]
            edges = m
            stalled = None
            if stalls is not None and stalls[w]:
                stalled = stalls[w]
                edges -= len(stalled)
                self._c_edges_blocked.value += len(stalled)
            nodes = route.nodes
            counts[nodes[off]] -= 1
            end = pos[idx] = nodes[off + m]
            counts[end] += 1
            self._entry_port[idx] = route.entries[off + edges - 1]
            self._outcomes[idx].moves += edges
            total += edges
            self._walk_trace[idx] = (route, off, edges, size, extra, stalled)
            self._push(end_round, idx)
        self._c_segment_edges.value += total
        for o, (idx, _remaining) in enumerate(observes):
            size, extra = plan.observer_cards[o]
            self._walk_trace[idx] = (None, 0, m, size, extra, None)
            self._push(end_round, idx)
        # Virtual per-edge/per-round resumes: byte-compatible events.
        self._events += (len(walks) + len(observes)) * (m - 1)
        if walks:  # observers alone change no occupancy
            routes = [(walker[0].nodes, walker[1]) for walker in walkers]
            self._log_segment(round_, m, routes)
            if self.trace:
                self._trace_segment(walks, round_, m, routes, stalls)
        if self._emit is not None:
            self._emit_segment(walks, observes, round_, plan)

    def _trace_segment(self, walks, round_, m, routes, stalls) -> None:
        """Expand a segment into per-edge ``move_log`` entries."""
        order = sorted(range(len(walks)), key=lambda w: walks[w][0])
        skips = [()] * len(walks) if stalls is None else stalls
        for t in range(m):
            for w in order:
                if t in skips[w]:
                    continue  # a stall moves nothing
                nodes, off = routes[w]
                self.move_log.append(
                    (round_ + t, walks[w][0], nodes[off + t],
                     nodes[off + t + 1])
                )

    def _emit_segment(self, walks, observes, round_, plan) -> None:
        """Emit one :class:`WalkSegment`, its stalls and any walk watch.

        Each stall round follows the segment as the
        :class:`EdgeBlocked` the per-step retry would emit, in round
        order.  A walk watch that fires does so on the segment's last
        edge (the planners truncate there); the walker observes it at
        the segment-end resume, so the :class:`WatchFired` round is
        ``round_ + m`` — exactly where :meth:`repro.sim.agent.Agent.walk`
        raises ``WatchTriggered`` when replaying the history.
        """
        emit = self._emit
        m = plan.m
        stalls = plan.stalls
        routes = [
            tuple(route.nodes[off:off + m + 1])
            for route, off, _size, _extra in plan.walkers
        ]
        emit.emit(_EvWalkSegment(
            round=round_,
            length=m,
            walkers=tuple(idx for idx, _h, _s, _p, _w in walks),
            routes=tuple(routes),
            observers=tuple(idx for idx, _remaining in observes),
        ))
        if stalls is not None:
            blocked = sorted(
                (t, walks[w][0], routes[w][t], port)
                for w, stalled in enumerate(stalls)
                for t, port in stalled.items()
            )
            for t, idx, node, port in blocked:
                emit.emit(_EvEdgeBlocked(
                    round=round_ + t, agent=idx, node=node, port=port
                ))
        for w, (idx, _head, _steps, _pos, watch) in enumerate(walks):
            if watch is None:
                continue
            _route, _off, size, extra = plan.walkers[w]
            last = m - 1 if stalls is None else m - 1 - len(stalls[w])
            card = size + extra.get(last, 0)
            if watch_hit(watch, card):
                emit.emit(_EvWatchFired(
                    round=round_ + m,
                    agent=idx,
                    node=routes[w][m],
                    count=card,
                ))

    # ------------------------------------------------------------------
    # Paced walks.
    # ------------------------------------------------------------------

    def _begin_paced(self, idx, round_, op, pending_moves) -> None:
        """Start a paced walk op (its head port is validated by
        :meth:`_resume`): the wait before its first edge, or, with pace
        0, the edge itself."""
        _kind, port, steps, pos, pace, stop_degree = op
        if self._planner is None:
            self._resolve_planner()  # binds the route cache on static edges
        walk = _PacedWalk(steps, pos, pace, stop_degree, port)
        self._paced[idx] = walk
        self._paced_n += 1
        if pace:
            self._push(round_ + pace, idx)
        else:
            walk.arrive = True
            pending_moves.append((idx, port))

    def _paced_step(self, idx, round_, pending_moves) -> bool:
        """One paced-walk event without re-entering the generator.

        At a wait expiry the walker crosses its edge this round; at an
        arrival it records the entry port and waits for (or, with pace
        0, crosses) the next edge.  Returns false when the op ends at
        this arrival: the caller then resumes the generator, which
        receives the crossed entry ports.  Both are resumes of the
        per-step code and cost an event each.
        """
        walk = self._paced[idx]
        if not walk.arrive:
            walk.arrive = True
            pending_moves.append((idx, walk.port))
            return True
        entry = self._entry_port[idx]
        walk.entries.append(entry)
        walk.pos += 1
        port = self._paced_port(walk, walk.pos, self._pos[idx], entry)
        if port is None:
            self._drop_paced(idx)
            self._walk_trace[idx] = walk.entries
            return False
        walk.port = port
        if walk.pace:
            walk.arrive = False
            self._push(round_ + walk.pace, idx)
        else:
            pending_moves.append((idx, port))
        return True

    def _paced_port(self, walk, pos, node, entry) -> int | None:
        """Exit port of plan step ``pos`` at ``node``, or ``None`` where
        the op ends: plan end, degree stop or invalid absolute step."""
        steps = walk.steps
        if pos >= len(steps):
            return None
        degree = self.graph.degree(node)
        if walk.stop_degree is not None and degree >= walk.stop_degree:
            return None
        step = steps[pos]
        if step >= 0:
            return step if step < degree else None
        return (entry + ~step) % degree

    def _drop_paced(self, idx: int) -> None:
        if self._paced[idx] is not None:
            self._paced[idx] = None
            self._paced_n -= 1

    def _paced_batch(self, round_: int) -> bool:
        """Advance every paced walker to a joint bound in one step.

        Paced walkers read only entry ports and degrees, never CurCard,
        so their routes do not depend on any other agent.  Walker ``w``
        crosses its route's edges in rounds ``first_w + j * (pace_w +
        1)``; the batch commits every such move, and every wait-expiry
        and arrival resume, below the joint bound ``H``: the minimum of

        * the next heap entry of an agent that is not a paced walker;
        * the next fault round, ``horizon + 1`` and ``max_round + 1``;
        * per walker, the arrival at which its op ends (the generator
          resumes there) and its first move that departs from or
          arrives at a node holding a watcher or a dormant agent (that
          move runs through :meth:`_apply_moves`);
        * the first round whose resumes would exceed ``max_events``.

        The per-step code would do exactly the same in those rounds:
        no other agent acts, and the moves wake or notify no one.  Runs
        only when the round's first heap entry is a paced walker's, on
        static edges (routes come from the route cache).  Returns false,
        changing nothing, when nothing falls below ``H``.
        """
        heap = self._heap
        epoch = self._epoch
        state = self._state
        paced = self._paced
        popped = []
        bound = _UNBOUNDED
        while heap:
            top = heap[0]
            i = top[2]
            if top[3] != epoch[i] or state[i] == _DONE:
                heapq.heappop(heap)
            elif paced[i] is None:
                bound = top[0]
                break
            else:
                popped.append(heapq.heappop(heap))
        if not popped or popped[0][0] != round_ or bound <= round_:
            for entry in popped:
                heapq.heappush(heap, entry)
            return False
        if self._fault_queue is not None:
            fault = self._next_fault_round()
            if fault is not None and fault < bound:
                bound = fault
        if self.horizon is not None and self.horizon + 1 < bound:
            bound = self.horizon + 1
        if self.max_round is not None and self.max_round + 1 < bound:
            bound = self.max_round + 1
        pos_of = self._pos
        watchers = self._watchers
        dormant_at = self._dormant_at
        touchy = [v for v in set(pos_of) if watchers[v] or dormant_at[v]]
        lookup = self.route_cache.lookup
        plans = []
        for entry in popped:
            e = entry[0]
            i = entry[2]
            walk = paced[i]
            node = pos_of[i]
            if walk.arrive:
                pos = walk.pos + 1
                port = self._paced_port(walk, pos, node, self._entry_port[i])
                if port is None:  # the op ends at this arrival
                    if e < bound:
                        bound = e
                    plans.append((entry, walk, None))
                    continue
                first = e + walk.pace
            else:
                pos = walk.pos
                port = walk.port
                first = e
            chase, off = lookup(walk.steps, pos, node, port)
            length = len(chase.entries) - off
            stop = walk.stop_degree
            if stop is not None:
                degrees = chase.degrees[off:off + length]
                if max(degrees) >= stop:
                    length = next(
                        j for j, d in enumerate(degrees) if d >= stop
                    ) + 1
            period = walk.pace + 1
            end = first + (length - 1) * period + 1
            if end < bound:
                bound = end
            for v in touchy:
                at = chase.visits(v)
                k = bisect_left(at, off)
                if k < len(at):
                    # Move j arrives at nodes[off + j + 1]; move 0 also
                    # departs from nodes[off].
                    j = at[k] - off - 1
                    if j < 0:
                        j = 0
                    if j < length and first + j * period < bound:
                        bound = first + j * period
            plans.append(
                (entry, walk, (pos, port, chase, off, length, first, period))
            )
        if self.max_events is not None:
            left = self.max_events - self._events
            if _paced_events(plans, bound) > left:
                # Stop at the round whose resumes cross the budget: the
                # per-step path raises there with the exact message.
                lo, hi = round_, bound - 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    if _paced_events(plans, mid + 1) > left:
                        hi = mid
                    else:
                        lo = mid + 1
                bound = lo
        if bound <= round_:
            for entry in popped:
                heapq.heappush(heap, entry)
            return False
        self._commit_paced(plans, bound)
        return True

    def _commit_paced(self, plans, bound) -> None:
        """Commit a paced batch below ``bound`` (see :meth:`_paced_batch`).

        Each walker's next heap entry is pushed in the order the
        per-step code would have pushed it, so later same-round resumes
        keep their order: a wait expiry is pushed by the arrival resume
        before it, an arrival by the move before it (after the round's
        resumes, in agent order).
        """
        heap = self._heap
        counts = self._counts
        pos_of = self._pos
        entry_port = self._entry_port
        outcomes = self._outcomes
        events = 0
        edges = 0
        pushes = []
        walked = []
        for entry, walk, route in plans:
            e, seq, i, _epoch = entry
            if e >= bound:
                heapq.heappush(heap, entry)  # untouched: keeps its order
                continue
            pos, port, chase, off, length, first, period = route
            n, arrived = _paced_moves(first, period, length, bound)
            walked.append(
                (i, e if walk.arrive else None, first, period, n, arrived,
                 walk.pace, chase.nodes, off)
            )
            key = (-1, seq)
            if walk.arrive:  # the arrival resume at e
                walk.entries.append(entry_port[i])
                walk.pos = pos
                events += 1
                key = (e, 0, key)
            if n:
                nodes = chase.nodes
                last = first + (n - 1) * period
                counts[nodes[off]] -= 1
                counts[nodes[off + n]] += 1
                pos_of[i] = nodes[off + n]
                entry_port[i] = chase.entries[off + n - 1]
                outcomes[i].moves += n
                edges += n
                events += arrived + (n if walk.pace else 0)
                if arrived:
                    walk.entries.extend(chase.entries[off:off + arrived])
                    walk.pos = pos + arrived
                if arrived < n:  # the last arrival is at or past the bound
                    walk.arrive = True
                    pushes.append(((last, 1, i), last + 1, i))
                    continue
                key = (last + 1, 0, (last, 1, i))
                port = chase.ports[off + n]
            walk.arrive = False
            walk.port = port
            pushes.append((key, first + n * period, i))
        self._events += events
        self._c_paced_batches.value += 1
        self._c_paced_edges.value += edges
        if self.trace or self._emit is not None:
            self._record_paced(walked)
        if edges:
            self._paced_last_change(walked)
        pushes.sort()
        for _key, next_round, i in pushes:
            self._push(next_round, i)

    def _record_paced(self, walked) -> None:
        """A batch's ``move_log`` entries and events, as per-step emits
        them: per event round, its moves in agent order, then one
        :class:`RoundAdvance` with the round's resumes."""
        resumes: dict[int, int] = {}
        moves = []
        for i, start, first, period, n, arrived, pace, nodes, off in walked:
            if start is not None:
                resumes[start] = resumes.get(start, 0) + 1
            for j in range(n):
                r = first + j * period
                moves.append((r, i, nodes[off + j], nodes[off + j + 1]))
                if pace:
                    resumes[r] = resumes.get(r, 0) + 1
                if j < arrived:
                    resumes[r + 1] = resumes.get(r + 1, 0) + 1
        moves.sort()
        if self.trace:
            self.move_log.extend(moves)
        if self._emit is not None:
            emit = self._emit.emit
            k = 0
            for r in sorted(resumes):
                while k < len(moves) and moves[k][0] == r:
                    _r, i, src, dst = moves[k]
                    emit(_EvAgentMove(round=r, agent=i, src=src, dst=dst))
                    k += 1
                emit(_EvRoundAdvance(round=r, resumes=resumes[r]))

    def _paced_last_change(self, walked) -> None:
        """Fold a batch's moves into ``_last_change``.

        Scans the moves newest round first with :meth:`_apply_moves`'
        rule — a node changed in a round iff its arrivals and
        departures there do not cancel — and stops once every node the
        batch touched has its latest change.  Every batch round is
        later than any change already recorded or logged.

        Two walkers moving in the same rounds (equal pace and phase, as
        agents woken together are) often swap nodes for long stretches,
        which changes no count; their steps that leave the pair's node
        multiset unchanged are found up front and skipped.
        """
        last_change = self._last_change
        heads = []
        touched: set[int] = set()
        for _i, _s, first, period, n, _a, _p, nodes, off in walked:
            if not n:
                continue
            route = nodes[off:off + n + 1]
            touched.update(route)
            heads.append((first + (n - 1) * period, n - 1, period, route))
        still = None
        if len(heads) == 2:
            (ta, ja, pa, ra), (tb, jb, pb, rb) = heads
            if pa == pb and ta - ja * pa == tb - jb * pb:
                common = min(ja, jb) + 2  # positions 0 .. min(ja, jb) + 1
                low = list(map(min, ra[:common], rb[:common]))
                high = list(map(max, ra[:common], rb[:common]))
                # still[t]: step t leaves the pair's multiset unchanged.
                still = bytes(map(
                    and_, map(eq, low, low[1:]), map(eq, high, high[1:])
                ))
        left = len(touched)
        found: set[int] = set()
        while heads:
            if still is not None and len(heads) == 2:
                (ta, ja, pa, ra), (tb, jb, _pb, rb) = heads
                if ja == jb and still[ja]:
                    k = still.rfind(0, 0, ja)
                    if k < 0:
                        return  # no earlier step changes a count
                    heads = [
                        (ta - (ja - k) * pa, k, pa, ra),
                        (tb - (jb - k) * pa, k, pa, rb),
                    ]
            r = max(head[0] for head in heads)
            deltas: dict[int, int] = {}
            rest = []
            for head in heads:
                t, j, period, route = head
                if t != r:
                    rest.append(head)
                    continue
                src = route[j]
                dst = route[j + 1]
                if src != dst:
                    deltas[src] = deltas.get(src, 0) - 1
                    deltas[dst] = deltas.get(dst, 0) + 1
                if j:
                    rest.append((t - period, j - 1, period, route))
            heads = rest
            for v, delta in deltas.items():
                if delta and v not in found:
                    found.add(v)
                    last_change[v] = r + 1
            if len(found) == left:
                return

    # ------------------------------------------------------------------
    # Move application (end of round).
    # ------------------------------------------------------------------

    def _apply_moves(
        self, pending: list[tuple[int, int]], round_: int
    ) -> None:
        graph = self.graph
        counts = self._counts
        next_round = round_ + 1
        # Canonical per-round order (by agent index): moves are
        # simultaneous, so this only fixes the trace order, making it
        # comparable across schedulers.
        pending.sort()
        deltas: dict[int, int] = {}
        arrivals: set[int] = set()
        emit = self._emit
        dyn = self._dynamics
        for idx, port in pending:
            src = self._pos[idx]
            if dyn is not None and dyn.blocked(src, port, round_):
                # A blocked move costs the round but not the edge: the
                # agent stays put (no occupancy change, nothing to
                # observe) and retries the same port next round.
                self._c_edges_blocked.value += 1
                self._retry_move[idx] = port
                if emit is not None:
                    emit.emit(_EvEdgeBlocked(
                        round=round_, agent=idx, node=src, port=port
                    ))
                self._push(next_round, idx)
                continue
            dst, entry = graph.neighbor(src, port)
            counts[src] -= 1
            counts[dst] += 1
            deltas[src] = deltas.get(src, 0) - 1
            deltas[dst] = deltas.get(dst, 0) + 1
            arrivals.add(dst)
            self._pos[idx] = dst
            self._entry_port[idx] = entry
            self._outcomes[idx].moves += 1
            if self.trace:
                self.move_log.append((round_, idx, src, dst))
            if emit is not None:
                emit.emit(_EvAgentMove(
                    round=round_, agent=idx, src=src, dst=dst
                ))
            self._push(next_round, idx)
        # A node where arrivals exactly balanced departures shows no
        # CurCard variation: agents there notice nothing (the paper's
        # Section 1.4 makes this point explicitly).
        for node, delta in deltas.items():
            if delta == 0:
                continue
            self._last_change[node] = next_round
            if self._watchers[node]:
                new_count = counts[node]
                for widx in list(self._watchers[node]):
                    watch = self._watch[widx]
                    if watch is not None:
                        if watch_hit(watch, new_count):
                            self._reschedule(next_round, widx)
                    elif self._stable[widx] is not None:
                        self._reschedule(
                            next_round + self._stable[widx] - 1, widx
                        )
        # A dormant agent is woken by the first agent that *visits* its
        # starting node, even if the node's cardinality is unchanged.
        for node in arrivals:
            if self._dormant_at[node]:
                for didx in list(self._dormant_at[node]):
                    if self._state[didx] == _DORMANT:
                        self._reschedule(next_round, didx)
                        # Leave the agent in _dormant_at; _start_agent
                        # removes it, and the epoch bump above already
                        # invalidated any later adversary wake entry.
