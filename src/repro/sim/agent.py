"""Agent-side runtime: the context object and primitive helpers.

Algorithm code is written as generator functions receiving an
:class:`AgentContext`.  The helpers below are sub-generators used with
``yield from``; each forwards one primitive op to the scheduler,
refreshes ``ctx`` with the resulting :class:`Observation` and converts
fired watches into :class:`WatchTriggered` exceptions, which gives the
pseudo-code's "interrupt this block as soon as ..." a direct and
readable translation::

    try:
        yield from wait(ctx, D, watch=("gt", c))
        yield from explo(ctx, N, watch=("gt", c))
    except WatchTriggered:
        interrupted = True
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator

from ..metrics import register_collector as _register_collector
from .ops import (
    DECLARE,
    MOVE,
    OBSERVE,
    Observation,
    PACED,
    resolve_walk_step,
    WAIT,
    WAIT_STABLE,
    WALK,
    WalkObservation,
    Watch,
    watch_hit,
)

AgentGen = Generator[tuple, Observation, object]

# Walk-plan interner.  Algorithms re-derive the same plans over and
# over as fresh tuples (EXPLO backtracks, EST tree-path probes, ECE
# word sweeps); the scheduler's route cache keys chased routes by plan
# *identity*, so equal plans must be funnelled through one canonical
# tuple to hit it.  Bounded LRU; plans are graph-independent port/rule
# sequences, so sharing across agents and trials is safe.
_PLAN_INTERN: OrderedDict[tuple, tuple] = OrderedDict()
_PLAN_INTERN_CAP = 4096

# Hit/miss tallies: plain module ints on the hot path, published into
# an attached metrics registry as absolute process totals at snapshot
# time (see the collector at the bottom of this module).
_INTERN_HITS = 0
_INTERN_MISSES = 0


def intern_plan(steps: tuple) -> tuple:
    """The canonical tuple equal to ``steps`` (inserted if new)."""
    global _INTERN_HITS, _INTERN_MISSES
    hit = _PLAN_INTERN.get(steps)
    if hit is not None:
        _INTERN_HITS += 1
        _PLAN_INTERN.move_to_end(steps)
        return hit
    _INTERN_MISSES += 1
    _PLAN_INTERN[steps] = steps
    if len(_PLAN_INTERN) > _PLAN_INTERN_CAP:
        _PLAN_INTERN.popitem(last=False)
    return steps


def intern_stats() -> tuple[int, int]:
    """``(hits, misses)`` of the walk-plan interner, process-wide."""
    return _INTERN_HITS, _INTERN_MISSES


def reset_intern_stats() -> None:
    """Zero the tallies (a forked pool worker starts its own totals)."""
    global _INTERN_HITS, _INTERN_MISSES
    _INTERN_HITS = 0
    _INTERN_MISSES = 0


def _collect_intern_stats(registry) -> None:
    registry.counter("sim.plan_intern.hits").value = _INTERN_HITS
    registry.counter("sim.plan_intern.misses").value = _INTERN_MISSES


_register_collector(_collect_intern_stats)


class WatchTriggered(Exception):
    """A watched cardinality condition fired during an op."""

    def __init__(self, observation: Observation) -> None:
        super().__init__("watch triggered")
        self.observation = observation


class AgentContext:
    """Per-agent view handed to algorithm generators.

    Exposes the agent's label, its last observation and a local clock.
    Everything else (node identity, other agents' labels or positions)
    is deliberately absent, matching the paper's model.
    """

    __slots__ = ("label", "obs", "wake_round", "entries_log")

    def __init__(self, label: int) -> None:
        self.label = label
        self.obs: Observation | None = None
        self.wake_round: int | None = None
        # Optional recording of entry ports; Hypothesis() (Algorithm 6)
        # retraces every port it entered through during its first part.
        self.entries_log: list[int] | None = None

    # -- perception ----------------------------------------------------

    def curcard(self) -> int:
        """CurCard: number of agents at the current node, now."""
        return self.obs.curcard

    def degree(self) -> int:
        """Degree of the current node."""
        return self.obs.degree

    def local_time(self) -> int:
        """Rounds elapsed since this agent woke up."""
        return self.obs.round - self.wake_round

    def record_entries(self) -> None:
        """Start logging ports of entry (for Algorithm 6 line 16)."""
        self.entries_log = []

    def stop_recording_entries(self) -> list[int]:
        """Stop logging and return the recorded entry ports."""
        log = self.entries_log if self.entries_log is not None else []
        self.entries_log = None
        return log


def move(ctx: AgentContext, port: int, watch: Watch | None = None) -> AgentGen:
    """``take port p``: one round, returns the arrival observation."""
    obs = yield (MOVE, port, watch)
    ctx.obs = obs
    if ctx.entries_log is not None:
        ctx.entries_log.append(obs.entry_port)
    if watch is not None and watch_hit(watch, obs.curcard):
        raise WatchTriggered(obs)
    return obs


class Walked:
    """What one :func:`walk` walked, kept as the observations it got.

    Each piece is a fast-path :class:`~repro.sim.ops.WalkObservation`
    (a whole segment, by reference into its route) or a plain
    observation of one edge run through the ordinary machinery.
    ``min_card`` is the smallest CurCard over all arrivals (``None``
    when nothing was walked), which is all ``EXPLO`` and the
    algorithms built on it read; per-edge records and entry ports are
    built only when asked for.
    """

    __slots__ = ("pieces", "edges", "min_card")

    def __init__(self) -> None:
        self.pieces: list[Observation] = []
        self.edges = 0
        self.min_card: int | None = None

    def __len__(self) -> int:
        return self.edges

    def rows(self) -> list[tuple]:
        """Per-edge records ``(round, degree, entry_port, curcard)`` —
        what :func:`move` would have observed on each arrival."""
        rows: list[tuple] = []
        for obs in self.pieces:
            if type(obs) is WalkObservation:
                rows.extend(obs.walked)
            else:
                rows.append(
                    (obs.round, obs.degree, obs.entry_port, obs.curcard)
                )
        return rows

    def entries(self) -> list[int]:
        """The entry port of every edge walked, in order."""
        return [row[2] for row in self.rows()]

    def backtrack(self, cut: int | None = None) -> tuple[int, ...]:
        """The plan retracing the walk: its entry ports, reversed, as
        absolute steps — only the first ``cut`` of them when given.

        A walk that ran as pieces of one route (on a ``Chase`` offsets
        follow plan positions, so such pieces are contiguous) takes the
        plan from a memo on the route, so a repeated tour costs no
        copying or hashing and hands the route cache the same plan
        object every time.  Other walks build and intern the plan.
        """
        if cut is not None and cut >= self.edges:
            cut = None
        pieces = self.pieces
        if pieces and type(pieces[0]) is WalkObservation:
            first = pieces[0]
            route = first.route
            end = first.offset + first.edges
            for obs in pieces[1:]:
                if type(obs) is not WalkObservation or obs.route is not route:
                    break
                end += obs.edges
            else:
                return _route_backtrack(route, first.offset, end, cut)
        plan = tuple(reversed(self.entries()))
        return intern_plan(plan if cut is None else plan[:cut])


def _route_backtrack(route, start: int, end: int, cut: int | None) -> tuple:
    """The interned reverse of ``route.entries[start:end]``, cut to its
    first ``cut`` steps.

    Only whole reverses are memoized on the route: a cut one (the last
    slot of a ``TZ`` stream) is sliced and interned each time, so the
    memo holds one plan per walk span, not one per cut length.
    """
    memo = route.backtracks
    if memo is None:
        memo = route.backtracks = {}
    key = (start, end)
    plan = memo.get(key)
    if plan is None:
        plan = tuple(reversed(route.entries[start:end]))
        plan = memo[key] = intern_plan(plan)
    return plan if cut is None else intern_plan(plan[:cut])


def walk(
    ctx: AgentContext,
    steps,
    watch: Watch | None = None,
    stop_before_invalid: bool = False,
) -> AgentGen:
    """Walk a deterministic multi-edge segment, one round per edge.

    ``steps`` is a walk plan (see :mod:`repro.sim.ops`): a tuple of
    ints where ``step >= 0`` is an absolute exit port and ``step < 0``
    is a UXS-rule step with offset ``~step``.  The scheduler may
    execute any interaction-free prefix as a single event; this helper
    loops until the whole plan has run, so agent code sees exactly the
    per-edge history of the per-step model.

    Returns a :class:`Walked`: the walk's minimum CurCard, and what it
    walked (per-edge records, entry ports or the backtrack plan on
    request).  Raises :class:`WatchTriggered` on the first arrival
    whose CurCard fires ``watch``, after recording that edge (like
    :func:`move`).

    With ``stop_before_invalid`` the walk ends quietly *before* the
    first absolute step that is not a valid port of the current node
    (for plans hypothesised against an unknown graph, cf. Algorithm 8);
    otherwise such a step is rejected by the scheduler exactly like a
    bad ``move``.
    """
    steps = tuple(steps)
    walked = Walked()
    pieces = walked.pieces
    low = None
    entry: int | None = None  # UXS rule state along the walk
    i = 0
    total = len(steps)
    while i < total:
        degree = ctx.degree()
        port = resolve_walk_step(steps[i], entry, degree)
        if stop_before_invalid and (port < 0 or port >= degree):
            break
        obs = yield (WALK, port, steps, i, watch)
        ctx.obs = obs
        pieces.append(obs)
        if type(obs) is WalkObservation:
            # Fast path: a whole segment ran as one event.
            card = obs.min_card()
            i += obs.edges
            if ctx.entries_log is not None:
                ctx.entries_log.extend(obs.entries())
        else:
            # Slow path: the scheduler executed exactly one edge with
            # the ordinary simultaneous-move machinery.
            card = obs.curcard
            i += 1
            if ctx.entries_log is not None:
                ctx.entries_log.append(obs.entry_port)
        entry = obs.entry_port
        if low is None or card < low:
            low = card
        if watch is not None and watch_hit(watch, obs.curcard):
            raise WatchTriggered(obs)
    walked.edges = i
    walked.min_card = low
    return walked


def paced_walk(
    ctx: AgentContext,
    steps,
    pace: int,
    *,
    stop_before_invalid: bool = False,
    stop_degree: int | None = None,
) -> AgentGen:
    """Walk a plan with a wait of ``pace`` rounds before every edge.

    By definition this is ``for each step: wait(ctx, pace); move(ctx,
    port)`` — same rounds, events (a wait-expiry resume and an arrival
    resume per edge; just the arrival when ``pace <= 0``), failures
    and ``ctx.entries_log`` — issued as ``paced`` ops, so the scheduler
    can run many edges, of many paced walkers, per event.  ``steps``
    is a walk plan (see :mod:`repro.sim.ops`).

    Before each edge the walk ends quietly when the current node's
    degree is at least ``stop_degree``, or, with
    ``stop_before_invalid``, when the step is not a valid port;
    without it, an invalid step waits and is then rejected like a bad
    :func:`move`.  Both checks run before anything is yielded, so a
    walk that stops before its first edge costs no round.  Returns the
    entry ports of the edges crossed.
    """
    steps = tuple(steps)
    pace = pace if pace > 0 else 0
    entries: list[int] = []
    entry: int | None = None  # UXS rule state along the walk
    plan = None
    i = 0
    total = len(steps)
    while i < total:
        degree = ctx.degree()
        if stop_degree is not None and degree >= stop_degree:
            break
        port = resolve_walk_step(steps[i], entry, degree)
        if port < 0 or port >= degree:
            if stop_before_invalid:
                break
            yield from wait(ctx, pace)
            yield from move(ctx, port)  # the scheduler rejects the port
        if plan is None:
            # Interned, so the route cache serves a repeated plan.
            plan = intern_plan(steps)
        obs = yield (PACED, port, plan, i, pace, stop_degree)
        ctx.obs = obs
        crossed = obs.entries
        entries.extend(crossed)
        if ctx.entries_log is not None:
            ctx.entries_log.extend(crossed)
        entry = crossed[-1]
        i += len(crossed)
    return entries


def observe(ctx: AgentContext, rounds: int) -> AgentGen:
    """Observe CurCard for ``rounds`` consecutive rounds while waiting.

    Byte-identical to ``rounds`` iterations of ``wait(ctx, 1)`` each
    followed by a CurCard reading — same events, same round arithmetic —
    but issued as ``observe`` ops so the scheduler's segment planner
    can advance a stationary observer together with a walking cohort
    (the rank-ordered dance of ``StarCheck`` is the motivating case).

    Returns a list of per-round records ``(round, degree, entry_port,
    curcard)``; ``entry_port`` is always ``None`` (the agent does not
    move).  Does not touch ``ctx.entries_log``.  ``rounds <= 0`` is a
    no-op returning an empty list.
    """
    records: list[tuple[int, int, None, int]] = []
    remaining = rounds
    while remaining > 0:
        obs = yield (OBSERVE, remaining, None)
        ctx.obs = obs
        walked = getattr(obs, "walked", None)
        if walked is None:
            # Slow path: one round observed via the ordinary machinery.
            records.append((obs.round, obs.degree, None, obs.curcard))
            remaining -= 1
        else:
            # Fast path: a whole segment of rounds ran as one event.
            records.extend(walked)
            remaining -= len(walked)
    return records


def wait(ctx: AgentContext, rounds: int, watch: Watch | None = None) -> AgentGen:
    """``wait x rounds``; duration 0 is a no-op.

    If the watch already holds when the wait would begin, the wait is
    abandoned immediately (the paper's "as soon as").
    """
    if watch is not None and watch_hit(watch, ctx.obs.curcard):
        raise WatchTriggered(ctx.obs)
    if rounds <= 0:
        return ctx.obs
    obs = yield (WAIT, rounds, watch)
    ctx.obs = obs
    if obs.triggered:
        raise WatchTriggered(obs)
    return obs


def wait_stable(ctx: AgentContext, window: int) -> AgentGen:
    """Wait until ``window`` consecutive rounds pass with no CurCard
    variation, counting from (and including) the round of the latest
    variation — the primitive of lines 16/31 of Algorithm 3."""
    if window <= 0:
        return ctx.obs
    obs = yield (WAIT_STABLE, window, None)
    ctx.obs = obs
    return obs


def declare(ctx: AgentContext, payload: object) -> AgentGen:
    """Terminal op: declare (gathering achieved) with a result payload."""
    yield (DECLARE, payload, None)
    raise AssertionError("agent resumed after declaring")  # pragma: no cover
