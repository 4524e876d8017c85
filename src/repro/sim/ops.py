"""Primitive operations and observations of the agent model.

The paper's agents execute exactly one *move instruction* per round:
``take port p`` or ``wait`` (Section 1.2).  The only perception an
agent ever gets is:

* on entering a node: the node's degree and the port of entry,
* in every round: ``CurCard`` — the number of agents (itself included)
  at its current node.

Agent programs are Python generators that yield primitive ops; the
scheduler resumes them with :class:`Observation` objects.  A multi-round
``wait`` is a single op: the scheduler compresses the intervening
rounds, which is what makes the doubly-exponential waiting periods of
``GatherUnknownUpperBound`` executable (see DESIGN.md Section 4).

Ops
---
* ``move`` — take one port (one round);
* ``walk`` — a multi-edge walk plan, one round per edge;
* ``paced`` — a walk plan with a wait of ``pace`` rounds before every
  edge (the slowed-down walks of ``GatherUnknownUpperBound``);
* ``wait`` — stay for a number of rounds, optionally watched;
* ``wait_stable`` — stay until CurCard has been stable for a window;
* ``observe`` — stay and read CurCard every round;
* ``declare`` — terminate with a payload.

Watches
-------
Interruptible blocks ("interrupt as soon as CurCard > c") are expressed
as declarative *watches* attached to ``wait`` and ``move`` ops:

* ``("gt", c)``  — trigger when ``CurCard > c``
* ``("ne", c)``  — trigger when ``CurCard != c``
* ``("eq", c)``  — trigger when ``CurCard == c``
* ``("lt", c)``  — trigger when ``CurCard < c``

For ``move`` ops the watch is evaluated by the agent-side helpers on
the arrival observation; for ``wait`` ops the scheduler evaluates it
whenever the occupancy of the waiting agent's node changes.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable

# Op kind tags (tuples keep the hot path allocation-light).
MOVE = "move"
WALK = "walk"
WAIT = "wait"
WAIT_STABLE = "wait_stable"
DECLARE = "declare"
# ``(OBSERVE, remaining, None)`` — observe CurCard for ``remaining``
# consecutive rounds while staying put.  Semantically identical to
# ``remaining`` one-round waits each followed by a CurCard reading, but
# expressed as one op so the segment planner can run a stationary
# observer as a cohort member of a multi-round segment (the planner
# computes the per-round CurCard trace it would have seen).  The
# scheduler may deliver any prefix of the requested rounds; the agent
# helper re-issues the op with the rest, like ``walk``.
OBSERVE = "observe"
# ``(PACED, port, steps, pos, pace, stop_degree)`` — a *paced walk*:
# by definition ``for each step: wait pace rounds; take the step's
# port``, from plan position ``pos`` on (``port`` is that step,
# already resolved).  Emitted by :func:`repro.sim.agent.paced_walk`.
# The scheduler executes the steps without re-entering the generator
# and resumes it with a :class:`PacedObservation` at the arrival after
# which the plan ends, the next absolute step is an invalid port, or
# the node's degree is at least ``stop_degree`` (``None``: never).
# Paced walkers read only entry ports and degrees, never CurCard, so
# on static edges the scheduler advances all of them jointly between
# interactions (see ``scheduler.py``).
PACED = "paced"

Watch = tuple[str, int]

_WATCH_PREDICATES: dict[str, Callable[[int, int], bool]] = {
    "gt": lambda card, value: card > value,
    "ne": lambda card, value: card != value,
    "eq": lambda card, value: card == value,
    "lt": lambda card, value: card < value,
}


def watch_hit(watch: Watch | None, curcard: int) -> bool:
    """Evaluate a watch against a cardinality reading."""
    if watch is None:
        return False
    kind, value = watch
    return _WATCH_PREDICATES[kind](curcard, value)


# ----------------------------------------------------------------------
# Walk plans.
#
# A ``walk`` op describes a whole deterministic multi-edge segment in
# one op, so the scheduler can execute it as a *single* event when no
# interaction is possible (see the segment planner in ``scheduler.py``).
# A plan is a tuple of *walk steps*, each a plain int:
#
# * ``step >= 0`` — an absolute exit port (backtracks, stored paths);
# * ``step < 0``  — a UXS-rule step encoding the offset ``x`` as
#   ``~x``: the exit port is ``(entry + x) mod degree``, or ``x mod
#   degree`` for the first edge of a fresh walk (no entry port yet).
#
# The encoding keeps plans allocation-light (flat int tuples) while
# letting agents precompute entire EXPLO / signature walks without
# knowing the graph: the offsets are known in advance, and the
# scheduler (which does know the graph) resolves them edge by edge.
# ----------------------------------------------------------------------

WalkStep = int


def uxs_walk_steps(offsets) -> tuple[int, ...]:
    """Encode a UXS offset sequence as a walk plan (rule steps)."""
    return tuple(~x for x in offsets)


def resolve_walk_step(step: WalkStep, entry: int | None, degree: int) -> int:
    """Exit port of one walk step given the rule state ``entry``.

    Absolute steps are returned as-is (callers validate the range, so
    an out-of-range port fails exactly like a bad ``move`` op would).
    """
    if step >= 0:
        return step
    offset = ~step
    if entry is None:
        return offset % degree
    return (entry + offset) % degree


def iter_walk(graph, start: int, steps, entry: int | None = None):
    """Shared step iterator: yield ``(port, node, entry)`` per edge.

    Resolves a walk plan against a concrete graph from ``start`` with
    initial rule state ``entry``, stopping before the first absolute
    step that is not a valid port.  Used by the UXS helpers, pre-flight
    verification included (:mod:`repro.explore.uxs`).  The route chase
    in :mod:`repro.sim.segments` inlines the step instead, and the
    tests hold it to per-step replays.
    """
    node = start
    for step in steps:
        degree = graph.degree(node)
        port = resolve_walk_step(step, entry, degree)
        if port < 0 or port >= degree:
            return
        node, entry = graph.neighbor(node, port)
        yield port, node, entry


def _arrivals(stalled: dict[int, int], m: int) -> list[int]:
    """Route indices ``1 .. m`` at which a walker with these stalls arrives."""
    return [t for t in range(1, m + 1) if t - 1 not in stalled]


class Observation:
    """What an agent perceives in one round.

    Attributes
    ----------
    round:
        The global round number.  Agent algorithms must only use
        *differences* of rounds (their local clock); the absolute value
        exists for tracing and tests.
    degree:
        Degree of the current node.
    entry_port:
        Port through which the agent entered the node if the previous
        op was a move, else ``None``.
    curcard:
        Number of agents co-located with the agent (itself included).
    triggered:
        True when this observation is delivered because a watch fired
        during a ``wait``.
    """

    __slots__ = ("round", "degree", "entry_port", "curcard", "triggered")

    def __init__(
        self,
        round: int,
        degree: int,
        entry_port: int | None,
        curcard: int,
        triggered: bool = False,
    ) -> None:
        self.round = round
        self.degree = degree
        self.entry_port = entry_port
        self.curcard = curcard
        self.triggered = triggered

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Observation(round={self.round}, degree={self.degree}, "
            f"entry_port={self.entry_port}, curcard={self.curcard}, "
            f"triggered={self.triggered})"
        )


class WalkObservation(Observation):
    """Observation delivered at the end of a fast-path walk segment.

    The segment arrives *by reference*, not as per-edge lists: the
    walker's ``edges`` arrivals are described by
    ``route.entries[offset:offset + edges]`` and the same span of
    ``route.degrees`` (a :class:`repro.sim.scheduler.Route` — the route
    cache's shared ``Chase`` on static edges), and its CurCard is
    ``size`` at every arrival except the arrival indices listed in
    ``extra``, where ``extra[i]`` agents (always positive) are added.
    ``stalls`` maps the walker's stall rounds (offsets from the
    segment's first round) to ports, or is ``None``; a stall round has
    no arrival.  A stationary ``observe`` member gets ``route=None``:
    one "arrival" per round, at its own node.  The inherited fields
    describe the final arrival.

    Walk-dominated algorithms (``EXPLO``) read only :meth:`min_card`
    and the route itself; ``walked`` builds the per-edge records
    ``(round, degree, entry_port, curcard)`` the agent *would* have
    observed under per-edge execution on first access, for everyone
    else.
    """

    __slots__ = ("route", "offset", "edges", "size", "extra", "stalls",
                 "_walked")

    def __init__(
        self,
        round: int,
        degree: int,
        entry_port: int | None,
        curcard: int,
        triggered: bool,
        segment: tuple,
    ) -> None:
        super().__init__(round, degree, entry_port, curcard, triggered)
        (self.route, self.offset, self.edges, self.size, self.extra,
         self.stalls) = segment
        self._walked: list | None = None

    def min_card(self) -> int:
        """The smallest CurCard over the segment's arrivals."""
        extra = self.extra
        if len(extra) < self.edges:
            return self.size  # some arrival is no exception
        return self.size + min(extra.values())

    def entries(self) -> list:
        """Entry port of every arrival (``None`` for an observer)."""
        if self.route is None:
            return [None] * self.edges
        off = self.offset
        return self.route.entries[off:off + self.edges]

    @property
    def walked(self) -> list:
        rows = self._walked
        if rows is None:
            edges = self.edges
            end = self.round
            stalls = self.stalls
            if stalls is None:
                rounds = range(end - edges + 1, end + 1)
            else:
                m = edges + len(stalls)
                rounds = [end - m + t for t in _arrivals(stalls, m)]
            cards = [self.size] * edges
            for i, more in self.extra.items():
                cards[i] += more
            route = self.route
            if route is None:
                degrees = repeat(self.degree)
            else:
                off = self.offset
                degrees = route.degrees[off:off + edges]
            rows = self._walked = list(
                zip(rounds, degrees, self.entries(), cards)
            )
        return rows


class PacedObservation(Observation):
    """Observation delivered when a paced walk op ends.

    The inherited fields describe the final arrival, exactly as the
    per-step ``move`` would have observed it; ``entries`` holds the
    entry port of every edge the op crossed, in order.
    """

    __slots__ = ("entries",)

    def __init__(
        self,
        round: int,
        degree: int,
        entry_port: int | None,
        curcard: int,
        entries: list[int],
    ) -> None:
        super().__init__(round, degree, entry_port, curcard, False)
        self.entries = entries


class SimulationError(RuntimeError):
    """Raised for protocol violations (bad port, bad op, budget)."""


class DeadlockError(SimulationError):
    """All remaining agents wait forever on conditions nobody can meet."""


class BudgetExceededError(SimulationError):
    """The event or round budget of the simulation was exhausted."""
