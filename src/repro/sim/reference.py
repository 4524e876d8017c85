"""Naive per-round reference scheduler (the differential oracle).

A from-scratch re-implementation of the synchronous agent model that
advances the clock one round at a time and re-derives every observation
from first principles, with none of the event-compression machinery of
:mod:`repro.sim.scheduler` — no heap, no epochs, no walk segments.  A
``walk`` op is executed one edge per round (the agent-side ``walk``
helper re-resolves and re-issues the rest of its plan on every
arrival), so agreement with the fast scheduler on randomized programs
is direct evidence that segment compression never changes semantics.

The reference mirrors the :class:`~repro.sim.scheduler.Simulation` API
surface the differential suite compares:

* an identical :class:`~repro.sim.scheduler.SimulationResult` —
  outcomes field by field, ``final_round``, ``total_moves`` and the
  ``events`` counter (one event per generator resumption, which the
  fast scheduler matches by counting a *virtual* resume per walked
  edge);
* an identical ``move_log`` in trace mode (both schedulers record each
  round's simultaneous moves in agent-index order);
* identical budget failures (:class:`BudgetExceededError` with the
  same message) and deadlock detection.

Semantics implemented (the documented contract of ``scheduler.py``):

* all moves issued in round ``r`` apply simultaneously between ``r``
  and ``r + 1``;
* a ``wait`` with a watch is abandoned at the first round at which the
  node's cardinality satisfies the watch;
* ``wait_stable(D)`` completes at the first round ``R`` with
  ``R >= last_change + D - 1`` where ``last_change`` is the latest
  round in which the node's cardinality changed (0 if never);
* a dormant agent wakes in the round after an agent arrives at its
  node;
* a crash fault removes its agent at the start of the fault round
  (before wake-ups and resumes; occupancy gone from that round on);
* a dynamics-blocked move costs the round but not the edge (one event
  per retry round, no program re-entry); ``edges_blocked`` counts
  them, as the fast scheduler's does;
* the graceful ``horizon`` finalizes all live agents undeclared when
  the next event would fall after it (``timed_out=True``);
* a ``paced`` walk op runs one round at a time: the agent waits
  ``pace`` rounds, then moves, and at each arrival either waits for
  the next edge or, where the op ends, resumes its program — the
  wait expiry and the arrival each cost an event, without
  re-entering the program, like a retry.

Rounds in which nothing can happen are skipped (:meth:`_next_round`):
with ``idle_jump`` the clock goes from a round in which no agent
moved straight to the earliest wait expiry, stability completion,
wake, fault or retry, so the oracle also runs the unknown-size
algorithms, whose waits are astronomically long, in time
proportional to their event rounds.  ``oracle_rounds`` bounds the
rounds actually processed.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..graphs.port_graph import PortGraph
from .agent import AgentContext
from .ops import (
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
    resolve_walk_step,
    watch_hit,
)
from .scheduler import AgentOutcome, AgentSpec, SimulationResult

_MAX_ADVANCES_PER_ROUND = 100_000


class _RefAgent:
    """Mutable per-agent state of the reference run."""

    __slots__ = (
        "index",
        "label",
        "node",
        "program",
        "wake_round",
        "gen",
        "ctx",
        "state",
        "resume_round",
        "watch",
        "stable_window",
        "entry_port",
        "retry_port",
        "paced",
        "outcome",
    )

    def __init__(
        self,
        index: int,
        label: int,
        node: int,
        program: Callable[[AgentContext], object],
        wake_round: int | None,
    ) -> None:
        self.index = index
        self.label = label
        self.node = node
        self.program = program
        self.wake_round = wake_round
        self.gen = None
        self.ctx: AgentContext | None = None
        self.state = "dormant"
        self.resume_round: int | None = None
        self.watch = None
        self.stable_window: int | None = None
        self.entry_port: int | None = None
        self.retry_port: int | None = None
        # A paced walk op in flight: [steps, pos, pace, stop_degree,
        # port, entries], ``pos`` being the edge crossed or waited for.
        self.paced: list | None = None
        self.outcome = AgentOutcome(label, node)


class ReferenceSimulation:
    """Round-by-round reference implementation.

    Parameters mirror :class:`~repro.sim.scheduler.Simulation` —
    ``faults``, ``dynamics`` and the graceful ``horizon`` included, so
    the differential suite covers faulted runs bit for bit.
    ``oracle_rounds`` bounds the number of processed rounds (a safety
    rail for the oracle itself, raised as :class:`SimulationError`,
    distinct from both the model's ``max_round`` budget and the
    graceful ``horizon``).  Set ``idle_jump`` false on a subclass to
    process every round, as the differential suite does to check the
    jump itself.
    """

    idle_jump = True

    def __init__(
        self,
        graph: PortGraph,
        specs: Iterable[AgentSpec],
        max_events: int | None = None,
        max_round: int | None = None,
        trace: bool = False,
        oracle_rounds: int = 500_000,
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
        self.oracle_rounds = oracle_rounds
        self.horizon = horizon
        self.dynamics = dynamics
        self.timed_out = False
        self.move_log: list[tuple[int, int, int, int]] = []
        self.agents = [
            _RefAgent(i, s.label, s.start_node, s.program, s.wake_round)
            for i, s in enumerate(self.specs)
        ]
        label_index = {a.label: a.index for a in self.agents}
        queue: list[tuple[int, int]] = []
        for label, fround in faults or ():
            fidx = label_index.get(label)
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
        self._faults = queue
        self._fault_i = 0
        self.last_change = [0] * graph.n
        self._events = 0
        self.edges_blocked = 0

    # -- helpers -------------------------------------------------------

    def _count(self, node: int) -> int:
        # A crashed agent stops occupying its node (a declared one
        # keeps occupying it — the fast scheduler's distinction).
        return sum(
            1
            for a in self.agents
            if a.node == node and not a.outcome.crashed
        )

    def _obs(
        self, agent: _RefAgent, round_: int, triggered: bool, entries=None
    ) -> Observation:
        seen = (
            round_,
            self.graph.degree(agent.node),
            agent.entry_port,
            self._count(agent.node),
        )
        if entries is None:
            obs = Observation(*seen, triggered)
        else:  # the end of a paced walk op
            obs = PacedObservation(*seen, entries)
        agent.entry_port = None
        return obs

    def _charge(self, round_: int) -> None:
        """Count one resume against the event budget."""
        self._events += 1
        if self.max_events is not None and self._events > self.max_events:
            raise BudgetExceededError(
                f"event budget exceeded at round {round_}"
            )

    def _start(self, agent: _RefAgent, round_: int) -> None:
        agent.ctx = AgentContext(agent.label)
        agent.ctx.wake_round = round_
        agent.gen = agent.program(agent.ctx)
        agent.state = "ready"
        agent.wake_round = round_
        agent.outcome.wake_round = round_

    def _finish(
        self, agent: _RefAgent, round_: int, payload: object, declared: bool
    ) -> None:
        agent.state = "done"
        agent.gen = None
        out = agent.outcome
        out.finish_round = round_
        out.finish_node = agent.node
        out.payload = payload
        out.declared = declared

    def _advance(
        self,
        agent: _RefAgent,
        round_: int,
        triggered: bool,
        moves_out: list,
        entries=None,
    ) -> None:
        """Resume the agent once; one event, exactly like a heap pop."""
        self._charge(round_)
        obs = self._obs(agent, round_, triggered, entries)
        try:
            if agent.state == "ready" and agent.ctx.obs is None:
                agent.ctx.obs = obs
                op = next(agent.gen)
            else:
                op = agent.gen.send(obs)
        except StopIteration as stop:
            self._finish(agent, round_, stop.value, declared=False)
            return
        kind = op[0]
        if kind == MOVE or kind == WALK or kind == PACED:
            # The reference walks one edge per round: a walk op is just
            # a move of its (already resolved) head port; the agent-side
            # helper re-issues the rest of the plan on arrival.  A paced
            # op first waits its pace; _paced_step runs the rest.
            port = op[1]
            degree = self.graph.degree(agent.node)
            if not isinstance(port, int) or port < 0 or port >= degree:
                raise SimulationError(
                    f"agent {agent.label} took invalid port "
                    f"{port!r} at a node of degree {degree}"
                )
            if kind == PACED:
                agent.paced = [op[2], op[3], op[4], op[5], port, []]
                if op[4]:
                    agent.state = "paced_wait"
                    agent.resume_round = round_ + op[4]
                    return
            moves_out.append((agent, port))
            agent.state = "moving"
        elif kind == WAIT:
            duration, watch = op[1], op[2]
            if duration < 1:
                raise SimulationError(
                    f"wait duration must be >= 1, got {duration}"
                )
            agent.state = "waiting"
            agent.resume_round = round_ + duration
            agent.watch = watch
        elif kind == WAIT_STABLE:
            window = op[1]
            if window < 1:
                raise SimulationError(
                    f"stability window must be >= 1, got {window}"
                )
            agent.state = "stable"
            agent.stable_window = window
        elif kind == OBSERVE:
            # One observed round at a time: the agent helper re-issues
            # the op with the remaining count, so the reference never
            # needs segment semantics.
            if op[1] < 1:
                raise SimulationError(
                    f"observe duration must be >= 1, got {op[1]}"
                )
            agent.state = "waiting"
            agent.resume_round = round_ + 1
            agent.watch = None
        elif kind == DECLARE:
            self._finish(agent, round_, op[1], declared=True)
        else:
            raise SimulationError(f"unknown op {op!r}")

    def _paced_step(
        self, agent: _RefAgent, round_: int, moves_out: list
    ) -> None:
        """One round of a paced walk op: a wait expiry moves the agent;
        an arrival waits for (or, with pace 0, takes) the next edge, or
        resumes the program where the op ends."""
        paced = agent.paced
        steps, pos, pace, stop_degree, port, entries = paced
        if agent.state == "paced_wait":
            self._charge(round_)
            moves_out.append((agent, port))
            agent.state = "moving"
            return
        entry = agent.entry_port
        entries.append(entry)
        pos += 1
        paced[1] = pos
        degree = self.graph.degree(agent.node)
        port = None
        if pos < len(steps) and (
            stop_degree is None or degree < stop_degree
        ):
            port = resolve_walk_step(steps[pos], entry, degree)
            if port >= degree:
                port = None
        if port is None:
            agent.paced = None
            self._advance(agent, round_, False, moves_out, entries)
            return
        self._charge(round_)
        paced[4] = port
        if pace:
            agent.state = "paced_wait"
            agent.resume_round = round_ + pace
        else:
            moves_out.append((agent, port))
            agent.state = "moving"

    def _due(self, agent: _RefAgent, round_: int) -> tuple[bool, bool]:
        """Is the agent due to resume this round? -> (due, triggered)."""
        if agent.state == "ready":
            return True, False
        if agent.state == "waiting":
            if agent.watch is not None and watch_hit(
                agent.watch, self._count(agent.node)
            ):
                return True, True
            return round_ >= agent.resume_round, False
        if agent.state == "stable":
            threshold = self.last_change[agent.node] + agent.stable_window - 1
            return round_ >= threshold, False
        if agent.state == "paced_wait":
            return round_ >= agent.resume_round, False
        if agent.state == "paced_arrive":
            return True, False
        return False, False

    def _next_round(self, round_: int) -> int:
        """The next round in which anything can happen after ``round_``.

        Sound because CurCards change only through moves and crashes:
        after a round in which no agent moved, every count stays fixed
        until the next crash, so no watch can fire, no ``last_change``
        can move and no dormant agent can be visited before the
        earliest of the candidates below — and a round where an agent
        moved always leads to the next one (the mover arrives).
        """
        candidates = []
        for agent in self.agents:
            state = agent.state
            if state in ("ready", "retry", "paced_arrive"):
                return round_ + 1
            if state in ("waiting", "paced_wait"):
                candidates.append(agent.resume_round)
            elif state == "stable":
                candidates.append(
                    self.last_change[agent.node] + agent.stable_window - 1
                )
            elif state == "dormant" and agent.wake_round is not None:
                candidates.append(agent.wake_round)
        if self._faults:
            fault_round = self._next_fault_round()
            if fault_round is not None:
                candidates.append(fault_round)
        later = [r for r in candidates if r > round_]
        return min(later) if later else round_ + 1

    # -- fault injection ----------------------------------------------

    def _next_fault_round(self) -> int | None:
        """Round of the earliest pending fault with a live target."""
        for fround, idx in self._faults[self._fault_i:]:
            if self.agents[idx].state != "done":
                return fround
        return None

    def _apply_faults(self, round_: int) -> None:
        """Crash every agent whose fault falls due at ``round_``.

        Applied before wake-ups and resumes: a crashed agent never
        acts in its fault round, and its occupancy disappears from
        ``round_`` on (``_count`` skips crashed agents), so watchers
        and stability windows see the departure this very round.
        """
        faults = self._faults
        while self._fault_i < len(faults) and faults[self._fault_i][0] <= round_:
            _, idx = faults[self._fault_i]
            self._fault_i += 1
            agent = self.agents[idx]
            if agent.state == "done":
                continue
            agent.state = "done"
            agent.gen = None
            agent.watch = None
            agent.stable_window = None
            agent.retry_port = None
            agent.paced = None
            out = agent.outcome
            out.finish_round = round_
            out.finish_node = agent.node
            out.declared = False
            out.crashed = True
            self.last_change[agent.node] = round_

    def _graceful_stop(self) -> None:
        """Finalize every live agent undeclared: the horizon expired."""
        self.timed_out = True
        for agent in self.agents:
            if agent.state == "done":
                continue
            agent.state = "done"
            agent.gen = None
            agent.watch = None
            agent.stable_window = None
            agent.retry_port = None
            agent.paced = None
            out = agent.outcome
            out.finish_round = None
            out.finish_node = agent.node
            out.declared = False

    # -- main loop -----------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute until every agent terminates."""
        round_ = 0
        processed = 0
        while True:
            if processed > self.oracle_rounds:
                raise SimulationError(
                    f"reference horizon of {self.oracle_rounds} rounds "
                    "exhausted before all agents terminated"
                )
            processed += 1
            if all(a.state == "done" for a in self.agents):
                break
            fault_round = self._next_fault_round() if self._faults else None
            # Deadlock: only unwakeable dormant agents remain and no
            # pending fault can still remove one of them (the fast
            # scheduler jumps straight to such a fault's round).
            if fault_round is None and all(
                a.state == "done"
                or (a.state == "dormant" and a.wake_round is None)
                for a in self.agents
            ):
                if self.horizon is not None:
                    self._graceful_stop()
                    break
                active = sum(1 for a in self.agents if a.state != "done")
                raise DeadlockError(
                    f"{active} agent(s) can never run again "
                    "(dormant and unvisited, or waiting forever)"
                )
            # Graceful horizon and round budget: mirror the fast
            # scheduler's checks on the next scheduled event — wake-up,
            # resume, retry or crash — before anything in it runs.
            due_now = (
                fault_round == round_
                or any(a.state == "retry" for a in self.agents)
                or any(
                    self._due(a, round_)[0]
                    for a in self.agents
                    if a.state not in ("done", "dormant")
                )
                or any(
                    a.state == "dormant" and a.wake_round == round_
                    for a in self.agents
                )
            )
            if self.horizon is not None and due_now and round_ > self.horizon:
                self._graceful_stop()
                break
            if (
                self.max_round is not None
                and round_ > self.max_round
                and due_now
            ):
                raise BudgetExceededError(
                    f"round budget exceeded: next event at round {round_}"
                )
            # 0. crash faults land before anything else in the round.
            if self._faults:
                self._apply_faults(round_)
            # 1. adversary wake-ups scheduled for this round.
            for agent in self.agents:
                if agent.state == "dormant" and agent.wake_round == round_:
                    self._start(agent, round_)
            # 2. resume every due agent; chained ops (e.g. a stability
            # wait that is already satisfied) may come due within the
            # same round, so iterate to a fixpoint.  Counts do not
            # change mid-round (moves apply at the end), so resumption
            # order is immaterial.  Dynamics-blocked movers go first:
            # they retry their port verbatim — one event, no program
            # re-entry, no observation.
            moves: list[tuple[_RefAgent, int]] = []
            for agent in self.agents:
                if agent.state == "retry":
                    self._charge(round_)
                    moves.append((agent, agent.retry_port))
                    agent.retry_port = None
                    agent.state = "moving"
            advances = 0
            progress = True
            while progress:
                progress = False
                for agent in self.agents:
                    if agent.state in ("moving", "done", "dormant"):
                        continue
                    due, triggered = self._due(agent, round_)
                    if due:
                        advances += 1
                        if advances > _MAX_ADVANCES_PER_ROUND:
                            raise SimulationError(
                                f"agent resumed too often in round {round_}; "
                                "non-advancing program?"
                            )
                        progress = True
                        if agent.paced is not None:
                            self._paced_step(agent, round_, moves)
                            continue
                        agent.watch = None
                        agent.stable_window = None
                        self._advance(agent, round_, triggered, moves)
            # 3. apply the round's moves simultaneously, in agent-index
            # order (the canonical trace order of both schedulers).
            moves.sort(key=lambda pair: pair[0].index)
            before = [self._count(v) for v in self.graph.nodes()]
            arrivals: set[int] = set()
            for agent, port in moves:
                src = agent.node
                if self.dynamics is not None and self.dynamics.blocked(
                    src, port, round_
                ):
                    # A blocked move costs the round but not the edge:
                    # the agent stays (no occupancy change, nothing to
                    # observe) and retries the same port next round.
                    agent.state = "retry"
                    agent.retry_port = port
                    self.edges_blocked += 1
                    continue
                dst, entry = self.graph.neighbor(src, port)
                agent.node = dst
                agent.entry_port = entry
                agent.outcome.moves += 1
                agent.state = "ready" if agent.paced is None else "paced_arrive"
                arrivals.add(dst)
                if self.trace:
                    self.move_log.append((round_, agent.index, src, dst))
            after = [self._count(v) for v in self.graph.nodes()]
            for v in self.graph.nodes():
                if before[v] != after[v]:
                    self.last_change[v] = round_ + 1
            # 4. dormant wake-ups by visit (start next round).
            for agent in self.agents:
                if agent.state == "dormant" and agent.node in arrivals:
                    agent.wake_round = round_ + 1
            round_ = self._next_round(round_) if self.idle_jump else round_ + 1
        outcomes = [a.outcome for a in self.agents]
        final_round = max(
            (o.finish_round for o in outcomes if o.finish_round is not None),
            default=0,
        )
        total_moves = sum(o.moves for o in outcomes)
        return SimulationResult(
            outcomes,
            self._events,
            final_round,
            total_moves,
            crashed_labels=tuple(o.label for o in outcomes if o.crashed),
            timed_out=self.timed_out,
        )
