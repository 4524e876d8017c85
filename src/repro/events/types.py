"""Typed event definitions and the versioned payload codec.

Every event is a frozen dataclass.  Field types are restricted to the
JSON-native subset (``int``/``str``/``bool``/``float``/``None`` and
nested tuples thereof) so a payload survives a JSON round-trip without
loss: ``to_payload`` lowers tuples to lists, ``from_payload`` raises
them back.  Rounds are plain Python ints and may exceed 2**64 — JSON
carries arbitrary-precision integers, so no stringification is needed.

``SCHEMA_VERSION`` names the trace format.  The policy (see
docs/observability.md): adding a new event type or appending an
optional field is a same-version change; renaming or removing a field,
changing a field's meaning, or changing emission order guarantees
bumps the version.  Readers accept traces whose version is <= their
own ``SCHEMA_VERSION`` and reject newer ones.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

SCHEMA_VERSION = 1

# Header line written at the top of every JSONL trace.
SCHEMA_NAME = "repro.events"


@dataclass(frozen=True, slots=True)
class Event:
    """Base class for all typed events."""


# --------------------------------------------------------------------
# Simulation layer (emitted by sim/scheduler.py)
# --------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SimulationStart(Event):
    """A Simulation was constructed (or an event stream was attached).

    ``edges`` is the port graph as ``(u, port_u, v, port_v)`` rows;
    ``agents`` is one ``(label, start_node, wake_round)`` row per
    agent, ``wake_round`` being ``None`` for initially-running agents.
    """

    n: int
    edges: tuple
    agents: tuple


@dataclass(frozen=True, slots=True)
class SimulationEnd(Event):
    """The simulation produced its result."""

    final_round: int
    events: int
    total_moves: int
    gathered: bool


@dataclass(frozen=True, slots=True)
class RoundAdvance(Event):
    """An event-round was committed.

    Emitted after the round's moves/segments/watch events, as the
    commit marker.  ``resumes`` counts agent resumptions processed in
    the round (0 for rounds advanced purely by walk segments).
    """

    round: int
    resumes: int


@dataclass(frozen=True, slots=True)
class AgentMove(Event):
    """One agent crossed one edge in ``round``."""

    round: int
    agent: int
    src: int
    dst: int


@dataclass(frozen=True, slots=True)
class WalkSegment(Event):
    """A batched multi-edge walk executed as a single scheduler event.

    ``round`` is the round of the segment's first edge; ``length`` is
    the number of edges; ``walkers`` lists agent indices and ``routes``
    carries one node route per walker (``length + 1`` nodes each).
    ``observers`` lists co-walking agents in observe mode (vectorized
    planner only).  Per-edge ``AgentMove`` events are *not* emitted for
    segment edges — replay tooling expands routes instead, mirroring
    how trace mode expands ``move_log``.
    """

    round: int
    length: int
    walkers: tuple
    routes: tuple
    observers: tuple


@dataclass(frozen=True, slots=True)
class WatchFired(Event):
    """A node watch triggered, waking agent ``agent`` for ``round``."""

    round: int
    agent: int
    node: int
    count: int


@dataclass(frozen=True, slots=True)
class FaultInjected(Event):
    """The fault adversary crashed agent ``agent`` (label ``label``).

    Emitted at the start of the fault round, before any resume of that
    round: the agent never acts in ``round`` and stops occupying
    ``node`` (its last position) from ``round`` on.
    """

    round: int
    agent: int
    label: int
    node: int


@dataclass(frozen=True, slots=True)
class EdgeBlocked(Event):
    """The dynamic-edge adversary blocked a move in ``round``.

    Agent ``agent`` tried to leave ``node`` through ``port``; the move
    cost the round but not the edge — the agent retries the same port
    in ``round + 1`` (possibly blocked again).  Emitted in the round's
    move-application phase, before the closing :class:`RoundAdvance`.
    """

    round: int
    agent: int
    node: int
    port: int


# --------------------------------------------------------------------
# Runner layer (emitted by runner/trial.py, worker.py, engine.py,
# backends and runner/search/)
# --------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TrialStart(Event):
    """A trial is about to execute (cache misses only)."""

    key: str
    algorithm: str
    family: str
    n: int
    seed: int


@dataclass(frozen=True, slots=True)
class TrialEnd(Event):
    """A trial finished.  ``error`` is ``None`` on success; the metric
    fields are ``None`` when the trial failed before producing them."""

    key: str
    ok: bool
    error: str | None
    rounds: int | None
    moves: int | None
    events: int | None


@dataclass(frozen=True, slots=True)
class SweepStart(Event):
    """``run_experiment`` began: ``total`` trials, ``cached`` of them
    already in the store, executing via ``backend``."""

    spec_hash: str
    backend: str
    total: int
    cached: int


@dataclass(frozen=True, slots=True)
class SweepProgress(Event):
    """One trial of a sweep completed (from cache or execution)."""

    done: int
    total: int
    key: str
    ok: bool
    cached: bool


@dataclass(frozen=True, slots=True)
class SweepEnd(Event):
    """``run_experiment`` finished."""

    total: int
    executed: int
    cached: int
    failed: int


@dataclass(frozen=True, slots=True)
class SearchRoundFrontier(Event):
    """The adaptive adversary search advanced its frontier by one
    round.  ``best_value`` is the objective of the best point so far
    (``None`` until a candidate succeeds)."""

    round_index: int
    attempts: int
    budget: int
    best_value: object
    placement: str | None
    wake: str | None


@dataclass(frozen=True, slots=True)
class BackendChunkClaimed(Event):
    """A manifest worker claimed chunk ``chunk`` of ``chunks``."""

    chunk: int
    chunks: int
    worker: str
    spec_hash: str


# --------------------------------------------------------------------
# Registry + payload codec
# --------------------------------------------------------------------

EVENT_TYPES: dict[str, type[Event]] = {
    cls.__name__: cls
    for cls in (
        SimulationStart,
        SimulationEnd,
        RoundAdvance,
        AgentMove,
        WalkSegment,
        WatchFired,
        FaultInjected,
        EdgeBlocked,
        TrialStart,
        TrialEnd,
        SweepStart,
        SweepProgress,
        SweepEnd,
        SearchRoundFrontier,
        BackendChunkClaimed,
    )
}

_FIELDS: dict[type[Event], tuple] = {cls: fields(cls) for cls in EVENT_TYPES.values()}


def _lower(value):
    """Tuples -> lists, recursively, for JSON-native payloads."""
    if isinstance(value, tuple):
        return [_lower(v) for v in value]
    return value


def _raise(value):
    """Lists -> tuples, recursively (inverse of :func:`_lower`)."""
    if isinstance(value, list):
        return tuple(_raise(v) for v in value)
    return value


def to_payload(event: Event) -> dict:
    """Lower an event to a JSON-native dict with a ``type`` tag."""
    cls = type(event)
    payload: dict = {"type": cls.__name__}
    for f in _FIELDS[cls]:
        payload[f.name] = _lower(getattr(event, f.name))
    return payload


def from_payload(payload: dict) -> Event:
    """Reconstruct an event from a :func:`to_payload` dict.

    Raises ``ValueError`` on an unknown type tag or a field-set
    mismatch — the schema checker relies on this being strict.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"event payload must be an object, got {type(payload).__name__}")
    name = payload.get("type")
    cls = EVENT_TYPES.get(name)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown event type: {name!r}")
    expected = {f.name for f in _FIELDS[cls]}
    got = set(payload) - {"type"}
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise ValueError(
            f"{name}: field mismatch (missing={missing}, unexpected={extra})"
        )
    kwargs = {
        f.name: _raise(payload[f.name]) if f.type == "tuple" else payload[f.name]
        for f in _FIELDS[cls]
    }
    return cls(**kwargs)
