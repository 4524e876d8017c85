"""Typed event stream for scheduler and runner observability.

The package is deliberately dependency-free: nothing in here imports
from ``repro.sim`` or ``repro.runner``, so the scheduler, the engine
and every backend can import it without cycles.

Layout:

``types``
    Frozen-dataclass event definitions plus the versioned payload
    codec (``to_payload`` / ``from_payload``) and ``SCHEMA_VERSION``.
``stream``
    The ``EventDispatcher`` composite and the module-global attachment
    point (``current()`` / ``attached(...)``).  Emission sites read
    the global once at construction time; when nothing is attached the
    cost is a single ``is None`` check.
``processors``
    The ``EventProcessor`` protocol and the shipped processors:
    ``ListProcessor`` (tests), ``JsonlTraceProcessor`` (structured
    capture) and ``ConsoleProgressProcessor`` (line-atomic progress
    rendering).
``schema``
    Introspection + validation of event payloads and JSONL traces.
``replay``
    Trace loading, payload round-tripping, summaries and the
    self-contained HTML replay viewer.
``cli``
    ``python -m repro trace validate|replay|summary``.

See docs/observability.md for the taxonomy and the version policy.
"""

from .processors import (
    ConsoleProgressProcessor,
    EventProcessor,
    JsonlTraceProcessor,
    ListProcessor,
)
from .stream import EventDispatcher, attached, current
from .types import (
    SCHEMA_VERSION,
    AgentMove,
    BackendChunkClaimed,
    Event,
    RoundAdvance,
    SearchRoundFrontier,
    SimulationEnd,
    SimulationStart,
    SweepEnd,
    SweepProgress,
    SweepStart,
    TrialEnd,
    TrialStart,
    WalkSegment,
    WatchFired,
    from_payload,
    to_payload,
)

__all__ = [
    "SCHEMA_VERSION",
    "Event",
    "SimulationStart",
    "SimulationEnd",
    "RoundAdvance",
    "AgentMove",
    "WalkSegment",
    "WatchFired",
    "TrialStart",
    "TrialEnd",
    "SweepStart",
    "SweepProgress",
    "SweepEnd",
    "SearchRoundFrontier",
    "BackendChunkClaimed",
    "to_payload",
    "from_payload",
    "EventDispatcher",
    "attached",
    "current",
    "EventProcessor",
    "ListProcessor",
    "JsonlTraceProcessor",
    "ConsoleProgressProcessor",
]
