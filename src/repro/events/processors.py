"""The ``EventProcessor`` protocol and the shipped processors.

``EventProcessor`` is the consumer contract.  Three concrete processors
ship:

``ListProcessor``
    Collects events in order — the test workhorse.
``JsonlTraceProcessor``
    Structured capture: a schema header line followed by one canonical
    JSON payload per event.  Validate and replay the output with
    ``python -m repro trace``.
``ConsoleProgressProcessor``
    Renders runner-level events as progress lines with rate/ETA,
    writing each line atomically (single locked ``write``) so lines
    from concurrent workers sharing a stream never interleave
    mid-line.
"""

from __future__ import annotations

import json
import sys
import threading
import time as _time
from typing import Protocol, runtime_checkable

from .types import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    BackendChunkClaimed,
    Event,
    SearchRoundFrontier,
    SweepProgress,
    SweepStart,
    to_payload,
)


@runtime_checkable
class EventProcessor(Protocol):
    """Synchronous event consumer."""

    def on_event(self, event: Event) -> None:
        """Handle one event.  Called in emission order."""

    def shutdown(self) -> None:
        """Flush and release resources.  Called once, on detach."""


class ListProcessor:
    """Collects events into ``self.events`` — the test workhorse."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.shutdown_called = False

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def shutdown(self) -> None:
        self.shutdown_called = True

    def of_type(self, event_type: type) -> list[Event]:
        return [e for e in self.events if isinstance(e, event_type)]

    def event_types(self) -> list[str]:
        return [type(e).__name__ for e in self.events]

    def clear(self) -> None:
        self.events.clear()


class JsonlTraceProcessor:
    """Writes one canonical-JSON payload per line to ``path``.

    The first line is the schema header
    ``{"schema": "repro.events", "version": N, ...}``; every
    subsequent line is one event payload with sorted keys and compact
    separators, so byte-identical traces mean identical event streams.
    Each line is flushed as written — a crashed run leaves a valid
    prefix.  Writes are locked, making the processor safe to share
    across threads (the pipelined backend's producer thread emits).
    """

    def __init__(self, path, *, source: str | None = None) -> None:
        self.path = str(path)
        self.lines = 0
        self._lock = threading.Lock()
        self._fh = open(self.path, "w", encoding="utf-8")
        header = {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "source": source or "repro",
        }
        self._fh.write(self._dumps(header) + "\n")
        self._fh.flush()

    @staticmethod
    def _dumps(payload: dict) -> str:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )

    def on_event(self, event: Event) -> None:
        line = self._dumps(to_payload(event)) + "\n"
        with self._lock:
            if self._fh.closed:
                return
            self._fh.write(line)
            self._fh.flush()
            self.lines += 1

    def shutdown(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


class ProgressMeter:
    """Throughput and ETA for sweep progress lines.

    Cached trials flood in before any simulation starts (the engine
    reports them first); every cached line restarts the clock, so the
    rate covers the simulation phase only — a warm cache skews neither
    trials/s nor the ETA.
    """

    def __init__(self) -> None:
        self.started = _time.monotonic()
        self.simulated = 0

    def reset_clock(self) -> None:
        if not self.simulated:
            self.started = _time.monotonic()

    # Below one coarse timer tick an elapsed of exactly 0.0 is
    # possible (first batch finishing instantly), and any rate built
    # on it is noise — billions of trials/s, ETA 0 — when it isn't an
    # outright ZeroDivisionError.
    _MIN_ELAPSED = 1e-6

    def line(self, done: int, total: int) -> str:
        self.simulated += 1
        elapsed = _time.monotonic() - self.started
        if elapsed < self._MIN_ELAPSED:
            return "-- trials/s, eta --:--"
        rate = self.simulated / elapsed
        eta = (total - done) / rate
        return f"{rate:.1f} trials/s, eta {eta:.0f}s"

    def summary(self) -> str:
        if not self.simulated:
            return ""
        elapsed = max(
            _time.monotonic() - self.started, self._MIN_ELAPSED
        )
        return (
            f"  ({self.simulated / elapsed:.1f} trials/s, "
            f"{elapsed:.1f}s)"
        )


class ConsoleProgressProcessor:
    """Renders runner events as human progress lines, atomically.

    Every line is emitted as a single ``write`` of a complete
    ``\\n``-terminated string under a class-level lock shared by all
    instances in the process, so concurrent workers writing to the
    same stream (the manifest worker's chunk loop, the pipelined
    backend's producer) can never interleave mid-line.

    ``quiet=True`` keeps the meter ticking (so :meth:`summary` still
    reports a rate) but suppresses the per-event lines.
    """

    # One lock for the whole process: two processors pointed at the
    # same fd must serialize against each other, not just themselves.
    _io_lock = threading.Lock()

    def __init__(self, stream=None, *, quiet: bool = False,
                 prefix: str = "") -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.quiet = quiet
        self.prefix = prefix
        self.meter = ProgressMeter()

    # -- line-atomic output ------------------------------------------

    def note(self, text: str) -> None:
        """Write one arbitrary line atomically (for CLI callers that
        have context the events don't carry)."""
        self._write(text)

    def _write(self, text: str) -> None:
        line = f"{self.prefix}{text}\n"
        with self._io_lock:
            self.stream.write(line)
            try:
                self.stream.flush()
            except (AttributeError, ValueError):
                pass

    # -- event rendering ---------------------------------------------

    def on_event(self, event: Event) -> None:
        if isinstance(event, SweepProgress):
            if event.cached:
                self.meter.reset_clock()
                if not self.quiet:
                    self._write(
                        f"[{event.done}/{event.total}] {event.key}  cached"
                    )
                return
            detail = self.meter.line(event.done, event.total)
            if not self.quiet:
                status = "ok" if event.ok else "FAILED"
                self._write(
                    f"[{event.done}/{event.total}] {event.key}  {status}"
                    f"  ({detail})"
                )
        elif isinstance(event, SweepStart):
            if not self.quiet:
                self._write(
                    f"sweep {event.spec_hash}: {event.total} trials "
                    f"({event.cached} cached) via {event.backend}"
                )
        elif isinstance(event, SearchRoundFrontier):
            if not self.quiet:
                best = "-" if event.best_value is None else event.best_value
                self._write(
                    f"[round {event.round_index}] "
                    f"evaluated {event.attempts}/{event.budget}  "
                    f"best={best}"
                )
        elif isinstance(event, BackendChunkClaimed):
            if not self.quiet:
                self._write(
                    f"[{event.worker}] claimed chunk "
                    f"{event.chunk + 1}/{event.chunks}"
                )

    def summary(self) -> str:
        return self.meter.summary()

    def shutdown(self) -> None:
        try:
            self.stream.flush()
        except (AttributeError, ValueError):
            pass
