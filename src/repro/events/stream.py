"""The composite dispatcher and the module-global attachment point.

Emission sites follow one pattern::

    from repro.events import stream as event_stream
    ...
    emit = event_stream.current()        # once, at construction time
    ...
    if emit is not None:                 # per emission: one None check
        emit.emit(SomeEvent(...))

``current()`` returns ``None`` when nothing is attached, so the
no-processor cost at an emission site is a single ``is None`` test —
no event object is even constructed.  Attachment is process-local:
events emitted inside pool worker processes do not reach a dispatcher
attached in the parent (see docs/observability.md for the boundary).

``attached(...)`` composes: attaching inside an already-attached scope
creates a dispatcher over the union of processors, so an outer JSONL
trace still sees events while an inner ``ListProcessor`` collects
them.  On scope exit only the newly added processors are shut down.
"""

from __future__ import annotations

from contextlib import contextmanager


class EventDispatcher:
    """Fans one event out to every registered processor, in order.

    A processor that raises stops the run — observability code must
    not silently corrupt an experiment, and a broken trace writer
    should be loud.  Processors needing best-effort semantics can
    catch internally.
    """

    __slots__ = ("processors",)

    def __init__(self, processors=()):
        self.processors = tuple(processors)

    def emit(self, event) -> None:
        for proc in self.processors:
            proc.on_event(event)

    def close(self) -> None:
        """Shut every processor down (first error wins, all run)."""
        first: Exception | None = None
        for proc in self.processors:
            try:
                proc.shutdown()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                if first is None:
                    first = exc
        if first is not None:
            raise first

    def __bool__(self) -> bool:
        return bool(self.processors)

    def __len__(self) -> int:
        return len(self.processors)


_ACTIVE: EventDispatcher | None = None


def current() -> EventDispatcher | None:
    """The dispatcher emission sites should use, or ``None``."""
    return _ACTIVE


def attach(dispatcher: EventDispatcher | None) -> EventDispatcher | None:
    """Set the global dispatcher; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = dispatcher if dispatcher else None
    return previous


@contextmanager
def attached(*processors):
    """Attach processors for the duration of a ``with`` block.

    Yields the active :class:`EventDispatcher`.  Processors already
    attached by an enclosing scope keep receiving events; only the
    processors added here are shut down on exit.  With no processors
    the block is a no-op (nothing attached, nothing to restore).
    """
    processors = tuple(p for p in processors if p is not None)
    if not processors:
        yield _ACTIVE
        return
    previous = _ACTIVE
    combined = previous.processors if previous is not None else ()
    dispatcher = EventDispatcher(combined + processors)
    attach(dispatcher)
    try:
        yield dispatcher
    finally:
        attach(previous)
        EventDispatcher(processors).close()
