"""Spans around the calls into each layer, recorded from outside ``src/``.

:func:`install` wraps the public functions and methods that form the
layer boundaries of a trial (graph generators, UXS verification, run
preparation and finalization, the simulator, trial execution, the
result store and the search loop) so that each call records a
:class:`Span`.  :meth:`Installation.uninstall` puts every original
back, so a traced run cannot leak into a measured one.

Spans are kept in memory; :func:`self_times` turns them into self
times afterwards (see ``layers.py`` for the per-layer sums).
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]


class Tracer:
    """An in-memory span recorder for one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **tags) -> Iterator[Span]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent, tags=tags)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()

    def wrap(self, name: str, fn: Callable,
             describe: Callable[..., dict] | None = None) -> Callable:
        """``fn`` recording a span per call; ``describe(*args,
        **kwargs)`` may supply the span's tags."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tags = describe(*args, **kwargs) if describe else {}
            with self.span(name, **tags):
                return fn(*args, **kwargs)

        traced.__perfbench_original__ = fn
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread, nested calls), so
    the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def root_of(spans: list[Span], index: int) -> Span:
    span = spans[index]
    while span.parent is not None:
        span = spans[span.parent]
    return span


# ----------------------------------------------------------------------
# Wrapping the layer boundaries.
# ----------------------------------------------------------------------

# Module-level functions: (defining module, name, span name).  Every
# ``repro`` module that imported the function by name is patched too.
_FUNCTIONS = (
    ("repro.core.runs", "prepare_gather_known", "core.prepare"),
    ("repro.core.runs", "prepare_gather_unknown", "core.prepare"),
    ("repro.baselines.talking", "run_talking_gather", "baselines.talking"),
    ("repro.runner.trial", "execute_trial", "runner.trial"),
    ("repro.runner.worker", "execute_trial_batch", "runner.batch"),
    ("repro.runner.search.engine", "run_search", "search.run"),
)

# Methods: (module, class, method, span name).  A class that does not
# exist (the lockstep cohort is slated for removal) is skipped.
_METHODS = (
    ("repro.explore.uxs", "UXSProvider", "verify_for_graph",
     "explore.uxs_verify"),
    ("repro.core.runs", "PreparedRun", "finalize", "core.finalize"),
    ("repro.core.runs", "PreparedRun", "run", "core.finalize"),
    ("repro.sim.scheduler", "Simulation", "run", "sim.run"),
    ("repro.sim.cohort", "CohortScheduler", "run", "sim.cohort"),
    ("repro.runner.store", "ResultStore", "save", "store.save"),
    ("repro.runner.store", "ResultStore", "load", "store.load"),
)


def _batch_size(trials, *args, **kwargs) -> dict:
    return {"trials": len(trials)}


class Installation:
    """The patches one :func:`install` made, and how to undo them."""

    def __init__(self) -> None:
        # (owner, attribute, original); owners are modules, classes or
        # the FAMILIES dict (attribute = key).
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attribute: str, replacement) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attribute, owner[attribute]))
            owner[attribute] = replacement
        else:
            # The raw namespace entry, so a restore puts back exactly
            # what was there.
            self._patches.append((owner, attribute, vars(owner)[attribute]))
            setattr(owner, attribute, replacement)

    @property
    def count(self) -> int:
        return len(self._patches)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)
        self._patches.clear()


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer) -> Installation:
    """Wrap every layer boundary so its calls record spans on ``tracer``."""
    import importlib

    import repro.runner  # noqa: F401  (loads every module patched below)
    from repro.runner.trial import FAMILIES

    done = Installation()
    try:
        for family, generator in list(FAMILIES.items()):
            done.patch(FAMILIES, family, tracer.wrap("graphs.build", generator))
        modules = _repro_modules()
        for module_name, attribute, span_name in _FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attribute)
            describe = _batch_size if span_name == "runner.batch" else None
            wrapped = tracer.wrap(span_name, original, describe)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        done.patch(module, name, wrapped)
        for module_name, class_name, method, span_name in _METHODS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            cls = getattr(module, class_name, None)
            if cls is None:
                continue
            done.patch(cls, method, tracer.wrap(span_name, vars(cls)[method]))
    except BaseException:
        done.uninstall()
        raise
    return done


@contextmanager
def traced(tracer: Tracer) -> Iterator[Installation]:
    installation = install(tracer)
    try:
        yield installation
    finally:
        installation.uninstall()


def find_leaks() -> list[str]:
    """Names of ``repro`` attributes still bound to a traced wrapper."""
    from repro.runner.trial import FAMILIES

    leaks = [
        f"FAMILIES[{key!r}]" for key, value in FAMILIES.items()
        if hasattr(value, "__perfbench_original__")
    ]
    for module in _repro_modules():
        for name, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                leaks.append(f"{module.__name__}.{name}")
            elif isinstance(value, type):
                leaks.extend(
                    f"{module.__name__}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, "__perfbench_original__")
                )
    return leaks
