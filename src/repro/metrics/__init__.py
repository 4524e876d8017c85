"""Low-overhead metrics: counters, gauges, histograms and snapshots.

The registry mirrors the event stream's attachment contract
(:mod:`repro.events.stream`): :func:`current` returns ``None`` unless
a scope attached a :class:`Registry`, so instrumentation in the hot
layers costs one ``is None`` test when metrics are off and never
affects results — metrics stay out of spec hashes and record bytes.

Quick tour::

    from repro import metrics

    reg = metrics.Registry(source="my-run")
    with metrics.attached(reg):
        run_experiment(spec)               # instrumented layers record
    snap = reg.snapshot()                  # serializable + mergeable

See docs/observability.md for the naming conventions, label
cardinality rules and merge semantics, and ``python -m repro metrics``
for the snapshot CLI.
"""

from .registry import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    Registry,
    attach,
    attached,
    current,
    register_collector,
)
from .snapshot import (
    diff_snapshots,
    find_sidecars,
    fold_sidecars,
    format_summary,
    load_snapshot,
    merge_snapshots,
    to_json,
    to_prometheus,
    validate_snapshot,
    write_snapshot,
)

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "attach",
    "attached",
    "current",
    "register_collector",
    "diff_snapshots",
    "find_sidecars",
    "fold_sidecars",
    "format_summary",
    "load_snapshot",
    "merge_snapshots",
    "to_json",
    "to_prometheus",
    "validate_snapshot",
    "write_snapshot",
]

