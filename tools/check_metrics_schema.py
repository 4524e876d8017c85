"""CI gate for the metrics-snapshot contract.

Usage::

    python tools/check_metrics_schema.py snap.json [snap2.json ...]
    python tools/check_metrics_schema.py --describe

Validates each snapshot file against the ``repro.metrics`` schema
(header fields, per-series shape, histogram bucket-sum consistency,
no duplicate series) and then exercises the exporters: a snapshot
whose Prometheus text or canonical JSON rendering fails is broken
even if its structure validates.  With ``--describe`` it prints the
schema name/version and the series kinds as canonical JSON, so CI
logs pin the exact contract a build shipped with.

Exit status: 0 when every snapshot is clean, 1 otherwise, 2 on a
malformed invocation.
"""

from __future__ import annotations

import json
import pathlib
import sys

# The checkout's sources, from any working directory.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.metrics.registry import (  # noqa: E402
    SCHEMA_NAME,
    SCHEMA_VERSION,
    _KINDS,
)
from repro.metrics.snapshot import (  # noqa: E402
    load_snapshot,
    to_json,
    to_prometheus,
    validate_snapshot,
)


def describe() -> dict:
    """The metrics-snapshot contract as a plain dict."""
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "kinds": sorted(_KINDS),
        "counter_fields": ["name", "kind", "labels", "value"],
        "gauge_fields": ["name", "kind", "labels", "value"],
        "histogram_fields": [
            "name", "kind", "labels", "count", "sum", "min", "max",
            "buckets",
        ],
    }


def check_one(path: str) -> bool:
    try:
        snapshot = load_snapshot(path)
    except (OSError, ValueError) as exc:
        print(f"{path}: {exc}")
        return False
    errors = validate_snapshot(snapshot)
    for error in errors:
        print(f"{path}: {error}")
    if errors:
        return False
    try:
        prom = to_prometheus(snapshot)
        as_json = to_json(snapshot)
    except Exception as exc:  # exporter crash = broken contract
        print(f"{path}: export failed: {type(exc).__name__}: {exc}")
        return False
    series = snapshot.get("series", [])
    print(
        f"{path}: {len(series)} series valid against "
        f"{SCHEMA_NAME} v{snapshot.get('version')}; exports "
        f"{len(prom.splitlines())} Prometheus line(s), "
        f"{len(as_json)} JSON byte(s)"
    )
    return True


def main(argv: list[str]) -> int:
    if argv == ["--describe"]:
        print(json.dumps(describe(), indent=2, sort_keys=True))
        return 0
    if not argv or any(arg.startswith("-") for arg in argv):
        print(__doc__)
        return 2
    ok = all([check_one(path) for path in argv])
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
