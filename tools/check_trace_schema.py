"""CI gate for the event-trace contract.

Usage::

    python tools/check_trace_schema.py trace.jsonl [trace2.jsonl ...]
    python tools/check_trace_schema.py --describe

Validates each JSONL trace against the schema derived from the event
dataclasses (header line, per-payload field names and types) and then
round-trips every payload through the typed event classes — a trace
that validates but does not round-trip byte-identically fails.  With
``--describe`` it prints the full schema as canonical JSON instead,
so CI logs pin the exact contract a build shipped with.

Exit status: 0 when every trace is clean, 1 otherwise, 2 on a
malformed invocation.
"""

from __future__ import annotations

import json
import pathlib
import sys

# The checkout's sources, from any working directory.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.events.replay import load_trace, round_trip  # noqa: E402
from repro.events.schema import describe, validate_trace  # noqa: E402


def check_one(path: str) -> bool:
    report = validate_trace(path)
    for error in report.errors:
        print(f"{path}: {error}")
    if not report.ok:
        return False
    try:
        _header, payloads = load_trace(path)
        checked = round_trip(payloads)
    except ValueError as exc:
        print(f"{path}: round-trip failed: {exc}")
        return False
    version = report.header.get("version")
    print(
        f"{path}: {report.events} event(s) valid against schema "
        f"v{version}; {checked} payload(s) round-trip cleanly"
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
