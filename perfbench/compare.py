"""Compare two benchmark results written by ``run.py``.

Usage::

    python3 perfbench/compare.py .perfbench/results/A.json .perfbench/results/B.json

Prints each metric of both results and the ratio B/A.  Refuses (exit
code 2) to compare results of different workloads, trace modes or
planner configurations: with numpy the simulator plans walk segments
with the vector planner, without it with the scalar one, so their
times measure different code.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("workload", "trace")
ENV_MUST_MATCH = ("planner", "workers", "pool_workers", "backend")


def mismatches(a: dict, b: dict) -> list[str]:
    out = [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in MUST_MATCH if a.get(key) != b.get(key)
    ]
    out += [
        f"env.{key}: {a['env'].get(key)!r} != {b['env'].get(key)!r}"
        for key in ENV_MUST_MATCH if a["env"].get(key) != b["env"].get(key)
    ]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path) as fh:
            results.append(json.load(fh))
    a, b = results
    problems = mismatches(a, b)
    if problems:
        print("refusing to compare: " + "; ".join(problems), file=sys.stderr)
        return 2
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        unit = (a["metrics"].get(name) or b["metrics"][name])["unit"]
        ratio = f"{vb / va:.3f}" if va and vb is not None else "-"
        print(f"{name:34s} {va!s:>22} {vb!s:>22} {unit:6s} x{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
