"""Offline search for short certified exploration sequences.

Usage::

    python tools/find_uxs.py

Searches for short sequences that are universal for

* every connected port-labelled graph of size <= 3 and <= 4
  (exhaustive certification, pinned into ``repro.explore.uxs``), and
* the standard benchmark graph families for sizes 5..12 plus a pool of
  random graphs (sampled certification, pinned into
  ``tuned_provider``).

Deterministic: re-running reproduces the same sequences.
"""

from __future__ import annotations

import pathlib
import sys

# The checkout's sources, from any working directory.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.explore.uxs import (  # noqa: E402
    generate_sequence,
    is_universal_for,
    search_sequence,
)
from repro.graphs import (  # noqa: E402
    family_for_size,
    random_connected_graph,
    random_tree,
)


def sampled_pool(n: int) -> list:
    """Graphs of size exactly n used for sampled certification."""
    pool = [g for _, g in family_for_size(n)]
    for seed in range(40):
        pool.append(random_connected_graph(n, seed=seed))  # default prob
        pool.append(random_connected_graph(n, extra_edge_prob=0.25, seed=seed))
        pool.append(random_connected_graph(n, extra_edge_prob=0.6, seed=seed + 1000))
        pool.append(random_tree(n, seed=seed))
        pool.append(family_for_size(n, seed=seed + 7)[0][1])
    return pool


def search_sampled(n: int, max_length: int, step: int = 1) -> tuple[int, int]:
    """Short generated sequence covering the sampled pool for all
    sizes 2..n (a sequence for bound N must handle smaller graphs too).

    Returns ``(length, seed)``; the sequence itself is
    ``generate_sequence(length, seed)``.
    """
    pool = []
    for size in range(2, n + 1):
        pool.extend(sampled_pool(size))
    for length in range(max(4, n), max_length + 1, step):
        for attempt in range(30):
            seed = 900_001 * n + 31 * length + attempt
            candidate = generate_sequence(length, seed)
            if all(is_universal_for(g, candidate) for g in pool):
                return length, seed
    raise SystemExit(f"no sampled sequence found for n={n}")


def main() -> None:
    which = sys.argv[1:] or ["3", "4", "5", "6", "8", "10", "12"]
    for arg in which:
        n = int(arg)
        if n <= 4:
            seq = search_sequence(n, max_length=80, attempts=120, seed=n)
            print(f"EXHAUSTIVE N={n}: length={len(seq)}")
            print(f"    {n}: {seq!r},")
        else:
            step = 1 if n <= 6 else max(4, n // 2)
            length, seed = search_sampled(n, max_length=60 * n, step=step)
            print(f"SAMPLED    N={n}: length={length} seed={seed}")


if __name__ == "__main__":
    main()
