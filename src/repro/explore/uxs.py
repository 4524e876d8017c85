"""Universal exploration sequences (UXS).

The paper's procedure ``EXPLO(N)`` (Section 2) follows a universal
exploration sequence for graphs of size at most ``N``: a sequence of
offsets ``x_1, x_2, ...`` such that an agent entering a node of degree
``d`` by port ``p`` exits by port ``q = (p + x_i) mod d``.  Reingold's
construction [36] guarantees polynomial-length sequences; rebuilding
that construction is out of the paper's scope, so we substitute
*certified* sequences (see DESIGN.md Section 3):

* for ``N <= 4`` the pinned sequences below are verified against
  **every** connected port-labelled graph of size at most ``N``
  (exhaustive certification; re-run via :func:`verify_exhaustive`);
* for larger ``N`` a deterministically seeded pseudorandom sequence of
  length ``factor * N**2 * ceil(log2 N)`` is used, and every simulation
  front-end *verifies the sequence against the actual graph* before
  running (:func:`is_universal_for`), so a coverage failure is a loud
  pre-flight error rather than a silent correctness bug.  Verification
  walks the sequence from each start node only until that walk has
  covered the graph, usually a small prefix of the sequence.

The sequence for a given ``N`` is a pure function of ``(N, seed,
factor)``; all agents of a run share one provider and therefore agree
on ``EXPLO(N)`` step by step, as the model requires.
"""

from __future__ import annotations

import random

from ..graphs.enumerate_graphs import iter_all_port_graphs
from ..graphs.port_graph import PortGraph
from ..metrics import register_collector as _register_collector
from ..sim.ops import iter_walk, uxs_walk_steps

# Provider cache tallies, process-wide across all UXSProvider
# instances: plain module ints on the hot path, published as absolute
# totals into an attached metrics registry at snapshot time.
_SEQ_HITS = 0
_SEQ_MISSES = 0
_PLAN_HITS = 0
_PLAN_MISSES = 0


def cache_stats() -> dict[str, int]:
    """Process-wide UXS cache tallies (sequence + walk-plan caches)."""
    return {
        "seq_hits": _SEQ_HITS,
        "seq_misses": _SEQ_MISSES,
        "plan_hits": _PLAN_HITS,
        "plan_misses": _PLAN_MISSES,
    }


def reset_cache_stats() -> None:
    """Zero the tallies (a forked pool worker starts its own totals)."""
    global _SEQ_HITS, _SEQ_MISSES, _PLAN_HITS, _PLAN_MISSES
    _SEQ_HITS = 0
    _SEQ_MISSES = 0
    _PLAN_HITS = 0
    _PLAN_MISSES = 0


def _collect_cache_stats(registry) -> None:
    registry.counter("explore.seq_cache.hits").value = _SEQ_HITS
    registry.counter("explore.seq_cache.misses").value = _SEQ_MISSES
    registry.counter("explore.plan_cache.hits").value = _PLAN_HITS
    registry.counter("explore.plan_cache.misses").value = _PLAN_MISSES


_register_collector(_collect_cache_stats)

# Exhaustively certified sequences (see tests/test_uxs.py).  The entry
# for N covers every connected port-labelled graph with at most N
# nodes, from every start node.
_PINNED: dict[int, tuple[int, ...]] = {
    1: (),
    2: (0,),
    # Found by tools/find_uxs.py; certified against every connected
    # port-labelled graph of size <= N in tests/test_uxs.py.
    3: (320681, 183279, 689959),
    4: (347801, 161, 95861, 217151, 122209, 519787, 226249, 415205),
}


class UniversalityError(RuntimeError):
    """A candidate exploration sequence failed to cover a graph."""


# Short sequences certified by sampling (tools/find_uxs.py) against the
# standard graph families and hundreds of random graphs of each size
# (tests/test_uxs.py re-verifies).  Keyed by N, valued (length, seed)
# for :func:`generate_sequence`.  Every simulation additionally
# verifies its own graph at pre-flight, so these are safe defaults.
SAMPLED_LENGTHS: dict[int, tuple[int, int]] = {
    5: (39, 4501231),
    6: (68, 5402119),
    8: (144, 7204482),
    10: (230, 9007168),
    12: (354, 10811005),
    14: (482, 12600001),
    16: (630, 14400000),
    18: (810, 16200000),
    20: (1000, 18000000),
}


def walk_ports(
    graph: PortGraph, start: int, sequence: tuple[int, ...]
) -> list[int]:
    """Exit ports taken when walking ``sequence`` from ``start``.

    Both walk helpers and :func:`is_universal_for` share the step
    iterator in :mod:`repro.sim.ops`, which resolves each step with the
    agents' own ``resolve_walk_step``, so offline certification and
    agent-side walks cannot disagree on step semantics.
    """
    return [
        port
        for port, _node, _entry in iter_walk(
            graph, start, uxs_walk_steps(sequence)
        )
    ]


def nodes_visited(
    graph: PortGraph, start: int, sequence: tuple[int, ...]
) -> set[int]:
    """Set of nodes visited when walking ``sequence`` from ``start``."""
    visited = {start}
    for _port, node, _entry in iter_walk(
        graph, start, uxs_walk_steps(sequence)
    ):
        visited.add(node)
    return visited


def is_universal_for(graph: PortGraph, sequence: tuple[int, ...]) -> bool:
    """Does the sequence visit all nodes from *every* start node?

    Each start's walk stops as soon as it has visited all ``n`` nodes:
    the visited set only grows, so the verdict equals that of the full
    walk.  The steps go through ``iter_walk``, like those of
    :func:`nodes_visited`, and it resolves them with the agents' own
    ``resolve_walk_step``.
    """
    steps = uxs_walk_steps(sequence)
    for start in graph.nodes():
        visited = {start}
        walk = iter_walk(graph, start, steps)
        while len(visited) < graph.n:
            step = next(walk, None)
            if step is None:
                return False
            visited.add(step[1])
    return True


def generate_sequence(length: int, seed: int) -> tuple[int, ...]:
    """Deterministic pseudorandom offset sequence.

    Offsets are drawn from a wide range; they are reduced modulo the
    local degree at application time, so the range only needs to be
    large enough to hit every residue of every small degree.
    """
    rng = random.Random(seed)
    return tuple(rng.randrange(0, 720720) for _ in range(length))


def _default_length(n: int, factor: int) -> int:
    if n <= 1:
        return 0
    bits = max(1, (n - 1).bit_length())
    return max(4, factor * n * n * bits)


class UXSProvider:
    """Source of exploration sequences shared by all agents of a run.

    Parameters
    ----------
    factor:
        Length multiplier for generated (non-pinned) sequences.
    seed:
        Seed of the deterministic generator.
    lengths:
        Optional per-``N`` length overrides (``{8: 300}``) for callers
        that certified a shorter sequence for their graph family.
    """

    def __init__(
        self,
        factor: int = 4,
        seed: int = 0x5EED,
        lengths: dict[int, int] | None = None,
    ) -> None:
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.factor = factor
        self.seed = seed
        self.lengths = dict(lengths) if lengths else {}
        # Both caches are keyed by the *source descriptor* of the
        # sequence — ``(kind, n, length, seed)`` — not by the bare
        # ``n``.  A bare-``n`` key served stale entries when
        # ``SAMPLED_LENGTHS`` is extended at runtime (tests mutate it)
        # or when ``pin()`` replaced a sequence that a plan had already
        # been derived from.
        self._pins: dict[int, tuple[int, ...]] = {}
        self._pin_version: dict[int, int] = {}
        self._cache: dict[tuple, tuple[int, ...]] = {}
        self._plan_cache: dict[tuple, tuple[int, ...]] = {}

    def _source_key(self, n: int) -> tuple:
        """Descriptor of where ``sequence(n)`` currently comes from."""
        if n in self._pins:
            return ("pin", n, self._pin_version[n])
        if n in self.lengths:
            return ("len", n, self.lengths[n], self.seed + n)
        if n in _PINNED:
            return ("exhaustive", n)
        if n in SAMPLED_LENGTHS:
            length, seed = SAMPLED_LENGTHS[n]
            return ("sampled", n, length, seed)
        return ("gen", n, _default_length(n, self.factor), self.seed + n)

    def sequence(self, n: int) -> tuple[int, ...]:
        """The exploration sequence for graphs of size at most ``n``."""
        if n < 1:
            raise ValueError("n must be >= 1")
        global _SEQ_HITS, _SEQ_MISSES
        key = self._source_key(n)
        cached = self._cache.get(key)
        if cached is not None:
            _SEQ_HITS += 1
            return cached
        _SEQ_MISSES += 1
        kind = key[0]
        if kind == "pin":
            seq = self._pins[n]
        elif kind == "exhaustive":
            seq = _PINNED[n]
        else:  # "len" / "sampled" / "gen" all carry (length, seed)
            seq = generate_sequence(key[2], key[3])
        self._cache[key] = seq
        return seq

    def walk_plan(self, n: int) -> tuple[int, ...]:
        """The sequence for ``n`` encoded as a walk plan (rule steps).

        Cached: EXPLO / signature emitters slice this tuple instead of
        re-encoding the sequence on every tour.  The stable identity of
        the returned tuple also lets the scheduler's route cache key
        chased routes by plan identity.
        """
        global _PLAN_HITS, _PLAN_MISSES
        key = self._source_key(n)
        cached = self._plan_cache.get(key)
        if cached is None:
            _PLAN_MISSES += 1
            cached = uxs_walk_steps(self.sequence(n))
            self._plan_cache[key] = cached
        else:
            _PLAN_HITS += 1
        return cached

    def length(self, n: int) -> int:
        """Number of edge traversals of the effective part of EXPLO(n)."""
        return len(self.sequence(n))

    def explo_duration(self, n: int) -> int:
        """T(EXPLO(n)): effective part + backtrack part."""
        return 2 * self.length(n)

    def pin(self, n: int, sequence: tuple[int, ...]) -> None:
        """Install a custom (externally certified) sequence for ``n``.

        Bumping the pin version retires every cache entry derived from
        the previous source — both the sequence and its walk plan —
        without touching entries for other sizes.
        """
        self._pins[n] = tuple(sequence)
        self._pin_version[n] = self._pin_version.get(n, 0) + 1

    def verify_for_graph(self, n: int, graph: PortGraph) -> None:
        """Pre-flight check: raise unless the sequence covers ``graph``.

        Called by the simulation front-ends for every graph they run,
        which turns the probabilistic tail-risk of a generated sequence
        into a deterministic, loud failure.
        """
        if graph.n > n:
            raise UniversalityError(
                f"graph has {graph.n} nodes but the size bound is {n}"
            )
        if not is_universal_for(graph, self.sequence(n)):
            raise UniversalityError(
                f"exploration sequence for N={n} (length "
                f"{self.length(n)}) does not cover the given graph; "
                "increase the factor, change the seed, or pin a longer "
                "sequence"
            )


def verify_exhaustive(sequence: tuple[int, ...], max_n: int) -> None:
    """Certify a sequence against every port graph of size <= max_n.

    Exponential in ``max_n``; intended for ``max_n <= 4``.
    Raises :class:`UniversalityError` on the first failure.
    """
    for n in range(2, max_n + 1):
        for graph in iter_all_port_graphs(n):
            if not is_universal_for(graph, sequence):
                raise UniversalityError(
                    f"sequence fails on a graph of size {n}:\n"
                    f"{graph.describe()}"
                )


def search_sequence(
    max_n: int,
    max_length: int,
    attempts: int = 200,
    seed: int = 1,
) -> tuple[int, ...]:
    """Find a short sequence certified for all graphs of size <= max_n.

    Randomized search used offline (tools/find_uxs.py) to produce the
    pinned sequences; deterministic given its arguments.
    """
    graphs = [
        graph for n in range(2, max_n + 1) for graph in iter_all_port_graphs(n)
    ]
    for length in range(1, max_length + 1):
        for attempt in range(attempts):
            candidate = generate_sequence(length, seed * 100_003 + length * 1_009 + attempt)
            if all(is_universal_for(g, candidate) for g in graphs):
                return candidate
    raise UniversalityError(
        f"no sequence of length <= {max_length} found for size {max_n}"
    )
