"""The segment planner of static-edge runs, and its route cache.

One of the two segment planners :class:`repro.sim.scheduler.Simulation`
binds; the other is the scalar ``Simulation._plan_segment``, which
runs on dynamic-edge runs because only it plans stalls.  Both share
one contract: ``(sim, walks, observes, round_) -> SegmentPlan | None``,
starting from the same ``Simulation._segment_horizon`` bound and
returning a :class:`~repro.sim.scheduler.SegmentPlan` of the final
joint length ``m`` whose walkers are references ``(route, offset,
size, extra)``.  One scheduler method, ``Simulation._apply_segment``,
commits either planner's plan, and the differential suite holds both
to :mod:`repro.sim.reference`.

Routes are pure functions of ``(graph, plan, position in plan, node,
exit port)``, so a :class:`RouteCache` chases each distinct start
state once and keeps the :class:`Chase` as Python lists.  The
continuation from any state along a chase is a suffix of it: a lookup
returns the chase that passed through the state and the state's
offset in it, and a planned walker is that chase and offset — no list
is sliced or copied.  Caches are shared per port structure
(:func:`route_cache_for`).

:func:`plan_segment` computes CurCards by exception.  In the weak
model an agent observes only the number of agents at its node, and
along a segment that number is the walking group's size at every
arrival (walkers in one identical state share one route), except
where the route meets a standing agent or another group.  Standing
agents are found by bisecting each chase's per-node visit index;
meetings of two groups by comparing their routes, memoized on the
chase per pair of walk starts.  Walk watches are evaluated at the
group's size and at the exception rounds only, so a plan costs its
interactions, not a Python step per edge.  Cached routes know nothing
about per-round edge liveness, which is why stalls need the scalar
planner.  ``last_change`` is not the planner's concern: the scheduler
logs the routes of every segment and resolves them only when a
stability wait reads a node.  This planner also understands
stationary ``observe`` cohort members (see :mod:`repro.sim.ops`),
which is what lets ``StarCheck``'s waiters share a segment with the
dancing agent; the scalar planner declines cohorts with observers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from itertools import compress, count
from operator import eq

from ..graphs.port_graph import PortGraph
from .scheduler import Route, SegmentPlan, Simulation, _first_fire

_NO_VISITS: list[int] = []
# Chase serials: unique for the process, so memo keys never collide.
_SERIALS = count()


# ----------------------------------------------------------------------
# Route cache: chased walk routes keyed by plan identity.
# ----------------------------------------------------------------------

class Chase(Route):
    """One chased route of a walk plan, as parallel Python lists.

    ``nodes[j]`` is the node at plan position ``pos + j`` and
    ``ports[j]`` the exit port taken there; ``entries[j]`` and
    ``degrees[j]`` describe the arrival at ``nodes[j + 1]``.  The route
    ends at the plan's end or just before the first invalid absolute
    step, exactly like the scalar planner's walk-out, so ``ports``,
    ``entries`` and ``degrees`` hold one item per edge.

    Besides its lists a chase carries three memos, all built on
    demand and dropped with the chase when the route cache's LRU lets
    go of its plan: the per-node visit index (:meth:`visits`), the
    meetings of two walk starts (:meth:`meetings`), and the agent
    side's reverse plans (``backtracks``, see :class:`Route`).
    """

    __slots__ = ("pos", "ports", "serial", "_visits", "_meets")

    def __init__(
        self,
        graph: PortGraph,
        steps: tuple[int, ...],
        pos: int,
        node: int,
        port: int,
    ) -> None:
        adj = graph._adj
        total = len(steps)
        nodes = [node]
        ports = [port]
        ents: list[int] = []
        degs: list[int] = []
        t = pos
        while True:
            node, entry = adj[node][port]
            nodes.append(node)
            ents.append(entry)
            degree = len(adj[node])
            degs.append(degree)
            t += 1
            if t >= total:
                break
            step = steps[t]
            if step >= 0:
                if step >= degree:
                    break  # invalid absolute step ends the route
                port = step
            else:
                port = (entry + ~step) % degree
            ports.append(port)
        super().__init__(nodes, ents, degs)
        self.pos = pos
        self.ports = ports
        self.serial = next(_SERIALS)
        self._visits: dict[int, list[int]] | None = None
        self._meets: dict[tuple, tuple[int, list[int]]] | None = None

    def visits(self, node: int) -> list[int]:
        """Ascending positions ``j`` with ``nodes[j] == node``.

        The index covers every node and is built the first time a plan
        asks; plans that meet no one never pay for it.
        """
        index = self._visits
        if index is None:
            index = self._visits = {}
            for j, v in enumerate(self.nodes):
                at = index.get(v)
                if at is None:
                    index[v] = [j]
                else:
                    at.append(j)
        return index.get(node, _NO_VISITS)

    def meetings(self, off: int, other: Chase, other_off: int, m: int):
        """Arrival indices ``i < m`` at which the walk from ``off`` on
        this chase and the walk from ``other_off`` on ``other`` reach
        one node.

        Memoized on the chase of the smaller serial, keyed by
        ``(offset, other serial, other offset)`` — serials, so a memo
        keeps no other chase alive — and computed only up to the
        length asked: a memo at least ``m`` long answers, a shorter one
        is recomputed.  Both routes hold ``m`` more arrivals (the
        planner bounds ``m`` by every group's chase).
        """
        if other.serial < self.serial:
            return other.meetings(other_off, self, off, m)
        memo = self._meets
        if memo is None:
            memo = self._meets = {}
        key = (off, other.serial, other_off)
        hit = memo.get(key)
        if hit is not None and hit[0] >= m:
            at = hit[1]
            return at if hit[0] == m else at[:bisect_left(at, m)]
        at = list(compress(range(m), map(
            eq,
            self.nodes[off + 1:off + m + 1],
            other.nodes[other_off + 1:other_off + m + 1],
        )))
        memo[key] = (m, at)
        return at


class _PlanRoutes:
    """Chased routes of one walk plan on one graph.

    A walk's future is a pure function of its *state* ``(position in
    plan, node, exit port)``: the exit port determines the next edge,
    the traversed edge determines the entry port, and every later step
    resolves from entry ports alone.  A walk resuming anywhere along a
    previously chased route is found by a scan of the plan's chases.
    """

    __slots__ = ("steps", "_chases")

    def __init__(self, steps: tuple[int, ...]) -> None:
        # Strong reference: keeps id(steps) valid for the cache key.
        self.steps = steps
        self._chases: list[Chase] = []  # in insertion order

    def lookup(
        self, graph: PortGraph, pos: int, node: int, port: int
    ) -> tuple[Chase, int]:
        """The chase through state ``(pos, node, port)`` and its offset."""
        # A state reached by two chases has identical continuations
        # (the walk is deterministic), so the first chase in insertion
        # order serves it.
        for chase in self._chases:
            off = pos - chase.pos
            if 0 <= off < len(chase.ports) and chase.nodes[off] == node \
                    and chase.ports[off] == port:
                return chase, off
        chase = Chase(graph, self.steps, pos, node, port)
        self._chases.append(chase)
        return chase, 0


class RouteCache:
    """Per-graph cache of :class:`_PlanRoutes`, keyed by plan identity.

    Plans are keyed by ``id(steps)`` with a strong reference kept in
    the entry, so a hit is only served for the *same tuple object*
    (providers return cached tuples; fresh tuples simply miss and pay
    one chase).  Bounded LRU so ad-hoc plans cannot grow it forever.
    """

    __slots__ = ("graph", "_plans")
    _MAX_PLANS = 64

    def __init__(self, graph: PortGraph) -> None:
        self.graph = graph
        self._plans: OrderedDict[int, _PlanRoutes] = OrderedDict()

    def lookup(
        self, steps: tuple[int, ...], pos: int, node: int, port: int
    ) -> tuple[Chase, int]:
        """``(chase, offset)``: the walk from this state is the chase's
        suffix from ``offset`` on."""
        key = id(steps)
        pr = self._plans.get(key)
        if pr is None or pr.steps is not steps:
            pr = _PlanRoutes(steps)
            self._plans[key] = pr
            if len(self._plans) > self._MAX_PLANS:
                self._plans.popitem(last=False)
        else:
            self._plans.move_to_end(key)
        return pr.lookup(self.graph, pos, node, port)


# Shared per-graph caches: trials executed on graphs of one port
# structure (the pipelined backend's batches, a search re-running a
# scenario, a trial that rebuilds its graph) reuse chased routes and
# their memos.  Keyed by the adjacency content — a PortGraph never
# changes after it is built — and LRU-bounded.
_GRAPH_CACHES: OrderedDict[tuple, RouteCache] = OrderedDict()
_GRAPH_CACHE_CAP = 8


def route_cache_for(graph: PortGraph) -> RouteCache:
    """The shared :class:`RouteCache` of ``graph``'s port structure
    (created on demand)."""
    key = tuple(map(tuple, graph._adj))
    cache = _GRAPH_CACHES.get(key)
    if cache is not None:
        _GRAPH_CACHES.move_to_end(key)
        return cache
    cache = _GRAPH_CACHES[key] = RouteCache(graph)
    if len(_GRAPH_CACHES) > _GRAPH_CACHE_CAP:
        _GRAPH_CACHES.popitem(last=False)
    return cache


# ----------------------------------------------------------------------
# Joint segment planning by exception.
# ----------------------------------------------------------------------

def _visits_within(chase: Chase, node: int, off: int, m: int) -> list[int]:
    """Arrival indices ``i`` (arrival ``i + 1`` of a walk at ``off``)
    at which the first ``m`` arrivals reach ``node``."""
    at = chase.visits(node)
    lo = bisect_right(at, off)
    hi = bisect_right(at, off + m, lo)
    start = off + 1
    return [p - start for p in at[lo:hi]]


def plan_segment(
    sim: Simulation,
    walks: list[tuple],
    observes: list[tuple[int, int]],
    round_: int,
) -> SegmentPlan | None:
    """Static-edge twin of ``Simulation._plan_segment``.

    Same contract, same truncation rules (documented in
    ``scheduler.py``), plus stationary observers: the longest joint
    prefix during which the per-step model could not have diverged, or
    ``None`` when no segment of at least two rounds is safe.  Every
    truncation bound is an order-independent minimum, taken over the
    groups of walkers that share a state instead of over walkers.
    """
    m = sim._segment_horizon(walks, observes, round_)
    if m < 2:
        return None
    pos_of = sim._pos
    counts = sim._counts
    lookup = sim.route_cache.lookup
    # Groups: walkers in one state ``(plan, position, node, exit port)``
    # walk one route in lockstep.  A route ending early (the plan end
    # was already bounded, so this is an invalid absolute step)
    # truncates the joint segment.
    group_of: dict[tuple, int] = {}
    member_group: list[int] = []
    chases: list[Chase] = []
    offs: list[int] = []
    sizes: list[int] = []
    watches: list[set] = []
    leaving: dict[int, int] = {}
    for idx, head, steps, pos, watch in walks:
        node = pos_of[idx]
        leaving[node] = leaving.get(node, 0) + 1
        state = (id(steps), pos, node, head)
        g = group_of.get(state)
        if g is None:
            g = group_of[state] = len(chases)
            chase, off = lookup(steps, pos, node, head)
            avail = len(chase.entries) - off
            if avail < m:
                m = avail
            chases.append(chase)
            offs.append(off)
            sizes.append(1)
            watches.append(set())
        else:
            sizes[g] += 1
        if watch is not None:
            watches[g].add(watch)
        member_group.append(g)
    if m < 2:
        return None
    groups = range(len(chases))
    # Only nodes holding an agent can wake anyone or add to a CurCard:
    # a watched or dormant-occupied node cuts the segment before its
    # first arrival; any other node adds its static occupancy
    # (``_counts`` minus the walkers; observers are static and stay in).
    occupied: list[tuple[int, int]] = []
    if chases:
        watchers = sim._watchers
        dormant_at = sim._dormant_at
        for v in set(pos_of):
            if watchers[v] or dormant_at[v]:
                for g in groups:
                    at = chases[g].visits(v)
                    i = bisect_right(at, offs[g])
                    if i < len(at) and at[i] - offs[g] - 1 < m:
                        m = at[i] - offs[g] - 1  # stop before waking anyone
            else:
                static = counts[v] - leaving.get(v, 0)
                if static:
                    occupied.append((v, static))
        if m < 2:
            return None
    # Exceptions: per group, arrival index -> agents beyond the group.
    extras: list[dict[int, int]] = []
    for g in groups:
        extra: dict[int, int] = {}
        for v, static in occupied:
            for i in _visits_within(chases[g], v, offs[g], m):
                extra[i] = static
        extras.append(extra)
    if len(chases) > 1:
        # Meetings of two groups: the one step linear in the segment,
        # memoized per pair of walk starts on the chases.
        for g in groups:
            chase, off, extra_g, k_g = chases[g], offs[g], extras[g], sizes[g]
            for h in range(g + 1, len(chases)):
                meets = chase.meetings(off, chases[h], offs[h], m)
                if meets:
                    extra_h, k_h = extras[h], sizes[h]
                    for i in meets:
                        extra_g[i] = extra_g.get(i, 0) + k_h
                        extra_h[i] = extra_h.get(i, 0) + k_g
    # The first firing walk watch ends the segment on its edge.
    watch_fired = False
    fire = m
    for g in groups:
        for watch in watches[g]:
            i = _first_fire(watch, sizes[g], extras[g], fire)
            if i < fire:
                fire = i
    if fire < m:
        watch_fired = True
        m = fire + 1  # the firing edge is the last
        if m < 2:
            return None
        extras = [
            {i: more for i, more in extra.items() if i < m}
            for extra in extras
        ]
    observer_cards: list[tuple[int, dict[int, int]]] = []
    for idx, _remaining in observes:
        u = pos_of[idx]
        extra = {}
        for g in groups:
            for i in _visits_within(chases[g], u, offs[g], m):
                extra[i] = extra.get(i, 0) + sizes[g]
        observer_cards.append((counts[u] - leaving.get(u, 0), extra))
    # Members of one group share its chase reference and exceptions.
    walkers = [
        (chases[g], offs[g], sizes[g], extras[g]) for g in member_group
    ]
    return SegmentPlan(m, walkers, observer_cards, watch_fired)
