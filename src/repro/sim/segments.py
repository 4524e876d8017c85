"""The numpy-vectorized segment planner and its route cache.

One of the two segment planners :class:`repro.sim.scheduler.Simulation`
binds; the other is the scalar ``Simulation._plan_segment``, which
runs on dynamic-edge runs and without numpy.  Both share one contract:
``(sim, walks, observes, round_) -> SegmentPlan | None``, starting from
the same ``Simulation._segment_horizon`` bound and returning a
:class:`~repro.sim.scheduler.SegmentPlan` whose per-walker lists are
cut to the final joint length ``m``.  One scheduler method,
``Simulation._apply_segment``, commits either planner's plan, and the
differential suite holds both to :mod:`repro.sim.reference`.

The scalar planner re-chases every walk route step by step in Python
on every segment.  Routes, however, are pure functions of ``(graph,
plan, position in plan, node, exit port)`` — so a :class:`RouteCache`
chases each distinct start state once, registers every suffix of the
chase (the continuation from any mid-plan state is a suffix of the
same chase), and serves numpy array views thereafter.  Truncation
bounds, exact per-arrival CurCards and watch evaluation
(:func:`plan_segment`) are then vector operations over those views.
Cached routes know nothing about per-round edge liveness, which is
why dynamic-edge runs keep the scalar planner.  ``last_change`` is not
the planner's concern: the scheduler logs the routes of every
segment and resolves them only when a stability wait reads a node.
This planner also understands stationary ``observe`` cohort members
(see :mod:`repro.sim.ops`), which is what lets ``StarCheck``'s
waiters share a segment with the dancing agent; the scalar planner
declines cohorts with observers.
"""

from __future__ import annotations

from collections import OrderedDict

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is optional
    np = None  # type: ignore[assignment]

from ..graphs.port_graph import PortGraph
from .scheduler import SegmentPlan, Simulation

HAVE_NUMPY = np is not None


# ----------------------------------------------------------------------
# Route cache: chased walk routes keyed by plan identity.
# ----------------------------------------------------------------------

class _PlanRoutes:
    """Chased routes of one walk plan on one graph.

    A walk's future is a pure function of its *state* ``(position in
    plan, node, exit port)``: the exit port determines the next edge,
    the traversed edge determines the entry port, and every later step
    resolves from entry ports alone.  Each chase therefore registers
    all of its intermediate states, so a walk resuming anywhere along a
    previously chased route is an O(1) dict hit returning array views.
    """

    __slots__ = ("steps", "_suffix", "_chases")

    def __init__(self, steps: tuple[int, ...]) -> None:
        # Strong reference: keeps id(steps) valid for the cache key.
        self.steps = steps
        self._suffix: dict[tuple[int, int, int], tuple[int, int]] = {}
        self._chases: list[tuple] = []

    def route(self, graph: PortGraph, pos: int, node: int, port: int):
        """Arrays ``(nodes, entries, degrees)`` of the remaining route.

        ``nodes`` has the start node at index 0; ``entries[j]`` /
        ``degrees[j]`` describe the arrival at ``nodes[j + 1]``.  The
        route ends at the plan's end or just before the first invalid
        absolute step, exactly like the scalar planner's walk-out.
        """
        key = (pos, node, port)
        hit = self._suffix.get(key)
        if hit is None:
            self._chase(graph, pos, node, port)
            hit = self._suffix[key]
        ci, off = hit
        nodes, ents, degs = self._chases[ci]
        return nodes[off:], ents[off:], degs[off:]

    def _chase(self, graph: PortGraph, pos: int, node: int, port: int) -> None:
        steps = self.steps
        adj = graph._adj
        total = len(steps)
        nodes = [node]
        ents: list[int] = []
        degs: list[int] = []
        states = [(pos, node, port)]
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
            states.append((t, node, port))
        ci = len(self._chases)
        self._chases.append((
            np.asarray(nodes, dtype=np.int64),
            np.asarray(ents, dtype=np.int64),
            np.asarray(degs, dtype=np.int64),
        ))
        suffix = self._suffix
        for off, key in enumerate(states):
            # A state reached by two chases has identical continuations
            # (the walk is deterministic), so first registration wins.
            suffix.setdefault(key, (ci, off))


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

    def route(self, steps: tuple[int, ...], pos: int, node: int, port: int):
        key = id(steps)
        pr = self._plans.get(key)
        if pr is None or pr.steps is not steps:
            pr = _PlanRoutes(steps)
            self._plans[key] = pr
            if len(self._plans) > self._MAX_PLANS:
                self._plans.popitem(last=False)
        else:
            self._plans.move_to_end(key)
        return pr.route(self.graph, pos, node, port)


# Shared per-graph caches: trials executed on the same graph object
# (the pipelined backend's batches) reuse chased routes automatically.
# Keyed by id with a strong graph reference — PortGraph has no
# __weakref__ slot — and LRU-bounded.
_GRAPH_CACHES: OrderedDict[int, tuple[PortGraph, RouteCache]] = OrderedDict()
_GRAPH_CACHE_CAP = 8


def route_cache_for(graph: PortGraph) -> RouteCache:
    """The shared :class:`RouteCache` of ``graph`` (created on demand)."""
    key = id(graph)
    hit = _GRAPH_CACHES.get(key)
    if hit is not None and hit[0] is graph:
        _GRAPH_CACHES.move_to_end(key)
        return hit[1]
    cache = RouteCache(graph)
    _GRAPH_CACHES[key] = (graph, cache)
    if len(_GRAPH_CACHES) > _GRAPH_CACHE_CAP:
        _GRAPH_CACHES.popitem(last=False)
    return cache


# ----------------------------------------------------------------------
# Vectorized joint segment planning.
# ----------------------------------------------------------------------

def plan_segment(
    sim: Simulation,
    walks: list[tuple],
    observes: list[tuple[int, int]],
    round_: int,
) -> SegmentPlan | None:
    """Vectorized twin of ``Simulation._plan_segment``.

    Same contract, same truncation rules (documented in
    ``scheduler.py``), plus stationary observers: the longest joint
    prefix during which the per-step model could not have diverged, or
    ``None`` when no segment of at least two rounds is safe.  All
    truncation bounds are order-independent minima, so per-walker
    bounds are intersected instead of re-scanned sequentially.
    """
    m = sim._segment_horizon(walks, observes, round_)
    if m < 2:
        return None
    pos_of = sim._pos
    watchers = sim._watchers
    n = sim.graph.n
    cache = sim.route_cache
    # Structural pass: cached routes; a route ending early (plan end
    # was already bounded above, so this is an invalid absolute step)
    # truncates the joint segment.
    routes = []
    for idx, head, steps, pos, _w in walks:
        nodes, ents, degs = cache.route(steps, pos, pos_of[idx], head)
        avail = len(ents)
        if avail < m:
            m = avail
        routes.append((nodes, ents, degs))
    if m < 2:
        return None
    dormant_at = sim._dormant_at
    blocked = [v for v in range(n) if watchers[v] or dormant_at[v]]
    if blocked and routes:
        mask = np.zeros(n, dtype=bool)
        mask[blocked] = True
        for nodes, _e, _d in routes:
            hits = mask[nodes[1:m + 1]]
            if hits.any():
                t = int(hits.argmax())  # stop before waking anyone
                if t < m:
                    m = t
                    if m < 2:
                        return None
    # Card pass: statics are _counts minus the walkers (observers are
    # static and stay in); cohort co-location comes from the occupancy
    # matrix.  Exact per-arrival CurCards, truncated at the first
    # firing walk watch (that edge is the segment's last).
    counts_np = np.array(sim._counts, dtype=np.int64)
    W = len(walks)
    nodes_matrix = None
    body = None
    cards = None
    occ = None
    watch_fired = False
    if W:
        for i, _h, _s, _p, _w in walks:
            counts_np[pos_of[i]] -= 1
        nodes_matrix = np.empty((W, m + 1), dtype=np.int64)
        for w, (nodes, _e, _d) in enumerate(routes):
            nodes_matrix[w] = nodes[:m + 1]
        body = nodes_matrix[:, 1:]
        if W == 1:
            cards = counts_np[body] + 1
        elif W == 2:
            # Pair cohort: co-location is a single equality row, no
            # occupancy matrix needed.
            together = body[0] == body[1]
            cards = counts_np[body] + 1
            cards[0] += together
            cards[1] += together
        else:
            cols = np.arange(m)
            occ = np.zeros((n, m), dtype=np.int64)
            np.add.at(occ, (body, cols), 1)
            cards = counts_np[body] + occ[body, cols]
        fired = None
        for w, (_i, _h, _s, _p, watch) in enumerate(walks):
            if watch is None:
                continue
            kind, value = watch
            row = cards[w]
            if kind == "gt":
                f = row > value
            elif kind == "ne":
                f = row != value
            elif kind == "eq":
                f = row == value
            else:  # "lt"
                f = row < value
            fired = f if fired is None else (fired | f)
        if fired is not None and fired.any():
            watch_fired = True
            m = int(fired.argmax()) + 1  # the firing edge is the last
            if m < 2:
                return None
            nodes_matrix = nodes_matrix[:, :m + 1]
            body = nodes_matrix[:, 1:]
            if occ is not None:
                occ = occ[:, :m]
            cards = cards[:, :m]
    observer_cards: list[list[int]] = []
    if observes:
        obs_nodes = np.array([pos_of[i] for i, _r in observes],
                             dtype=np.int64)
        base = counts_np[obs_nodes][:, None]
        if not W:
            ocards = np.broadcast_to(base, (len(observes), m))
        elif occ is not None:
            ocards = base + occ[obs_nodes]
        else:
            # W <= 2: per-round co-walker occupancy of each observer's
            # node is a direct equality test against the routes.
            ocards = base + (body[0] == obs_nodes[:, None])
            if W == 2:
                ocards = ocards + (body[1] == obs_nodes[:, None])
        observer_cards = [row.tolist() for row in ocards]
    walkers = []
    for w, (nodes, ents, degs) in enumerate(routes):
        walkers.append((
            nodes[:m + 1].tolist(),
            ents[:m].tolist(),
            degs[:m].tolist(),
            cards[w].tolist(),
        ))
    return SegmentPlan(m, walkers, observer_cards, watch_fired)
