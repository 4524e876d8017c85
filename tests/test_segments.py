"""The vectorized planner's route cache (:mod:`repro.sim.segments`).

Chased routes must equal an independent per-edge replay, suffixes of
one chase must be served without re-chasing, and plans are keyed by
tuple identity.  Serving suffixes must not change what a trial
simulates: event, segment and chase counts are pinned.  The planner's
byte-identity with per-step execution is checked by the differential
suite against :mod:`repro.sim.reference`.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("numpy")

from repro.baselines.talking import run_talking_gather
from repro.core.runs import run_gather_known
from repro.graphs import random_regular, ring, torus
from repro.metrics import registry as metrics_registry
from repro.metrics.registry import Registry
from repro.sim.segments import RouteCache, route_cache_for

GRAPHS = {
    "ring6": ring(6),
    "torus33": torus(3, 3, seed=11),
    "regular8": random_regular(8, 3, seed=5),
}

GRAPH_NAMES = sorted(GRAPHS)


def naive_chase(graph, steps, pos, node, port):
    """Independent per-edge replay of a walk plan's route."""
    nodes, ents, degs = [node], [], []
    t = pos
    while True:
        node, entry = graph.neighbor(node, port)
        nodes.append(node)
        ents.append(entry)
        degree = graph.degree(node)
        degs.append(degree)
        t += 1
        if t >= len(steps):
            break
        step = steps[t]
        if step >= 0:
            if step >= degree:
                break
            port = step
        else:
            port = (entry + ~step) % degree
    return nodes, ents, degs


class TestRouteCache:
    @pytest.mark.parametrize("graph_name", GRAPH_NAMES)
    def test_routes_match_naive_chase(self, graph_name):
        graph = GRAPHS[graph_name]
        cache = RouteCache(graph)
        rng = random.Random(f"routes/{graph_name}")
        for _ in range(20):
            steps = tuple(
                ~rng.randrange(4) if rng.random() < 0.5
                else rng.randrange(4)
                for _ in range(rng.randrange(1, 8))
            )
            node = rng.randrange(graph.n)
            port = steps[0] if steps[0] >= 0 else ~steps[0]
            if port >= graph.degree(node):
                continue
            nodes, ents, degs = cache.route(steps, 0, node, port)
            exp = naive_chase(graph, steps, 0, node, port)
            assert (nodes.tolist(), ents.tolist(), degs.tolist()) == exp

    def test_suffix_states_share_one_chase(self):
        graph = ring(6)
        cache = RouteCache(graph)
        steps = (0, ~1, ~1, ~1)
        nodes, ents, degs = cache.route(steps, 0, 0, 0)
        assert len(nodes) == 5
        (pr,) = cache._plans.values()
        assert len(pr._chases) == 1
        # Resuming mid-plan is a suffix of the same chase: no re-chase,
        # and the suffix view matches the full route's tail.  The exit
        # port at position 2 follows the ~1 rule from the entry port.
        port2 = (int(ents[1]) + 1) % int(degs[1])
        nodes2, _, _ = cache.route(steps, 2, int(nodes[2]), port2)
        assert len(pr._chases) == 1
        assert nodes2.tolist() == nodes.tolist()[2:]

    def test_keyed_by_plan_identity_not_equality(self):
        graph = ring(6)
        cache = RouteCache(graph)
        # Built dynamically: equal literals would be constant-folded
        # into one interned tuple object.
        a = tuple([0, 0])
        b = tuple([0, 0])
        cache.route(a, 0, 0, 0)
        cache.route(b, 0, 0, 0)
        assert len(cache._plans) == 2

    def test_invalid_absolute_step_ends_route(self):
        graph = ring(6)
        cache = RouteCache(graph)
        steps = (0, 5, 0)  # port 5 does not exist on a ring node
        nodes, ents, _ = cache.route(steps, 0, 0, 0)
        assert len(nodes) == 2
        assert len(ents) == 1

    def test_shared_graph_cache_is_per_object(self):
        g = ring(6)
        assert route_cache_for(g) is route_cache_for(g)
        assert route_cache_for(g) is not route_cache_for(ring(6))


def converging_chases(graph, length=6):
    """Two start states of the all-port-0 plan whose routes meet.

    Chase A starts at position 0 on node 0.  Chase B starts at
    position 1 on a neighbour of A's position-2 node other than A's
    position-1 node, so both reach the state ``(2, a2, 0)``.
    """
    steps = tuple([0] * length)
    a1 = graph.neighbor(0, 0)[0]
    a2 = graph.neighbor(a1, 0)[0]
    for v, v_port in graph._adj[a2]:  # v_port at v leads back to a2
        if v != a1:
            return steps, (0, 0, 0), (1, v, v_port), a2
    raise AssertionError("a2 has a single neighbour")


class TestRouteLookup:
    """How a lookup finds the chase that passed through its state."""

    graph = GRAPHS["regular8"]

    def test_shared_state_is_served_by_the_first_chase(self):
        steps, a, b, a2 = converging_chases(self.graph)
        shared = (3, self.graph.neighbor(a2, 0)[0], 0)  # on both routes
        for first, second in ((a, b), (b, a)):
            cache = RouteCache(self.graph)
            nodes_first, _, _ = cache.route(steps, *first)
            nodes_second, _, _ = cache.route(steps, *second)
            (pr,) = cache._plans.values()
            assert len(pr._chases) == 2
            nodes, ents, degs = cache.route(steps, *shared)
            assert len(pr._chases) == 2
            assert nodes.base is nodes_first.base
            assert nodes.base is not nodes_second.base
            exp = naive_chase(self.graph, steps, *shared)
            assert (nodes.tolist(), ents.tolist(), degs.tolist()) == exp

    def test_same_position_and_node_with_other_port_chases_anew(self):
        steps, a, _b, a2 = converging_chases(self.graph)
        cache = RouteCache(self.graph)
        cache.route(steps, *a)
        (pr,) = cache._plans.values()
        nodes, ents, degs = cache.route(steps, 2, a2, 1)
        assert len(pr._chases) == 2
        assert (nodes.tolist(), ents.tolist(), degs.tolist()) == \
            naive_chase(self.graph, steps, 2, a2, 1)

    def test_lookup_outside_a_chase_misses(self):
        graph = ring(6)
        cache = RouteCache(graph)
        steps = (0, 0, 0, 5, 0, 0)  # port 5 ends the route at position 3
        nodes, _, _ = cache.route(steps, 1, 0, 0)
        assert len(nodes) == 3  # two edges: positions 1 and 2
        (pr,) = cache._plans.values()
        # Position 3 is one past the chase's last edge, although the
        # chase did arrive at nodes[2]; position 0 is before its start.
        for pos, node in ((3, int(nodes[2])), (0, int(nodes[0]))):
            before = len(pr._chases)
            got, ents, degs = cache.route(steps, pos, node, 0)
            assert len(pr._chases) == before + 1
            assert (got.tolist(), ents.tolist(), degs.tolist()) == \
                naive_chase(graph, steps, pos, node, 0)


def trial_counts(run, graph):
    """Events, walk segments and route chases of one trial."""
    reg = Registry("t")
    with metrics_registry.attached(reg):
        run(graph)
    names = ("sim.events", "sim.walk.segments", "sim.walk.segment_edges")
    values = {
        row["name"]: row["value"]
        for row in reg.snapshot()["series"]
        if row["name"] in names
    }
    chases = sum(
        len(pr._chases) for pr in route_cache_for(graph)._plans.values()
    )
    return tuple(values[name] for name in names) + (chases,)


class TestCountsStayExact:
    """Pinned per-trial counts: how routes are cached and looked up
    must not change what is simulated, nor how often a route is
    chased."""

    def test_talking_trial(self):
        counts = trial_counts(
            lambda g: run_talking_gather(g, [1, 2], 12, start_nodes=[0, 5]),
            random_regular(12, 3, seed=3),
        )
        assert counts == (1450, 3, 1444, 4)

    def test_gather_known_ring_trial(self):
        counts = trial_counts(
            lambda g: run_gather_known(g, [1, 2], 10, start_nodes=[0, 4]),
            ring(10, seed=2),
        )
        assert counts == (69634, 153, 69004, 6)
