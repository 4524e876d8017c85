"""The vectorized planner's route cache (:mod:`repro.sim.segments`).

Chased routes must equal an independent per-edge replay, suffixes of
one chase must be served without re-chasing, and plans are keyed by
tuple identity.  The planner's byte-identity with per-step execution
is checked by the differential suite against :mod:`repro.sim.reference`.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("numpy")

from repro.graphs import random_regular, ring, torus
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
