"""The static-edge planner's route cache (:mod:`repro.sim.segments`).

Chased routes must equal an independent per-edge replay, suffixes of
one chase must be served without re-chasing, plans are keyed by tuple
identity, and a chase's visit index must list exactly the positions
of each node.  Serving suffixes must not change what a trial
simulates: event, segment and chase counts are pinned.  The planner's
byte-identity with per-step execution is checked by the differential
suite against :mod:`repro.sim.reference`.
"""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.baselines.talking import run_talking_gather
from repro.core.runs import run_gather_known
from repro.graphs import PortGraph, random_regular, ring, torus
from repro.metrics import registry as metrics_registry
from repro.metrics.registry import Registry
from repro.sim import segments
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


def route(cache, steps, pos, node, port):
    """The remaining route of a walk as ``(nodes, entries, degrees)``
    lists: the suffix of the chase a lookup returns."""
    chase, off = cache.lookup(steps, pos, node, port)
    return chase.nodes[off:], chase.entries[off:], chase.degrees[off:]


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
            got = route(cache, steps, 0, node, port)
            assert got == naive_chase(graph, steps, 0, node, port)

    def test_suffix_states_share_one_chase(self):
        graph = ring(6)
        cache = RouteCache(graph)
        steps = (0, ~1, ~1, ~1)
        nodes, ents, degs = route(cache, steps, 0, 0, 0)
        assert len(nodes) == 5
        (pr,) = cache._plans.values()
        assert len(pr._chases) == 1
        # Resuming mid-plan is a suffix of the same chase: no re-chase,
        # and the lookup's offset lands on the full route's tail.  The
        # exit port at position 2 follows the ~1 rule from the entry
        # port.
        port2 = (ents[1] + 1) % degs[1]
        chase, off = cache.lookup(steps, 2, nodes[2], port2)
        assert len(pr._chases) == 1
        assert (chase, off) == (pr._chases[0], 2)
        assert chase.nodes[off:] == nodes[2:]

    def test_keyed_by_plan_identity_not_equality(self):
        graph = ring(6)
        cache = RouteCache(graph)
        # Built dynamically: equal literals would be constant-folded
        # into one interned tuple object.
        a = tuple([0, 0])
        b = tuple([0, 0])
        cache.lookup(a, 0, 0, 0)
        cache.lookup(b, 0, 0, 0)
        assert len(cache._plans) == 2

    def test_invalid_absolute_step_ends_route(self):
        graph = ring(6)
        cache = RouteCache(graph)
        steps = (0, 5, 0)  # port 5 does not exist on a ring node
        nodes, ents, degs = route(cache, steps, 0, 0, 0)
        assert len(nodes) == 2
        assert len(ents) == len(degs) == 1

    def test_shared_graph_cache_is_per_port_structure(self):
        """Separately built equal graphs share one cache; the same
        graph with two ports swapped at one node does not."""
        g = ring(6)
        assert route_cache_for(g) is route_cache_for(g)
        assert route_cache_for(g) is route_cache_for(ring(6))
        swapped = PortGraph(6, [
            (u, 1 - pu if u == 0 else pu, v, 1 - pv if v == 0 else pv)
            for u, pu, v, pv in g.edges()
        ])
        assert route_cache_for(swapped) is not route_cache_for(g)

    @pytest.mark.parametrize("graph_name", GRAPH_NAMES)
    def test_visit_index_lists_every_position(self, graph_name):
        """``visits(v)`` is the ascending list of positions where the
        chase is at ``v``, for every node (empty when it never is)."""
        graph = GRAPHS[graph_name]
        rng = random.Random(f"visits/{graph_name}")
        steps = tuple(~rng.randrange(3) for _ in range(40))
        chase, off = RouteCache(graph).lookup(steps, 0, 0, ~steps[0])
        assert off == 0
        for v in range(graph.n):
            assert chase.visits(v) == [
                j for j, node in enumerate(chase.nodes) if node == v
            ]


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
            chase_first, _ = cache.lookup(steps, *first)
            chase_second, _ = cache.lookup(steps, *second)
            (pr,) = cache._plans.values()
            assert len(pr._chases) == 2
            chase, off = cache.lookup(steps, *shared)
            assert len(pr._chases) == 2
            assert chase is chase_first
            assert chase is not chase_second
            assert off == shared[0] - chase.pos
            assert route(cache, steps, *shared) == \
                naive_chase(self.graph, steps, *shared)

    def test_same_position_and_node_with_other_port_chases_anew(self):
        steps, a, _b, a2 = converging_chases(self.graph)
        cache = RouteCache(self.graph)
        cache.lookup(steps, *a)
        (pr,) = cache._plans.values()
        got = route(cache, steps, 2, a2, 1)
        assert len(pr._chases) == 2
        assert got == naive_chase(self.graph, steps, 2, a2, 1)

    def test_lookup_outside_a_chase_misses(self):
        graph = ring(6)
        cache = RouteCache(graph)
        steps = (0, 0, 0, 5, 0, 0)  # port 5 ends the route at position 3
        nodes, _, _ = route(cache, steps, 1, 0, 0)
        assert len(nodes) == 3  # two edges: positions 1 and 2
        (pr,) = cache._plans.values()
        # Position 3 is one past the chase's last edge, although the
        # chase did arrive at nodes[2]; position 0 is before its start.
        for pos, node in ((3, nodes[2]), (0, nodes[0])):
            before = len(pr._chases)
            got = route(cache, steps, pos, node, 0)
            assert len(pr._chases) == before + 1
            assert got == naive_chase(graph, steps, pos, node, 0)


class TestMeetingMemo:
    """``Chase.meetings`` equals a naive comparison of the two routes
    at every length asked, in any order, from either chase."""

    @pytest.mark.parametrize("graph_name", GRAPH_NAMES)
    def test_meetings_match_a_naive_comparison(self, graph_name):
        graph = GRAPHS[graph_name]
        cache = RouteCache(graph)
        rng = random.Random(f"meetings/{graph_name}")
        steps = tuple(~rng.randrange(3) for _ in range(40))
        a, _ = cache.lookup(steps, 0, 0, ~steps[0] % graph.degree(0))
        b, _ = cache.lookup(steps, 0, 1, ~steps[0] % graph.degree(1))
        assert a is not b
        for off_a, off_b in ((0, 0), (2, 5)):
            for m in (20, 5, 30, 12, 30):
                naive = [
                    i for i in range(m)
                    if a.nodes[off_a + 1 + i] == b.nodes[off_b + 1 + i]
                ]
                assert a.meetings(off_a, b, off_b, m) == naive
                assert b.meetings(off_b, a, off_a, m) == naive
        # Memos key other chases by serial: no chase holds another.
        for chase in (a, b):
            for key in (chase._meets or {}):
                assert all(type(part) is int for part in key)


def trial_counts(run, graph):
    """Events, walk segments and route chases of one trial, from cold
    route caches (an equal graph of an earlier test would warm them)."""
    segments._GRAPH_CACHES.clear()
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


GUARD = """
import sys

from repro.runner import ExperimentSpec, run_experiment

for algorithm in ("gather_known", "talking"):
    result = run_experiment(
        ExperimentSpec(
            algorithm=algorithm, family="ring", sizes=(6,),
            label_sets=((1, 2),), seeds=(0,),
        ),
        backend="serial",
    )
    assert result.records and not result.failed, result.records
assert "repro.sim.segments" in sys.modules, "no segment was planned"
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_trials_never_import_numpy():
    """A fresh process that imports the engine and runs a silent and a
    talking trial, walk segments included, loads no numpy module."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", GUARD],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
