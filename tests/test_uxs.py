"""Certification tests for the universal exploration sequences.

These are the tests that make the UXS substitution (DESIGN.md Section
3) sound: the pinned sequences are re-verified exhaustively and the
sampled defaults are re-verified against the benchmark families.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.explore.uxs import (
    SAMPLED_LENGTHS,
    UniversalityError,
    UXSProvider,
    generate_sequence,
    is_universal_for,
    nodes_visited,
    verify_exhaustive,
    walk_ports,
)
from repro.graphs import (
    PortGraph,
    family_for_size,
    iter_all_port_graphs,
    random_connected_graph,
    random_regular,
    ring,
    single_edge,
)


class TestWalkMechanics:
    def test_walk_on_single_edge(self):
        g = single_edge()
        assert walk_ports(g, 0, (0,)) == [0]
        assert nodes_visited(g, 0, (0,)) == {0, 1}

    def test_offsets_reduced_mod_degree(self):
        g = single_edge()
        # Offset 7 at a degree-1 node is port 0.
        assert walk_ports(g, 0, (7,)) == [0]

    def test_empty_sequence_visits_start_only(self):
        g = single_edge()
        assert nodes_visited(g, 0, ()) == {0}


def covers_from_every_start(graph, sequence):
    """Reference verdict: full ``iter_walk`` walks, no early stop."""
    return all(
        len(nodes_visited(graph, start, sequence)) == graph.n
        for start in graph.nodes()
    )


@st.composite
def small_graphs(draw):
    """Connected port graphs with at most 8 nodes, the 1-node one too."""
    n = draw(st.integers(1, 8))
    if n == 1:
        return PortGraph(1, [])
    seed = draw(st.integers(0, 2**16))
    # Dense pairings (e.g. 5-regular on 6 nodes) rarely come out simple.
    degrees = [d for d in (2, 3) if d < n and n * d % 2 == 0]
    if degrees and draw(st.booleans()):
        return random_regular(n, draw(st.sampled_from(degrees)), seed=seed)
    return random_connected_graph(n, seed=seed)


class TestEarlyStopVerdict:
    """``is_universal_for`` stops each walk at coverage; the verdict
    must equal the full walk's on every prefix of the sequence."""

    @settings(max_examples=30, deadline=None)
    @given(graph=small_graphs())
    def test_matches_full_walk_on_every_prefix(self, graph):
        # A 7-node graph takes the sampled N = 8 sequence (144 steps)
        # rather than the 588-step generated N = 7 one: the reference
        # is quadratic in the sequence length.
        bound = 8 if graph.n == 7 else graph.n
        seq = UXSProvider().sequence(bound)
        for length in range(len(seq) + 1):
            prefix = seq[:length]
            assert is_universal_for(graph, prefix) == \
                covers_from_every_start(graph, prefix), length

    def test_prefixes_give_both_verdicts(self, provider):
        graph = ring(6)
        seq = provider.sequence(6)
        # The shortest covering prefix covers on exactly its last step.
        k = next(
            length for length in range(len(seq) + 1)
            if covers_from_every_start(graph, seq[:length])
        )
        assert k > 0
        assert is_universal_for(graph, seq[:k])
        assert not is_universal_for(graph, seq[:k - 1])

    def test_empty_sequence(self):
        assert not is_universal_for(single_edge(), ())
        assert is_universal_for(PortGraph(1, []), ())

    def test_one_node_graph_is_covered_before_any_step(self):
        # Its only node has no ports, so no step could be taken.
        assert is_universal_for(PortGraph(1, []), (3, 5))

    @settings(max_examples=60, deadline=None)
    @given(
        graph=small_graphs(),
        sequence=st.lists(st.integers(-6, 6), max_size=60).map(tuple),
    )
    def test_matches_full_walk_on_any_offsets(self, graph, sequence):
        # A pinned sequence may hold negative offsets: they encode as
        # absolute ports, and an invalid one ends the walk.  The full
        # walk cannot step off the portless 1-node graph at all.
        assume(graph.n > 1)
        assert is_universal_for(graph, sequence) == \
            covers_from_every_start(graph, sequence)

    def test_pinned_negative_offset_is_walked_like_the_agents(self):
        # -3 encodes absolute port 2, which a degree-1 node lacks, so
        # the walk ends before its first edge; -1 is absolute port 0.
        provider = UXSProvider()
        provider.pin(2, (-3,))
        with pytest.raises(UniversalityError):
            provider.verify_for_graph(2, single_edge())
        provider.pin(2, (-1,))
        provider.verify_for_graph(2, single_edge())


class TestPinnedCertification:
    def test_pinned_2_exhaustive(self, provider):
        verify_exhaustive(provider.sequence(2), 2)

    def test_pinned_3_exhaustive(self, provider):
        verify_exhaustive(provider.sequence(3), 3)

    @pytest.mark.slow
    def test_pinned_4_exhaustive(self, provider):
        verify_exhaustive(provider.sequence(4), 4)

    def test_pinned_4_covers_all_4_node_graphs(self, provider):
        seq = provider.sequence(4)
        for g in iter_all_port_graphs(4):
            assert is_universal_for(g, seq)

    def test_verify_exhaustive_rejects_too_short(self):
        with pytest.raises(UniversalityError):
            verify_exhaustive((), 2)


class TestSampledCertification:
    @pytest.mark.parametrize("n", sorted(SAMPLED_LENGTHS))
    def test_families_covered(self, provider, n):
        seq = provider.sequence(n)
        for size in range(2, n + 1):
            for _name, g in family_for_size(size):
                assert is_universal_for(g, seq), f"{_name} size {size}"

    @pytest.mark.parametrize("n", sorted(SAMPLED_LENGTHS))
    def test_random_graphs_covered(self, provider, n):
        seq = provider.sequence(n)
        for seed in range(25):
            g = random_connected_graph(n, seed=seed)
            assert is_universal_for(g, seq)


class TestProvider:
    def test_durations(self, provider):
        assert provider.explo_duration(2) == 2
        assert provider.explo_duration(3) == 6
        assert provider.length(4) == 8

    def test_cache_stability(self, provider):
        assert provider.sequence(5) is provider.sequence(5)

    def test_generated_for_large_n(self):
        p = UXSProvider(factor=2)
        assert p.length(7) > 0

    def test_explicit_length_override(self):
        p = UXSProvider(lengths={6: 77})
        assert p.length(6) == 77

    def test_pin_custom_sequence(self):
        p = UXSProvider()
        p.pin(9, (1, 2, 3))
        assert p.sequence(9) == (1, 2, 3)

    def test_generation_deterministic(self):
        assert generate_sequence(50, 7) == generate_sequence(50, 7)
        assert generate_sequence(50, 7) != generate_sequence(50, 8)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            UXSProvider(factor=0)

    def test_rejects_bad_n(self, provider):
        with pytest.raises(ValueError):
            provider.sequence(0)

    def test_preflight_accepts_covered_graph(self, provider):
        provider.verify_for_graph(2, single_edge())

    def test_preflight_rejects_oversized_graph(self, provider):
        with pytest.raises(UniversalityError):
            provider.verify_for_graph(2, random_connected_graph(4, seed=0))

    def test_preflight_rejects_uncovered_graph(self):
        p = UXSProvider()
        p.pin(4, (0,))  # far too short for 4-node graphs
        with pytest.raises(UniversalityError):
            p.verify_for_graph(4, random_connected_graph(4, seed=1))
