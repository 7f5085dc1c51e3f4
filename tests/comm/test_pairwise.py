"""Tests for the AD-PSGD bipartite exchange topology."""

import pytest

from repro.comm.pairwise import (
    bipartite_split,
    build_exchange_graph,
    verify_deadlock_free,
)


class TestBipartiteSplit:
    def test_even_split(self):
        active, passive = bipartite_split(8)
        assert active == [0, 2, 4, 6]
        assert passive == [1, 3, 5, 7]

    def test_odd_split(self):
        active, passive = bipartite_split(5)
        assert len(active) == 3
        assert len(passive) == 2
        assert sorted(active + passive) == list(range(5))

    def test_single_worker(self):
        active, passive = bipartite_split(1)
        assert active == [0]
        assert passive == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            bipartite_split(0)


class TestExchangeGraph:
    def test_complete_bipartite(self):
        _, _, edges = build_exchange_graph(6)
        assert len(edges) == len(set(edges)) == 9  # 3 × 3

    def test_is_bipartite(self):
        active, passive, edges = build_exchange_graph(24)
        assert sorted(active + passive) == list(range(24))
        assert all(a in active and p in passive for a, p in edges)

    def test_every_active_has_peers(self):
        active, _, edges = build_exchange_graph(8)
        for node in active:
            assert any(a == node for a, _ in edges)


class TestDeadlockFreedom:
    @pytest.mark.parametrize("world", [2, 3, 8, 24])
    def test_paper_topology_is_deadlock_free(self, world):
        assert verify_deadlock_free(*build_exchange_graph(world))

    def test_every_world_up_to_24_is_deadlock_free(self):
        assert all(verify_deadlock_free(*build_exchange_graph(w)) for w in range(1, 25))

    def test_intra_class_edge_detected(self):
        """The three-worker cycle from §IV-C: A→B→C→A requires an edge
        inside one role class, which the checker rejects."""
        active, passive, edges = build_exchange_graph(4)
        assert not verify_deadlock_free(active, passive, edges + [(0, 2)])  # active-active
        assert not verify_deadlock_free(active, passive, edges + [(3, 1)])  # passive-passive

    def test_mislabeled_nodes_detected(self):
        active, passive, edges = build_exchange_graph(4)
        assert not verify_deadlock_free(active, passive, edges + [(0, 9)])  # in neither class
        assert not verify_deadlock_free(active + [1], passive, edges)  # in both
