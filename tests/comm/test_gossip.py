"""Tests for the GoSGD weighted push-gossip rules."""

import numpy as np
import pytest

from repro.comm.gossip import (
    GossipState,
    choose_gossip_peer,
    gossip_merge,
    gossip_send_share,
)


class TestSendShare:
    def test_halves_weight(self):
        state = GossipState(weight=0.5)
        share = gossip_send_share(state)
        assert share == pytest.approx(0.25)
        assert state.weight == pytest.approx(0.25)

    def test_weight_conservation(self):
        state = GossipState(weight=1.0)
        share = gossip_send_share(state)
        assert share + state.weight == pytest.approx(1.0)


class TestMerge:
    def test_weighted_average(self):
        state = GossipState(weight=0.25)
        local = np.array([0.0, 0.0])
        incoming = np.array([1.0, 2.0])
        merged = gossip_merge(incoming, 0.75, state, local)
        assert np.allclose(merged, [0.75, 1.5])
        assert state.weight == pytest.approx(1.0)

    def test_equal_weights_is_midpoint(self):
        state = GossipState(weight=0.5)
        merged = gossip_merge(np.array([2.0]), 0.5, state, np.array([0.0]))
        assert np.allclose(merged, [1.0])

    def test_timing_mode_updates_weight_only(self):
        state = GossipState(weight=0.5)
        out = gossip_merge(None, 0.5, state, None)
        assert out is None
        assert state.weight == pytest.approx(1.0)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            gossip_merge(None, 0.0, GossipState(weight=1.0), None)

    def test_push_sum_consensus(self):
        """Repeated random pushes drive all workers to the true average
        — the Kempe et al. push-sum guarantee GoSGD relies on."""
        rng = np.random.default_rng(0)
        n = 8
        values = [np.array([float(i)]) for i in range(n)]
        states = [GossipState(weight=1.0 / n) for _ in range(n)]
        true_avg = np.mean(range(n))
        for _ in range(400):
            src = int(rng.integers(0, n))
            dst = choose_gossip_peer(src, list(range(n)), rng)
            share = gossip_send_share(states[src])
            values[dst] = gossip_merge(values[src].copy(), share, states[dst], values[dst])
        for v in values:
            assert abs(v[0] - true_avg) < 0.3


class TestTargetSelection:
    def test_never_self(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert choose_gossip_peer(3, list(range(8)), rng) != 3

    def test_uniform_over_others(self):
        rng = np.random.default_rng(0)
        counts = np.zeros(4)
        for _ in range(4000):
            counts[choose_gossip_peer(1, [0, 1, 2, 3], rng)] += 1
        assert counts[1] == 0
        others = counts[[0, 2, 3]]
        assert others.min() > 0.8 * others.max()

    def test_needs_two_workers(self):
        with pytest.raises(ValueError):
            choose_gossip_peer(0, [0], np.random.default_rng(0))
