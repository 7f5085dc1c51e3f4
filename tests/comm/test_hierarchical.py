"""Hierarchical collective schedules: geometry and wired-in behaviour.

The schedule module is pure geometry (groups, k-ary trees); the tests
here pin its invariants — every worker appears in exactly one group,
parent/child relations are mutually consistent — then exercise the
run-level wiring: ``collective`` (AR-SGD) and ``ps_topology`` (BSP)
produce deterministic, positive-throughput runs and are rejected on
algorithms whose schedules they do not describe.
"""

from __future__ import annotations

import pytest

from repro.comm.hierarchical import (
    DEFAULT_TREE_ARITY,
    group_by,
    machine_groups,
    tree_children,
    tree_parent,
)
from repro.core.runner import execute_run
from repro.experiments.config import timing_config
from repro.io import to_jsonable


class TestGroups:
    def test_machine_groups_block_placement(self):
        groups = machine_groups(list(range(8)), lambda w: w // 4)
        assert groups == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_groups_partition_after_evictions(self):
        ring = [0, 1, 3, 6, 7]  # workers 2, 4, 5 evicted
        groups = machine_groups(ring, lambda w: w // 4)
        assert groups == [[0, 1, 3], [6, 7]]
        flat = [w for g in groups for w in g]
        assert sorted(flat) == sorted(ring)

    def test_group_order_follows_key(self):
        groups = group_by([9, 1, 5], lambda x: x)
        assert groups == [[1], [5], [9]]


class TestTree:
    def test_root_has_no_parent(self):
        assert tree_parent(0) is None

    def test_parent_child_consistency(self):
        world = 23
        for node in range(world):
            for child in tree_children(node, world):
                assert tree_parent(child) == node
        # every non-root is someone's child exactly once
        seen = [c for n in range(world) for c in tree_children(n, world)]
        assert sorted(seen) == list(range(1, world))

    def test_arity_bounds_fanin(self):
        assert len(tree_children(0, 100, arity=2)) == 2
        assert len(tree_children(0, 100)) == DEFAULT_TREE_ARITY
        assert tree_children(0, 1) == []

    def test_bad_indices_raise(self):
        with pytest.raises(ValueError):
            tree_parent(-1)
        with pytest.raises(ValueError):
            tree_children(5, 3)


class TestRunWiring:
    def run(self, algorithm: str, n: int = 16, **overrides):
        cfg = timing_config(
            algorithm,
            num_workers=n,
            bandwidth_gbps=10,
            measure_iters=3,
            warmup_iters=1,
            **overrides,
        )
        return execute_run(cfg)

    @pytest.mark.parametrize("collective", ["ring", "tree", "hring"])
    def test_arsgd_collectives_run_and_are_deterministic(self, collective):
        a = self.run("ar-sgd", collective=collective)
        b = self.run("ar-sgd", collective=collective)
        assert a.throughput > 0
        assert to_jsonable(a) == to_jsonable(b)

    def test_collectives_differ_from_flat_ring(self):
        """tree/hring schedule different traffic, so the simulated
        timing must differ from the flat ring (they are not aliases)."""
        ring = self.run("ar-sgd", collective="ring").throughput
        tree = self.run("ar-sgd", collective="tree").throughput
        hring = self.run("ar-sgd", collective="hring").throughput
        assert tree != ring
        assert hring != ring

    def test_explicit_ring_matches_default(self):
        default = self.run("ar-sgd")
        explicit = self.run("ar-sgd", collective="ring")
        assert to_jsonable(default) == to_jsonable(explicit)

    def test_bsp_ps_tree_runs(self):
        flat = self.run("bsp", ps_topology="flat")
        tree = self.run("bsp", ps_topology="tree")
        assert tree.throughput > 0
        assert to_jsonable(tree) != to_jsonable(flat)

    def test_hierarchical_schedules_rejected_on_wrong_algorithms(self):
        with pytest.raises(ValueError):
            timing_config("bsp", num_workers=8, collective="tree")
        with pytest.raises(ValueError):
            timing_config("asp", num_workers=8, ps_topology="tree")
        with pytest.raises(ValueError):
            timing_config("ar-sgd", num_workers=8, collective="butterfly")

    def test_config_validation_requires_known_ps_topology(self):
        with pytest.raises(ValueError):
            timing_config("bsp", num_workers=8, ps_topology="mesh")
