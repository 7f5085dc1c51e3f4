"""AD-PSGD's active/passive split cannot deadlock (paper §IV-C).

AD-PSGD averages parameters pairwise and *symmetrically*: the active
worker blocks until the passive worker replies. With arbitrary peers
that deadlocks (A waits on B waits on C waits on A); the fix the paper
adopts is to split workers into an active and a passive set and only
let an active worker exchange with a passive one. Orienting every
exchange in the direction of blocking, active → passive, then gives a
two-layer graph: nothing waits on an active worker and a passive worker
waits on nobody, so no wait cycle exists.

These tests check that argument on the split ``core/adpsgd.py``
actually builds — recorded from its ``spawn_workers`` at every world
size up to the paper's 24 and over the survivors after a crash.
"""

import pytest

from repro.core import adpsgd
from repro.core.adpsgd import ADPSGD
from repro.core.runner import DistributedRunner, execute_run
from repro.experiments.config import timing_config
from repro.faults.config import FaultConfig, FaultEvent


@pytest.fixture
def splits(monkeypatch):
    """Every split ``ADPSGD.spawn_workers`` builds, one per call:
    ``{"live": sorted wids, "active": {wid: its peers}, "passive": set}``."""
    calls = []
    spawn, active_comm, passive_comm = (
        ADPSGD.spawn_workers, adpsgd._active_comm, adpsgd._passive_comm
    )

    def recording_spawn(self, runtime, wids):
        calls.append({"live": sorted(wids), "active": {}, "passive": set()})
        spawn(self, runtime, wids)

    def recording_active(rt, slot, tokens, passive_ids):
        calls[-1]["active"][slot.wid] = list(passive_ids)
        return active_comm(rt, slot, tokens, passive_ids)

    def recording_passive(rt, slot):
        calls[-1]["passive"].add(slot.wid)
        return passive_comm(rt, slot)

    monkeypatch.setattr(ADPSGD, "spawn_workers", recording_spawn)
    monkeypatch.setattr(adpsgd, "_active_comm", recording_active)
    monkeypatch.setattr(adpsgd, "_passive_comm", recording_passive)
    return calls


def built_split(splits, world: int) -> dict:
    DistributedRunner(timing_config("ad-psgd", num_workers=world))
    return splits[-1]


def waits(split) -> set[tuple[int, int]]:
    """Edges ``(u, v)``: an exchange of worker ``u`` blocks on worker ``v``."""
    return {(a, p) for a, peers in split["active"].items() for p in peers}


def deadlock_free(split) -> bool:
    """The §IV-C argument: the roles are disjoint and every wait points
    from an active to a passive worker."""
    active, passive = set(split["active"]), split["passive"]
    return not active & passive and all(
        u in active and v in passive for u, v in waits(split)
    )


def acyclic(edges) -> bool:
    """No wait cycle, by repeatedly removing the workers nobody waits on."""
    edges = set(edges)
    nodes = {n for edge in edges for n in edge}
    while nodes:
        sources = nodes - {v for _, v in edges}
        if not sources:
            return False
        nodes -= sources
        edges = {(u, v) for u, v in edges if u not in sources}
    return True


class TestBipartiteSplit:
    def test_even_split(self, splits):
        split = built_split(splits, 8)
        assert sorted(split["active"]) == [0, 2, 4, 6]
        assert sorted(split["passive"]) == [1, 3, 5, 7]

    def test_odd_split(self, splits):
        split = built_split(splits, 5)
        assert len(split["active"]) == 3
        assert len(split["passive"]) == 2
        assert sorted([*split["active"], *split["passive"]]) == list(range(5))

    def test_single_worker(self, splits):
        """One worker runs plain sequential SGD: no exchange at all."""
        split = built_split(splits, 1)
        assert split["active"] == {} and split["passive"] == set()


class TestExchangeGraph:
    def test_complete_bipartite(self, splits):
        split = built_split(splits, 6)
        assert len(waits(split)) == 9  # 3 × 3

    def test_is_bipartite(self, splits):
        split = built_split(splits, 24)
        assert sorted([*split["active"], *split["passive"]]) == list(range(24))
        assert all(peers == sorted(split["passive"]) for peers in split["active"].values())

    def test_every_active_has_peers(self, splits):
        split = built_split(splits, 8)
        assert all(split["active"].values())


class TestDeadlockFreedom:
    @pytest.mark.parametrize("world", [2, 3, 8, 24])
    def test_paper_topology_is_deadlock_free(self, splits, world):
        split = built_split(splits, world)
        assert deadlock_free(split)
        assert acyclic(waits(split))

    def test_every_world_up_to_24_is_deadlock_free(self, splits):
        for world in range(1, 25):
            split = built_split(splits, world)
            assert deadlock_free(split) and acyclic(waits(split)), world

    def test_split_after_a_crash_is_deadlock_free(self, splits):
        t0 = execute_run(timing_config("ad-psgd", num_workers=8, measure_iters=4)).measured_time
        faults = FaultConfig(
            events=(FaultEvent(time=0.3 * t0, kind="crash", worker=2),),
            heartbeat_interval=0.01,
            heartbeat_timeout=0.02,
            backoff_factor=1.0,
            max_suspect_rounds=0,
        )
        splits.clear()
        execute_run(timing_config("ad-psgd", num_workers=8, measure_iters=4, faults=faults))
        assert len(splits) == 2  # the initial split, then the survivors'
        survivors = splits[1]
        assert survivors["live"] == [0, 1, 3, 4, 5, 6, 7]
        assert sorted([*survivors["active"], *survivors["passive"]]) == survivors["live"]
        assert deadlock_free(survivors) and acyclic(waits(survivors))

    def test_intra_class_edge_detected(self, splits):
        """The three-worker cycle from §IV-C: A→B→C→A requires an edge
        inside one role class, which the check rejects."""
        split = built_split(splits, 4)  # active 0, 2; passive 1, 3
        active_active = {**split["active"], 0: [*split["active"][0], 2], 2: [0]}
        assert not deadlock_free({**split, "active": active_active})
        assert not acyclic(waits({**split, "active": active_active}))
        passive_waits = {**split["active"], 3: [1]}  # a passive worker that waits
        assert not deadlock_free({**split, "active": passive_waits})

    def test_mislabeled_nodes_detected(self, splits):
        split = built_split(splits, 4)
        stray_peer = {**split["active"], 0: [*split["active"][0], 9]}  # in neither class
        assert not deadlock_free({**split, "active": stray_peer})
        assert not deadlock_free({**split, "passive": split["passive"] | {0}})  # in both
