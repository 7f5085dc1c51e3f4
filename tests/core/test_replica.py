"""A replica is two flat vectors around the run's one compute model
(DESIGN §3): sharing the model changes no number, evaluation and
restores read and reset replica state, never the model."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.runner import DistributedRunner, execute_run
from repro.core.worker import LocalComputation
from repro.data import BatchLoader, make_gaussian_blobs, make_synthetic_images
from repro.faults import checkpoint
from repro.faults.config import FaultConfig, FaultEvent
from repro.nn import SoftmaxCrossEntropy, build_model
from repro.robust.config import RobustConfig
from repro.robust.runtime import RobustRuntime

from tests.conftest import small_full_config

MODELS = {
    "mlp": (dict(in_features=6, hidden=(12,), num_classes=3), make_gaussian_blobs,
            dict(num_samples=96, num_classes=3, num_features=6)),
    "miniresnet": ({}, make_synthetic_images, dict(num_samples=96)),
    "minivgg": ({}, make_synthetic_images, dict(num_samples=96)),
}


def two_replicas(name: str, *, shared: bool) -> list[LocalComputation]:
    """Two replicas with different parameters and data, around one
    model or around one model each."""
    model_kwargs, make_data, data_kwargs = MODELS[name]
    models = [build_model(name, seed=0, **model_kwargs) for _ in range(1 if shared else 2)]
    comps = []
    for index in range(2):
        loader = BatchLoader(
            make_data(seed=10 + index, **data_kwargs), 8, rng=np.random.default_rng(index)
        )
        comp = LocalComputation(models[index % len(models)], loader, SoftmaxCrossEntropy())
        comp.set_params(build_model(name, seed=20 + index, **model_kwargs).get_flat_parameters())
        comps.append(comp)
    return comps


class TestSharedModelEquivalence:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_interleaved_replicas_match_private_models_call_by_call(self, name):
        shared, private = two_replicas(name, shared=True), two_replicas(name, shared=False)
        assert shared[0].model is shared[1].model
        assert private[0].model is not private[1].model

        def same_state():
            for ours, theirs in zip(shared, private):
                assert np.array_equal(ours.get_params(), theirs.get_params())
                assert ours.last_loss == theirs.last_loss or ours.last_loss != ours.last_loss
                assert ours.ema_loss == theirs.ema_loss or ours.ema_loss != ours.ema_loss

        for step in range(5):
            # Both gradients before either update, in alternating order:
            # a replica must not see the other's parameters or gradient.
            order = (0, 1) if step % 2 == 0 else (1, 0)
            grads = {}
            for index in order:
                grads[index] = shared[index].gradient(), private[index].gradient()
                assert np.array_equal(*grads[index])
                same_state()
            for index in reversed(order):
                for comp, grad in zip((shared[index], private[index]), grads[index]):
                    comp.apply_gradient(grad, 0.05)
                same_state()
            if step == 2:  # an AD-PSGD style merge lands between steps
                for pair in (shared, private):
                    pair[0].set_params(0.5 * (pair[0].get_params() + pair[1].get_params()))
                same_state()
        assert np.any(shared[0].get_params() != shared[1].get_params())
        assert np.any(shared[0].velocity != 0.0)

    def test_wrong_size_and_negative_rate_are_refused(self):
        comp = two_replicas("mlp", shared=True)[0]
        grad = comp.gradient()
        with pytest.raises(ValueError):
            comp.apply_gradient(grad[:-1], 0.1)
        with pytest.raises(ValueError):
            comp.apply_gradient(grad, -0.1)
        with pytest.raises(ValueError):
            comp.set_params(grad[:-1])


class TestGlobalParamsReadsReplicas:
    @pytest.mark.parametrize("algorithm", ["gosgd", "ad-psgd"])
    def test_average_is_the_fold_over_replica_state(self, algorithm):
        runner = DistributedRunner(small_full_config(algorithm, epochs=0.5))
        runner.run()
        replicas = [slot.comp.get_params() for slot in runner.runtime.workers]
        fold = replicas[0].copy()
        for params in replicas[1:]:
            fold += params
        fold /= len(replicas)
        average = runner.algorithm.global_params()
        assert np.array_equal(average, fold)
        # The replicas have diverged, so the average is none of them —
        # in particular not the one the shared model computed last. The
        # final evaluation loaded the average into that model.
        for params in replicas:
            assert np.any(average != params)
        assert np.array_equal(runner.runtime.workers[0].comp.model.get_flat_parameters(), average)


class TestWaitFreeAspReplies:
    def test_per_layer_replies_scatter_into_the_replica_without_a_copy(self, monkeypatch):
        """Each per-layer reply of wait-free ASP is written into the
        replica in place; applying replies copies no replica."""
        copies = []
        get_params = LocalComputation.get_params

        def counted(self):
            copies.append(self)
            return get_params(self)

        monkeypatch.setattr(LocalComputation, "get_params", counted)
        runner = DistributedRunner(
            small_full_config("asp", num_ps_shards=2, epochs=1.0, wait_free_bp=True)
        )
        assert len(runner.runtime.comm_plan.entries) > runner.runtime.sharding.num_shards
        # An ASP replica moves only by the replies folded into it.
        before = [slot.comp.params.copy() for slot in runner.runtime.workers]
        runner.run()
        assert copies == []
        assert all(
            np.any(slot.comp.params != start)
            for slot, start in zip(runner.runtime.workers, before)
        )


class TestVelocityReset:
    def test_crash_rejoin_restore_zeroes_momentum(self, monkeypatch):
        base = small_full_config("ad-psgd", epochs=4.0)
        t0 = execute_run(base).total_virtual_time
        event = FaultEvent(time=0.3 * t0, kind="crash", worker=3, rejoin_after=0.1 * t0)
        cfg = replace(
            base,
            faults=FaultConfig(
                events=(event,),
                heartbeat_interval=0.01 * t0,
                heartbeat_timeout=0.02 * t0,
                backoff_factor=1.0,
                max_suspect_rounds=0,
            ),
        )
        restored = []
        restore = checkpoint.restore_snapshot

        def checked_restore(rt, slot, snapshot):
            optimizer, moving = slot.comp.optimizer, bool(np.any(slot.comp.velocity != 0.0))
            restore(rt, slot, snapshot)
            assert slot.comp.optimizer is optimizer  # reset, not rebuilt
            assert np.all(slot.comp.velocity == 0.0)
            assert np.array_equal(slot.comp.get_params(), snapshot.params)
            restored.append((slot.wid, moving))

        monkeypatch.setattr("repro.faults.controller.restore_snapshot", checked_restore)
        result = execute_run(cfg)
        assert restored == [(3, True)]
        assert [r["worker"] for r in result.metadata["faults"]["rejoins"]] == [3]

    def test_guard_rollback_zeroes_momentum(self, monkeypatch):
        base = small_full_config("ssp", epochs=4.0)
        t0 = execute_run(base).total_virtual_time
        cfg = replace(
            base,
            faults=FaultConfig(events=(FaultEvent(time=0.3 * t0, kind="nan_inject", worker=3),)),
            robust=RobustConfig(
                aggregator="mean", guard=True, checkpoint_interval=10, quarantine_strikes=0
            ),
        )
        rolled_back = []
        rollback = RobustRuntime._rollback

        def checked_rollback(self):
            comps = [self.rt.workers[w].comp for w in self.rt.live_worker_ids()]
            moving = any(np.any(comp.velocity != 0.0) for comp in comps)
            rollback(self)
            for comp in comps:
                assert np.all(comp.velocity == 0.0)
                assert np.array_equal(comp.get_params(), self._good_params)
            rolled_back.append(moving)

        monkeypatch.setattr(RobustRuntime, "_rollback", checked_rollback)
        result = execute_run(cfg)
        assert result.metadata["robust"]["rollbacks"] == len(rolled_back) >= 1
        assert rolled_back[0]
