"""Full-mode runs on the CNNs: replicas start from one draw and are flat
vectors around one compute model, evaluation retains nothing, and the
seed-0 ledger cell still trains."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from repro.core.runner import DistributedRunner, RunConfig
from repro.data.synthetic import make_synthetic_images
from repro.experiments.config import MINI_DATASET, MINI_MODEL
from repro.nn import build_model
from repro.sim.cluster import paper_cluster


def conv_config(model_name: str, algorithm: str = "bsp", **overrides) -> RunConfig:
    """One ``conv_train`` ledger cell (benchmarks/ledger/workloads.py)."""
    defaults = dict(
        algorithm=algorithm,
        mode="full",
        cluster=paper_cluster(bandwidth_gbps=56.0, machines=2, gpus_per_machine=4),
        num_workers=8,
        batch_size=16,
        model_name=model_name,
        dataset_name="synthetic_images",
        dataset_kwargs={"num_samples": 2000},
        epochs=1.0,
        compute_time_override=0.05,
        seed=0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def arrays_held(module) -> list[np.ndarray]:
    """Every array a module's own attributes reference, tuples included."""
    held = []
    for value in vars(module).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                held.append(item)
    return held


class TestInitialParameters:
    def test_replicas_and_eval_model_equal_one_seeded_draw(self):
        cfg = conv_config("miniresnet", seed=4)
        runner = DistributedRunner(cfg)
        drawn = build_model("miniresnet", seed=4).get_flat_parameters()
        assert np.any(drawn != 0.0)
        for slot in runner.runtime.workers:
            assert np.array_equal(slot.comp.get_params(), drawn)
        assert np.array_equal(runner._model.get_flat_parameters(), drawn)
        assert np.array_equal(runner.runtime.init_params, drawn)

    def test_replicas_do_not_share_storage(self):
        """A replica is its own flat vectors; the compute model is the
        run's one, evaluation's too, and no replica's state (DESIGN §3)."""
        runner = DistributedRunner(conv_config("minivgg"))
        first, second = (slot.comp for slot in runner.runtime.workers[:2])
        before = second.get_params()
        first.set_params(np.zeros(first.params.size))
        assert np.all(first.get_params() == 0.0)
        assert np.array_equal(second.get_params(), before) and np.any(before != 0.0)
        assert not np.shares_memory(first.params, second.params)
        assert not np.shares_memory(first.velocity, second.velocity)
        assert {id(s.comp.model) for s in runner.runtime.workers} == {id(runner._model)}


class TestModelFitsDataset:
    """A model built for other samples than the dataset's is refused at
    build time, with the ``model_kwargs`` that fit; it used to die at
    its first batch with a layer's "expected 64 features, got 256"."""

    def test_image_size(self):
        cfg = conv_config("minivgg", dataset_kwargs={"num_samples": 2000, "hw": 16})
        with pytest.raises(ValueError) as error:
            DistributedRunner(cfg)
        message = str(error.value)
        assert "'minivgg' takes (3, 8, 8)" in message
        assert "'synthetic_images' has (3, 16, 16)" in message
        assert "model_kwargs={'input_hw': 16}" in message

    def test_image_size_as_told(self):
        cfg = conv_config(
            "minivgg",
            model_kwargs={"input_hw": 16},
            dataset_kwargs={"num_samples": 2000, "hw": 16},
            epochs=0.25,
        )
        history = DistributedRunner(cfg).run()
        assert len(history.test_accuracy) == 2 and history.total_iterations > 0

    def test_any_image_size_fits_a_model_that_pools_globally(self):
        cfg = conv_config("miniresnet", dataset_kwargs={"num_samples": 2000, "hw": 12})
        assert DistributedRunner(cfg)._model.input_shape == (3, None, None)

    def test_channels(self):
        cfg = conv_config("miniresnet", dataset_kwargs={"num_samples": 2000, "channels": 1})
        with pytest.raises(ValueError, match=r"takes \(3, None, None\).* has \(1, 8, 8\)") as error:
            DistributedRunner(cfg)
        assert "model_kwargs={'in_channels': 1}" in str(error.value)

    def test_classes_keeps_the_other_model_kwargs(self):
        cfg = conv_config(
            "minivgg",
            model_kwargs={"fc_width": 64},
            dataset_kwargs={"num_samples": 2000, "num_classes": 5},
        )
        with pytest.raises(ValueError, match="in 10 classes.* in 5 classes") as error:
            DistributedRunner(cfg)
        assert "model_kwargs={'fc_width': 64, 'num_classes': 5}" in str(error.value)

    def test_vectors_against_images_has_no_fix_to_name(self):
        cfg = conv_config("mlp")
        with pytest.raises(ValueError, match=r"'mlp' takes \(32,\).* has \(3, 8, 8\)") as error:
            DistributedRunner(cfg)
        assert "model_kwargs" not in str(error.value)


class TestMemoryScaling:
    @staticmethod
    def built_and_stepped(num_workers: int) -> int:
        """Bytes a built runner holds once every worker has computed a
        gradient (tracemalloc, relative to before the build)."""
        cluster = paper_cluster(bandwidth_gbps=56.0, machines=4, gpus_per_machine=4)
        cfg = conv_config("miniresnet", num_workers=num_workers, cluster=cluster)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            runner = DistributedRunner(cfg)
            for slot in runner.runtime.workers:
                slot.comp.gradient()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def test_an_extra_worker_costs_its_flat_vectors_not_a_model(self):
        """Parent: 2.249 MB per extra MiniResNet worker at batch 16
        (activations + patch matrices per replica); now 0.084 MB =
        params + velocity, 2 x 5 266 float64."""
        self.built_and_stepped(4)  # one-off imports and caches
        m4, m16 = self.built_and_stepped(4), self.built_and_stepped(16)
        assert (m16 - m4) / 12 <= 0.25e6, (m4, m16)


class TestEvaluationKeepsNothing:
    def test_no_layer_holds_more_than_its_parameters(self):
        runner = DistributedRunner(conv_config("miniresnet"))
        assert len(runner._test_data) == 400
        runner._evaluate(0.0)
        assert len(runner._history.test_accuracy) == 1
        for module in runner._model.modules():
            own = sum(p.size for p in module._parameters.values())
            for array in arrays_held(module):
                assert array.size <= max(own, module.num_parameters()), type(module).__name__

    def test_gradient_leaves_no_cache(self):
        """Each layer drops what its ``backward`` read as soon as it has
        read it, so the run's one compute model carries no activations
        from a ``gradient()`` into the events and evaluations after it.
        Parent: a full set (``stem._patches`` alone 9x the batch)."""
        configs = (
            conv_config("miniresnet"),
            conv_config("minivgg"),
            conv_config(**MINI_MODEL, **MINI_DATASET),  # the 64x64 MLP on spirals
        )
        for cfg in configs:
            comp = DistributedRunner(cfg).runtime.workers[0].comp
            comp.gradient()
            for module in comp.model.modules():
                for attribute in ("_patches", "_cache", "_mask", "_x", "_winner"):
                    held = getattr(module, attribute, None)
                    assert held is None, (cfg.model_name, type(module).__name__, attribute)
            with pytest.raises(RuntimeError, match="before forward"):
                comp.model.backward(np.ones((cfg.batch_size, comp.model.num_classes)))

    @staticmethod
    def evaluation_peak(hw: int, num_samples: int) -> int:
        """Transient bytes of one ``_evaluate`` (it must leave nothing)."""
        runner = DistributedRunner(
            conv_config("miniresnet", dataset_kwargs={"num_samples": num_samples, "hw": hw})
        )
        runner._evaluate(0.0)  # first call creates the history
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            runner._evaluate(0.5)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 1e6, "evaluation left arrays behind"
        return peak - before

    def test_evaluate_retains_no_memory(self):
        # Padded input, output and one gather block of a layer: 8.4 MB.
        # Parent: 22.3 MB, one layer's whole patch matrix (9x its
        # input) beside its neighbours.
        assert self.evaluation_peak(8, 2000) < 14e6

    def test_evaluate_on_16x16_images_peaks_under_50_megabytes(self):
        # 36.7 MB; parent 111.3 MB.
        assert self.evaluation_peak(16, 4000) < 50e6

    def test_build_keeps_no_dataset_copy(self):
        """The CI N=64 cell's data: ``_build`` lets the generated samples
        and the train split go once the test split and the shards
        exist, and the noise goes on in place. 2.0x the samples' bytes;
        parent 3.7x (23.0 MB)."""
        cfg = conv_config(
            "miniresnet",
            algorithm="ad-psgd",
            cluster=paper_cluster(bandwidth_gbps=56.0, machines=16, gpus_per_machine=4),
            num_workers=64,
            dataset_kwargs={"num_samples": 4000},
            epochs=0.1,
        )
        samples = make_synthetic_images(num_samples=4000).x.nbytes
        DistributedRunner(cfg)  # one-off imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            DistributedRunner(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * samples, (peak, samples)

    def test_memory_peak_does_not_grow_cell_over_cell(self):
        """With the cycle collector off: a finished cell's replicas and
        caches go by reference count before the next cell builds its
        own (DESIGN §10)."""
        cfg = conv_config("miniresnet", epochs=0.25)
        peaks = []
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(4):
                tracemalloc.reset_peak()
                DistributedRunner(cfg).run()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            gc.enable()
        # The first cell also pays one-off imports and caches.
        assert max(peaks[1:]) <= 1.1 * peaks[1], peaks


class TestNumericsPin:
    def test_seed0_bsp_minivgg_cell_trains(self):
        """The ``bsp/minivgg/n8`` cell of the ledger's ``conv_train``
        workload: its reference accuracy is 0.63 (reference.json), and
        the ledger accepts +-0.03."""
        history = DistributedRunner(conv_config("minivgg")).run()
        assert abs(history.final_test_accuracy - 0.63) <= 0.03
        losses = [loss for loss in history.train_loss if not math.isnan(loss)]
        assert len(losses) >= 2 and all(math.isfinite(loss) for loss in losses)
        assert losses[-1] < losses[0]
        assert history.final_test_accuracy > history.test_accuracy[0]
