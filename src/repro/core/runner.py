"""Run orchestration: builds the cluster, workers, and algorithm, runs
the event engine, and collects results.

Two execution modes (DESIGN.md §3):

* ``full`` — semantics + timing: real numpy gradients on synthetic
  data, asynchrony arising causally from the simulated schedule.
  Produces a :class:`~repro.core.history.TrainingHistory`
  (Table II/III/IV, Fig 1).
* ``timing`` — identical control flow, no math: gradient payloads are
  ``None`` and models are full-size ResNet-50/VGG-16 layer profiles.
  Produces a :class:`~repro.core.history.ThroughputResult`
  (Fig 2/3/4).
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.comm.endpoints import CommContext, Node, last_per_port
from repro.comm.ps import PSShard, place_shards
from repro.core.config import PROFILES, DGCConfig, RunConfig
from repro.core.history import ThroughputResult, TrainingHistory
from repro.core.worker import LocalComputation, WorkerSlot
from repro.nn.optim import weight_decay_mask
from repro.nn.schedules import WarmupStepSchedule, scaled_learning_rate
from repro.nn.zoo import ModelProfile, mini_profile_from_model
from repro.optimizations.sharding import ShardingPlan, make_sharding_plan
from repro.optimizations.waitfree import CommPlan, make_comm_plan
from repro.sim.costmodel import ComputeModel
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.trace import PhaseTracer, normalize_breakdown

# A timing run executes none of these (DESIGN §10): the full-mode,
# observer and DGC modules are imported in the branch that uses them.
if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import TrainingAlgorithm
    from repro.data.synthetic import Dataset
    from repro.nn.module import Module
    from repro.nn.schedules import LRSchedule
    from repro.obs.config import ObsConfig

# RunConfig is defined in core/config.py and still importable from here.
__all__ = [
    "RunConfig",
    "SampleClock",
    "Runtime",
    "DistributedRunner",
    "execute_run",
    "timing_profile",
    "timing_plans",
    "compute_model",
]

#: Test samples per evaluation forward pass. Part of the result, not a
#: tuning value: batch-norm models evaluate with batch statistics, so a
#: different chunk is a different accuracy.
EVAL_CHUNK = 512


@lru_cache(maxsize=None)
def timing_profile(profile_name: str) -> ModelProfile:
    """The one full-size profile object per model name."""
    return PROFILES[profile_name]()


@lru_cache(maxsize=64)
def timing_plans(
    profile_name: str, num_shards: int, strategy: str, wait_free: bool
) -> tuple[ModelProfile, ShardingPlan, CommPlan]:
    """The interned ``(profile, sharding plan, comm plan)`` of a timing run.

    All three are frozen dataclasses and pure functions of the key, so
    every run and every analytic prediction with equal keys shares the
    same objects instead of rebuilding the full-size profile and its
    plans — and the engine's and the predictor's inputs cannot drift
    apart: there is one constructor.
    """
    profile = timing_profile(profile_name)
    sharding = make_sharding_plan(profile, num_shards, strategy=strategy)
    return profile, sharding, make_comm_plan(profile, sharding, wait_free=wait_free)


def compute_model(cfg: RunConfig, profile: ModelProfile) -> ComputeModel:
    """The run's compute-time model: persistent worker speeds from a
    stream of their own and the base iteration time of ``profile`` on
    the cluster's GPU. The runner and the analytic predictor both build
    it here, so they see the same draws."""
    return ComputeModel(
        profile,
        cfg.batch_size,
        cfg.cluster.machine.gpu,
        cfg.num_workers,
        speed_spread=cfg.speed_spread,
        jitter_sigma=cfg.jitter_sigma,
        seed=cfg.seed + 3,
        base_time_override=cfg.compute_time_override,
    )


def execute_run(
    config: RunConfig, *, max_events: int = 50_000_000
) -> TrainingHistory | ThroughputResult:
    """Build and execute one run from its config.

    Module-level (picklable) so process pools — the sweep executor's
    workers — can ship a bare :class:`RunConfig` to a child process.
    """
    return DistributedRunner(config).run(max_events=max_events)


class SampleClock:
    """Global progress clock: samples processed → fractional epoch.

    One "epoch" is one pass of the whole dataset *collectively* — the
    convention under which the paper trains every algorithm "for 90
    epochs" regardless of how iterations distribute across workers.
    """

    def __init__(self, dataset_size: int, batch_size: int) -> None:
        if dataset_size <= 0 or batch_size <= 0:
            raise ValueError("dataset_size and batch_size must be positive")
        self.dataset_size = dataset_size
        self.batch_size = batch_size
        self.total_samples = 0
        self.total_iterations = 0

    def on_batch(self) -> None:
        self.total_samples += self.batch_size
        self.total_iterations += 1

    def epoch(self) -> float:
        return self.total_samples / self.dataset_size


class Runtime:
    """Everything an algorithm's processes need, in one place."""

    def __init__(
        self,
        *,
        config: RunConfig,
        engine: Engine,
        ctx: CommContext,
        profile: ModelProfile,
        compute_model: ComputeModel,
        sharding: ShardingPlan,
        comm_plan: CommPlan,
        schedule: LRSchedule,
        sample_clock: SampleClock,
        dgc_config: DGCConfig | None,
        init_params: np.ndarray | None,
        decay_mask: np.ndarray | None,
    ) -> None:
        self.config = config
        self.engine = engine
        self.ctx = ctx
        self.obs = ctx.observer
        # The observer's bound recorder methods, or None on an unobserved
        # run: the algorithm hot paths pay one null check.
        obs = ctx.observer
        self.obs_grad_bytes = obs.grad_bytes if obs is not None else None
        self.obs_iteration_sample = obs.iteration_sample if obs is not None else None
        self.obs_ps_inbox_sample = obs.ps_inbox_sample if obs is not None else None
        self.obs_staleness_sample = obs.staleness_sample if obs is not None else None
        self.cluster = config.cluster
        self.mode = config.mode
        self.profile = profile
        self.compute_model = compute_model
        self.sharding = sharding
        self.comm_plan = comm_plan
        self.schedule = schedule
        self.sample_clock = sample_clock
        self.dgc_config = dgc_config
        self.init_params = init_params
        self.decay_mask = decay_mask
        self.tracer = ctx.tracer
        self.workers: list[WorkerSlot] = []
        self.ps_nodes: list[PSShard] = []
        self.nodes_by_id: dict[int, Node] = {}
        self.stopping = False
        self.total_elements = profile.total_params
        self._iteration_callback = None
        self._next_node_id = 0
        # Fault controller; stays None on the fault-free path so every
        # failure-awareness hook is a single `is not None` check.
        self.faults = None
        # Robust-aggregation layer; same discipline (None = unprotected).
        self.robust = None
        # Machine -> plan indices a blocking sender there waits on.
        self._port_tails: dict[int, frozenset[int]] = {}

    # -- node management --------------------------------------------------
    def allocate_node_id(self) -> int:
        nid = self._next_node_id
        self._next_node_id += 1
        return nid

    def spawn(self, gen: Any, name: str = "", owner: int | None = None):
        """Spawn an algorithm process.

        All protocol processes (workers, shard serve lanes, helper
        subprocesses) go through here so that, when fault injection is
        on, the controller can kill them on crashes and membership
        changes. ``owner`` is the worker id a crash takes down with it;
        shard lanes pass None (they die only on membership changes). A
        crashed worker stays down until its rejoin: nothing it would own
        is started (None is returned), whatever membership change asks.
        """
        if self.faults is not None and owner in self.faults.dead:
            return None
        process = self.engine.spawn(gen, name)
        if self.faults is not None:
            self.faults.register(process, owner)
        return process

    def live_worker_ids(self) -> list[int]:
        """Worker ids currently in the cluster membership."""
        if self.faults is not None:
            return self.faults.membership.live_sorted()
        return list(range(self.config.num_workers))

    def spawn_shard_lanes(self, shard: PSShard) -> None:
        """(Re)spawn a shard's serve loops."""
        for lane in range(max(1, shard.serve_concurrency)):
            self.spawn(shard.serve(), name=f"{shard.name}.t{lane}")

    def create_ps_shards(self, shard_cls: type[PSShard], **kwargs: Any) -> list[PSShard]:
        """Instantiate one shard node per sharding-plan shard and spawn
        its serve loop. ``shard_cls`` is the algorithm's subclass."""
        placement = place_shards(self.sharding.num_shards, self.cluster.machines)
        shard_kwargs = dict(
            momentum=self.config.momentum, weight_decay=self.config.weight_decay
        )
        shard_kwargs.update(kwargs)
        shards: list[PSShard] = []
        for assignment, machine in zip(self.sharding.shards, placement):
            shard = shard_cls(
                self.ctx,
                self.allocate_node_id(),
                machine,
                self,
                assignment,
                init_params=self.init_params,
                decay_mask=self.decay_mask,
                **shard_kwargs,
            )
            shards.append(shard)
            self.nodes_by_id[shard.node_id] = shard
            self.spawn_shard_lanes(shard)
        # Every plan shard owns an element, so each receives gradients
        # and replies: a PS pull waits on all of them.
        self.ps_nodes = shards
        return shards

    # -- comm-plan geometry -------------------------------------------------
    def port_tails(self, machine: int) -> frozenset[int]:
        """Plan indices a blocking sender on ``machine`` waits on: the
        last entry through each of its ports (DESIGN §8)."""
        tails = self._port_tails.get(machine)
        if tails is None:
            tails = self._port_tails[machine] = last_per_port(
                machine,
                [self.ps_nodes[entry.shard_id].machine for entry in self.comm_plan.entries],
            )
        return tails

    # -- progress ------------------------------------------------------------
    def lr(self) -> float:
        """Scaled learning rate (η = base·N with warm-up/decay, the
        linear-scaling rule of Goyal et al.): BSP's PS step and the
        local steps of EASGD, GoSGD and AD-PSGD (DESIGN §8)."""
        return self.schedule(self.sample_clock.epoch())

    def lr_at_round(self, round_index: int) -> float:
        """Scaled learning rate as a function of the synchronous round
        index. AR-SGD replicas must all use the *same* lr per round —
        reading the live sample clock would let replicas observe
        different epochs mid-round and silently diverge."""
        epoch = (
            round_index
            * self.config.num_workers
            * self.config.batch_size
            / self.sample_clock.dataset_size
        )
        return self.schedule(epoch)

    def lr_local(self) -> float:
        """Per-gradient learning rate: the schedule divided by N (same
        warm-up/decay shape). SSP's local step reads it, and the ASP/SSP
        PS folds through :meth:`fold_lr`; the local steps of EASGD,
        GoSGD and AD-PSGD read :meth:`lr` (DESIGN §8)."""
        return self.schedule(self.sample_clock.epoch()) / self.config.num_workers

    def fold_lr(self) -> float:
        """Learning rate for *asynchronous per-gradient folds* at the PS
        (ASP/SSP).

        These folds run momentum-free: a server-side momentum buffer
        driven by stale, interleaved gradient streams resonates and
        diverges (staleness effectively doubles the momentum horizon).
        To keep the effective step magnitude of momentum SGD, the rate
        is compensated by the momentum sum 1/(1-mu). With DGC the
        compensation is already embedded in the compressed values
        (momentum correction happens in the worker compressor), so the
        plain per-gradient rate applies.
        """
        if self.dgc_config is not None:
            return self.lr_local()
        return self.lr_local() / (1.0 - self.config.momentum)

    def on_iteration(self, slot: WorkerSlot) -> None:
        """Called by every worker after each training iteration."""
        slot.iterations += 1
        self.sample_clock.on_batch()
        if self.obs_iteration_sample is not None:
            self.obs_iteration_sample(
                slot.wid, self.engine.now, self.sample_clock.total_iterations
            )
        if self.robust is not None:
            self.robust.on_iteration(slot)
        if self._iteration_callback is not None:
            self._iteration_callback(slot)


class DistributedRunner:
    """Builds and executes one run."""

    def __init__(
        self,
        config: RunConfig,
        algorithm: "TrainingAlgorithm | None" = None,
        *,
        obs: ObsConfig | None = None,
    ) -> None:
        from repro.core.base import make_algorithm  # local import, avoids cycle

        self.config = config
        self.algorithm = algorithm or make_algorithm(
            config.algorithm, **config.algorithm_params
        )
        self._validate_optimizations()
        # Observability is an execution-context option, not a RunConfig
        # field: it never changes the schedule or the results, so it
        # stays out of the sweep cache's fingerprint.
        self.observer = None
        if obs is not None and obs.enabled:
            from repro.obs.recorder import RunObserver

            self.observer = RunObserver()
        self.engine = Engine(observer=self.observer)
        # An observed run collects phase spans (the trace's backbone)
        # into the observer's list; result objects still honour
        # config.trace. A plain run keeps only the tracer's totals.
        observed = self.observer is not None
        tracer = PhaseTracer(
            enabled=config.trace or observed,
            spans=self.observer.spans if observed else None,
        )
        self.network = Network(self.engine, config.cluster, observer=self.observer)
        self.ctx = CommContext(
            engine=self.engine,
            network=self.network,
            cluster=config.cluster,
            comm_model=config.comm_model,
            tracer=tracer,
            observer=self.observer,
        )
        self._model: Module | None = None
        self._test_data: Dataset | None = None
        self._history: TrainingHistory | None = None
        self._next_eval_epoch = 0.0
        self._measure_t0: float | None = None
        self._measure_images0 = 0
        self._measured: tuple[float, int] | None = None
        self._build()

    # -- construction ---------------------------------------------------
    def _validate_optimizations(self) -> None:
        info = self.algorithm.info
        cfg = self.config
        if cfg.num_ps_shards > 1 and not info.supports_sharding:
            raise ValueError(
                f"{info.name} is decentralized; parameter sharding does not apply"
            )
        if cfg.wait_free_bp and not info.supports_waitfree_bp:
            raise ValueError(f"{info.name} sends parameters; wait-free BP does not apply")
        if cfg.dgc and not info.supports_dgc:
            raise ValueError(f"{info.name} sends parameters; DGC does not apply")

    def _refuse_misfit(self, model: Module, dataset: Dataset) -> None:
        """Fail the build when the model was not built for the dataset's
        samples; left alone, the run dies at its first batch inside a
        layer ("expected 64 features, got 256")."""
        from repro.nn.models import arguments_to_fit

        cfg = self.config
        sample_shape = dataset.x.shape[1:]
        lacking = arguments_to_fit(model, sample_shape, dataset.num_classes)
        if lacking is None:
            return
        fix = f": build it with model_kwargs={cfg.model_kwargs | lacking}" if lacking else ""
        raise ValueError(
            f"model {cfg.model_name!r} takes {model.input_shape} samples in "
            f"{model.num_classes} classes, dataset {cfg.dataset_name!r} has "
            f"{sample_shape} samples in {dataset.num_classes} classes{fix}"
        )

    def _build(self) -> None:
        cfg = self.config
        full = cfg.mode == "full"
        num_shards = cfg.num_ps_shards if self.algorithm.info.centralized else 1

        init_params: np.ndarray | None = None
        decay_mask: np.ndarray | None = None
        if full:
            from repro.data import synthetic
            from repro.data.loader import BatchLoader
            from repro.data.partition import partition_dataset
            from repro.nn.losses import SoftmaxCrossEntropy
            from repro.nn.models import build_model

            make_dataset = getattr(synthetic, f"make_{cfg.dataset_name}")
            dataset = make_dataset(seed=cfg.seed, **cfg.dataset_kwargs)
            split_rng = np.random.default_rng(cfg.seed + 1)
            train, test = dataset.split(cfg.test_fraction, rng=split_rng)
            self._test_data = test
            shards = partition_dataset(
                train,
                cfg.num_workers,
                rng=np.random.default_rng(cfg.seed + 2),
                drop_remainder=True,
            )
            # One compute model per run: a replica is the flat vectors
            # on its LocalComputation, each a copy of this seeded draw,
            # and evaluation loads the global parameters into it too
            # (DESIGN §3).
            model = build_model(cfg.model_name, seed=cfg.seed, **cfg.model_kwargs)
            self._refuse_misfit(model, dataset)
            self._model = model
            init_params = model.get_flat_parameters()
            decay_mask = weight_decay_mask(model)
            profile = mini_profile_from_model(model, name=cfg.model_name)
            dataset_size = sum(len(s) for s in shards)
            sharding = make_sharding_plan(
                profile, num_shards, strategy=cfg.sharding_strategy
            )
            comm_plan = make_comm_plan(profile, sharding, wait_free=cfg.wait_free_bp)
        else:
            profile, sharding, comm_plan = timing_plans(
                cfg.profile_name, num_shards, cfg.sharding_strategy, cfg.wait_free_bp
            )
            # One collective "round" of batches counts as an epoch for
            # the progress clock (drives only DGC warm-up here).
            dataset_size = cfg.batch_size * cfg.num_workers

        compute = compute_model(cfg, profile)
        if self.observer is not None:
            record_draw = self.observer.compute_draw
            engine = self.engine
            compute.on_draw = lambda worker, duration: record_draw(
                worker, engine.now, duration
            )
        schedule = WarmupStepSchedule(
            scaled_learning_rate(cfg.base_lr, cfg.num_workers),
            warmup_epochs=cfg.warmup_fraction * cfg.epochs,
            milestones=[f * cfg.epochs for f in cfg.milestone_fractions],
            warmup_start_fraction=1.0 / cfg.num_workers,
        )
        sample_clock = SampleClock(dataset_size, cfg.batch_size)
        dgc_config = None
        if cfg.dgc:
            from repro.optimizations.dgc import DGCCompressor

            dgc_config = cfg.dgc_config or DGCConfig(
                num_workers=cfg.num_workers,
                warmup_epochs=min(4.0, cfg.epochs * 4.0 / 90.0) if full else 0.0,
            )

        self.runtime = Runtime(
            config=cfg,
            engine=self.engine,
            ctx=self.ctx,
            profile=profile,
            compute_model=compute,
            sharding=sharding,
            comm_plan=comm_plan,
            schedule=schedule,
            sample_clock=sample_clock,
            dgc_config=dgc_config,
            init_params=init_params,
            decay_mask=decay_mask,
        )

        # Worker slots.
        for wid in range(cfg.num_workers):
            machine = cfg.cluster.machine_of_worker(wid)
            node = Node(self.ctx, self.runtime.allocate_node_id(), machine, name=f"w{wid}")
            self.runtime.nodes_by_id[node.node_id] = node
            comp = None
            if full:
                loader = BatchLoader(
                    shards[wid],
                    cfg.batch_size,
                    rng=np.random.default_rng(cfg.seed * 1000 + 17 + wid),
                )
                comp = LocalComputation(
                    model,
                    loader,
                    SoftmaxCrossEntropy(),
                    momentum=cfg.momentum,
                    weight_decay=cfg.weight_decay,
                    decay_mask=decay_mask,
                )
            dgc = None
            if dgc_config is not None:
                dgc = DGCCompressor(profile.total_params, dgc_config)
            self.runtime.workers.append(
                WorkerSlot(
                    wid=wid,
                    machine=machine,
                    node=node,
                    comp=comp,
                    rng=np.random.default_rng(cfg.seed * 1000 + 7919 + wid),
                    dgc=dgc,
                )
            )

        self.runtime._iteration_callback = (
            self._on_iteration_full if full else self._on_iteration_timing
        )
        # The fault controller must exist before setup so the processes
        # the algorithm spawns get registered for kill delivery.
        self.fault_controller = None
        if cfg.faults is not None:
            from repro.faults.controller import FaultController

            self.fault_controller = FaultController(
                self.runtime, self.algorithm, cfg.faults
            )
            self.runtime.faults = weakref.proxy(self.fault_controller)
        self.robust_runtime = None
        if cfg.robust is not None:
            from repro.robust.runtime import RobustRuntime

            self.robust_runtime = RobustRuntime(
                self.runtime, self.algorithm, cfg.robust
            )
            self.runtime.robust = weakref.proxy(self.robust_runtime)
        self.algorithm.setup(self.runtime)
        if self.fault_controller is not None:
            self.fault_controller.start()

    # -- progress callbacks ------------------------------------------------
    def _on_iteration_full(self, slot: WorkerSlot) -> None:
        cfg = self.config
        epoch = self.runtime.sample_clock.epoch()
        if epoch + 1e-12 >= self._next_eval_epoch:
            self._evaluate(epoch)
            self._next_eval_epoch += cfg.eval_every_epochs
        if epoch >= cfg.epochs and not self.runtime.stopping:
            # Graceful stop: raise the flag and let the event queue
            # drain. Every process exits at its loop head, so
            # synchronous algorithms finish their in-flight round and
            # workers end in a consistent state.
            self.runtime.stopping = True

    def _on_iteration_timing(self, slot: WorkerSlot) -> None:
        cfg = self.config
        clock = self.runtime.sample_clock
        warm_total = cfg.warmup_iters * cfg.num_workers
        end_total = warm_total + cfg.measure_iters * cfg.num_workers
        if self._measure_t0 is None and clock.total_iterations >= warm_total:
            self._measure_t0 = self.engine.now
            self._measure_images0 = clock.total_samples
        if clock.total_iterations >= end_total and not self.runtime.stopping:
            assert self._measure_t0 is not None
            self._measured = (
                self.engine.now - self._measure_t0,
                clock.total_samples - self._measure_images0,
            )
            self.runtime.stopping = True

    # -- evaluation ----------------------------------------------------------
    def _evaluate(self, epoch: float) -> None:
        assert self._model is not None and self._test_data is not None
        params = self.algorithm.global_params()
        if params is None:
            return
        if self._history is None:
            self._history = TrainingHistory(
                algorithm=self.algorithm.describe(), num_workers=self.config.num_workers
            )
        self._model.set_flat_parameters(params)
        # Batch-norm models evaluate with the statistics of each EVAL_CHUNK.
        correct = 0
        x, y = self._test_data.x, self._test_data.y
        for start in range(0, len(self._test_data), EVAL_CHUNK):
            out = self._model.predict(x[start : start + EVAL_CHUNK])
            correct += int((out.argmax(axis=1) == y[start : start + EVAL_CHUNK]).sum())
        accuracy = correct / len(self._test_data)
        losses = [
            w.comp.ema_loss
            for w in self.runtime.workers
            if w.comp is not None and w.comp.ema_loss == w.comp.ema_loss
        ]
        train_loss = float(np.mean(losses)) if losses else float("nan")
        self._history.record(
            epoch=epoch, time=self.engine.now, test_accuracy=accuracy, train_loss=train_loss
        )

    # -- execution -------------------------------------------------------------
    def run(self, *, max_events: int = 50_000_000) -> TrainingHistory | ThroughputResult:
        """Run to completion, assemble the result, release the run."""
        try:
            return self._run(max_events)
        finally:
            self._release()

    def _release(self) -> None:
        """Drop what the finished (or failed) run built and nobody reads
        again, so that dropping the runner frees replicas, mailboxes
        and spans by reference count alone (DESIGN §10).

        Worker and shard state, buffered mailbox items, port statistics,
        engine counters, the observer and the fault/robust summaries
        stay readable.
        """
        self.engine.release()
        self.runtime._iteration_callback = None
        for node in self.runtime.nodes_by_id.values():
            node.drop_receivers()

    def _run(self, max_events: int) -> TrainingHistory | ThroughputResult:
        horizon = (
            self.config.faults.max_virtual_time
            if self.config.faults is not None
            else None
        )
        self.engine.run(until=horizon, max_events=max_events)
        if self.observer is not None:
            self.observer.finalize(engine=self.engine, runtime=self.runtime)
        metadata = self._result_metadata()
        if self.config.mode == "full":
            if self.fault_controller is None and not self.runtime.stopping:
                # Fault-free, the run stops only by raising the flag;
                # a queue that drained first means every process
                # blocked on a message nobody will send.
                raise RuntimeError(
                    f"full run drained at epoch {self.runtime.sample_clock.epoch():.3f} "
                    f"of {self.config.epochs}: every process is blocked"
                )
            # Final evaluation at the stop point.
            self._evaluate(self.runtime.sample_clock.epoch())
            assert self._history is not None
            self._history.total_iterations = self.runtime.sample_clock.total_iterations
            self._history.total_virtual_time = self.engine.now
            self._history.metadata.update(metadata)
            return self._history
        if self._measured is None:
            detail = ""
            if self.fault_controller is not None:
                detail = (
                    " (fault injection active: the cluster may not have "
                    "survived the schedule, or max_virtual_time was reached)"
                )
            raise RuntimeError(
                "timing run ended before the measurement window completed" + detail
            )
        duration, images = self._measured
        result = ThroughputResult(
            algorithm=self.algorithm.describe(),
            num_workers=self.config.num_workers,
            model=self.config.profile_name,
            bandwidth_gbps=self.config.cluster.network_bandwidth_gbps,
            iterations_per_worker=self.config.measure_iters,
            batch_size=self.config.batch_size,
            measured_time=duration,
            measured_images=images,
            breakdown=normalize_breakdown(self.ctx.tracer.breakdown()) if self.config.trace else {},
        )
        result.metadata.update(metadata)
        return result

    def _result_metadata(self) -> dict[str, Any]:
        """What every result reports beside its measurements: network
        totals; how far apart the workers' iteration counts ended (an
        asynchronous run spreads them); over the workers that pulled or
        exchanged at least once, the fewest and most aggregations per
        iteration; and the fault and robust summaries of runs that
        have those layers."""
        workers = self.runtime.workers
        iterations = [slot.iterations for slot in workers]
        metadata: dict[str, Any] = {
            "total_network_bytes": self.network.total_bytes,
            "total_messages": self.network.total_messages,
            "worker_iterations": {"min": min(iterations), "max": max(iterations)},
        }
        rates = [slot.aggregations / slot.iterations for slot in workers if slot.aggregations]
        if rates:
            metadata["aggregations"] = {"min": min(rates), "max": max(rates)}
        if self.fault_controller is not None:
            metadata["faults"] = self.fault_controller.summary()
        if self.robust_runtime is not None:
            metadata["robust"] = self.robust_runtime.summary()
        return metadata
