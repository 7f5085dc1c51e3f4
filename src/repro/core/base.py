"""Algorithm interface and registry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.ps import PSShard
    from repro.core.runner import Runtime
    from repro.core.worker import WorkerSlot

__all__ = [
    "AlgorithmInfo",
    "TrainingAlgorithm",
    "WorkerFactory",
    "ALGORITHMS",
    "register_algorithm",
    "make_algorithm",
    "is_centralized",
]


WorkerFactory = Callable[["WorkerSlot"], Generator[Any, Any, None]]


@dataclass(frozen=True)
class AlgorithmInfo:
    """Static classification of an algorithm (Table I columns)."""

    name: str
    centralized: bool
    synchronous: bool
    sends_gradients: bool  # True → wait-free BP and DGC are applicable
    hyperparameters: tuple[str, ...] = ()

    @property
    def supports_sharding(self) -> bool:
        # Parameter sharding applies to the PS-based algorithms (§V-A).
        return self.centralized

    @property
    def supports_waitfree_bp(self) -> bool:
        # Wait-free BP applies to gradient-sending algorithms (§V-B).
        return self.sends_gradients

    @property
    def supports_dgc(self) -> bool:
        # DGC applies to gradient-communicating algorithms (§V-C).
        return self.sends_gradients


class TrainingAlgorithm:
    """Base class: an algorithm wires worker/server processes into a
    :class:`~repro.core.runner.Runtime` and exposes the consensus
    ("global") parameters for evaluation.

    An algorithm that runs one process per worker states only what is
    its own — :attr:`shard_class` if it has a PS, and
    :meth:`worker_factory` — and inherits the lifecycle. One whose
    process set has more structure (BSP's leaders, peers and rack
    aggregators; AD-PSGD's compute/comm pairs) overrides
    :meth:`spawn_workers` instead.
    """

    info: AlgorithmInfo
    #: PS-based algorithms: the :class:`~repro.comm.ps.PSShard` subclass
    #: :meth:`setup` instantiates, and its constructor overrides.
    shard_class: "type[PSShard] | None" = None
    shard_kwargs: dict[str, Any] = {}

    def __init__(self, **hyperparams: Any) -> None:
        unknown = set(hyperparams) - set(self.info.hyperparameters)
        if unknown:
            raise TypeError(
                f"{self.info.name} got unknown hyperparameters {sorted(unknown)}; "
                f"accepts {list(self.info.hyperparameters)}"
            )
        self.hyperparams = dict(hyperparams)
        self.runtime: "Runtime | None" = None

    # -- lifecycle -----------------------------------------------------
    def setup(self, runtime: "Runtime") -> None:
        """Create the PS shards (if any) and spawn the workers."""
        self.runtime = runtime
        if self.shard_class is not None:
            runtime.create_ps_shards(self.shard_class, **self.shard_kwargs)
        self.spawn_workers(runtime, runtime.live_worker_ids())

    def spawn_workers(self, runtime: "Runtime", wids: list[int]) -> None:
        """Spawn (or respawn) the worker processes for ``wids``.

        Called by :meth:`setup` with the full worker set and by
        :meth:`on_membership_change` with the survivors. Every process
        goes through ``runtime.spawn(..., owner=wid)`` so a crash can
        find the processes it takes down. The default spawns one
        ``<name>-w<wid>`` process per worker, in wid order, from
        :meth:`worker_factory`.
        """
        live = sorted(wids)
        make_worker = self.worker_factory(runtime, live)
        prefix = self.info.name.lower().replace("-", "")
        for wid in live:
            runtime.spawn(
                make_worker(runtime.workers[wid]), name=f"{prefix}-w{wid}", owner=wid
            )

    def worker_factory(self, runtime: "Runtime", wids: list[int]) -> WorkerFactory:
        """``slot -> generator`` for the worker processes of one
        (re)spawn over the sorted live set ``wids``.

        Called once per (re)spawn: derive any geometry (ring order,
        groups, peer lists) from ``wids`` here, never from
        ``config.num_workers`` — that is what makes the protocol restart
        cleanly over the survivors after a crash.
        """
        raise NotImplementedError

    def on_membership_change(self, runtime: "Runtime") -> None:
        """Restart the protocol over the new live worker set.

        Invoked by the fault controller after it has bumped the comm
        epoch, killed every registered process, and flushed mailboxes.
        The default reconciles each PS shard with the survivors,
        respawns the shard serve lanes, and respawns the live workers;
        overrides add algorithm-specific state repair (ring rebuild,
        gossip-weight renormalisation, clock resets) before delegating
        here.
        """
        live = runtime.live_worker_ids()
        for shard in runtime.ps_nodes:
            shard.on_membership_change(live)
            runtime.spawn_shard_lanes(shard)
        self.spawn_workers(runtime, live)

    def global_params(self) -> np.ndarray | None:
        """Consensus parameters used for evaluation.

        Centralized algorithms return the PS global parameters;
        decentralized ones return the average of all workers' local
        parameters (the conventional implicit global model, §IV).
        AR-SGD's replicas are identical between rounds, so for it the
        average is exact. Timing-only mode returns ``None``.
        """
        if self.info.centralized:
            return self._ps_global_params()
        return self._average_worker_params()

    def describe(self) -> str:
        hp = ", ".join(f"{k}={v}" for k, v in sorted(self.hyperparams.items()))
        return f"{self.info.name}({hp})" if hp else self.info.name

    # -- shared helpers -------------------------------------------------
    def _ps_global_params(self) -> np.ndarray | None:
        """Assemble the PS shards' slices into the full global vector."""
        assert self.runtime is not None
        if self.runtime.mode != "full":
            return None
        flat = np.zeros(self.runtime.total_elements, dtype=np.float64)
        for shard in self.runtime.ps_nodes:
            assert shard.params is not None
            shard.assignment.scatter(flat, shard.params)
        return flat

    def _average_worker_params(self) -> np.ndarray | None:
        assert self.runtime is not None
        live = self.runtime.live_worker_ids()
        comps = [
            self.runtime.workers[w].comp
            for w in live
            if self.runtime.workers[w].comp is not None
        ]
        if not comps:
            return None
        # Replica state, not ``comp.model``: the compute model is shared
        # and holds whichever replica computed last.
        acc = comps[0].params.copy()
        for comp in comps[1:]:
            acc += comp.params
        acc /= len(comps)
        return acc


ALGORITHMS: dict[str, Callable[..., TrainingAlgorithm]] = {}


def register_algorithm(cls: type[TrainingAlgorithm]) -> type[TrainingAlgorithm]:
    """Class decorator adding the algorithm to the global registry."""
    name = cls.info.name.lower()
    if name in ALGORITHMS:
        raise ValueError(f"algorithm {name!r} already registered")
    ALGORITHMS[name] = cls
    return cls


def _registry_key(name: str) -> str:
    key = name.lower().replace("-", "").replace("_", "")
    return {"arsgd": "ar-sgd", "adpsgd": "ad-psgd"}.get(key, key)


def make_algorithm(name: str, **hyperparams: Any) -> TrainingAlgorithm:
    """Instantiate a registered algorithm by (case-insensitive) name.

    >>> make_algorithm("ssp", staleness=3).describe()
    'SSP(staleness=3)'
    """
    key = _registry_key(name)
    if key not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}")
    return ALGORITHMS[key](**hyperparams)


def is_centralized(name: str) -> bool:
    """Table I's *centralized* (PS-based) column for algorithm ``name``,
    read from the registry; an unregistered name is not centralized."""
    cls = ALGORITHMS.get(_registry_key(name))
    return cls is not None and cls.info.centralized
