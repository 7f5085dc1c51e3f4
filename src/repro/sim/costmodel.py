"""Compute- and communication-cost models.

Compute time per training iteration is

    t = (train_flops_per_image × batch) / (GPU effective FLOPS × speed_i) × jitter

where ``speed_i`` is a *persistent* per-worker speed factor (drawn
once; models the paper's observation that even a homogeneous cluster
shows ~5 % spread between the fastest and slowest workers, §VI-C) and
``jitter`` is a per-iteration lognormal fluctuation (OS noise, data
pipeline hiccups — the transient stragglers that make synchronous
algorithms wait).

PS-side aggregation cost is modelled per byte (``ps_agg_seconds_per_byte``);
the paper measured that the *actual* aggregation is only ~30 % of the
global aggregation stage, the rest being waiting — the tracer
distinguishes the two.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.nn.zoo import ModelProfile
from repro.sim.cluster import GPUSpec
from repro.sim.engine import Timeout

__all__ = ["ComputeModel", "CommModel", "base_iteration_time"]


@dataclass
class CommModel:
    """Constants for non-network communication costs."""

    # Aggregation arithmetic at a PS or reducing worker. The raw
    # vector add runs at memory speed, but the TF-1.x PS path
    # (deserialise → accumulate → apply → serialise) sustains ~1 GB/s,
    # which is what the paper's global-aggregation bars reflect.
    agg_seconds_per_byte: float = 1.0 / 1e9
    # Worker-side collective reduction (MPI ring step): a plain
    # vector add over received chunks, no (de)serialisation framework
    # in the path — considerably faster than the PS pipeline.
    reduce_seconds_per_byte: float = 1.0 / 2.5e9
    # Fixed per-message software overhead (syscall + framing).
    per_message_overhead_s: float = 20e-6
    # Gradient top-k selection cost for DGC (sampled threshold, ~1 pass).
    dgc_select_seconds_per_byte: float = 1.0 / 6e9

    def __post_init__(self) -> None:
        # Per-(kind, nbytes) result cache: runs call these with a
        # handful of distinct message sizes, millions of times. A plain
        # dict (not a dataclass field) so fingerprints and equality are
        # untouched; __getstate__ keeps it out of pickles.
        self._cache: dict[tuple[str, int], float] = {}
        # Shared Timeout objects for the two per-message yield sites
        # (ring reduce steps, PS aggregation). A Timeout is immutable
        # once built, so yielding the same instance repeatedly is safe
        # and skips an allocation per message.
        self._timeout_cache: dict[tuple[str, int], Timeout] = {}

    def __getstate__(self) -> dict[str, float]:
        # The fields alone: a config pickles to the same bytes before
        # and after a run, and a pool worker starts with empty caches.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict[str, float]) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def agg_time(self, nbytes: int) -> float:
        key = ("agg", nbytes)
        t = self._cache.get(key)
        if t is None:
            t = self.per_message_overhead_s + nbytes * self.agg_seconds_per_byte
            self._cache[key] = t
        return t

    def reduce_time(self, nbytes: int) -> float:
        key = ("reduce", nbytes)
        t = self._cache.get(key)
        if t is None:
            t = self.per_message_overhead_s + nbytes * self.reduce_seconds_per_byte
            self._cache[key] = t
        return t

    def agg_timeout(self, nbytes: int) -> Timeout:
        """Shared ``Timeout(agg_time(nbytes))`` instance."""
        key = ("agg", nbytes)
        t = self._timeout_cache.get(key)
        if t is None:
            t = Timeout(self.agg_time(nbytes))
            self._timeout_cache[key] = t
        return t

    def reduce_timeout(self, nbytes: int) -> Timeout:
        """Shared ``Timeout(reduce_time(nbytes))`` instance."""
        key = ("reduce", nbytes)
        t = self._timeout_cache.get(key)
        if t is None:
            t = Timeout(self.reduce_time(nbytes))
            self._timeout_cache[key] = t
        return t


def base_iteration_time(
    profile: ModelProfile,
    batch_size: int,
    gpu: GPUSpec,
    override: float | None = None,
) -> float:
    """Seconds of one jitter-free iteration of a full-speed worker: the
    profile's FLOPs at the GPU's effective rate, unless ``override``
    fixes it (full-mode runs, DESIGN.md §6)."""
    if override is not None:
        if override <= 0:
            raise ValueError("base_time_override must be positive")
        return override
    return profile.train_flops * batch_size / gpu.effective_flops


class ComputeModel:
    """Per-worker iteration compute-time sampler.

    Parameters
    ----------
    profile:
        Layer profile supplying FLOPs per image.
    batch_size:
        Per-worker mini-batch size.
    gpu:
        GPU spec supplying effective FLOP/s.
    num_workers:
        Number of workers to draw persistent speed factors for.
    speed_spread:
        Max fractional gap between fastest and slowest persistent
        worker speeds (paper: ~5 %).
    jitter_sigma:
        Sigma of the per-iteration lognormal jitter.
    seed:
        RNG seed; the model owns its generator so that compute-time
        draws are independent of algorithmic randomness.
    """

    def __init__(
        self,
        profile: ModelProfile,
        batch_size: int,
        gpu: GPUSpec,
        num_workers: int,
        *,
        speed_spread: float = 0.05,
        jitter_sigma: float = 0.02,
        seed: int = 0,
        base_time_override: float | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if not 0 <= speed_spread < 1:
            raise ValueError("speed_spread must be in [0, 1)")
        if jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        self.profile = profile
        self.batch_size = batch_size
        self.gpu = gpu
        self.num_workers = num_workers
        self.speed_spread = speed_spread
        self.jitter_sigma = jitter_sigma
        self._rng = np.random.default_rng(seed)
        # Persistent speeds uniform in [1 - spread, 1]: worker ranks keep
        # stable fast/slow identities across the whole run.
        self.speeds = 1.0 - self._rng.uniform(0.0, speed_spread, size=num_workers)
        # Lognormal jitter is drawn in prefilled blocks consumed in call
        # order. Block draws are bitwise-identical to scalar draws
        # (``rng.normal(0, s, size=n)`` advances the stream exactly like
        # n scalar calls, and array ``np.exp`` matches the scalar ufunc
        # element-for-element), so results are unchanged — only the
        # per-draw numpy overhead is amortised away.
        self._jitter_block: np.ndarray | None = None
        self._jitter_pos = 0
        # Observability hook: called as on_draw(worker, duration) for
        # every sampled iteration time. The runner installs it so every
        # draw site (workers, BSP leaders/peers) is captured without
        # instrumenting each algorithm. None = off.
        self.on_draw = None
        # ``base_time_override`` decouples the virtual compute time from
        # the profile's FLOP count — full-mode runs use it to give the
        # tiny trainable models the compute/communication time *ratio*
        # of the paper's real models (DESIGN.md §6).
        self.base_time = base_iteration_time(profile, batch_size, gpu, base_time_override)
        # Per-worker base durations: iteration_time is called once per
        # iteration per worker and must not redo the division.
        self._base_by_worker = (self.base_time / self.speeds).tolist()

    _JITTER_BLOCK = 512

    def _refill_jitter(self) -> np.ndarray:
        block = np.exp(self._rng.normal(0.0, self.jitter_sigma, size=self._JITTER_BLOCK))
        self._jitter_block = block
        self._jitter_pos = 0
        return block

    def iteration_time(self, worker: int) -> float:
        """Sample the compute duration of one iteration for ``worker``."""
        if not 0 <= worker < self.num_workers:
            raise ValueError(f"worker {worker} out of range")
        duration = self._base_by_worker[worker]
        if self.jitter_sigma > 0:
            block = self._jitter_block
            pos = self._jitter_pos
            if block is None or pos >= self._JITTER_BLOCK:
                block = self._refill_jitter()
                pos = 0
            self._jitter_pos = pos + 1
            duration *= block[pos]
        if self.on_draw is not None:
            self.on_draw(worker, duration)
        return duration

    def backward_fraction(self) -> float:
        """Fraction of an iteration spent in backprop (2 of 3 passes)."""
        return 2.0 / 3.0
