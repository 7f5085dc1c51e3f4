"""Wait-free backpropagation (§V-B).

During backprop, the gradient of layer ``L`` is complete before layers
``L−1 … 1`` have been processed, so its communication can overlap the
remaining backward computation. The comm plan computed here assigns
each message a *ready offset* — the fraction of the iteration's
compute time after which the message may be sent:

* without wait-free BP: one message per shard, ready at offset 1.0
  (after the full forward+backward);
* with wait-free BP: one message per layer, ready when that layer's
  backward completes. Backward runs last-layer-first and we apportion
  it by per-layer FLOPs, on top of the forward pass (first third of
  the iteration, see
  :meth:`repro.sim.costmodel.ComputeModel.backward_fraction`).

The paper observes this optimization has become *less* effective on
fast GPUs — shrinking compute time shrinks the window available for
overlap — which this model captures automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.zoo import ModelProfile
from repro.optimizations.sharding import ShardingPlan

__all__ = ["CommPlanEntry", "CommPlan", "make_comm_plan"]


@dataclass(frozen=True)
class CommPlanEntry:
    """One gradient message: destination shard, size, readiness."""

    shard_id: int
    nbytes: int
    num_elements: int
    ready_offset: float  # fraction of iteration compute time in [0, 1]
    label: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.ready_offset <= 1.0:
            raise ValueError("ready_offset must be in [0, 1]")
        if self.nbytes < 0 or self.num_elements < 0:
            raise ValueError("sizes must be non-negative")


@dataclass(frozen=True)
class CommPlan:
    """Ordered gradient-message schedule for one iteration.

    Entries are sorted by ``ready_offset`` so a worker can walk the
    plan while its backward pass advances.
    """

    entries: tuple[CommPlanEntry, ...]
    wait_free: bool

    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.entries)


def make_comm_plan(
    profile: ModelProfile,
    plan: ShardingPlan,
    *,
    wait_free: bool = False,
    backward_fraction: float = 2.0 / 3.0,
) -> CommPlan:
    """Build the per-iteration gradient comm plan.

    ``backward_fraction`` is the share of iteration compute spent in
    backprop (forward ≈ 1/3, backward ≈ 2/3 for standard SGD).
    """
    if not 0.0 < backward_fraction <= 1.0:
        raise ValueError("backward_fraction must be in (0, 1]")
    bpp = plan.bytes_per_param

    if not wait_free:
        entries = tuple(
            CommPlanEntry(
                shard_id=s.shard_id,
                nbytes=s.num_elements * bpp,
                num_elements=s.num_elements,
                ready_offset=1.0,
                label=f"shard{s.shard_id}",
            )
            for s in plan.shards
            if s.num_elements > 0
        )
        return CommPlan(entries=entries, wait_free=False)

    if plan.strategy == "element-balanced":
        raise ValueError(
            "wait-free BP requires layer-aligned sharding (layer readiness is undefined "
            "for element-balanced shards)"
        )

    # Map layer index -> owning shard.
    layer_to_shard: dict[int, int] = {}
    for shard in plan.shards:
        for idx in shard.layer_indices:
            layer_to_shard[idx] = shard.shard_id

    total_flops = max(profile.total_flops, 1)
    n_layers = len(profile.layers)
    entries: list[CommPlanEntry] = []
    # Walk backward: the last layer's gradient is ready first.
    flops_done = 0
    forward_fraction = 1.0 - backward_fraction
    for idx in range(n_layers - 1, -1, -1):
        layer = profile.layers[idx]
        flops_done += layer.flops
        if layer.params == 0:
            continue
        ready = forward_fraction + backward_fraction * (flops_done / total_flops)
        entries.append(
            CommPlanEntry(
                shard_id=layer_to_shard[idx],
                nbytes=layer.params * bpp,
                num_elements=layer.params,
                ready_offset=min(ready, 1.0),
                label=layer.name,
            )
        )
    entries.sort(key=lambda e: e.ready_offset)
    return CommPlan(entries=tuple(entries), wait_free=True)
