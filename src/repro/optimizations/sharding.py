"""Parameter sharding (§V-A).

A single PS aggregating all parameters is the training bottleneck;
sharding splits the parameter vector across multiple PS shards so
aggregation proceeds in parallel. The paper shards *layer-wise*
("parameters in the same layer are stored in the same PS, the same way
as TensorFlow") — which is exactly why VGG-16 cannot profit fully: its
fc6 layer alone is ~74 % of the model and pins one shard (§VI-C).

Strategies:

* ``layerwise-rr``     — round-robin layers over shards (TF default);
* ``layerwise-greedy`` — largest-first onto the least-loaded shard
                         (TF's GreedyLoadBalancingStrategy);
* ``element-balanced`` — ignore layer boundaries, equal contiguous
                         element ranges; the "fine-grained sharding"
                         the paper's conclusion calls for (ablation).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.nn.zoo import ModelProfile

__all__ = [
    "ShardAssignment",
    "ShardingPlan",
    "make_sharding_plan",
    "gather_ranges",
    "scatter_ranges",
]

Ranges = tuple[tuple[int, int], ...]


def gather_ranges(flat: np.ndarray, ranges: Ranges) -> np.ndarray:
    """The elements of ``flat`` inside ``ranges``, concatenated in order
    into a new vector (a shard's slice, a comm-plan entry's payload)."""
    return np.concatenate([flat[start:stop] for start, stop in ranges])


def scatter_ranges(flat: np.ndarray, ranges: Ranges, values: np.ndarray) -> None:
    """Inverse of :func:`gather_ranges`: write ``values`` back into
    ``flat`` at ``ranges``."""
    offset = 0
    for start, stop in ranges:
        n = stop - start
        flat[start:stop] = values[offset : offset + n]
        offset += n


@dataclass(frozen=True, slots=True)
class ShardAssignment:
    """One shard's slice of the model.

    ``ranges`` are (start, stop) element offsets into the flat
    parameter vector (a shard may own several non-contiguous layers).
    """

    shard_id: int
    layer_indices: tuple[int, ...]
    ranges: Ranges
    num_elements: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "num_elements", sum(stop - start for start, stop in self.ranges)
        )

    def gather(self, flat: np.ndarray) -> np.ndarray:
        """Extract this shard's elements from a full flat vector."""
        return gather_ranges(flat, self.ranges)

    def scatter(self, flat: np.ndarray, values: np.ndarray) -> None:
        """Write this shard's elements back into a full flat vector."""
        if values.size != self.num_elements:
            raise ValueError("values size mismatch with shard ranges")
        scatter_ranges(flat, self.ranges, values)

    def global_indices(self) -> np.ndarray:
        """Flat-vector index of every element of the gathered slice."""
        return np.concatenate(
            [np.arange(start, stop, dtype=np.int64) for start, stop in self.ranges]
        )

    def scatter_sparse(
        self, flat: np.ndarray, local_idx: np.ndarray, values: np.ndarray
    ) -> None:
        """Write selected gathered-slice elements into a full flat vector
        (used by DGC delta-pull replies)."""
        if local_idx.size == 0:
            return
        flat[self.global_indices()[local_idx]] = values


@dataclass(frozen=True)
class ShardingPlan:
    """Assignment of every model element to exactly one shard."""

    num_shards: int
    total_elements: int
    shards: tuple[ShardAssignment, ...]
    strategy: str
    bytes_per_param: int = 4

    def shard_bytes(self) -> list[int]:
        return [s.num_elements * self.bytes_per_param for s in self.shards]

    def max_shard_fraction(self) -> float:
        """Load skew: largest shard's share of all elements."""
        if self.total_elements == 0:
            return 0.0
        return max(s.num_elements for s in self.shards) / self.total_elements

    def validate(self) -> None:
        """Check the plan is a partition of [0, total_elements).

        Interval arithmetic on the range endpoints, not an element
        bitmap: sorted non-empty ranges must tile [0, total) exactly.
        Equivalent to the exactly-once-coverage check but O(ranges)
        instead of O(parameters) — for ResNet-50 the bitmap was a 25M
        element array allocated per runner construction.
        """
        spans = []
        for shard in self.shards:
            for start, stop in shard.ranges:
                if not 0 <= start <= stop <= self.total_elements:
                    raise ValueError(f"range ({start}, {stop}) out of bounds")
                if start < stop:
                    spans.append((start, stop))
        if not self.total_elements:
            return
        spans.sort()
        pos = 0
        for start, stop in spans:
            if start != pos:  # gap (start > pos) or overlap (start < pos)
                raise ValueError(
                    "sharding plan is not a partition of the parameter vector"
                )
            pos = stop
        if pos != self.total_elements:
            raise ValueError(
                "sharding plan is not a partition of the parameter vector"
            )


def _layer_offsets(profile: ModelProfile) -> list[tuple[int, int]]:
    offsets: list[tuple[int, int]] = []
    pos = 0
    for layer in profile.layers:
        offsets.append((pos, pos + layer.params))
        pos += layer.params
    return offsets


def make_sharding_plan(
    profile: ModelProfile,
    num_shards: int,
    *,
    strategy: str = "layerwise-greedy",
) -> ShardingPlan:
    """Build a sharding plan for ``profile`` over at most ``num_shards``
    shards, every one of which owns an element.

    A layer-wise plan cannot split a layer, so it builds at most one
    shard per layer: ``min(num_shards, layers)``; ``element-balanced``
    at most one per element. With ``num_shards == 1`` every strategy
    degenerates to the single-PS (unsharded) configuration.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    offsets = _layer_offsets(profile)
    total = profile.total_params

    if strategy == "element-balanced":
        num_shards = min(num_shards, total)
        bounds = np.linspace(0, total, num_shards + 1).astype(int)
        shards = tuple(
            ShardAssignment(
                shard_id=i,
                layer_indices=(),
                ranges=((int(bounds[i]), int(bounds[i + 1])),),
            )
            for i in range(num_shards)
        )
        plan = ShardingPlan(
            num_shards=num_shards, total_elements=total, shards=shards, strategy=strategy
        )
        plan.validate()
        return plan

    num_shards = min(num_shards, len(profile.layers))
    assignment: list[list[int]] = [[] for _ in range(num_shards)]
    if strategy == "layerwise-rr":
        for idx in range(len(profile.layers)):
            assignment[idx % num_shards].append(idx)
    elif strategy == "layerwise-greedy":
        # Least-loaded heap, ties by shard id — identical assignment to
        # a linear min-scan (first shard with the smallest load) but
        # O(E log S) instead of O(E·S), which matters at S = 2,500.
        heap = [(0, s) for s in range(num_shards)]
        order = sorted(
            range(len(profile.layers)), key=lambda i: profile.layers[i].params, reverse=True
        )
        for idx in order:
            load, target = heapq.heappop(heap)
            assignment[target].append(idx)
            heapq.heappush(heap, (load + profile.layers[idx].params, target))
        for layer_list in assignment:
            layer_list.sort()
    else:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected layerwise-rr/"
            "layerwise-greedy/element-balanced"
        )

    shards = tuple(
        ShardAssignment(
            shard_id=i,
            layer_indices=tuple(assignment[i]),
            ranges=tuple(offsets[idx] for idx in assignment[i]),
        )
        for i in range(num_shards)
    )
    plan = ShardingPlan(
        num_shards=num_shards, total_elements=total, shards=shards, strategy=strategy
    )
    plan.validate()
    return plan
