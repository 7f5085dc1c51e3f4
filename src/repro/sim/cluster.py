"""Cluster specifications.

The paper's testbed (§VI "System setting"): 3 physical machines, each
with 8 NVIDIA TITAN V GPUs (14.90 TFLOPS, 12 GB), split into 6
light-weight VMs of 4 GPUs each, inter-connected by 10 Gbps Ethernet
and 56 Gbps InfiniBand. :func:`paper_cluster` builds exactly that.

Workers map onto GPUs machine-by-machine (workers 0–3 on VM 0, 4–7 on
VM 1, …), matching the paper's placement — this is what makes *local
aggregation* (within-VM gradient reduction) meaningful for BSP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "GPUSpec",
    "MachineSpec",
    "ClusterSpec",
    "paper_cluster",
    "hierarchical_cluster",
    "TITAN_V",
    "DEFAULT_SPINE_LATENCY_S",
]

# One-way latency added by crossing the spine tier (ToR → spine → ToR),
# on top of the NIC↔ToR edge latency. Typical for a two-hop fat tree.
DEFAULT_SPINE_LATENCY_S = 150e-6


@dataclass(frozen=True)
class GPUSpec:
    """A GPU model's compute capability."""

    name: str
    tflops: float  # peak single-precision TFLOPS
    memory_gb: float
    # Fraction of peak FLOPS actually sustained on conv nets. 0.33 is a
    # typical utilisation for TF 1.x-era CNN training on Volta.
    efficiency: float = 0.33

    def __post_init__(self) -> None:
        if self.tflops <= 0:
            raise ValueError("tflops must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")

    @property
    def effective_flops(self) -> float:
        """Sustained FLOP/s."""
        return self.tflops * 1e12 * self.efficiency


TITAN_V = GPUSpec(name="TITAN V", tflops=14.90, memory_gb=12.0)


@dataclass(frozen=True)
class MachineSpec:
    """One (virtual) machine: some GPUs and a NIC."""

    gpus: int
    gpu: GPUSpec = TITAN_V
    # Effective intra-machine aggregation bandwidth. Raw PCIe is ~12
    # GB/s, but TF-1.x local aggregation staged through host memory
    # (device→host copy, CPU add, host→device) sustains ~4 GB/s.
    intra_bandwidth_gbps: float = 36.0
    intra_latency_s: float = 10e-6

    def __post_init__(self) -> None:
        if self.gpus <= 0:
            raise ValueError("gpus must be positive")
        if self.intra_bandwidth_gbps <= 0:
            raise ValueError("intra_bandwidth_gbps must be positive")


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of machines on a switched network.

    The network is flat (single logical switch) by default. Setting
    ``machines_per_rack`` turns on the hierarchical NIC → ToR → spine
    fabric: machines are grouped into racks block-wise, each rack's
    top-of-rack switch connects to a spine through an uplink whose
    capacity is the rack's aggregate NIC ingress divided by
    ``oversubscription`` (or an explicit ``tor_uplink_gbps``), and
    inter-rack transfers pay ``spine_latency_s`` extra one-way latency.
    All hierarchy fields default to ``None`` and are omitted from run
    fingerprints when unset, so flat configs keep their cache entries.
    """

    machines: int
    machine: MachineSpec
    network_bandwidth_gbps: float
    network_latency_s: float = 50e-6
    # Achievable goodput as a fraction of line rate. TCP/gRPC on
    # Ethernet under incast sustains far less than wire speed; RDMA
    # fabrics do much better.
    network_efficiency: float = 0.9
    name: str = "cluster"
    # -- hierarchical fabric (None = flat topology) --------------------
    machines_per_rack: int | None = field(
        default=None, metadata={"fingerprint": "omit-if-none"}
    )
    # Rack aggregate NIC ingress / ToR uplink capacity. 1.0 = fully
    # provisioned; 4.0 = the classic 4:1 oversubscribed leaf.
    oversubscription: float | None = field(
        default=None, metadata={"fingerprint": "omit-if-none"}
    )
    # Explicit uplink line rate; overrides the oversubscription-derived
    # capacity when set.
    tor_uplink_gbps: float | None = field(
        default=None, metadata={"fingerprint": "omit-if-none"}
    )
    # Extra one-way latency for crossing the spine (inter-rack hops).
    spine_latency_s: float | None = field(
        default=None, metadata={"fingerprint": "omit-if-none"}
    )

    def __post_init__(self) -> None:
        if self.machines <= 0:
            raise ValueError("machines must be positive")
        if self.network_bandwidth_gbps <= 0:
            raise ValueError("network_bandwidth_gbps must be positive")
        if self.network_latency_s < 0:
            raise ValueError("network_latency_s must be non-negative")
        if not 0 < self.network_efficiency <= 1:
            raise ValueError("network_efficiency must be in (0, 1]")
        if self.machines_per_rack is not None and self.machines_per_rack <= 0:
            raise ValueError("machines_per_rack must be positive when set")
        if self.oversubscription is not None and self.oversubscription <= 0:
            raise ValueError("oversubscription must be positive when set")
        if self.tor_uplink_gbps is not None and self.tor_uplink_gbps <= 0:
            raise ValueError("tor_uplink_gbps must be positive when set")
        if self.spine_latency_s is not None and self.spine_latency_s < 0:
            raise ValueError("spine_latency_s must be non-negative when set")

    @property
    def total_gpus(self) -> int:
        return self.machines * self.machine.gpus

    @property
    def network_bytes_per_s(self) -> float:
        # Gbps are decimal gigabits.
        return self.network_bandwidth_gbps * 1e9 / 8 * self.network_efficiency

    @property
    def intra_bytes_per_s(self) -> float:
        return self.machine.intra_bandwidth_gbps * 1e9 / 8 * 0.9

    @property
    def hierarchical(self) -> bool:
        """True when inter-rack traffic exists (≥ 2 racks).

        A rack size covering the whole cluster degenerates to the flat
        topology, and the network model takes the flat fast path.
        """
        return (
            self.machines_per_rack is not None
            and self.machines > self.machines_per_rack
        )

    @property
    def num_racks(self) -> int:
        if not self.machines_per_rack:
            return 1
        return math.ceil(self.machines / self.machines_per_rack)

    @property
    def uplink_bytes_per_s(self) -> float:
        """Achievable ToR uplink goodput (bytes/s) for one direction."""
        if self.tor_uplink_gbps is not None:
            return self.tor_uplink_gbps * 1e9 / 8 * self.network_efficiency
        ratio = self.oversubscription if self.oversubscription is not None else 1.0
        rack = self.machines_per_rack or self.machines
        return rack * self.network_bytes_per_s / ratio

    @property
    def spine_latency(self) -> float:
        if self.spine_latency_s is not None:
            return self.spine_latency_s
        return DEFAULT_SPINE_LATENCY_S

    def rack_of_machine(self, machine: int) -> int:
        """Rack index hosting ``machine`` (block placement)."""
        if not 0 <= machine < self.machines:
            raise ValueError(f"machine {machine} out of range")
        if not self.machines_per_rack:
            return 0
        return machine // self.machines_per_rack

    def machines_of_rack(self, rack: int) -> list[int]:
        """Machine indices hosted by ``rack`` (block placement) — the
        blast radius of a ToR-level fault."""
        if not 0 <= rack < self.num_racks:
            raise ValueError(f"rack {rack} out of range")
        if not self.machines_per_rack:
            return list(range(self.machines))
        lo = rack * self.machines_per_rack
        hi = min(lo + self.machines_per_rack, self.machines)
        return list(range(lo, hi))

    def machine_of_worker(self, worker: int) -> int:
        """Machine index hosting ``worker`` (block placement)."""
        if not 0 <= worker < self.total_gpus:
            raise ValueError(f"worker {worker} out of range for {self.total_gpus} GPUs")
        return worker // self.machine.gpus



def paper_cluster(
    *,
    bandwidth_gbps: float = 56.0,
    machines: int = 6,
    gpus_per_machine: int = 4,
) -> ClusterSpec:
    """The paper's evaluation cluster: 6 VMs × 4 TITAN V GPUs.

    ``bandwidth_gbps`` selects between the 10 Gbps Ethernet and
    56 Gbps InfiniBand fabrics the paper alternates between.
    """
    # 10 Gbps Ethernet carries TCP/gRPC traffic; under the many-to-one
    # incast of PS training, TF-1.x-era stacks sustain well under half
    # of line rate (TCP incast collapse + gRPC serialisation). The
    # 56 Gbps InfiniBand fabric (IPoIB, deep buffers) does much better.
    efficiency = 0.45 if bandwidth_gbps <= 10 else 0.75
    return ClusterSpec(
        machines=machines,
        machine=MachineSpec(gpus=gpus_per_machine),
        network_bandwidth_gbps=bandwidth_gbps,
        network_efficiency=efficiency,
        name=f"paper-{bandwidth_gbps:g}gbps",
    )


def hierarchical_cluster(
    *,
    machines: int,
    gpus_per_machine: int = 4,
    bandwidth_gbps: float = 56.0,
    machines_per_rack: int = 16,
    oversubscription: float = 4.0,
    spine_latency_s: float = DEFAULT_SPINE_LATENCY_S,
    tor_uplink_gbps: float | None = None,
) -> ClusterSpec:
    """A rack-scale cluster: paper-style machines under a leaf/spine fabric.

    Keeps the paper's per-machine geometry (4 GPUs, same NIC goodput
    model) but groups machines into racks of ``machines_per_rack``
    behind oversubscribed ToR uplinks — the shape a 10,000-worker
    deployment actually has. With ``machines <= machines_per_rack`` the
    spec degenerates to the flat paper topology.
    """
    efficiency = 0.45 if bandwidth_gbps <= 10 else 0.75
    return ClusterSpec(
        machines=machines,
        machine=MachineSpec(gpus=gpus_per_machine),
        network_bandwidth_gbps=bandwidth_gbps,
        network_efficiency=efficiency,
        name=(
            f"hier-{bandwidth_gbps:g}gbps-r{machines_per_rack}"
            f"-o{oversubscription:g}"
        ),
        machines_per_rack=machines_per_rack,
        oversubscription=oversubscription,
        tor_uplink_gbps=tor_uplink_gbps,
        spine_latency_s=spine_latency_s,
    )
