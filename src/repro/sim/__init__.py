"""Discrete-event cluster simulator.

This subpackage replaces the paper's physical testbed (6 VMs × 4
TITAN V GPUs, 10/56 Gbps networks). It provides:

* :mod:`repro.sim.events` / :mod:`repro.sim.engine` — a deterministic
  process-based discrete-event kernel (generators as processes,
  simpy-style ``Timeout``/``Get``/``Barrier`` primitives);
* :mod:`repro.sim.cluster` — machine/GPU/NIC specifications, including
  the paper's exact cluster;
* :mod:`repro.sim.network` — FIFO rate-limited ports whose queueing
  produces PS bottlenecks and bandwidth contention *emergently*;
* :mod:`repro.sim.costmodel` — compute-time model (FLOPs ÷ effective
  TFLOPS with persistent per-GPU speed factors and per-iteration
  jitter ⇒ stragglers) and communication constants;
* :mod:`repro.sim.trace` — per-phase span recording for the paper's
  Fig 3 time-breakdown analysis.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": (
            "Engine",
            "Process",
            "Timeout",
            "Get",
            "Signal",
            "Store",
            "Barrier",
            "AllOf",
        ),
        "events": ("Entry", "EventQueue"),
        "cluster": ("ClusterSpec", "MachineSpec", "GPUSpec", "paper_cluster"),
        "network": ("Network", "Port"),
        "costmodel": ("ComputeModel", "CommModel"),
        "trace": ("PhaseTracer", "Span"),
    },
)
