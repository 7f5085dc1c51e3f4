#!/usr/bin/env python
"""Scalability study on the simulated paper cluster (Fig 2 protocol).

Sweeps worker counts for a chosen model and prints the speedup of each
algorithm over a single communication-free worker, on both the 10 Gbps
Ethernet and 56 Gbps InfiniBand fabrics. Runs in timing-only mode, so
the full-size ResNet-50/VGG-16 layer profiles are simulated at the
paper's true scale in seconds of wall time. The claims block below the
curves says which of the paper's Fig 2 findings hold (for example, ASP
is slower than BSP at 10 Gbps but faster at 56 Gbps).

Usage::

    python examples/scalability_study.py [resnet50|vgg16] [measured_iterations]
"""

import sys

from repro.experiments.artefact import artefact, render, run_artefact


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "resnet50"
    iters = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    print(f"Sweeping 1..24 workers for {model} on 10 and 56 Gbps fabrics...")
    table = run_artefact(
        artefact("fig2"), model=model, worker_counts=(1, 2, 4, 8, 16, 24), measure_iters=iters
    )
    print()
    print(render(table))


if __name__ == "__main__":
    main()
