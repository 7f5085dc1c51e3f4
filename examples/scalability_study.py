#!/usr/bin/env python
"""Scalability study on the simulated paper cluster (Fig 2 protocol).

Sweeps worker counts for a chosen model and prints the speedup of each
algorithm over a single communication-free worker, on both the 10 Gbps
Ethernet and 56 Gbps InfiniBand fabrics. Runs in timing-only mode, so
the full-size ResNet-50/VGG-16 layer profiles are simulated at the
paper's true scale in seconds of wall time.

Usage::

    python examples/scalability_study.py [resnet50|vgg16] [measured_iterations]
"""

import sys

from repro.analysis.scalability import crossover_points
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

    # Locate the paper's ASP-vs-BSP finding in the measured curves.
    for bw in (10.0, 56.0):
        asp = [(n, table.value("asp", bw, n)) for n in table.axis("workers")]
        bsp = [(n, table.value("bsp", bw, n)) for n in table.axis("workers")]
        flips = crossover_points(asp, bsp)
        asp24 = dict(asp)[24]
        bsp24 = dict(bsp)[24]
        verdict = "slower" if asp24 < bsp24 else "faster"
        print(
            f"\n@{bw:g} Gbps: ASP is {verdict} than BSP at 24 workers "
            f"({asp24:.1f}x vs {bsp24:.1f}x)"
            + (f"; lead changes at N={flips}" if flips else "")
        )
    print(
        "\nExpected shape (paper §VI-C): ASP beats BSP only when bandwidth "
        "is plentiful; the PS bottleneck inverts the order at 10 Gbps. "
        "AD-PSGD scales almost linearly on both fabrics."
    )


if __name__ == "__main__":
    main()
