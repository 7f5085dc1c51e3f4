#!/usr/bin/env python
"""Compare all seven distributed training algorithms head to head.

Reproduces the paper's Table II protocol at a reduced scale (8 workers,
15 epochs) so it finishes in well under a minute, then prints the final
accuracies next to the paper's published ImageNet numbers, and whether
each of the paper's Table II findings (synchronous ≈ frequent-async ≫
intermittent-async) holds at this scale.

Usage::

    python examples/compare_algorithms.py [num_workers] [epochs]
"""

import sys

from repro.experiments.artefact import artefact, render, run_artefact


def main() -> None:
    num_workers = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    epochs = float(sys.argv[2]) if len(sys.argv) > 2 else 15.0
    print(
        f"Running all seven algorithms with {num_workers} workers for "
        f"{epochs:g} epochs (authors' hyperparameters: SSP s=10, EASGD tau=8, "
        "GoSGD p=0.01)..."
    )
    table = run_artefact(artefact("table2"), num_workers=num_workers, epochs=epochs)
    print()
    print(render(table))


if __name__ == "__main__":
    main()
