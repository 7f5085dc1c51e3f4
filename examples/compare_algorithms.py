#!/usr/bin/env python
"""Compare all seven distributed training algorithms head to head.

Reproduces the paper's Table II protocol at a reduced scale (8 workers,
15 epochs) so it finishes in well under a minute, then prints the final
accuracies next to the paper's published ImageNet numbers. The
*ordering* — synchronous ≈ frequent-async ≫ intermittent-async — is the
paper's headline finding and should be visible even at this scale.

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

    accuracies = {algo: table.value(algo) for algo in table.axis("algorithm")}
    ordered = sorted(accuracies.items(), key=lambda kv: kv[1], reverse=True)
    print("\nRanking (this run):")
    for rank, (algo, acc) in enumerate(ordered, 1):
        print(f"  {rank}. {algo.upper():8s} {acc:.4f}")
    print(
        "\nExpected shape (paper §VI-A): BSP ≈ AR-SGD ≥ ASP ≈ AD-PSGD "
        "≫ SSP(s=10), EASGD, GoSGD."
    )


if __name__ == "__main__":
    main()
