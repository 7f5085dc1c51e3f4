"""Datasets and data-parallel partitioning.

The paper trains on ImageNet-1K; offline we substitute synthetic
classification datasets whose SGD dynamics exercise the same code
paths (see DESIGN.md §2). :mod:`repro.data.synthetic` generates them,
:mod:`repro.data.partition` splits them across workers exactly as data
parallelism does, and :mod:`repro.data.loader` provides per-worker
mini-batch iterators with per-epoch shuffling.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "synthetic": (
            "Dataset",
            "make_gaussian_blobs",
            "make_spirals",
            "make_synthetic_images",
        ),
        "partition": ("partition_dataset",),
        "loader": ("BatchLoader",),
    },
)
