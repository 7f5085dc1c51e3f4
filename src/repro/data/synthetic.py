"""Synthetic classification datasets.

Three generators with increasing structural similarity to image
classification:

* :func:`make_gaussian_blobs` — linearly separable-ish prototypes plus
  noise; fast sanity-check problem.
* :func:`make_spirals` — interleaved spirals; genuinely nonconvex
  decision boundary, the workhorse for convergence-shape experiments.
* :func:`make_synthetic_images` — class-prototype *images* (NCHW)
  with structured spatial patterns plus pixel noise, the stand-in for
  ImageNet-1K used with the Mini CNN models.

All generators take a seed and return a train/test
:class:`Dataset` pair via ``split``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "make_gaussian_blobs",
    "make_spirals",
    "make_synthetic_images",
]


@dataclass(frozen=True)
class Dataset:
    """Immutable (features, labels) pair with convenience helpers."""

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y must have the same number of samples")
        if self.y.ndim != 1:
            raise ValueError("labels must be 1-D integers")
        if self.num_classes <= 0:
            raise ValueError("num_classes must be positive")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            x=self.x[indices], y=self.y[indices], num_classes=self.num_classes, name=self.name
        )

    def split(self, test_fraction: float, *, rng: np.random.Generator) -> tuple["Dataset", "Dataset"]:
        """Shuffle and split into (train, test)."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        n = len(self)
        perm = rng.permutation(n)
        n_test = max(1, int(round(n * test_fraction)))
        test_idx, train_idx = perm[:n_test], perm[n_test:]
        return self.subset(train_idx), self.subset(test_idx)


def make_gaussian_blobs(
    *,
    num_samples: int = 2000,
    num_classes: int = 10,
    num_features: int = 32,
    noise: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Isotropic Gaussian clusters around random class prototypes."""
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(0.0, 2.0, size=(num_classes, num_features))
    y = rng.integers(0, num_classes, size=num_samples)
    x = prototypes[y] + rng.normal(0.0, noise, size=(num_samples, num_features))
    return Dataset(x=x, y=y, num_classes=num_classes, name="gaussian_blobs")


def make_spirals(
    *,
    num_samples: int = 2000,
    num_classes: int = 5,
    num_features: int = 2,
    noise: float = 0.08,
    turns: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Interleaved 2-D spirals, optionally embedded in more dimensions.

    With ``num_features > 2`` the spiral plane is randomly rotated into
    the higher-dimensional space, adding irrelevant directions.
    """
    if num_features < 2:
        raise ValueError("num_features must be >= 2")
    rng = np.random.default_rng(seed)
    per_class = num_samples // num_classes
    xs, ys = [], []
    for cls in range(num_classes):
        t = rng.uniform(0.15, 1.0, size=per_class)
        angle = 2.0 * np.pi * (turns * t + cls / num_classes)
        radius = t
        pts = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        pts += rng.normal(0.0, noise, size=pts.shape)
        xs.append(pts)
        ys.append(np.full(per_class, cls, dtype=np.int64))
    x2 = np.concatenate(xs)
    y = np.concatenate(ys)
    if num_features > 2:
        basis = np.linalg.qr(rng.normal(size=(num_features, num_features)))[0][:, :2]
        x = x2 @ basis.T
    else:
        x = x2
    perm = rng.permutation(x.shape[0])
    return Dataset(x=x[perm], y=y[perm], num_classes=num_classes, name="spirals")


def make_synthetic_images(
    *,
    num_samples: int = 2000,
    num_classes: int = 10,
    channels: int = 3,
    hw: int = 8,
    noise: float = 0.35,
    seed: int = 0,
) -> Dataset:
    """Class-prototype images with structured spatial patterns.

    Each class gets a prototype built from a few random low-frequency
    sinusoidal patterns, so that convolutional features are genuinely
    useful; samples are prototypes plus per-pixel Gaussian noise and a
    random brightness shift (mimicking intra-class variation).
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, hw), np.linspace(0, 1, hw), indexing="ij")
    prototypes = np.empty((num_classes, channels, hw, hw))
    for cls in range(num_classes):
        for ch in range(channels):
            fy, fx = rng.uniform(0.5, 3.0, size=2)
            phase_y, phase_x = rng.uniform(0, 2 * np.pi, size=2)
            pattern = np.sin(2 * np.pi * fy * yy + phase_y) * np.cos(
                2 * np.pi * fx * xx + phase_x
            )
            prototypes[cls, ch] = pattern
    y = rng.integers(0, num_classes, size=num_samples)
    x = prototypes[y]  # a copy: the noise goes on in place
    x += rng.normal(0.0, noise, size=x.shape)
    x += rng.normal(0.0, 0.1, size=(num_samples, 1, 1, 1))  # brightness jitter
    return Dataset(x=x, y=y, num_classes=num_classes, name="synthetic_images")
