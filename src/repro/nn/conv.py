"""Convolution and pooling layers.

Shapes are ``(N, C, H, W)`` throughout; *memory* is channel-major with
the batch innermost: a ``Conv2d`` output is the ``(N, C, H, W)``-shaped
transpose view of a contiguous ``(C, H, W, N)`` buffer. That is the
order the next layer's patch gather (whole ``W x N`` runs per copy),
batch norm's per-channel rows and the element-wise layers read fastest.
Inputs of any strides are accepted.

Everything is built on two primitives in that layout: :func:`_windows`
(copying it out is the one strided copy that gathers a
``(C*kh*kw, oh*ow*N)`` patch matrix) and its adjoint :func:`_scatter`.
Convolution forward is a gather and a GEMM; so is its data gradient at
stride 1 (a convolution with the flipped kernel); only strided layers
scatter. A forward pass that keeps its patch matrix for ``backward``
gathers it whole; one that keeps nothing (:meth:`Module.predict`)
gathers and multiplies :data:`GATHER_ELEMENTS` at a time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn import initializers
from repro.nn.module import Module, Parameter

__all__ = ["Conv2d", "MaxPool2d", "GlobalAvgPool2d"]

#: Most elements a ``Conv2d`` that keeps nothing gathers at once (1 MB:
#: resident in L2, and the smallest power of two that holds one output
#: position of the widest layer in ``models.py`` at the 512-sample
#: evaluation chunk, 144 x 512). Such a layer never builds its whole
#: patch matrix — 9x its input for a 3x3 kernel, written once, read once.
GATHER_ELEMENTS = 1 << 17

Initializer = Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def _rows(x: np.ndarray) -> np.ndarray:
    """``(N, C, H, W)``-shaped ``x`` as ``(C, H*W*N)`` rows — a view when
    ``x`` is channel-major."""
    return x.transpose(1, 2, 3, 0).reshape(x.shape[1], -1)


def _images(rows: np.ndarray, c: int, h: int, w: int, n: int) -> np.ndarray:
    """Inverse of :func:`_rows`: the ``(N, C, H, W)``-shaped view."""
    return rows.reshape(c, h, w, n).transpose(3, 0, 1, 2)


def _windows(x: np.ndarray, kh: int, kw: int, stride: int, ph: int, pw: int) -> np.ndarray:
    """Every sliding window of an ``(N, C, H, W)``-shaped ``x`` of any
    strides, as a ``(C, kh, kw, oh, ow, N)`` view of a zero-padded
    channel-major buffer. Copying it (or a block of its output rows and
    columns) out is the one strided copy that gathers a patch matrix;
    ``(ow, N)`` runs are contiguous at stride 1."""
    n, c, h, w = x.shape
    oh = _out_size(h, kh, stride, ph)
    ow = _out_size(w, kw, stride, pw)
    if ph or pw:
        buf = np.zeros((c, h + 2 * ph, w + 2 * pw, n))
        buf[:, ph : ph + h, pw : pw + w, :] = x.transpose(1, 2, 3, 0)
    else:  # no copy when x is already channel-major
        buf = np.ascontiguousarray(x.transpose(1, 2, 3, 0), dtype=np.float64)
    sc, sh, sw, sn = buf.strides
    # np.ndarray(...) is as_strided without its 20 us Python wrapper.
    strides = (sc, sh, sw, sh * stride, sw * stride, sn)
    return np.ndarray((c, kh, kw, oh, ow, n), np.float64, buf, 0, strides)


def _block(column: int, oh: int, ow: int) -> tuple[int, int]:
    """``(rows, cols)`` of the output positions a transient patch matrix
    is gathered for at once, one position being ``column = C*kh*kw*N``
    elements: as many whole output rows as :data:`GATHER_ELEMENTS`
    holds, or a run of columns inside one row when a row is over it.
    The contiguous batch axis is never split, so one position is the
    least."""
    positions = max(1, GATHER_ELEMENTS // column)
    return (min(positions // ow, oh), ow) if positions >= ow else (1, positions)


def _scatter(
    patches: np.ndarray, x_shape: tuple[int, int, int, int], stride: int, padding: int
) -> np.ndarray:
    """Adjoint of :func:`_windows`: add every entry of a
    ``(C, kh, kw, oh, ow, N)`` array onto the input position its window
    entry was read from. Returns channel-major memory."""
    n, c, h, w = x_shape
    _, kh, kw, oh, ow, _ = patches.shape
    padded = np.zeros((c, h + 2 * padding, w + 2 * padding, n))
    for i in range(kh):
        rows = slice(i, i + stride * oh, stride)
        for j in range(kw):
            padded[:, rows, j : j + stride * ow : stride] += patches[:, i, j]
    return padded[:, padding : padding + h, padding : padding + w].transpose(3, 0, 1, 2)


class Conv2d(Module):
    """2-D convolution, ``(N, C_in, H, W) -> (N, C_out, H', W')``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        *,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator | None = None,
        weight_init: Initializer = initializers.he_normal,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if stride <= 0:
            raise ValueError("stride must be positive")
        if padding < 0:
            raise ValueError("padding must be non-negative")
        rng = rng if rng is not None else np.random.default_rng(0)
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(weight_init(rng, (out_channels, in_channels, kh, kw)))
        self.bias = Parameter(np.zeros(out_channels), weight_decay=False) if bias else None
        self._patches: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"Conv2d expects (N, C, H, W); got shape {x.shape}")
        if x.shape[1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {x.shape[1]}")
        kh, kw = self.kernel_size
        windows = _windows(x, kh, kw, self.stride, self.padding, self.padding)
        *_, oh, ow, n = windows.shape
        k = self.in_channels * kh * kw
        # Gather and multiply one block of output positions at a time;
        # a layer that keeps its patches gathers them as one block.
        rows, cols = (oh, ow) if self._retain else _block(k * n, oh, ow)
        buffer = np.empty(k * rows * cols * n)
        weight = self.weight.value.reshape(self.out_channels, k)
        out = np.empty((self.out_channels, oh * ow * n))
        for row in range(0, oh, rows):
            for col in range(0, ow, cols):
                block = windows[:, :, :, row : row + rows, col : col + cols]
                patches = buffer[: block.size].reshape(k, -1)
                patches.reshape(block.shape)[...] = block  # the gather: one strided copy
                start = (row * ow + col) * n
                np.matmul(weight, patches, out=out[:, start : start + patches.shape[1]])
        self._patches = patches if self._retain else None
        self._x_shape = x.shape
        if self.bias is not None:
            out += self.bias.value[:, None]
        return _images(out, self.out_channels, oh, ow, n)

    def backward_params(self, grad_out: np.ndarray) -> None:
        if self._patches is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        g2d = _rows(grad_out)
        self.weight.grad += (g2d @ self._patches.T).reshape(self.weight.shape)
        if self.bias is not None:
            self.bias.grad += g2d.sum(axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.backward_params(grad_out)
        n, c, h, w = self._x_shape
        kh, kw = self.kernel_size
        pad = self.padding
        weight = self.weight.value
        if self.stride == 1 and pad < min(kh, kw):
            # A convolution of grad_out with the flipped kernel: gather + GEMM.
            flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
            g_patches = _windows(grad_out, kh, kw, 1, kh - 1 - pad, kw - 1 - pad)
            return _images(flipped @ g_patches.reshape(flipped.shape[1], -1), c, h, w, n)
        grad_patches = weight.reshape(self.out_channels, -1).T @ _rows(grad_out)
        grad_patches = grad_patches.reshape(c, kh, kw, *grad_out.shape[2:], n)
        return _scatter(grad_patches, self._x_shape, self.stride, pad)


class MaxPool2d(Module):
    """Max pooling with kernel == window, arbitrary stride: the ``k*k``
    entries of every window are the rows of a ``(k*k, C*oh*ow*N)``
    matrix, via the convolution's windows."""

    def __init__(self, kernel_size: int, *, stride: int | None = None, padding: int = 0) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_shape: tuple[int, int, int, int] | None = None  # channel-major
        self._winner: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        windows = _windows(x, k, k, self.stride, self.padding, self.padding)
        self._x_shape = x.shape
        self._out_shape = (windows.shape[0], *windows.shape[3:])
        entries = windows.transpose(1, 2, 0, 3, 4, 5).reshape(k * k, -1)
        out = entries.max(axis=0)
        self._winner = None
        if self._retain:
            # One-hot of the first maximal entry per window (ndarray.argmax
            # semantics, without its ~20 ns per element).
            hits = entries == out
            self._winner = hits & (hits.cumsum(axis=0) == 1)
        return _images(out, *self._out_shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._winner is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel_size
        grad_entries = self._winner * _rows(grad_out).reshape(-1)
        patches = grad_entries.reshape(k, k, *self._out_shape).transpose(2, 0, 1, 3, 4, 5)
        return _scatter(patches, self._x_shape, self.stride, self.padding)


class GlobalAvgPool2d(Module):
    """Spatial global average pooling, ``(N, C, H, W) -> (N, C)``."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        grad = np.empty((c, h, w, n))  # channel-major, like every other 4-D gradient
        grad[...] = (grad_out.T / (h * w))[:, None, None, :]
        return grad.transpose(3, 0, 1, 2)
