"""Conv2d and the pooling layers against naive loop references, over the
geometries the window/scatter kernels branch on and over both input
memory orders."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn import AvgPool2d, Conv2d, MaxPool2d

COMMON = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def conv_reference(x, weight, bias, grad_out_fn, stride, padding):
    """Forward, and for ``grad_out = grad_out_fn(out.shape)`` the weight,
    bias and data gradients — one output position at a time."""
    n, c, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for y in range(out_h):
        for xx in range(out_w):
            window = padded[:, :, y * stride : y * stride + kh, xx * stride : xx * stride + kw]
            out[:, :, y, xx] = np.tensordot(window, weight, axes=([1, 2, 3], [1, 2, 3]))
    if bias is not None:
        out += bias[None, :, None, None]
    grad_out = grad_out_fn(out.shape)
    grad_weight = np.zeros_like(weight)
    grad_padded = np.zeros_like(padded)
    for y in range(out_h):
        for xx in range(out_w):
            rows = slice(y * stride, y * stride + kh)
            cols = slice(xx * stride, xx * stride + kw)
            g = grad_out[:, :, y, xx]  # (N, C_out)
            grad_weight += np.tensordot(g, padded[:, :, rows, cols], axes=([0], [0]))
            grad_padded[:, :, rows, cols] += np.tensordot(g, weight, axes=([1], [0]))
    grad_x = grad_padded[:, :, padding : padding + h, padding : padding + w]
    return out, grad_out, grad_weight, grad_out.sum(axis=(0, 2, 3)), grad_x


@COMMON
@given(
    kernel=st.sampled_from([1, 2, 3]),
    stride=st.sampled_from([1, 2]),
    padding=st.sampled_from([0, 1]),
    bias=st.booleans(),
    channel_major=st.booleans(),
    batch=st.integers(1, 3),
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    height=st.integers(3, 6),
    width=st.integers(3, 6),
    seed=st.integers(0, 2**16),
)
def test_conv2d_matches_loop_reference(
    kernel, stride, padding, bias, channel_major, batch, c_in, c_out, height, width, seed
):
    rng = np.random.default_rng(seed)
    conv = Conv2d(c_in, c_out, kernel, stride=stride, padding=padding, rng=rng, bias=bias)
    if bias:
        conv.bias.value[...] = rng.normal(size=c_out)
    x = rng.normal(size=(batch, c_in, height, width))

    def in_layout(a):
        """Same values and shape, in the memory order under test."""
        if channel_major:
            return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        return np.ascontiguousarray(a)

    ref_out, grad_out, ref_gw, ref_gb, ref_gx = conv_reference(
        x,
        conv.weight.value,
        conv.bias.value if bias else None,
        lambda shape: rng.normal(size=shape),
        stride,
        padding,
    )
    out = conv.forward(in_layout(x))
    assert out.shape == ref_out.shape
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-10)

    conv.zero_grad()
    grad_x = conv.backward(in_layout(grad_out))
    assert grad_x.shape == x.shape
    np.testing.assert_allclose(grad_x, ref_gx, rtol=0, atol=1e-10)
    np.testing.assert_allclose(conv.weight.grad, ref_gw, rtol=0, atol=1e-10)
    if bias:
        np.testing.assert_allclose(conv.bias.grad, ref_gb, rtol=0, atol=1e-10)

    # Parameter gradients alone (a first layer's backward) agree too.
    conv.zero_grad()
    conv.backward_params(in_layout(grad_out))
    np.testing.assert_allclose(conv.weight.grad, ref_gw, rtol=0, atol=1e-10)


def pool_reference(x, grad_out_fn, kernel, stride, padding, mode):
    """Max/avg pooling one window at a time; a tied maximum sends the
    gradient to the first entry in row-major window order."""
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    out = np.zeros((n, c, out_h, out_w))
    for index in np.ndindex(*out.shape):
        b, ch, y, xx = index
        window = padded[b, ch, y * stride : y * stride + kernel, xx * stride : xx * stride + kernel]
        out[index] = window.max() if mode == "max" else window.mean()
    grad_out = grad_out_fn(out.shape)
    grad_padded = np.zeros_like(padded)
    for index in np.ndindex(*out.shape):
        b, ch, y, xx = index
        rows = slice(y * stride, y * stride + kernel)
        cols = slice(xx * stride, xx * stride + kernel)
        if mode == "max":
            i, j = np.unravel_index(padded[b, ch, rows, cols].argmax(), (kernel, kernel))
            grad_padded[b, ch, y * stride + i, xx * stride + j] += grad_out[index]
        else:
            grad_padded[b, ch, rows, cols] += grad_out[index] / kernel**2
    return out, grad_out, grad_padded[:, :, padding : padding + h, padding : padding + w]


@COMMON
@given(
    mode=st.sampled_from(["max", "avg"]),
    kernel=st.sampled_from([2, 3]),
    stride=st.sampled_from([1, 2, 3]),
    padding=st.sampled_from([0, 1]),
    channel_major=st.booleans(),
    size=st.integers(3, 6),
    seed=st.integers(0, 2**16),
)
def test_pooling_matches_loop_reference(mode, kernel, stride, padding, channel_major, size, seed):
    rng = np.random.default_rng(seed)
    # Few distinct values: most windows have a tied maximum.
    x = rng.integers(0, 3, size=(2, 2, size, size)).astype(np.float64)
    if channel_major:
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    pool = (MaxPool2d if mode == "max" else AvgPool2d)(kernel, stride=stride, padding=padding)
    ref_out, grad_out, ref_gx = pool_reference(
        x, lambda shape: rng.normal(size=shape), kernel, stride, padding, mode
    )
    np.testing.assert_allclose(pool.forward(x), ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pool.backward(grad_out), ref_gx, rtol=0, atol=1e-12)
