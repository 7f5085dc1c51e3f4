"""Conv2d and the pooling layers against naive loop references, over the
geometries the window/scatter kernels branch on and over both input
memory orders — and the block-by-block forward of a Conv2d that keeps
nothing against the one-shot forward."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.runner import EVAL_CHUNK
from repro.nn import Conv2d, MaxPool2d
from repro.nn import conv as conv_module

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


def channel_major(a):
    """Same values and shape, batch innermost in memory."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def blocks_of(rows, cols, oh, ow):
    """``(first row, first column, rows, columns)`` of every block."""
    return [
        (r, c, min(rows, oh - r), min(cols, ow - c))
        for r in range(0, oh, rows)
        for c in range(0, ow, cols)
    ]


class TestBlockGeometry:
    """``_block``: whole rows while they fit, else runs of columns
    inside a row, never less than one position, never over the budget
    unless one position is."""

    @pytest.fixture(autouse=True)
    def budget(self, monkeypatch):
        monkeypatch.setattr(conv_module, "GATHER_ELEMENTS", 1000)

    @pytest.mark.parametrize(
        "column, oh, ow, expected",
        [
            (10, 5, 5, (5, 5)),  # everything fits: one block, as retained
            (10, 20, 7, (14, 7)),  # row blocks, ragged last (6 rows)
            (100, 4, 5, (2, 5)),  # row blocks, exact
            (100, 5, 5, (2, 5)),  # row blocks, ragged last (1 row)
            (101, 3, 9, (1, 9)),  # one row exactly
            (101, 3, 10, (1, 9)),  # sub-row, ragged last (1 column)
            (300, 4, 7, (1, 3)),  # sub-row, ragged last (1 column)
            (500, 4, 6, (1, 2)),  # sub-row, exact
            (1000, 3, 3, (1, 1)),  # one position
            (1001, 3, 3, (1, 1)),  # one position is over the budget: still one
        ],
    )
    def test_rows_then_columns(self, column, oh, ow, expected):
        rows, cols = conv_module._block(column, oh, ow)
        assert (rows, cols) == expected
        assert column * rows * cols <= max(1000, column)
        # Every output position lies in exactly one block.
        covered = np.zeros((oh, ow), dtype=int)
        for r, c, nr, nc in blocks_of(rows, cols, oh, ow):
            covered[r : r + nr, c : c + nc] += 1
        assert np.all(covered == 1)


def test_budget_holds_one_position_of_the_widest_model_layer():
    """At the evaluation chunk the widest layer of ``models.py``
    (16 -> 16 channels, 3x3) is 144 x 512 doubles per output position."""
    assert 16 * 9 * EVAL_CHUNK <= conv_module.GATHER_ELEMENTS < 2 * 16 * 9 * EVAL_CHUNK


def abs_scale(x, weight, bias, stride, padding):
    """Sum of the magnitudes each output entry adds up: the scale one
    unit in the last place of its accumulation refers to."""
    return conv_reference(
        np.abs(x), np.abs(weight), None if bias is None else np.abs(bias), np.zeros, stride, padding
    )[0]


@COMMON
@given(
    kernel=st.sampled_from([(1, 1), (3, 3), (5, 5), (2, 3), (3, 1)]),
    stride=st.sampled_from([1, 2]),
    padding=st.sampled_from([0, 1, 2]),
    bias=st.booleans(),
    major=st.booleans(),
    batch=st.integers(1, 3),
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    height=st.integers(5, 9),
    width=st.integers(5, 9),
    positions=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
def test_blocked_forward_matches_one_shot_and_loop_reference(
    kernel, stride, padding, bias, major, batch, c_in, c_out, height, width, positions, seed
):
    """``predict`` under a budget of ``positions`` output positions per
    block (row blocks, sub-row blocks and ragged last blocks all occur)
    against ``forward`` (one block) and the loop reference: within
    4 ulp of what each entry accumulates, everywhere."""
    rng = np.random.default_rng(seed)
    conv = Conv2d(c_in, c_out, kernel, stride=stride, padding=padding, rng=rng, bias=bias)
    if bias:
        conv.bias.value[...] = rng.normal(size=c_out)
    x = rng.normal(size=(batch, c_in, height, width))
    column = c_in * kernel[0] * kernel[1] * batch
    given_x = channel_major(x) if major else x
    one_shot = conv.forward(given_x)
    patch = pytest.MonkeyPatch()
    try:  # not the fixture: hypothesis runs many examples per test call
        patch.setattr(conv_module, "GATHER_ELEMENTS", positions * column + column - 1)
        rows, cols = conv_module._block(column, *one_shot.shape[2:])
        assert rows * cols <= positions
        blocked = conv.predict(given_x)
    finally:
        patch.undo()
    assert conv._patches is None
    assert blocked.shape == one_shot.shape
    bias_value = conv.bias.value if bias else None
    reference = conv_reference(x, conv.weight.value, bias_value, np.zeros, stride, padding)[0]
    ulp = np.spacing(abs_scale(x, conv.weight.value, bias_value, stride, padding))
    assert np.all(np.abs(blocked - one_shot) <= 4 * ulp)
    assert np.all(np.abs(blocked - reference) <= 4 * ulp)


@pytest.mark.parametrize("positions", [1, 2, 3, 7, 8, 14, 21, 49, 50])
def test_blocked_forward_covers_every_regime(positions, monkeypatch):
    """7 x 7 outputs: 1–6 positions are sub-row blocks (2 and 3 leave a
    ragged last one), 7 and 8 are one row, 14 and 21 are blocks of 2
    and 3 rows with a ragged last one, 49 and up are one block. A
    forward that drops a ragged last block leaves its outputs unwritten
    (checked by hand for rows and for columns: 2, 3, 14 and 21 fail)."""
    rng = np.random.default_rng(positions)
    conv = Conv2d(2, 3, 3, padding=1, rng=rng)
    x = channel_major(rng.normal(size=(2, 2, 7, 7)))
    column = 2 * 9 * 2
    monkeypatch.setattr(conv_module, "GATHER_ELEMENTS", positions * column)
    rows, cols = conv_module._block(column, 7, 7)
    assert (rows, cols) == ((min(positions // 7, 7), 7) if positions >= 7 else (1, positions))
    blocked = conv.predict(x)
    one_shot = conv.forward(x)
    ulp = np.spacing(abs_scale(x, conv.weight.value, conv.bias.value, 1, 1))
    assert np.all(np.abs(blocked - one_shot) <= 4 * ulp)


def evaluated_layers(hw):
    """``(c_in, c_out, kernel, stride, padding, bias, input hw)`` of
    every Conv2d MiniResNet and MiniVGG run on ``hw x hw`` images."""
    return [
        (3, 8, 3, 1, 1, False, hw),  # MiniResNet stem
        (8, 8, 3, 1, 1, False, hw),  # stage 1 convs
        (8, 16, 3, 2, 1, False, hw),  # stage 2 conv1
        (16, 16, 3, 1, 1, False, hw // 2),  # stage 2 conv2
        (8, 16, 1, 2, 0, False, hw),  # stage 2 projection shortcut
        (3, 8, 3, 1, 1, True, hw),  # MiniVGG conv 1
        (8, 16, 3, 1, 1, True, hw // 2),  # MiniVGG conv 2
    ]


@pytest.mark.parametrize("n", [288, 400, 512])
@pytest.mark.parametrize("hw", [8, 16])
def test_blocked_forward_is_bit_equal_on_the_shapes_evaluation_runs(hw, n):
    """Under the real budget, on this host's BLAS: what ``_evaluate``
    computes is what the one-shot forward computed."""
    rng = np.random.default_rng(hw * n)
    for c_in, c_out, kernel, stride, padding, bias, size in evaluated_layers(hw):
        conv = Conv2d(c_in, c_out, kernel, stride=stride, padding=padding, rng=rng, bias=bias)
        if bias:
            conv.bias.value[...] = rng.normal(size=c_out)
        x = channel_major(rng.normal(size=(n, c_in, size, size)))
        out_size = (size + 2 * padding - kernel) // stride + 1
        rows, cols = conv_module._block(c_in * kernel * kernel * n, out_size, out_size)
        blocked = conv.predict(x)
        assert np.array_equal(blocked, conv.forward(x)), (c_in, c_out, kernel, stride, rows, cols)


def test_gather_buffer_stays_under_the_budget_when_one_row_is_9_megabytes():
    """32 x 32 images, 512 samples, 8 channels, 3x3: one output row of
    the patch matrix is 72 x 32 x 512 doubles = 9.4 MB, the whole
    matrix 302 MB. ``predict`` allocates the padded input, the output
    and one buffer of at most GATHER_ELEMENTS."""
    n, c, hw = 512, 8, 32
    conv = Conv2d(c, c, 3, padding=1, bias=False)
    x = channel_major(np.random.default_rng(0).normal(size=(n, c, hw, hw)))
    assert conv_module._block(c * 9 * n, hw, hw) == (1, 3)  # sub-row, ragged last
    padded_bytes = c * (hw + 2) * (hw + 2) * n * 8
    out_bytes = c * hw * hw * n * 8
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = conv.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, c, hw, hw)
    gathered = peak - before - padded_bytes - out_bytes
    assert 0 < gathered <= 8 * conv_module.GATHER_ELEMENTS + 4096, gathered
    # A few rows against the one-shot result of the same rows.
    rows = conv.forward(x[:, :, :5, :])
    assert np.array_equal(out[:, :, :4, :], rows[:, :, :4, :])


def pool_reference(x, grad_out_fn, kernel, stride, padding):
    """Max pooling one window at a time; a tied maximum sends the
    gradient to the first entry in row-major window order."""
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    out = np.zeros((n, c, out_h, out_w))
    for index in np.ndindex(*out.shape):
        b, ch, y, xx = index
        window = padded[b, ch, y * stride : y * stride + kernel, xx * stride : xx * stride + kernel]
        out[index] = window.max()
    grad_out = grad_out_fn(out.shape)
    grad_padded = np.zeros_like(padded)
    for index in np.ndindex(*out.shape):
        b, ch, y, xx = index
        rows = slice(y * stride, y * stride + kernel)
        cols = slice(xx * stride, xx * stride + kernel)
        i, j = np.unravel_index(padded[b, ch, rows, cols].argmax(), (kernel, kernel))
        grad_padded[b, ch, y * stride + i, xx * stride + j] += grad_out[index]
    return out, grad_out, grad_padded[:, :, padding : padding + h, padding : padding + w]


@COMMON
@given(
    kernel=st.sampled_from([2, 3]),
    stride=st.sampled_from([1, 2, 3]),
    padding=st.sampled_from([0, 1]),
    channel_major=st.booleans(),
    size=st.integers(3, 6),
    seed=st.integers(0, 2**16),
)
def test_pooling_matches_loop_reference(kernel, stride, padding, channel_major, size, seed):
    rng = np.random.default_rng(seed)
    # Few distinct values: most windows have a tied maximum.
    x = rng.integers(0, 3, size=(2, 2, size, size)).astype(np.float64)
    if channel_major:
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    pool = MaxPool2d(kernel, stride=stride, padding=padding)
    ref_out, grad_out, ref_gx = pool_reference(
        x, lambda shape: rng.normal(size=shape), kernel, stride, padding
    )
    np.testing.assert_allclose(pool.forward(x), ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pool.backward(grad_out), ref_gx, rtol=0, atol=1e-12)
