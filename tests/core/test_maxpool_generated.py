"""The fused MaxPool kernels against ``layers.MaxPool2D``, byte for byte.

The fused forward byte-copies the ``p x p`` window positions into
contiguous planes and folds them with elementwise ``np.maximum``; the
backward shares each window's gradient among its tied maxima on the planes
and byte-copies the result back into place.  The reference layer reduces
``xr.max(axis=(2, 4))`` over a 6-D view.  Both must produce the same bytes:
the sign of a zero that ties another zero, and a NaN's sign and payload,
included.  Inputs are drawn from a palette heavy in ties, ±0 and NaNs, in
strided layouts, under uneven segment tables (which a pool ignores: it is
per example).

Where NumPy does not run the reference's max as that fold — one channel, or
channels that are not the innermost memory axis — the kernel keeps the
reference's ``max``; the layouts below include both kinds, and
``test_every_tie_pattern`` holds each to the layer on every ±0 / NaN window.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.backends.vectorized import VectorizedRun
from repro.core.sharding import size_runs
from repro.framework.conv import MaxPool2D

DTYPES = {np.float32: np.uint32, np.float64: np.uint64}


def _nans(rng, n, dtype):
    """``n`` NaNs of ``dtype`` with random signs and payloads."""
    bits = DTYPES[dtype]
    width = 8 * np.dtype(dtype).itemsize
    mantissa = 23 if dtype is np.float32 else 52
    exponent = ((1 << (width - 1 - mantissa)) - 1) << mantissa
    payload = rng.integers(1, 1 << mantissa, size=n, dtype=np.uint64).astype(bits)
    sign = rng.integers(0, 2, size=n, dtype=np.uint64).astype(bits) << bits(width - 1)
    return (payload | bits(exponent) | sign).view(dtype)


def _values(rng, shape, dtype, any_nan):
    """Mostly ties: a small palette of ±0, ±1, 2.5 and NaN, plus noise."""
    palette = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.nan], dtype)
    x = palette[rng.integers(0, len(palette), size=shape)]
    noisy = rng.random(shape) < 0.3
    x[noisy] = (rng.normal(size=noisy.sum()) * 10).astype(dtype)
    if any_nan:
        odd = rng.random(shape) < 0.1
        x[odd] = _nans(rng, int(odd.sum()), dtype)
    return x


CHANNELS_LAST = ["contiguous", "interior", "channels"]
LAYOUTS = CHANNELS_LAST + ["channels-first", "columns-first", "flipped"]


def _layout(x, layout):
    """``x``'s values in a strided array when ``layout`` asks for one."""
    if layout == "contiguous":
        return x
    n, h, w, c = x.shape
    if layout == "interior":  # the padded view col2im returns
        big = np.full((n, h + 2, w + 3, c), 7.0, x.dtype)
        big[:, 1:1 + h, 2:2 + w] = x
        view = big[:, 1:1 + h, 2:2 + w]
    elif layout == "channels":  # every other channel: a last axis of non-unit stride
        big = np.full((n, h, w, 2 * c), 7.0, x.dtype)
        big[..., ::2] = x
        view = big[..., ::2]
    elif layout == "channels-first":  # NCHW memory
        view = np.ascontiguousarray(x.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)
    elif layout == "columns-first":  # NWHC memory
        view = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
    else:  # rows stored bottom-up
        view = np.ascontiguousarray(x[:, ::-1])[:, ::-1]
    assert view.tobytes() == x.tobytes()
    return view


def _assert_same_array(got, want, strides=True):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert not strides or got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def _check(x, grad, pool, sizes, layout):
    layer = MaxPool2D(pool)
    run = VectorizedRun(size_runs(sizes), training=True)
    with np.errstate(invalid="ignore"):  # a NaN window has no maximum to share
        out = run.forward(layer, x)
        dx = run.backward(layer, grad)
        want_out = layer.forward(x, training=True)
        want_dx = layer.backward(grad)
    _assert_same_array(out, want_out)
    # The layer's gradient follows its input's memory order; the kernel's
    # is C-contiguous, the order every other kernel produces.
    _assert_same_array(dx, want_dx, strides=layout in CHANNELS_LAST)


@settings(max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(any),
       pool=st.sampled_from([2, 3]),
       windows=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       c=st.sampled_from([1, 2, 3, 6, 8]),
       dtype=st.sampled_from([np.float32, np.float64]),
       layout=st.sampled_from(LAYOUTS),
       seed=st.integers(0, 2 ** 32 - 1))
@example(sizes=[16] * 4, pool=2, windows=(4, 4), c=6, dtype=np.float64,
         layout="contiguous", seed=0)  # the ResNet's first pool, 4 nodes' worth
@example(sizes=[5, 0, 2, 1], pool=3, windows=(2, 1), c=1, dtype=np.float32,
         layout="interior", seed=1)
@example(sizes=[3, 1], pool=2, windows=(1, 3), c=6, dtype=np.float64,
         layout="channels", seed=2)
def test_forward_and_backward_equal_the_layer(sizes, pool, windows, c, dtype,
                                              layout, seed):
    rng = np.random.default_rng(seed)
    shape = (sum(sizes), windows[0] * pool, windows[1] * pool, c)
    x = _layout(_values(rng, shape, dtype, any_nan=True), layout)
    grad_shape = (shape[0], windows[0], windows[1], c)
    grad = _values(rng, grad_shape, dtype, any_nan=True)
    _check(x, grad, pool, sizes, layout)


@pytest.mark.parametrize("layout", ["contiguous", "channels-first", "columns-first"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c", [1, 2, 6])
@pytest.mark.parametrize("pool, palette", [
    (2, (0.0, -0.0, np.nan)),  # 81 windows
    (3, (0.0, -0.0)),  # 512 windows
])
@pytest.mark.parametrize("windows", [1, 2])
def test_every_tie_pattern(windows, pool, palette, c, dtype, layout):
    """Every assignment of the palette to a window's positions, in images
    of one window and of 2 x 2 copies of it: the fold meets ±0 and NaN in
    the reference's order wherever it runs."""
    patterns = np.array(list(itertools.product(palette, repeat=pool * pool)), dtype)
    x = np.repeat(patterns.reshape(-1, pool, pool, 1), c, axis=3)
    x = _layout(np.tile(x, (1, windows, windows, 1)), layout)
    grad_shape = (len(x), windows, windows, c)
    grad = np.random.default_rng(c).normal(size=grad_shape).astype(dtype)
    _check(x, grad, pool, [len(x) // 2, len(x) - len(x) // 2], layout)


class _NoMax(np.ndarray):
    def max(self, *args, **kwargs):
        raise AssertionError("the reference's max ran")


def test_the_fold_runs_on_channels_last_inputs():
    """The ResNet's layout takes the fold, not the reference's ``max``."""
    x = np.random.default_rng(0).normal(size=(4, 8, 8, 6))
    grad = np.random.default_rng(1).normal(size=(4, 4, 4, 6))
    layer = MaxPool2D(2)
    want_out = layer.forward(x, training=True)
    want_dx = layer.backward(grad)
    run = VectorizedRun([(1, 1), (3, 1)], training=True)
    out = run.forward(layer, x.view(_NoMax))
    _assert_same_array(out, want_out)
    _assert_same_array(run.backward(layer, grad), want_dx)
    with pytest.raises(AssertionError, match="reference's max"):  # the probe works
        run.forward(layer, x[..., :1].view(_NoMax))


def test_indivisible_input_is_rejected():
    run = VectorizedRun([(2, 1)], training=True)
    with pytest.raises(ValueError, match="not divisible by pool 2"):
        run.forward(MaxPool2D(2), np.zeros((2, 4, 5, 3)))
