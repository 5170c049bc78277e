"""``VectorizedRun.seg_sum`` / ``seg_mean`` against per-segment NumPy.

The reference loop reduces each virtual node's shard on its own:
``np.sum`` / ``np.mean`` over every axis but the channel axis.  The fused
run reduces channel axes of ``C >= 2`` node-interleaved and a single
channel over stacked slices; both must give each node exactly the
reference's bytes.  Values span twelve orders of magnitude and both signs,
so any change in the order terms are added in shows up in the last bits;
tables are uneven and may hold empty segments.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.backends.vectorized import VectorizedRun
from repro.core.sharding import size_runs

WIDTHS = [1, 2, 3, 6, 17, 31, 32, 33, 64, 128]


def _segments(sizes):
    bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def _tensor(rng, shape, dtype):
    return (rng.normal(size=shape) * np.exp(rng.uniform(-14, 14, size=shape))).astype(dtype)


def _reference(t, segments, reduce):
    axes = tuple(range(t.ndim - 1))
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)  # the mean of an empty shard
        return [reduce(t[start:end], axis=axes) for start, end in segments]


def _assert_rows_equal(got, want_rows):
    assert got.shape == (len(want_rows),) + want_rows[0].shape
    for row, want in zip(got, want_rows):
        assert row.dtype == want.dtype
        assert row.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(0, 7), min_size=1, max_size=6).filter(any),
       c=st.sampled_from(WIDTHS),
       inner=st.sampled_from([(), (5,), (3, 4)]),  # 2-, 3- and 4-D tensors
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(sizes=[4, 4, 4, 4], c=6, inner=(8, 8), dtype=np.float64, seed=0)
@example(sizes=[5, 0, 3, 3, 0], c=2, inner=(3, 4), dtype=np.float32, seed=1)
@example(sizes=[7, 1, 1, 6], c=31, inner=(5,), dtype=np.float64, seed=2)
@example(sizes=[3, 3, 2], c=32, inner=(), dtype=np.float32, seed=3)
def test_sum_and_mean_equal_the_reference_per_segment(sizes, c, inner, dtype, seed):
    rng = np.random.default_rng(seed)
    t = _tensor(rng, (sum(sizes),) + inner + (c,), dtype)
    segments = _segments(sizes)
    run = VectorizedRun(size_runs(sizes), training=True)
    with np.errstate(invalid="ignore"):
        means = run.seg_mean(t)
    _assert_rows_equal(run.seg_sum(t), _reference(t, segments, np.sum))
    _assert_rows_equal(means, _reference(t, segments, np.mean))
    # The width rule: every channel axis but a single channel interleaves.
    assert any(key[0] == "sum" for key in run.workspace) == (c >= 2)


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(0, 6), min_size=1, max_size=5).filter(any),
       c=st.sampled_from(WIDTHS),
       dtypes=st.lists(st.sampled_from([np.float32, np.float64]), min_size=2, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(sizes=[4, 4], c=6, dtypes=[np.float64] * 4, seed=0)  # BatchNorm's four sums
def test_several_tensors_sum_as_each_alone(sizes, c, dtypes, seed):
    rng = np.random.default_rng(seed)
    shape = (sum(sizes), 2, 3, c)
    ts = [_tensor(rng, shape, dtype) for dtype in dtypes]
    segments = _segments(sizes)
    run = VectorizedRun(size_runs(sizes), training=True)
    sums = run.seg_sum(*ts)
    assert len(sums) == len(ts)
    for got, t in zip(sums, ts):
        _assert_rows_equal(got, _reference(t, segments, np.sum))
    one_reduction = c >= 2 and len(set(dtypes)) == 1
    assert isinstance(sums, np.ndarray) == one_reduction


def _strided(t, layout):
    """``t``'s values in a non-contiguous array of the given layout."""
    if layout == "interior":  # the padded view col2im returns
        pad = np.full((t.shape[0],) + tuple(d + 2 for d in t.shape[1:-1]) + t.shape[-1:],
                      np.nan, t.dtype)
        view = pad[(slice(None),) + (slice(1, -1),) * (t.ndim - 2)]
    else:  # every other channel: a last axis of non-unit stride
        pad = np.full(t.shape[:-1] + (2 * t.shape[-1],), np.nan, t.dtype)
        view = pad[..., ::2]
    view[...] = t
    return view


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(0, 6), min_size=1, max_size=5).filter(any),
       c=st.sampled_from(WIDTHS),
       inner=st.sampled_from([(), (5,), (3, 4)]),
       layouts=st.lists(st.sampled_from(["contiguous", "interior", "channels"]),
                        min_size=1, max_size=3),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(sizes=[16] * 4, c=6, inner=(8, 8), layouts=["interior", "channels"],
         dtype=np.float64, seed=0)
@example(sizes=[5, 0, 3], c=2, inner=(3, 4), layouts=["channels"], dtype=np.float32,
         seed=1)
def test_strided_inputs_sum_as_their_bytes(sizes, c, inner, layouts, dtype, seed):
    """The interleave copies move whole pixels out of any layout: the
    interior of a padded array and a channel slice of stride two sum, alone
    or together, to per-segment NumPy's bytes."""
    rng = np.random.default_rng(seed)
    shape = (sum(sizes),) + inner + (c,)
    ts = [_tensor(rng, shape, dtype) for _ in layouts]
    views = [t if layout == "contiguous" else _strided(t, layout)
             for t, layout in zip(ts, layouts)]
    segments = _segments(sizes)
    run = VectorizedRun(size_runs(sizes), training=True)
    sums = run.seg_sum(*views)
    if len(views) == 1:
        sums = [sums]
    for got, view in zip(sums, views):
        _assert_rows_equal(got, _reference(view, segments, np.sum))
    for view, t in zip(views, ts):  # and the same bytes as the contiguous input's
        _assert_rows_equal(run.seg_sum(view), _reference(t, segments, np.sum))


def test_one_channel_is_never_interleaved():
    """At C = 1 the reference sums a contiguous run pairwise; the interleaved
    (sequential) sum of the same values differs, so C = 1 must take the
    stacked path — pinned on an input where the two disagree."""
    rng = np.random.default_rng(0)
    sizes = [300, 300]
    t = _tensor(rng, (600, 1), np.float64)
    want = _reference(t, _segments(sizes), np.sum)
    sequential = np.add.reduce(t.reshape(2, 300, 1).transpose(1, 0, 2).copy(), 0)
    assert sequential.tobytes() != np.stack(want).tobytes()  # the pin has teeth
    ws = {}
    _assert_rows_equal(VectorizedRun(size_runs(sizes), training=True,
                                     workspace=ws).seg_sum(t), want)
    assert not ws


@pytest.mark.parametrize("c", [2, 6, 64])
def test_interleave_buffers_are_reused_and_shared_by_geometry(c):
    rng = np.random.default_rng(c)
    ws = {}
    run = VectorizedRun(size_runs([3, 3, 2, 2]), training=True, workspace=ws)
    run.seg_sum(_tensor(rng, (10, 4, 4, c), np.float64))
    held = {key: value[0] for key, value in ws.items()}
    assert len(held) == 2  # one buffer per run of equal-size segments
    run.seg_sum(_tensor(rng, (10, 16, c), np.float64))  # same (n, count, C)
    run.seg_mean(_tensor(rng, (10, 4, 4, c), np.float64))
    assert set(ws) == set(held)
    assert all(ws[key][0] is buf for key, buf in held.items())
