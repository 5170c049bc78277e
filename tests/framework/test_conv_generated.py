"""``im2col`` / ``col2im`` against the spellings they replaced.

``framework/conv.py`` extracts patches through one strided window view
over a zero-filled buffer and scatters gradients through a cached index one
cache-sized chunk of examples at a time; ``tests/oracles/conv.py`` keeps
``np.pad`` + ``sliding_window_view`` and the one-``bincount``-per-call
scatter.  The contract is the same array, not a close one: bytes, dtype,
shape **and strides** (reductions downstream follow layout).  Gradient
values are drawn over forty orders of magnitude so that a cell whose
contributions were added in another order rounds differently.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import conv as oracle
from repro.framework import conv
from repro.framework.conv import col2im, im2col

# c = 8, 12x12, k = 5, "same": 28,800 index entries an example, so a chunk
# of the scatter holds exactly FAT_CHUNK examples.
FAT = dict(h=12, w=12, c=8, k=5, stride=1, pad=2)
FAT_CHUNK = conv._COL2IM_CHUNK_ENTRIES // (12 * 12 * 5 * 5 * 8)

GEOMETRY = st.fixed_dictionaries(dict(
    h=st.integers(1, 12), w=st.integers(1, 12), c=st.integers(1, 8),
    k=st.integers(1, 5), stride=st.integers(1, 3), pad=st.integers(0, 2),
)).filter(lambda g: g["k"] <= min(g["h"], g["w"]) + 2 * g["pad"])
DTYPES = st.sampled_from([np.float32, np.float64])
SEEDS = st.integers(0, 2 ** 32 - 1)


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def mixed_magnitude(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    return (rng.normal(size=shape) * np.exp(rng.uniform(-20, 20, size=shape))).astype(dtype)


def check_both(n: int, g: dict, dtype, seed: int, strided: bool) -> None:
    rng = np.random.default_rng(seed)
    h, w, c, k, stride, pad = (g[key] for key in ("h", "w", "c", "k", "stride", "pad"))
    if strided:
        # The interior of a larger buffer, like the padded view col2im
        # returns and the next layer's im2col may receive.
        x = mixed_magnitude(rng, (n, h + 2, w + 3, c + 1), dtype)[:, 1 : 1 + h, 2 : 2 + w, :c]
        assert not x.flags.c_contiguous or n * h * w == 1  # one row is contiguous
    else:
        x = mixed_magnitude(rng, (n, h, w, c), dtype)
    want_cols, want_oh, want_ow = oracle.im2col(x, k, k, stride, pad)
    cols, oh, ow = im2col(x, k, k, stride, pad)
    assert (oh, ow) == (want_oh, want_ow)
    assert_same_array(cols, want_cols)
    assert cols.flags.writeable == want_cols.flags.writeable

    # The same rows through caller-held buffers, twice: the second call pads
    # into a buffer whose interior the first one wrote.
    out = np.empty(cols.shape, dtype)
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype) if pad else None
    for value in (x, mixed_magnitude(rng, x.shape, dtype)):
        got, got_oh, got_ow = im2col(value, k, k, stride, pad, out=out, padded=padded)
        assert got is out and (got_oh, got_ow) == (oh, ow)
        assert out.tobytes() == oracle.im2col(value, k, k, stride, pad)[0].tobytes()

    dcols = mixed_magnitude(rng, cols.shape, dtype)
    assert_same_array(col2im(dcols, x.shape, k, k, stride, pad, oh, ow),
                      oracle.col2im(dcols, x.shape, k, k, stride, pad, oh, ow))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 5), g=GEOMETRY, dtype=DTYPES, seed=SEEDS, strided=st.booleans())
# stride larger than the kernel: cells no patch touches stay exactly zero.
@example(n=2, g=dict(h=7, w=9, c=2, k=1, stride=3, pad=1), dtype=np.float32, seed=0,
         strided=False)
# 1x1 kernel on a contiguous input: the patch rows are a view, not a copy.
@example(n=3, g=dict(h=4, w=4, c=3, k=1, stride=1, pad=0), dtype=np.float64, seed=1,
         strided=False)
def test_drawn_geometries_equal_the_oracle(n, g, dtype, seed, strided):
    check_both(n, g, dtype, seed, strided and g["pad"] == 0)


# Below, equal to, a multiple of, and a multiple plus a remainder of the
# number of examples one scatter chunk holds.
@pytest.mark.parametrize("n", [1, FAT_CHUNK - 1, FAT_CHUNK, FAT_CHUNK + 1,
                               2 * FAT_CHUNK, 2 * FAT_CHUNK + 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batches_on_both_sides_of_the_chunk_length(n, dtype):
    assert FAT_CHUNK == 4
    check_both(n, FAT, dtype, seed=n, strided=False)


def test_one_example_larger_than_a_chunk_scatters_whole():
    """A plane above the chunk bound is its own chunk, never split."""
    g = dict(h=24, w=24, c=10, k=5, stride=1, pad=2)
    assert 24 * 24 * 25 * 10 > conv._COL2IM_CHUNK_ENTRIES
    check_both(3, g, np.float64, seed=0, strided=False)


def test_im2col_rejects_a_kernel_larger_than_the_padded_input():
    x = np.zeros((1, 2, 5, 1))
    with pytest.raises(ValueError):
        oracle.im2col(x, 3, 3, 1, 0)
    with pytest.raises(ValueError, match="larger than padded input"):
        im2col(x, 3, 3, 1, 0)


def test_im2col_rejects_buffers_it_cannot_fill():
    x = np.ones((2, 4, 4, 3))
    rows = (2 * 4 * 4, 3 * 3 * 3)
    with pytest.raises(ValueError, match="C-contiguous out"):
        im2col(x, 3, 3, 1, 1, out=np.empty(rows[::-1]).T)  # a copy would take the rows
    with pytest.raises(ValueError, match="C-contiguous out"):
        im2col(x, 3, 3, 1, 1, out=np.empty(rows, np.float32))
    with pytest.raises(ValueError, match="padded buffer"):
        im2col(x, 3, 3, 1, 1, padded=np.zeros((2, 5, 5, 3)))
    with pytest.raises(ValueError, match="padded buffer"):
        im2col(x, 3, 3, 1, 1, padded=np.zeros((2, 6, 6, 3), np.float32))


@pytest.mark.parametrize("table", [conv._col2im_plane_indices,
                                   conv._col2im_chunk_indices])
def test_cached_index_tables_are_shared_and_read_only(table):
    geometry = (6, 10, 10, 8, 8, 3, 3, 1)
    index = table(*geometry)
    assert table(*geometry) is index  # one object for every caller ...
    assert not index.flags.writeable  # ... that none of them can edit
    with pytest.raises(ValueError, match="read-only"):
        index[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        index += 1


def test_chunk_table_is_bounded_per_geometry_and_in_count():
    index = conv._col2im_chunk_indices(6, 10, 10, 8, 8, 3, 3, 1)
    assert index.size <= conv._COL2IM_CHUNK_ENTRIES
    assert index.size % (8 * 8 * 3 * 3 * 6) == 0  # whole examples only
    bound = conv._col2im_chunk_indices.cache_info().maxsize
    assert bound * conv._COL2IM_CHUNK_ENTRIES * 8 <= 8 * 2 ** 20


def test_col2im_allocates_no_index_on_the_ledger_geometry():
    """``train_fused``'s widest scatter: 16,384 x 54 float64 patch rows into
    256 x 8 x 8 x 6.  The scatter used to build a 7.1 MB index for them on
    every call (8.3 MB traced at peak); chunked through the cached table it
    needs the 1.2 MB result and one chunk's accumulator."""
    rng = np.random.default_rng(0)
    cols = rng.normal(size=(256 * 8 * 8, 3 * 3 * 6))
    args = ((256, 8, 8, 6), 3, 3, 1, 1, 8, 8)
    col2im(cols, *args)  # the cached table is not the call's allocation
    tracemalloc.start()
    try:
        col2im(cols, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cols.nbytes / 2
