"""Patch extraction and scatter as ``framework/layers.py`` spelled them
before the scatter index was cached and chunked.

Kept verbatim: :func:`im2col` pads with ``np.pad`` and windows with
``sliding_window_view``; :func:`col2im` builds the whole ``n x plane`` flat
index on every call and scatters it with one ``np.bincount``.  The
production functions must return the same arrays — bytes, dtype, shape and
strides — for every geometry: ``col2im`` adds each cell's contributions in
the flattened (n, oh, ow, kh, kw, c) order, which this single pass over the
whole batch trivially does.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["im2col", "col2im"]


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> Tuple[np.ndarray, int, int]:
    n, h, w, c = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    # (n, oh_full, ow_full, c, kh, kw) with the window axes appended last.
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    oh, ow = windows.shape[1], windows.shape[2]
    cols = windows.transpose(0, 1, 2, 4, 5, 3)  # -> (n, oh, ow, kh, kw, c)
    return cols.reshape(n * oh * ow, kh * kw * c), oh, ow


def _plane_indices(c: int, hp: int, wp: int, oh: int, ow: int,
                   kh: int, kw: int, stride: int) -> np.ndarray:
    ys = stride * np.arange(oh)[:, None, None, None] + np.arange(kh)[None, None, :, None]
    xs = stride * np.arange(ow)[None, :, None, None] + np.arange(kw)[None, None, None, :]
    spatial = (ys * wp + xs).reshape(-1)  # (oh*ow*kh*kw,)
    return (spatial[:, None] * c + np.arange(c)[None, :]).reshape(-1)


def col2im(cols: np.ndarray, x_shape: Tuple[int, ...], kh: int, kw: int,
           stride: int, pad: int, oh: int, ow: int) -> np.ndarray:
    n, h, w, c = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    plane = _plane_indices(c, hp, wp, oh, ow, kh, kw, stride)
    offsets = np.arange(n, dtype=plane.dtype) * (hp * wp * c)
    idx = (offsets[:, None] + plane[None, :]).reshape(-1)
    out = np.bincount(idx, weights=cols.reshape(-1), minlength=n * hp * wp * c)
    out = out.reshape(n, hp, wp, c).astype(cols.dtype, copy=False)
    if pad:
        out = out[:, pad : pad + h, pad : pad + w, :]
    return out
