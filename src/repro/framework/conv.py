"""The convolution family (NHWC): patch geometry, Conv2D, BatchNorm, the
poolings and the residual CNN built from them.  Their vectorized kernels
are :mod:`repro.core.backends.vectorized_conv`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.framework import initializers as init
from repro.framework.layers import Dense, Module, ReLU, Residual, Sequential

__all__ = ["Conv2D", "BatchNorm", "MaxPool2D", "GlobalAvgPool2D", "SmallCNN", "im2col",
           "col2im"]


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int,
           out: Optional[np.ndarray] = None,
           padded: Optional[np.ndarray] = None) -> Tuple[np.ndarray, int, int]:
    """Expand NHWC input into (N*OH*OW, KH*KW*C) patch rows.

    Patch extraction is one read-only strided window view over the
    zero-padded input (any strides — the input may itself be a padded view);
    the single copy materializes the C-contiguous GEMM rows in
    (n, oh, ow, kh, kw, c) element order.  Exposed publicly (together with
    :func:`col2im`) so the vectorized execution backend can run stacked wave
    groups through the exact same patch geometry the serial layer uses.

    A caller that runs the same geometry every step may hand in its buffers:
    ``out``, a C-contiguous array of the rows' size and ``x``'s dtype,
    receives the rows (and is returned); ``padded``, an ``(n, h + 2*pad, w + 2*pad, c)`` array of
    ``x``'s dtype whose border is zero, receives the input — only its
    interior is written, so the border stays zero for the next call.
    """
    n, h, w, c = x.shape
    if pad:
        if padded is None:
            padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        elif padded.shape != (n, h + 2 * pad, w + 2 * pad, c) or padded.dtype != x.dtype:
            raise ValueError(f"padded buffer {padded.shape} {padded.dtype} does not "
                             f"fit a {x.dtype} input {x.shape} padded by {pad}")
        padded[:, pad : pad + h, pad : pad + w, :] = x
        x, h, w = padded, h + 2 * pad, w + 2 * pad
    if kh > h or kw > w:
        raise ValueError(f"kernel {(kh, kw)} larger than padded input {(h, w)}")
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    sn, sh, sw, sc = x.strides
    windows = as_strided(x, (n, oh, ow, kh, kw, c),
                         (sn, sh * stride, sw * stride, sh, sw, sc), writeable=False)
    if out is None:
        return windows.reshape(n * oh * ow, kh * kw * c), oh, ow
    # A non-contiguous buffer would reshape to a copy and the rows be lost.
    if not out.flags.c_contiguous or out.dtype != x.dtype:
        raise ValueError("im2col needs a C-contiguous out buffer of the input's dtype")
    out.reshape(n, oh, ow, kh, kw, c)[...] = windows
    return out, oh, ow


def _read_only(table: np.ndarray) -> np.ndarray:
    """A read-only view for an ``lru_cache`` to hand to every caller; the
    writeable buffer (``table`` must own its data) stays reachable as
    ``.base`` for the owner alone."""
    view = table.view()
    view.setflags(write=False)
    return view


# Flat-index entries per col2im scatter chunk.  A constant, not a knob: hot
# scatter time is flat from 2**14 to 2**22 entries (np.bincount dominates);
# 2**17 keeps a cached table at 1 MB of int64 and the chunk loop at a
# handful of calls for batches of a few hundred 8x8 feature maps.
_COL2IM_CHUNK_ENTRIES = 1 << 17


@lru_cache(maxsize=128)
def _col2im_plane_indices(c: int, hp: int, wp: int, oh: int, ow: int,
                          kh: int, kw: int, stride: int) -> np.ndarray:
    """Flat one-example (hp, wp, c) index of every (p, q, i, j, ch) patch
    contribution.  Independent of the batch size — the cached footprint is
    O(oh*ow*kh*kw*c).  Read-only: every caller shares the cached array."""
    ys = stride * np.arange(oh)[:, None, None, None] + np.arange(kh)[None, None, :, None]
    xs = stride * np.arange(ow)[None, :, None, None] + np.arange(kw)[None, None, None, :]
    spatial = (ys * wp + xs).reshape(-1)  # (oh*ow*kh*kw,)
    return _read_only((spatial[:, None] * c + np.arange(c)[None, :]).flatten())


@lru_cache(maxsize=8)
def _col2im_chunk_indices(c: int, hp: int, wp: int, oh: int, ow: int,
                          kh: int, kw: int, stride: int) -> np.ndarray:
    """The plane index repeated, with per-example offsets, for as many whole
    examples as fit in ``_COL2IM_CHUNK_ENTRIES`` (at least one).  Read-only
    and shared like the plane table; at 1 MB a table the cache holds eight
    geometries, not the plane cache's 128."""
    plane = _col2im_plane_indices(c, hp, wp, oh, ow, kh, kw, stride)
    examples = _COL2IM_CHUNK_ENTRIES // plane.size
    if examples <= 1:
        return plane
    offsets = np.arange(examples, dtype=plane.dtype) * (hp * wp * c)
    return _read_only((offsets[:, None] + plane[None, :]).flatten())


def col2im(cols: np.ndarray, x_shape: Tuple[int, ...], kh: int, kw: int,
           stride: int, pad: int, oh: int, ow: int) -> np.ndarray:
    """Scatter (N*OH*OW, KH*KW*C) patch-row gradients back to NHWC.

    A vectorized scatter-add (``np.bincount`` over a cached flat index)
    instead of a Python ``kh x kw`` slice loop, run one cache-sized chunk of
    whole examples at a time into slices of one output.  Guaranteed:

    * accumulation per output cell is float64 and follows the flattened
      (n, oh, ow, kh, kw, c) element order, which only mixes contributions
      from the same example — so the result for any contiguous row range
      equals running the scatter on that range alone (the property both the
      chunking and the segmented wave kernels rely on);
    * the result has ``cols.dtype`` and is C-contiguous (n, hp, wp, c) when
      ``pad == 0``, else the interior view of that padded array — reductions
      downstream follow this layout;
    * no index is built per call: the scatter reads a cached chunk table of
      at most ``_COL2IM_CHUNK_ENTRIES`` entries (one plane, if that is
      larger), kept for at most eight geometries.
    """
    n, h, w, c = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    # np.bincount copies an index it may not write to (it asks NumPy for a
    # writeable array): scatter through the table's own buffer.
    index = _col2im_chunk_indices(c, hp, wp, oh, ow, kh, kw, stride).base
    rows, cells = oh * ow * kh * kw * c, hp * wp * c  # per example: in, out
    step = index.size // rows
    flat = cols.reshape(-1)
    out = np.empty(n * cells, dtype=cols.dtype)
    for start in range(0, n, step):
        stop = start + step if start + step < n else n  # the last chunk may be short
        out[start * cells : stop * cells] = np.bincount(
            index[: (stop - start) * rows], weights=flat[start * rows : stop * rows],
            minlength=(stop - start) * cells)
    out = out.reshape(n, hp, wp, c)
    if pad:
        out = out[:, pad : pad + h, pad : pad + w, :]
    return out


class Conv2D(Module):
    """2-D convolution (NHWC), implemented with im2col for vectorized GEMM."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, padding: str = "same") -> None:
        super().__init__()
        if padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
        if padding == "same" and kernel_size % 2 == 0:
            raise ValueError("'same' padding requires an odd kernel size")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = (kernel_size - 1) // 2 if padding == "same" else 0
        self._register("w", init.he_normal(rng, (kernel_size, kernel_size, in_channels, out_channels)))
        self._register("b", init.zeros((out_channels,)))
        self._cache: Optional[Tuple] = None

    def forward(self, x, *, training=False, rng=None):
        k = self.kernel_size
        cols, oh, ow = im2col(x, k, k, self.stride, self.pad)
        w2 = self.params["w"].reshape(-1, self.out_channels)
        out = cols @ w2 + self.params["b"]
        self._cache = (x.shape, cols, oh, ow)
        return out.reshape(x.shape[0], oh, ow, self.out_channels)

    def backward(self, grad):
        x_shape, cols, oh, ow = self._cache
        k = self.kernel_size
        g2 = grad.reshape(-1, self.out_channels)
        w2 = self.params["w"].reshape(-1, self.out_channels)
        self.grads["w"] += (cols.T @ g2).reshape(self.params["w"].shape)
        self.grads["b"] += g2.sum(axis=0)
        dcols = g2 @ w2.T
        return col2im(dcols, x_shape, k, k, self.stride, self.pad, oh, ow)


class BatchNorm(Module):
    """Batch normalization over all axes except the last (channel) axis.

    The moving mean/variance buffers are the canonical example of the paper's
    "stateful kernels": they are updated during training without gradient
    synchronization, belong to virtual-node state, and must be migrated via
    all-gather when a job is resized (§4.1).
    """

    def __init__(self, dim: int, momentum: float = 0.9, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim, self.momentum, self.eps = dim, momentum, eps
        self._register("gamma", init.ones((dim,)))
        self._register("beta", init.zeros((dim,)))
        self.buffers["running_mean"] = init.zeros((dim,))
        self.buffers["running_var"] = init.ones((dim,))
        self._cache: Optional[Tuple] = None

    def forward(self, x, *, training=False, rng=None):
        axes = tuple(range(x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.buffers["running_mean"][...] = m * self.buffers["running_mean"] + (1 - m) * mean
            self.buffers["running_var"][...] = m * self.buffers["running_var"] + (1 - m) * var
        else:
            mean = self.buffers["running_mean"]
            var = self.buffers["running_var"]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std, training, x.shape)
        return self.params["gamma"] * x_hat + self.params["beta"]

    def backward(self, grad):
        x_hat, inv_std, training, shape = self._cache
        axes = tuple(range(grad.ndim - 1))
        self.grads["gamma"] += np.sum(grad * x_hat, axis=axes)
        self.grads["beta"] += np.sum(grad, axis=axes)
        g = grad * self.params["gamma"]
        if not training:
            return g * inv_std
        n = float(np.prod([shape[a] for a in axes]))
        return (
            inv_std / n * (n * g - np.sum(g, axis=axes) - x_hat * np.sum(g * x_hat, axis=axes))
        )


class MaxPool2D(Module):
    """Non-overlapping max pooling (kernel == stride), NHWC."""

    def __init__(self, pool: int = 2) -> None:
        super().__init__()
        self.pool = pool
        self._cache: Optional[Tuple] = None

    def forward(self, x, *, training=False, rng=None):
        p = self.pool
        n, h, w, c = x.shape
        if h % p or w % p:
            raise ValueError(f"input spatial dims {(h, w)} not divisible by pool {p}")
        xr = x.reshape(n, h // p, p, w // p, p, c)
        out = xr.max(axis=(2, 4))
        mask = xr == out[:, :, None, :, None, :]
        # Every tied maximum of a window is marked; backward shares the
        # window's gradient equally among them (mask / counts).
        flat = mask.reshape(n, h // p, p, w // p, p, c)
        self._cache = (flat, x.shape)
        return out

    def backward(self, grad):
        mask, x_shape = self._cache
        n, h, w, c = x_shape
        counts = mask.sum(axis=(2, 4), keepdims=True)
        g = grad[:, :, None, :, None, :] * mask / counts
        return g.reshape(n, h, w, c)


class GlobalAvgPool2D(Module):
    """Mean over spatial dims: (N, H, W, C) -> (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x, *, training=False, rng=None):
        self._shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad):
        n, h, w, c = self._shape
        return np.broadcast_to(grad[:, None, None, :], self._shape) / (h * w)


class SmallCNN(Module):
    """A miniature residual CNN (stand-in for ResNet-50/56).

    conv-BN-ReLU stem, one residual block per stage with max-pool
    downsampling, global average pooling, and a linear head.  BatchNorm gives
    it the "stateful kernel" behaviour the resize-migration path must handle.
    """

    def __init__(self, image_size: int, channels: int, num_classes: int,
                 rng: np.random.Generator, width: int = 8, stages: int = 2) -> None:
        super().__init__()
        if image_size % (2 ** stages):
            raise ValueError(f"image_size {image_size} not divisible by 2^{stages}")
        self.image_size, self.channels, self.num_classes = image_size, channels, num_classes
        layers = [
            Conv2D(channels, width, 3, rng),
            BatchNorm(width),
            ReLU(),
        ]
        for _ in range(stages):
            layers.append(
                Residual(Sequential(
                    Conv2D(width, width, 3, rng),
                    BatchNorm(width),
                    ReLU(),
                    Conv2D(width, width, 3, rng),
                    BatchNorm(width),
                ))
            )
            layers.append(ReLU())
            layers.append(MaxPool2D(2))
        layers += [GlobalAvgPool2D(), Dense(width, num_classes, rng)]
        self.body = self.add_child("body", Sequential(*layers))

    def forward(self, x, *, training=False, rng=None):
        return self.body.forward(x, training=training, rng=rng)

    def backward(self, grad):
        return self.body.backward(grad)
