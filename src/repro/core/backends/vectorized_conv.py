"""Vectorized kernels of the convolution family (:mod:`repro.framework.conv`): loaded by
:mod:`repro.core.backends.vectorized`'s kernel tables, bound by the contract written there."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.backends.vectorized import _STATEFUL_OK, VectorizedRun, _bwd, _fwd, _pixels
from repro.framework.conv import (BatchNorm, Conv2D, GlobalAvgPool2D, MaxPool2D, SmallCNN,
                                  col2im, im2col)

# BatchNorm's kernels read and update its moving statistics per virtual node.
_STATEFUL_OK[BatchNorm] = ("running_mean", "running_var")


def _patch_rows(run: VectorizedRun, prefix: str, x: np.ndarray, k: int, stride: int,
                pad: int) -> Tuple[np.ndarray, int, int]:
    """``im2col(x, k, k, stride, pad)`` for the convolution at ``prefix`` of ``run``.

    In a training run the rows land in that layer's own workspace
    buffer — the first step's rows, reused while ``x``'s shape and dtype
    hold and replaced when they change — and the input is padded inside
    the zero-bordered scratch shared by every layer of its geometry.
    """
    ws = run.workspace
    if ws is None:  # an inference run
        return im2col(x, k, k, stride, pad)
    padded = None
    if pad:
        key = ("padded", pad, x.shape, x.dtype)
        padded = ws.get(key)
        if padded is None:
            n, h, w, c = x.shape
            padded = ws[key] = np.zeros((n, h + 2 * pad, w + 2 * pad, c), x.dtype)
    key = ("cols", prefix)
    held = ws.get(key)
    if held is not None and held[0] == x.shape and held[1] == x.dtype:
        return im2col(x, k, k, stride, pad, out=held[2], padded=padded)
    cols, oh, ow = im2col(x, k, k, stride, pad, padded=padded)
    if not cols.flags.writeable:  # a view of x itself (a 1x1 kernel)
        cols = cols.copy()
    ws[key] = (x.shape, x.dtype, cols)
    return cols, oh, ow


@_fwd(BatchNorm)
def _batchnorm_fwd(m: BatchNorm, run: VectorizedRun, prefix: str, x):
    shape = x.shape
    gamma, beta = m.params["gamma"], m.params["beta"]
    if not run.training:
        # Inference: statistics come from the model's frozen buffers, shared
        # by every shard exactly like the reference eval loop.
        inv_std = 1.0 / np.sqrt(m.buffers["running_var"] + m.eps)
        x_hat = ((run.tiled(x) - run.tile(m.buffers["running_mean"], shape))
                 * run.tile(inv_std, shape))
        return (run.tile(gamma, shape) * x_hat + run.tile(beta, shape)).reshape(shape)
    # Training: per-virtual-node batch statistics over each node's own
    # segment — the exact shard statistics of the serial wave — with the
    # moving averages updated in place across all nodes at once.  One
    # centred pass: ``x - mean`` feeds both the variance (NumPy's own
    # ``var``: the squared deviations summed and divided by the ``intp``
    # count — their seg_mean) and ``x_hat``.
    mean = run.seg_mean(x)
    x_hat = run.tiled(x) - run.tile(mean, shape)
    sq = x_hat * x_hat
    var = run.seg_mean(sq.reshape(shape))
    mom = m.momentum
    running_mean, running_var = run.state(m, prefix)
    running_mean[...] = mom * running_mean + (1 - mom) * mean
    running_var[...] = mom * running_var + (1 - mom) * var
    inv_std = 1.0 / np.sqrt(var + m.eps)
    x_hat *= run.tile(inv_std, shape)
    run.put(prefix, x_hat, inv_std)
    # The squares are spent: the output overwrites them when it has their dtype.
    out = np.multiply(run.tile(gamma, shape), x_hat,
                      out=sq if gamma.dtype == sq.dtype else None)
    out += run.tile(beta, shape)
    return out.reshape(shape)


@_bwd(BatchNorm)
def _batchnorm_bwd(m: BatchNorm, run: VectorizedRun, prefix: str, grad, input_grad):
    x_hat, inv_std = run.get(prefix)  # x_hat as tiles, see the forward
    shape = grad.shape
    gt = run.tiled(grad)
    g = gt * run.tile(m.params["gamma"], shape)
    # inv_std / n * (n * g - sum(g) - x_hat * sum(g * x_hat)): the sums and n
    # per node, every product and difference on the reference's operands in
    # the reference's order.  ``t`` has the widest dtype any of them
    # produces, so it takes each result that would otherwise be a temporary.
    # The four sums — gamma's and beta's gradients among them — share one
    # reduction.
    t = g * x_hat
    dgamma, dbeta, sum_g, sum_gx = run.seg_sum(
        (gt * x_hat).reshape(shape), grad, g.reshape(shape), t.reshape(shape))
    run.add_grad(prefix + "gamma", dgamma)
    run.add_grad(prefix + "beta", dbeta)
    n = run.seg_counts(shape, grad.dtype)
    np.multiply(run.tile(n, shape), g, out=g)
    g -= run.tile(sum_g, shape)
    np.multiply(x_hat, run.tile(sum_gx, shape), out=t)
    np.subtract(g, t, out=t)
    return np.multiply(run.tile(inv_std / n, shape), t, out=t).reshape(shape)


@_fwd(Conv2D)
def _conv2d_fwd(m: Conv2D, run: VectorizedRun, prefix: str, x):
    k = m.kernel_size
    cols2, oh, ow = _patch_rows(run, prefix, x, k, m.stride, m.pad)
    cols = cols2.reshape(len(x), oh * ow, -1)  # (B, OH*OW, K*K*C) view
    w2 = m.params["w"].reshape(-1, m.out_channels)
    out = run.seg_matmul(cols, w2)
    tiles = run.tiled(out)
    tiles += run.tile(m.params["b"], out.shape)
    if run.training:
        run.put(prefix, x.shape, cols, oh, ow)
    return tiles.reshape(x.shape[0], oh, ow, m.out_channels)


@_bwd(Conv2D)
def _conv2d_bwd(m: Conv2D, run: VectorizedRun, prefix: str, grad, input_grad):
    x_shape, cols, oh, ow = run.get(prefix)
    k = m.kernel_size
    g3 = grad.reshape(x_shape[0], oh * ow, m.out_channels)
    w2 = m.params["w"].reshape(-1, m.out_channels)
    run.add_grad(
        prefix + "w",
        run.seg_outer(cols, g3).reshape((run.num_stacked,) + m.params["w"].shape))
    run.add_grad(prefix + "b", run.seg_sum(g3))
    if not input_grad:
        return None
    # This is the patch rows' last reader: the input-gradient rows, of the
    # same shape, overwrite them when they share their dtype (a read-only
    # ``cols`` is a view of the layer's input, which nothing may write).
    out = None
    if cols.flags.writeable and g3.dtype == cols.dtype == w2.dtype:
        out = cols
    dcols = run.seg_matmul(g3, w2.T, out=out)
    return col2im(dcols.reshape(-1, dcols.shape[-1]), x_shape, k, k,
                  m.stride, m.pad, oh, ow)


@_fwd(MaxPool2D)
def _maxpool_fwd(m: MaxPool2D, run: VectorizedRun, prefix: str, x):
    # The p x p window positions are byte-copied into contiguous planes
    # (p*p, n, h/p, w/p, C), plane dy*p+dx holding pixel (dy, dx) of every
    # window; the max and the tie mask are then elementwise over whole planes.
    p = m.pool
    n, h, w, c = x.shape
    if h % p or w % p:
        raise ValueError(f"input spatial dims {(h, w)} not divisible by pool {p}")
    planes = np.empty((p, p, n, h // p, w // p, c), x.dtype)
    _pixels(planes)[...] = _pixels(x).reshape(n, h // p, p, w // p, p).transpose(2, 4, 0, 1, 3)
    planes = planes.reshape(p * p, n, h // p, w // p, c)
    s = x.strides
    if c > 1 and 0 < s[3] < s[2] < s[1] < s[0]:
        # Channels (two or more) innermost, rows outside columns: NumPy runs
        # the reference's max as an elementwise fold over the window
        # positions in plane order, which is this one.
        out = np.maximum.reduce(planes, 0)
    else:  # a single channel, or another memory order: another fold order
        out = x.reshape(n, h // p, p, w // p, p, c).max(axis=(2, 4))
    if run.training:
        run.put(prefix, planes == out, x.shape)
    return out


@_bwd(MaxPool2D)
def _maxpool_bwd(m: MaxPool2D, run: VectorizedRun, prefix: str, grad, input_grad):
    mask, x_shape = run.get(prefix)
    p = m.pool
    n, h, w, c = x_shape
    g = grad * mask / mask.sum(0)  # every tied maximum gets its share
    dx = np.empty(x_shape, g.dtype)
    _pixels(dx).reshape(n, h // p, p, w // p, p).transpose(2, 4, 0, 1, 3)[...] = (
        _pixels(g).reshape(p, p, n, h // p, w // p))
    return dx


@_fwd(GlobalAvgPool2D)
def _gap_fwd(m: GlobalAvgPool2D, run: VectorizedRun, prefix: str, x):
    if run.training:
        run.put(prefix, x.shape)
    return x.mean(axis=(1, 2))


@_bwd(GlobalAvgPool2D)
def _gap_bwd(m: GlobalAvgPool2D, run: VectorizedRun, prefix: str, grad, input_grad):
    (shape,) = run.get(prefix)
    n, h, w, c = shape
    return np.broadcast_to(grad[:, None, None, :], shape) / (h * w)


@_fwd(SmallCNN)
def _smallcnn_fwd(m: SmallCNN, run: VectorizedRun, prefix: str, x):
    return run.forward(m.body, x, prefix + "body.")


@_bwd(SmallCNN)
def _smallcnn_bwd(m: SmallCNN, run: VectorizedRun, prefix: str, grad, input_grad):
    return run.backward(m.body, grad, prefix + "body.", input_grad)
