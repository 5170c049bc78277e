"""Neural-network layers with explicit forward/backward passes.

Every layer is a :class:`Module` with three obligations:

* ``forward(x, training=..., rng=...)`` computes outputs and caches whatever
  the backward pass needs.  All randomness (dropout) comes from the ``rng``
  argument — layers own no RNG state, so execution is a pure function of
  (parameters, inputs, rng).
* ``backward(grad_out)`` returns the gradient w.r.t. the input and
  *accumulates* parameter gradients into ``self.grads``.
* parameters and stateful buffers (BatchNorm moving statistics) are exposed
  through flat, name-spaced dicts so the virtual-node executor can snapshot,
  migrate, and restore them without knowing layer internals.

Shapes follow NHWC for images and (batch, seq, dim) for sequences.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.framework import initializers as init

__all__ = [
    "Module",
    "Dense",
    "Conv2D",
    "BatchNorm",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "GELU",
    "Tanh",
    "Flatten",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "Embedding",
    "MultiHeadSelfAttention",
    "TransformerBlock",
    "Residual",
    "Sequential",
    "softmax",
    "softmax_backward",
    "im2col",
    "col2im",
]


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    z = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(s: np.ndarray, grad_s: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backward through softmax given its output ``s`` and ``dL/ds``."""
    dot = np.sum(grad_s * s, axis=axis, keepdims=True)
    return s * (grad_s - dot)


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.buffers: Dict[str, np.ndarray] = {}
        self._children: List[Tuple[str, "Module"]] = []

    # -- composition -------------------------------------------------------

    def add_child(self, name: str, module: "Module") -> "Module":
        self._children.append((name, module))
        return module

    def children(self) -> Iterator[Tuple[str, "Module"]]:
        return iter(self._children)

    def modules(self) -> Iterator["Module"]:
        """Depth-first iterator over self and all descendants."""
        yield self
        for _, child in self._children:
            yield from child.modules()

    # -- parameters --------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for key, value in self.params.items():
            yield prefix + key, value
        for name, child in self._children:
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Dict[str, np.ndarray]:
        """Flat dict of all parameters, name-spaced by module path.

        With a :class:`~repro.framework.arena.FlatTensorArena` installed the
        cached arena view is returned directly — same named arrays, no
        traversal, and flat-aware consumers get the fused fast path.
        """
        arena = getattr(self, "_arena", None)
        if arena is not None:
            return arena.params
        return dict(self.named_parameters())

    def named_gradients(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for key, value in self.grads.items():
            yield prefix + key, value
        for name, child in self._children:
            yield from child.named_gradients(prefix=f"{prefix}{name}.")

    def gradients(self) -> Dict[str, np.ndarray]:
        """Flat dict of parameter gradients (same keys as ``parameters``)."""
        arena = getattr(self, "_arena", None)
        if arena is not None:
            return arena.grads
        return dict(self.named_gradients())

    def set_parameters(self, flat: Dict[str, np.ndarray]) -> None:
        """Copy values into existing parameter arrays (shape-checked)."""
        own = self.parameters()
        missing = set(own) - set(flat)
        if missing:
            raise KeyError(f"missing parameters: {sorted(missing)[:5]}")
        for key, array in own.items():
            value = np.asarray(flat[key], dtype=array.dtype)
            if value.shape != array.shape:
                raise ValueError(
                    f"parameter {key!r}: expected shape {array.shape}, got {value.shape}"
                )
            array[...] = value

    def zero_grad(self) -> None:
        arena = getattr(self, "_arena", None)
        if arena is not None:
            arena.zero_grads()
            return
        for module in self.modules():
            for key in module.grads:
                module.grads[key][...] = 0.0

    def _register(self, name: str, value: np.ndarray) -> np.ndarray:
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)
        return value

    # -- stateful buffers (BatchNorm moving statistics etc.) ----------------

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for key, value in self.buffers.items():
            yield prefix + key, value
        for name, child in self._children:
            yield from child.named_buffers(prefix=f"{prefix}{name}.")

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copies of all stateful (non-parameter) buffers.

        These are the paper's "stateful kernels" — per-virtual-node state that
        must be migrated on resize (§4.1).
        """
        return {k: v.copy() for k, v in self.named_buffers()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_buffers())
        for key, array in own.items():
            if key not in state:
                raise KeyError(f"missing buffer {key!r} in state dict")
            array[...] = np.asarray(state[key], dtype=array.dtype)

    # -- execution ----------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        *,
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray, **kwargs) -> np.ndarray:
        return self.forward(x, **kwargs)

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters().values()))


class Dense(Module):
    """Affine layer: ``y = x @ W + b`` (input may have extra leading dims)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 initializer: str = "glorot") -> None:
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        if initializer == "glorot":
            w = init.glorot_uniform(rng, (in_dim, out_dim))
        elif initializer == "he":
            w = init.he_normal(rng, (in_dim, out_dim))
        else:
            raise ValueError(f"unknown initializer {initializer!r}")
        self._register("w", w)
        self._register("b", init.zeros((out_dim,)))
        self._x: Optional[np.ndarray] = None

    def forward(self, x, *, training=False, rng=None):
        self._x = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, grad):
        x = self._x
        x2 = x.reshape(-1, self.in_dim)
        g2 = grad.reshape(-1, self.out_dim)
        self.grads["w"] += x2.T @ g2
        self.grads["b"] += g2.sum(axis=0)
        return grad @ self.params["w"].T


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


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim, self.eps = dim, eps
        self._register("gamma", init.ones((dim,)))
        self._register("beta", init.zeros((dim,)))
        self._cache: Optional[Tuple] = None

    def forward(self, x, *, training=False, rng=None):
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std)
        return self.params["gamma"] * x_hat + self.params["beta"]

    def backward(self, grad):
        x_hat, inv_std = self._cache
        reduce_axes = tuple(range(grad.ndim - 1))
        self.grads["gamma"] += np.sum(grad * x_hat, axis=reduce_axes)
        self.grads["beta"] += np.sum(grad, axis=reduce_axes)
        g = grad * self.params["gamma"]
        n = self.dim
        return (
            inv_std / n * (n * g - np.sum(g, axis=-1, keepdims=True)
                           - x_hat * np.sum(g * x_hat, axis=-1, keepdims=True))
        )


class Dropout(Module):
    """Inverted dropout; the mask comes from the caller-supplied rng.

    Because the executor passes a per-(step, virtual node) generator, dropout
    is identical across any virtual-node-to-device mapping.
    """

    def __init__(self, rate: float) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask: Optional[np.ndarray] = None

    def forward(self, x, *, training=False, rng=None):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("Dropout requires an rng during training")
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x, *, training=False, rng=None):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad):
        return grad * self._mask


class GELU(Module):
    """Gaussian error linear unit (tanh approximation, as in BERT)."""

    _C = np.sqrt(2.0 / np.pi)

    def __init__(self) -> None:
        super().__init__()
        self._cache: Optional[Tuple] = None

    def forward(self, x, *, training=False, rng=None):
        u = self._C * (x + 0.044715 * x**3)
        t = np.tanh(u)
        self._cache = (x, t)
        return 0.5 * x * (1.0 + t)

    def backward(self, grad):
        x, t = self._cache
        du_dx = self._C * (1.0 + 3 * 0.044715 * x**2)
        dt_dx = (1.0 - t**2) * du_dx
        return grad * (0.5 * (1.0 + t) + 0.5 * x * dt_dx)


class Tanh(Module):
    def __init__(self) -> None:
        super().__init__()
        self._t: Optional[np.ndarray] = None

    def forward(self, x, *, training=False, rng=None):
        self._t = np.tanh(x)
        return self._t

    def backward(self, grad):
        return grad * (1.0 - self._t**2)


class Flatten(Module):
    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x, *, training=False, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


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


class Embedding(Module):
    """Token embedding lookup: int array (B, T) -> (B, T, D)."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.vocab_size, self.dim = vocab_size, dim
        self._register("table", init.normal(rng, (vocab_size, dim)))
        self._tokens: Optional[np.ndarray] = None

    def forward(self, tokens, *, training=False, rng=None):
        tokens = np.asarray(tokens)
        if tokens.min() < 0 or tokens.max() >= self.vocab_size:
            raise ValueError("token id out of range")
        self._tokens = tokens
        return self.params["table"][tokens]

    def backward(self, grad):
        np.add.at(self.grads["table"], self._tokens, grad)
        return np.zeros_like(grad)  # no gradient flows to integer inputs


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product multi-head self-attention (B, T, D).

    With ``causal=True`` a lower-triangular mask prevents positions from
    attending to their future — the decoder-style attention used by
    autoregressive Transformers.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 causal: bool = False) -> None:
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim, self.num_heads, self.head_dim = dim, num_heads, dim // num_heads
        self.causal = causal
        self._register("wq", init.glorot_uniform(rng, (dim, dim)))
        self._register("wk", init.glorot_uniform(rng, (dim, dim)))
        self._register("wv", init.glorot_uniform(rng, (dim, dim)))
        self._register("wo", init.glorot_uniform(rng, (dim, dim)))
        self._register("bq", init.zeros((dim,)))
        self._register("bk", init.zeros((dim,)))
        self._register("bv", init.zeros((dim,)))
        self._register("bo", init.zeros((dim,)))
        self._cache: Optional[Tuple] = None

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        b, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    def forward(self, x, *, training=False, rng=None):
        p = self.params
        q = self._split(x @ p["wq"] + p["bq"])
        k = self._split(x @ p["wk"] + p["bk"])
        v = self._split(x @ p["wv"] + p["bv"])
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        if self.causal:
            t = scores.shape[-1]
            mask = np.triu(np.ones((t, t), dtype=bool), k=1)
            scores = np.where(mask, -1e30, scores)
        attn = softmax(scores, axis=-1)
        ctx = attn @ v
        merged = self._merge(ctx)
        out = merged @ p["wo"] + p["bo"]
        self._cache = (x, q, k, v, attn, merged, scale)
        return out

    def backward(self, grad):
        x, q, k, v, attn, merged, scale = self._cache
        p = self.params
        b, t, d = x.shape
        g2 = grad.reshape(-1, d)
        self.grads["wo"] += merged.reshape(-1, d).T @ g2
        self.grads["bo"] += g2.sum(axis=0)
        d_merged = grad @ p["wo"].T
        d_ctx = self._split(d_merged)
        d_attn = d_ctx @ v.transpose(0, 1, 3, 2)
        d_v = attn.transpose(0, 1, 3, 2) @ d_ctx
        d_scores = softmax_backward(attn, d_attn) * scale
        d_q = d_scores @ k
        d_k = d_scores.transpose(0, 1, 3, 2) @ q
        dx = np.zeros_like(x)
        for name, dproj in (("wq", d_q), ("wk", d_k), ("wv", d_v)):
            dflat = self._merge(dproj).reshape(-1, d)
            self.grads[name] += x.reshape(-1, d).T @ dflat
            self.grads["b" + name[1]] += dflat.sum(axis=0)
            dx += dflat.reshape(b, t, d) @ p[name].T
        return dx


class Residual(Module):
    """y = x + body(x); body is any submodule."""

    def __init__(self, body: Module) -> None:
        super().__init__()
        self.body = self.add_child("body", body)

    def forward(self, x, *, training=False, rng=None):
        return x + self.body.forward(x, training=training, rng=rng)

    def backward(self, grad):
        return grad + self.body.backward(grad)


class Sequential(Module):
    """Chain of modules executed in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for i, module in enumerate(modules):
            self.add_child(str(i), module)

    @property
    def layers(self) -> List[Module]:
        return [m for _, m in self._children]

    def forward(self, x, *, training=False, rng=None):
        for layer in self.layers:
            x = layer.forward(x, training=training, rng=rng)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


class TransformerBlock(Module):
    """Pre-LN transformer encoder block: LN→MHSA→drop→res, LN→FFN→drop→res."""

    def __init__(self, dim: int, num_heads: int, ffn_dim: int,
                 rng: np.random.Generator, dropout: float = 0.1) -> None:
        super().__init__()
        self.ln1 = self.add_child("ln1", LayerNorm(dim))
        self.attn = self.add_child("attn", MultiHeadSelfAttention(dim, num_heads, rng))
        self.drop1 = self.add_child("drop1", Dropout(dropout))
        self.ln2 = self.add_child("ln2", LayerNorm(dim))
        self.ffn = self.add_child(
            "ffn",
            Sequential(Dense(dim, ffn_dim, rng), GELU(), Dense(ffn_dim, dim, rng)),
        )
        self.drop2 = self.add_child("drop2", Dropout(dropout))

    def forward(self, x, *, training=False, rng=None):
        h = self.drop1.forward(
            self.attn.forward(self.ln1.forward(x, training=training), training=training),
            training=training, rng=rng,
        )
        x = x + h
        h2 = self.drop2.forward(
            self.ffn.forward(self.ln2.forward(x, training=training), training=training, rng=rng),
            training=training, rng=rng,
        )
        return x + h2

    def backward(self, grad):
        g2 = self.ln2.backward(self.ffn.backward(self.drop2.backward(grad)))
        grad = grad + g2
        g1 = self.ln1.backward(self.attn.backward(self.drop1.backward(grad)))
        return grad + g1
