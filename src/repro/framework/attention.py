"""The attention family (batch, seq, dim): layer norm, GELU, embeddings,
multi-head self-attention, the transformer block and the encoders built
from them.  Their vectorized kernels are
:mod:`repro.core.backends.vectorized_attention`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.framework import initializers as init
from repro.framework.layers import (Dense, Dropout, Module, Sequential, Tanh, softmax,
                                    softmax_backward)

__all__ = ["LayerNorm", "GELU", "Embedding", "MultiHeadSelfAttention", "TransformerBlock",
           "TinyBert", "TinyTransformer"]


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


class TinyBert(Module):
    """A miniature BERT-style encoder classifier.

    Token + learned positional embeddings, ``num_layers`` pre-LN transformer
    blocks, mean pooling, tanh "pooler", linear head — the same architecture
    skeleton as BERT fine-tuning, at a CPU-friendly size.
    """

    def __init__(self, vocab_size: int, seq_len: int, dim: int, num_heads: int,
                 num_layers: int, num_classes: int, rng: np.random.Generator,
                 dropout: float = 0.1) -> None:
        super().__init__()
        self.vocab_size, self.seq_len, self.dim = vocab_size, seq_len, dim
        self.num_classes = num_classes
        self.tok = self.add_child("tok", Embedding(vocab_size, dim, rng))
        self.pos = self.add_child("pos", Embedding(seq_len, dim, rng))
        self.blocks = [
            self.add_child(f"block{i}", TransformerBlock(dim, num_heads, 4 * dim, rng, dropout))
            for i in range(num_layers)
        ]
        self.pooler = self.add_child("pooler", Sequential(Dense(dim, dim, rng), Tanh()))
        self.head = self.add_child("head", Dense(dim, num_classes, rng))
        self._tokens_shape: Optional[tuple] = None

    def forward(self, tokens, *, training=False, rng=None):
        tokens = np.asarray(tokens)
        b, t = tokens.shape
        if t != self.seq_len:
            raise ValueError(f"expected sequence length {self.seq_len}, got {t}")
        self._tokens_shape = tokens.shape
        x = self.tok.forward(tokens) + self.pos.forward(np.arange(t)[None, :].repeat(b, 0))
        for block in self.blocks:
            x = block.forward(x, training=training, rng=rng)
        pooled = x.mean(axis=1)
        return self.head.forward(self.pooler.forward(pooled, training=training))

    def backward(self, grad):
        g = self.pooler.backward(self.head.backward(grad))
        b, t = self._tokens_shape
        g = np.broadcast_to(g[:, None, :], (b, t, self.dim)) / t
        g = np.ascontiguousarray(g)
        for block in reversed(self.blocks):
            g = block.backward(g)
        self.pos.backward(g)
        return self.tok.backward(g)


class TinyTransformer(TinyBert):
    """Stand-in for the WMT14 Transformer: same skeleton, deeper/wider defaults."""

    def __init__(self, vocab_size: int = 64, seq_len: int = 16, dim: int = 32,
                 num_heads: int = 4, num_layers: int = 2, num_classes: int = 8,
                 rng: Optional[np.random.Generator] = None, dropout: float = 0.1) -> None:
        if rng is None:
            raise ValueError("TinyTransformer requires an rng")
        super().__init__(vocab_size, seq_len, dim, num_heads, num_layers,
                         num_classes, rng, dropout)
