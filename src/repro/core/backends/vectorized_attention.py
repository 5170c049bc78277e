"""Vectorized kernels of the attention family (:mod:`repro.framework.attention`): loaded by
:mod:`repro.core.backends.vectorized`'s kernel tables, bound by the contract written there."""

from __future__ import annotations

import numpy as np

from repro.core.backends.vectorized import VectorizedRun, _bwd, _fwd
from repro.framework.attention import (GELU, Embedding, LayerNorm, MultiHeadSelfAttention,
                                       TinyBert, TransformerBlock)
from repro.framework.layers import softmax, softmax_backward


@_fwd(GELU)
def _gelu_fwd(m: GELU, run: VectorizedRun, prefix: str, x):
    u = GELU._C * (x + 0.044715 * x**3)
    t = np.tanh(u)
    if run.training:
        run.put(prefix, x, t)
    return 0.5 * x * (1.0 + t)


@_bwd(GELU)
def _gelu_bwd(m: GELU, run: VectorizedRun, prefix: str, grad, input_grad):
    x, t = run.get(prefix)
    du_dx = GELU._C * (1.0 + 3 * 0.044715 * x**2)
    dt_dx = (1.0 - t**2) * du_dx
    return grad * (0.5 * (1.0 + t) + 0.5 * x * dt_dx)


@_fwd(LayerNorm)
def _layernorm_fwd(m: LayerNorm, run: VectorizedRun, prefix: str, x):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + m.eps)
    x_hat = (x - mean) * inv_std
    if run.training:
        run.put(prefix, x_hat, inv_std)
    return m.params["gamma"] * x_hat + m.params["beta"]


@_bwd(LayerNorm)
def _layernorm_bwd(m: LayerNorm, run: VectorizedRun, prefix: str, grad, input_grad):
    x_hat, inv_std = run.get(prefix)
    run.add_grad(prefix + "gamma", run.seg_sum(grad * x_hat))
    run.add_grad(prefix + "beta", run.seg_sum(grad))
    g = grad * m.params["gamma"]
    n = m.dim
    return (
        inv_std / n * (n * g - np.sum(g, axis=-1, keepdims=True)
                       - x_hat * np.sum(g * x_hat, axis=-1, keepdims=True))
    )


@_fwd(Embedding)
def _embedding_fwd(m: Embedding, run: VectorizedRun, prefix: str, tokens):
    tokens = np.asarray(tokens)
    if tokens.min() < 0 or tokens.max() >= m.vocab_size:
        raise ValueError("token id out of range")
    if run.training:
        run.put(prefix, tokens)
    return m.params["table"][tokens]


@_bwd(Embedding)
def _embedding_bwd(m: Embedding, run: VectorizedRun, prefix: str, grad, input_grad):
    (tokens,) = run.get(prefix)
    table_grads = np.zeros((run.num_stacked,) + m.params["table"].shape,
                           dtype=grad.dtype)
    for i, (start, end) in enumerate(run.segments):
        np.add.at(table_grads[i], tokens[start:end], grad[start:end])
    run.add_grad(prefix + "table", table_grads)
    if not input_grad:
        return None
    return np.zeros_like(grad)  # no gradient flows to integer inputs


def _split_heads(m: MultiHeadSelfAttention, x: np.ndarray) -> np.ndarray:
    b, t, _ = x.shape
    return x.reshape(b, t, m.num_heads, m.head_dim).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)


@_fwd(MultiHeadSelfAttention)
def _mhsa_fwd(m: MultiHeadSelfAttention, run: VectorizedRun, prefix: str, x):
    p = m.params
    q = _split_heads(m, x @ p["wq"] + p["bq"])
    k = _split_heads(m, x @ p["wk"] + p["bk"])
    v = _split_heads(m, x @ p["wv"] + p["bv"])
    scale = 1.0 / np.sqrt(m.head_dim)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    if m.causal:
        t = scores.shape[-1]
        mask = np.triu(np.ones((t, t), dtype=bool), k=1)
        scores = np.where(mask, -1e30, scores)
    attn = softmax(scores, axis=-1)
    ctx = attn @ v
    merged = _merge_heads(ctx)
    out = merged @ p["wo"] + p["bo"]
    if run.training:
        run.put(prefix, x, q, k, v, attn, merged, scale)
    return out


@_bwd(MultiHeadSelfAttention)
def _mhsa_bwd(m: MultiHeadSelfAttention, run: VectorizedRun, prefix: str, grad, input_grad):
    x, q, k, v, attn, merged, scale = run.get(prefix)
    p = m.params
    run.add_grad(prefix + "wo", run.seg_outer(merged, grad))
    run.add_grad(prefix + "bo", run.seg_sum(grad))
    d_merged = grad @ p["wo"].T
    d_ctx = _split_heads(m, d_merged)
    d_attn = d_ctx @ v.transpose(0, 1, 3, 2)
    d_v = attn.transpose(0, 1, 3, 2) @ d_ctx
    d_scores = softmax_backward(attn, d_attn) * scale
    d_q = d_scores @ k
    d_k = d_scores.transpose(0, 1, 3, 2) @ q
    dx = np.zeros_like(x)
    for name, dproj in (("wq", d_q), ("wk", d_k), ("wv", d_v)):
        dflat = _merge_heads(dproj)
        run.add_grad(prefix + name, run.seg_outer(x, dflat))
        run.add_grad(prefix + "b" + name[1], run.seg_sum(dflat))
        dx += dflat @ p[name].T
    return dx


@_fwd(TransformerBlock)
def _block_fwd(m: TransformerBlock, run: VectorizedRun, prefix: str, x):
    h = run.forward(
        m.drop1,
        run.forward(m.attn, run.forward(m.ln1, x, prefix + "ln1."), prefix + "attn."),
        prefix + "drop1.",
    )
    x = x + h
    h2 = run.forward(
        m.drop2,
        run.forward(m.ffn, run.forward(m.ln2, x, prefix + "ln2."), prefix + "ffn."),
        prefix + "drop2.",
    )
    return x + h2


@_bwd(TransformerBlock)
def _block_bwd(m: TransformerBlock, run: VectorizedRun, prefix: str, grad, input_grad):
    g2 = run.backward(
        m.ln2,
        run.backward(m.ffn, run.backward(m.drop2, grad, prefix + "drop2."), prefix + "ffn."),
        prefix + "ln2.",
    )
    grad = grad + g2
    g1 = run.backward(
        m.ln1,
        run.backward(m.attn, run.backward(m.drop1, grad, prefix + "drop1."), prefix + "attn."),
        prefix + "ln1.",
    )
    return grad + g1


@_fwd(TinyBert)
def _tinybert_fwd(m: TinyBert, run: VectorizedRun, prefix: str, tokens):
    tokens = np.asarray(tokens)
    b, t = tokens.shape
    if t != m.seq_len:
        raise ValueError(f"expected sequence length {m.seq_len}, got {t}")
    positions = np.broadcast_to(np.arange(t), (b, t))
    x = (run.forward(m.tok, tokens, prefix + "tok.")
         + run.forward(m.pos, positions, prefix + "pos."))
    for i, block in enumerate(m.blocks):
        x = run.forward(block, x, f"{prefix}block{i}.")
    if run.training:
        run.put(prefix, tokens.shape)
    pooled = x.mean(axis=1)
    return run.forward(m.head, run.forward(m.pooler, pooled, prefix + "pooler."),
                       prefix + "head.")


@_bwd(TinyBert)
def _tinybert_bwd(m: TinyBert, run: VectorizedRun, prefix: str, grad, input_grad):
    (tokens_shape,) = run.get(prefix)
    b, t = tokens_shape
    g = run.backward(m.pooler, run.backward(m.head, grad, prefix + "head."),
                     prefix + "pooler.")
    g = np.broadcast_to(g[:, None, :], (b, t, m.dim)) / t
    g = np.ascontiguousarray(g)
    for i, block in reversed(list(enumerate(m.blocks))):
        g = run.backward(block, g, f"{prefix}block{i}.")
    run.backward(m.pos, g, prefix + "pos.", input_grad=False)
    return run.backward(m.tok, g, prefix + "tok.", input_grad)
