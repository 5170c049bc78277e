"""Analytic-vs-numeric gradient checks for every layer.

These are the bedrock tests: if a backward pass is wrong, every convergence
and invariance result downstream is meaningless.  Each test builds a tiny
layer, defines a scalar loss ``sum(w * forward(x))``, and compares the
analytic parameter/input gradients against central differences.
"""

from __future__ import annotations

import numpy as np

from repro.framework.attention import (
    Embedding,
    GELU,
    LayerNorm,
    MultiHeadSelfAttention,
    TransformerBlock,
)
from repro.framework.conv import BatchNorm, Conv2D, GlobalAvgPool2D, MaxPool2D
from repro.framework.layers import (
    Dense,
    Dropout,
    Flatten,
    ReLU,
    Residual,
    Sequential,
    Tanh,
    softmax,
    softmax_backward,
)
from tests.conftest import assert_grads_close, numeric_gradient


def _check_layer(layer, x, *, training=True, rng_seed=7, rtol=1e-5, atol=1e-7,
                 check_input_grad=True):
    """Gradient-check all parameters and (optionally) the input."""
    weight_rng = np.random.default_rng(99)
    # Fixed forward randomness: rebuild the generator identically every call.
    def fwd():
        rng = np.random.default_rng(rng_seed)
        return layer.forward(x, training=training, rng=rng)

    w = weight_rng.standard_normal(fwd().shape)

    def loss() -> float:
        return float(np.sum(w * fwd()))

    out = fwd()
    layer.zero_grad()
    grad_in = layer.backward(w.copy())

    params = layer.parameters()
    grads = layer.gradients()
    for key in params:
        numeric = numeric_gradient(loss, params[key])
        assert_grads_close(grads[key], numeric, rtol=rtol, atol=atol)
    if check_input_grad and np.issubdtype(x.dtype, np.floating):
        numeric_x = numeric_gradient(loss, x)
        assert_grads_close(grad_in, numeric_x, rtol=rtol, atol=atol)
    return out


def test_dense_gradients(rng):
    layer = Dense(5, 3, rng)
    x = rng.standard_normal((4, 5))
    _check_layer(layer, x)


def test_dense_3d_input(rng):
    layer = Dense(5, 3, rng)
    x = rng.standard_normal((2, 4, 5))
    _check_layer(layer, x)


def test_conv2d_gradients_same_padding(rng):
    layer = Conv2D(2, 3, 3, rng, padding="same")
    x = rng.standard_normal((2, 6, 6, 2))
    _check_layer(layer, x, rtol=1e-4, atol=1e-6)


def test_conv2d_gradients_valid_padding(rng):
    layer = Conv2D(2, 2, 3, rng, padding="valid")
    x = rng.standard_normal((2, 5, 5, 2))
    _check_layer(layer, x, rtol=1e-4, atol=1e-6)


def test_conv2d_strided(rng):
    layer = Conv2D(1, 2, 3, rng, stride=2, padding="same")
    x = rng.standard_normal((2, 7, 7, 1))
    _check_layer(layer, x, rtol=1e-4, atol=1e-6)


def test_batchnorm_gradients_training(rng):
    layer = BatchNorm(3)
    # Randomize gamma/beta so gradients are non-trivial.
    layer.params["gamma"][...] = rng.uniform(0.5, 1.5, 3)
    layer.params["beta"][...] = rng.standard_normal(3)
    x = rng.standard_normal((6, 3))
    # BatchNorm updates running stats each forward; freeze them for the check
    # by resetting before each call.
    saved = layer.state_dict()

    def fwd():
        layer.load_state_dict(saved)
        return layer.forward(x, training=True)

    w = rng.standard_normal((6, 3))

    def loss():
        return float(np.sum(w * fwd()))

    fwd()
    layer.zero_grad()
    grad_in = layer.backward(w.copy())
    for key in ("gamma", "beta"):
        numeric = numeric_gradient(loss, layer.params[key])
        assert_grads_close(layer.grads[key], numeric, rtol=1e-4, atol=1e-6)
    numeric_x = numeric_gradient(loss, x)
    assert_grads_close(grad_in, numeric_x, rtol=1e-4, atol=1e-6)


def test_batchnorm_gradients_inference(rng):
    layer = BatchNorm(3)
    layer.buffers["running_mean"][...] = rng.standard_normal(3)
    layer.buffers["running_var"][...] = rng.uniform(0.5, 2.0, 3)
    x = rng.standard_normal((4, 3))
    _check_layer(layer, x, training=False)


def test_batchnorm_4d_input(rng):
    layer = BatchNorm(2)
    x = rng.standard_normal((2, 3, 3, 2))
    saved = layer.state_dict()

    def fwd():
        layer.load_state_dict(saved)
        return layer.forward(x, training=True)

    w = rng.standard_normal(fwd().shape)

    def loss():
        return float(np.sum(w * fwd()))

    fwd()
    layer.zero_grad()
    grad_in = layer.backward(w.copy())
    numeric_x = numeric_gradient(loss, x)
    assert_grads_close(grad_in, numeric_x, rtol=1e-4, atol=1e-6)


def test_layernorm_gradients(rng):
    layer = LayerNorm(4)
    layer.params["gamma"][...] = rng.uniform(0.5, 1.5, 4)
    x = rng.standard_normal((3, 4))
    _check_layer(layer, x, rtol=1e-4, atol=1e-6)


def test_layernorm_3d(rng):
    layer = LayerNorm(4)
    x = rng.standard_normal((2, 3, 4))
    _check_layer(layer, x, rtol=1e-4, atol=1e-6)


def test_gelu_gradients(rng):
    x = rng.standard_normal((4, 5))
    _check_layer(GELU(), x)


def test_tanh_gradients(rng):
    x = rng.standard_normal((4, 5))
    _check_layer(Tanh(), x)


def test_relu_gradients(rng):
    # Keep values away from the kink at 0.
    x = rng.standard_normal((4, 5))
    x[np.abs(x) < 0.1] = 0.5
    _check_layer(ReLU(), x)


def test_maxpool_gradients(rng):
    x = rng.standard_normal((2, 4, 4, 2))
    _check_layer(MaxPool2D(2), x, rtol=1e-4, atol=1e-6)


def test_global_avg_pool_gradients(rng):
    x = rng.standard_normal((2, 4, 4, 3))
    _check_layer(GlobalAvgPool2D(), x)


def test_flatten_roundtrip(rng):
    x = rng.standard_normal((3, 2, 2, 2))
    layer = Flatten()
    out = layer.forward(x)
    assert out.shape == (3, 8)
    back = layer.backward(out.copy())
    assert back.shape == x.shape
    np.testing.assert_array_equal(back, x)


def test_embedding_gradients(rng):
    layer = Embedding(7, 3, rng)
    tokens = rng.integers(0, 7, size=(2, 4))
    w = rng.standard_normal((2, 4, 3))

    def loss():
        return float(np.sum(w * layer.forward(tokens)))

    layer.forward(tokens)
    layer.zero_grad()
    layer.backward(w.copy())
    numeric = numeric_gradient(loss, layer.params["table"])
    assert_grads_close(layer.grads["table"], numeric)


def test_attention_gradients(rng):
    layer = MultiHeadSelfAttention(dim=6, num_heads=2, rng=rng)
    x = rng.standard_normal((2, 3, 6))
    _check_layer(layer, x, rtol=1e-4, atol=1e-6)


def test_transformer_block_gradients(rng):
    layer = TransformerBlock(dim=4, num_heads=2, ffn_dim=8, rng=rng, dropout=0.0)
    x = rng.standard_normal((2, 3, 4))
    _check_layer(layer, x, rtol=1e-4, atol=1e-6)


def test_transformer_block_with_dropout_gradients(rng):
    layer = TransformerBlock(dim=4, num_heads=2, ffn_dim=8, rng=rng, dropout=0.3)
    x = rng.standard_normal((2, 3, 4))
    _check_layer(layer, x, rtol=1e-4, atol=1e-6)


def test_residual_gradients(rng):
    layer = Residual(Dense(4, 4, rng))
    x = rng.standard_normal((3, 4))
    _check_layer(layer, x)


def test_sequential_gradients(rng):
    layer = Sequential(Dense(4, 6, rng), GELU(), Dense(6, 2, rng))
    x = rng.standard_normal((3, 4))
    _check_layer(layer, x, rtol=1e-4, atol=1e-6)


def test_dropout_gradients(rng):
    layer = Dropout(0.4)
    x = rng.standard_normal((4, 5))
    _check_layer(layer, x)


def test_softmax_backward_matches_numeric(rng):
    z = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4))

    def loss():
        return float(np.sum(w * softmax(z)))

    s = softmax(z)
    analytic = softmax_backward(s, w)
    numeric = numeric_gradient(loss, z)
    assert_grads_close(analytic, numeric)
