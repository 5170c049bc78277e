"""Behavioural tests for layers: shapes, statefulness, determinism, errors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.framework.attention import Embedding, MultiHeadSelfAttention
from repro.framework.conv import BatchNorm, Conv2D, MaxPool2D
from repro.framework.layers import Dense, Dropout, Sequential, softmax


class TestModuleParameterPlumbing:
    def test_namespaced_parameters(self, rng):
        model = Sequential(Dense(3, 4, rng), Dense(4, 2, rng))
        keys = set(model.parameters())
        assert keys == {"0.w", "0.b", "1.w", "1.b"}

    def test_set_parameters_roundtrip(self, rng):
        model = Sequential(Dense(3, 4, rng), Dense(4, 2, rng))
        snapshot = {k: v.copy() for k, v in model.parameters().items()}
        for v in model.parameters().values():
            v += 1.0
        model.set_parameters(snapshot)
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(v, snapshot[k])

    def test_set_parameters_preserves_aliasing(self, rng):
        """Updating through the flat dict must hit the layer's own array."""
        layer = Dense(2, 2, rng)
        model = Sequential(layer)
        model.set_parameters({k: np.ones_like(v) for k, v in model.parameters().items()})
        np.testing.assert_array_equal(layer.params["w"], np.ones((2, 2)))

    def test_set_parameters_missing_key_raises(self, rng):
        model = Sequential(Dense(2, 2, rng))
        with pytest.raises(KeyError):
            model.set_parameters({"0.w": np.zeros((2, 2))})

    def test_set_parameters_shape_mismatch_raises(self, rng):
        model = Sequential(Dense(2, 2, rng))
        bad = {k: np.zeros((3, 3)) for k in model.parameters()}
        with pytest.raises(ValueError):
            model.set_parameters(bad)

    def test_zero_grad_clears_all(self, rng):
        model = Sequential(Dense(3, 4, rng), Dense(4, 2, rng))
        x = rng.standard_normal((2, 3))
        model.backward_ready = model.forward(x)
        model.backward(np.ones((2, 2)))
        assert any(np.any(g != 0) for g in model.gradients().values())
        model.zero_grad()
        assert all(np.all(g == 0) for g in model.gradients().values())

    def test_num_parameters(self, rng):
        model = Dense(3, 4, rng)
        assert model.num_parameters() == 3 * 4 + 4


class TestBatchNormState:
    def test_running_stats_update_in_training(self, rng):
        bn = BatchNorm(3)
        x = rng.standard_normal((16, 3)) + 5.0
        before = bn.state_dict()
        bn.forward(x, training=True)
        after = bn.state_dict()
        assert not np.array_equal(before["running_mean"], after["running_mean"])

    def test_running_stats_frozen_in_inference(self, rng):
        bn = BatchNorm(3)
        x = rng.standard_normal((16, 3))
        before = bn.state_dict()
        bn.forward(x, training=False)
        after = bn.state_dict()
        np.testing.assert_array_equal(before["running_mean"], after["running_mean"])

    def test_state_dict_returns_copies(self):
        bn = BatchNorm(2)
        state = bn.state_dict()
        state["running_mean"] += 10
        np.testing.assert_array_equal(bn.buffers["running_mean"], np.zeros(2))

    def test_load_state_dict_missing_key(self):
        bn = BatchNorm(2)
        with pytest.raises(KeyError):
            bn.load_state_dict({"running_mean": np.zeros(2)})

    def test_training_output_is_normalized(self, rng):
        bn = BatchNorm(4)
        x = rng.standard_normal((64, 4)) * 3 + 7
        out = bn.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1, atol=1e-3)


class TestDropout:
    def test_inference_is_identity(self, rng):
        d = Dropout(0.5)
        x = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(d.forward(x, training=False), x)

    def test_training_requires_rng(self, rng):
        d = Dropout(0.5)
        with pytest.raises(ValueError, match="rng"):
            d.forward(rng.standard_normal((2, 2)), training=True, rng=None)

    def test_zero_rate_is_identity(self, rng):
        d = Dropout(0.0)
        x = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(
            d.forward(x, training=True, rng=np.random.default_rng(0)), x
        )

    def test_same_rng_same_mask(self, rng):
        d = Dropout(0.5)
        x = rng.standard_normal((8, 8))
        a = d.forward(x, training=True, rng=np.random.default_rng(42))
        b = d.forward(x, training=True, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_expected_scale_preserved(self, rng):
        d = Dropout(0.3)
        x = np.ones((200, 200))
        out = d.forward(x, training=True, rng=np.random.default_rng(1))
        assert abs(out.mean() - 1.0) < 0.02

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestShapes:
    def test_conv_same_preserves_spatial(self, rng):
        conv = Conv2D(3, 8, 3, rng, padding="same")
        out = conv.forward(rng.standard_normal((2, 9, 9, 3)))
        assert out.shape == (2, 9, 9, 8)

    def test_conv_valid_shrinks(self, rng):
        conv = Conv2D(1, 1, 3, rng, padding="valid")
        out = conv.forward(rng.standard_normal((1, 5, 5, 1)))
        assert out.shape == (1, 3, 3, 1)

    def test_conv_stride_two(self, rng):
        conv = Conv2D(1, 4, 3, rng, stride=2, padding="same")
        out = conv.forward(rng.standard_normal((1, 8, 8, 1)))
        assert out.shape == (1, 4, 4, 4)

    @pytest.mark.parametrize("kernel", [2, 4])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_same_rejects_even_kernels(self, rng, kernel, stride):
        """pad = (k - 1) // 2 is one short for every even k: at stride 1 an
        8x8 input came out 7x7 under a padding called "same"."""
        with pytest.raises(ValueError, match="odd kernel size"):
            Conv2D(3, 4, kernel, rng, stride=stride, padding="same")
        conv = Conv2D(3, 4, kernel, rng, stride=stride, padding="valid")
        out = conv.forward(rng.standard_normal((1, 8, 8, 3)))
        assert out.shape[1] == (8 - kernel) // stride + 1

    def test_maxpool_shape_and_values(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = MaxPool2D(2).forward(x)
        assert out.shape == (1, 2, 2, 1)
        np.testing.assert_array_equal(out.ravel(), [5, 7, 13, 15])

    def test_maxpool_indivisible_raises(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            MaxPool2D(2).forward(rng.standard_normal((1, 5, 5, 1)))

    def test_attention_shape(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng)
        out = attn.forward(rng.standard_normal((3, 5, 8)))
        assert out.shape == (3, 5, 8)

    def test_attention_dim_head_mismatch(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            MultiHeadSelfAttention(7, 2, rng)

    def test_embedding_out_of_range(self, rng):
        emb = Embedding(5, 3, rng)
        with pytest.raises(ValueError, match="out of range"):
            emb.forward(np.array([[0, 5]]))


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        s = softmax(rng.standard_normal((6, 9)))
        np.testing.assert_allclose(s.sum(axis=-1), 1.0)

    def test_stability_with_large_logits(self):
        s = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s[0, :2], 0.5, atol=1e-12)

    def test_shift_invariance(self, rng):
        z = rng.standard_normal((2, 5))
        np.testing.assert_allclose(softmax(z), softmax(z + 100.0))
