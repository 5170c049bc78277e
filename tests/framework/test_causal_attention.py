"""Causal attention masking."""

from __future__ import annotations

import numpy as np

from repro.framework.attention import MultiHeadSelfAttention
from tests.conftest import assert_grads_close, numeric_gradient


class TestCausalMask:
    def test_future_positions_do_not_affect_past_outputs(self, rng):
        attn = MultiHeadSelfAttention(dim=8, num_heads=2, rng=rng, causal=True)
        x = rng.standard_normal((1, 5, 8))
        base = attn.forward(x)
        perturbed = x.copy()
        perturbed[0, 4] += 10.0  # change only the LAST position
        out = attn.forward(perturbed)
        # Positions 0..3 must be unchanged; position 4 may change.
        np.testing.assert_allclose(out[0, :4], base[0, :4], rtol=1e-12)
        assert not np.allclose(out[0, 4], base[0, 4])

    def test_non_causal_leaks_future(self, rng):
        attn = MultiHeadSelfAttention(dim=8, num_heads=2, rng=rng, causal=False)
        x = rng.standard_normal((1, 5, 8))
        base = attn.forward(x)
        perturbed = x.copy()
        perturbed[0, 4] += 10.0
        out = attn.forward(perturbed)
        assert not np.allclose(out[0, 0], base[0, 0])

    def test_first_position_attends_only_to_itself(self, rng):
        attn = MultiHeadSelfAttention(dim=4, num_heads=1, rng=rng, causal=True)
        x = rng.standard_normal((1, 3, 4))
        attn.forward(x)
        # The cached attention matrix's first row is one-hot on position 0.
        _, _, _, _, probs, _, _ = attn._cache
        np.testing.assert_allclose(probs[0, 0, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_causal_gradients_numeric(self, rng):
        attn = MultiHeadSelfAttention(dim=4, num_heads=2, rng=rng, causal=True)
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((2, 3, 4))

        def loss():
            return float(np.sum(w * attn.forward(x)))

        attn.forward(x)
        attn.zero_grad()
        grad_in = attn.backward(w.copy())
        numeric_x = numeric_gradient(loss, x)
        assert_grads_close(grad_in, numeric_x, rtol=1e-4, atol=1e-6)
        for key, param in attn.parameters().items():
            numeric = numeric_gradient(loss, param)
            assert_grads_close(attn.gradients()[key], numeric, rtol=1e-4, atol=1e-6)
