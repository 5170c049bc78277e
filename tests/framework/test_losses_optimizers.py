"""Losses and optimizers: correctness, state handling, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.framework.losses import MSELoss, SoftmaxCrossEntropy
from repro.framework.optimizers import LAMB, SGD, Adam, AdamW, Momentum
from tests.conftest import arena_views, assert_grads_close, numeric_gradient


class TestSoftmaxCrossEntropy:
    def test_matches_manual_value(self):
        loss = SoftmaxCrossEntropy()
        logits = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
        targets = np.array([0, 1])
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        assert loss.forward(logits, targets) == pytest.approx(expected, rel=1e-9)

    def test_gradient_matches_numeric(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((4, 5))
        targets = rng.integers(0, 5, size=4)

        def f():
            return loss.forward(logits, targets)

        f()
        analytic = loss.backward()
        numeric = numeric_gradient(f, logits)
        assert_grads_close(analytic, numeric)

    def test_label_smoothing_gradient(self, rng):
        loss = SoftmaxCrossEntropy(label_smoothing=0.1)
        logits = rng.standard_normal((3, 4))
        targets = rng.integers(0, 4, size=3)

        def f():
            return loss.forward(logits, targets)

        f()
        assert_grads_close(loss.backward(), numeric_gradient(f, logits))

    def test_perfect_prediction_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert loss.forward(logits, np.array([0, 1])) < 1e-6

    def test_bad_shapes_rejected(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3, 4)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            loss.forward(np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy(label_smoothing=1.0)


class TestMSELoss:
    def test_value(self):
        loss = MSELoss()
        assert loss.forward(np.array([1.0, 3.0]), np.array([0.0, 1.0])) == pytest.approx(2.5)

    def test_gradient(self, rng):
        loss = MSELoss()
        out = rng.standard_normal((3, 2))
        tgt = rng.standard_normal((3, 2))

        def f():
            return loss.forward(out, tgt)

        f()
        assert_grads_close(loss.backward(), numeric_gradient(f, out))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MSELoss().forward(np.zeros((2, 2)), np.zeros((2, 3)))


def _quadratic_descends(optimizer, steps=200):
    """Any reasonable optimizer minimizes x^2 from x=5."""
    params, grads = arena_views(x=[5.0])
    for _ in range(steps):
        grads["x"][...] = 2 * params["x"]
        optimizer.step(params, grads)
    return abs(float(params["x"][0]))


def _step(optimizer, params, grads, value):
    grads["w"][...] = value
    optimizer.step(params, grads)


class TestOptimizers:
    @pytest.mark.parametrize("factory", [
        lambda: SGD(lr=0.1),
        lambda: Momentum(lr=0.05, momentum=0.9),
        lambda: Momentum(lr=0.05, momentum=0.9, nesterov=True),
        lambda: Adam(lr=0.1),
        lambda: AdamW(lr=0.1, weight_decay=0.0),
        lambda: LAMB(lr=0.05, weight_decay=0.0),
    ], ids=["sgd", "momentum", "nesterov", "adam", "adamw", "lamb"])
    def test_minimizes_quadratic(self, factory):
        assert _quadratic_descends(factory()) < 1e-2

    def test_sgd_update_rule(self):
        opt = SGD(lr=0.5)
        params, grads = arena_views(w=[1.0, 2.0])
        _step(opt, params, grads, [2.0, 2.0])
        np.testing.assert_allclose(params["w"], [0.0, 1.0])

    def test_momentum_accumulates_velocity(self):
        opt = Momentum(lr=1.0, momentum=0.5)
        params, grads = arena_views(w=[0.0])
        _step(opt, params, grads, [1.0])   # v=1, w=-1
        _step(opt, params, grads, [1.0])   # v=1.5, w=-2.5
        np.testing.assert_allclose(params["w"], [-2.5])

    def test_adam_bias_correction_first_step(self):
        opt = Adam(lr=0.1)
        params, grads = arena_views(w=[1.0])
        _step(opt, params, grads, [3.0])
        # After bias correction the first step is ~lr in the gradient direction.
        np.testing.assert_allclose(params["w"], [1.0 - 0.1], atol=1e-6)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)

    def test_update_is_in_place(self):
        opt = SGD(lr=0.1)
        params, grads = arena_views(w=[1.0])
        w, flat = params["w"], params.flat
        _step(opt, params, grads, [1.0])
        assert w[0] == pytest.approx(0.9)  # the original arrays moved
        assert flat[0] == pytest.approx(0.9)

    def test_state_dict_is_one_flat_copy_per_slot(self):
        opt = Adam(lr=0.1)
        assert opt.state_dict() == {}  # no slot before the first step
        params, grads = arena_views(w=[1.0, 2.0], b=[3.0])
        _step(opt, params, grads, [1.0, 1.0])
        state = opt.state_dict()
        assert list(state) == ["m", "v"]
        assert all(slot.shape == (3,) for slot in state.values())
        state["m"][...] = 99.0  # a copy: the optimizer's slot is untouched
        assert not (opt.state_dict()["m"] == 99.0).any()

    def test_momentum_state_roundtrip(self):
        opt = Momentum(lr=0.1, momentum=0.9)
        params, grads = arena_views(w=[1.0])
        _step(opt, params, grads, [1.0])
        state = opt.state_dict()
        opt2 = Momentum(lr=0.1, momentum=0.9)
        opt2.load_state_dict(state)
        opt2.step_count = opt.step_count
        p1, g1 = arena_views(w=params["w"])
        p2, g2 = arena_views(w=params["w"])
        _step(opt, p1, g1, [1.0])
        _step(opt2, p2, g2, [1.0])
        np.testing.assert_array_equal(p1["w"], p2["w"])

    def test_adam_state_roundtrip(self):
        opt = Adam(lr=0.1)
        params, grads = arena_views(w=[2.0])
        for _ in range(3):
            _step(opt, params, grads, params["w"])
        state = opt.state_dict()
        opt2 = Adam(lr=0.1)
        opt2.load_state_dict(state)
        opt2.step_count = opt.step_count
        p1, g1 = arena_views(w=params["w"])
        p2, g2 = arena_views(w=params["w"])
        _step(opt, p1, g1, [1.0])
        _step(opt2, p2, g2, [1.0])
        np.testing.assert_array_equal(p1["w"], p2["w"])

    def test_adamw_decays_weights(self):
        opt = AdamW(lr=0.1, weight_decay=0.5)
        params, grads = arena_views(w=[10.0])
        _step(opt, params, grads, [0.0])
        assert params["w"][0] < 10.0

    def test_lamb_trust_ratio_scales_update(self):
        # LAMB normalizes by update norm; with a huge gradient the step is
        # bounded by lr * ||w||, unlike Adam's unbounded step.
        lamb = LAMB(lr=0.1, weight_decay=0.0)
        params, grads = arena_views(w=[1.0, 0.0])
        _step(lamb, params, grads, [1e6, 0.0])
        assert np.linalg.norm(params["w"] - np.array([1.0, 0.0])) <= 0.1 + 1e-9


def _momentum_after_one_step():
    opt = Momentum(lr=0.1, momentum=0.9)
    params, grads = arena_views(w=[1.0, 2.0], b=[3.0])
    _step(opt, params, grads, [1.0, 1.0])
    return opt, params, grads


def _refused(opt, params, args, error, match):
    """``opt.step(*args)`` raises, with ``params``, the slots and the step
    count untouched."""
    flat, slots, count = params.flat.copy(), opt.state_dict(), opt.step_count
    with pytest.raises(error, match=match):
        opt.step(*args)
    np.testing.assert_array_equal(params.flat, flat)
    assert opt.state_dict().keys() == slots.keys()
    for name, slot in slots.items():
        np.testing.assert_array_equal(opt.state_dict()[name], slot)
    assert opt.step_count == count


class TestLoudOptimizerEdges:
    """What an optimizer cannot step raises before anything changes."""

    def test_gradients_on_another_layout(self):
        opt, params, _ = _momentum_after_one_step()
        _, other = arena_views(w=[1.0, 2.0], c=[3.0])  # 'b' missing, 'c' unknown
        _refused(opt, params, (params, other), ValueError, "another layout")

    def test_a_plain_dict(self):
        opt, params, grads = _momentum_after_one_step()
        _refused(opt, params, (dict(params), grads), TypeError, "arena views")
        _refused(opt, params, (params, dict(grads)), TypeError, "arena views")

    def test_a_loaded_slot_of_another_size(self):
        opt, params, grads = _momentum_after_one_step()
        opt.load_state_dict({"velocity": np.zeros(2)})
        _refused(opt, params, (params, grads), ValueError,
                 r"slot 'velocity' has shape \(2,\)")

    def test_an_unknown_or_missing_slot_name_in_load_state_dict(self):
        opt, _, _ = _momentum_after_one_step()
        saved = opt.state_dict()
        with pytest.raises(ValueError, match="has slots"):
            opt.load_state_dict({"velocity": np.zeros(3), "zzz": np.zeros(3)})
        with pytest.raises(ValueError, match="has slots"):
            Adam().load_state_dict({"m": np.zeros(3)})
        with pytest.raises(ValueError, match="has slots"):
            SGD(0.1).load_state_dict({"velocity": np.zeros(3)})
        np.testing.assert_array_equal(opt.state_dict()["velocity"], saved["velocity"])
