"""Models and the workload registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.framework.attention import TinyBert
from repro.framework.conv import SmallCNN
from repro.framework.models import (
    MLPClassifier,
    ResourceFootprint,
    WORKLOADS,
    build_model,
    get_workload,
)
from repro.utils.units import GB, MB


class TestModelConstruction:
    def test_build_is_deterministic(self):
        a = build_model("mlp_synthetic", seed=3)
        b = build_model("mlp_synthetic", seed=3)
        pa, pb = a.parameters(), b.parameters()
        assert set(pa) == set(pb)
        for k in pa:
            np.testing.assert_array_equal(pa[k], pb[k])

    def test_different_seeds_differ(self):
        a = build_model("mlp_synthetic", seed=1)
        b = build_model("mlp_synthetic", seed=2)
        assert any(not np.array_equal(a.parameters()[k], b.parameters()[k])
                   for k in a.parameters())

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("nope")

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_builds_and_forwards(self, name):
        wl = get_workload(name)
        model = wl.build_model(0)
        from repro.data import make_dataset

        ds = make_dataset(wl.dataset, n=64, seed=0)
        out = model.forward(ds.x_train[:4], training=False)
        assert out.shape == (4, wl.num_classes)
        assert np.all(np.isfinite(out))

    def test_mlp_shapes(self, rng):
        model = MLPClassifier(input_dim=8, hidden_dim=16, num_classes=3, rng=rng)
        out = model.forward(rng.standard_normal((5, 8)))
        assert out.shape == (5, 3)

    def test_cnn_rejects_bad_image_size(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            SmallCNN(image_size=6, channels=3, num_classes=2, rng=rng, stages=2)

    def test_tinybert_seq_len_check(self, rng):
        model = TinyBert(vocab_size=16, seq_len=8, dim=8, num_heads=2,
                         num_layers=1, num_classes=2, rng=rng)
        with pytest.raises(ValueError, match="sequence length"):
            model.forward(np.zeros((2, 5), dtype=int))

    def test_cnn_has_batchnorm_state(self, rng):
        model = SmallCNN(image_size=8, channels=3, num_classes=2, rng=rng)
        state = model.state_dict()
        assert any("running_mean" in k for k in state)


class TestResourceFootprint:
    def test_wave_bytes_composition(self):
        fp = ResourceFootprint(param_bytes=100, activation_bytes_per_example=10,
                               input_bytes_per_example=1, kernel_temp_bytes=5,
                               other_bytes=7)
        # params + grad buffer + 1 optimizer slot + batch*(act+in) + temp + other
        assert fp.wave_bytes(4, optimizer_slots=1) == 100 * 3 + 4 * 11 + 5 + 7

    def test_grad_buffer_flag(self):
        fp = ResourceFootprint(param_bytes=100, activation_bytes_per_example=1,
                               input_bytes_per_example=0, kernel_temp_bytes=0,
                               other_bytes=0)
        assert fp.wave_bytes(0, 1, grad_buffer=True) - fp.wave_bytes(0, 1, grad_buffer=False) == 100

    def test_max_batch_inverse_of_wave_bytes(self):
        fp = ResourceFootprint(param_bytes=10 * MB, activation_bytes_per_example=MB,
                               input_bytes_per_example=0, kernel_temp_bytes=0,
                               other_bytes=0)
        cap = 100 * MB
        b = fp.max_batch(cap, optimizer_slots=1)
        assert fp.wave_bytes(b, 1) <= cap < fp.wave_bytes(b + 1, 1)

    def test_max_batch_zero_when_model_does_not_fit(self):
        fp = ResourceFootprint(param_bytes=10 * GB, activation_bytes_per_example=MB,
                               input_bytes_per_example=0)
        assert fp.max_batch(GB, optimizer_slots=1) == 0

    def test_negative_batch_rejected(self):
        fp = ResourceFootprint(param_bytes=1, activation_bytes_per_example=1,
                               input_bytes_per_example=0)
        with pytest.raises(ValueError):
            fp.wave_bytes(-1)


class TestPaperCalibration:
    """The footprints must reproduce the paper's observed capacities."""

    def test_resnet50_v100_max_batch_is_256_on_grid(self):
        wl = get_workload("resnet50_imagenet")
        from repro.hardware import get_spec
        from repro.utils.validation import power_of_two_like_sizes

        cap = wl.footprint.max_batch(get_spec("V100").memory_bytes, wl.optimizer_slots)
        grid = power_of_two_like_sizes(cap)
        assert grid[-1] == 256  # §6.2.1: a V100 fits a batch of 256

    def test_resnet50_2080ti_max_batch_is_192_on_grid(self):
        wl = get_workload("resnet50_imagenet")
        from repro.hardware import get_spec
        from repro.utils.validation import power_of_two_like_sizes

        cap = wl.footprint.max_batch(get_spec("RTX2080Ti").memory_bytes, wl.optimizer_slots)
        assert power_of_two_like_sizes(cap)[-1] == 192  # Fig 18

    def test_bert_large_2080ti_max_batch_is_4(self):
        wl = get_workload("bert_large_glue")
        from repro.hardware import get_spec

        cap = wl.footprint.max_batch(get_spec("RTX2080Ti").memory_bytes, wl.optimizer_slots)
        assert cap == 4  # Fig 18

    def test_bert_base_batch_64_does_not_fit_one_v100(self):
        wl = get_workload("bert_base_glue")
        from repro.hardware import get_spec

        cap = wl.footprint.max_batch(get_spec("V100").memory_bytes, wl.optimizer_slots)
        assert cap < 64  # Table 2: batch 64 would not fit on 1 V100
        assert cap >= 8  # but the per-wave batches used (8) do fit

    def test_grad_buffer_equals_model_size(self):
        # §3.3: the gradient buffer is the same size as the model.
        for wl in WORKLOADS.values():
            fixed_with = wl.footprint.wave_bytes(0, wl.optimizer_slots, grad_buffer=True)
            fixed_without = wl.footprint.wave_bytes(0, wl.optimizer_slots, grad_buffer=False)
            assert fixed_with - fixed_without == wl.footprint.param_bytes

    def test_learning_rate_override(self):
        wl = get_workload("resnet56_cifar10")
        assert wl.build_optimizer().lr == pytest.approx(0.1)
        assert wl.build_optimizer(0.6).lr == pytest.approx(0.6)
        with pytest.raises(ValueError):
            wl.build_optimizer(-1.0)
