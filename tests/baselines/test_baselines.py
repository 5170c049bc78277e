"""TF* and gradient-accumulation baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import GradientAccumulationTrainer, TFStarConfig, TFStarTrainer


class TestTFStarConfig:
    def test_global_batch_coupled_to_hardware(self):
        config = TFStarConfig(workload="resnet56_cifar10", local_batch_size=16,
                              num_devices=4)
        assert config.global_batch_size == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            TFStarConfig(workload="w", local_batch_size=0)
        with pytest.raises(ValueError):
            TFStarConfig(workload="w", local_batch_size=8, num_devices=0)


class TestTFStarTrainer:
    def test_one_vn_per_device(self):
        t = TFStarTrainer(TFStarConfig(workload="mlp_synthetic",
                                       local_batch_size=8, num_devices=4,
                                       dataset_size=256))
        assert t.executor.vn_set.num_nodes == 4
        assert t.executor.plan.max_waves == 1

    def test_batch_changes_with_devices(self):
        """The coupling the paper criticizes: different cluster, different model."""
        a = TFStarTrainer(TFStarConfig(workload="mlp_synthetic",
                                       local_batch_size=8, num_devices=1,
                                       dataset_size=512))
        b = TFStarTrainer(TFStarConfig(workload="mlp_synthetic",
                                       local_batch_size=8, num_devices=4,
                                       dataset_size=512))
        a.train(epochs=1)
        b.train(epochs=1)
        pa, pb = a.executor.model.parameters(), b.executor.model.parameters()
        assert any(not np.array_equal(pa[k], pb[k]) for k in pa)

    def test_resize_forbidden(self):
        t = TFStarTrainer(TFStarConfig(workload="mlp_synthetic",
                                       local_batch_size=8, num_devices=2,
                                       dataset_size=256))
        with pytest.raises(NotImplementedError, match="restart"):
            t.resize(4)

    def test_learning_rate_not_retuned(self):
        t = TFStarTrainer(TFStarConfig(workload="mlp_synthetic",
                                       local_batch_size=8, num_devices=2,
                                       dataset_size=256, learning_rate=0.42))
        assert t.executor.optimizer.lr == pytest.approx(0.42)


class TestGradientAccumulation:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            GradientAccumulationTrainer("mlp_synthetic", 10, 3)
        with pytest.raises(ValueError):
            GradientAccumulationTrainer("mlp_synthetic", 8, 0)

    def test_training_reduces_loss(self):
        ga = GradientAccumulationTrainer("mlp_synthetic", 32, 4, dataset_size=512)
        l0 = ga.train_epoch(0)
        l3 = None
        for e in range(1, 4):
            l3 = ga.train_epoch(e)
        assert l3 < l0

    def test_accumulation_count_is_cosmetic_for_means(self):
        """k=1 vs k=4: same batch, but micro-batching changes dropout streams,
        so losses differ slightly while remaining comparable."""
        a = GradientAccumulationTrainer("mlp_synthetic", 32, 1, dataset_size=512)
        b = GradientAccumulationTrainer("mlp_synthetic", 32, 4, dataset_size=512)
        la = a.train_epoch(0)
        lb = b.train_epoch(0)
        assert la == pytest.approx(lb, rel=0.5)
