"""The paper's central claims, as executable properties.

1. Mapping invariance: for a fixed virtual node set, training is
   bit-identical across any virtual-node-to-device mapping.
2. Resize transparency: resizing mid-training yields the same final model as
   never resizing.
3. Gradient-accumulation equivalence: single-device VirtualFlow with k
   virtual nodes computes the same updates as k-step gradient accumulation.
4. Batch size (the virtual node set) is what changes trajectories.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import GradientAccumulationTrainer
from repro.core import Mapping, TrainerConfig, VirtualFlowTrainer, VirtualNodeSet
from repro.hardware import Cluster
from tests.conftest import build_executor


def _params_equal(a, b) -> bool:
    pa, pb = a.executor.model.parameters(), b.executor.model.parameters()
    return set(pa) == set(pb) and all(np.array_equal(pa[k], pb[k]) for k in pa)


def _trainer(workload="mlp_synthetic", batch=32, vns=8, devices=1, seed=0,
             dataset_size=256, vn_sizes=None, device_type="V100"):
    return VirtualFlowTrainer(TrainerConfig(
        workload=workload, global_batch_size=batch, num_virtual_nodes=vns,
        device_type=device_type, num_devices=devices, seed=seed,
        dataset_size=dataset_size, vn_sizes=vn_sizes,
    ))


class TestMappingInvariance:
    @pytest.mark.parametrize("devices", [2, 4, 8])
    def test_bit_identical_across_device_counts(self, devices):
        ref = _trainer(devices=1)
        ref.train(epochs=2)
        other = _trainer(devices=devices)
        other.train(epochs=2)
        assert _params_equal(ref, other)

    def test_bit_identical_across_device_types(self):
        a = _trainer(device_type="V100")
        b = _trainer(device_type="K80")
        a.train(epochs=2)
        b.train(epochs=2)
        assert _params_equal(a, b)
        # ... but the simulated time differs (K80 is ~12x slower).
        assert b.sim_time > a.sim_time * 3

    def test_batchnorm_state_mapping_invariant(self):
        a = _trainer(workload="resnet56_cifar10", batch=32, vns=4, devices=1)
        b = _trainer(workload="resnet56_cifar10", batch=32, vns=4, devices=4)
        a.train(epochs=1)
        b.train(epochs=1)
        for sa, sb in zip(a.executor.vn_states, b.executor.vn_states):
            assert sa.equals(sb)

    def test_arbitrary_uneven_mapping_invariant(self):
        """Even a skewed 5-1-1-1 placement changes nothing numerically."""
        vn_set = VirtualNodeSet.even(32, 8)
        cluster = Cluster.homogeneous("V100", 4)
        skewed = Mapping.by_counts(vn_set, cluster, {0: 5, 1: 1, 2: 1, 3: 1})
        a = _trainer(devices=1)
        b = VirtualFlowTrainer(
            TrainerConfig(workload="mlp_synthetic", global_batch_size=32,
                          num_virtual_nodes=8, num_devices=4, dataset_size=256),
            cluster=cluster, mapping=skewed)
        a.train(epochs=2)
        b.train(epochs=2)
        assert _params_equal(a, b)

    @given(st.integers(1, 8), st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_property_any_device_count_is_invariant(self, devices, seed):
        a = _trainer(devices=1, seed=seed, dataset_size=128)
        b = _trainer(devices=devices, seed=seed, dataset_size=128)
        a.train(epochs=1)
        b.train(epochs=1)
        assert _params_equal(a, b)


class TestResizeTransparency:
    def test_resize_schedule_matches_uninterrupted(self):
        elastic = _trainer(devices=4)
        steady = _trainer(devices=4)
        for epoch, devices in enumerate((2, 8, 1, 3)):
            elastic.train_epoch()
            elastic.resize(devices)
            steady.train_epoch()
        assert _params_equal(elastic, steady)

    def test_resize_with_batchnorm_state(self):
        elastic = _trainer(workload="resnet56_cifar10", batch=32, vns=8, devices=4)
        steady = _trainer(workload="resnet56_cifar10", batch=32, vns=8, devices=4)
        elastic.train_epoch()
        elastic.resize(1)
        elastic.train_epoch()
        steady.train(epochs=2)
        assert _params_equal(elastic, steady)
        assert elastic.evaluate() == steady.evaluate()

    def test_resize_counts_and_history(self):
        t = _trainer(devices=2)
        t.train_epoch()
        t.resize(4)
        assert t.executor.resize_count == 1
        assert len(t.cluster) == 4


class TestGradientAccumulationEquivalence:
    def test_single_device_equivalence(self):
        vf = _trainer(batch=32, vns=4, devices=1)
        ga = GradientAccumulationTrainer("mlp_synthetic", global_batch_size=32,
                                         accumulation_steps=4, dataset_size=256)
        vf.train(epochs=2)
        for epoch in range(2):
            ga.train_epoch(epoch)
        pv = vf.executor.model.parameters()
        pg = ga.model.parameters()
        for k in pv:
            np.testing.assert_array_equal(pv[k], pg[k])

    @pytest.mark.parametrize("workload", ["mlp_synthetic", "resnet56_cifar10"])
    def test_each_step_is_four_virtual_nodes_on_one_device(self, workload):
        """k = 4 accumulation and 4 virtual nodes on one V100: the same step
        losses and final parameters, bit for bit (BatchNorm included: its
        training-mode forward reads batch statistics, never the running ones)."""
        ga = GradientAccumulationTrainer(workload, global_batch_size=32,
                                         accumulation_steps=4, dataset_size=128)
        ex = build_executor(workload, global_batch=32, num_vns=4, num_devices=1)
        for step in range(3):
            x = ga.dataset.x_train[32 * step:32 * (step + 1)]
            y = ga.dataset.y_train[32 * step:32 * (step + 1)]
            assert ex.run_step(x, y, 0, step).loss == ga.run_step(x, y, 0, step), step
        pv, pg = ex.model.parameters(), ga.model.parameters()
        assert set(pv) == set(pg)
        for key in pv:
            np.testing.assert_array_equal(pv[key], pg[key], err_msg=key)


class TestBatchSizeDrivesTrajectory:
    def test_different_vn_counts_same_batch_same_result(self):
        """More virtual nodes != different semantics (batch is what matters)."""
        a = _trainer(batch=32, vns=4)
        b = _trainer(batch=32, vns=8)
        a.train(epochs=1)
        b.train(epochs=1)
        # NOT bit-identical (different micro-batch boundaries change dropout
        # streams and BN statistics) but same global batch -> same scale of
        # optimization; assert the trajectories stay close.
        la = a.history[-1].train_loss
        lb = b.history[-1].train_loss
        assert la == pytest.approx(lb, rel=0.35)

    def test_different_batch_sizes_diverge(self):
        a = _trainer(batch=8, vns=1, dataset_size=512)
        b = _trainer(batch=128, vns=1, dataset_size=512)
        a.train(epochs=3)
        b.train(epochs=3)
        assert not _params_equal(a, b)
        assert a.history[-1].train_loss != pytest.approx(b.history[-1].train_loss, rel=1e-6)
