"""Checkpointing and fault tolerance (§7 extensions)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import (
    FaultToleranceError,
    Mapping,
    TrainerConfig,
    VirtualFlowTrainer,
    handle_device_failure,
    load_checkpoint,
    restore_device,
    save_checkpoint,
)
from repro.data import make_dataset
from repro.data.loader import BatchLoader
from repro.hardware import Cluster
from tests.conftest import build_executor


def _steps(executor, loader, epoch, n):
    for step, batch in enumerate(loader.epoch(epoch)):
        if step >= n:
            break
        executor.run_step(batch.x, batch.y, epoch, step)


@pytest.fixture
def loader():
    ds = make_dataset("synthetic_vectors", n=256, seed=0)
    return BatchLoader(ds, 32, seed=0)


class TestCheckpoint:
    def test_roundtrip_resumes_bit_exactly(self, tmp_path, loader):
        a = build_executor(global_batch=32, num_vns=4)
        _steps(a, loader, 0, 3)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(a, path)
        _steps(a, loader, 0, 3)  # continue original

        b = build_executor(global_batch=32, num_vns=4)
        meta = load_checkpoint(b, path)
        assert meta["steps_run"] == 3
        # Resume on a DIFFERENT cluster shape — the paper's portability claim.
        b.remap(Mapping.even(b.vn_set, Cluster.homogeneous("V100", 4)))
        _steps(b, loader, 0, 3)

        pa, pb = a.model.parameters(), b.model.parameters()
        for k in pa:
            np.testing.assert_array_equal(pa[k], pb[k])

    def test_restores_optimizer_slots(self, tmp_path, loader):
        a = build_executor(workload_name="bert_base_glue", global_batch=8, num_vns=2)
        bert_ds = make_dataset("synthetic_glue", n=128, seed=0)
        bert_loader = BatchLoader(bert_ds, 8, seed=0)
        _steps(a, bert_loader, 0, 2)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(a, path)
        b = build_executor(workload_name="bert_base_glue", global_batch=8, num_vns=2)
        load_checkpoint(b, path)
        assert b.optimizer.step_count == a.optimizer.step_count
        sa, sb = a.optimizer.state_dict(), b.optimizer.state_dict()
        assert set(sa) == set(sb)
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k])

    def test_restores_vn_states(self, tmp_path):
        ds = make_dataset("synthetic_cifar10", n=128, seed=0)
        cnn_loader = BatchLoader(ds, 16, seed=0)
        a = build_executor(workload_name="resnet56_cifar10", global_batch=16, num_vns=4)
        _steps(a, cnn_loader, 0, 2)
        path = "/tmp/vf_test_ckpt.npz"
        save_checkpoint(a, path)
        b = build_executor(workload_name="resnet56_cifar10", global_batch=16, num_vns=4)
        load_checkpoint(b, path)
        for sa, sb in zip(a.vn_states, b.vn_states):
            assert sa.equals(sb)
        os.remove(path)

    def test_wrong_workload_rejected(self, tmp_path, loader):
        a = build_executor()
        save_checkpoint(a, str(tmp_path / "c.npz"))
        b = build_executor(workload_name="resnet56_cifar10", global_batch=32, num_vns=4)
        with pytest.raises(ValueError, match="workload"):
            load_checkpoint(b, str(tmp_path / "c.npz"))

    def test_wrong_vn_set_rejected(self, tmp_path):
        a = build_executor(global_batch=32, num_vns=4)
        save_checkpoint(a, str(tmp_path / "c.npz"))
        b = build_executor(global_batch=32, num_vns=8)
        with pytest.raises(ValueError, match="virtual node set"):
            load_checkpoint(b, str(tmp_path / "c.npz"))


def _rewrite(path, out, meta_update=None, per_tensor=False):
    """Copy checkpoint ``path`` to ``out`` with edited metadata, or with the
    optimizer slots as per-tensor arrays (the version-1 layout)."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(arrays["__virtualflow_meta__"].tobytes().decode("utf-8"))
    meta.update(meta_update or {})
    arrays["__virtualflow_meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                                   dtype=np.uint8)
    if per_tensor:
        names = meta["param_layout"]["names"]
        for key in [k for k in arrays if k.startswith("optimizer.flat/")]:
            slot = key.split("/", 1)[1]
            for name in names:
                arrays[f"optimizer/{slot}.{name}"] = np.zeros(1)
            del arrays[key]
    np.savez(out, **arrays)
    return out


class TestCheckpointRejection:
    """Files this build cannot restore fail loudly, naming what they hold."""

    @pytest.fixture
    def saved(self, tmp_path, loader):
        a = build_executor(global_batch=32, num_vns=4)
        _steps(a, loader, 0, 1)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(a, path)
        return path

    def test_an_npz_that_is_not_a_checkpoint(self, tmp_path):
        path = str(tmp_path / "weights.npz")
        np.savez(path, w=np.zeros(3))
        with pytest.raises(ValueError, match="not a VirtualFlow checkpoint"):
            load_checkpoint(build_executor(), path)

    def test_an_unknown_format_version(self, saved, tmp_path):
        path = _rewrite(saved, str(tmp_path / "v3.npz"), {"format_version": 3})
        with pytest.raises(ValueError, match="format_version 3"):
            load_checkpoint(build_executor(global_batch=32, num_vns=4), path)

    def test_a_version_1_file(self, saved, tmp_path):
        path = _rewrite(saved, str(tmp_path / "v1.npz"), {"format_version": 1},
                        per_tensor=True)
        with pytest.raises(ValueError, match="format_version 1"):
            load_checkpoint(build_executor(global_batch=32, num_vns=4), path)

    def test_per_tensor_arrays_under_version_2(self, saved, tmp_path):
        path = _rewrite(saved, str(tmp_path / "mixed.npz"), per_tensor=True)
        with pytest.raises(ValueError, match=r"per-tensor arrays \(e\.g\. 'optimizer/"):
            load_checkpoint(build_executor(global_batch=32, num_vns=4), path)

    def test_a_rejected_file_leaves_the_executor_untouched(self, saved, tmp_path):
        path = _rewrite(saved, str(tmp_path / "v1.npz"), {"format_version": 1},
                        per_tensor=True)
        ex = build_executor(global_batch=32, num_vns=4)
        before = {k: v.copy() for k, v in ex.model.parameters().items()}
        with pytest.raises(ValueError):
            load_checkpoint(ex, path)
        for key, value in before.items():
            np.testing.assert_array_equal(ex.model.parameters()[key], value)


class TestFaultTolerance:
    def test_failure_migrates_and_training_continues(self, loader):
        ex = build_executor(global_batch=32, num_vns=8, num_devices=4)
        _steps(ex, loader, 0, 2)
        migration = handle_device_failure(ex, [0, 2])
        assert migration >= 0
        assert set(ex.mapping.active_devices()) == {1, 3}
        _steps(ex, loader, 0, 2)  # keeps training

    def test_failure_is_semantically_invisible(self, loader):
        """A failed worker changes nothing about the final model."""
        faulty = build_executor(global_batch=32, num_vns=8, num_devices=4)
        steady = build_executor(global_batch=32, num_vns=8, num_devices=4)
        _steps(faulty, loader, 0, 2)
        _steps(steady, loader, 0, 2)
        handle_device_failure(faulty, [3])
        for step in range(2, 4):
            b = loader.batch(0, step)
            faulty.run_step(b.x, b.y, 0, step)
            steady.run_step(b.x, b.y, 0, step)
        pf, ps = faulty.model.parameters(), steady.model.parameters()
        for k in pf:
            np.testing.assert_array_equal(pf[k], ps[k])

    def test_all_devices_failed(self):
        ex = build_executor(num_devices=2)
        with pytest.raises(FaultToleranceError, match="all devices failed"):
            handle_device_failure(ex, [0, 1])

    def test_unknown_device(self):
        ex = build_executor(num_devices=2)
        with pytest.raises(FaultToleranceError, match="unknown"):
            handle_device_failure(ex, [9])

    def test_restore_device_rebalances(self, loader):
        ex = build_executor(global_batch=32, num_vns=8, num_devices=4)
        handle_device_failure(ex, [0])
        assert len(ex.mapping.active_devices()) == 3
        restore_device(ex, Cluster.homogeneous("V100", 4))
        assert len(ex.mapping.active_devices()) == 4

    def test_trainer_level_failure_flow(self):
        trainer = VirtualFlowTrainer(TrainerConfig(
            workload="mlp_synthetic", global_batch_size=32, num_virtual_nodes=8,
            num_devices=4, dataset_size=256))
        trainer.train_epoch()
        handle_device_failure(trainer.executor, [1, 2])
        record = trainer.train_epoch()
        assert np.isfinite(record.train_loss)


class TestMigrationMemoryCheck:
    """Migration must validate the post-failure plan against survivor memory.

    Uneven VN sizes on a heterogeneous cluster: the batch-30 virtual node
    fits the V100 but not a deliberately tiny device, so whether a failure
    is survivable depends on *which* device dies.
    """

    @pytest.fixture
    def hetero_executor(self, monkeypatch):
        from repro.core import VirtualFlowExecutor, VirtualNodeSet
        from repro.framework import SoftmaxCrossEntropy, get_workload
        from repro.hardware.device import DEVICE_SPECS, Device, DeviceSpec, get_spec
        from repro.utils.units import MB

        tiny = DeviceSpec(name="MiniGPU", memory_bytes=115 * MB,
                          compute_factor=1.0)
        # The engine resolves specs by name through the global registry.
        monkeypatch.setitem(DEVICE_SPECS, "MiniGPU", tiny)
        workload = get_workload("mlp_synthetic")
        vn_set = VirtualNodeSet.uneven([30, 2])
        cluster = Cluster([Device(get_spec("V100"), 0), Device(tiny, 1)])
        mapping = Mapping(vn_set, cluster, {0: 0, 1: 1})  # big VN on the V100
        return VirtualFlowExecutor(
            workload=workload, model=workload.build_model(0),
            loss_fn=SoftmaxCrossEntropy(),
            optimizer=workload.build_optimizer(), mapping=mapping, seed=0)

    def test_migration_that_no_longer_fits_memory_is_rejected(
            self, hetero_executor):
        ex = hetero_executor
        with pytest.raises(FaultToleranceError, match="no longer fits"):
            handle_device_failure(ex, [0])  # batch-30 VN can't fit MiniGPU
        # The executor must be left on its pre-failure mapping, not half
        # migrated onto a device that cannot hold the plan.
        assert set(ex.mapping.active_devices()) == {0, 1}

    def test_migration_fits_after_losing_small_device(self, hetero_executor):
        ex = hetero_executor
        migration = handle_device_failure(ex, [1])  # V100 absorbs everything
        assert migration >= 0
        assert set(ex.mapping.active_devices()) == {0}
