"""Batched inference under virtual nodes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InferenceEngine, Mapping, PlanValidationError, VirtualNodeSet
from repro.data import make_dataset
from repro.framework import get_workload
from repro.hardware import Cluster


def _engine(num_devices=1, num_vns=4, batch=32, workload="mlp_synthetic"):
    wl = get_workload(workload)
    vn_set = VirtualNodeSet.even(batch, num_vns)
    mapping = Mapping.even(vn_set, Cluster.homogeneous("V100", num_devices))
    return InferenceEngine(wl, wl.build_model(0), mapping)


@pytest.fixture
def batch():
    ds = make_dataset("synthetic_vectors", n=64, seed=0)
    return ds.x_train[:32]


class TestPredict:
    def test_logits_shape_and_latency(self, batch):
        engine = _engine()
        result = engine.predict(batch)
        assert result.logits.shape == (32, 10)
        assert result.sim_latency > 0
        assert result.waves == 4
        assert engine.requests_served == 1

    def test_mapping_invariance_of_predictions(self, batch):
        a = _engine(num_devices=1).predict(batch)
        b = _engine(num_devices=4).predict(batch)
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_matches_plain_forward(self, batch):
        engine = _engine()
        wl = get_workload("mlp_synthetic")
        model = wl.build_model(0)
        expected = model.forward(batch, training=False)
        np.testing.assert_allclose(engine.predict(batch).logits, expected,
                                   rtol=1e-12)

    def test_more_devices_lower_latency(self, batch):
        t1 = _engine(num_devices=1).predict(batch).sim_latency
        t4 = _engine(num_devices=4).predict(batch).sim_latency
        assert t4 < t1

    def test_partial_batch_supported(self, batch):
        engine = _engine()
        result = engine.predict(batch[:10])  # smaller than the VN set's B
        assert result.logits.shape[0] == 10

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            _engine().predict(np.zeros((0, 32)))

    def test_sim_time_accumulates(self, batch):
        engine = _engine()
        engine.predict(batch)
        engine.predict(batch)
        assert engine.requests_served == 2
        assert engine.sim_time > 0


class TestMicroBatches:
    def test_micro_batch_equals_one_shot_batch(self, batch):
        engine = _engine()
        rows = [batch[i] for i in range(6)]
        micro = engine.predict(np.array(rows))  # gathered request payloads
        oneshot = _engine().predict(batch[:6])
        np.testing.assert_array_equal(micro.logits, oneshot.logits)
        assert micro.logits.shape[0] == 6

    @pytest.mark.parametrize("rows, lengths", [([], []), ([0], [1, 0])])
    def test_empty_micro_batch_rejected(self, batch, rows, lengths):
        with pytest.raises(ValueError):
            _engine().predict_stacked(batch, rows, lengths)

    def test_latency_matches_equivalent_batch(self, batch):
        result = _engine().predict(batch[:5])
        assert _engine().price(5) == (result.sim_latency, result.waves)


class TestEvalStateCache:
    def _trained_executor(self):
        from repro.core import TrainerConfig, VirtualFlowTrainer

        trainer = VirtualFlowTrainer(TrainerConfig(
            workload="resnet56_cifar10", global_batch_size=16,
            num_virtual_nodes=4, num_devices=2, dataset_size=64, seed=0))
        trainer.executor.run_step(trainer.dataset.x_train[:16],
                                  trainer.dataset.y_train[:16],
                                  epoch=0, step=0)
        return trainer

    def test_from_executor_serves_merged_state(self):
        trainer = self._trained_executor()
        executor = trainer.executor
        engine = InferenceEngine.from_executor(executor)
        batch = trainer.dataset.x_val[:8]
        served = engine.predict(batch).logits

        executor.model.load_state_dict(executor._merged_eval_state())
        np.testing.assert_array_equal(
            served, executor.model.forward(batch, training=False))

    def test_merge_computed_once_across_micro_batches(self):
        trainer = self._trained_executor()
        engine = InferenceEngine.from_executor(trainer.executor)
        batch = trainer.dataset.x_val[:8]
        engine.predict(batch)
        cached = engine._eval_state
        assert cached is not None
        engine.predict_stacked(batch, [0, 1], [2])
        assert engine._eval_state is cached  # reused, not recomputed

    def test_shared_model_training_between_requests_does_not_leak(self):
        # from_executor shares the executor's live model; a training step
        # between requests leaves the LAST wave's un-merged kernels in the
        # model's buffers.  Serving must keep using the cached merged view,
        # never the leftover per-node state.
        trainer = self._trained_executor()
        executor = trainer.executor
        engine = InferenceEngine.from_executor(executor)
        batch = trainer.dataset.x_val[:8]
        engine.predict(batch)
        # Capture what the cached merged view produces on frozen parameters.
        params_before = {k: v.copy() for k, v in executor.model.parameters().items()}
        executor.run_step(trainer.dataset.x_train[:16],
                          trainer.dataset.y_train[:16], epoch=0, step=1)
        # Roll parameters back so only the stateful buffers differ: the
        # wave loop left virtual node V-1's statistics in the model.
        for k, v in executor.model.parameters().items():
            v[...] = params_before[k]
        served = engine.predict(batch).logits
        executor.model.load_state_dict(engine._eval_state)
        expected = executor.model.forward(batch, training=False)
        np.testing.assert_array_equal(served, expected)
        # And it is NOT the leftover last-wave state's output.
        executor.model.load_state_dict(executor.vn_states[-1].buffers)
        leaked = executor.model.forward(batch, training=False)
        assert not np.array_equal(served, leaked)

    def test_set_vn_states_invalidates_cache(self):
        trainer = self._trained_executor()
        engine = InferenceEngine.from_executor(trainer.executor)
        batch = trainer.dataset.x_val[:8]
        before = engine.predict(batch).logits
        # Another training step moves the BatchNorm statistics.
        trainer.executor.run_step(trainer.dataset.x_train[:16],
                                  trainer.dataset.y_train[:16],
                                  epoch=0, step=1)
        engine.set_vn_states(trainer.executor.vn_states)
        after = engine.predict(batch).logits
        assert not np.array_equal(before, after)

    def test_stateless_model_has_no_eval_state(self, batch):
        engine = _engine()
        engine.predict(batch)
        assert engine._eval_state is None


class TestRemap:
    def test_remap_preserves_results(self, batch):
        engine = _engine(num_devices=4)
        before = engine.predict(batch).logits
        engine.remap(Mapping.even(engine.mapping.vn_set,
                                  Cluster.homogeneous("RTX2080Ti", 1)))
        after = engine.predict(batch).logits
        np.testing.assert_array_equal(before, after)

    def test_remap_reprices_every_memoized_batch_size(self, batch):
        """The per-batch-size plan memo dies with the mapping it priced."""
        from repro.core.sharding import shard_sizes, size_runs

        engine = _engine(num_devices=4, num_vns=4, batch=4)
        vn_set = engine.mapping.vn_set
        clusters = [Cluster.homogeneous("V100", 2),
                    Cluster.homogeneous("RTX2080Ti", 1),
                    Cluster.homogeneous("V100", 4)]
        seen = set()
        for cluster in [None, *clusters]:
            if cluster is not None:
                engine.remap(Mapping.even(vn_set, cluster))
            fresh = InferenceEngine(engine.workload, engine.model,
                                    engine.mapping)
            for size in list(range(1, 9)) * 2:  # second pass hits the memo
                got = engine.predict(batch[:size])
                latency, waves = fresh.engine.inference_latency(
                    shard_sizes(vn_set, size))
                assert (got.sim_latency, got.waves) == (latency, waves)
                runs, *_ = engine.engine.inference_plan(size)
                sizes = [s for s in shard_sizes(vn_set, size) if s]
                assert runs.tolist() == size_runs(sizes).tolist()
                np.testing.assert_array_equal(
                    got.logits, fresh.predict(batch[:size]).logits)
            seen.add(engine.predict(batch[:8]).sim_latency)
        assert len(seen) == 3  # 4xV100 twice; the others price differently

    def test_plan_memo_hands_out_one_immutable_plan(self):
        """Every caller of a batch length gets the same object, so nothing
        in it may be mutable; a remap re-prices the latency and leaves the
        size runs equal.  Empty shards are dropped from the runs."""
        engine = _engine(num_devices=4, num_vns=4, batch=4)
        plan = engine.engine.inference_plan(6)
        assert engine.engine.inference_plan(6) is plan
        runs, latency, _ = plan
        assert runs.tolist() == [[2, 2], [1, 2]]  # shard sizes (2, 2, 1, 1)
        assert not runs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            runs[0, 0] = 3
        assert engine.engine.inference_plan(3)[0].tolist() == [[1, 3]]  # (1, 1, 1, 0)
        engine.remap(Mapping.even(engine.mapping.vn_set,
                                  Cluster.homogeneous("RTX2080Ti", 1)))
        repriced = engine.engine.inference_plan(6)
        assert repriced is not plan and repriced[1] != latency
        assert repriced[0].tolist() == runs.tolist()

    def test_remap_vn_set_guard(self, batch):
        engine = _engine()
        other = VirtualNodeSet.even(32, 8)
        with pytest.raises(ValueError):
            engine.remap(Mapping.even(other, Cluster.homogeneous("V100", 1)))

    def test_memory_validation_at_construction(self):
        wl = get_workload("resnet50_imagenet")
        vn_set = VirtualNodeSet.even(8192, 1)  # one 8192-example wave: OOM
        mapping = Mapping.even(vn_set, Cluster.homogeneous("V100", 1))
        with pytest.raises(PlanValidationError):
            InferenceEngine(wl, wl.build_model(0), mapping)
