"""Execution backends: the fused path must match the reference oracle.

The backend seam's contract is that backends change *how* waves execute on
the host, never *what* they compute: for every built-in workload — stateless
or stateful (Conv2D/BatchNorm), equal- or mixed-size wave groups, with or
without per-node data augmentation — the fused backend takes the vectorized
path and is bit-identical to the canonical serial loop, which these tests
swap in as the oracle (``tests.conftest.on_reference``).
"""

from __future__ import annotations

import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles.evaluate import evaluate as oracle_evaluate
from repro.core import (
    FusedBackend,
    InferenceEngine,
    Mapping,
    TrainerConfig,
    VirtualFlowExecutor,
    VirtualFlowTrainer,
    VirtualNodeSet,
)
from repro.core.backends import TrainStep
from repro.core.backends import fused as fused_module
from repro.core.backends import vectorized
from repro.core.backends.vectorized import (
    UnsupportedModule,
    VectorizedRun,
    kernel_plan,
    loss_kernel,
)
from repro.core.sharding import shard_batch, size_runs
from repro.core.state import StateMatrix, VirtualNodeState
from repro.data import make_dataset
from repro.data.augment import GaussianNoise
from repro.elastic import JobSpec
from repro.framework import SGD, FlatTensorArena, SoftmaxCrossEntropy, get_workload
from repro.framework.conv import BatchNorm
from repro.framework.layers import Dense, Dropout, Module, ReLU, Residual, Sequential
from repro.hardware import Cluster
from repro.utils.seeding import vn_rng
from tests.conftest import on_reference


STATELESS_WORKLOADS = ("mlp_synthetic", "bert_base_glue", "transformer_wmt")
STATEFUL_WORKLOADS = ("resnet56_cifar10", "resnet50_imagenet")  # Conv2D + BatchNorm


def _trainer(workload="mlp_synthetic", batch=32, vns=8, devices=1, seed=0,
             vn_sizes=None, backend="reference", dataset_size=128, augment=None):
    trainer = VirtualFlowTrainer(TrainerConfig(
        workload=workload, global_batch_size=batch, num_virtual_nodes=vns,
        num_devices=devices, seed=seed, dataset_size=dataset_size,
        vn_sizes=vn_sizes), augment=augment)
    if backend == "reference":
        on_reference(trainer.executor)
    return trainer


def _assert_bit_identical(a: VirtualFlowTrainer, b: VirtualFlowTrainer) -> None:
    pa, pb = a.executor.model.parameters(), b.executor.model.parameters()
    assert set(pa) == set(pb)
    for key in pa:
        np.testing.assert_array_equal(pa[key], pb[key], err_msg=key)
    for ra, rb in zip(a.history, b.history):
        assert ra.train_loss == rb.train_loss  # bit-equal, not approx


class TestRegistry:
    """No registry is left to pick from: the trainer threads the one
    backend every engine shares down to its executor."""

    def test_backend_threads_through_trainer(self):
        t = _trainer(backend="fused")
        assert isinstance(t.executor.backend, FusedBackend)
        assert t.executor.backend.name == "fused"
        assert t.executor.backend is _trainer(backend="fused").executor.backend


class TestTrainingEquivalence:
    @pytest.mark.parametrize("workload", STATELESS_WORKLOADS)
    @pytest.mark.parametrize("devices", [1, 3])
    def test_bit_identical_stateless(self, workload, devices):
        a = _trainer(workload=workload, batch=16, vns=8, devices=devices,
                     dataset_size=64, backend="reference")
        b = _trainer(workload=workload, batch=16, vns=8, devices=devices,
                     dataset_size=64, backend="fused")
        a.train(epochs=2)
        b.train(epochs=2)
        _assert_bit_identical(a, b)

    def test_bit_identical_uneven_split(self):
        sizes = [16, 8, 4, 4]
        a = _trainer(batch=32, vns=4, vn_sizes=sizes, devices=2, backend="reference")
        b = _trainer(batch=32, vns=4, vn_sizes=sizes, devices=2, backend="fused")
        a.train(epochs=2)
        b.train(epochs=2)
        _assert_bit_identical(a, b)

    def test_bit_identical_heterogeneous_mapping(self):
        vn_set = VirtualNodeSet.even(32, 8)
        cluster = Cluster.homogeneous("V100", 3)
        skewed = Mapping.by_counts(vn_set, cluster, {0: 5, 1: 2, 2: 1})
        kwargs = dict(workload="mlp_synthetic", global_batch_size=32,
                      num_virtual_nodes=8, num_devices=3, dataset_size=128)
        a = VirtualFlowTrainer(TrainerConfig(**kwargs), cluster=cluster, mapping=skewed)
        b = VirtualFlowTrainer(TrainerConfig(**kwargs), cluster=cluster, mapping=skewed)
        on_reference(a.executor)
        a.train(epochs=1)
        b.train(epochs=1)
        _assert_bit_identical(a, b)

    def test_bit_identical_through_resize(self):
        a = _trainer(workload="bert_base_glue", batch=16, vns=8, devices=4,
                     dataset_size=64, backend="reference")
        b = _trainer(workload="bert_base_glue", batch=16, vns=8, devices=4,
                     dataset_size=64, backend="fused")
        for trainer in (a, b):
            trainer.train_epoch()
            trainer.resize(2)
            trainer.train_epoch()
        _assert_bit_identical(a, b)

    @pytest.mark.parametrize("workload", STATEFUL_WORKLOADS)
    @pytest.mark.parametrize("augmented", [True, False])
    def test_batchnorm_workload_bit_identical(self, workload, augmented):
        """Conv2D/BatchNorm waves vectorize in training — and stay exact,
        per-node augmentation streams included."""
        augment = GaussianNoise(std=0.1) if augmented else None
        a = _trainer(workload=workload, batch=32, vns=4, devices=2,
                     dataset_size=64, backend="reference", augment=augment)
        b = _trainer(workload=workload, batch=32, vns=4, devices=2,
                     dataset_size=64, backend="fused", augment=augment)
        a.train(epochs=2)
        b.train(epochs=2)
        _assert_bit_identical(a, b)
        for sa, sb in zip(a.executor.vn_states, b.executor.vn_states):
            assert sa.equals(sb)  # per-node stateful kernels match too

    @pytest.mark.parametrize("workload", ("mlp_synthetic", "resnet56_cifar10"))
    @pytest.mark.parametrize("augmented", [True, False])
    def test_bit_identical_mixed_size_waves(self, workload, augmented):
        """Mixed-size wave groups fuse as one segmented pass — still exact."""
        sizes = [16, 8, 4, 4]
        augment = GaussianNoise(std=0.1) if augmented else None
        a = _trainer(workload=workload, batch=32, vns=4, vn_sizes=sizes,
                     devices=2, dataset_size=64, backend="reference", augment=augment)
        b = _trainer(workload=workload, batch=32, vns=4, vn_sizes=sizes,
                     devices=2, dataset_size=64, backend="fused", augment=augment)
        a.train(epochs=2)
        b.train(epochs=2)
        _assert_bit_identical(a, b)
        for sa, sb in zip(a.executor.vn_states, b.executor.vn_states):
            assert sa.equals(sb)

    def test_stateful_resize_bit_identical(self):
        """BatchNorm state follows virtual nodes through a fused resize."""
        a = _trainer(workload="resnet56_cifar10", batch=32, vns=8, devices=4,
                     dataset_size=64, backend="reference")
        b = _trainer(workload="resnet56_cifar10", batch=32, vns=8, devices=4,
                     dataset_size=64, backend="fused")
        for trainer in (a, b):
            trainer.train_epoch()
            trainer.resize(2)
            trainer.train_epoch()
        _assert_bit_identical(a, b)
        for sa, sb in zip(a.executor.vn_states, b.executor.vn_states):
            assert sa.equals(sb)

    def test_fused_mapping_invariance(self):
        """The paper's core claim holds within the fused backend as well."""
        a = _trainer(devices=1, backend="fused")
        b = _trainer(devices=4, backend="fused")
        a.train(epochs=2)
        b.train(epochs=2)
        _assert_bit_identical(a, b)

    def test_fused_mapping_invariance_stateful(self):
        a = _trainer(workload="resnet56_cifar10", devices=1, backend="fused",
                     dataset_size=64)
        b = _trainer(workload="resnet56_cifar10", devices=4, backend="fused",
                     dataset_size=64)
        a.train(epochs=2)
        b.train(epochs=2)
        _assert_bit_identical(a, b)


def _train_step(model, dataset, sizes, loss_fn=None, xy=None):
    """A hand-built first step of ``model`` over shards of ``sizes``.

    The batch is the head of ``dataset``, or the explicit ``xy`` pair for a
    model no registered dataset feeds.  The model gets its flat tensor arena
    installed, and its initial stateful buffers a state matrix, as an
    executor would.
    """
    vn_set = VirtualNodeSet.uneven(sizes)
    batch = sum(sizes)
    if xy is None:
        ds = make_dataset(dataset, n=2 * batch, seed=0)
        xy = ds.x_train[:batch], ds.y_train[:batch]
    return TrainStep(
        model=model, loss_fn=loss_fn or SoftmaxCrossEntropy(), vn_set=vn_set,
        state_matrix=StateMatrix.of([VirtualNodeState(i, model.state_dict())
                                     for i in range(len(sizes))]),
        shards=shard_batch(vn_set, *xy),
        seed=0, epoch=0, step=0, arena=FlatTensorArena.install(model))


class _NoKernel(Module):
    """A user layer with no vectorized kernel."""

    def forward(self, x, *, training=False, rng=None):
        return x

    def backward(self, grad):
        return grad


class _StatefulDense(Dense):
    """A stateless layer's subclass that adds a buffer: the MRO walk would
    hand it Dense's kernels, which never update the buffer."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.buffers["x_mean"] = np.zeros(self.in_dim)

    def forward(self, x, *, training=False, rng=None):
        if training:
            self.buffers["x_mean"][...] = x.mean(axis=0)
        return super().forward(x, training=training, rng=rng)


class _TallyBatchNorm(BatchNorm):
    """A stateful layer's subclass with a buffer its kernels never update."""

    def __init__(self, dim):
        super().__init__(dim)
        self.buffers["seen"] = np.zeros(1)


def _snapshot(step):
    """The parameters, model buffers and state rows a step could touch."""
    rows = None if step.state_matrix is None else step.state_matrix.rows.copy()
    return step.arena.params_flat.copy(), step.model.state_dict(), rows


def _assert_untouched(step, before):
    params, buffers, rows = _snapshot(step)
    np.testing.assert_array_equal(params, before[0])
    assert buffers.keys() == before[1].keys()
    for key, value in buffers.items():
        np.testing.assert_array_equal(value, before[1][key], err_msg=key)
    if rows is not None:
        np.testing.assert_array_equal(rows, before[2])


class TestOnePath:
    """Every model runs on its one kernel plan; what the fused pass cannot
    run fails loudly, naming the class and its path — a module when the
    engine is built, a loss or a stateful step without a state matrix at the
    first step, before any parameter or state row changes."""

    def _step(self, workload_name, vns=4, batch=32):
        wl = get_workload(workload_name)
        return _train_step(wl.build_model(0), wl.dataset, [batch // vns] * vns)

    def test_every_builtin_workload_has_a_plan_and_a_loss_kernel(self):
        fused = FusedBackend()
        for name in STATELESS_WORKLOADS + STATEFUL_WORKLOADS:
            step = self._step(name)
            plan = kernel_plan(step.model)
            assert plan and all(len(s) == 4 for s in plan), name
            assert loss_kernel(step.loss_fn) is not None, name
            assert np.isfinite(fused.train_step(step).weighted_loss), name

    def test_the_plan_flattens_sequentials_and_names_every_path(self):
        rng = np.random.default_rng(0)
        model = Sequential(Dense(4, 4, rng), Sequential(ReLU(), Dropout(0.5)),
                           Residual(Sequential(Dense(4, 4, rng))))
        plan = kernel_plan(model)
        assert [prefix for *_, prefix in plan] == ["0.", "1.0.", "1.1.", "2."]
        assert [type(module) for _, _, module, _ in plan] == [Dense, ReLU, Dropout, Residual]

    def test_one_plan_serves_training_and_inference(self):
        step = self._step("mlp_synthetic")
        fused = FusedBackend()
        fused.bind(step.model)
        (plan,) = fused._plans.values()
        fused.train_step(step)
        fused.infer(step.model, step.vn_set, np.concatenate([x for x, _ in step.shards]),
                    size_runs(step.vn_set.sizes))
        assert list(fused._plans.values()) == [plan]

    @pytest.mark.parametrize("child, message", [
        (lambda: Residual(Sequential(_NoKernel())),
         "_NoKernel has no vectorized forward kernel, at 'odd.body.0'"),
        (lambda: _StatefulDense(10, 10, np.random.default_rng(0)),
         "_StatefulDense carries buffers no vectorized kernel updates, at 'odd'"),
        (lambda: Sequential(_TallyBatchNorm(10)),
         "_TallyBatchNorm carries buffers no vectorized kernel updates, at 'odd.0'"),
    ], ids=["no_kernel", "stateless_subclass_with_buffers",
            "stateful_subclass_with_more_buffers"])
    def test_a_module_the_pass_cannot_run_is_rejected_when_the_engine_is_built(
            self, child, message):
        model = get_workload("mlp_synthetic").build_model(0)
        model.add_child("odd", child())
        mapping = Mapping.even(VirtualNodeSet.even(8, 4), Cluster.homogeneous("V100", 2))
        with pytest.raises(UnsupportedModule, match=message):
            VirtualFlowExecutor(workload=get_workload("mlp_synthetic"), model=model,
                                loss_fn=SoftmaxCrossEntropy(), optimizer=SGD(0.1),
                                mapping=mapping)
        with pytest.raises(UnsupportedModule, match=message):
            InferenceEngine(get_workload("mlp_synthetic"), model, mapping)

    @pytest.mark.parametrize("engine", ["executor", "inference"])
    def test_a_planned_model_refuses_a_new_child(self, engine):
        """A child added after an engine planned the model would be skipped
        by the cached plan (and, training, by the parameter arena): it is
        refused, naming the parent, and the model keeps its children."""
        wl = get_workload("mlp_synthetic")
        model = wl.build_model(0)
        mapping = Mapping.even(VirtualNodeSet.even(8, 4), Cluster.homogeneous("V100", 2))
        if engine == "executor":
            VirtualFlowExecutor(workload=wl, model=model, loss_fn=SoftmaxCrossEntropy(),
                                optimizer=SGD(0.1), mapping=mapping)
        else:
            InferenceEngine(wl, model, mapping)
        children = list(model.children())
        name, first = children[0]
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError, match=f"cannot add 'extra' to {type(model).__name__} "
                                               f"at 'the model root': an engine has planned"):
            model.add_child("extra", Dense(10, 3, rng))
        with pytest.raises(RuntimeError, match=f"to {type(first).__name__} at '{name}'"):
            first.add_child("extra", Dense(10, 3, rng))
        assert list(model.children()) == children and not list(first.children())
        x = make_dataset(wl.dataset, n=8, seed=0).x_train[:4]
        out = FusedBackend().infer(model, VirtualNodeSet.even(4, 2), x, [[2, 2]])
        assert out.shape == model.forward(x).shape

    def test_a_hand_built_step_on_such_a_module_is_rejected_before_it_runs(self):
        step = self._step("mlp_synthetic")
        step.model.add_child("tap", _StatefulDense(10, 10, np.random.default_rng(0)))
        before = _snapshot(step)
        with pytest.raises(UnsupportedModule,
                           match="_StatefulDense carries buffers no vectorized kernel "
                                 "updates, at 'tap'"):
            FusedBackend().train_step(step)
        _assert_untouched(step, before)

    def test_a_loss_without_a_kernel_is_rejected_before_any_row_changes(self):
        class MyLoss(SoftmaxCrossEntropy):
            pass

        step = self._step("resnet56_cifar10")
        step.loss_fn = MyLoss()
        before = _snapshot(step)
        with pytest.raises(UnsupportedModule, match="MyLoss has no vectorized loss kernel"):
            FusedBackend().train_step(step)
        _assert_untouched(step, before)

    def test_a_stateful_step_without_a_state_matrix_is_rejected(self):
        """A hand-built step on a BatchNorm model with no state matrix has no
        per-node rows to update: never one running state shared silently
        across waves."""
        step = self._step("resnet56_cifar10")
        # Empty per-node buffers make no matrix: the same step.
        assert StateMatrix.of([VirtualNodeState(i) for i in range(4)]) is None
        step.state_matrix = None
        before = _snapshot(step)
        with pytest.raises(UnsupportedModule,
                           match=r"BatchNorm carries per-virtual-node state, but the "
                                 r"step has no state matrix, at '[\w.]+'"):
            FusedBackend().train_step(step)
        _assert_untouched(step, before)

    def test_a_kernel_miss_is_never_cached(self):
        """A miss raises every time and leaves no entry behind; the family
        kernels load before a miss could be raised for one of their classes
        (from a fresh start: tests/core/test_kernel_families.py)."""
        for table in (vectorized._FWD, vectorized._BWD):
            for _ in range(2):
                with pytest.raises(UnsupportedModule,
                                   match=f"_NoKernel has no vectorized {table.kind} kernel"):
                    table[_NoKernel]
            assert _NoKernel not in table


def _segments(sizes):
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


class TestBatchNormKernels:
    """The one-centred-pass, tile-broadcast training kernels against the
    reference layer run once per segment: outputs, input gradients, per-node
    gamma/beta gradient stacks and moving statistics, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5),
           channels=st.sampled_from([1, 3, 6, 17]),
           spatial=st.sampled_from([(), (1, 1), (2, 3), (4, 4)]),
           seed=st.integers(0, 2 ** 32 - 1))
    # Uniform segments: the (V, b, F) stack.
    @example(sizes=[4, 4, 4], channels=6, spatial=(4, 4), seed=0)
    @example(sizes=[3, 3], channels=17, spatial=(), seed=1)
    # Mixed sizes with a 1-row segment: on a 2-D input its variance is
    # exactly 0 and x_hat exactly 0 / sqrt(eps).
    @example(sizes=[5, 1, 3, 2], channels=3, spatial=(), seed=2)
    @example(sizes=[5, 1, 3, 2], channels=1, spatial=(2, 3), seed=3)
    def test_forward_backward_equal_the_reference_layer(self, sizes, channels,
                                                        spatial, seed):
        rng = np.random.default_rng(seed)
        batch, nodes = sum(sizes), len(sizes)
        shape = (batch,) + spatial + (channels,)
        x = rng.normal(size=shape) * np.exp(rng.uniform(-3, 3, size=shape))
        grad = rng.normal(size=shape)
        layer = BatchNorm(channels)
        layer.params["gamma"][...] = rng.normal(size=channels)
        layer.params["beta"][...] = rng.normal(size=channels)
        state = {"running_mean": rng.normal(size=(nodes, channels)),
                 "running_var": rng.uniform(0.5, 2.0, size=(nodes, channels))}
        before = {key: value.copy() for key, value in state.items()}

        run = VectorizedRun(size_runs(sizes), training=True, state_views=state)
        out = run.forward(layer, x)
        dx = run.backward(layer, grad)
        assert out.shape == dx.shape == shape

        for i, (start, end) in enumerate(_segments(sizes)):
            layer.load_state_dict({key: value[i] for key, value in before.items()})
            layer.zero_grad()
            want_out = layer.forward(x[start:end], training=True)
            want_dx = layer.backward(grad[start:end])
            if sizes[i] == 1 and not spatial:  # x_hat is exactly 0
                assert (want_out == layer.params["beta"]).all()
            np.testing.assert_array_equal(out[start:end], want_out)
            np.testing.assert_array_equal(dx[start:end], want_dx)
            for key in ("gamma", "beta"):
                np.testing.assert_array_equal(run.param_grads[key][i], layer.grads[key])
            for key in ("running_mean", "running_var"):
                np.testing.assert_array_equal(state[key][i], layer.buffers[key])

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5),
           channels=st.sampled_from([1, 2, 6, 64]),
           spatial=st.sampled_from([(), (3, 3)]),  # 2-D and 4-D inputs
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(sizes=[16] * 4, channels=6, spatial=(3, 3), dtype=np.float64, seed=0)
    @example(sizes=[5, 1, 3], channels=64, spatial=(), dtype=np.float64, seed=1)
    def test_inference_equals_the_reference_layer(self, sizes, channels, spatial,
                                                  dtype, seed):
        """``training=False`` on tiles: the frozen buffers' statistics, the
        same bytes as ``BatchNorm.forward`` on the whole batch."""
        rng = np.random.default_rng(seed)
        shape = (sum(sizes),) + spatial + (channels,)
        x = (rng.normal(size=shape) * np.exp(rng.uniform(-3, 3, size=shape))).astype(dtype)
        layer = BatchNorm(channels)
        layer.params["gamma"][...] = rng.normal(size=channels)
        layer.params["beta"][...] = rng.normal(size=channels)
        layer.buffers["running_mean"][...] = rng.normal(size=channels)
        layer.buffers["running_var"][...] = rng.uniform(0.5, 2.0, size=channels)

        out = VectorizedRun(size_runs(sizes), training=False).forward(layer, x)
        want = layer.forward(x, training=False)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()


class TestDropoutStreamsOnDemand:
    """A fused step derives its nodes' dropout generators when a Dropout
    with a non-zero rate first asks for them — the same streams the serial
    loop draws from — and a model that drops nothing derives none."""

    @pytest.fixture
    def derived(self, monkeypatch):
        calls = []

        def spy(*coords):
            calls.append(coords)
            return vn_rng(*coords)

        monkeypatch.setattr(fused_module, "vn_rng", spy)
        return calls

    def test_a_resnet_step_derives_none(self, derived):
        trainer = _trainer(workload="resnet56_cifar10", batch=32, vns=4,
                           dataset_size=64, backend="fused")
        trainer.train_epoch()
        assert trainer.executor.examples_seen > 0
        assert derived == []

    def test_mlp_dropout_matches_the_reference_one_derivation_per_node_step(self, derived):
        a = _trainer(batch=32, vns=8, devices=2, backend="reference")
        b = _trainer(batch=32, vns=8, devices=2, backend="fused")
        rates = {m.rate for m in b.executor.model.modules() if isinstance(m, Dropout)}
        assert rates == {0.1}
        steps = []
        a.train(epochs=2)
        for _ in range(2):
            b.train_epoch(on_step=steps.append)
        _assert_bit_identical(a, b)
        # Two Dropout layers share each node's stream: derived once a step.
        assert len(derived) == 8 * len(steps)

    def test_a_rate_raised_after_the_first_step_takes_effect(self, derived):
        def train(backend, raise_after_first_step):
            trainer = _trainer(batch=32, vns=8, devices=2, backend=backend)
            dropouts = [m for m in trainer.executor.model.modules()
                        if isinstance(m, Dropout)]
            for m in dropouts:
                m.rate = 0.0
            derived_after = []

            def on_step(result):
                derived_after.append(len(derived))
                if raise_after_first_step:
                    for m in dropouts:
                        m.rate = 0.1

            trainer.train_epoch(on_step=on_step)
            trainer.train_epoch()
            return trainer, derived_after

        reference, _ = train("reference", True)
        derived.clear()
        fused, derived_after = train("fused", True)
        _assert_bit_identical(reference, fused)
        assert derived_after[:2] == [0, 8]  # nothing for the zero-rate step
        never_raised, _ = train("fused", False)
        assert not np.array_equal(fused.executor.model.parameters()["0.w"],
                                  never_raised.executor.model.parameters()["0.w"])


class _RecordingRun(VectorizedRun):
    """A VectorizedRun that remembers its GEMM weight operands."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gemm_weights = []

    def seg_matmul(self, a, w, out=None):
        self.gemm_weights.append(w)
        return super().seg_matmul(a, w, out)

    def issued_input_grad_gemm(self, weight: np.ndarray) -> bool:
        """Whether ``g @ weight.T`` (as 2-D GEMM operands) was multiplied."""
        w2t = weight.reshape(-1, weight.shape[-1]).T
        return any(w.shape == w2t.shape and w.strides == w2t.strides
                   and np.shares_memory(w, weight) for w in self.gemm_weights)


def _first_and_later_weights(model):
    """The first parameterised module's weight, and every other GEMM weight."""
    weights = [m.params["w"] for m in model.modules() if "w" in m.params]
    first = next(m for m in model.modules() if m.params)
    return first.params.get("w"), [w for w in weights if w is not first.params.get("w")]


class TestBatchInputHasNoGradient:
    """One fused step against the reference loop, node by node — with the
    input-gradient work of the layer that consumes the batch never done."""

    def _check(self, step, monkeypatch):
        model = step.model
        nodes = (step.state_matrix.nodes if step.state_matrix is not None
                 else [VirtualNodeState(node.index) for node in step.vn_set])
        # The reference loop, one wave at a time.
        want_grads, want_states = [], []
        for node, (x, y) in zip(step.vn_set, step.shards):
            model.load_state_dict(nodes[node.index].buffers)
            logits = model.forward(x, training=True,
                                   rng=vn_rng(step.seed, step.epoch, step.step, node.index))
            step.loss_fn.forward(logits, y)
            model.zero_grad()
            model.backward(step.loss_fn.backward())
            want_grads.append({k: v.copy() for k, v in model.gradients().items()})
            want_states.append(model.state_dict())

        made = []
        monkeypatch.setattr(fused_module, "VectorizedRun",
                            lambda *a, **k: made.append(_RecordingRun(*a, **k)) or made[-1])
        FusedBackend().train_step(step)
        (run,) = made

        assert set(run.param_grads) == set(want_grads[0])
        for key, stack in run.param_grads.items():
            for i, want in enumerate(want_grads):
                np.testing.assert_array_equal(stack[i], want[key], err_msg=f"{key}[{i}]")
        for state, want in zip(nodes, want_states):
            assert set(state.buffers) == set(want)
            for key in want:
                np.testing.assert_array_equal(state.buffers[key], want[key], err_msg=key)

        first, later = _first_and_later_weights(model)
        if first is not None:  # None: the first parameterised layer is an Embedding
            assert not run.issued_input_grad_gemm(first)
        assert later
        return run, later

    @pytest.mark.parametrize("workload", STATELESS_WORKLOADS + STATEFUL_WORKLOADS)
    @pytest.mark.parametrize("sizes", [[4, 4, 4, 4], [6, 1, 5, 4]])
    def test_every_zoo_workload(self, workload, sizes, monkeypatch):
        wl = get_workload(workload)
        self._check(_train_step(wl.build_model(0), wl.dataset, sizes), monkeypatch)

    def test_dense_first_model_skips_only_the_first_gemm(self, monkeypatch):
        wl = get_workload("mlp_synthetic")
        run, later = self._check(_train_step(wl.build_model(0), wl.dataset, [4] * 4),
                                 monkeypatch)
        assert all(run.issued_input_grad_gemm(w) for w in later)

    def test_leading_residual_passes_the_flag_to_its_body_only(self, monkeypatch):
        rng = np.random.default_rng(0)
        wl = get_workload("mlp_synthetic")
        model = Sequential(
            Residual(Sequential(Dense(32, 20, rng), ReLU(), Dense(20, 32, rng))),
            Residual(Sequential(Dense(32, 12, rng), ReLU(), Dense(12, 32, rng))),
            Dense(32, 10, rng))
        run, later = self._check(_train_step(model, wl.dataset, [5, 3, 4]), monkeypatch)
        # Every layer but the first still hands a gradient to its producer.
        assert len(later) == 4 and all(run.issued_input_grad_gemm(w) for w in later)

    def test_a_run_asked_for_the_input_gradient_still_computes_it(self):
        rng = np.random.default_rng(0)
        model = Sequential(Residual(Sequential(Dense(6, 9, rng), ReLU(), Dense(9, 6, rng))))
        x, grad = rng.normal(size=(8, 6)), rng.normal(size=(8, 6))
        model.forward(x, training=True)
        want = model.backward(grad)
        run = VectorizedRun([[4, 2]], training=True)
        run.forward(model, x)
        np.testing.assert_array_equal(run.backward(model, grad), want)
        skipped = VectorizedRun([[4, 2]], training=True)
        skipped.forward(model, x)
        assert skipped.backward(model, grad, input_grad=False) is None
        for key, stack in run.param_grads.items():
            np.testing.assert_array_equal(stack, skipped.param_grads[key])


class TestLedgerTrainingRun:
    """The ledger's ``train_fused`` scenario, held to the two mechanisms its
    wall time depends on — by counts and traced bytes, never by a clock."""

    @pytest.fixture()
    def argv(self, tmp_path):
        sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                        os.pardir, os.pardir, "benchmarks", "e2e"))
        try:
            import e2e_workloads
        finally:
            sys.path.pop(0)
        return e2e_workloads._train_argv(e2e_workloads.Context(0, 1.0, str(tmp_path)))

    def test_scatter_count_and_traced_peak(self, argv, monkeypatch, capsys):
        from repro import cli
        from repro.core.backends import vectorized_conv

        calls = []
        real = vectorized_conv.col2im
        monkeypatch.setattr(vectorized_conv, "col2im",
                            lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        assert cli.main(argv) == 0
        # 6 steps x 5 convolutions, minus the stem's: its input is the batch.
        assert len(calls) == 24
        assert all(shape[-1] == 6 for shape in calls)  # never the 3-channel images

        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 60e6


class TestInferenceEquivalence:
    @pytest.mark.parametrize("workload", STATELESS_WORKLOADS + ("resnet56_cifar10",))
    @pytest.mark.parametrize("devices", [1, 4])
    def test_predictions_bit_identical(self, workload, devices):
        wl = get_workload(workload)
        vn_set = VirtualNodeSet.even(32, 8)
        mapping = Mapping.even(vn_set, Cluster.homogeneous("V100", devices))
        ds = make_dataset(wl.dataset, n=64, seed=0)
        ref = on_reference(InferenceEngine(wl, wl.build_model(0), mapping))
        fused = InferenceEngine(wl, wl.build_model(0), mapping)
        a = ref.predict(ds.x_train[:32])
        b = fused.predict(ds.x_train[:32])
        np.testing.assert_array_equal(a.logits, b.logits)
        assert a.sim_latency == b.sim_latency  # latency model is engine-owned
        assert a.waves == b.waves

    def test_partial_batch_with_empty_shards(self):
        """10 examples over 8 virtual nodes -> uneven shards, some empty."""
        wl = get_workload("mlp_synthetic")
        vn_set = VirtualNodeSet.even(32, 8)
        mapping = Mapping.even(vn_set, Cluster.homogeneous("V100", 2))
        ds = make_dataset(wl.dataset, n=64, seed=0)
        ref = on_reference(InferenceEngine(wl, wl.build_model(0), mapping))
        fused = InferenceEngine(wl, wl.build_model(0), mapping)
        for n in (1, 7, 10, 32):
            a = ref.predict(ds.x_train[:n])
            b = fused.predict(ds.x_train[:n])
            np.testing.assert_array_equal(a.logits, b.logits)

    @pytest.mark.parametrize("workload", ("mlp_synthetic", "resnet56_cifar10"))
    def test_mixed_size_shards_bit_identical(self, workload):
        """Mixed shard sizes run as one segmented pass, not per-size runs."""
        wl = get_workload(workload)
        vn_set = VirtualNodeSet.uneven([16, 8, 4, 4])
        mapping = Mapping.even(vn_set, Cluster.homogeneous("V100", 2))
        ds = make_dataset(wl.dataset, n=64, seed=0)
        ref = on_reference(InferenceEngine(wl, wl.build_model(0), mapping))
        fused = InferenceEngine(wl, wl.build_model(0), mapping)
        for n in (5, 13, 32):
            a = ref.predict(ds.x_train[:n])
            b = fused.predict(ds.x_train[:n])
            np.testing.assert_array_equal(a.logits, b.logits)


class TestCheckpointMidFusedRun:
    def test_round_trip_resumes_fused_run_bit_exactly(self, tmp_path):
        """Checkpoint mid-fused-run on a stateful workload, resume, compare.

        The resumed fused run and an uninterrupted reference run must agree
        bit-for-bit on parameters AND per-node stateful kernels — the packed
        state round trip may not leak through the checkpoint format.
        """
        from repro.core import load_checkpoint, save_checkpoint
        from repro.data.loader import BatchLoader

        wl = get_workload("resnet56_cifar10")
        ds = make_dataset(wl.dataset, n=64, seed=0)
        loader = BatchLoader(ds, 32, seed=0)

        def _run(trainer, epoch, start, stop):
            for batch in loader.epoch(epoch):
                if start <= batch.step < stop:
                    trainer.executor.run_step(batch.x, batch.y, epoch, batch.step)

        kwargs = dict(workload="resnet56_cifar10", batch=32, vns=4, devices=2,
                      dataset_size=64)
        fused = _trainer(backend="fused", **kwargs)
        ref = _trainer(backend="reference", **kwargs)
        _run(fused, 0, 0, 1)  # one fused step, then checkpoint mid-run
        _run(ref, 0, 0, 1)
        path = str(tmp_path / "mid_fused.npz")
        save_checkpoint(fused.executor, path)

        resumed = _trainer(backend="fused", **kwargs)
        load_checkpoint(resumed.executor, path)
        for trainer in (fused, resumed, ref):
            _run(trainer, 0, 1, 2)

        pf = fused.executor.model.parameters()
        for other in (resumed, ref):
            po = other.executor.model.parameters()
            for key in pf:
                np.testing.assert_array_equal(pf[key], po[key], err_msg=key)
            for sa, sb in zip(fused.executor.vn_states, other.executor.vn_states):
                assert sa.equals(sb)


class TestEvalStateCache:
    def test_merged_eval_state_cached_and_invalidated(self, small_dataset):
        t = _trainer(workload="resnet56_cifar10", batch=32, vns=4, dataset_size=64)
        ex = t.executor
        ds = t.dataset
        assert ex._eval_state is None
        first = ex.evaluate(ds.x_val, ds.y_val)
        cached = ex._eval_state
        assert cached is not None
        assert ex.evaluate(ds.x_val, ds.y_val) == first
        assert ex._eval_state is cached  # reused, not recomputed
        ex.run_step(ds.x_train[:32], ds.y_train[:32], epoch=0, step=0)
        assert ex._eval_state is None  # a step moves the stateful kernels
        second = ex.evaluate(ds.x_val, ds.y_val)
        assert ex._eval_state is not cached
        assert second != first

    def test_remap_and_state_assignment_invalidate(self, small_dataset):
        t = _trainer(workload="resnet56_cifar10", batch=32, vns=4, devices=2,
                     dataset_size=64)
        ex = t.executor
        t.train_epoch()
        ex.evaluate(t.dataset.x_val, t.dataset.y_val)
        assert ex._eval_state is not None
        t.resize(1)
        assert ex._eval_state is None
        ex.evaluate(t.dataset.x_val, t.dataset.y_val)
        ex.vn_states = [s.copy() for s in ex.vn_states]  # checkpoint restore path
        assert ex._eval_state is None


class TestStateMatrixOwnership:
    """The executor owns its nodes' stateful buffers as the rows of one
    matrix: steps write the rows in place, node states are views of them."""

    def _trained(self, backend):
        t = _trainer(workload="resnet56_cifar10", batch=32, vns=4, devices=2,
                     dataset_size=64, backend=backend)
        t.executor.run_step(t.dataset.x_train[:32], t.dataset.y_train[:32], 0, 0)
        return t

    @pytest.mark.parametrize("backend", ["fused", "reference"])
    def test_a_step_updates_the_rows_in_place(self, backend):
        t = self._trained(backend)
        ex = t.executor
        rows, layout = ex.state_matrix.rows, ex.state_matrix.layout
        buffers = [dict(state.buffers) for state in ex.vn_states]
        kept = [state.copy() for state in ex.vn_states]
        before = rows.copy()
        ex.run_step(t.dataset.x_train[:32], t.dataset.y_train[:32], 0, 1)
        assert ex.state_matrix.rows is rows and not np.array_equal(rows, before)
        for i, state in enumerate(ex.vn_states):
            for key, view in state.buffers.items():
                assert view is buffers[i][key]  # updated, not replaced
                assert np.shares_memory(view, rows[i])
            assert layout.pack(state.buffers).tobytes() == rows[i].tobytes()
            assert layout.pack(kept[i].buffers).tobytes() == before[i].tobytes()

    def test_restore_writes_the_rows_and_drops_the_merge(self):
        t = self._trained("fused")
        ex = t.executor
        x, y = t.dataset.x_val, t.dataset.y_val
        saved = [state.copy() for state in ex.vn_states]
        ex.run_step(t.dataset.x_train[:32], t.dataset.y_train[:32], 0, 1)
        stale = ex.evaluate(x, y)  # caches the merge of the stepped rows
        rows = ex.state_matrix.rows
        ex.vn_states = saved  # the checkpoint-restore path
        assert ex.state_matrix.rows is rows  # copied in, not replaced
        assert all(got.equals(want) for got, want in zip(ex.vn_states, saved))
        restored = ex.evaluate(x, y)
        assert restored == oracle_evaluate(ex, x, y) and restored != stale

    def test_inference_engine_serves_the_merge_of_the_trained_rows(self):
        t = self._trained("fused")
        ex = t.executor
        engine = InferenceEngine.from_executor(ex)
        batch = t.dataset.x_val[:8]
        served = engine.predict(batch).logits
        rows = ex.state_matrix.rows
        merged = ex.state_matrix.layout.views(rows.sum(axis=0) / len(rows))
        ex.model.load_state_dict(merged)
        np.testing.assert_array_equal(served, ex.model.forward(batch, training=False))
        assert engine._state_matrix.rows is not rows  # the engine's own copy


class TestElasticBackendThreading:
    def test_jobspec_materializes_with_backend(self):
        spec = JobSpec(job_id=0, workload="mlp_synthetic", global_batch_size=32,
                       total_virtual_nodes=4, demand_gpus=2, total_steps=10)
        config = spec.to_trainer_config(dataset_size=64)
        assert config.num_devices == 2
        trainer = VirtualFlowTrainer(config)
        trainer.train(epochs=1)
        assert isinstance(trainer.executor.backend, FusedBackend)
