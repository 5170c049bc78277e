"""Flat tensor arena: the production step must equal the per-key serial loop.

The arena is host-side storage the executor always installs — parameters
and gradients in two contiguous buffers, synchronization and the optimizer
as whole-arena vector ops.  Its contract mirrors the backend seam's: it may
change wall-clock cost only, never a single bit of the training trajectory.
This suite trains the same configuration on the executor (on the fused
backend and on the reference loop) and on ``tests/oracles/serial_step.py``
— per-key gradient copies, a per-key weighted average and a per-key
optimizer update over a model without an arena — and asserts exact
equality of losses, gradient norms, evaluation, parameters, optimizer slot
variables and stateful kernels: across workloads (stateless and
BatchNorm), optimizers (including LAMB's segmented trust ratios) and an
uneven (12, 8, 4) table.  It also holds the one checkpoint format to a bit-
exact round trip and to a file that does not depend on the run's history.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.evaluate import evaluate as oracle_evaluate
from oracles.serial_step import SerialExecutor
from repro.core import (
    Mapping,
    VirtualNodeSet,
    VirtualFlowExecutor,
    load_checkpoint,
    save_checkpoint,
)
from repro.data import make_dataset
from repro.framework import (
    LAMB,
    SGD,
    Adam,
    AdamW,
    ArenaView,
    FlatLayout,
    FlatTensorArena,
    Momentum,
    SoftmaxCrossEntropy,
    get_workload,
)
from repro.hardware import Cluster
from tests.conftest import on_reference

OPTIMIZERS = {
    "sgd": lambda: SGD(0.05),
    "momentum": lambda: Momentum(0.05, momentum=0.9, nesterov=True),
    "adam": lambda: Adam(1e-3),
    "adamw": lambda: AdamW(1e-3, weight_decay=0.01),
    "lamb": lambda: LAMB(1e-3, weight_decay=0.01),
}


def _executor(workload_name: str, opt_name: str, vn_sizes=(4, 4, 4, 4),
              backend: str = "fused") -> VirtualFlowExecutor:
    workload = get_workload(workload_name)
    vn_set = VirtualNodeSet.uneven(vn_sizes)
    ex = VirtualFlowExecutor(
        workload=workload,
        model=workload.build_model(0),
        loss_fn=SoftmaxCrossEntropy(),
        optimizer=OPTIMIZERS[opt_name](),
        mapping=Mapping.even(vn_set, Cluster.homogeneous("V100", 2)),
        seed=0,
    )
    return on_reference(ex) if backend == "reference" else ex


def _steps(ex, steps: int) -> None:
    batch = ex.vn_set.global_batch_size
    data = make_dataset(ex.workload.dataset, n=2 * batch, seed=0)
    for step in range(steps):
        ex.run_step(data.x_train[:batch], data.y_train[:batch], epoch=0, step=step)


def _assert_exact(d: dict, f: dict) -> None:
    assert set(d) == set(f)
    for key in d:
        np.testing.assert_array_equal(d[key], f[key], err_msg=key)


def _assert_equals_the_oracle(workload_name: str, opt_name: str, backend: str,
                              vn_sizes=(4, 4, 4, 4), steps: int = 3) -> None:
    """Train the executor and the per-key loop alike; bit-identical all along."""
    ex = _executor(workload_name, opt_name, vn_sizes, backend)
    serial = SerialExecutor(ex.workload.build_model(0), SoftmaxCrossEntropy(),
                            OPTIMIZERS[opt_name](), ex.vn_set, seed=0)
    batch = ex.vn_set.global_batch_size
    data = make_dataset(ex.workload.dataset, n=2 * batch, seed=0)
    x, y = data.x_train[:batch], data.y_train[:batch]
    for step in range(steps):
        result = ex.run_step(x, y, epoch=0, step=step)
        assert (result.loss, result.grad_norm) == serial.run_step(x, y, 0, step), step
    assert ex.evaluate(data.x_val, data.y_val) == oracle_evaluate(
        serial, data.x_val, data.y_val)
    _assert_exact(ex.model.parameters(), serial.model.parameters())
    _assert_exact(ex.optimizer.state_dict(), serial.optimizer.state_dict())
    for got, want in zip(ex.vn_states, serial.vn_states):
        assert got.equals(want)


class TestArenaEquivalence:
    """The executor's arena step vs the per-key loop: bit-identical everything."""

    @pytest.mark.parametrize("workload", ["mlp_synthetic", "resnet56_cifar10",
                                          "bert_base_glue"])
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_workloads_and_backends(self, workload, backend):
        _assert_equals_the_oracle(workload, "momentum", backend)

    @pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
    def test_every_optimizer(self, opt_name):
        _assert_equals_the_oracle("mlp_synthetic", opt_name, "fused")

    def test_uneven_shards_weighted_sync(self):
        """§5.2 weighting through the flat stack reduction, bit for bit."""
        for backend in ("reference", "fused"):
            _assert_equals_the_oracle("mlp_synthetic", "momentum", backend,
                                      vn_sizes=(12, 8, 4))

    def test_checkpoint_flat_round_trip(self, tmp_path):
        """Checkpoints restore bit-exactly into a fresh executor and into
        one that has already stepped."""
        path = str(tmp_path / "ck.npz")
        src = _executor("resnet56_cifar10", "adam")
        _steps(src, 3)
        save_checkpoint(src, path)
        snapshot = {k: v.copy() for k, v in src.model.parameters().items()}
        slots = src.optimizer.state_dict()
        for steps in (0, 1):
            dst = _executor("resnet56_cifar10", "adam")
            _steps(dst, steps)
            load_checkpoint(dst, path)
            _assert_exact(snapshot, dst.model.parameters())
            _assert_exact(slots, dst.optimizer.state_dict())
            for ss, sd in zip(src.vn_states, dst.vn_states):
                assert ss.equals(sd)
            assert dst.optimizer.step_count == src.optimizer.step_count

    @pytest.mark.parametrize("workload", ["mlp_synthetic", "resnet56_cifar10"])
    @pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
    def test_restored_state_saves_the_same_file(self, tmp_path, workload, opt_name):
        """save -> load -> save with no step in between writes the same
        arrays, byte for byte: the format does not depend on whether the
        optimizer's slots are flat yet."""
        src = _executor(workload, opt_name)
        _steps(src, 1)
        first, second = str(tmp_path / "first.npz"), str(tmp_path / "second.npz")
        save_checkpoint(src, first)
        dst = _executor(workload, opt_name)
        load_checkpoint(dst, first)
        save_checkpoint(dst, second)
        with np.load(first) as a, np.load(second) as b:
            assert a.files == b.files
            for key in a.files:
                assert (a[key].dtype, a[key].shape) == (b[key].dtype, b[key].shape), key
                assert a[key].tobytes() == b[key].tobytes(), key


class TestArenaMechanics:
    """Structural properties of the layout/view machinery."""

    def test_views_alias_the_flat_buffers(self):
        model = get_workload("mlp_synthetic").build_model(0)
        arena = FlatTensorArena.install(model)
        name = arena.layout.names[0]
        before = arena.params[name].copy()
        arena.params_flat += 1.0
        np.testing.assert_array_equal(arena.params[name], before + 1.0)
        # The module's own registered arrays are the same memory.
        first_param = next(iter(model.named_parameters()))[1]
        assert first_param.base is not None

    def test_install_is_idempotent(self):
        model = get_workload("mlp_synthetic").build_model(0)
        arena = FlatTensorArena.install(model)
        assert FlatTensorArena.install(model) is arena

    def test_parameters_and_gradients_return_arena_views(self):
        model = get_workload("mlp_synthetic").build_model(0)
        FlatTensorArena.install(model)
        assert isinstance(model.parameters(), ArenaView)
        assert isinstance(model.gradients(), ArenaView)
        assert set(model.parameters()) == set(dict(model.named_parameters()))

    def test_zero_grad_clears_whole_arena(self):
        model = get_workload("mlp_synthetic").build_model(0)
        arena = FlatTensorArena.install(model)
        arena.grads_flat[...] = 3.0
        model.zero_grad()
        assert not arena.grads_flat.any()

    def test_layout_is_canonical_sorted_order(self):
        layout = FlatLayout({"b": np.zeros(3), "a": np.zeros((2, 2))})
        assert layout.names == ("a", "b")
        assert layout.total_size == 7
        rng = np.random.default_rng(0)
        flat = rng.standard_normal(7)
        views = layout.views(flat)
        np.testing.assert_array_equal(views["a"].ravel(), flat[:4])
        np.testing.assert_array_equal(views["b"], flat[4:])

    def test_layout_rejects_mixed_dtypes_and_empty(self):
        with pytest.raises(ValueError, match="mixed dtypes"):
            FlatLayout({"a": np.zeros(2), "b": np.zeros(2, dtype=np.float32)})
        with pytest.raises(ValueError, match="non-empty"):
            FlatLayout({})

    def test_stacked_views_alias_the_matrix(self):
        """(rows,)+shape views over a packed state matrix are true aliases."""
        rng = np.random.default_rng(3)
        template = {"running_mean": np.zeros(6), "running_var": np.ones(6)}
        layout = FlatLayout(template)
        matrix = rng.standard_normal((4, layout.total_size))
        views = layout.stacked_views(matrix)
        assert set(views) == {"running_mean", "running_var"}
        for name in views:
            assert views[name].shape == (4, 6)
            assert views[name].base is not None  # no copies
        # Writes through a view land in the matrix (and vice versa).
        views["running_mean"][2] = 7.0
        np.testing.assert_array_equal(
            layout.views(matrix[2])["running_mean"], np.full(6, 7.0))
        with pytest.raises(ValueError, match="state matrix"):
            layout.stacked_views(matrix[:, :-1])

    def test_segment_dots_match_per_key_norms(self):
        rng = np.random.default_rng(7)
        template = {"w": rng.standard_normal((13, 5)), "b": rng.standard_normal(11)}
        layout = FlatLayout(template)
        flat = layout.pack(template)
        norms = np.sqrt(layout.segment_dots(flat))
        for i, name in enumerate(layout.names):
            assert norms[i] == float(np.linalg.norm(template[name]))

    def test_pack_names_a_missing_tensor(self):
        layout = FlatLayout({"w": np.zeros((4, 3)), "b": np.zeros(3)})
        with pytest.raises(KeyError, match="'w'"):
            layout.pack({"b": np.ones(3)})

    def test_grad_stack_is_one_reused_scratch_buffer(self):
        """Gradient stacks share memory across calls and grow only on demand."""
        model = get_workload("mlp_synthetic").build_model(0)
        arena = FlatTensorArena.install(model)
        four = arena.grad_stack(4)
        assert four.shape == (4, arena.layout.total_size)
        assert np.shares_memory(arena.grad_stack(2), four)
        eight = arena.grad_stack(8)
        assert eight.shape[0] == 8 and not np.shares_memory(eight, four)
        assert np.shares_memory(arena.grad_stack(4), eight)

    def test_spec_round_trip(self):
        template = {"w": np.zeros((4, 3)), "b": np.zeros(3)}
        layout = FlatLayout(template)
        rebuilt = FlatLayout.from_spec(**layout.spec())
        assert rebuilt == layout
