"""The executor's step workspace: reused buffers that never change a result.

A fused step keeps every convolution's patch rows, the padded-input and
interleave scratch and the packed state matrix in the executor's workspace
and writes them again next step.  That is safe only if no buffer a later
kernel still reads is shared or overwritten: these tests train models whose
convolution input gradients feed a ``Residual`` skip add or the next
convolution directly, against the reference loop, bit for bit, and pin the
workspace's buffers from one step to the next and across a remap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FusedBackend, Mapping, VirtualFlowExecutor, VirtualNodeSet
from repro.data import make_dataset
from repro.framework import SoftmaxCrossEntropy, get_workload
from repro.framework.conv import BatchNorm, Conv2D, GlobalAvgPool2D
from repro.framework.layers import Dense, ReLU, Residual, Sequential
from repro.hardware import Cluster
from tests.conftest import on_reference


def _skip_add_model():
    rng = np.random.default_rng(0)
    # The body's first convolution hands its input gradient to the skip add,
    # whose other operand is the input gradient of a convolution of the
    # same geometry: were those one shared buffer, the body would overwrite
    # the skip path's gradient before the add.
    return Sequential(
        Conv2D(3, 4, 3, rng), BatchNorm(4), ReLU(),
        Residual(Sequential(Conv2D(4, 4, 3, rng), ReLU(), Conv2D(4, 4, 3, rng))),
        Conv2D(4, 4, 3, rng), GlobalAvgPool2D(), Dense(4, 10, rng))


def _conv_chain_model():
    rng = np.random.default_rng(0)
    # Convolution into convolution: two layers of one geometry share the
    # padded-input scratch, and the 1x1 kernel's patch rows are a view of
    # its input until the workspace copies them.
    return Sequential(
        Conv2D(3, 4, 3, rng), Conv2D(4, 4, 3, rng), Conv2D(4, 4, 3, rng),
        Conv2D(4, 4, 1, rng, padding="valid"), Conv2D(4, 4, 3, rng, stride=2),
        GlobalAvgPool2D(), Dense(4, 10, rng))


def _executor(build, sizes):
    workload = get_workload("resnet56_cifar10")
    vn_set = VirtualNodeSet.uneven(sizes)
    return VirtualFlowExecutor(
        workload, build(), SoftmaxCrossEntropy(), workload.build_optimizer(),
        Mapping.even(vn_set, Cluster.homogeneous("V100", 4)), seed=0)


def _buffers(workspace):
    """Every array the workspace holds, by key, as object identities."""
    ids = {}
    for key, value in workspace.items():
        values = value if isinstance(value, tuple) else (value,)
        ids[key] = tuple(id(v) for v in values if isinstance(v, np.ndarray))
    return ids


@pytest.mark.parametrize("build", [_skip_add_model, _conv_chain_model])
@pytest.mark.parametrize("sizes", [[6, 6, 6, 6], [9, 5, 5, 5]])
def test_fused_steps_and_remap_equal_the_reference_loop(build, sizes):
    fused = _executor(build, sizes)
    ref = on_reference(_executor(build, sizes))
    batch = sum(sizes)
    data = make_dataset("synthetic_cifar10", n=8 * batch, seed=0)
    workspace = fused._workspace
    pinned = None
    for step in range(5):
        if step == 3:
            for ex in (fused, ref):
                ex.remap(Mapping.even(ex.vn_set, Cluster.homogeneous("V100", 2)))
        x = data.x_train[step * batch:(step + 1) * batch]
        y = data.y_train[step * batch:(step + 1) * batch]
        a, b = fused.run_step(x, y, 0, step), ref.run_step(x, y, 0, step)
        assert a.loss == b.loss and a.grad_norm == b.grad_norm, step
        pa, pb = fused.model.parameters(), ref.model.parameters()
        for key in pa:
            np.testing.assert_array_equal(pa[key], pb[key], err_msg=f"{key} @ {step}")
        for sa, sb in zip(fused.vn_states, ref.vn_states):
            assert sa.equals(sb)
        # Allocated during the first step; the same arrays ever after.
        if pinned is None:
            pinned = _buffers(workspace)
            assert any(key[0] == "cols" for key in pinned)
        assert _buffers(workspace) == pinned, step


def test_inference_runs_hold_no_workspace(built_runs):
    ex = _executor(_skip_add_model, [6, 6, 6, 6])
    ex.engine.backend = FusedBackend()
    data = make_dataset("synthetic_cifar10", n=64, seed=0)
    ex.run_step(data.x_train[:24], data.y_train[:24], 0, 0)
    before = _buffers(ex._workspace)
    del built_runs[:]  # the training step's
    ex.evaluate(data.x_val, data.y_val, batch_size=5)
    assert built_runs
    for run in built_runs:
        assert run.workspace is None and not hasattr(run, "_cache")
    assert _buffers(ex._workspace) == before
