"""The per-virtual-node state path, drawn whole.

One property draws an uneven virtual-node set of 2-8 nodes for
``resnet56_cifar10`` (BatchNorm, so every node carries moving statistics),
the step at which the job is remapped onto another device count, and
optionally a step at which it is checkpointed and restored into a fresh
executor on yet another device count.  Step by step, the job's state rows,
losses and gradient norms — and at the end its parameters — must equal,
bit for bit, both the per-key serial loop (``tests/oracles/serial_step.py``)
and the same job run on its first mapping throughout.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles.serial_step import SerialExecutor
from repro.core import (
    Mapping,
    VirtualFlowExecutor,
    VirtualNodeSet,
    load_checkpoint,
    save_checkpoint,
)
from repro.data import make_dataset
from repro.framework import SoftmaxCrossEntropy, get_workload
from repro.hardware import Cluster

WORKLOAD = get_workload("resnet56_cifar10")
STEPS = 3


def _executor(vn_set, devices):
    return VirtualFlowExecutor(
        WORKLOAD, WORKLOAD.build_model(0), SoftmaxCrossEntropy(),
        WORKLOAD.build_optimizer(),
        Mapping.even(vn_set, Cluster.homogeneous("V100", devices)), seed=0)


def _assert_same_rows(got, want, step):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert set(a.buffers) == set(b.buffers)
        for key in b.buffers:
            assert a.buffers[key].tobytes() == b.buffers[key].tobytes(), (step, i, key)


@st.composite
def scenarios(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=8))
    devices = draw(st.lists(st.integers(1, min(4, len(sizes))), min_size=3, max_size=3))
    remap_at = draw(st.integers(1, STEPS - 1))
    restore_at = draw(st.none() | st.integers(1, STEPS - 1))
    return sizes, devices, remap_at, restore_at


@given(scenarios())
@settings(max_examples=30, deadline=None)
def test_remap_and_restore_keep_every_bit_of_the_state_path(scenario):
    sizes, (first, second, third), remap_at, restore_at = scenario
    vn_set = VirtualNodeSet.uneven(sizes)
    job, fixed = _executor(vn_set, first), _executor(vn_set, first)
    serial = SerialExecutor(WORKLOAD.build_model(0), SoftmaxCrossEntropy(),
                            WORKLOAD.build_optimizer(), vn_set, seed=0)
    batch = vn_set.global_batch_size
    data = make_dataset(WORKLOAD.dataset, n=2 * STEPS * batch, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        for step in range(STEPS):
            if step == remap_at:
                job.remap(Mapping.even(vn_set, Cluster.homogeneous("V100", second)))
            if step == restore_at:
                path = os.path.join(tmp, f"step{step}.npz")
                save_checkpoint(job, path)
                job = _executor(vn_set, third)
                load_checkpoint(job, path)
            x = data.x_train[step * batch:(step + 1) * batch]
            y = data.y_train[step * batch:(step + 1) * batch]
            got = job.run_step(x, y, 0, step)
            want = fixed.run_step(x, y, 0, step)
            assert (got.loss, got.grad_norm) == (want.loss, want.grad_norm), step
            assert (got.loss, got.grad_norm) == serial.run_step(x, y, 0, step), step
            _assert_same_rows(job.vn_states, fixed.vn_states, step)
            _assert_same_rows(job.vn_states, serial.vn_states, step)
    params = job.model.parameters()
    for other in (fixed.model.parameters(), serial.model.parameters()):
        assert set(params) == set(other)
        for key, value in other.items():
            assert params[key].tobytes() == value.tobytes(), key
