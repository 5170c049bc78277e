"""Shared test fixtures and numerical helpers."""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest

from repro.core import Mapping, VirtualFlowExecutor, VirtualNodeSet
from repro.data import make_dataset
from repro.framework import ArenaView, FlatLayout, SoftmaxCrossEntropy, get_workload
from repro.hardware import Cluster

from oracles.reference_backend import ReferenceBackend


def numeric_gradient(f: Callable[[], float], array: np.ndarray,
                     eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + eps
        f_plus = f()
        array[idx] = orig - eps
        f_minus = f()
        array[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def assert_grads_close(analytic: np.ndarray, numeric: np.ndarray,
                       rtol: float = 1e-5, atol: float = 1e-7) -> None:
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def arena_views(**params):
    """``(params, grads)``: arena views on one layout, as an optimizer steps
    them — the parameters at the given values, the gradients at zero."""
    params = {name: np.array(value, dtype=float) for name, value in params.items()}
    layout = FlatLayout(params)
    return ArenaView(layout, layout.pack(params)), ArenaView(layout, layout.alloc())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def build_executor(workload_name: str = "mlp_synthetic", global_batch: int = 32,
                   num_vns: int = 4, num_devices: int = 1, seed: int = 0,
                   device_type: str = "V100") -> VirtualFlowExecutor:
    """A small ready-to-step executor for integration tests."""
    workload = get_workload(workload_name)
    vn_set = VirtualNodeSet.even(global_batch, num_vns)
    cluster = Cluster.homogeneous(device_type, num_devices)
    mapping = Mapping.even(vn_set, cluster)
    return VirtualFlowExecutor(
        workload=workload,
        model=workload.build_model(seed),
        loss_fn=SoftmaxCrossEntropy(),
        optimizer=workload.build_optimizer(),
        mapping=mapping,
        seed=seed,
    )


@pytest.fixture
def built_runs(monkeypatch):
    """Every ``VectorizedRun`` built while the test runs, in order."""
    from repro.core.backends.vectorized import VectorizedRun

    runs, init = [], VectorizedRun.__init__

    def record(run, *args, **kwargs):
        init(run, *args, **kwargs)
        runs.append(run)
    monkeypatch.setattr(VectorizedRun, "__init__", record)
    return runs


def on_reference(runner):
    """Run ``runner`` — an executor, an inference engine or a request router
    — on the serial oracle loop instead of the fused backend every engine
    shares.  Returns ``runner``."""
    holder = getattr(runner, "inference", runner)
    holder.engine.backend = ReferenceBackend()
    return runner


@pytest.fixture
def small_dataset():
    return make_dataset("synthetic_vectors", n=256, seed=0)
