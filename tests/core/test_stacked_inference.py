"""Stacked inference: many micro-batches forwarded in one backend call.

``InferenceEngine.predict_stacked`` gathers the bank rows of every
micro-batch, its node segments grouped by segment size, into one batch and
hands the backend one ``(size, count)`` size run per segment size.
Hypothesis draws the model family (the MLP, ``SmallCNN`` serving a trained
job's merged ``vn_states``, ``TinyBert`` and ``TinyTransformer``; an MLP
with a user layer that has no kernel is refused when its engine is built),
the virtual node set (1–8 nodes, even or
uneven), the device count and 1–40 micro-batches of 1–8 requests — lengths
below V leave nodes empty — and holds every row byte-equal to ``predict``
of its own micro-batch, on the fused backend and on the serial
``ReferenceBackend``.  The pass memoizes one plan per micro-batch length,
and its interpreter-level cost does not grow with the number of
micro-batches or segments.
"""

from __future__ import annotations

import functools
import gc
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FusedBackend,
    InferenceEngine,
    Mapping,
    TrainerConfig,
    VirtualFlowTrainer,
    VirtualNodeSet,
)
from repro.core.backends.vectorized import UnsupportedModule
from repro.core.sharding import size_runs
from repro.data import make_dataset
from repro.framework import get_workload
from repro.framework.layers import Dense, Module, ReLU, Sequential
from repro.hardware import Cluster
from tests.conftest import on_reference

sys.path.insert(0, str(pathlib.Path(__file__).parents[2] / "benchmarks" / "e2e"))
from e2e_measure import count_calls  # noqa: E402

FAMILIES = ("mlp_synthetic", "resnet56_cifar10", "bert_base_glue", "transformer_wmt")


class _Halve(Module):
    """A user layer with no vectorized kernel."""

    def forward(self, x, *, training=False, rng=None):
        return x * 0.5


@functools.lru_cache(maxsize=None)
def _served(workload_name):
    """``(workload, model, vn_states, example bank)``; the conv model is a
    trained job's, served under the merge of its per-node BatchNorm state."""
    workload = get_workload(workload_name)
    bank = make_dataset(workload.dataset, n=64, seed=1).x_train
    if workload_name != "resnet56_cifar10":
        return workload, workload.build_model(0), None, bank
    trainer = VirtualFlowTrainer(TrainerConfig(
        workload=workload_name, global_batch_size=16, num_virtual_nodes=4,
        num_devices=2, dataset_size=64, seed=0))
    trainer.executor.run_step(trainer.dataset.x_train[:16],
                              trainer.dataset.y_train[:16], epoch=0, step=0)
    executor = trainer.executor
    return workload, executor.model, executor.vn_states, bank


def _engine(workload_name, vn_set, devices, reference):
    workload, model, vn_states, _ = _served(workload_name)
    engine = InferenceEngine(
        workload, model, Mapping.even(vn_set, Cluster.homogeneous("V100", devices)),
        vn_states=vn_states)
    if reference:
        return on_reference(engine)
    engine.engine.backend = FusedBackend()  # a plan cache of its own to inspect
    return engine


@st.composite
def scenarios(draw):
    v = draw(st.integers(1, 8))
    if draw(st.booleans()):
        vn_set = VirtualNodeSet.even(v, v)
    else:
        vn_set = VirtualNodeSet.uneven(draw(st.lists(st.integers(1, 4), min_size=v,
                                                     max_size=v)))
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=40))
    return {
        "family": draw(st.sampled_from(FAMILIES)),
        "vn_set": vn_set,
        "devices": draw(st.integers(1, v)),
        "lengths": lengths,
        "rows": draw(st.lists(st.integers(0, 51), min_size=sum(lengths),
                              max_size=sum(lengths))),
    }


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("reference", [False, True], ids=["fused", "reference"])
@settings(max_examples=30, deadline=None)
@given(case=scenarios())
def test_stacked_rows_equal_each_micro_batch_predicted_alone(reference, case):
    engine = _engine(case["family"], case["vn_set"], case["devices"], reference)
    bank = _served(case["family"])[3]
    examples = [bank[i] for i in case["rows"]]
    stacked = engine.predict_stacked(bank, case["rows"], case["lengths"])
    assert len(stacked) == len(examples)
    start = 0
    for length in case["lengths"]:
        alone = engine.predict(np.array(examples[start:start + length])).logits
        _same_bytes(stacked[start:start + length], alone)
        start += length
    # One memoized plan per micro-batch length, and one kernel plan.
    assert set(engine.engine._inference_plans) == set(case["lengths"])
    if not reference:
        assert list(engine.backend._plans.values()) == [
            engine.backend._plans[engine.model]]


def test_a_model_with_a_kernel_less_layer_is_refused_when_its_engine_is_built():
    rng = np.random.default_rng(3)
    model = Sequential(Dense(32, 16, rng), _Halve(), ReLU(), Dense(16, 10, rng))
    backend = FusedBackend()
    mapping = Mapping.even(VirtualNodeSet.even(4, 4), Cluster.homogeneous("V100", 2))
    message = "_Halve has no vectorized forward kernel, at '1'"
    with pytest.raises(UnsupportedModule, match=message):
        InferenceEngine(get_workload("mlp_synthetic"), model, mapping)
    with pytest.raises(UnsupportedModule, match=message):
        backend.infer(model, mapping.vn_set, _served("mlp_synthetic")[3][:6],
                      size_runs([2, 2, 1, 1]))
    assert len(backend._plans) == 0


def test_a_stacked_pass_charges_nothing():
    engine = _engine("mlp_synthetic", VirtualNodeSet.even(4, 4), 2, reference=False)
    bank = _served("mlp_synthetic")[3]
    engine.predict_stacked(bank, list(range(25)), [1, 5, 8, 3, 8])
    assert (engine.requests_served, engine.sim_time) == (0, 0.0)
    assert engine.price(5) == engine.engine.inference_plan(5)[1:]
    assert engine.requests_served == 1


def test_row_labels_are_kept_per_length_and_dropped_on_remap():
    engine = _engine("mlp_synthetic", VirtualNodeSet.even(4, 4), 2, reference=False)
    bank = _served("mlp_synthetic")[3]
    want = engine.predict_stacked(bank, list(range(17)), [1, 5, 8, 3])
    assert sorted(engine._row_labels) == [1, 3, 5, 8]
    engine.remap(Mapping.even(engine.mapping.vn_set, Cluster.homogeneous("V100", 4)))
    assert engine._row_labels == {}
    _same_bytes(engine.predict_stacked(bank, list(range(17)), [1, 5, 8, 3]), want)


def test_the_call_count_does_not_grow_with_batches_or_segments():
    engine = _engine("mlp_synthetic", VirtualNodeSet.even(4, 4), 2, reference=False)
    bank = _served("mlp_synthetic")[3]

    def calls(repeat):
        lengths = [1, 5, 8, 3] * repeat
        rows = (np.arange(sum(lengths)) % len(bank)).tolist()
        return count_calls(lambda: engine.predict_stacked(bank, rows, lengths))[0]

    calls(1)  # plans and kernel lists are memoized on first use
    gc.collect()
    gc.disable()  # no collection's weak-cache callbacks inside a count
    try:
        assert calls(1) == calls(10) == calls(40)
    finally:
        gc.enable()


@pytest.mark.parametrize("lengths", [[], [2, 0, 3], [2, 2], [6, 1]])
def test_lengths_must_split_the_examples_into_non_empty_batches(lengths):
    engine = _engine("mlp_synthetic", VirtualNodeSet.even(2, 2), 1, reference=False)
    with pytest.raises(ValueError, match="micro-batch lengths"):
        engine.predict_stacked(_served("mlp_synthetic")[3], list(range(5)), lengths)
