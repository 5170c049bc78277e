"""Size runs: the fused backend against the serial oracle on generated tables.

A vectorized pass takes its split as size runs — ``(size, count)`` rows,
maximal when :func:`~repro.core.sharding.size_runs` encodes them — and
issues one stacked op per run.  These tests hold that to the reference loop
bit for bit — logits of an inference batch, and averaged gradients, loss
and per-node BatchNorm state of a training step — over drawn tables (every
shard split of an even set, arbitrary uneven sets, runs that are not
maximal) and the explicit shapes that matter: two device types, many runs,
alternating sizes, all ones, one segment.  They also pin what makes the
serving path cheap: an inference run holds no arrays and the backend keeps
nothing of a batch; runs that do not tile the batch are an error on both
backends; and ``fused.infer`` makes no more Python/C calls than the loop
it replaces.
"""

from __future__ import annotations

import functools
import gc
import pathlib
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    FusedBackend,
    InferenceEngine,
    Mapping,
    VirtualNodeSet,
)
from repro.core.backends.vectorized import VectorizedRun
from repro.core.sharding import shard_sizes, size_runs
from repro.core.state import merged_eval_state
from repro.framework import MSELoss, SoftmaxCrossEntropy, get_workload
from repro.framework.attention import GELU, LayerNorm
from repro.framework.conv import BatchNorm, Conv2D, MaxPool2D
from repro.framework.layers import Dense, Flatten, ReLU, Sequential
from repro.hardware import Cluster
from tests.conftest import on_reference

from oracles.reference_backend import ReferenceBackend

from test_backends import _segments, _train_step

# The ledger's own ``py_calls_per_unit`` counter (``sys.setprofile``, ``call``
# + ``c_call``), so the budget below is counted exactly as the harness counts.
sys.path.insert(0, str(pathlib.Path(__file__).parents[2] / "benchmarks" / "e2e"))
from e2e_measure import count_calls  # noqa: E402

# Two device types (§5), several runs, alternating sizes (one run per
# segment), all ones (serving's n <= V), one segment.
TABLES = ([24] * 3 + [8] * 5, [5, 5, 3, 3, 3, 1], [2, 1, 2, 1], [1] * 6, [7])
drawn_tables = st.lists(st.integers(1, 5), min_size=1, max_size=7)


def _mlp():
    return get_workload("mlp_synthetic").build_model(0)


def _batchnorm_model():
    rng = np.random.default_rng(1)
    return Sequential(Conv2D(3, 4, 3, rng), BatchNorm(4), ReLU(), MaxPool2D(2),
                      Flatten(), Dense(4 * 4 * 4, 5, rng))


def _sequence_model():
    rng = np.random.default_rng(2)
    return Sequential(Dense(6, 8, rng), GELU(), LayerNorm(8), Dense(8, 4, rng))


# name -> (builder, per-example input shape, per-example target shape or
# class count): a batch-in-M GEMM model, a stateful one, one with 3-D inputs.
MODELS = {
    "mlp": (_mlp, (32,), 10),
    "batchnorm": (_batchnorm_model, (8, 8, 3), 5),
    "sequence": (_sequence_model, (5, 6), (5, 4)),
}


def _batch(name, n, seed=0):
    _, x_shape, target = MODELS[name]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n,) + x_shape)
    if isinstance(target, int):
        return x, rng.integers(target, size=n)
    return x, rng.normal(size=(n,) + target)


def _step(name, sizes):
    build, _, target = MODELS[name]
    loss_fn = SoftmaxCrossEntropy() if isinstance(target, int) else MSELoss()
    return _train_step(build(), None, sizes, loss_fn=loss_fn,
                       xy=_batch(name, sum(sizes)))


@functools.lru_cache(maxsize=None)
def _serving_model(name):
    """The model as it serves: stateful kernels under the merged evaluation
    view of the per-node states one uneven training step left behind."""
    step = _step(name, [3, 2, 2])
    ReferenceBackend().train_step(step)
    if step.state_matrix is not None:
        step.model.load_state_dict(merged_eval_state(step.state_matrix))
    return step.model


def _assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_same_logits(name, vn_set, n, runs):
    model = _serving_model(name)
    x, _ = _batch(name, n, seed=n)
    want = ReferenceBackend().infer(model, vn_set, x, runs)
    got = FusedBackend().infer(model, vn_set, x, runs)
    _assert_same_array(got, want)
    assert len(got) == n


def _assert_same_step(name, sizes):
    want_step, got_step = _step(name, sizes), _step(name, sizes)
    want = ReferenceBackend().train_step(want_step)
    got = FusedBackend().train_step(got_step)
    assert got.weighted_loss == want.weighted_loss
    assert list(got.avg_grads) == list(want.avg_grads)
    for key, grad in want.avg_grads.items():
        _assert_same_array(got.avg_grads[key], grad)
    if want_step.state_matrix is not None:
        _assert_same_array(got_step.state_matrix.rows, want_step.state_matrix.rows)


class TestRuns:
    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(0, 4), min_size=1, max_size=12))
    @example(sizes=[2, 3, 2])
    @example(sizes=[1, 1, 0, 0, 1])
    def test_size_runs_are_maximal_and_round_trip_to_the_sizes(self, sizes):
        runs = size_runs(sizes)
        assert runs.shape == (len(runs), 2) and runs.dtype.kind == "i"
        assert np.repeat(runs[:, 0], runs[:, 1]).tolist() == sizes  # in order
        assert (runs[:, 1] >= 1).all()
        # Maximal: neighbouring rows differ in size; equal sizes that are
        # not neighbours stay apart.
        assert (runs[1:, 0] != runs[:-1, 0]).all()

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(0, 4), min_size=1, max_size=12))
    def test_runs_partition_the_table_in_order(self, sizes):
        run = VectorizedRun(size_runs(sizes), training=False)
        rebuilt, row, node = [], 0, 0
        for start, end, first, last, size in run.runs:
            assert (start, first) == (row, node) and last > first
            assert end - start == (last - first) * size
            rebuilt += [size] * (last - first)
            row, node = end, last
        assert rebuilt == sizes and row == run.batch
        # Maximal: neighbouring runs differ in size.
        assert all(a[4] != b[4] for a, b in zip(run.runs, run.runs[1:]))
        assert (run.uniform is not None) == (len(run.runs) == 1)

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(0, 4), min_size=1, max_size=12))
    def test_a_training_run_derives_the_segment_table(self, sizes):
        """The per-node segments the loss, dropout and broadcast kernels
        read, from the runs alone; an inference run derives none."""
        for runs in (size_runs(sizes), [(size, 1) for size in sizes]):
            run = VectorizedRun(runs, training=True)
            assert run.segments == _segments(sizes) and run.sizes == sizes
            assert VectorizedRun(runs, training=False).runs == run.runs
        inference = VectorizedRun(size_runs(sizes), training=False)
        assert inference.segments is None and inference.sizes is None

    @pytest.mark.parametrize("v", range(1, 10))
    def test_an_even_set_never_shards_into_more_than_two_runs(self, v):
        vn_set = VirtualNodeSet.even(v, v)
        for n in range(1, 4 * v + 1):
            sizes = [size for size in shard_sizes(vn_set, n) if size]
            assert len(VectorizedRun(size_runs(sizes), training=False).runs) <= 2

    def test_one_run_per_device_type(self):
        run = VectorizedRun(size_runs([24] * 3 + [8] * 5), training=False)
        assert run.runs == [(0, 72, 0, 3, 24), (72, 112, 3, 8, 8)]
        assert len(VectorizedRun(size_runs([2, 1, 2, 1]), training=False).runs) == 4


@pytest.mark.parametrize("name", sorted(MODELS))
class TestInferenceEqualsTheOracle:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_shard_table_of_an_even_set(self, name, data):
        """``shard_sizes(V, n)`` for n < V (empty shards) up to 4V, handed
        over as the engine does (empty shards dropped) and with its empty
        shards kept as ``(0, count)`` rows."""
        v = data.draw(st.integers(1, 9))
        n = data.draw(st.integers(1, 4 * v))
        vn_set = VirtualNodeSet.even(v, v)
        sizes = shard_sizes(vn_set, n)
        _assert_same_logits(name, vn_set, n, size_runs([size for size in sizes if size]))
        _assert_same_logits(name, vn_set, n, size_runs(sizes))

    @pytest.mark.parametrize("sizes", TABLES, ids=str)
    def test_explicit_tables(self, name, sizes):
        vn_set = VirtualNodeSet.uneven(sizes)
        _assert_same_logits(name, vn_set, sum(sizes), size_runs(sizes))
        # One row per segment, as a list: not maximal.
        _assert_same_logits(name, vn_set, sum(sizes), [(size, 1) for size in sizes])

    @settings(max_examples=25, deadline=None)
    @given(sizes=drawn_tables)
    def test_drawn_uneven_tables(self, name, sizes):
        _assert_same_logits(name, VirtualNodeSet.uneven(sizes), sum(sizes),
                            size_runs(sizes))

    @settings(max_examples=25, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)),
                         min_size=1, max_size=5).filter(
                             lambda runs: any(size * count for size, count in runs)))
    def test_drawn_size_runs(self, name, runs):
        """Size runs: neighbours of equal size (not maximal), empty runs
        and empty segments included."""
        _assert_same_logits(name, VirtualNodeSet.even(1, 1),
                            sum(size * count for size, count in runs), np.array(runs))

    def test_a_shared_backend_serves_every_batch_like_a_fresh_one(self, name, built_runs):
        backend = FusedBackend()
        vn_set = VirtualNodeSet.even(4, 4)
        runs = size_runs(shard_sizes(vn_set, 6))  # (2, 2, 1, 1): two runs
        model = _serving_model(name)
        for seed in (1, 2, 1):
            x, _ = _batch(name, 6, seed=seed)
            _assert_same_array(backend.infer(model, vn_set, x, runs),
                               FusedBackend().infer(model, vn_set, x, runs))
        # Stateless: nothing of a served batch outlives the call, in the
        # run (no activation cache, gradients or workspace) or in the
        # backend, which keeps nothing (the model keeps its kernel plan).
        for run in built_runs:
            assert sorted(vars(run)) == ["batch", "num_stacked", "runs", "training", "uniform"]
            assert run.workspace is None and run.segments is None
        assert vars(backend) == {}


@pytest.mark.parametrize("name", sorted(MODELS))
class TestTrainingStepEqualsTheOracle:
    @pytest.mark.parametrize("sizes", TABLES, ids=str)
    def test_explicit_tables(self, name, sizes):
        _assert_same_step(name, sizes)

    @settings(max_examples=15, deadline=None)
    @given(sizes=drawn_tables)
    def test_drawn_uneven_tables(self, name, sizes):
        _assert_same_step(name, sizes)


class TestPlanCache:
    def test_the_plan_is_built_once_and_does_not_keep_its_model_alive(self):
        """Also for a model that is one step itself (no ``Sequential`` to
        flatten), whose plan holds the model: the first training step builds
        the plan, the inference pass reuses it, and the model is collected
        once dropped."""
        backend = FusedBackend()
        workload = get_workload("resnet56_cifar10")
        step = _train_step(workload.build_model(0), workload.dataset, [2, 1, 1])
        model = step.model
        assert model._kernel_plan is None
        backend.train_step(step)
        plan = model._kernel_plan
        assert plan[0][2] is model
        x = np.random.default_rng(0).normal(size=(4, 8, 8, 3))
        want = ReferenceBackend().infer(model, VirtualNodeSet.even(4, 2), x, [[2, 2]])
        _assert_same_array(backend.infer(model, VirtualNodeSet.even(4, 2), x, [[2, 2]]),
                           want)
        assert model._kernel_plan is plan
        alive = weakref.ref(model)
        del model, step, plan
        gc.collect()
        assert alive() is None


@pytest.mark.parametrize("backend", [ReferenceBackend, FusedBackend])
class TestRunsMustTileTheBatch:
    """Size runs that do not cover ``len(x)`` rows, or hold a negative
    number, are a caller error — not four rows from one backend and six
    from the other, the six through GEMMs at a shape no virtual node ever
    had."""

    @pytest.mark.parametrize("runs", [
        [[2, 2]],                    # short of the batch
        [[2, 4]],                    # past the batch
        [[2, 4], [-1, 2]],           # a negative size
        [[2, 4], [1, -2]],           # a negative count
    ])
    @pytest.mark.parametrize("form", [np.array, list], ids=["array", "list"])
    def test_size_runs_rejected(self, backend, runs, form):
        x, _ = _batch("mlp", 6)
        with pytest.raises(ValueError, match="size runs"):
            backend().infer(_serving_model("mlp"), VirtualNodeSet.even(2, 2), x,
                            form(runs))


def _count_without_gc(fn):
    """``count_calls(fn)`` with the collector off: earlier tests' dead
    models leave weak-cache callbacks, and a collection inside the count
    would run them."""
    gc.collect()
    gc.disable()
    try:
        return count_calls(fn)[0]
    finally:
        gc.enable()


class TestCallBudget:
    """The mechanism, without a wall clock: a served micro-batch costs the
    fused backend no more interpreter-level calls than the serial loop —
    what keeps ``py_calls_per_unit`` inside its 0.5 % bound on the three
    serving workloads of the ledger."""

    # The loop's count at the commit that made ``fused`` the default, by
    # non-empty shards (one ``model.forward`` of the 7-layer MLP each).
    LOOP_CALLS = {1: 15, 2: 26, 3: 37, 4: 48}

    @pytest.mark.parametrize("v", [1, 4])
    def test_fused_infer_makes_no_more_calls_than_the_loop(self, v):
        workload = get_workload("mlp_synthetic")
        model = workload.build_model(0)
        vn_set = VirtualNodeSet.even(v, v)
        mapping = Mapping.even(vn_set, Cluster.homogeneous("V100", 1))
        engines = [on_reference(InferenceEngine(workload, model, mapping)),
                   InferenceEngine(workload, model, mapping)]
        for n in range(1, 9):
            x, _ = _batch("mlp", n)
            counts = []
            for engine in engines:
                runs, _, _ = engine.engine.inference_plan(n)
                infer = functools.partial(engine.backend.infer, model, vn_set, x, runs)
                infer()  # the kernel plan is memoized on first use
                counts.append(_count_without_gc(infer))
            loop, fused = counts
            assert fused <= loop, (v, n, counts)
            assert fused <= self.LOOP_CALLS[min(n, v)], (v, n, counts)
