"""Segment runs: the fused backend against the serial oracle on generated tables.

``VectorizedRun`` compresses its segment table into maximal runs of
equal-size segments and issues one stacked op per run.  These tests hold
that to the reference loop bit for bit — logits of an inference batch, and
averaged gradients, loss and per-node BatchNorm state of a training step —
over drawn tables (every ``shard_indices`` of an even set, arbitrary uneven
sets) and the explicit shapes that matter: two device types, many runs,
alternating sizes, all ones, one segment.  They also pin what makes the
serving path cheap: inference runs are cached per table, bounded, and hold
no arrays; bounds that do not tile the batch are an error on both backends;
and ``fused.infer`` makes no more Python/C calls than the loop it replaces.
"""

from __future__ import annotations

import functools
import gc
import itertools
import pathlib
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FusedBackend,
    InferenceEngine,
    Mapping,
    VirtualNodeSet,
)
from repro.core.backends import fused as fused_module
from repro.core.backends.reference import ReferenceBackend
from repro.core.backends.vectorized import VectorizedRun
from repro.core.sharding import shard_indices
from repro.core.state import merged_eval_state
from repro.framework import MSELoss, SoftmaxCrossEntropy, get_workload
from repro.framework.attention import GELU, LayerNorm
from repro.framework.conv import BatchNorm, Conv2D, MaxPool2D
from repro.framework.layers import Dense, Flatten, ReLU, Sequential
from repro.hardware import Cluster
from tests.conftest import on_reference

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


def _assert_same_logits(name, vn_set, n, bounds):
    model = _serving_model(name)
    x, _ = _batch(name, n, seed=n)
    want = ReferenceBackend().infer(model, vn_set, x, bounds)
    got = FusedBackend().infer(model, vn_set, x, bounds)
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
    def test_runs_partition_the_table_in_order(self, sizes):
        run = VectorizedRun(_segments(sizes), training=False)
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

    @pytest.mark.parametrize("v", range(1, 10))
    def test_an_even_set_never_shards_into_more_than_two_runs(self, v):
        vn_set = VirtualNodeSet.even(v, v)
        for n in range(1, 4 * v + 1):
            shards = [b for b in shard_indices(vn_set, n) if b[1] > b[0]]
            assert len(VectorizedRun(shards, training=False).runs) <= 2

    def test_one_run_per_device_type(self):
        run = VectorizedRun(_segments([24] * 3 + [8] * 5), training=False)
        assert run.runs == [(0, 72, 0, 3, 24), (72, 112, 3, 8, 8)]
        assert len(VectorizedRun(_segments([2, 1, 2, 1]), training=False).runs) == 4

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=12))
    def test_size_runs_give_the_run_their_segments_give(self, sizes):
        """An inference run built from ``(size, count)`` rows — the stacked
        serving pass's form — equals the one its segment table builds, with
        no per-segment lists."""
        pairs = [(size, len(list(group))) for size, group in itertools.groupby(sizes)]
        got = VectorizedRun(np.array(pairs), training=False)
        want = VectorizedRun(_segments(sizes), training=False)
        assert (got.runs, got.uniform, got.batch, got.num_stacked) == (
            want.runs, want.uniform, want.batch, want.num_stacked)
        assert got.segments is None and got.sizes is None


@pytest.mark.parametrize("name", sorted(MODELS))
class TestInferenceEqualsTheOracle:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_shard_table_of_an_even_set(self, name, data):
        """``shard_indices(V, n)`` for n < V (empty shards) up to 4V, handed
        over as the engine does and left for the backend to compute."""
        v = data.draw(st.integers(1, 9))
        n = data.draw(st.integers(1, 4 * v))
        vn_set = VirtualNodeSet.even(v, v)
        _assert_same_logits(name, vn_set, n, tuple(shard_indices(vn_set, n)))
        _assert_same_logits(name, vn_set, n, None)

    @pytest.mark.parametrize("sizes", TABLES, ids=str)
    def test_explicit_tables(self, name, sizes):
        vn_set = VirtualNodeSet.uneven(sizes)
        _assert_same_logits(name, vn_set, sum(sizes), _segments(sizes))
        _assert_same_logits(name, vn_set, sum(sizes), None)

    @settings(max_examples=25, deadline=None)
    @given(sizes=drawn_tables)
    def test_drawn_uneven_tables(self, name, sizes):
        _assert_same_logits(name, VirtualNodeSet.uneven(sizes), sum(sizes),
                            tuple(_segments(sizes)))

    @settings(max_examples=25, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)),
                         min_size=1, max_size=5).filter(
                             lambda runs: any(size * count for size, count in runs)))
    def test_drawn_size_runs(self, name, runs):
        """Size runs: neighbours of equal size (not maximal), empty runs
        and empty segments included."""
        _assert_same_logits(name, VirtualNodeSet.even(1, 1),
                            sum(size * count for size, count in runs), np.array(runs))

    def test_a_cached_run_serves_every_batch_like_a_fresh_backend(self, name):
        backend = FusedBackend()
        vn_set = VirtualNodeSet.even(4, 4)
        bounds = tuple(shard_indices(vn_set, 6))  # (2, 2, 1, 1): two runs
        model = _serving_model(name)
        for seed in (1, 2, 1):
            x, _ = _batch(name, 6, seed=seed)
            _assert_same_array(backend.infer(model, vn_set, x, bounds),
                               FusedBackend().infer(model, vn_set, x, bounds))
        (run,) = backend._inference_runs.values()
        # Stateless: nothing of a served batch outlives the call.
        assert run._cache == {} and run.param_grads == {}
        assert not [k for k, v in vars(run).items() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("name", sorted(MODELS))
class TestTrainingStepEqualsTheOracle:
    @pytest.mark.parametrize("sizes", TABLES, ids=str)
    def test_explicit_tables(self, name, sizes):
        _assert_same_step(name, sizes)

    @settings(max_examples=15, deadline=None)
    @given(sizes=drawn_tables)
    def test_drawn_uneven_tables(self, name, sizes):
        _assert_same_step(name, sizes)


class TestInferenceRunCache:
    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(fused_module, "_MAX_INFERENCE_RUNS", 3)
        backend, model = FusedBackend(), _serving_model("mlp")
        vn_set = VirtualNodeSet.even(1, 1)
        for n in (1, 2, 3, 4, 5, 2):
            x, _ = _batch("mlp", n)
            backend.infer(model, vn_set, x, ((0, n),))
        # Oldest out; a table seen again (n=2, dropped) is simply rebuilt.
        assert list(backend._inference_runs) == [((0, 4),), ((0, 5),), ((0, 2),)]

    def test_list_and_tuple_bounds_share_one_run(self):
        backend, model = FusedBackend(), _serving_model("mlp")
        vn_set = VirtualNodeSet.even(4, 4)
        x, _ = _batch("mlp", 6)
        for bounds in (shard_indices(vn_set, 6), tuple(shard_indices(vn_set, 6)), None):
            backend.infer(model, vn_set, x, bounds)
        assert len(backend._inference_runs) == 1

    def test_the_plan_cache_does_not_keep_a_model_alive(self):
        """Also for a model that is one step itself (no ``Sequential`` to
        flatten): the cached plan must not pin its own weak key, after a
        training step as well as an inference pass."""
        backend = FusedBackend()
        workload = get_workload("resnet56_cifar10")
        step = _train_step(workload.build_model(0), workload.dataset, [2, 1, 1])
        backend.train_step(step)
        model = step.model
        x = np.random.default_rng(0).normal(size=(4, 8, 8, 3))
        want = ReferenceBackend().infer(model, VirtualNodeSet.even(4, 2), x)
        _assert_same_array(backend.infer(model, VirtualNodeSet.even(4, 2), x), want)
        assert len(backend._plans) == 1
        alive = weakref.ref(model)
        del model, step
        gc.collect()
        assert alive() is None and len(backend._plans) == 0


@pytest.mark.parametrize("backend", [ReferenceBackend, FusedBackend])
class TestBoundsMustTileTheBatch:
    """Bounds that do not tile ``[0, len(x))`` contiguously from row 0 are a
    caller error — not four rows from one backend and six from the other,
    the six through GEMMs at a shape no virtual node ever had."""

    @pytest.mark.parametrize("bounds", [
        [(0, 2), (2, 4)],            # short of the batch
        [(0, 2), (3, 5)],            # a gap
        [(0, 3), (2, 6)],            # an overlap
        [(1, 3), (3, 6)],            # not from row 0
        [(0, 4), (4, 8)],            # past the batch
        ((0, 2), (2, 4)),            # ... and as the hashable table
    ])
    def test_rejected(self, backend, bounds):
        x, _ = _batch("mlp", 6)
        with pytest.raises(ValueError, match="shard bounds"):
            backend().infer(_serving_model("mlp"), VirtualNodeSet.even(2, 2), x, bounds)

    @pytest.mark.parametrize("runs", [
        [[2, 2]],                    # short of the batch
        [[2, 4]],                    # past the batch
        [[2, 4], [-1, 2]],           # a negative size
        [[2, 4], [1, -2]],           # a negative count
    ])
    def test_size_runs_rejected(self, backend, runs):
        x, _ = _batch("mlp", 6)
        with pytest.raises(ValueError, match="shard bounds|negative"):
            backend().infer(_serving_model("mlp"), VirtualNodeSet.even(2, 2), x,
                            np.array(runs))

    def test_a_cached_table_still_checks_the_batch_length(self, backend):
        instance, model = backend(), _serving_model("mlp")
        vn_set, bounds = VirtualNodeSet.even(2, 2), ((0, 2), (2, 4))
        assert len(instance.infer(model, vn_set, _batch("mlp", 4)[0], bounds)) == 4
        with pytest.raises(ValueError, match="shard bounds"):
            instance.infer(model, vn_set, _batch("mlp", 6)[0], bounds)


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
                bounds, _, _ = engine.engine.inference_plan(n)
                infer = functools.partial(engine.backend.infer, model, vn_set, x, bounds)
                infer()  # plans, kernel list and run are memoized on first use
                counts.append(_count_without_gc(infer))
            loop, fused = counts
            assert fused <= loop, (v, n, counts)
            assert fused <= self.LOOP_CALLS[min(n, v)], (v, n, counts)

    def test_predict_requests_gathers_rows_in_one_construction(self, monkeypatch):
        workload = get_workload("mlp_synthetic")
        vn_set = VirtualNodeSet.even(4, 4)
        engine = InferenceEngine(workload, workload.build_model(0),
                                 Mapping.even(vn_set, Cluster.homogeneous("V100", 1)))
        rows = list(_batch("mlp", 5)[0])
        # Outside ``predict``: a stub that hands the gathered batch back.
        monkeypatch.setattr(InferenceEngine, "predict", lambda self, x: x)
        assert _count_without_gc(lambda: engine.predict_requests(rows)) <= 6
        _assert_same_array(engine.predict_requests(rows), np.stack(rows, axis=0))
        with pytest.raises(ValueError):
            engine.predict_requests([np.zeros(32), np.zeros(31)])
