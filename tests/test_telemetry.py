"""Telemetry recorder."""

from __future__ import annotations

import csv

import pytest

from repro import TrainerConfig, VirtualFlowTrainer
from repro.telemetry import TelemetryRecorder, summary_stats


@pytest.fixture
def run():
    recorder = TelemetryRecorder()
    trainer = VirtualFlowTrainer(TrainerConfig(
        workload="mlp_synthetic", global_batch_size=32, num_virtual_nodes=4,
        num_devices=2, dataset_size=256))
    for _ in range(2):
        record = trainer.train_epoch(on_step=recorder.on_step)
        recorder.on_epoch(record)
    return trainer, recorder


class TestSummaryStats:
    def test_values(self):
        stats = summary_stats([1.0, 2.0, 3.0, 4.0])
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["min"] == 1.0 and stats["max"] == 4.0
        assert stats["p50"] == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_stats([])


class TestRecorder:
    def test_counts(self, run):
        trainer, recorder = run
        assert len(recorder.steps) == 2 * trainer.loader.steps_per_epoch
        assert len(recorder.epochs) == 2
        assert recorder.total_examples() == len(recorder.steps) * 32

    def test_total_sim_time_matches_trainer(self, run):
        trainer, recorder = run
        total = sum(s.sim_step_time for s in recorder.steps)
        assert total == pytest.approx(trainer.sim_time)

    def test_summaries(self, run):
        _, recorder = run
        loss = recorder.loss_summary()
        assert loss["min"] <= loss["p50"] <= loss["max"]
        assert recorder.throughput_summary()["mean"] > 0

    def test_csv_export(self, run, tmp_path):
        _, recorder = run
        path = str(tmp_path / "steps.csv")
        recorder.to_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(recorder.steps)
        assert float(rows[0]["loss"]) == pytest.approx(recorder.steps[0].loss)

    def test_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryRecorder().to_csv(str(tmp_path / "x.csv"))

    def test_step_indices_sequential(self, run):
        _, recorder = run
        assert [s.step for s in recorder.steps] == list(range(len(recorder.steps)))


class TestLatencyHistogramCache:
    def test_cached_sorted_view_matches_fresh_sort(self):
        import numpy as np
        from repro.telemetry import LatencyHistogram, percentile

        rng = np.random.default_rng(5)
        hist = LatencyHistogram(window=512)
        values = rng.lognormal(-3.5, 0.8, size=2000)
        for i, v in enumerate(values):
            hist.observe(float(v))
            if i % 97 == 0:  # interleave queries with inserts
                window = list(hist._values)
                assert hist.percentile(99) == percentile(window, 99)
        window = list(hist._values)
        for q in (50, 90, 95, 99):
            assert hist.percentile(q) == percentile(window, q)

    def test_sorted_window_is_maintained_not_rebuilt(self):
        from repro.telemetry import LatencyHistogram

        hist = LatencyHistogram()
        hist.observe_many([0.003, 0.001, 0.002])
        assert hist._sorted is None  # a bulk append sorts lazily...
        first = hist.percentile(50)
        view = hist._sorted
        assert view == [0.001, 0.002, 0.003]  # ...on the next query
        assert hist.percentile(50) == first
        assert hist._sorted is view  # no re-sort between queries
        hist.observe(0.004)
        assert hist._sorted is view  # one insort, in place
        assert view == [0.001, 0.002, 0.003, 0.004]
        hist.clear()
        assert hist._sorted == [] and len(hist) == 0

    def test_eviction_drops_the_oldest_value_from_the_sorted_window(self):
        from repro.telemetry import LatencyHistogram

        hist = LatencyHistogram(window=3)
        hist.observe_many([0.5, 0.1, 0.5])
        assert hist.percentile(100) == 0.5  # the query sorts the bulk append
        view = hist._sorted
        hist.observe(0.3)  # evicts the first 0.5, one of two equal values
        assert list(hist._values) == [0.1, 0.5, 0.3]
        assert hist._sorted is view and view == [0.1, 0.3, 0.5]
        hist.observe_many([0.2, 0.4])  # smaller than the window: incremental
        assert hist._sorted is view and view == [0.2, 0.3, 0.4]
        hist.observe_many([0.9, 0.8, 0.7])  # replaces the window: lazy
        assert hist._sorted is None and hist.percentile(0) == 0.7

    def test_negative_zero_is_stored_as_zero(self):
        # bisect (and numpy's partition) cannot tell -0.0 from 0.0, so with
        # both in a window "bit for bit np.percentile" would hang on which
        # of the two equal values each side happens to pick.
        import numpy as np

        from repro.telemetry import LatencyHistogram

        hist = LatencyHistogram(window=3)
        hist.observe_many([-0.0, 0.5])
        assert repr(hist.percentile(0)) == "0.0"
        hist.observe_many(np.array([-0.0]))
        hist.observe(0.25)  # evicts the first zero
        assert repr(list(hist._values)) == "[0.5, 0.0, 0.25]"
        assert repr(hist._sorted) == "[0.0, 0.25, 0.5]"
        assert repr(hist.percentile(10)) == repr(
            float(np.percentile(list(hist._values), 10)))

    def test_observe_many_flattens_any_ndarray_shape(self):
        import numpy as np

        from repro.telemetry import LatencyHistogram

        hist = LatencyHistogram()
        hist.observe_many(np.array(0.3))
        hist.observe_many(np.array([[0.1, 0.4], [0.2, 0.5]]))
        assert list(hist._values) == [0.3, 0.1, 0.4, 0.2, 0.5]
        assert hist.percentile(50) == 0.3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf"), -1e-9])
    def test_observe_rejects_non_finite_and_negative(self, bad):
        from repro.telemetry import LatencyHistogram

        hist = LatencyHistogram(window=4)
        hist.observe(0.002)
        with pytest.raises(ValueError, match="finite and non-negative"):
            hist.observe(bad)
        assert list(hist._values) == hist._view() == [0.002]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf"), -1e-9])
    def test_observe_many_rejects_non_finite_and_negative(self, bad):
        from repro.telemetry import LatencyHistogram

        hist = LatencyHistogram(window=4)
        hist.observe_many([0.002, 0.001])
        with pytest.raises(ValueError, match="finite and non-negative"):
            hist.observe_many([0.1, bad])
        # A rejected call leaves the window untouched, sort order included.
        assert list(hist._values) == [0.002, 0.001]
        assert hist.percentile(100) == 0.002

    def test_percentile_outside_0_100_is_rejected_like_numpy(self):
        from repro.telemetry import LatencyHistogram

        hist = LatencyHistogram()
        hist.observe(0.001)
        for q in (-1, 100.5, float("nan")):
            with pytest.raises(ValueError, match=r"range \[0, 100\]"):
                hist.percentile(q)

    def test_observe_many_rejects_negatives_and_matches_loop(self):
        import pytest as _pytest

        from repro.telemetry import LatencyHistogram

        bulk = LatencyHistogram(window=8)
        loop = LatencyHistogram(window=8)
        values = [0.005, 0.001, 0.009, 0.002, 0.007, 0.004, 0.008, 0.003,
                  0.006, 0.010]
        bulk.observe_many(values)
        for v in values:
            loop.observe(v)
        assert list(bulk._values) == list(loop._values)
        assert bulk.percentile(99) == loop.percentile(99)
        with _pytest.raises(ValueError):
            bulk.observe_many([0.001, -0.5])


class TestStreamingHistogram:
    def test_quantiles_within_tolerance_of_exact(self):
        import numpy as np

        from repro.telemetry import LatencyHistogram, StreamingHistogram

        rng = np.random.default_rng(13)
        values = rng.lognormal(mean=-3.5, sigma=0.7, size=50_000)
        stream = StreamingHistogram()
        exact = LatencyHistogram()
        stream.observe_many(values)
        exact.observe_many(values)
        for q in (50, 90, 95, 99):
            approx = stream.percentile(q)
            truth = exact.percentile(q)
            assert abs(approx - truth) / truth < 0.05, (q, approx, truth)

    def test_observe_many_matches_observe_loop(self):
        import numpy as np

        from repro.telemetry import StreamingHistogram

        rng = np.random.default_rng(14)
        values = rng.lognormal(-4.0, 1.0, size=5000)
        bulk, loop = StreamingHistogram(), StreamingHistogram()
        bulk.observe_many(values)
        for v in values:
            loop.observe(float(v))
        assert bulk.count == loop.count == len(values)
        assert (bulk._counts == loop._counts).all()
        assert bulk.percentile(99) == loop.percentile(99)

    def test_exact_extremes_and_mean(self):
        from repro.telemetry import StreamingHistogram

        hist = StreamingHistogram()
        hist.observe_many([0.001, 0.010, 0.005])
        assert hist._min == 0.001 and hist._max == 0.010
        assert hist.mean == pytest.approx((0.001 + 0.010 + 0.005) / 3)
        assert hist.percentile(0) >= 0.001
        assert hist.percentile(100) <= 0.010
        stats = hist.stats()
        assert stats["count"] == 3.0

    def test_memory_is_constant_and_clear_resets(self):
        import numpy as np

        from repro.telemetry import StreamingHistogram

        hist = StreamingHistogram()
        nbins = hist._counts.size
        hist.observe_many(np.full(100_000, 0.004))
        assert hist._counts.size == nbins  # no growth with observations
        assert len(hist) == 100_000
        hist.clear()
        assert len(hist) == 0
        with pytest.raises(ValueError):
            hist.percentile(50)

    def test_out_of_range_values_clamp(self):
        from repro.telemetry import StreamingHistogram

        hist = StreamingHistogram(min_value=1e-3, max_value=1.0)
        hist.observe(0.0)       # underflow bin
        hist.observe(5.0)       # clamps to the last bin
        assert len(hist) == 2
        assert hist.percentile(0) == 0.0  # anchored on the exact min
        # The overflow value is clamped into the top bin; the quantile
        # stays inside the exact observed range.
        assert 0.0 <= hist.percentile(99) <= 5.0
        with pytest.raises(ValueError):
            hist.observe(-1.0)

    def test_observe_many_accepts_any_iterable(self):
        from repro.telemetry import StreamingHistogram

        values = [0.004, 0.001, 0.009]
        from_list, from_gen = StreamingHistogram(), StreamingHistogram()
        from_list.observe_many(values)
        from_gen.observe_many(v for v in values)
        from_gen.observe_many(iter(()))  # empty: a no-op, not an error
        assert from_gen.stats() == from_list.stats()
        assert (from_gen._counts == from_list._counts).all()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -0.5])
    def test_non_finite_and_negative_values_rejected(self, bad):
        from repro.telemetry import StreamingHistogram

        hist = StreamingHistogram()
        hist.observe_many([0.002, 0.003])
        before = (hist.stats(), hist._counts.copy())
        with pytest.raises(ValueError, match="finite and non-negative"):
            hist.observe(bad)
        with pytest.raises(ValueError, match="finite and non-negative"):
            hist.observe_many([0.1, bad, 0.2])
        # A rejected call leaves the summary untouched, not poisoned.
        assert hist.stats() == before[0]
        assert (hist._counts == before[1]).all()
