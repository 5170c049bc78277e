"""Generated interleavings over :class:`LatencyHistogram`'s sorted window.

The histogram answers ``percentile(q)`` from an ascending list it keeps in
step with its ``deque(maxlen=window)`` — per batch, one delete per value
the deque evicts, then the batch appended and one sort; a lazy re-sort
after a bulk append at least as long as the window — using numpy's
``method="linear"`` rule written out on Python floats.  The contract is
*equality*, not closeness: every query must return the very double
``np.percentile`` returns for the window's values, for every window size
(``None``, and 1 and 2 where the interpolation degenerates) and every
``q`` in [0, 100]; and the list must be ``sorted(deque)`` after every step.
The value pool is built to hurt: ties (so eviction must delete *an* equal
value, not a particular one), denormals, zero, a huge finite value, and a
small grid so that evicted values keep coming back.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.telemetry import LatencyHistogram

VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-9, 0.001,
                     0.001, 0.0035, 0.25, 1.0, 1.7976931348623157e308]),
    st.integers(0, 12).map(lambda k: k / 8.0),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
QS = st.one_of(
    st.sampled_from([0, 1, 25, 50, 75, 95, 99, 99.9, 100]),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
WINDOWS = st.sampled_from([None, 1, 2, 32])


class HistogramMachine(RuleBasedStateMachine):
    """``LatencyHistogram`` against a plain list trimmed to the window."""

    @initialize(window=WINDOWS)
    def setup(self, window):
        self.window = window
        self.hist = LatencyHistogram(window=window)
        self.model = []

    def _trim(self):
        if self.window is not None:
            del self.model[:-self.window]

    @rule(value=VALUES)
    def observe(self, value):
        self.hist.observe(value)
        self.model.append(float(value))
        self._trim()

    @rule(values=st.lists(VALUES, max_size=40), as_array=st.booleans())
    def observe_many(self, values, as_array):
        self.hist.observe_many(np.asarray(values, dtype=float) if as_array
                               else values)
        self.model.extend(float(v) for v in values)
        self._trim()

    @rule(bad=st.sampled_from([float("nan"), float("inf"), -1.0]),
          values=st.lists(VALUES, max_size=3))
    def rejected_input_changes_nothing(self, bad, values):
        with pytest.raises(ValueError):
            self.hist.observe_many(values + [bad])
        with pytest.raises(ValueError):
            self.hist.observe(bad)

    @rule()
    def clear(self):
        self.hist.clear()
        self.model.clear()

    @rule(q=QS)
    def percentile(self, q):
        if not self.model:
            with pytest.raises(ValueError):
                self.hist.percentile(q)
            return
        got = self.hist.percentile(q)
        assert type(got) is float
        assert got == float(np.percentile(self.model, q)), (q, self.model)

    @rule()
    def stats(self):
        if not self.model:
            with pytest.raises(ValueError):
                self.hist.stats()
            return
        raw = np.asarray(self.model, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # 1.8e308 squared
            want = {
                "mean": float(raw.mean()), "std": float(raw.std()),
                "min": float(raw.min()), "max": float(raw.max()),
                "p50": float(np.percentile(raw, 50)),
                "p95": float(np.percentile(raw, 95)),
                "p99": float(np.percentile(raw, 99)),
                "count": float(len(raw)),
            }
            got = self.hist.stats()
        assert got.keys() == want.keys()
        for key, value in want.items():
            # == on doubles; a NaN std (inf - inf) must be NaN on both sides
            assert got[key] == value or (got[key] != got[key]
                                         and value != value), key

    @invariant()
    def window_and_sorted_list_agree(self):
        assert list(self.hist._values) == self.model
        assert len(self.hist) == len(self.model)
        if self.hist._sorted is not None:  # None: stale until the next query
            assert self.hist._sorted == sorted(self.hist._values)


TestHistogramMachine = HistogramMachine.TestCase
TestHistogramMachine.settings = settings(max_examples=60,
                                         stateful_step_count=40,
                                         deadline=None)


@settings(max_examples=100, deadline=None)
@given(window=WINDOWS, batches=st.lists(st.lists(VALUES, min_size=1,
                                                 max_size=9), max_size=30),
       q=QS)
def test_autoscaler_shaped_stream_matches_numpy(window, batches, q):
    """The autoscaler's access pattern: a small ``observe_many`` then a
    query, every completion — the incremental path, evictions included."""
    hist = LatencyHistogram(window=window)
    for batch in batches:
        hist.observe_many(batch)
        assert hist.percentile(q) == float(np.percentile(list(hist._values), q))
        assert hist._sorted == sorted(hist._values)


def test_repeated_evicted_values_keep_the_list_sorted():
    """A window full of one value, evicted and re-inserted around a second:
    ``bisect_left`` must delete an equal element, never a neighbour."""
    hist = LatencyHistogram(window=4)
    for value in [0.5, 0.5, 0.5, 0.5, 0.25, 0.5, 0.75, 0.5, 0.5, 0.5, 0.25]:
        hist.observe(value)
        for q in (0, 37.5, 50, 99, 100):
            assert hist.percentile(q) == float(
                np.percentile(list(hist._values), q))
        assert hist._sorted == sorted(hist._values)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), window=st.integers(1, 64))
def test_batches_up_to_three_windows_long_keep_the_multiset(data, window):
    """Batches of 0 to 3x the window, full of zeros and repeats: each one
    evicts what ``deque(maxlen)`` evicts from the ascending list before
    the single sort, so the list stays the window's multiset."""
    pool = st.sampled_from([0.0, -0.0, 0.0, 0.5, 0.5, 1.0, 2.5e-3, 7.0])
    hist = LatencyHistogram(window=window)
    for _ in range(data.draw(st.integers(1, 8))):
        batch = data.draw(st.lists(pool, max_size=3 * window))
        hist.observe_many(batch)
        values = list(hist._values)
        assert hist._sorted is None or hist._sorted == sorted(values)
        if not values:
            continue
        for q in (0, 50, 99, 100):
            assert hist.percentile(q) == float(np.percentile(values, q))
        assert hist._sorted == sorted(values)
