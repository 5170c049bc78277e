"""Telemetry: latency histograms for the serving stack.

:class:`LatencyHistogram` is a streaming accumulator of per-request
latencies with percentile queries (p50/p99 are what SLOs are written
against) and an optional sliding window, which is what the serving
autoscaler watches to decide when to remap.  Its percentiles are exact
(``np.percentile`` bit for bit) and read off a sorted list that is
maintained per batch of inserts and evictions.  :class:`StreamingHistogram`
is the approximate sibling for million-request runs: fixed log-spaced bins
give O(1) insert and O(bins) quantiles with a bounded relative error,
trading exactness for a footprint independent of the observation count.

The training-side recorder (:class:`TelemetryRecorder`, :class:`StepRecord`,
:func:`summary_stats`) lives in :mod:`repro.core.recorder`, with the
training stack it observes; it is read through this module on first use,
so a serving run never compiles it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro._lazy import lazy_exports

__all__ = [
    "LatencyHistogram",
    "StreamingHistogram",
    "TelemetryRecorder",
    "StepRecord",
    "percentile",
    "summary_stats",
]

# Training-side names, defined with the training stack (module docstring).
__getattr__, __dir__ = lazy_exports(__name__, dict.fromkeys(
    ("StepRecord", "TelemetryRecorder", "summary_stats"), "repro.core.recorder"))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of a series (linear interpolation)."""
    if len(values) == 0:
        raise ValueError("no values to take a percentile of")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _as_float_array(values: Iterable[float]) -> np.ndarray:
    """Any iterable of numbers (generators included) as a float ndarray."""
    return np.asarray(values if isinstance(values, (np.ndarray, list))
                      else list(values), dtype=float)


class LatencyHistogram:
    """Streaming latency accumulator with percentile queries.

    ``window=None`` keeps every observation (whole-run reports); a positive
    ``window`` keeps only the most recent N (the autoscaler's view of "how is
    the service doing *right now*").  Values are seconds by convention.

    Beside the insertion-order deque the window's values are kept in an
    ascending list.  Per batch, the values the ``deque(maxlen)`` is about
    to evict are deleted from it, the batch is appended and the list is
    sorted once (a long ascending run and a short tail, which timsort
    merges); a batch at least as large as what is held marks the list
    stale and the next query sorts once.
    """

    def __init__(self, window: Optional[int] = None) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._values: deque = deque(maxlen=window)
        self._sorted: Optional[List[float]] = []  # None: stale, see _view

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        # Plain floats: for the autoscaler's handful an ndarray trip is the cost.
        # "+ 0.0" turns -0.0 into 0.0: bisect cannot tell the two zeros apart.
        batch = ((np.asarray(values, dtype=float).ravel() + 0.0).tolist()
                 if isinstance(values, np.ndarray)
                 else [float(v) + 0.0 for v in values])
        bad = [v for v in batch if not 0 <= v < math.inf]  # NaN included
        if bad:
            raise ValueError(
                f"latencies must be finite and non-negative, got {bad[0]}")
        window, view = self._values, self._sorted
        if view is None or len(batch) >= len(window):
            window.extend(batch)
            self._sorted = None
            return
        # The extend evicts the window's oldest `excess` values (fewer than
        # it holds): drop those from the view, then merge the batch in.
        excess = len(window) + len(batch) - self.window if self.window else 0
        for i in range(excess):
            del view[bisect_left(view, window[i])]
        view += batch
        view.sort()
        window.extend(batch)

    def __len__(self) -> int:
        return len(self._values)

    def clear(self) -> None:
        self._values.clear()
        self._sorted = []

    def _view(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._values)
        return self._sorted

    def percentile(self, q: float) -> float:
        """``np.percentile(window, q)`` bit for bit, minus its dispatch:
        the ``method="linear"`` virtual index, its two neighbours, and
        numpy's ``_lerp`` with its ``t >= 0.5`` branch."""
        if not self._values:
            raise ValueError("no values to take a percentile of")
        if not 0 <= q <= 100:
            raise ValueError("Percentiles must be in the range [0, 100]")
        view = self._view()
        last = len(view) - 1
        virtual = last * (q / 100)
        lo = int(virtual)
        a, b = view[lo], view[min(lo + 1, last)]
        g = virtual - lo
        return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g

    def stats(self) -> Dict[str, float]:
        """The :func:`summary_stats` of the (windowed) observations."""
        if not self._values:
            raise ValueError("no values to summarize")
        # mean/std run over the insertion order on purpose: numpy's
        # pairwise summation is order-sensitive in the last ulp, and these
        # figures are pinned bit-exactly by the golden fixtures.
        raw = np.asarray(self._values, dtype=float)
        view = self._view()
        return {
            "mean": float(raw.mean()),
            "std": float(raw.std()),
            "min": view[0],
            "max": view[-1],
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "count": float(len(self._values)),
        }


# StreamingHistogram's bins (its docstring says why these).
_BINS_PER_DECADE = 128
_MIN_VALUE = 1e-6
_MAX_VALUE = 1e4
_NBINS = int(math.ceil(math.log10(_MAX_VALUE / _MIN_VALUE) * _BINS_PER_DECADE)) + 1
_SCALE = _BINS_PER_DECADE / math.log(10.0)
_LOG_MIN = math.log(_MIN_VALUE)


class StreamingHistogram:
    """Fixed-bin log-bucket histogram: O(1) insert, O(bins) quantiles.

    The approximate companion to :class:`LatencyHistogram` for runs where
    holding (or sorting) every observation is the bottleneck: values are
    counted into log-spaced bins covering ``[1e-6, 1e4)`` seconds, so
    memory is a fixed few-KB array regardless of how many observations
    stream through, inserts are a bincount add, and a quantile walks the
    cumulative counts once.  With 128 bins per decade adjacent bin edges
    are a factor of ``10**(1/128) ≈ 1.018`` apart, bounding the relative
    quantile error at ~2% — well inside the noise of a p99 SLO check,
    which is what the serving benchmark uses it for.

    Values at or below zero (or under ``1e-6``) land in an underflow bin
    pinned at ``1e-6``; values beyond ``1e4`` clamp to the last bin.  Exact
    min/max/sum are tracked on the side so ``mean``, ``min`` and ``max``
    stay exact; only interior quantiles are binned.
    """

    def __init__(self) -> None:
        self._counts = np.zeros(_NBINS, dtype=np.int64)
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @staticmethod
    def _edges(idx: np.ndarray) -> np.ndarray:
        """Lower value edge of each bin index."""
        return np.exp(_LOG_MIN + idx / _SCALE)

    def observe(self, value: float) -> None:
        if not 0 <= value < math.inf:  # also false for NaN
            raise ValueError(
                f"latencies must be finite and non-negative, got {value}")
        if value <= _MIN_VALUE:
            idx = 0
        else:
            idx = int((math.log(value) - _LOG_MIN) * _SCALE) + 1
            if idx >= _NBINS:
                idx = _NBINS - 1
        self._counts[idx] += 1
        self.count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def observe_many(self, values: Iterable[float]) -> None:
        arr = _as_float_array(values)
        if arr.size == 0:
            return
        lo, hi = float(arr.min()), float(arr.max())
        if not (0 <= lo and hi < math.inf):  # a NaN makes lo NaN
            bad = float(arr[~((arr >= 0) & (arr < math.inf))][0])
            raise ValueError(
                f"latencies must be finite and non-negative, got {bad}")
        idx = np.zeros(arr.shape, dtype=np.int64)
        above = arr > _MIN_VALUE
        if bool(above.any()):
            idx[above] = ((np.log(arr[above]) - _LOG_MIN)
                          * _SCALE).astype(np.int64) + 1
            np.clip(idx, 0, _NBINS - 1, out=idx)
        self._counts += np.bincount(idx, minlength=_NBINS)
        self.count += arr.size
        self._sum += float(arr.sum())
        self._min = min(self._min, lo)
        self._max = max(self._max, hi)

    def __len__(self) -> int:
        return self.count

    def clear(self) -> None:
        self._counts[:] = 0
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def mean(self) -> float:
        if not self.count:
            raise ValueError("no values to average")
        return self._sum / self.count

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile via the cumulative bin counts.

        Linear interpolation inside the landing bin, clamped to the exact
        observed ``[min, max]`` so tail quantiles can never overshoot the
        data.
        """
        if not self.count:
            raise ValueError("no values to take a percentile of")
        rank = (q / 100.0) * (self.count - 1)
        cum = np.cumsum(self._counts)
        idx = int(np.searchsorted(cum, rank, side="right"))
        if idx >= _NBINS:
            idx = _NBINS - 1
        below = int(cum[idx - 1]) if idx else 0
        in_bin = int(self._counts[idx])
        frac = ((rank - below) / in_bin) if in_bin else 0.0
        # The underflow bin reaches down to the true observed minimum and
        # the top bin up to the true maximum, so extreme quantiles anchor
        # on exact values instead of the bin grid.
        lo = min(_MIN_VALUE, self._min) if idx == 0 else \
            float(self._edges(np.asarray(idx - 1)))
        hi = self._max if idx == _NBINS - 1 else \
            float(self._edges(np.asarray(idx)))
        value = lo + (max(hi, lo) - lo) * frac
        return float(min(max(value, self._min), self._max))

    def stats(self) -> Dict[str, float]:
        if not self.count:
            raise ValueError("no values to summarize")
        return {
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "count": float(self.count),
        }
