"""Telemetry: per-step training records, latency histograms, and export.

A :class:`TelemetryRecorder` attaches to the trainer's ``on_step``/
``on_epoch`` callbacks and accumulates a structured record stream.  The
recorder is purely observational — it never affects training — and its
output is what a downstream user would feed into dashboards or regression
checks.

:class:`LatencyHistogram` is the serving-side counterpart: a streaming
accumulator of per-request latencies with percentile queries (p50/p99 are
what SLOs are written against) and an optional sliding window, which is what
the serving autoscaler watches to decide when to remap.  Its percentiles
are exact (``np.percentile`` bit for bit) and read off a sorted list that
is maintained per insert and eviction.  :class:`StreamingHistogram` is the
approximate sibling for million-request runs: fixed log-spaced bins give
O(1) insert and O(bins) quantiles with a bounded relative error, trading
exactness for a footprint independent of the observation count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from bisect import bisect_left, insort
from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import StepResult
    from repro.core.trainer import EpochResult

__all__ = [
    "LatencyHistogram",
    "StreamingHistogram",
    "TelemetryRecorder",
    "StepRecord",
    "percentile",
    "summary_stats",
]


@dataclass(frozen=True)
class StepRecord:
    """One training step's observables."""

    step: int
    loss: float
    grad_norm: float
    examples: int
    sim_step_time: float
    throughput: float  # examples per simulated second


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of a series (linear interpolation)."""
    if len(values) == 0:
        raise ValueError("no values to take a percentile of")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def summary_stats(values: List[float]) -> Dict[str, float]:
    """Mean / std / min / max / p50 / p95 / p99 of a series."""
    if not values:
        raise ValueError("no values to summarize")
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
    }


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
    ascending list: ``insort`` per insert, a delete of the value the
    ``deque(maxlen)`` is about to evict; a bulk append at least as large as
    what is held marks the list stale and the next query sorts once.
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
        for value in batch:
            if len(window) == self.window:  # this append evicts window[0]
                del view[bisect_left(view, window[0])]
            insort(view, value)
            window.append(value)

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


class StreamingHistogram:
    """Fixed-bin log-bucket histogram: O(1) insert, O(bins) quantiles.

    The approximate companion to :class:`LatencyHistogram` for runs where
    holding (or sorting) every observation is the bottleneck: values are
    counted into log-spaced bins covering ``[min_value, max_value)``, so
    memory is a fixed few-KB array regardless of how many observations
    stream through, inserts are a bincount add, and a quantile walks the
    cumulative counts once.  With ``bins_per_decade=128`` adjacent bin
    edges are a factor of ``10**(1/128) ≈ 1.018`` apart, bounding the
    relative quantile error at ~2% — well inside the noise of a p99 SLO
    check, which is what the serving benchmark uses it for.

    Values at or below zero (or under ``min_value``) land in an underflow
    bin pinned at ``min_value``; values beyond ``max_value`` clamp to the
    last bin.  Exact min/max/sum are tracked on the side so ``mean``,
    ``min`` and ``max`` stay exact; only interior quantiles are binned.
    """

    def __init__(self, *, bins_per_decade: int = 128,
                 min_value: float = 1e-6, max_value: float = 1e4) -> None:
        if bins_per_decade < 1:
            raise ValueError(
                f"bins_per_decade must be >= 1, got {bins_per_decade}")
        if not (0 < min_value < max_value):
            raise ValueError("need 0 < min_value < max_value")
        self.bins_per_decade = bins_per_decade
        self.min_value = min_value
        self.max_value = max_value
        decades = math.log10(max_value / min_value)
        self._nbins = int(math.ceil(decades * bins_per_decade)) + 1
        self._counts = np.zeros(self._nbins, dtype=np.int64)
        self._scale = bins_per_decade / math.log(10.0)
        self._log_min = math.log(min_value)
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def _edges(self, idx: np.ndarray) -> np.ndarray:
        """Lower value edge of each bin index."""
        return np.exp(self._log_min + idx / self._scale)

    def observe(self, value: float) -> None:
        if not 0 <= value < math.inf:  # also false for NaN
            raise ValueError(
                f"latencies must be finite and non-negative, got {value}")
        if value <= self.min_value:
            idx = 0
        else:
            idx = int((math.log(value) - self._log_min) * self._scale) + 1
            if idx >= self._nbins:
                idx = self._nbins - 1
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
        above = arr > self.min_value
        if bool(above.any()):
            idx[above] = ((np.log(arr[above]) - self._log_min)
                          * self._scale).astype(np.int64) + 1
            np.clip(idx, 0, self._nbins - 1, out=idx)
        self._counts += np.bincount(idx, minlength=self._nbins)
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
        if idx >= self._nbins:
            idx = self._nbins - 1
        below = int(cum[idx - 1]) if idx else 0
        in_bin = int(self._counts[idx])
        frac = ((rank - below) / in_bin) if in_bin else 0.0
        # The underflow bin reaches down to the true observed minimum and
        # the top bin up to the true maximum, so extreme quantiles anchor
        # on exact values instead of the bin grid.
        lo = min(self.min_value, self._min) if idx == 0 else \
            float(self._edges(np.asarray(idx - 1)))
        hi = self._max if idx == self._nbins - 1 else \
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


class TelemetryRecorder:
    """Collects step and epoch records from a trainer run.

    Usage::

        recorder = TelemetryRecorder()
        trainer.train_epoch(on_step=recorder.on_step)
        recorder.on_epoch(trainer.history[-1])
        recorder.to_csv("run.csv")
    """

    def __init__(self) -> None:
        self.steps: List[StepRecord] = []
        self.epochs: List[EpochResult] = []

    # -- callbacks ---------------------------------------------------------

    def on_step(self, result: StepResult) -> None:
        throughput = (result.examples / result.sim_step_time
                      if result.sim_step_time > 0 else 0.0)
        self.steps.append(StepRecord(
            step=len(self.steps),
            loss=result.loss,
            grad_norm=result.grad_norm,
            examples=result.examples,
            sim_step_time=result.sim_step_time,
            throughput=throughput,
        ))

    def on_epoch(self, result: EpochResult) -> None:
        self.epochs.append(result)

    # -- summaries ------------------------------------------------------------

    def loss_summary(self) -> Dict[str, float]:
        return summary_stats([s.loss for s in self.steps])

    def throughput_summary(self) -> Dict[str, float]:
        return summary_stats([s.throughput for s in self.steps])

    def total_examples(self) -> int:
        return sum(s.examples for s in self.steps)

    def total_sim_time(self) -> float:
        return sum(s.sim_step_time for s in self.steps)

    # -- export -----------------------------------------------------------------

    def to_csv(self, path: str) -> None:
        """Write per-step records as CSV."""
        if not self.steps:
            raise ValueError("no step records to export")
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(asdict(self.steps[0])))
            writer.writeheader()
            for record in self.steps:
                writer.writerow(asdict(record))

    def to_json(self, path: str) -> None:
        """Write steps + epochs + summaries as a JSON document."""
        document = {
            "steps": [asdict(s) for s in self.steps],
            "epochs": [asdict(e) for e in self.epochs],
            "summaries": {
                "loss": self.loss_summary() if self.steps else None,
                "throughput": self.throughput_summary() if self.steps else None,
            },
        }
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(document, fh, indent=2)
