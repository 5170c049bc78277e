"""Per-step training telemetry: :class:`TelemetryRecorder` and its records.

A :class:`TelemetryRecorder` attaches to the trainer's ``on_step``/
``on_epoch`` callbacks and accumulates a structured record stream.  The
recorder is purely observational — it never affects training — and its
output is what a downstream user would feed into dashboards or regression
checks.  :mod:`repro.telemetry` re-exports these names (the serving
histograms live there), loading this module only when one is read.
"""

from __future__ import annotations

import csv
import os
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import StepResult
    from repro.core.trainer import EpochResult

__all__ = ["StepRecord", "TelemetryRecorder", "summary_stats"]


@dataclass(frozen=True)
class StepRecord:
    """One training step's observables."""

    step: int
    loss: float
    grad_norm: float
    examples: int
    sim_step_time: float
    throughput: float  # examples per simulated second


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
