"""Fault tolerance via virtual node migration (paper §7).

The paper observes that the elasticity mechanism doubles as fault handling:
when a worker fails, its virtual nodes migrate to the remaining healthy
workers, and later to replacements — training never restarts from a stale
checkpoint.  Because virtual node state lives with the nodes (and model
parameters are replicated on every worker), surviving workers can rebuild
the failed worker's share exactly.

This module implements that policy on top of :meth:`VirtualFlowExecutor.remap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.mapping import Mapping
from repro.core.plan import ExecutionPlan, PlanValidationError
from repro.hardware.cluster import Cluster

if TYPE_CHECKING:
    from repro.core.executor import VirtualFlowExecutor

__all__ = [
    "FaultToleranceError",
    "RecoveryPolicy",
    "handle_device_failure",
    "restore_device",
]


class FaultToleranceError(RuntimeError):
    """No healthy devices remain, the failure target is unknown, or the
    surviving devices cannot hold the migrated plan in memory."""


def handle_device_failure(executor: VirtualFlowExecutor,
                          failed_device_ids: Iterable[int]) -> float:
    """Migrate virtual nodes off failed devices; returns migration time.

    The surviving devices absorb the orphaned virtual nodes evenly.  Raises
    :class:`FaultToleranceError` when no devices survive (the job must then
    wait for replacements) or the plan no longer fits in surviving memory.
    """
    failed = set(failed_device_ids)
    cluster = executor.mapping.cluster
    known = {d.device_id for d in cluster.devices}
    unknown = failed - known
    if unknown:
        raise FaultToleranceError(
            f"cannot fail unknown devices: {sorted(unknown)}"
        )
    survivors = [d.device_id for d in cluster.devices if d.device_id not in failed]
    if not survivors:
        raise FaultToleranceError(
            "all devices failed; wait for replacements and call restore_device"
        )
    healthy = cluster.subset(survivors)
    new_mapping = Mapping.even(executor.vn_set, healthy)
    try:
        ExecutionPlan(executor.workload, new_mapping)
    except PlanValidationError as exc:
        raise FaultToleranceError(
            f"plan no longer fits in surviving memory after failing "
            f"device(s) {sorted(failed)}: {exc}") from exc
    return executor.remap(new_mapping)


def restore_device(executor: VirtualFlowExecutor, cluster: Cluster) -> float:
    """Rebalance onto a repaired/replacement cluster; returns migration time.

    New workers bootstrap via the §4.1 all-gather (model parameters and
    virtual node state), exactly as in a scale-out resize.
    """
    new_mapping = Mapping.even(executor.vn_set, cluster)
    return executor.remap(new_mapping)


@dataclass(frozen=True)
class RecoveryPolicy:
    """Timing model for crash recovery on the discrete-event runtime.

    Two recovery modes, matching the paper's §7 argument:

    * ``"migrate"`` — the elastic path: survivors absorb the failed worker's
      virtual nodes after the §4.1 all-gather rebuilds replicated state.  No
      training progress is lost; the job stalls for detection plus the
      priced all-gather.
    * ``"checkpoint"`` — the baseline the paper argues against: reload the
      last checkpoint, paying ``restore_delay`` and rolling progress back to
      the last ``checkpoint_interval_steps`` boundary.

    Repeated crashes during one recovery episode retry with exponential
    backoff; after ``max_retries`` piled-up attempts the migrate path gives
    up and falls back to a checkpoint restore (matching real systems, where
    cascading failures eventually force a cold restart).
    """

    mode: str = "migrate"
    detection_delay: float = 0.05
    restore_delay: float = 2.0
    checkpoint_interval_steps: float = 50.0
    max_retries: int = 4
    backoff_base: float = 0.25
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.mode not in ("migrate", "checkpoint"):
            raise ValueError(
                f"mode must be 'migrate' or 'checkpoint', got {self.mode!r}")
        for name in ("detection_delay", "restore_delay", "backoff_base"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.checkpoint_interval_steps <= 0:
            raise ValueError("checkpoint_interval_steps must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Extra stall before retry ``attempt`` (attempt 0 pays none)."""
        if attempt <= 0:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (attempt - 1)

    def migration_stall(self, param_bytes: int, survivors: int,
                        interconnect) -> float:
        """Stall for the elastic path: detection + §4.1 all-gather.

        ``interconnect`` may be a :class:`DegradedInterconnect`, so a crash
        inside a network-degradation window recovers proportionally slower.
        """
        if survivors < 1:
            raise FaultToleranceError(
                "no survivors to migrate onto; checkpoint restore required")
        return self.detection_delay + interconnect.allgather_time(
            param_bytes, survivors)

    def checkpoint_stall(self) -> float:
        """Stall for the baseline path: detection + checkpoint reload."""
        return self.detection_delay + self.restore_delay

    def rollback_steps(self, steps_done: float) -> float:
        """Progress remaining after rolling back to the last checkpoint."""
        interval = self.checkpoint_interval_steps
        return math.floor(steps_done / interval) * interval
