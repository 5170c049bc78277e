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


# RecoveryPolicy's timing (its docstring says how each is paid).
_DETECTION_DELAY = 0.05
_RESTORE_DELAY = 2.0
_CHECKPOINT_INTERVAL_STEPS = 50.0
MAX_RETRIES = 4
_BACKOFF_BASE = 0.25
_BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class RecoveryPolicy:
    """Timing model for crash recovery on the discrete-event runtime.

    Two recovery modes, matching the paper's §7 argument:

    * ``"migrate"`` — the elastic path: survivors absorb the failed worker's
      virtual nodes after the §4.1 all-gather rebuilds replicated state.  No
      training progress is lost; the job stalls for detection plus the
      priced all-gather.
    * ``"checkpoint"`` — the baseline the paper argues against: reload the
      last checkpoint, paying the restore delay and rolling progress back
      to the last checkpoint boundary.

    Repeated crashes during one recovery episode retry with exponential
    backoff; after :data:`MAX_RETRIES` piled-up attempts the migrate path gives
    up and falls back to a checkpoint restore (matching real systems, where
    cascading failures eventually force a cold restart).
    """

    mode: str = "migrate"

    def __post_init__(self) -> None:
        if self.mode not in ("migrate", "checkpoint"):
            raise ValueError(
                f"mode must be 'migrate' or 'checkpoint', got {self.mode!r}")

    def backoff(self, attempt: int) -> float:
        """Extra stall before retry ``attempt`` (attempt 0 pays none)."""
        if attempt <= 0:
            return 0.0
        return _BACKOFF_BASE * _BACKOFF_FACTOR ** (attempt - 1)

    def migration_stall(self, param_bytes: int, survivors: int,
                        interconnect) -> float:
        """Stall for the elastic path: detection + §4.1 all-gather.

        ``interconnect`` may be a :class:`DegradedInterconnect`, so a crash
        inside a network-degradation window recovers proportionally slower.
        """
        if survivors < 1:
            raise FaultToleranceError(
                "no survivors to migrate onto; checkpoint restore required")
        return _DETECTION_DELAY + interconnect.allgather_time(
            param_bytes, survivors)

    def checkpoint_stall(self) -> float:
        """Stall for the baseline path: detection + checkpoint reload."""
        return _DETECTION_DELAY + _RESTORE_DELAY

    def rollback_steps(self, steps_done: float) -> float:
        """Progress remaining after rolling back to the last checkpoint."""
        return (math.floor(steps_done / _CHECKPOINT_INTERVAL_STEPS)
                * _CHECKPOINT_INTERVAL_STEPS)
