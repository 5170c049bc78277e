"""Model parallelism with virtual nodes (paper §7, Figure 19).

The paper's future-work section shows that virtual nodes also apply along
the *batch* dimension of model-parallel training: today each pipeline stage
is replicated ``r`` ways (data parallelism inside model parallelism), using
``P x r`` GPUs.  Replacing the ``r`` replicas with ``r`` virtual nodes per
stage GPU "unrolls" the data-parallel pipelines into sequential passes —
``P`` GPUs, roughly ``r`` times the step time.  Pipelining the virtual nodes
GPipe-style recovers most of the time.

This module prices the Figure 19 configurations from two wave-schedule
primitives, both here (:func:`sequential_sweep_time`,
:func:`pipelined_makespan`), so training and serving never compile them.
Inputs are per-stage forward/backward times (seconds per microbatch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = [
    "PipelineConfig",
    "data_parallel_pipeline",
    "virtual_node_pipeline",
    "pipelined_virtual_nodes",
    "sequential_sweep_time",
    "pipelined_makespan",
]


@dataclass(frozen=True)
class PipelineConfig:
    """A model-parallel execution configuration and its predicted cost."""

    name: str
    num_gpus: int
    step_time: float

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if self.step_time <= 0:
            raise ValueError("step_time must be positive")


def _check_stages(stage_times: Sequence[Tuple[float, float]]) -> None:
    if not stage_times:
        raise ValueError("need at least one pipeline stage")
    for f, b in stage_times:
        if f <= 0 or b <= 0:
            raise ValueError("stage forward/backward times must be positive")


def data_parallel_pipeline(stage_times: Sequence[Tuple[float, float]],
                           replicas: int) -> PipelineConfig:
    """Figure 19 (top): each stage replicated ``replicas`` ways.

    All replicas run their share of the batch concurrently, so one step costs
    one sequential sweep of forwards then backwards; the price is
    ``stages * replicas`` GPUs.
    """
    _check_stages(stage_times)
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    sweep = sequential_sweep_time(stage_times)
    return PipelineConfig(
        name=f"data-parallel x{replicas}",
        num_gpus=len(stage_times) * replicas,
        step_time=sweep,
    )


def virtual_node_pipeline(stage_times: Sequence[Tuple[float, float]],
                          virtual_nodes: int) -> PipelineConfig:
    """Figure 19 (bottom): replicas become virtual nodes on one GPU per stage.

    The data-parallel pipelines unroll into ``virtual_nodes`` sequential
    forward+backward sweeps; the resource requirement drops by the
    replication factor.
    """
    _check_stages(stage_times)
    if virtual_nodes < 1:
        raise ValueError("virtual_nodes must be >= 1")
    sweep = sequential_sweep_time(stage_times)
    return PipelineConfig(
        name=f"virtual-nodes x{virtual_nodes}",
        num_gpus=len(stage_times),
        step_time=virtual_nodes * sweep,
    )


def pipelined_virtual_nodes(stage_times: Sequence[Tuple[float, float]],
                            virtual_nodes: int) -> PipelineConfig:
    """GPipe-style overlap of the unrolled virtual nodes (§7 future work).

    With microbatches flowing through the pipe, the makespan is the classic
    ``(V + P - 1)`` slot schedule on the bottleneck stage, run once for
    forwards and once for backwards.
    """
    _check_stages(stage_times)
    if virtual_nodes < 1:
        raise ValueError("virtual_nodes must be >= 1")
    return PipelineConfig(
        name=f"pipelined virtual-nodes x{virtual_nodes}",
        num_gpus=len(stage_times),
        step_time=pipelined_makespan(virtual_nodes, stage_times),
    )


# ---------------------------------------------------------------------------
# Wave-schedule primitives.
# ---------------------------------------------------------------------------


def sequential_sweep_time(stage_times: Sequence[Tuple[float, float]]) -> float:
    """One full forward-then-backward sweep over all pipeline stages.

    This is the cost of one wave through a model-parallel pipeline — the
    unit both the data-parallel and unrolled virtual-node configurations of
    Figure 19 are priced in.
    """
    return sum(f for f, _ in stage_times) + sum(b for _, b in stage_times)


def pipelined_makespan(virtual_nodes: int,
                       stage_times: Sequence[Tuple[float, float]]) -> float:
    """GPipe-style makespan of ``virtual_nodes`` waves over the stages.

    The classic ``(V + P - 1)`` slot schedule on the bottleneck stage, run
    once for forwards and once for backwards.
    """
    stages = len(stage_times)
    slot_f = max(f for f, _ in stage_times)
    slot_b = max(b for _, b in stage_times)
    slots = virtual_nodes + stages - 1
    return slots * (slot_f + slot_b)
