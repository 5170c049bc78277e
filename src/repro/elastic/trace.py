"""Trace generation: training-job traces (§6.4, Table 3) and serving traces.

:data:`TABLE3_WORKLOADS` mirrors the paper's workload mix; traces draw jobs
uniformly from it with Poisson arrivals and random priorities in {1, 5, 10},
as in the 20-job experiment.  :func:`three_job_trace` reproduces the §6.4.1
scenario exactly (two 4-GPU BERT jobs sandwiching a 2-GPU ResNet job with
ascending priorities).

Serving traces live next to the training traces: a serving workload is a
piecewise-constant request-arrival process — :class:`ServingPhase` segments
of ``(duration, rate)`` — rather than a list of finite jobs.
:func:`serving_arrival_times` samples the open-loop Poisson arrivals the
request router (:mod:`repro.serving`) admits — drawn in blocks, with every
draw of the seed's stream spent exactly as a one-draw-per-arrival loop
spends it, so a seed names the same trace it always did — and
:func:`spike_phases` is the canonical load-spike shape the autoscaling
experiments ride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.seeding import derive_rng

if TYPE_CHECKING:
    from repro.elastic.jobs import JobSpec

__all__ = [
    "TraceJob",
    "TABLE3_WORKLOADS",
    "ServingPhase",
    "generate_trace",
    "serving_arrival_times",
    "spike_phases",
    "three_job_trace",
]

_TRACE_DOMAIN = 0x7A
_SERVING_DOMAIN = 0x7B


@dataclass(frozen=True)
class TraceJob:
    """One row of the Table 3 workload mix."""

    workload: str
    batch_sizes: Tuple[int, ...]
    vn_per_gpu: Tuple[int, ...]
    demand_gpus: Tuple[int, ...]


# Paper Table 3, with demands matching §6.4 (BERT jobs demand 4 GPUs, the
# ResNet-56 job 2, and the larger workloads up to 4).
TABLE3_WORKLOADS: List[TraceJob] = [
    TraceJob("resnet56_cifar10", (64, 128), (1,), (2,)),
    TraceJob("resnet50_imagenet", (256, 512, 1024, 2048, 4096, 8192), (1, 2, 4), (2, 4)),
    TraceJob("bert_base_glue", (8, 16, 32, 64, 128), (1, 2), (4,)),
    TraceJob("transformer_wmt", (4096, 8192, 16384, 32768, 65536), (1, 2), (2, 4)),
]

PRIORITIES = (1.0, 5.0, 10.0)


def _pick_config(rng: np.random.Generator, template: TraceJob,
                 ) -> Tuple[int, int, int]:
    """Pick (batch, total VNs, demand) with consistent divisibility."""
    demand = int(rng.choice(template.demand_gpus))
    for _ in range(64):
        batch = int(rng.choice(template.batch_sizes))
        vn_per_gpu = int(rng.choice(template.vn_per_gpu))
        total_vns = vn_per_gpu * demand
        if batch % total_vns == 0 and batch // total_vns >= 1:
            return batch, total_vns, demand
    # Fall back to the largest batch with one VN per GPU.
    batch = max(template.batch_sizes)
    return batch, demand, demand


def generate_trace(num_jobs: int, jobs_per_hour: float, seed: int = 0,
                   target_runtime: float = 1800.0,
                   workloads: Optional[Sequence[TraceJob]] = None,
                   ) -> List[JobSpec]:
    """Poisson-arrival trace drawn from the Table 3 mix.

    ``target_runtime`` sets each job's step budget so it would run roughly
    that long at full allocation — the paper trains "only a subset of the
    steps needed for convergence" to keep the experiment short.
    """
    if num_jobs < 1:
        raise ValueError("num_jobs must be >= 1")
    if jobs_per_hour <= 0:
        raise ValueError("jobs_per_hour must be positive")
    from repro.elastic.jobs import JobSpec  # job traces only: serving never loads it
    workloads = list(workloads) if workloads is not None else TABLE3_WORKLOADS
    rng = derive_rng(seed, _TRACE_DOMAIN)
    mean_interarrival = 3600.0 / jobs_per_hour
    specs: List[JobSpec] = []
    t = 0.0
    for job_id in range(num_jobs):
        t += float(rng.exponential(mean_interarrival))
        template = workloads[int(rng.integers(len(workloads)))]
        batch, total_vns, demand = _pick_config(rng, template)
        probe = JobSpec(job_id=job_id, workload=template.workload,
                        global_batch_size=batch, total_virtual_nodes=total_vns,
                        demand_gpus=demand, total_steps=1, priority=1.0)
        step_time = probe.step_time(demand)
        # Vary per-job length around the target (0.5x to 1.5x).
        runtime = target_runtime * float(rng.uniform(0.5, 1.5))
        steps = max(1, int(round(runtime / step_time)))
        specs.append(JobSpec(
            job_id=job_id,
            workload=template.workload,
            global_batch_size=batch,
            total_virtual_nodes=total_vns,
            demand_gpus=demand,
            total_steps=steps,
            priority=float(rng.choice(PRIORITIES)),
            arrival_time=t,
        ))
    return specs


# -- serving traces ----------------------------------------------------------


@dataclass(frozen=True)
class ServingPhase:
    """One segment of a piecewise-constant request-arrival process."""

    duration: float  # seconds
    rate: float      # mean request arrivals per second (Poisson)

    def __post_init__(self) -> None:
        if not 0 < self.duration < math.inf:
            raise ValueError(
                f"phase duration must be positive and finite, got {self.duration}")
        if not 0 <= self.rate < math.inf:
            raise ValueError(
                f"arrival rate must be >= 0 and finite, got {self.rate}")


def spike_phases(base_rate: float, spike_factor: float = 4.0,
                 base_duration: float = 4.0,
                 spike_duration: float = 4.0) -> List[ServingPhase]:
    """The canonical load-spike trace: base → ``spike_factor``× base → base.

    This is the shape the serving autoscaler is designed to ride: a steady
    diurnal-style base load interrupted by a burst a fixed mapping sized for
    the base load cannot absorb.
    """
    if spike_factor < 1:
        raise ValueError(f"spike_factor must be >= 1, got {spike_factor}")
    return [
        ServingPhase(base_duration, base_rate),
        ServingPhase(spike_duration, base_rate * spike_factor),
        ServingPhase(base_duration, base_rate),
    ]


def serving_arrival_times(phases: Sequence[ServingPhase], seed: int = 0,
                          limit: Optional[int] = None) -> np.ndarray:
    """Open-loop Poisson arrival times over a piecewise-constant rate trace.

    Within each phase, inter-arrival gaps are exponential at that phase's
    rate; arrivals that would fall past the phase boundary roll over into the
    next phase (the process is truncated, not resampled, so the seam between
    phases stays memoryless-ish without double-counting).  Returns absolute
    arrival times in seconds, strictly increasing, ending before the total
    trace duration.  ``limit`` caps the number of arrivals.

    The gaps are drawn in blocks of a few thousand unit-rate exponentials,
    but every double is the one a loop of ``t += rng.exponential(1 / rate)``
    would produce (the reference kept in ``tests/oracles/arrivals.py``):
    ``Generator.exponential(s)`` is ``s * standard_exponential()``,
    ``np.cumsum`` with ``t`` folded into the first gap performs the same
    left-to-right adds, the draw that crosses a phase boundary is charged
    to the phase that drew it, and draws a phase leaves unused are carried
    into the next — so draw *i* of the seed's stream plays exactly the part
    it plays in the loop, whatever the phases and ``limit``.
    """
    if not phases:
        raise ValueError("a serving trace needs at least one phase")
    rng = derive_rng(seed, _SERVING_DOMAIN)
    # Draws per block: enough that a trace costs a handful of numpy calls,
    # few enough that the scratch arrays of this length never show in a
    # run's peak memory.
    block = 4096
    chunks: List[np.ndarray] = []
    count = 0
    draws = np.empty(0)  # unit-rate gaps drawn, not yet consumed
    t = 0.0
    phase_start = 0.0
    for phase in phases:
        phase_end = phase_start + phase.duration
        t = max(t, phase_start)
        done = phase.rate <= 0  # a silent phase draws nothing
        while not done and (limit is None or count < limit):
            if not len(draws):
                draws = rng.standard_exponential(block)
            # A vanishing rate's gaps are inf, or finite and sum to inf.
            with np.errstate(over="ignore"):
                gaps = draws * (1.0 / phase.rate)
                gaps[0] += t
                clock = np.cumsum(gaps)  # the loop's t after each draw
            cut = int(np.searchsorted(clock, phase_end, side="left"))
            done = cut < len(clock)  # draw ``cut`` reached the boundary
            used = cut + 1 if done else cut
            t = float(clock[used - 1])
            chunks.append(clock[:cut])
            count += cut
            draws = draws[used:]
        phase_start = phase_end
        if limit is not None and count >= limit:
            break
    times = np.concatenate(chunks) if chunks else np.empty(0)
    return times[:limit]


def three_job_trace(steps_scale: float = 1.0) -> List[JobSpec]:
    """The §6.4.1 scenario: three jobs, ascending priority, on 4 GPUs.

    Job 0 fine-tunes BERT-BASE (demand 4), Job 1 trains ResNet-56 (demand 2),
    Job 2 fine-tunes BERT-BASE (demand 4, highest priority); they arrive in
    that order.
    """
    if steps_scale <= 0:
        raise ValueError("steps_scale must be positive")
    from repro.elastic.jobs import JobSpec

    def steps(n: int) -> int:
        return max(1, int(round(n * steps_scale)))

    return [
        JobSpec(job_id=0, workload="bert_base_glue", global_batch_size=64,
                total_virtual_nodes=8, demand_gpus=4, total_steps=steps(2500),
                priority=1.0, arrival_time=0.0),
        JobSpec(job_id=1, workload="resnet56_cifar10", global_batch_size=128,
                total_virtual_nodes=4, demand_gpus=2, total_steps=steps(60000),
                priority=5.0, arrival_time=300.0),
        JobSpec(job_id=2, workload="bert_base_glue", global_batch_size=64,
                total_virtual_nodes=8, demand_gpus=4, total_steps=steps(2500),
                priority=10.0, arrival_time=600.0),
    ]
