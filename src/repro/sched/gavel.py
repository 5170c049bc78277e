"""Gavel [Narayanan et al., OSDI 2020] reimplementation and the VirtualFlow
heterogeneous-training extension (§6.5.2).

Gavel schedules a heterogeneous cluster in fixed rounds of :data:`ROUND_S`
seconds (the paper's 6 minutes) under a policy; we implement Least Attained
Service (LAS): each round, jobs that have consumed the least normalized
GPU-time are served first.  Stock Gavel considers *homogeneous* allocations
only — a job runs on GPUs of a single type each round.  The extension lets
a job additionally absorb leftover GPUs of other types, with throughput
given by a balanced batch split across types (VirtualFlow's heterogeneous
training), which is what produces the hatched allocations of Figure 16 and
the JCT reductions of Figure 15.

Each round is one event on the shared discrete-event
:class:`~repro.runtime.core.Runtime`, and a job is a
:class:`~repro.elastic.jobs.JobState` plus Gavel's two fields of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.elastic.jobs import JobSpec, JobState, JobStatus
from repro.framework.models import get_workload
from repro.hardware.device import get_spec
from repro.hardware.perfmodel import PerfModel
from repro.runtime.core import Runtime

__all__ = ["GavelJob", "GavelSimulator", "GavelResult", "hetero_split", "hetero_throughput"]

ROUND_S = 360.0      # seconds per scheduling round (paper: 6 minutes)
# Extra devices join a job only when they raise its predicted throughput by
# at least this factor (guards against sync overhead swamping slow-GPU
# contributions — the Figure 15 "graceful fallback").
MIN_SPEEDUP = 1.05
MAX_ROUNDS = 100_000  # a trace still unfinished after this many played rounds is an error
_PERF = PerfModel()


def hetero_split(spec: JobSpec, allocation: Mapping[str, int]) -> Dict[str, int]:
    """Split the job's global batch across device types, balancing step times.

    Shares are proportional to each type's aggregate per-example rate, then
    rounded to whole examples with the remainder going to the fastest type.
    """
    workload = get_workload(spec.workload)
    rates = {}
    for t, n in allocation.items():
        if n < 1:
            continue
        # examples/second of one device of this type at the job's wave batch
        wave = max(1, spec.wave_batch)
        rate = wave / _PERF.wave_time(workload, get_spec(t), wave)
        rates[t] = n * rate
    if not rates:
        raise ValueError("empty allocation")
    total_rate = sum(rates.values())
    batch = spec.global_batch_size
    shares = {t: int(math.floor(batch * r / total_rate)) for t, r in rates.items()}
    fastest = max(rates, key=lambda t: rates[t] / allocation[t])
    shares[fastest] += batch - sum(shares.values())
    return shares


def hetero_throughput(spec: JobSpec, allocation: Mapping[str, int]) -> float:
    """Steps/second for a (possibly heterogeneous) allocation.

    Uses the balanced split from :func:`hetero_split`; the synchronous step is
    bottlenecked on the slowest type plus the all-reduce.
    """
    workload = get_workload(spec.workload)
    alloc = {t: n for t, n in allocation.items() if n > 0}
    if not alloc:
        raise ValueError("empty allocation")
    shares = hetero_split(spec, alloc)
    slowest = 0.0
    for t, n in alloc.items():
        per_device = shares[t] / n
        if per_device <= 0:
            continue
        # Waves sized at most the job's wave batch (virtual nodes).
        n_waves = max(1, math.ceil(per_device / max(1, spec.wave_batch)))
        per_wave = per_device / n_waves
        t_dev = n_waves * _PERF.wave_time(workload, get_spec(t), max(1, int(round(per_wave))))
        t_dev += _PERF.update_time(workload, get_spec(t))
        slowest = max(slowest, t_dev)
    n_devices = sum(alloc.values())
    comm = _PERF.interconnect.allreduce_time(workload.footprint.param_bytes, n_devices)
    return 1.0 / (slowest + comm)


@dataclass
class GavelJob(JobState):
    """A :class:`JobState` plus Gavel's own two fields.

    Gavel keeps ``steps_done``, ``finish_time`` and ``status`` (``FINISHED``
    once the job completes).  The per-allocation fields (``gpus``,
    ``first_alloc_time``, ``allocation_log``, ``resizes``) keep their
    defaults: a Gavel allocation is per device type and per round, which
    ``round_log`` records.
    """

    attained_service: float = 0.0  # normalized (V100-equivalent) GPU-seconds
    # (round start time, {type: count}) per active round, for Figure 16.
    round_log: List[Tuple[float, Dict[str, int]]] = field(default_factory=list)


@dataclass
class GavelResult:
    """Outcome of one Gavel simulation."""

    jobs: Dict[int, GavelJob]

    def avg_jct(self) -> float:
        return float(np.mean([j.jct() for j in self.jobs.values()]))

    def hetero_round_fraction(self) -> float:
        """Fraction of allocated rounds that were heterogeneous."""
        allocated = [a for job in self.jobs.values() for _, a in job.round_log if a]
        return sum(len(a) > 1 for a in allocated) / len(allocated) if allocated else 0.0


class GavelSimulator:
    """Round-based scheduling over a heterogeneous cluster.

    Rounds last :data:`ROUND_S` seconds, and the extension adds a device
    type to a job only at a predicted speedup of :data:`MIN_SPEEDUP` or more.

    Parameters
    ----------
    cluster_counts:
        ``{device_type: count}`` — the paper uses 4 V100 + 8 P100 + 16 K80.
    heterogeneous:
        If True, jobs may absorb leftover GPUs of other types (the
        VirtualFlow extension); if False, stock Gavel behaviour.
    """

    POLICIES = ("las", "fifo", "srtf")

    def __init__(self, cluster_counts: Mapping[str, int], heterogeneous: bool = False,
                 policy: str = "las") -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {self.POLICIES}")
        if sum(cluster_counts.values()) < 1:
            raise ValueError("cluster has no devices")
        for t in cluster_counts:
            get_spec(t)
        self.cluster_counts = dict(cluster_counts)
        self.heterogeneous = heterogeneous
        self.policy = policy
        # Fastest types first for the homogeneous pass.
        self.types_by_speed = sorted(
            self.cluster_counts, key=lambda t: -get_spec(t).compute_factor
        )

    # -- one round ------------------------------------------------------------

    def _round_order(self, active: List[GavelJob]) -> List[GavelJob]:
        """Service order for this round, per the configured policy."""
        if self.policy == "las":
            key = lambda j: (j.attained_service, j.spec.arrival_time, j.job_id)
        elif self.policy == "fifo":
            key = lambda j: (j.spec.arrival_time, j.job_id)
        else:  # srtf
            key = lambda j: (j.remaining_steps, j.spec.arrival_time, j.job_id)
        return sorted(active, key=key)

    def _allocate_round(self, active: List[GavelJob]) -> Dict[int, Dict[str, int]]:
        free = dict(self.cluster_counts)
        order = self._round_order(active)
        allocations: Dict[int, Dict[str, int]] = {j.job_id: {} for j in active}
        # Pass 1 (stock Gavel): one type per job, fastest first.
        for job in order:
            for t in self.types_by_speed:
                if free[t] < 1:
                    continue
                n = min(job.spec.demand_gpus, free[t])
                allocations[job.job_id] = {t: n}
                free[t] -= n
                break
        if self.heterogeneous:
            # Pass 2 (VirtualFlow extension): offer leftovers to jobs in LAS
            # order if the solver predicts a real speedup.
            for job in order:
                alloc = allocations[job.job_id]
                if not alloc:
                    continue
                base = hetero_throughput(job.spec, alloc)
                for t in self.types_by_speed:
                    if free[t] < 1 or t in alloc:
                        continue
                    trial = {**alloc, t: free[t]}
                    tput = hetero_throughput(job.spec, trial)
                    if tput >= base * MIN_SPEEDUP:
                        alloc = trial
                        base = tput
                        free[t] = 0
                allocations[job.job_id] = alloc
        return allocations

    # -- full simulation -----------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> GavelResult:
        if not specs:
            raise ValueError("no jobs in trace")
        jobs = {s.job_id: GavelJob(spec=s) for s in specs}
        if len(jobs) != len(specs):
            raise ValueError("duplicate job ids in trace")
        runtime = Runtime()
        unfinished = len(jobs)
        played = 0

        def play_round(time: float) -> None:
            nonlocal unfinished, played
            active = [j for j in jobs.values()
                      if j.status is not JobStatus.FINISHED and j.spec.arrival_time <= time]
            if active:
                played += 1
                allocations = self._allocate_round(active)
                for job in active:
                    alloc = {t: n for t, n in allocations[job.job_id].items() if n > 0}
                    job.round_log.append((time, alloc))
                    if not alloc:
                        continue
                    rate = hetero_throughput(job.spec, alloc)
                    span = min(ROUND_S, job.remaining_steps / rate)
                    job.steps_done = min(job.spec.total_steps,
                                         job.steps_done + rate * span)
                    weight = sum(n * get_spec(t).compute_factor for t, n in alloc.items())
                    job.attained_service += weight * span
                    if job.remaining_steps <= 1e-9 * max(1, job.spec.total_steps):
                        job.steps_done = job.spec.total_steps
                        job.finish_time = time + span
                        job.status = JobStatus.FINISHED
                        unfinished -= 1
                start = time + ROUND_S
            else:
                # Nothing to schedule: no empty rounds, resume at the first
                # round boundary whose start admits the next arrival.
                arrival = min(j.spec.arrival_time for j in jobs.values()
                              if j.status is not JobStatus.FINISHED)
                start = math.ceil(arrival / ROUND_S) * ROUND_S
                if start < arrival:  # the division rounded down to a boundary
                    start += ROUND_S
            if unfinished and played < MAX_ROUNDS:
                runtime.queue.post(start, play_round, kind="round", actor="gavel")

        runtime.queue.post(0.0, play_round, kind="round", actor="gavel")
        runtime.run()
        if unfinished:
            raise RuntimeError(f"exceeded {MAX_ROUNDS} rounds")
        return GavelResult(jobs=jobs)
