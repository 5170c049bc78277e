"""Event-driven cluster simulator for the elasticity experiments (§6.4).

Between events every running job progresses at a constant rate determined by
its current allocation (steps/second from the perf model).  Events are job
arrivals and predicted completions; after each event the scheduler recomputes
target allocations, resizes are applied (with a migration delay for elastic
schedulers), and completion times are re-predicted.

The simulation runs on the shared discrete-event runtime
(:mod:`repro.runtime`): :class:`TrainingClusterProcess` posts the whole
trace's arrival wave in one ``post_many`` call and per-job completion-
prediction (ETA) events on the slab-backed
:class:`~repro.runtime.core.EventQueue`, invalidating and rescheduling an
ETA whenever a reallocation (or float drift from an advance) moves the
prediction — replacing the old per-iteration linear next-finish scan.  Job
allocations are held as :class:`~repro.runtime.pool.DevicePool` leases, so
per-job device-seconds come from the same audited accounting the serving
router uses, and a co-scheduler can run training and serving on one pool.

A wake's cost follows the jobs alive at that instant, not the length of the
trace: the process keeps its live jobs (arrived, not yet finished) in one
insertion-ordered map, and its running jobs are exactly the keys of the
step-rate map.  Both iterate in arrival order, which fixes the order of
lease grants and ETA posts, and so every event's sequence number.

The simulator records per-job allocation logs — exactly what Figures 10a/10b
and 11 plot — and feeds :mod:`repro.elastic.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union

from repro.core.fault_tolerance import RecoveryPolicy
from repro.elastic.jobs import JobSpec, JobState, JobStatus
from repro.framework import get_workload
from repro.hardware.interconnect import DegradedInterconnect
from repro.hardware.perfmodel import ClusterConditions, PerfModel, StepTimeBreakdown
from repro.runtime import (
    DeviceLease,
    DevicePool,
    EventQueue,
    EventTrace,
    Runtime,
    open_trace,
)

__all__ = ["ClusterSimulator", "SimulationResult", "Scheduler",
           "TrainingClusterProcess"]

_EPS = 1e-9
MAX_TIME = 10_000_000.0  # simulated seconds: a wake past this is a runaway trace
_PERF = PerfModel()


class Scheduler(Protocol):
    """Scheduler plug-in interface."""

    name: str
    elastic: bool

    def allocate(self, time: float, total_gpus: int, running: List[JobState],
                 queued: List[JobState]) -> Dict[int, int]:
        ...


@dataclass
class SimulationResult:
    """Full record of one simulated trace."""

    scheduler_name: str
    total_gpus: int
    jobs: Dict[int, JobState]
    makespan: float
    # (time, {job_id: gpus}) snapshots after every event.
    allocation_history: List[Tuple[float, Dict[int, int]]] = field(default_factory=list)
    # Per-job device-seconds from the pool's lease accounting.
    device_seconds: Dict[int, float] = field(default_factory=dict)

    def job(self, job_id: int) -> JobState:
        return self.jobs[job_id]

    def utilization(self) -> float:
        """Average fraction of GPUs busy between t=0 and the makespan."""
        if self.makespan <= 0:
            return 0.0
        busy = 0.0
        history = self.allocation_history
        # Walk adjacent snapshots by index — no `history[1:] + [...]` copy of
        # the (potentially thousands-long) event list per call.
        for i, (t0, alloc) in enumerate(history):
            t1 = history[i + 1][0] if i + 1 < len(history) else self.makespan
            span = max(0.0, min(t1, self.makespan) - t0)
            busy += span * sum(alloc.values())
        return busy / (self.total_gpus * self.makespan)


class TrainingClusterProcess:
    """The elastic training cluster as a runtime process.

    Owns the job states of one trace and reacts to two event kinds on the
    shared queue:

    * ``arrival`` — one per job, posted up front at the spec's arrival time;
    * ``eta`` — the predicted completion of one running job under its
      current allocation and resize stall.

    Every event wake advances all running jobs to the wake time, admits any
    arrivals at that instant, retires completed jobs, reallocates through
    the pluggable :class:`Scheduler` when membership changed, and then
    re-validates every running job's ETA — cancelling and rescheduling the
    prediction when a resize (or the advance itself) moved it.

    A job enters the live map (``job_id -> JobState``, arrival order) when
    it arrives and leaves it when it finishes; the scheduler, the lease sync
    and completion walk that map.  The advance and the ETA refresh walk the
    step-rate map, which holds exactly the running jobs.  Finished jobs stay
    in :attr:`jobs` for the result and are never walked again.

    ``gpu_budget`` is the share of the pool the scheduler may hand out; a
    co-scheduler shrinks and restores it at runtime via :meth:`set_budget`
    to harvest devices for serving spikes.  Job allocations are mirrored
    into :class:`~repro.runtime.pool.DevicePool` leases (one per job) for
    audited device-second accounting.
    """

    def __init__(self, specs: Sequence[JobSpec], scheduler: Scheduler,
                 gpu_budget: int, pool: DevicePool,
                 resize_delay: float = 1.0, name: str = "train") -> None:
        if not specs:
            raise ValueError("no jobs in trace")
        ids = [s.job_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in trace")
        if gpu_budget < 0:
            raise ValueError("gpu_budget must be >= 0")
        self.name = name
        self.scheduler = scheduler
        self.gpu_budget = gpu_budget
        self.pool = pool
        self.resize_delay = resize_delay
        self.jobs: Dict[int, JobState] = {s.job_id: JobState(spec=s) for s in specs}
        self._live: Dict[int, JobState] = {}
        self.history: List[Tuple[float, Dict[int, int]]] = []
        self._arrivals = sorted(specs, key=lambda s: (s.arrival_time, s.job_id))
        self._next_arrival = 0
        self._stall_until: Dict[int, float] = {}
        # job_id -> steps/second of every running job, in arrival order.
        self._rates: Dict[int, float] = {}
        self._rate_cache: Dict[Tuple[int, int], float] = {}
        # job_id -> (predicted completion time, handle of its "eta" event)
        self._etas: Dict[int, Tuple[float, int]] = {}
        self._arrival_handles: Dict[int, int] = {}
        self._leases: Dict[int, DeviceLease] = {}
        self._lease_seconds: Dict[int, float] = {}
        self._time = 0.0
        self._queue: Optional[EventQueue] = None
        # Chaos wiring (all inert until configure_chaos is called): shared
        # degradation state, the recovery timing policy, per-job recovery
        # stalls (kept separate from resize stalls so the no-chaos stall
        # semantics — and the golden traces — are untouched), retry attempt
        # counters, and memoized *clean* step breakdowns for derating.
        self.conditions: Optional[ClusterConditions] = None
        self.recovery: Optional[RecoveryPolicy] = None
        self.recoveries: List[Tuple[float, int, int, str, float, int, float]] = []
        self._recover_until: Dict[int, float] = {}
        self._recover_attempt: Dict[int, int] = {}
        self._breakdowns: Dict[Tuple[int, int], StepTimeBreakdown] = {}
        self._chaos_interconnect = None

    # -- process protocol ----------------------------------------------------

    def start(self, runtime: Runtime) -> None:
        self._queue = runtime.queue
        # One bulk post for the whole trace's arrival wave: sequence
        # numbers are assigned exactly as a per-spec post loop would.
        handles = self._queue.post_many(
            [spec.arrival_time for spec in self._arrivals], self._wake,
            kind="arrival", actor=self.name)
        self._arrival_handles = {
            spec.job_id: handle
            for spec, handle in zip(self._arrivals, handles.tolist())}

    # -- queries -------------------------------------------------------------

    @property
    def time(self) -> float:
        return self._time

    def unfinished(self) -> List[JobState]:
        return [j for j in self.jobs.values() if j.status != JobStatus.FINISHED]

    def _rate(self, job_id: int, job: JobState) -> float:
        """Steps/second at the job's current allocation (memoized: the rate
        is a pure function of (spec, gpus) under a fixed perf model).

        Under active chaos conditions the clean rate is derated through the
        memoized step breakdown: the lease's bottleneck straggler slows the
        on-device components, a network window inflates the all-reduce.  With
        no active degradation the memoized clean rate is returned unchanged.
        """
        key = (job_id, job.gpus)
        rate = self._rate_cache.get(key)
        if rate is None:
            rate = job.spec.throughput_steps(job.gpus, _PERF)
            self._rate_cache[key] = rate
        conditions = self.conditions
        if conditions is not None and conditions.degraded:
            lease = self._leases.get(job_id)
            ids = lease.device_ids if lease is not None else ()
            speed = conditions.bottleneck_speed(ids)
            network = conditions.network_factor
            if speed != 1.0 or network != 1.0:
                bd = self._breakdowns.get(key)
                if bd is None:
                    bd = job.spec.step_breakdown(job.gpus, _PERF)
                    self._breakdowns[key] = bd
                return 1.0 / bd.degraded_total(conditions, ids)
        return rate

    def _rerate(self) -> None:
        """Re-price every running job, in arrival order."""
        self._rates = {job_id: self._rate(job_id, job)
                       for job_id, job in self._live.items()
                       if job.status == JobStatus.RUNNING}

    # -- the event wake ------------------------------------------------------

    def _wake(self, t: float) -> Dict[str, object]:
        if t > MAX_TIME:
            raise RuntimeError(f"simulation exceeded MAX_TIME={MAX_TIME}")
        self.advance_to(t)
        arrived = self._drain_arrivals(t)
        completed = self._complete(t)
        data: Dict[str, object] = {}
        if arrived or completed:
            self._reallocate(t)
            data["allocation"] = self.history[-1][1]
            if arrived:
                data["arrived"] = arrived
            if completed:
                data["completed"] = completed
        self._refresh_etas(t)
        return data

    def _stall_for(self, job_id: int, default: float) -> float:
        """The instant the job resumes progress: the later of its resize
        stall and its crash-recovery stall.  With no chaos the recovery map
        is empty and this is exactly the pre-chaos resize-stall lookup."""
        stall = self._stall_until.get(job_id, default)
        recover = self._recover_until.get(job_id)
        if recover is not None and recover > stall:
            return recover
        return stall

    def advance_to(self, t: float) -> None:
        """Progress every running job from the last event time to ``t``."""
        live = self._live
        for job_id, rate in self._rates.items():
            job = live[job_id]
            start = max(self._time, self._stall_for(job_id, self._time))
            span = max(0.0, t - start)
            job.steps_done = min(job.spec.total_steps,
                                 job.steps_done + span * rate)
        self._time = t

    def _drain_arrivals(self, t: float) -> List[int]:
        admitted: List[int] = []
        while (self._next_arrival < len(self._arrivals)
               and self._arrivals[self._next_arrival].arrival_time <= t + _EPS):
            job_id = self._arrivals[self._next_arrival].job_id
            self._live[job_id] = self.jobs[job_id]
            # The arrival was absorbed by this wake; its own event (the same
            # instant, or within EPS) must not fire a second time.
            self._queue.cancel_handle(self._arrival_handles.pop(job_id))
            self._next_arrival += 1
            admitted.append(job_id)
        return admitted

    def _complete(self, t: float) -> List[int]:
        finished: List[int] = []
        for job_id, job in self._live.items():
            if (job.status == JobStatus.RUNNING
                    and job.remaining_steps <= _EPS * max(1, job.spec.total_steps)):
                job.steps_done = job.spec.total_steps
                job.finish_time = t
                job.status = JobStatus.FINISHED
                job.allocation_log.append((t, 0))
                job.gpus = 0
                self._rates.pop(job_id, None)
                eta = self._etas.pop(job_id, None)
                if eta is not None:
                    self._queue.cancel_handle(eta[1])
                lease = self._leases.pop(job_id, None)
                if lease is not None:
                    self._lease_seconds[job_id] = self.pool.release(lease, t)
                finished.append(job_id)
        for job_id in finished:
            del self._live[job_id]
        return finished

    def _reallocate(self, now: float) -> None:
        live = self._live
        running = [j for j in live.values() if j.status == JobStatus.RUNNING]
        queued = [j for j in live.values() if j.status == JobStatus.QUEUED]
        target = self.scheduler.allocate(now, self.gpu_budget, running, queued)
        used = sum(target.values())
        if used > self.gpu_budget:
            raise RuntimeError(
                f"{self.scheduler.name} over-allocated {used} of "
                f"{self.gpu_budget} GPUs at t={now:.1f}"
            )
        for job_id, job in live.items():
            new_gpus = target.get(job_id, 0)
            if new_gpus != job.gpus:
                was_running = job.gpus > 0
                job.set_allocation(now, new_gpus)
                if was_running and new_gpus > 0 and self.scheduler.elastic:
                    self._stall_until[job_id] = now + self.resize_delay
        # Leases sync before rates: under chaos a job's rate depends on
        # which devices its lease holds (straggler bottleneck), so the rate
        # must see the post-resize membership.  Without chaos _rate is a
        # pure function of (spec, gpus) and the order is immaterial.
        self._sync_leases(now)
        self._rerate()
        self.history.append((now, {job_id: live[job_id].gpus
                                   for job_id in self._rates}))

    def _sync_leases(self, now: float) -> None:
        """Mirror the new allocation into pool leases, shrinks before grows
        so a rebalance never transiently over-draws the pool."""
        leases = self._leases
        for job_id, job in self._live.items():
            lease = leases.get(job_id)
            if lease is not None and job.gpus < lease.size:
                self.pool.resize(lease, job.gpus, now)
        for job_id, job in self._live.items():
            lease = leases.get(job_id)
            if lease is None:
                if job.gpus > 0:
                    leases[job_id] = self.pool.acquire(
                        f"{self.name}/job-{job_id}", job.gpus, now)
            elif job.gpus > lease.size:
                self.pool.resize(lease, job.gpus, now)

    def _refresh_etas(self, t: float) -> None:
        """Re-validate every running job's completion prediction.

        A prediction is recomputed from the freshly advanced progress; the
        queued ETA event survives only if it still matches exactly —
        otherwise it is invalidated (cancelled in place) and rescheduled.
        Reallocations move predictions wholesale; even without one, the
        advance's floating-point accumulation can drift a prediction by an
        ulp, and the golden traces pin the recomputed value.
        """
        queue = self._queue
        live = self._live
        for job_id, rate in self._rates.items():
            start = max(t, self._stall_for(job_id, t))
            eta = start + live[job_id].remaining_steps / rate
            old = self._etas.get(job_id)
            if old is not None:
                old_eta, handle = old
                if old_eta == eta and queue.handle_alive(handle):
                    continue
                queue.cancel_handle(handle)
            self._etas[job_id] = (
                eta, queue.post(eta, self._wake, kind="eta", actor=self.name))

    # -- co-scheduling hooks -------------------------------------------------

    def set_budget(self, now: float, budget: int) -> None:
        """Change the scheduler's GPU budget mid-run (harvest / restore).

        Advances jobs to ``now`` first so the reallocation, its §4.1 resize
        stalls, and the lease accounting all land on the current instant.
        """
        if budget < 0:
            raise ValueError("gpu_budget must be >= 0")
        if budget == self.gpu_budget:
            return
        self.advance_to(now)
        self.gpu_budget = budget
        self._complete(now)
        self._reallocate(now)
        self._refresh_etas(now)

    # -- chaos hooks ---------------------------------------------------------

    def configure_chaos(self, conditions: ClusterConditions,
                        recovery: Optional[RecoveryPolicy] = None) -> None:
        """Wire shared degradation state and a recovery timing policy in.

        Called once by the chaos installer before the runtime starts; until
        then every chaos path in this class is inert.
        """
        self.conditions = conditions
        self.recovery = recovery or RecoveryPolicy()
        self._chaos_interconnect = DegradedInterconnect(
            _PERF.interconnect, conditions)

    def on_conditions_changed(self, now: float) -> None:
        """Re-rate every running job after a straggler or network change."""
        self.advance_to(now)
        self._rerate()
        self._refresh_etas(now)

    def on_device_failed(self, now: float, device_id: int,
                         lease: DeviceLease) -> None:
        """React to a crash that force-revoked ``device_id`` from one of our
        job leases: mirror the shrink into the job's allocation and stall it
        for the recovery priced by the policy (migrate vs checkpoint).

        The chaos controller follows up with a budget repair (the healthy
        capacity dropped), which triggers a full reallocation — so this
        method only has to make the crashed job's own state consistent.
        """
        job_id = next(
            (jid for jid, held in self._leases.items() if held is lease), None)
        if job_id is None:
            return  # lease was released at this same instant (job finished)
        self.advance_to(now)
        job = self._live[job_id]
        job.set_allocation(now, lease.size)
        self._recover(now, job, device_id, lease)
        if job.gpus == 0:
            eta = self._etas.pop(job_id, None)
            if eta is not None:
                self._queue.cancel_handle(eta[1])
        self._rerate()
        self._refresh_etas(now)

    def _recover(self, now: float, job: JobState, device_id: int,
                 lease: DeviceLease) -> None:
        """Price the recovery and stall the job; escalate on pile-ups.

        A crash landing while the job is still recovering from the last one
        counts as a retry and pays exponential backoff on top; after
        ``max_retries`` piled-up attempts (or under the checkpoint-baseline
        policy) the job rolls back to its last checkpoint boundary instead.
        """
        policy = self.recovery or RecoveryPolicy()
        jid = job.job_id
        recovering = now < self._recover_until.get(jid, 0.0)
        attempt = self._recover_attempt.get(jid, 0) + 1 if recovering else 0
        self._recover_attempt[jid] = attempt
        survivors = max(1, lease.size)
        lost = 0.0
        if policy.mode == "checkpoint" or attempt > policy.max_retries:
            mode = "checkpoint"
            stall = policy.checkpoint_stall()
            rolled = policy.rollback_steps(job.steps_done)
            lost = job.steps_done - rolled
            job.steps_done = rolled
        else:
            mode = "migrate"
            param_bytes = get_workload(job.spec.workload).footprint.param_bytes
            interconnect = self._chaos_interconnect or _PERF.interconnect
            stall = policy.migration_stall(param_bytes, survivors, interconnect)
        stall += policy.backoff(attempt)
        until = now + stall
        self._recover_until[jid] = max(self._recover_until.get(jid, 0.0), until)
        self.recoveries.append((now, jid, device_id, mode, stall, attempt, lost))

    def device_seconds(self) -> Dict[int, float]:
        """Per-job device-seconds accrued by the pool's lease accounting."""
        out = dict(self._lease_seconds)
        for job_id, lease in self._leases.items():
            out[job_id] = lease.device_seconds
        return out

    # -- results -------------------------------------------------------------

    def result(self, total_gpus: Optional[int] = None) -> SimulationResult:
        makespan = max((j.finish_time or 0.0) for j in self.jobs.values())
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            total_gpus=total_gpus if total_gpus is not None else self.gpu_budget,
            jobs=self.jobs,
            makespan=makespan,
            allocation_history=self.history,
            device_seconds=self.device_seconds(),
        )


class ClusterSimulator:
    """Simulates a trace of jobs on a homogeneous GPU cluster."""

    def __init__(self, total_gpus: int, scheduler: Scheduler) -> None:
        if total_gpus < 1:
            raise ValueError("total_gpus must be >= 1")
        self.total_gpus = total_gpus
        self.scheduler = scheduler

    def run(self, specs: Sequence[JobSpec],
            trace: Optional[Union[str, EventTrace]] = None) -> SimulationResult:
        """Simulate until all jobs finish (a wake past :data:`MAX_TIME`
        raises).

        ``trace`` (a path or an :class:`EventTrace`) journals the event
        timeline as JSONL — the ``--trace-out`` export.
        """
        process = TrainingClusterProcess(
            specs, self.scheduler, gpu_budget=self.total_gpus,
            pool=DevicePool(self.total_gpus))
        with open_trace(trace) as writer:
            runtime = Runtime(trace=writer)
            runtime.add(process)
            runtime.run()
        if process.unfinished():
            raise RuntimeError(
                f"deadlock at t={process.time:.1f}: jobs queued but nothing "
                f"running and no arrivals pending"
            )
        return process.result(total_gpus=self.total_gpus)
