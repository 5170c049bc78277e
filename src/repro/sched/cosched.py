"""Co-scheduled training + serving on one shared device pool.

The paper's elasticity story culminates here: virtual nodes decouple both a
training job *and* a serving deployment from their hardware, so one pool can
host both tenants and move devices between them at runtime.  The
:class:`CoScheduler` mediates a single :class:`~repro.runtime.pool.
DevicePool` between an elastic :class:`~repro.elastic.simulator.
TrainingClusterProcess` and a :class:`~repro.serving.router.RequestRouter`
running on the same :class:`~repro.runtime.core.Runtime`:

* when a serving spike drives the autoscaler's target above the free
  devices, the co-scheduler **harvests** from training — it shrinks the
  training side's GPU budget (the WFS scheduler downsizes jobs, paying the
  §4.1 resize stall) so the router's lease can grow (paying the §4.1
  all-gather to its joining devices);
* when the p99 recovers and the router sheds devices, a synchronous
  **reclaim** right after the lease shrinks restores the training budget
  (jobs grow back, again paying the resize stall).

The invariant is simple and auditable: ``training budget = pool capacity -
devices the router holds`` (bounded below by ``train_floor``).  Both sides'
device-seconds come from the pool's lease accounting, so the harvest
frontier benchmark can price exactly what each tenant held and when.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.chaos import (ChaosController, ChaosProcess,
                         FailureDomainTopology, FaultPlan)
from repro.core.fault_tolerance import RecoveryPolicy
from repro.elastic.jobs import JobSpec, JobState
from repro.elastic.simulator import TrainingClusterProcess
from repro.elastic.trace import ServingPhase
from repro.elastic.wfs import ElasticWFSScheduler
from repro.hardware.cluster import Cluster
from repro.hardware.perfmodel import ClusterConditions
from repro.runtime import (
    DeviceLease,
    DevicePool,
    EventTrace,
    Runtime,
    open_trace,
)
from repro.serving.batcher import AdmissionPolicy
from repro.serving.generators import RequestSource
from repro.serving.router import ServingReport, _build_router

__all__ = ["CoScheduler", "CoschedReport", "resident_training_jobs",
           "run_cosched"]


class CoScheduler:
    """Arbitrates one device pool between training and serving tenants.

    Installed on the router's rescale path twice: :meth:`grant` (the
    ``governor``) caps every autoscaler request at the pool floor and
    harvests training devices *before* a grow, so the free devices exist
    when the router resizes its lease; :meth:`notify_rescaled` (the
    ``on_rescaled`` hook) runs synchronously after the lease actually
    moved and restores the invariant ``training budget = healthy pool
    capacity - serving devices`` — after a shrink the released devices
    are free by then, and because the call is synchronous no reclaim can
    be lost to the runtime stopping at the same instant.  Budget moves
    are recorded in :attr:`harvests`.

    Under chaos the arbitrated quantity is the pool's *healthy* capacity
    (quarantined devices belong to nobody): the chaos controller calls
    :meth:`on_capacity_changed` after every crash/revive, which is also
    where a checkpoint restore racing a serving spike gets arbitrated —
    the serving lease keeps what the governor granted it and training
    absorbs the entire capacity loss, down to zero if need be.
    """

    def __init__(self, pool: DevicePool, training: TrainingClusterProcess,
                 serving_lease: DeviceLease,
                 train_floor: int = 0, name: str = "cosched",
                 conditions: Optional[ClusterConditions] = None) -> None:
        if not 0 <= train_floor < pool.capacity:
            raise ValueError(
                f"train_floor must be in [0, {pool.capacity}), got {train_floor}")
        self.pool = pool
        self.training = training
        self.serving_lease = serving_lease
        self.train_floor = train_floor
        self.name = name
        # When wired, derates scale the arbitrated capacity: four devices at
        # 0.5x sustain two devices' worth of work, and the budget says so.
        self.conditions = conditions
        # (time, training budget before, training budget after)
        self.harvests: List[Tuple[float, int, int]] = []

    def _effective_healthy(self) -> int:
        """Healthy capacity discounted by sustained derates (whole devices).

        Without conditions (or with none derated) this is exactly
        ``pool.healthy_capacity`` — ``effective_capacity`` sums 1.0s to an
        exact integer — so clean and pre-derate runs arbitrate identically.
        """
        if self.conditions is None:
            return self.pool.healthy_capacity
        failed = set(self.pool.failed_ids)
        healthy_ids = [d for d in self.pool.device_ids if d not in failed]
        # floor(): budget is whole devices; the epsilon forgives float dust
        # from derate sums like 0.7 + 0.3.
        return int(self.conditions.effective_capacity(healthy_ids) + 1e-9)

    def _set_budget(self, now: float, after: int) -> None:
        before = self.training.gpu_budget
        if after != before:
            self.training.set_budget(now, after)
            self.harvests.append((now, before, after))

    def grant(self, now: float, target: int) -> int:
        """Decide how many devices the router's rescale may actually take."""
        healthy = self.pool.healthy_capacity
        # With every device healthy this is the old capacity - train_floor
        # cap; under failures serving is still guaranteed one device so the
        # router never starves outright while quarantined devices sit idle.
        granted = max(0, min(target, max(1, healthy - self.train_floor)))
        if granted > self.serving_lease.size:
            # Harvest first: the router resizes its lease right after this
            # returns, and the devices must already be free.
            self._set_budget(now, max(0, healthy - granted))
        return granted

    def notify_rescaled(self, now: float) -> None:
        """Re-establish the budget invariant after the lease moved."""
        self.on_capacity_changed(now)

    def on_capacity_changed(self, now: float) -> None:
        """Re-arbitrate after the lease moved or healthy capacity changed.

        Training gets everything the router does not hold, measured against
        *healthy* capacity — a crash on either tenant shrinks the training
        budget (the serving lease has already shed the dead device by the
        time the chaos controller calls this), and a revive hands the
        returning device to training unless the router re-grows first.
        Sustained derates discount the arbitrated capacity (see
        :meth:`_effective_healthy`), so an ECC-throttled fleet stops
        promising training devices-worth of throughput it cannot deliver.
        """
        self._set_budget(
            now,
            max(0, self._effective_healthy() - self.serving_lease.size))


@dataclass
class CoschedReport:
    """Everything one co-scheduled run produced, for the harvest frontier."""

    serving: ServingReport
    jobs: Dict[int, JobState]
    duration: float
    pool_devices: int
    train_floor: int
    harvests: List[Tuple[float, int, int]] = field(default_factory=list)
    train_device_seconds: Dict[int, float] = field(default_factory=dict)
    events_processed: int = 0
    # ChaosController.stats() digest when a fault plan was injected.
    chaos: Optional[Dict[str, object]] = None

    @property
    def train_steps(self) -> float:
        """Total training steps completed across all jobs."""
        return sum(j.steps_done for j in self.jobs.values())

    def train_goodput(self) -> float:
        """Training steps per simulated second over the run."""
        return self.train_steps / self.duration if self.duration > 0 else 0.0

    def train_avg_devices(self) -> float:
        total = sum(self.train_device_seconds.values())
        return total / self.duration if self.duration > 0 else 0.0

    def summary(self, slo_p99: Optional[float] = None) -> Dict[str, float]:
        out = {f"serving_{k}": v
               for k, v in self.serving.summary(slo_p99=slo_p99).items()}
        out.update({
            "pool_devices": float(self.pool_devices),
            "duration_s": self.duration,
            "train_steps": self.train_steps,
            "train_goodput_sps": self.train_goodput(),
            "train_avg_devices": self.train_avg_devices(),
            "harvests": float(len(self.harvests)),
        })
        if self.chaos is not None:
            out.update({
                "chaos_crashes": float(self.chaos.get("crashes", 0)),
                "chaos_straggler_windows": float(
                    self.chaos.get("straggler_windows", 0)),
                "chaos_network_windows": float(
                    self.chaos.get("network_windows", 0)),
                "chaos_derate_events": float(
                    self.chaos.get("derate_events", 0)),
                "chaos_requeued_requests": float(
                    self.chaos.get("requeued_requests", 0)),
                "chaos_checkpoint_restores": float(
                    self.chaos.get("checkpoint_restores", 0)),
            })
        return out


def resident_training_jobs(num_jobs: int, demand_gpus: int = 4,
                           workload: str = "resnet56_cifar10",
                           global_batch_size: int = 64,
                           vn_per_gpu: int = 2,
                           total_steps: int = 10_000_000,
                           priority: float = 1.0) -> List[JobSpec]:
    """Long-running training tenants for a co-scheduled pool.

    All jobs arrive at t=0 with a step budget far beyond the serving trace,
    so the measured quantity is pure goodput (steps completed while sharing
    the pool), not completion effects.
    """
    if num_jobs < 1:
        raise ValueError(f"num_jobs must be >= 1, got {num_jobs}")
    total_vns = demand_gpus * vn_per_gpu
    if global_batch_size % total_vns:
        raise ValueError(
            f"global_batch_size {global_batch_size} must divide across "
            f"{total_vns} virtual nodes")
    return [
        JobSpec(job_id=i, workload=workload,
                global_batch_size=global_batch_size,
                total_virtual_nodes=total_vns, demand_gpus=demand_gpus,
                total_steps=total_steps, priority=priority, arrival_time=0.0)
        for i in range(num_jobs)
    ]


def run_cosched(workload_name: str, phases: Sequence[ServingPhase],
                train_specs: Sequence[JobSpec], *,
                pool_devices: int = 8, device_type: str = "V100",
                max_batch: int = 16, max_wait: float = 0.002,
                virtual_nodes: Optional[int] = None,
                initial_serving: int = 1,
                autoscale: bool = True, slo_p99: Optional[float] = None,
                train_floor: int = 0, resize_delay: float = 0.5,
                seed: int = 0,
                limit: Optional[int] = None,
                source: Optional[RequestSource] = None,
                trace: Optional[Union[str, EventTrace]] = None,
                fault_plan: Optional[FaultPlan] = None,
                recovery: Optional[RecoveryPolicy] = None,
                retry_delay: float = 0.05,
                admission: Optional[AdmissionPolicy] = None,
                topology: Optional["FailureDomainTopology"] = None,
                tenants: Optional["TenantRegistry"] = None,
                journal: Optional[Union[str, EventTrace]] = None,
                dispatcher: str = "wfq",
                ) -> CoschedReport:
    """Run elastic training jobs and a serving router on one shared pool.

    The serving side mirrors :func:`~repro.serving.router.serve_workload`
    (same workload/source/autoscaler construction); the training side is a
    :class:`TrainingClusterProcess` whose GPU budget starts at
    ``pool_devices - initial_serving`` and moves with every harvest/reclaim.
    The run ends when the serving source drains; training progress is
    settled at that instant.

    With a ``fault_plan``, a :class:`~repro.chaos.ChaosProcess` injects the
    plan's crash/straggler/network events as ordinary runtime events:
    training recovers per ``recovery`` (default migrate-mode
    :class:`RecoveryPolicy`), the router re-admits requests from failed
    devices after ``retry_delay``, and the co-scheduler re-arbitrates the
    healthy capacity after every crash/revive.  Without one, every chaos
    hook is a bit-exact no-op.

    A ``topology`` declares the failure-domain tree on the pool and cluster
    (the fault plan's correlated wipes must have been drawn against the
    same tree); an ``admission`` policy arms the router's load-shedding /
    brownout path so overload degrades the shed rate instead of the p99.

    A ``tenants`` registry makes the router serve tenants (WFQ/FIFO per
    ``dispatcher``, optional ``journal``), splitting the serving phase
    trace across tenants by their load shares — co-scheduled training
    harvest and tenant fairness then compose on the same pool.
    """
    if pool_devices < 2:
        raise ValueError(
            f"co-scheduling needs at least 2 pool devices, got {pool_devices}")
    if not 1 <= initial_serving <= pool_devices - train_floor:
        raise ValueError(
            f"initial_serving must be in [1, {pool_devices - train_floor}], "
            f"got {initial_serving}")
    if not train_specs:
        raise ValueError("co-scheduling without training jobs is just serving"
                         " — use serve_workload")

    dpool = DevicePool(pool_devices, topology=topology)
    cluster = Cluster.homogeneous(device_type, pool_devices,
                                  topology=topology)

    # Serving tenant: the stack serve_workload builds, on the initial lease,
    # its autoscaler capped at what the governor can actually grant.
    serving_lease = dpool.acquire("router", initial_serving, 0.0)
    router = _build_router(
        workload_name, cluster, serving_lease.device_ids, phases,
        virtual_nodes=virtual_nodes, grantable=pool_devices - train_floor,
        max_batch=max_batch, max_wait=max_wait, autoscale=autoscale,
        slo_p99=slo_p99, seed=seed, limit=limit, source=source,
        admission=admission, tenants=tenants, journal=journal,
        dispatcher=dispatcher, name="router")

    # Training tenant: everything the router does not hold.
    training = TrainingClusterProcess(
        train_specs, ElasticWFSScheduler(),
        gpu_budget=pool_devices - initial_serving, pool=dpool,
        resize_delay=resize_delay)
    conditions = ClusterConditions() if fault_plan is not None else None
    cosched = CoScheduler(dpool, training, serving_lease,
                          train_floor=train_floor, conditions=conditions)

    controller: Optional[ChaosController] = None
    if fault_plan is not None:
        controller = ChaosController(dpool, conditions, training=training,
                                     router=router, cosched=cosched)
        training.configure_chaos(conditions, recovery)
        # A static (non-autoscaled) deployment wants its pinned size back
        # after a crash; an autoscaled one re-grows on its own signal.
        router.configure_chaos(
            conditions, retry_delay=retry_delay,
            restore_target=None if autoscale else initial_serving)

    with open_trace(trace) as writer:
        runtime = Runtime(trace=writer)
        router.bind(runtime, device_pool=dpool, lease=serving_lease,
                    governor=cosched.grant if autoscale else None,
                    on_rescaled=cosched.notify_rescaled if autoscale else None,
                    on_drain=lambda t: runtime.stop())
        runtime.add(training)
        runtime.add(router)
        if fault_plan is not None:
            runtime.add(ChaosProcess(fault_plan, controller))
        try:
            runtime.run()
            router.forward_completed()  # the router may never have drained
        finally:
            # Crash-safe journal durability on the shared-runtime path.
            router.close_journal()

    end = max(router.report.duration, runtime.now)
    training.advance_to(end)
    dpool.settle(end)
    dpool.audit()
    return CoschedReport(
        serving=router.report,
        jobs=training.jobs,
        duration=end,
        pool_devices=pool_devices,
        train_floor=train_floor,
        harvests=list(cosched.harvests),
        train_device_seconds=training.device_seconds(),
        events_processed=runtime.events_processed,
        chaos=controller.stats() if controller is not None else None,
    )
