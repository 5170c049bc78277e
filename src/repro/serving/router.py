"""The dynamic micro-batching request router.

This is the online serving driver the paper's "each step of training or
inference" clause points at: a discrete-event loop that admits a stream of
single-example requests, coalesces them into micro-batches under a
:class:`~repro.serving.batcher.MicroBatchPolicy`, dispatches each batch on
the shared :class:`~repro.core.inference.InferenceEngine`, and accounts
per-request queueing + service latency on the simulated clock the engine's
validated plan prices.  Dispatch only prices a batch; its numbers are
computed after it completes, together with other completed batches
(:meth:`RequestRouter.forward_completed`: one stacked pass per
``_FORWARD_ROWS`` requests and one at the end of the run), bit-identical
to a one-shot batch of the same examples.  A batch a crash cancels is
never forwarded.

Elasticity closes the loop: with a :class:`~repro.serving.autoscaler.
LatencyAutoscaler` attached, the router remaps the virtual-node→device
assignment over a device pool after any micro-batch whose completion trips
the scaler — more devices means fewer sequential waves per batch, so the
p99 rides a load spike down without changing a single logit (results are
mapping-invariant by construction).  Remaps are charged the same §4.1
all-gather cost model training resizes pay (parameters to joining devices).

Time model: one serving pipeline — micro-batches execute sequentially, each
taking the bottleneck device's forward waves; arrivals keep queueing while
the pipeline is busy.  All times are simulated seconds.

The router runs as a process on the shared discrete-event runtime
(:mod:`repro.runtime`): admission wakes, batch dispatches, completions, and
rescales are events on the same heap-ordered queue the elastic training
simulator uses, and the devices the autoscaler steers are held as a
:class:`~repro.runtime.pool.DevicePool` lease — the pool owns the audited
device-second accounting, and a co-scheduler can grow the lease out of a
training job's harvest during a spike.

Every arrival enters through one door, :meth:`RequestRouter._pull`: the
source hands over an :class:`~repro.serving.generators.ArrivalWave` (one
arrival or ten thousand; open- and closed-loop sources alike), and with an
admission policy armed the shed rule in :mod:`repro.serving.admission`
splits it into requests to queue and sheds to record.  Every completed
micro-batch leaves as one :class:`~repro.serving.request.RecordBlock`, the
columns the source, the autoscaler and the report all read.  Given a
tenant registry, the router also orders dispatch by the tenants' weights,
meters each wave on their quotas in front of the same rule, admits
eagerly, and hands its shed blocks, completions and report to a
:class:`~repro.serving.gateway.TenantAccounting` stage (per-tenant digests
and the request journal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.engine import VirtualNodeEngine
from repro.core.inference import InferenceEngine
from repro.core.mapping import Mapping, migration_time
from repro.core.plan import PlanValidationError
from repro.core.sharding import shard_sizes
from repro.core.virtual_node import VirtualNodeSet
# Called through its module, so that a patch of the function reaches
# this module whenever it loads (see repro._lazy).
from repro.data import datasets
from repro.elastic.trace import ServingPhase
from repro.framework.models import Workload, get_workload
from repro.hardware.cluster import Cluster
from repro.hardware.interconnect import DegradedInterconnect
from repro.hardware.perfmodel import PerfModel
from repro.runtime import (
    DeviceLease,
    DevicePool,
    EventQueue,
    EventTrace,
    Runtime,
    open_trace,
)
from repro.serving.batcher import AdmissionPolicy, DispatchQueue, MicroBatchPolicy
from repro.serving.gateway import (
    DISPATCHERS,
    MultiTenantPoissonSource,
    TenantAccounting,
)
from repro.serving.generators import OpenLoopPoissonSource, RequestSource
from repro.serving.request import BatchRecord, BlockLog, RecordBlock, ShedBlock
from repro.serving.tenancy import TenantRegistry, meter, split_phases
from repro.telemetry import percentile

if TYPE_CHECKING:
    from repro.serving.autoscaler import AllocationProfile, LatencyAutoscaler

__all__ = ["RequestRouter", "ServingReport", "capacity_table",
           "ladder_capacity", "serve_workload"]

# Completed requests that wait for their numeric forward before it runs:
# enough that a pass is a few stacked ops per layer, few enough that its
# activations stay small.
_FORWARD_ROWS = 512


def capacity_table(workload: Workload, vn_set: VirtualNodeSet, pool: Cluster,
                   max_batch: int,
                   perf: Optional[PerfModel] = None,
                   ) -> Dict[int, AllocationProfile]:
    """Model-priced serving profile per allocation size.

    For every prefix of the pool that can hold a validated plan, price one
    *full* micro-batch through the same engine latency query the router's
    dispatches use.  Full batches are the right operating point for both
    numbers: near saturation the queue keeps every dispatch filled, so
    ``capacity_rps`` is the throughput the allocation actually degrades at,
    and ``full_batch_latency`` is the service time a Poisson burst pays
    there.  Allocations whose plan fails validation (a wave no longer fits
    in device memory) are simply absent — the autoscaler never proposes
    them.
    """
    from repro.serving.autoscaler import AllocationProfile  # autoscaling only
    ids = sorted(d.device_id for d in pool.devices)
    sizes = shard_sizes(vn_set, max_batch)
    profiles: Dict[int, AllocationProfile] = {}
    for k in range(1, min(len(ids), vn_set.num_nodes) + 1):
        try:
            mapping = Mapping.even(vn_set, pool.subset(ids[:k]))
            engine = VirtualNodeEngine(workload, mapping, perf=perf)
        except PlanValidationError:
            continue
        latency, _ = engine.inference_latency(sizes)
        if latency > 0:
            profiles[k] = AllocationProfile(
                devices=k, capacity_rps=max_batch / latency,
                full_batch_latency=latency)
    return profiles


def ladder_capacity(workload: Workload, vn_set: VirtualNodeSet, pool: Cluster,
                    max_batch: int, start: int,
                    extra_rungs: Sequence[int] = (),
                    ) -> Dict[int, AllocationProfile]:
    """The autoscaler's candidate allocations: a power-of-two ladder.

    Always includes the full pool and the starting allocation.  ~2x
    capacity steps dwarf both the rate-estimator noise and the hysteresis
    band, which is what keeps the scaler from flapping between adjacent
    allocations that straddle the offered load.  Shared by standalone
    serving (:func:`serve_workload`) and co-scheduled serving
    (:func:`repro.sched.cosched.run_cosched`) so the two autoscalers always
    steer over the same rungs; ``extra_rungs`` adds policy-specific
    allocations (the co-scheduler's grantable maximum, which a tenancy
    floor can push off the power-of-two grid).

    Rungs that add no modeled capacity over the next-smaller retained rung
    are dropped: wave quantization makes some device counts equivalent
    (8 virtual nodes run 2 waves on 4 devices *and* on 6), and a candidate
    that cannot serve any faster is never worth escalating to — it would
    only harvest devices for nothing.
    """
    pool_devices = len(pool.devices)
    ladder = {1 << i for i in range(pool_devices.bit_length())}
    ladder |= {pool_devices, start, *extra_rungs}
    profiles = capacity_table(workload, vn_set, pool, max_batch)
    out: Dict[int, AllocationProfile] = {}
    best = 0.0
    for k in sorted(ladder):
        profile = profiles.get(k)
        if profile is not None and profile.capacity_rps > best:
            out[k] = profile
            best = profile.capacity_rps
    return out


@dataclass
class ServingReport:
    """Everything a serving run produced, for SLO metrics and dashboards.

    ``records``, ``shed`` and (with tenants) ``tenant_shed`` are read-only
    views over column blocks, one per micro-batch or shedding pull, that
    build a :class:`RequestRecord` or a tuple only when one is read.
    """

    records: BlockLog = field(default_factory=BlockLog)
    batches: List[BatchRecord] = field(default_factory=list)
    scaling_events: List[Tuple[float, int, int, float]] = field(default_factory=list)
    device_seconds: float = 0.0
    duration: float = 0.0
    final_devices: int = 0
    # request_id -> logits row, populated only when the router collects them.
    logits: Dict[int, np.ndarray] = field(default_factory=dict)
    # Injected serving-device crashes: (time, device_id, requests requeued).
    failures: List[Tuple[float, int, int]] = field(default_factory=list)
    # Load-shed arrivals: (arrival_time, request_id, reason), the reason
    # naming the gate that tripped (see repro.serving.admission.decide).
    # Empty unless an AdmissionPolicy is armed and tripped.
    shed: BlockLog = field(default_factory=lambda: BlockLog(ShedBlock.rows))
    # Batches dispatched under the halved brownout policy.
    brownout_batches: int = 0
    # Tenant-serving runs only: per-tenant SLO digests keyed by tenant id
    # (see repro.serving.gateway.TenantAccounting) and tenant-attributed
    # sheds as (arrival_time, request_id, tenant, reason) 4-tuples — the
    # shed log read with tenants.  Both stay empty without a registry.
    tenants: Dict[str, Dict[str, float]] = field(default_factory=dict)
    tenant_shed: Sequence[Tuple[float, int, str, str]] = field(default_factory=list)

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every record's arrival, dispatch and completion time: their
        differences are bit for bit the records' own.  ``batches`` and the
        record blocks are appended together, one per completed batch."""
        batches = self.batches
        sizes = [b.size for b in batches]
        arrivals = np.array(
            [a for b in self.records.blocks for a in b.arrivals], float)
        dispatch = np.repeat(
            np.array([b.dispatch_time for b in batches], float), sizes)
        completion = np.repeat(
            np.array([b.completion_time for b in batches], float), sizes)
        return arrivals, dispatch, completion

    def latencies(self) -> np.ndarray:
        arrivals, _, completion = self._columns()
        return completion - arrivals

    def percentile(self, q: float) -> float:
        return percentile(self.latencies(), q)

    def slo_attainment(self, slo: float) -> float:
        """Fraction of requests that met the latency objective."""
        if not self.records:
            raise ValueError("no completed requests")
        return float((self.latencies() <= slo).mean())

    def throughput(self) -> float:
        """Completed requests per simulated second."""
        return len(self.records) / self.duration if self.duration > 0 else 0.0

    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return float(np.mean([b.size for b in self.batches]))

    def avg_devices(self) -> float:
        """Time-averaged devices held — the cost side of the SLO frontier."""
        return self.device_seconds / self.duration if self.duration > 0 else 0.0

    def shed_rate(self) -> float:
        """Fraction of offered requests shed at the door."""
        offered = len(self.records) + len(self.shed)
        return len(self.shed) / offered if offered else 0.0

    def summary(self, slo_p99: Optional[float] = None) -> Dict[str, float]:
        """A flat JSON-able digest of the run (all-zero for an empty run)."""
        arrivals, dispatch, completion = self._columns()
        lat = completion - arrivals
        served = len(lat)
        p99 = percentile(lat, 99) if served else 0.0
        out = {
            "requests": float(served),
            "batches": float(len(self.batches)),
            "duration_s": self.duration,
            "throughput_rps": self.throughput(),
            "mean_batch_size": self.mean_batch_size(),
            "latency_p50_ms": percentile(lat, 50) * 1e3 if served else 0.0,
            "latency_p99_ms": p99 * 1e3,
            "latency_max_ms": float(lat.max()) * 1e3 if served else 0.0,
            "mean_queue_delay_ms":
                float(np.mean(dispatch - arrivals)) * 1e3 if served else 0.0,
            "mean_service_ms":
                float(np.mean(completion - dispatch)) * 1e3 if served else 0.0,
            "avg_devices": self.avg_devices(),
            "remaps": float(len(self.scaling_events)),
            "offered": float(served + len(self.shed)),
            "shed_requests": float(len(self.shed)),
            "shed_rate": self.shed_rate(),
            "brownout_batches": float(self.brownout_batches),
        }
        if slo_p99 is not None:
            out["slo_p99_ms"] = slo_p99 * 1e3
            # An empty run meets its SLO vacuously: nothing was late.
            out["slo_attainment"] = (float((lat <= slo_p99).mean())
                                     if served else 1.0)
            out["meets_slo"] = float(p99 <= slo_p99) if served else 1.0
        return out


class RequestRouter:
    """Admit → coalesce → dispatch → (maybe) rescale, on the shared runtime.

    Parameters
    ----------
    inference:
        The serving engine.  Its current mapping is the starting allocation;
        its virtual-node set is fixed for the run (that is the paper's
        contract — elasticity only ever changes the mapping).
    source:
        Where requests come from (open- or closed-loop).
    policy:
        The ``max_batch`` / ``max_wait`` coalescing contract.
    pool:
        The device pool scaling draws from; required when ``autoscaler`` is
        set.  The engine's devices must be a subset of the pool.
    autoscaler:
        Optional :class:`LatencyAutoscaler`; when None the mapping is fixed.
    admission:
        Optional :class:`AdmissionPolicy`.  When armed, each *new* arrival
        is tested at its arrival time against the queue-depth and
        estimated-wait thresholds and shed (recorded in ``report.shed``,
        never queued) if either trips; with ``brownout`` set the coalescing
        policy halves while the lease's capacity is derated.  Requests
        requeued after a crash were already admitted and bypass shedding.
    collect_logits:
        Keep every request's logits row in the report (tests and small runs;
        off by default to keep big sweeps lean).
    tenants:
        Optional :class:`TenantRegistry` to serve.  Its weights drive the
        WFQ dispatch queue, its quotas arm the admission pre-stage's
        shedding immunity, and its SLOs define the per-tenant report
        (``report.tenants``, ``report.tenant_shed``).
    dispatcher:
        ``"wfq"`` (default) or ``"fifo"`` — the fairness A/B knob; without
        a registry the queue is FIFO either way.
    journal:
        Optional path (or :class:`EventTrace`) for the durable request
        journal; needs ``tenants``.  The writer is closed (and therefore
        flushed) even when the run raises.

    The router is a :class:`~repro.runtime.core.Process`: :meth:`run` spins
    up a private :class:`~repro.runtime.core.Runtime`, while a co-scheduler
    instead :meth:`bind`\\ s the router to a shared runtime/pool and supplies
    a ``governor`` that arbitrates how many devices a rescale may actually
    take (harvesting them from training when the pool is tight).
    """

    def __init__(self, inference: InferenceEngine, source: RequestSource,
                 policy: MicroBatchPolicy = MicroBatchPolicy(),
                 pool: Optional[Cluster] = None,
                 autoscaler: Optional[LatencyAutoscaler] = None,
                 collect_logits: bool = False,
                 name: str = "router",
                 admission: Optional[AdmissionPolicy] = None,
                 tenants: Optional[TenantRegistry] = None,
                 dispatcher: str = "wfq",
                 journal: Optional[Union[str, EventTrace]] = None) -> None:
        if autoscaler is not None and pool is None:
            raise ValueError("autoscaling needs a device pool to draw from")
        if dispatcher not in DISPATCHERS:
            raise ValueError(
                f"dispatcher must be one of {DISPATCHERS}, got {dispatcher!r}")
        if journal is not None and tenants is None:
            raise ValueError("a request journal needs a tenant registry")
        self.inference = inference
        self.source = source
        self.policy = policy
        # What a brownout puts in force instead.  Built once: callers tell
        # the two apart by identity, never by value (halving max_batch=1,
        # max_wait=0 gives an equal policy that is still "not configured").
        self._brownout_policy = MicroBatchPolicy(
            max_batch=max(1, policy.max_batch // 2),
            max_wait=policy.max_wait / 2)
        self.pool = pool
        self.autoscaler = autoscaler
        self.admission = admission
        if admission is not None:  # only a router that sheds loads the rule
            from repro.serving.admission import decide
            self._decide = decide
        self.collect_logits = collect_logits
        self.name = name
        self.accounting = None if tenants is None else TenantAccounting(
            tenants, dispatcher, journal, actor=name)
        self.report = ServingReport()
        self._cluster = pool if pool is not None else inference.mapping.cluster
        self._runtime: Optional[Runtime] = None
        self._queue: Optional[EventQueue] = None
        self._device_pool: Optional[DevicePool] = None
        self._lease: Optional[DeviceLease] = None
        self._governor: Optional[Callable[[float, int], int]] = None
        self._on_rescaled: Optional[Callable[[float], None]] = None
        self._on_drain: Optional[Callable[[float], None]] = None
        self._pending = DispatchQueue(tenants if dispatcher == "wfq" else None)
        self._server_free = 0.0
        self._devices = self.devices
        self._batch_id = 0
        self._done = False
        # Chaos wiring (inert until configure_chaos): the head-of-chain
        # events are tracked so an injected crash can cut the single
        # admit→plan→dispatch→complete chain and a retry can splice it back.
        self._conditions = None
        self._chaos_interconnect = None
        self._retry_delay = 0.05
        self._restore_target: Optional[int] = None
        self._halted = False
        # Head-of-chain events are the integer handles runtime.queue.post
        # returned; the queue cancels and tests them by handle.
        self._admit_handle: Optional[int] = None
        self._dispatch_handle: Optional[int] = None
        self._inflight: Optional[Tuple[int, List[tuple], int, float]] = None
        # Completed micro-batches whose forward has not run yet, their
        # request count, and the example bank their entries index (the
        # source's, from the waves it hands over; see forward_completed).
        self._completed: List[List[tuple]] = []
        self._completed_rows = 0
        self._examples: Optional[np.ndarray] = None
        # Last observed batch service time — the deterministic basis for the
        # admission controller's wait estimate (0.0 until a batch completes,
        # so a cold router never wait-sheds).
        self._service_estimate = 0.0

    # -- elasticity -----------------------------------------------------------

    @property
    def devices(self) -> int:
        return len(self.inference.mapping.active_devices())

    @property
    def lease(self) -> Optional[DeviceLease]:
        """The router's pool lease (the chaos controller routes crashes by it)."""
        return self._lease

    def configure_chaos(self, conditions, *, retry_delay: float = 0.05,
                        restore_target: Optional[int] = None) -> None:
        """Wire shared degradation state in (called by the chaos installer).

        ``retry_delay`` is the timeout before requeued requests are retried
        after a crash cut their in-flight batch.  ``restore_target`` makes a
        statically-partitioned router re-grow toward its pinned size when
        devices revive; autoscaled routers leave it ``None`` and let the
        autoscaler re-earn capacity from post-failure evidence.
        """
        if retry_delay < 0:
            raise ValueError("retry_delay must be >= 0")
        self._conditions = conditions
        self._retry_delay = retry_delay
        self._restore_target = restore_target
        self._chaos_interconnect = DegradedInterconnect(
            self._cluster.interconnect, conditions)

    def _rescale(self, now: float, target: int) -> Optional[float]:
        """Resize the device lease and remap onto it; return the §4.1 cost.

        The cost model is the same all-gather training resizes pay:
        parameters must reach joining devices, shrinking is free.  Under a
        co-scheduler the ``governor`` may grant fewer devices than the
        autoscaler asked for (the pool floor protects training); a grant
        clipped all the way back to the current allocation is a no-op —
        returns None, no remap, no scaling event.
        """
        target = min(target, self.inference.mapping.vn_set.num_nodes)
        if self._governor is not None:
            target = self._governor(now, target)
        if target == self._lease.size:
            return None
        self._device_pool.resize(self._lease, target, now)
        return self._remap_to_lease(now)

    # -- runtime wiring -------------------------------------------------------

    def bind(self, runtime: Runtime,
             device_pool: Optional[DevicePool] = None,
             lease: Optional[DeviceLease] = None,
             governor: Optional[Callable[[float, int], int]] = None,
             on_rescaled: Optional[Callable[[float], None]] = None,
             on_drain: Optional[Callable[[float], None]] = None) -> None:
        """Attach the router to a runtime (shared or private).

        ``device_pool``/``lease`` default to a private pool over the
        router's cluster with the engine's current devices leased;
        ``governor`` arbitrates rescale grants and ``on_rescaled`` fires
        synchronously after the lease actually moved (the co-scheduler
        restores the training budget there — the devices a shrink released
        are free by then, and no event can be lost to a runtime stop);
        ``on_drain`` fires once when the source is served dry (a
        co-scheduled run stops there).
        """
        self._runtime = runtime
        self._queue = runtime.queue
        if device_pool is None:
            device_pool = DevicePool(
                sorted(d.device_id for d in self._cluster.devices))
        self._device_pool = device_pool
        if lease is None:
            ids = sorted(self.inference.mapping.active_devices())
            lease = device_pool.acquire(self.name, len(ids),
                                        runtime.now, ids=ids)
        self._lease = lease
        self._governor = governor
        self._on_rescaled = on_rescaled
        self._on_drain = on_drain
        self._devices = self.devices
        self._done = False

    def start(self, runtime: Runtime) -> None:
        if self.accounting is not None:
            # A co-scheduled router never goes through run(): its journal
            # opens when the shared runtime starts the process instead.
            self.accounting.open_journal()
            self.report.tenant_shed = self.report.shed.view(
                ShedBlock.tenant_rows)
        if self._runtime is not runtime:
            self.bind(runtime)
        self._schedule_next()

    def close_journal(self) -> None:
        """Flush and release the request journal, if there is one
        (idempotent; crash-safe callers invoke this in a ``finally``)."""
        if self.accounting is not None:
            self.accounting.close_journal()

    # -- the event loop -------------------------------------------------------

    def run(self, trace: Optional[Union[str, EventTrace]] = None
            ) -> ServingReport:
        """Serve the source dry; return the full accounting.

        ``trace`` (a path or an :class:`EventTrace`) journals the event
        timeline as JSONL — the ``--trace-out`` export.

        Each call is a fresh run with fresh accounting (a second call on a
        drained source returns an empty report, as the pre-runtime loop
        did): the report, queue state, quota meters and pool binding all
        reset.  The request journal is closed in a ``finally`` so its
        buffered lines reach disk even when the run raises mid-way — a
        crashed serving process still leaves every completed request
        auditable.
        """
        if self.accounting is not None:
            self.accounting.reset()
            self.accounting.open_journal()
        self.report = ServingReport()
        self._pending.clear()
        self._server_free = 0.0
        self._batch_id = 0
        self._halted = False
        self._admit_handle = None
        self._dispatch_handle = None
        self._inflight = None
        self._completed, self._completed_rows = [], 0
        self._service_estimate = 0.0
        self._runtime = None  # force start() to rebind a fresh pool/lease
        try:
            with open_trace(trace) as writer:
                runtime = Runtime(trace=writer)
                runtime.add(self)
                runtime.run()
            self.forward_completed()  # a halted router never drained
        finally:
            self.close_journal()
        return self.report

    def _schedule_next(self) -> None:
        """Post the event that produces the next dispatch (or finish)."""
        if self._pending.depth:
            self._plan(self._policy_now())
            return
        nxt = self.source.next_arrival_time()
        if nxt is None:
            self._finalize()
            return
        # The wake cannot land before the clock (the server may still be
        # busy past the arrival); the admission cutoff stays the arrival
        # time itself so the batch decision sees exactly the same queue.
        wake = max(nxt, self._runtime.now)
        self._admit_handle = self._queue.post(
            wake, lambda t, cutoff=nxt: self._on_admit(t, cutoff),
            kind="admit", actor=self.name)

    # -- admission control ----------------------------------------------------

    def _policy_now(self) -> MicroBatchPolicy:
        """The coalescing policy in force: the configured one, or its
        brownout half while the admission policy's brownout is armed *and*
        the lease's capacity is currently derated below full speed.
        Otherwise this is always the configured object — bit-identical
        behaviour, and how browned-out batches are told apart.

        Conditions and the lease change only in event actions, so an
        action probes once and hands the answer to the pulls and the plan
        it makes."""
        if (self.admission is None or not self.admission.brownout
                or self._conditions is None or self._lease is None
                or self._conditions.bottleneck_speed(
                    self._lease.device_ids) >= 1.0):
            return self.policy
        return self._brownout_policy

    def _pull(self, until: float, in_force: MicroBatchPolicy) -> int:
        """Move every arrival at or before ``until`` through admission into
        the queue under the ``in_force`` policy; returns how many were shed.

        The one door: ``_on_admit`` and ``_admit`` both come through here,
        for a wave of any length.  Crash-requeued requests never do — they
        go back on the queue front directly (already admitted).  An
        admitted arrival becomes one queue entry; a shed one only a row of
        the pull's shed block.
        """
        wave = self.source.take_wave(until)
        times = wave.time_list
        if not times:
            return 0
        self._examples = wave.bank.examples
        if self.admission is None:
            self._pending.push_wave(wave.entries())
            return 0
        # No event fires inside a pull, so the admission state (server
        # backlog, service estimate, degradation) is frozen but for the
        # queue depth, which decide() tracks: the whole wave is decided on
        # the caller's one probe; browned out is "not the configured policy".
        accounting = self.accounting
        bypass = halved = None  # a single stream: nobody bypasses or halves
        if accounting is not None:
            bypass, halved = meter(wave, times, accounting.contracts,
                                   in_force is not self.policy)
        admitted, shed, reasons = self._decide(
            self.admission, times, self._pending.depth, self._server_free,
            self._service_estimate, in_force.max_batch, bypass, halved)
        if admitted:
            self._pending.push_wave(wave.entries(admitted))
        if shed:
            block = wave.shed_block(shed, reasons)
            self.report.shed.append(block, len(shed))
            if accounting is not None:
                accounting.record_shed(block)
        return len(shed)

    def _on_admit(self, t: float, cutoff: float) -> Dict[str, object]:
        self._admit_handle = None
        policy = self._policy_now()
        shed = self._pull(cutoff, policy)
        if self._pending.depth:
            self._plan(policy)
        elif not self._halted:
            # Everything this wake pulled was shed: skip straight to the
            # next arrival instead of planning over an empty queue.
            self._schedule_next()
        out: Dict[str, object] = {"pending": self._pending.depth}
        if shed:
            out["shed"] = shed
        return out

    def _plan(self, policy: MicroBatchPolicy) -> None:
        """Fix this batch's launch time under ``policy`` (the calling
        action's probe) and post the dispatch event.

        Pulls every arrival that can influence the decision: the batch can
        fill no later than max(deadline, server_free), and requests landing
        while the batch waits for the pipeline still make the dispatch.
        A halted router (every serving device crashed) plans nothing; the
        queue keeps filling and :meth:`on_device_revived` resumes the chain.
        """
        if self._halted:
            return
        deadline = policy.deadline(self._pending.oldest_arrival())
        horizon = max(deadline, self._server_free)
        self._admit(horizon, policy)
        # The clamp to the clock matters only after a crash reset
        # _server_free: every normal plan already launches at or after now.
        launch = max(
            policy.trigger_time(self._pending.arrival_times()),
            self._server_free, self._runtime.now)
        self._admit(launch, policy)
        self._dispatch_handle = self._queue.post(
            launch, self._dispatch, kind="dispatch", actor=self.name)

    def _dispatch(self, launch: float) -> Dict[str, object]:
        """Coalesce the batch, price it, and post its completion event."""
        self._dispatch_handle = None
        policy = self._policy_now()
        if policy is not self.policy:
            self.report.brownout_batches += 1
        batch = self._pending.take(launch, policy.max_batch)

        size = len(batch)
        latency, waves = self.inference.price(size)
        if self._conditions is not None and self._conditions.degraded:
            # A straggler in the lease bottlenecks the whole micro-batch.
            latency = self._conditions.serving_latency(
                latency, self._lease.device_ids)
        completion = launch + latency
        batch_id = self._batch_id
        self._batch_id += 1
        handle = self._queue.post(
            completion,
            lambda t: self._on_completion(t, batch, batch_id, launch, waves),
            kind="complete", actor=self.name)
        self._inflight = (handle, batch, batch_id, launch)
        return {"batch_id": batch_id, "size": size,
                "devices": self._devices, "waves": waves}

    def _on_completion(self, completion: float, batch: List[tuple],
                       batch_id: int, launch: float,
                       waves: int) -> Dict[str, object]:
        self._inflight = None
        report = self.report
        size = len(batch)
        record = BatchRecord(batch_id, launch, completion, size,
                             self._devices, waves)
        block = RecordBlock(record, batch)
        report.batches.append(record)
        report.records.append(block, size)
        if self.accounting is not None:
            self.accounting.record_completion(block)
        self._completed.append(batch)
        self._completed_rows += size
        if self._completed_rows >= _FORWARD_ROWS:
            self.forward_completed()
        self._server_free = completion
        self._service_estimate = completion - launch
        self.source.on_completion(block)

        data: Dict[str, object] = {"batch_id": batch_id, "size": size}
        if self.autoscaler is not None:
            target = self.autoscaler.observe(block, completion, self._devices)
            if target is not None and target != self._devices:
                old = self._devices
                cost = self._rescale(completion, target)
                if cost is not None:
                    data["rescale"] = {"from": old, "to": self._devices,
                                       "cost": cost}
        self._schedule_next()
        return data

    # -- chaos reactions ------------------------------------------------------

    def on_device_failed(self, now: float, device_id: int) -> None:
        """React to a crash that force-revoked ``device_id`` from our lease.

        Survivor remap is immediate (a shrink pays no §4.1 cost).  An
        in-flight batch on the crashed pipeline is cancelled and its
        requests requeued at the *front* of the pending queue with their
        original arrival times — the retried requests' tail latency is the
        visible cost of the failure — and a retry event re-enters the
        dispatch chain after ``retry_delay``.  Losing the last device halts
        the router until a revival.
        """
        if self._done:
            return
        requeued = 0
        if self._lease.size == 0:
            self._halted = True
        else:
            self._remap_to_lease(now)
        if self._inflight is not None:
            handle, batch, _batch_id, _launch = self._inflight
            self._queue.cancel_handle(handle)
            self._inflight = None
            self._pending.requeue(batch)
            requeued = len(batch)
            self._server_free = now  # the crashed pipeline is idle from here
            if not self._halted:
                self._schedule_retry(now)
        elif (self._halted and self._dispatch_handle is not None
                and self._queue.handle_alive(self._dispatch_handle)):
            self._queue.cancel_handle(self._dispatch_handle)
            self._dispatch_handle = None
        if self.autoscaler is not None:
            self.autoscaler.on_failure(now)
        self.report.failures.append((now, device_id, requeued))

    def on_device_revived(self, now: float) -> None:
        """React to pool capacity returning after a crash.

        A statically-partitioned router re-grows toward its pinned
        ``restore_target``; a halted router grabs one device to resume at
        all (the autoscaler re-earns the rest from live evidence).
        """
        if self._done or self._lease is None or not self._lease.active:
            return
        target = self._lease.size
        if self._restore_target is not None:
            target = max(target, min(
                self._restore_target,
                self._lease.size + self._device_pool.free_count))
        if self._halted and target == 0 and self._device_pool.free_count > 0:
            target = 1
        if target > self._lease.size:
            self._device_pool.resize(self._lease, target, now)
            self._remap_to_lease(now)
        if self._halted and self._lease.size > 0:
            self._halted = False
            self._server_free = max(self._server_free, now)
            self._schedule_retry(now)

    def _remap_to_lease(self, now: float) -> float:
        """Remap the engine onto exactly the lease's current devices.

        The one remap path (autoscaler rescales and crash/revive reactions
        alike): prices the §4.1 cost, records the scaling event, holds the
        server busy for the cost, then notifies ``on_rescaled``.
        """
        old_mapping = self.inference.mapping
        new_mapping = Mapping.even(
            old_mapping.vn_set,
            self._cluster.subset(list(self._lease.device_ids)))
        cost = migration_time(
            old_mapping, new_mapping,
            model_bytes=self.inference.workload.footprint.param_bytes,
            state_bytes=0, interconnect=self._chaos_interconnect)
        self.inference.remap(new_mapping)
        old = self._devices
        self._devices = self.devices
        self.report.scaling_events.append((now, old, self._devices, cost))
        if cost > 0:
            self._server_free = max(self._server_free, now + cost)
        if self._on_rescaled is not None:
            self._on_rescaled(now)
        return cost

    def _schedule_retry(self, now: float) -> None:
        self._queue.post(now + self._retry_delay, self._on_retry,
                         kind="retry", actor=self.name)

    def _on_retry(self, t: float) -> Dict[str, object]:
        """Splice the dispatch chain back together after a crash cut it."""
        if self._halted:
            return {"halted": True}
        if (self._inflight is not None
                or (self._dispatch_handle is not None
                    and self._queue.handle_alive(self._dispatch_handle))):
            return {"resumed": False}  # the chain is already live again
        if self._pending.depth:
            if (self._admit_handle is not None
                    and self._queue.handle_alive(self._admit_handle)):
                # _plan's own admission pulls anything the cancelled admit
                # event would have; the next _schedule_next re-posts one.
                self._queue.cancel_handle(self._admit_handle)
                self._admit_handle = None
            self._plan(self._policy_now())
        elif (self._admit_handle is None
                or not self._queue.handle_alive(self._admit_handle)):
            self._schedule_next()
        return {"pending": self._pending.depth}

    def forward_completed(self) -> None:
        """Run the numeric forward of every completed micro-batch still
        waiting for it, in one stacked pass
        (:meth:`~repro.core.inference.InferenceEngine.predict_stacked`);
        with ``collect_logits``, their rows land in ``report.logits`` in
        completion order.  Called once ``_FORWARD_ROWS`` requests wait, when
        the source is served dry, and by :meth:`run` (and the co-scheduler)
        after the loop, drained or not."""
        batches, self._completed, self._completed_rows = self._completed, [], 0
        if not batches:
            return
        logits = self.inference.predict_stacked(
            self._examples, [e[4] for batch in batches for e in batch],
            [len(batch) for batch in batches])
        if self.collect_logits:
            self.report.logits.update(
                zip([e[1] for batch in batches for e in batch], logits))

    def _finalize(self) -> None:
        if self._done:
            return
        self._done = True
        self.forward_completed()
        self.report.duration = self._server_free
        self._device_pool.settle(self._server_free)
        self.report.device_seconds = self._lease.device_seconds
        self.report.final_devices = self._devices
        if self._on_drain is not None:
            self._on_drain(self._server_free)
        if self.accounting is not None:
            self.accounting.finalize(self.report)

    def _admit(self, until: float, in_force: MicroBatchPolicy) -> None:
        """Move every arrival at or before ``until`` into the queue.

        Serving tenants, every one of them, in one pull: WFQ can only
        reorder requests it can actually see, and quota meters must run at
        each request's *arrival* time, so the whole overload backlog moves
        into the dispatch queue, where the weighted scheduler (and the
        depth threshold) can act on it.  Nothing between two arrivals of
        the same call can change the admission state (no event fires in
        between).  With a single tenant the pulled requests dispatch in
        arrival order either way, so the golden traces stay bit-identical.

        Without a registry the pull is lazy: admission order is dispatch
        order, so it stops once the queue covers the next batch and later
        arrivals wait upstream in the source — which is why a depth
        threshold trips there only when set below the batch size.
        """
        if self.accounting is not None:
            self._pull(until, in_force)
            return
        while True:
            nxt = self.source.next_arrival_time()
            if nxt is None or nxt > until:
                return
            if self._pending.depth >= in_force.max_batch:
                # The decision this pull serves is already settled; later
                # arrivals queue behind it on their own event.
                return
            self._pull(nxt, in_force)


def _build_router(workload_name: str, cluster: Cluster,
                  device_ids: Sequence[int], phases: Sequence[ServingPhase],
                  *, virtual_nodes: Optional[int], grantable: int,
                  max_batch: int, max_wait: float, autoscale: bool,
                  slo_p99: Optional[float], seed: int, limit: Optional[int],
                  source: Optional[RequestSource],
                  admission: Optional[AdmissionPolicy],
                  tenants: Optional[TenantRegistry],
                  journal: Optional[Union[str, EventTrace]], dispatcher: str,
                  name: str, collect_logits: bool = False) -> RequestRouter:
    """The serving stack :func:`serve_workload` and
    :func:`repro.sched.cosched.run_cosched` share: an engine on
    ``device_ids`` of ``cluster``, a Poisson source over ``phases`` (per
    tenant with a registry), the autoscaler over the power-of-two ladder up
    to ``grantable`` devices, and the router, serving ``tenants`` when a
    registry is given.  Pool and SLO usage errors are raised before the
    model is built; the router's constructor checks its own arguments.
    """
    workload = get_workload(workload_name)
    pool_devices = len(cluster.devices)
    num_vns = virtual_nodes if virtual_nodes is not None else pool_devices
    if num_vns < pool_devices:
        raise ValueError(
            f"virtual_nodes ({num_vns}) must be >= pool_devices "
            f"({pool_devices}) so the full pool can be used")
    if autoscale and slo_p99 is None:
        raise ValueError("autoscaling needs a p99 SLO to steer by")

    # One virtual node per batch slot is not needed: the set only fixes the
    # shard *proportions* (equal here), so V nodes of size 1 serve any
    # micro-batch size.
    vn_set = VirtualNodeSet.even(num_vns, num_vns)
    mapping = Mapping.even(vn_set, cluster.subset(list(device_ids)))
    inference = InferenceEngine(workload, workload.build_model(seed), mapping)
    if source is None:
        examples = datasets.make_dataset(workload.dataset, n=512, seed=seed).x_val
        if tenants is None:
            source = OpenLoopPoissonSource(phases, examples, seed=seed,
                                           limit=limit)
        else:
            source = MultiTenantPoissonSource(
                tenants, split_phases(phases, tenants), examples,
                seed=seed, limit=limit)
    autoscaler = None
    if autoscale:
        from repro.serving.autoscaler import LatencyAutoscaler
        # The scaler may only target allocations that can actually be
        # granted (under a co-scheduler: up to the training tenancy floor).
        # Otherwise it keeps "acting" toward an unreachable allocation —
        # phantom decisions that clear its latency window and postpone the
        # post-spike scale-down that hands harvested devices back.
        autoscaler = LatencyAutoscaler(
            slo_p99=slo_p99,
            capacity=ladder_capacity(workload, vn_set, cluster, max_batch,
                                     len(device_ids),
                                     extra_rungs=(grantable,)),
            min_devices=1, max_devices=min(grantable, num_vns),
            cooldown=0.25)
    return RequestRouter(
        inference, source,
        policy=MicroBatchPolicy(max_batch=max_batch, max_wait=max_wait),
        pool=cluster, autoscaler=autoscaler, collect_logits=collect_logits,
        name=name, admission=admission, tenants=tenants,
        dispatcher=dispatcher, journal=journal)


def serve_workload(workload_name: str, phases: Sequence[ServingPhase], *,
                   max_batch: int = 8, max_wait: float = 0.002,
                   pool_devices: int = 4, device_type: str = "V100",
                   virtual_nodes: Optional[int] = None,
                   initial_devices: Optional[int] = None,
                   autoscale: bool = False, slo_p99: Optional[float] = None,
                   seed: int = 0,
                   limit: Optional[int] = None,
                   source: Optional[RequestSource] = None,
                   collect_logits: bool = False,
                   trace: Optional[Union[str, EventTrace]] = None,
                   admission: Optional[AdmissionPolicy] = None,
                   tenants: Optional[TenantRegistry] = None,
                   journal: Optional[Union[str, EventTrace]] = None,
                   dispatcher: str = "wfq",
                   ) -> ServingReport:
    """Build and run a complete serving session for a registered workload.

    The one-stop entry point the CLI and the SLO benchmark share: constructs
    the workload model, a virtual-node set sized to the device pool, an
    open-loop Poisson source over ``phases`` (or any explicit ``source``),
    and a router — autoscaled over the pool when ``autoscale`` is set,
    pinned to ``initial_devices`` otherwise.

    With a ``tenants`` registry the router serves tenants (as actor
    ``"gateway"``): the phase trace splits into per-tenant Poisson streams
    by the registry's load shares (unless an explicit, already-tagged
    ``source`` is supplied), dispatch follows the ``dispatcher`` policy
    (``"wfq"``/``"fifo"``), and ``journal`` optionally records the durable
    per-request JSONL journal ``repro audit`` replays.
    """
    if pool_devices < 1:
        raise ValueError(f"pool_devices must be >= 1, got {pool_devices}")
    start = initial_devices if initial_devices is not None else (
        1 if autoscale else pool_devices)
    if not 1 <= start <= pool_devices:
        raise ValueError(
            f"initial_devices must be in [1, {pool_devices}], got {start}")
    pool = Cluster.homogeneous(device_type, pool_devices)
    pool_ids = sorted(d.device_id for d in pool.devices)
    router = _build_router(
        workload_name, pool, pool_ids[:start], phases,
        virtual_nodes=virtual_nodes, grantable=pool_devices,
        max_batch=max_batch, max_wait=max_wait, autoscale=autoscale,
        slo_p99=slo_p99, seed=seed, limit=limit, source=source,
        admission=admission, tenants=tenants, journal=journal,
        dispatcher=dispatcher, collect_logits=collect_logits,
        name="router" if tenants is None else "gateway")
    return router.run(trace=trace)
