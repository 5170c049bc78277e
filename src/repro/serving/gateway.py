"""The multi-tenant admission gateway: SLOs, fairness, and auditability.

:class:`ServingGateway` extends the single-stream
:class:`~repro.serving.router.RequestRouter` with the three things a
production front end owes its tenants:

* **weighted fair queueing** — the pending queue is a
  :class:`~repro.serving.batcher.WFQDispatchQueue` keyed by the registry's
  weights, so a flooding tenant is confined to its share of dispatch slots
  instead of starving everyone behind a FIFO (``dispatcher="fifo"`` keeps
  the old queue for A/B comparison — that is what
  ``benchmarks/bench_tenant_fairness.py`` sweeps);
* **tenant-aware admission** — load shedding consults the tenant's
  contract: a *premium* tenant inside its token-bucket quota is never
  shed; over-quota premium and best-effort arrivals face the configured
  thresholds, and brownout halves those thresholds for non-premium
  traffic only (shed best-effort first);
* **a durable request journal** — an append-only JSONL file in the
  ``--trace-out`` event schema (one ``registry`` header line, then one
  line per completed request and per shed arrival).  The journal is
  flushed even when the run dies mid-way (close-on-error), and
  :func:`audit_journal` replays it offline into the exact per-tenant SLO
  attainment numbers the live run reported — ``repro audit`` is that
  replay as a subcommand.

Load arrives tagged: :class:`MultiTenantPoissonSource` merges one
deterministic Poisson stream per tenant (independent seed domains, merged
with a stable tenant-order tie-break), and :class:`TenantTaggingSource`
stamps a fixed tenant onto any existing source — the single-tenant
configuration the golden-trace suite uses to pin the gateway bit-identical
to the plain router.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.inference import InferenceEngine
from repro.elastic.trace import ServingPhase, serving_arrival_times
from repro.hardware.cluster import Cluster
from repro.runtime import EventTrace
from repro.runtime.trace import load_trace
from repro.serving.autoscaler import LatencyAutoscaler
from repro.serving.batcher import (
    AdmissionPolicy,
    FifoDispatchQueue,
    MicroBatchPolicy,
    WFQDispatchQueue,
)
from repro.serving.generators import ArrivalWave, RequestSource, _ExampleBank
from repro.serving.request import Request, RequestRecord
from repro.serving.router import _WAVE_MIN, RequestRouter, ServingReport
from repro.serving.tenancy import TenantRegistry, TenantSpec
from repro.telemetry import StreamingHistogram, percentile
from repro.utils.seeding import derive_seed

__all__ = ["MultiTenantPoissonSource", "ServingGateway", "TenantTaggingSource",
           "audit_journal", "tenant_report"]

# Seed domain for per-tenant arrival streams (coords: tenant index in
# registry order) — disjoint from every other DOMAIN_* tag.
DOMAIN_TENANT = 0x9E

DISPATCHERS = ("wfq", "fifo")


class TenantTaggingSource(RequestSource):
    """Stamp every request from an inner source with one tenant id."""

    def __init__(self, inner: RequestSource, tenant_id: str) -> None:
        self._inner = inner
        self._tenant = tenant_id

    def next_arrival_time(self) -> Optional[float]:
        return self._inner.next_arrival_time()

    def take_arrivals(self, until: float) -> List[Request]:
        return [dataclasses.replace(r, tenant=self._tenant)
                for r in self._inner.take_arrivals(until)]

    def take_wave(self, until: float) -> Optional[ArrivalWave]:
        # Retag the inner wave in place instead of wrapping every request:
        # one table entry covers the whole wave.  Subclasses that changed
        # arrival semantics fall back to the per-request pull.
        if type(self).take_arrivals is not TenantTaggingSource.take_arrivals:
            return None
        wave = self._inner.take_wave(until)
        if wave is None:
            return None
        wave.tenant_idx = None
        wave.tenant_table = (self._tenant,)
        return wave

    def on_completion(self, records: Sequence[RequestRecord]) -> None:
        self._inner.on_completion(records)


class MultiTenantPoissonSource(RequestSource):
    """One open-loop Poisson stream per tenant, merged deterministically.

    Each tenant draws arrivals from its own phase trace on its own seed
    stream (``derive_seed(seed, DOMAIN_TENANT, tenant_index)``), so adding
    or re-weighting one tenant never perturbs another's arrival times.
    Streams merge sorted by arrival time with registry order as the
    tie-break; request ids and example-bank rows are assigned in merged
    order, and ``limit`` caps the merged total.
    """

    def __init__(self, registry: TenantRegistry,
                 phases_by_tenant: Dict[str, Sequence[ServingPhase]],
                 examples: np.ndarray, seed: int = 0,
                 limit: Optional[int] = None) -> None:
        missing = [t for t in registry.tenant_ids if t not in phases_by_tenant]
        if missing:
            raise ValueError(f"no phase trace for tenants: {missing}")
        tenant_ids = registry.tenant_ids
        all_times: List[np.ndarray] = []
        all_idx: List[np.ndarray] = []
        for i, tenant_id in enumerate(tenant_ids):
            times = serving_arrival_times(
                phases_by_tenant[tenant_id],
                seed=derive_seed(seed, DOMAIN_TENANT, i), limit=limit)
            all_times.append(times)
            all_idx.append(np.full(len(times), i, dtype=np.int64))
        times = np.concatenate(all_times) if all_times else np.empty(0)
        idx = np.concatenate(all_idx) if all_idx else np.empty(0, np.int64)
        # lexsort: primary key last — sort by time, break ties in registry
        # order so two tenants' coincident arrivals merge deterministically.
        order = np.lexsort((idx, times))
        self._times = times[order]
        self._tenant_idx = np.ascontiguousarray(idx[order])
        if limit is not None and len(self._times) > limit:
            self._times = self._times[:limit]
            self._tenant_idx = self._tenant_idx[:limit]
        # The merged stream carries tenant *indices*; the table maps them
        # back to ids, so no per-request string list is ever built.
        self._tenant_table = tenant_ids
        self._bank = _ExampleBank(examples)
        self._next = 0

    @property
    def total_requests(self) -> int:
        return len(self._times)

    def next_arrival_time(self) -> Optional[float]:
        if self._next >= len(self._times):
            return None
        return float(self._times[self._next])

    def take_arrivals(self, until: float) -> List[Request]:
        end = int(np.searchsorted(self._times, until, side="right"))
        if end <= self._next:
            return []
        bank = self._bank
        table = self._tenant_table
        idx = self._tenant_idx
        out = [Request(request_id=i, arrival_time=t,
                       example=bank.next_example(),
                       tenant=table[idx[i]])
               for i, t in enumerate(
                   self._times[self._next:end].tolist(), start=self._next)]
        self._next = end
        return out

    def take_wave(self, until: float) -> Optional[ArrivalWave]:
        if (type(self).take_arrivals
                is not MultiTenantPoissonSource.take_arrivals):
            return None
        end = int(np.searchsorted(self._times, until, side="right"))
        start = self._next
        if end <= start:
            return None
        wave = ArrivalWave(times=self._times[start:end], first_id=start,
                           bank=self._bank, first_cursor=self._bank.cursor,
                           tenant_idx=self._tenant_idx[start:end],
                           tenant_table=self._tenant_table)
        self._next = end
        self._bank.advance(end - start)
        return wave


def _tenant_digest(spec: TenantSpec, latencies: Sequence[float],
                   shed: int) -> Dict[str, float]:
    """One tenant's SLO digest from raw latencies + shed count.

    Shared verbatim by the live gateway report and the offline journal
    audit, so the two paths produce bit-identical floats (JSONL round-trips
    doubles exactly).
    """
    lat = np.asarray(latencies, dtype=float)
    served = len(lat)
    offered = served + shed
    out: Dict[str, float] = {
        "requests": float(served),
        "shed": float(shed),
        "shed_rate": shed / offered if offered else 0.0,
        "slo_p99_ms": spec.slo * 1e3,
        "weight": spec.weight,
    }
    if served:
        p99 = percentile(lat, 99)
        out["latency_p50_ms"] = percentile(lat, 50) * 1e3
        out["latency_p99_ms"] = p99 * 1e3
        out["slo_attainment"] = float((lat <= spec.slo).mean())
        out["meets_slo"] = float(p99 <= spec.slo)
    else:
        out["latency_p50_ms"] = 0.0
        out["latency_p99_ms"] = 0.0
        out["slo_attainment"] = 1.0  # vacuously: nothing was late
        out["meets_slo"] = 1.0
    return out


def tenant_report(registry: TenantRegistry,
                  latency_pairs: Sequence[Tuple[Optional[str], float]],
                  shed_tenants: Sequence[str],
                  ) -> Dict[str, Dict[str, float]]:
    """Per-tenant SLO digests from (tenant, latency) pairs + shed tenants."""
    by_tenant: Dict[str, List[float]] = {t: [] for t in registry.tenant_ids}
    for tenant, latency in latency_pairs:
        if tenant in by_tenant:
            by_tenant[tenant].append(latency)
    sheds = Counter(shed_tenants)
    return {
        spec.tenant_id: _tenant_digest(
            spec, by_tenant[spec.tenant_id], sheds.get(spec.tenant_id, 0))
        for spec in registry
    }


class ServingGateway(RequestRouter):
    """The tenant-aware front end over the request router.

    Parameters beyond :class:`RequestRouter`'s:

    registry:
        The :class:`TenantRegistry` this gateway serves.  Its weights
        drive the WFQ dispatcher, its quotas arm the shedding immunity,
        and its SLOs define the per-tenant report.
    dispatcher:
        ``"wfq"`` (default) or ``"fifo"`` — the fairness A/B knob.
    journal:
        Optional path (or :class:`EventTrace`) for the durable request
        journal.  Header line carries the registry; then one ``request``
        line per completion and one ``shed`` line per rejected arrival.
        The writer is closed (and therefore flushed) even when the run
        raises, so a crashed run still leaves an auditable journal.
    """

    def __init__(self, inference: InferenceEngine, source: RequestSource,
                 registry: TenantRegistry,
                 policy: MicroBatchPolicy = MicroBatchPolicy(),
                 pool: Optional[Cluster] = None,
                 autoscaler: Optional[LatencyAutoscaler] = None,
                 collect_logits: bool = False,
                 name: str = "gateway",
                 admission: Optional[AdmissionPolicy] = None,
                 dispatcher: str = "wfq",
                 journal: Optional[Union[str, EventTrace]] = None,
                 admission_mode: Optional[str] = None) -> None:
        if dispatcher not in DISPATCHERS:
            raise ValueError(
                f"dispatcher must be one of {DISPATCHERS}, got {dispatcher!r}")
        queue = (WFQDispatchQueue(registry) if dispatcher == "wfq"
                 else FifoDispatchQueue())
        super().__init__(inference, source, policy=policy, pool=pool,
                         autoscaler=autoscaler, collect_logits=collect_logits,
                         name=name, admission=admission, dispatch_queue=queue,
                         admission_mode=admission_mode)
        self.registry = registry
        self.dispatcher = dispatcher
        self._journal_dest = journal
        self._journal: Optional[EventTrace] = None
        self._journal_owned = False
        self._journal_seq = 0
        self._buckets = registry.buckets()
        self._premium = {spec.tenant_id: spec.premium for spec in registry}
        # Cached json.dumps of tenant ids (and None): the journal fast path
        # re-serializes each tenant string once per run, not once per line.
        self._tenant_json: Dict[Optional[str], str] = {}
        self._actor_json = json.dumps(name)
        # (reason, tenant) -> the constant shed-line fragments around the
        # per-line request id / seq / time — one f-string per journal line.
        self._shed_fragments: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self._reset_tenant_accounting()

    def _reset_tenant_accounting(self) -> None:
        """Fresh incremental per-tenant accumulators for one run.

        The report's per-tenant digests are built from these at finalize —
        :func:`tenant_report` is never called during a live run (the audit
        replay still goes through it), so completion-time accounting is
        append-only instead of rebuilding per-tenant lists on each call.
        """
        self._lat_by_tenant: Dict[str, List[float]] = {
            t: [] for t in self.registry.tenant_ids}
        self._shed_counts: Counter = Counter()
        self._tenant_hists: Dict[str, StreamingHistogram] = {
            t: StreamingHistogram() for t in self.registry.tenant_ids}

    def live_tenant_histograms(self) -> Dict[str, StreamingHistogram]:
        """Per-tenant streaming latency histograms, current as of this call.

        An O(bins) live view of each tenant's latency distribution —
        dashboards can poll quantiles mid-run without sorting the exact
        per-request lists the final report is computed from.  The
        histograms fold lazily: each poll feeds a tenant's histogram the
        completions recorded since the previous poll (its ``count`` is the
        cursor into the append-only latency list), so a run nobody polls
        pays one fold per tenant, at finalize.
        """
        for tenant, hist in self._tenant_hists.items():
            latencies = self._lat_by_tenant[tenant]
            if hist.count < len(latencies):
                hist.observe_many(latencies[hist.count:])
        return dict(self._tenant_hists)

    # -- the journal ----------------------------------------------------------

    def _journal_emit(self, kind: str, t: float, data: Dict[str, object]
                      ) -> None:
        if self._journal is None:
            return
        self._journal.emit(t, self._journal_seq, kind, self.name, data)
        self._journal_seq += 1

    def _open_journal(self) -> None:
        if self._journal_dest is None or self._journal is not None:
            return
        if isinstance(self._journal_dest, str):
            self._journal = EventTrace(self._journal_dest)
            self._journal_owned = True
        else:
            self._journal = self._journal_dest
            self._journal_owned = False
        self._journal_seq = 0
        self._journal_emit("registry", 0.0, {
            "tenants": self.registry.to_dict(),
            "dispatcher": self.dispatcher,
        })

    def close_journal(self) -> None:
        """Flush and release the journal (idempotent; crash-safe callers
        invoke this in a ``finally``)."""
        if self._journal is None:
            return
        if self._journal_owned:
            self._journal.close()
        else:
            self._journal.flush()
        self._journal = None

    # -- run lifecycle --------------------------------------------------------

    def start(self, runtime) -> None:
        # A co-scheduled gateway never goes through run(): the journal opens
        # when the shared runtime starts the process instead.
        self._open_journal()
        super().start(runtime)

    def run(self, trace: Optional[Union[str, EventTrace]] = None,
            queue_backend: Optional[str] = None) -> ServingReport:
        """Serve the source dry with fresh quota meters and a fresh journal.

        The journal is closed in a ``finally`` so its buffered lines reach
        disk even when the run raises mid-way — a crashed serving process
        still leaves every completed request auditable.
        """
        self._buckets = self.registry.buckets()
        self._reset_tenant_accounting()
        self._open_journal()
        try:
            return super().run(trace=trace, queue_backend=queue_backend)
        finally:
            self.close_journal()

    # -- tenant-aware admission -----------------------------------------------

    def _admit(self, until: float) -> None:
        """Admit *every* arrival at or before ``until`` — no lazy stop.

        The plain router stops pulling once the queue covers the next batch
        (``len(pending) >= max_batch``): admission order is dispatch order
        there, so requests may as well wait upstream in the source.  A
        fair-queueing gateway cannot afford that laziness — WFQ can only
        reorder requests it can actually see, and quota meters must run at
        each request's *arrival* time.  Eager admission moves the whole
        overload backlog into the dispatch queue, where the weighted
        scheduler (and the depth threshold) can act on it.  With a single
        tenant the pulled requests dispatch in arrival order either way, so
        the golden traces stay bit-identical.

        Wave mode pulls the whole range in one call: the reference loop's
        per-timestamp pulls see exactly the same admission state as one
        pull over the concatenation, because nothing between two pulls of
        the same ``_admit`` call can change it (no event fires in between).
        """
        if self.admission_mode == "wave":
            self._pull(until)
            return
        while True:
            nxt = self.source.next_arrival_time()
            if nxt is None or nxt > until:
                return
            self._enqueue(self.source.take_arrivals(nxt))

    def _should_shed(self, request: Request, in_force: MicroBatchPolicy) -> Optional[str]:
        """Tenant-aware shedding: premium-within-quota is never shed.

        Every arrival draws on its tenant's token bucket first (the meter
        runs whether or not the decision needs it — quota state must not
        depend on load).  A premium tenant holding a token is admitted
        unconditionally; everyone else — best-effort, unregistered, and
        quota-exhausted premium — faces the configured thresholds, which
        brownout halves for non-premium traffic only.  A quota-exhausted
        premium request therefore *queues* rather than sheds whenever the
        gateway is not actually overloaded.
        """
        policy = self.admission
        tenant = request.tenant
        bucket = self._buckets.get(tenant)
        within_quota = (bucket.take(request.arrival_time)
                        if bucket is not None else True)
        spec = self.registry[tenant] if tenant in self.registry else None
        premium = spec is not None and spec.premium
        if premium and within_quota:
            return None
        depth_limit = policy.max_queue_depth
        wait_limit = policy.max_estimated_wait
        if in_force is not self.policy and not premium:  # browned out
            if depth_limit is not None:
                depth_limit = max(1, depth_limit // 2)
            if wait_limit is not None:
                wait_limit = wait_limit / 2
        return self._shed_reason(request, depth_limit, wait_limit, in_force.max_batch)

    def _enqueue_wave(self, wave: ArrivalWave) -> int:
        """Tenant-aware wave admission: the gateway's batched fast path.

        Replays per-request :meth:`_should_shed` decision-for-decision:
        every arrival is metered on its tenant's token bucket (grouped by
        tenant — each bucket still sees its own arrivals in order, so the
        quota state is bit-identical), premium-within-quota arrivals bypass
        the thresholds, and everyone else faces the (possibly
        brownout-halved) depth/wait limits against a queue depth tracked
        exactly as the reference loop grows it.  Shed arrivals are never
        materialized as :class:`Request` objects.
        """
        n = len(wave)
        if self.admission is None or n < _WAVE_MIN:
            return super()._enqueue_wave(wave)
        policy = self.admission
        times = wave.times
        idx = wave.tenant_idx
        table = wave.tenant_table
        is_premium = self._premium
        buckets = self._buckets
        # Meter + classify: ``bypass`` marks premium-within-quota arrivals,
        # ``prem`` marks premium-class arrivals (bypass or not — they keep
        # the full thresholds under brownout).
        bypass = np.zeros(n, dtype=bool)
        prem = np.zeros(n, dtype=bool)
        for k, tenant in enumerate(table):
            if idx is None:
                if k > 0:
                    break
                mask = None
            else:
                mask = idx == k
                if not mask.any():
                    continue
            bucket = buckets.get(tenant)
            grants = None
            if bucket is not None:
                grants = bucket.take_many(times if mask is None
                                          else times[mask])
            if is_premium.get(tenant, False):
                if mask is None:
                    prem[:] = True
                    bypass = (grants if grants is not None
                              else np.ones(n, dtype=bool))
                else:
                    prem[mask] = True
                    bypass[mask] = True if grants is None else grants

        depth_limit = policy.max_queue_depth
        wait_limit = policy.max_estimated_wait
        in_force = self._policy_now()
        brown = in_force is not self.policy
        be_depth, be_wait = depth_limit, wait_limit  # non-premium limits
        if brown:
            if depth_limit is not None:
                be_depth = max(1, depth_limit // 2)
            if wait_limit is not None:
                be_wait = wait_limit / 2

        admitted: List[Request] = []
        shed_t: List[float] = []
        shed_id: List[int] = []
        shed_tenant: List[Optional[str]] = []
        shed_reason: List[str] = []
        first_id = wave.first_id
        t_list = times.tolist()
        wait_active = (wait_limit is not None
                       and self._service_estimate > 0)
        if not wait_active and (not brown or depth_limit is None):
            # Depth-only, one shared limit: within a wave the queue never
            # drains and admits only grow it, so a non-bypass arrival at
            # wave offset j admits iff j < depth_limit - len(pending)
            # (an earlier shed forces every later non-bypass shed too).
            if depth_limit is None:
                admit = None
            else:
                admit = bypass | (np.arange(n)
                                  < depth_limit - len(self._pending))
            if admit is None:
                admitted = [wave.build_request(j, t)
                            for j, t in enumerate(t_list)]
            else:
                admitted = [wave.build_request(j, t_list[j])
                            for j in np.nonzero(admit)[0].tolist()]
                shed_off = np.nonzero(~admit)[0]
                if len(shed_off):
                    shed_t = times[shed_off].tolist()
                    shed_id = (first_id + shed_off).tolist()
                    if idx is None:
                        shed_tenant = [table[0]] * len(shed_off)
                    else:
                        shed_tenant = [table[k]
                                       for k in idx[shed_off].tolist()]
                    shed_reason = ["depth"] * len(shed_off)
        else:
            # Wait gate or brownout split: tight scalar replay over plain
            # floats — still no Request objects for shed arrivals.
            bypass_l = bypass.tolist()
            prem_l = prem.tolist()
            idx_l = None if idx is None else idx.tolist()
            depth = len(self._pending)
            max_batch = in_force.max_batch
            server_free = self._server_free
            estimate = self._service_estimate
            for j, t in enumerate(t_list):
                if bypass_l[j]:
                    admitted.append(wave.build_request(j, t))
                    depth += 1
                    continue
                if prem_l[j]:
                    dl, wl = depth_limit, wait_limit
                else:
                    dl, wl = be_depth, be_wait
                reason = None
                if dl is not None and depth >= dl:
                    reason = "depth"
                elif wl is not None and estimate > 0:
                    backlog = max(0.0, server_free - t)
                    if backlog + (depth // max_batch + 1) * estimate > wl:
                        reason = "wait"
                if reason is None:
                    admitted.append(wave.build_request(j, t))
                    depth += 1
                else:
                    shed_t.append(t)
                    shed_id.append(first_id + j)
                    shed_tenant.append(table[0] if idx_l is None
                                       else table[idx_l[j]])
                    shed_reason.append(reason)
        if admitted:
            self._pending.push_wave(admitted)
        if shed_id:
            self._record_shed_wave(shed_t, shed_id, shed_tenant, shed_reason)
        return len(shed_id)

    # -- accounting hooks -----------------------------------------------------

    def _tenant_json_of(self, tenant: Optional[str]) -> str:
        cached = self._tenant_json.get(tenant)
        if cached is None:
            cached = json.dumps(tenant)  # json.dumps(None) == 'null'
            self._tenant_json[tenant] = cached
        return cached

    def _record_shed(self, request: Request, reason: str) -> None:
        super()._record_shed(request, reason)
        tenant = request.tenant if request.tenant is not None else ""
        self._shed_counts[tenant] += 1
        self.report.tenant_shed.append(
            (request.arrival_time, request.request_id, tenant, reason))
        self._journal_emit("shed", request.arrival_time, {
            "request_id": request.request_id,
            "tenant": tenant,
            "reason": reason,
        })

    def _record_shed_wave(self, times: Sequence[float], ids: Sequence[int],
                          tenants: Sequence[Optional[str]],
                          reasons: Sequence[str]) -> None:
        super()._record_shed_wave(times, ids, tenants, reasons)
        tenants = [t if t is not None else "" for t in tenants]
        self.report.tenant_shed.extend(zip(times, ids, tenants, reasons))
        self._shed_counts.update(tenants)
        journal = self._journal
        if journal is None:
            return
        # Assemble each complete journal line in one f-string from cached
        # constant fragments: key order inside data is reason < request_id
        # < tenant and the envelope is actor < data < kind < seq < t, so
        # every line is byte-identical to per-event emit() with
        # json.dumps(sort_keys=True).
        fragments = self._shed_fragments
        for key in set(zip(reasons, tenants)):
            if key not in fragments:
                reason, tenant = key
                fragments[key] = (
                    f'{{"actor": {self._actor_json}, "data": '
                    f'{{"reason": "{reason}", "request_id": ',
                    f', "tenant": {self._tenant_json_of(tenant)}}}, '
                    f'"kind": "shed", "seq": ')
        seq = self._journal_seq
        self._journal_seq = seq + len(ids)
        lines: List[str] = []
        append = lines.append
        for t, i, tenant, reason in zip(times, ids, tenants, reasons):
            pre, mid = fragments[reason, tenant]
            append(f'{pre}{i}{mid}{seq}, "t": {t!r}}}\n')
            seq += 1
        journal.emit_many_lines(lines)

    def _record_completion(self, records: List[RequestRecord]) -> None:
        # Incremental per-tenant accounting: append-only latency lists — the
        # finalize digests and live_tenant_histograms() both read these.
        lat_map = self._lat_by_tenant
        for r in records:
            lst = lat_map.get(r.tenant)
            if lst is not None:
                lst.append(r.completion_time - r.arrival_time)
        if self._journal is None:
            return
        # Sorted key order: arrival < batch_id < completion < dispatch <
        # request_id < tenant.
        data = [
            f'{{"arrival": {r.arrival_time!r}, "batch_id": {r.batch_id}, '
            f'"completion": {r.completion_time!r}, '
            f'"dispatch": {r.dispatch_time!r}, '
            f'"request_id": {r.request_id}, '
            f'"tenant": {self._tenant_json_of(r.tenant)}}}'
            for r in records
        ]
        seq0 = self._journal_seq
        self._journal_seq = seq0 + len(data)
        self._journal.emit_many_data(
            [r.completion_time for r in records],
            range(seq0, seq0 + len(data)), "request", self.name, data)

    def _finalize(self) -> None:
        super()._finalize()
        # The closing fold — one observe_many per tenant for the whole run —
        # leaves the finished gateway's histograms complete without a poll.
        self.live_tenant_histograms()
        # Digests come straight from the incremental accumulators:
        # bit-identical to tenant_report over the full record list (same
        # latencies, appended in the same completion order), without
        # rebuilding per-tenant lists — tenant_report itself is reserved
        # for the offline audit replay.
        shed_counts = self._shed_counts
        self.report.tenants = {
            spec.tenant_id: _tenant_digest(
                spec, self._lat_by_tenant[spec.tenant_id],
                shed_counts.get(spec.tenant_id, 0))
            for spec in self.registry
        }
        self._journal_emit("summary", self.report.duration, {
            "tenants": self.report.tenants,
            "requests": len(self.report.records),
            "shed": len(self.report.shed),
        })
        if self._journal is not None:
            self._journal.flush()


def audit_journal(path: str) -> Dict[str, object]:
    """Replay a gateway journal into per-tenant SLO attainment offline.

    Reads only the journal — no report object, no rerun — and reproduces
    the exact per-tenant numbers the live run computed, because both paths
    feed the same latencies through :func:`tenant_report` and JSONL
    round-trips every double exactly.  This is the ``repro audit``
    subcommand's engine.
    """
    registry: Optional[TenantRegistry] = None
    dispatcher: Optional[str] = None
    pairs: List[Tuple[Optional[str], float]] = []
    sheds: List[str] = []
    events, torn = load_trace(path)
    for event in events:
        kind = event.get("kind")
        data = event.get("data", {})
        if kind == "registry":
            registry = TenantRegistry.from_dict(data["tenants"])
            dispatcher = data.get("dispatcher")
        elif kind == "request":
            pairs.append((data.get("tenant"),
                          data["completion"] - data["arrival"]))
        elif kind == "shed":
            sheds.append(data.get("tenant", ""))
    if registry is None:
        raise ValueError(
            f"{path}: not a gateway journal (no 'registry' header line)")
    return {
        "dispatcher": dispatcher,
        "requests": len(pairs),
        "shed": len(sheds),
        "tenants": tenant_report(registry, pairs, sheds),
        **({"torn_tail": torn} if torn else {}),  # absent when intact
    }
