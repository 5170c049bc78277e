"""Generated: the router's stacked forward over index-gathered bank rows.

A queue entry names its example by its row index in the source's example
bank, and ``RequestRouter.forward_completed`` gathers a whole pass's rows
with one fancy index into that bank.  Hypothesis draws the source (open
loop, multi-tenant, closed loop), the virtual node set, the device count,
the load and the batching policy, and optionally crashes a device with a
batch in flight, so a crash-requeued batch is served (and forwarded) later.
Every completed micro-batch's collected logits must be byte-equal to
``predict`` of the bank rows its entries name, and every entry
must name the row its request id cycles to.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import InferenceEngine, Mapping, VirtualNodeSet
from repro.data import make_dataset
from repro.elastic import ServingPhase
from repro.framework import get_workload
from repro.hardware import Cluster
from repro.serving import (
    ClosedLoopSource,
    MicroBatchPolicy,
    MultiTenantPoissonSource,
    OpenLoopPoissonSource,
    RequestRouter,
    TenantRegistry,
)
from repro.serving.tenancy import split_phases

WORKLOAD = get_workload("mlp_synthetic")
BANK = make_dataset(WORKLOAD.dataset, n=48, seed=5).x_val  # ids wrap often
SPEC = "prem:class=premium,weight=8;flood:share=4"


def _router(kind, v, devices, rate, max_batch, seed):
    mapping = Mapping.even(VirtualNodeSet.even(v, v),
                           Cluster.homogeneous("V100", devices))
    engine = InferenceEngine(WORKLOAD, WORKLOAD.build_model(seed), mapping)
    phases = [ServingPhase(0.4, rate)]
    tenants = None
    if kind == "open":
        source = OpenLoopPoissonSource(phases, BANK, seed=seed)
    elif kind == "tenants":
        tenants = TenantRegistry.from_spec(SPEC)
        source = MultiTenantPoissonSource(tenants, split_phases(phases, tenants),
                                          BANK, seed=seed)
    else:
        source = ClosedLoopSource(num_clients=12, requests_per_client=40,
                                  examples=BANK, think_time=0.002, seed=seed)
    return RequestRouter(engine, source,
                         MicroBatchPolicy(max_batch=max_batch, max_wait=0.002),
                         collect_logits=True, tenants=tenants)


def _record_passes(router):
    """Every completed batch each stacked pass forwards, in order."""
    batches, forward = [], router.forward_completed

    def recording():
        batches.extend(list(batch) for batch in router._completed)
        forward()

    router.forward_completed = recording
    return batches


def _crash_after(router, dispatch_number):
    """Crash device 1 right after the ``dispatch_number``-th dispatch, with
    that batch in flight; return its request ids (requeued, served later)."""
    dispatch, requeued = router._dispatch, []

    def dispatch_then_crash(launch):
        out = dispatch(launch)
        if out["batch_id"] == dispatch_number:
            requeued.extend(e[1] for e in router._inflight[1])
            router._queue.post(launch, lambda now: (
                router._device_pool.fail_device(1, now),
                router.on_device_failed(now, 1)), kind="crash")
        return out

    router._dispatch = dispatch_then_crash
    return requeued


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["open", "tenants", "closed"]),
       v=st.sampled_from([1, 3, 4, 8]), devices=st.integers(2, 4),
       rate=st.floats(300.0, 2500.0), max_batch=st.integers(1, 12),
       seed=st.integers(0, 50), crash_at=st.none() | st.integers(0, 30))
@example(kind="open", v=4, devices=2, rate=2000.0, max_batch=8, seed=1, crash_at=5)
@example(kind="tenants", v=4, devices=2, rate=2000.0, max_batch=8, seed=1, crash_at=5)
@example(kind="closed", v=4, devices=2, rate=2000.0, max_batch=8, seed=1, crash_at=5)
def test_stacked_rows_equal_each_batch_of_bank_rows(kind, v, devices, rate,
                                                    max_batch, seed, crash_at):
    router = _router(kind, v, devices, rate, max_batch, seed)
    batches = _record_passes(router)
    requeued = [] if crash_at is None else _crash_after(router, crash_at)
    report = router.run()

    served = [r.request_id for r in report.records]
    assert [e[1] for batch in batches for e in batch] == served
    assert list(report.logits) == served
    if crash_at is not None and crash_at < len(report.batches):
        assert report.failures[0][2] == len(requeued) > 0
        assert set(requeued) <= set(served)
    # A fresh engine on one device: predictions are mapping-invariant.
    oneshot = InferenceEngine(
        WORKLOAD, WORKLOAD.build_model(seed),
        Mapping.even(VirtualNodeSet.even(v, v), Cluster.homogeneous("V100", 1)))
    for batch in batches:
        rows = [e[4] for e in batch]
        assert rows == [e[1] % len(BANK) for e in batch]
        want = oneshot.predict(BANK[rows]).logits
        got = np.stack([report.logits[e[1]] for e in batch])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
