"""The production shed rule against the one-arrival-at-a-time oracle.

Hypothesis draws the whole situation an admission pull can meet — policy
(either or both gates, brownout armed or not), degradation, queue depth,
server backlog, service estimate, batch size, and a wave of 0–200 ascending
arrivals over one to three tenants of every kind (premium / best-effort /
unregistered / untagged, metered and unmetered) — and the production path
(:func:`repro.serving.tenancy.meter` then
:func:`repro.serving.admission.decide`, exactly as ``RequestRouter._pull``
chains them) must agree with ``tests/oracles/admission.py`` on every
decision, every reason and every token bucket's end state.  Both sides of
the kernel's numpy/loop choice are drawn, and pinned by explicit examples.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import example, given, settings, strategies as st

from oracles.admission import BucketOracle, admit
from repro.serving import AdmissionPolicy, TokenBucket
from repro.serving.admission import VECTOR_MIN, decide
from repro.serving.generators import ArrivalWave
from repro.serving.tenancy import meter

# tenant id -> (premium?, (rate_rps, burst) or None); "ghost" and None are
# what an unregistered / untagged arrival carries — no contract at all.
CONTRACTS = {
    "prem_metered": (True, (300.0, 4.0)),
    "prem_open": (True, None),
    "bulk_metered": (False, (50.0, 1.0)),
    "bulk_open": (False, None),
}
TENANTS = list(CONTRACTS) + ["ghost", None]


@st.composite
def policies(draw):
    depth = draw(st.one_of(st.none(), st.integers(1, 96)))
    wait = draw(st.one_of(st.none(), st.floats(1e-4, 0.05),
                          st.sampled_from([0.003, 0.01, 0.03])))
    brownout = draw(st.booleans())
    if depth is None and wait is None:
        brownout = True
    return AdmissionPolicy(max_queue_depth=depth, max_estimated_wait=wait,
                           brownout=brownout)


@st.composite
def waves(draw):
    """(ascending times, tenant per arrival, tenant table)."""
    n = draw(st.one_of(st.integers(0, VECTOR_MIN - 1),
                       st.integers(VECTOR_MIN, 200)))
    table = draw(st.lists(st.sampled_from(TENANTS), min_size=1, max_size=3,
                          unique=True))
    # Coincident arrivals (gap 0) are the norm at high rates.
    gaps = draw(st.lists(st.sampled_from([0.0, 1e-5, 3e-4, 2e-3, 0.05]),
                         min_size=n, max_size=n))
    start = draw(st.floats(0.0, 2.0))
    times = np.cumsum(np.asarray([start] + gaps[1:]))[:n] if n else np.empty(0)
    if len(table) == 1:
        idx = None
    else:
        idx = np.asarray(draw(st.lists(st.integers(0, len(table) - 1),
                                       min_size=n, max_size=n)), dtype=np.int64)
    return times, idx, tuple(table)


def check(policy, wave, tenancy, degraded, depth, server_free,
          service_estimate, max_batch) -> str:
    """One situation through both; returns the side production decided on."""
    times, idx, table = wave
    n = len(times)
    floats = times.tolist()
    tenants = [table[0] if idx is None else table[k]
               for k in (idx.tolist() if idx is not None else [0] * n)]

    # -- the oracle: everything per arrival, from the configured values ------
    oracle_buckets = {t: BucketOracle(*quota)
                      for t, (_, quota) in CONTRACTS.items()
                      if quota is not None and tenancy}
    premium = {t for t, (prem, _) in CONTRACTS.items() if prem}
    expected = admit(
        policy, list(zip(floats, tenants)), depth=depth,
        server_free=server_free, service_estimate=service_estimate,
        max_batch=max_batch, degraded=lambda: degraded,
        buckets=oracle_buckets, premium=premium if tenancy else None)

    # -- production, chained as RequestRouter._pull chains it ----------------
    browned = policy.brownout and degraded
    in_force_batch = max(1, max_batch // 2) if browned else max_batch
    buckets = {t: TokenBucket(*quota) for t, (_, quota) in CONTRACTS.items()
               if quota is not None}
    bypass = halved = None
    if tenancy:   # the gateway's pre-stage; the plain router has none
        contracts = {t: (buckets.get(t), prem)
                     for t, (prem, _) in CONTRACTS.items()}
        bypass, halved = meter(
            ArrivalWave(times=times, tenant_idx=idx, tenant_table=table),
            floats, contracts, browned)
        assert len(bypass) == n and (halved is None) == (not browned)
    admitted, shed, reasons = decide(
        policy, floats, depth, server_free, service_estimate,
        in_force_batch, bypass, halved)

    got = [None] * n
    for j, reason in zip(shed, reasons):
        got[j] = reason
    assert got == expected
    assert sorted(admitted + shed) == list(range(n))
    assert admitted == sorted(admitted) and shed == sorted(shed)
    assert all(isinstance(j, int) for j in admitted + shed)

    # Every bucket ends where the oracle's does — including its clock,
    # which the next draw (a second later) would expose.
    later = (floats[-1] if n else 0.0) + 1.0
    for tenant, model in oracle_buckets.items():
        assert buckets[tenant].tokens == model.tokens, tenant
        assert buckets[tenant].take(later) == model.take(later)
        assert buckets[tenant].tokens == model.tokens, tenant

    wait_armed = policy.max_estimated_wait is not None and service_estimate > 0
    split = halved is not None and policy.max_queue_depth is not None
    return "numpy" if n >= VECTOR_MIN and not wait_armed and not split \
        else "loop"


def test_meter_then_decide_equals_the_oracle():
    sides = Counter()

    @settings(max_examples=250, deadline=None)
    @given(policy=policies(), wave=waves(), tenancy=st.booleans(),
           degraded=st.booleans(), depth=st.integers(0, 100),
           server_free=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           service_estimate=st.sampled_from([0.0, 1e-3, 0.004, 0.02]),
           max_batch=st.integers(1, 16))
    # One depth-only wave long enough for numpy, one the wait gate forces
    # through the loop, one the brownout split forces through it, one
    # where only the halved wait limit (0.005 < 0.006 < 0.01) sheds, and one
    # where a halved depth limit of 1 must stay 1.
    @example(policy=AdmissionPolicy(max_queue_depth=8),
             wave=(np.arange(64) * 1e-4, np.arange(64) % 2,
                   ("prem_metered", "bulk_open")),
             tenancy=True, degraded=False, depth=3, server_free=0.0,
             service_estimate=0.004, max_batch=8)
    @example(policy=AdmissionPolicy(max_queue_depth=40, max_estimated_wait=0.01),
             wave=(np.arange(64) * 1e-4, np.arange(64) % 2,
                   ("prem_metered", "bulk_open")),
             tenancy=True, degraded=False, depth=3, server_free=0.5,
             service_estimate=0.004, max_batch=8)
    @example(policy=AdmissionPolicy(max_queue_depth=40, brownout=True),
             wave=(np.arange(64) * 1e-4, np.arange(64) % 2,
                   ("prem_open", "bulk_metered")),
             tenancy=True, degraded=True, depth=3, server_free=0.0,
             service_estimate=0.0, max_batch=8)
    @example(policy=AdmissionPolicy(max_estimated_wait=0.01, brownout=True),
             wave=(np.arange(6) * 1e-4, np.arange(6) % 2,
                   ("prem_open", "bulk_open")),
             tenancy=True, degraded=True, depth=3, server_free=0.0,
             service_estimate=0.006, max_batch=8)
    @example(policy=AdmissionPolicy(max_queue_depth=1, brownout=True),
             wave=(np.arange(3) * 1e-4, None, ("bulk_open",)),
             tenancy=True, degraded=True, depth=0, server_free=0.0,
             service_estimate=0.0, max_batch=8)
    def situation(**drawn):
        sides[check(**drawn)] += 1

    situation()
    # The explicit examples alone put a call on either side of the choice.
    assert sides["numpy"] >= 1 and sides["loop"] >= 4, sides
