"""A tenant router's column-block sinks against the eager accounting oracle.

Hypothesis draws a run's accounting events in any order: admission pulls of
single-tenant waves, tenant-index waves and waves with a ``clients`` column
and a tenant per arrival, of 0, 1, 2–31 and 33–80 arrivals, each arrival
admitted or shed for either reason, several tenants in one wave
(registered, unregistered, untagged, one whose id needs JSON escapes);
micro-batches taken off the live WFQ queue and completed at drawn service
times; and polls of ``accounting.live_tenant_histograms()``.  The pulls go
through the router's real door (``RequestRouter._pull`` with the shed
rule's verdict drawn, not derived) and the completions through
``_on_completion``; every event is replayed into
``tests/oracles/serving_accounting.py``.  Production must match it in: the
``records``/``shed``/``tenant_shed`` views (``len``, iteration, indexing
from both ends, slices, ``==``, plain Python value types), the journal's
``shed`` and ``request`` lines byte for byte, the per-tenant shed counts
and digests, every histogram poll, and ``summary()`` with and without an
SLO.
"""

from __future__ import annotations

import functools
from io import StringIO

import numpy as np
from hypothesis import example, given, settings, strategies as st

import repro.serving.admission as admission_module
from oracles.serving_accounting import EagerAccounting, eager_summary
from repro.core import InferenceEngine, Mapping, VirtualNodeSet
from repro.framework.models import get_workload
from repro.hardware import Cluster
from repro.runtime import EventTrace, Runtime
from repro.serving import (
    AdmissionPolicy,
    RequestRouter,
    RequestSource,
    TenantRegistry,
    TenantSpec,
)
from repro.serving.generators import EMPTY_WAVE, ArrivalWave, _ExampleBank

ESCAPED = 'we"ird\\té\n'
REGISTRY = TenantRegistry([
    TenantSpec("prem", slo_class="premium", weight=4.0, quota_rps=50.0),
    TenantSpec(ESCAPED),
    TenantSpec("bulk", weight=2.0),
])
# "ghost" is unregistered, None untagged: accounted, never in a digest.
TENANTS = ["prem", ESCAPED, "bulk", "ghost", None]
# Payloads of the engine's input width: the completed batches are forwarded
# when the router finalizes.
BANK = _ExampleBank(np.zeros((3, 32)))


@functools.lru_cache(maxsize=None)
def _engine() -> InferenceEngine:
    workload = get_workload("mlp_synthetic")
    return InferenceEngine(
        workload, workload.build_model(0),
        Mapping.even(VirtualNodeSet.even(2, 2), Cluster.homogeneous("V100", 2)))


class _Feed(RequestSource):
    """Hands the router the wave staged for its next pull; its next
    arrival is always far off, so starting the router finalizes nothing."""

    def __init__(self) -> None:
        self.wave = EMPTY_WAVE

    def next_arrival_time(self):
        return 1e9

    def take_wave(self, until):
        wave, self.wave = self.wave, EMPTY_WAVE
        return wave


SIZES = st.one_of(st.just(0), st.just(1), st.integers(2, 31),
                  st.integers(33, 80))
GAPS = st.sampled_from([0.0, 1e-5, 3e-4, 2e-3])


@st.composite
def pulls(draw):
    n = draw(SIZES)
    op = {"op": "pull",
          "kind": draw(st.sampled_from(["array", "indexed", "clients"])),
          "gaps": draw(st.lists(GAPS, min_size=n, max_size=n)),
          "decisions": draw(st.lists(st.sampled_from([None, "depth", "wait"]),
                                     min_size=n, max_size=n))}
    if op["kind"] == "array":
        op["tenant"] = draw(st.sampled_from(TENANTS))
    elif op["kind"] == "indexed":
        table = draw(st.lists(st.sampled_from(TENANTS), min_size=1,
                              max_size=3, unique=True))
        op["table"] = table
        op["idx"] = draw(st.lists(st.integers(0, len(table) - 1),
                                  min_size=n, max_size=n))
    else:
        op["tenants"] = draw(st.lists(st.sampled_from(TENANTS), min_size=n,
                                      max_size=n))
        op["clients"] = draw(st.lists(st.one_of(st.none(), st.integers(0, 3)),
                                      min_size=n, max_size=n))
    return op


COMPLETES = st.fixed_dictionaries({
    "op": st.just("complete"), "size": st.integers(1, 12),
    "service": st.sampled_from([1e-4, 2e-3, 0.01, 0.05])})
OPS = st.lists(st.one_of(pulls(), COMPLETES, st.just({"op": "poll"})),
               max_size=14)


def _fixed_pull(kind, n, seed):
    """A deterministic pull of ``kind`` (for the explicit example)."""
    rng = np.random.default_rng(seed)
    op = {"op": "pull", "kind": kind,
          "gaps": rng.choice([0.0, 1e-5, 3e-4], n).tolist(),
          "decisions": [(None, "depth", "wait")[k] for k in rng.integers(0, 3, n)]}
    if kind == "array":
        op["tenant"] = "bulk"
    elif kind == "indexed":
        op["table"] = ["prem", None, ESCAPED]
        op["idx"] = rng.integers(0, 3, n).tolist()
    else:
        op["tenants"] = [TENANTS[k] for k in rng.integers(0, len(TENANTS), n)]
        op["clients"] = [None if k == 0 else int(k) for k in rng.integers(0, 3, n)]
    return op


EVERY_SHAPE = [
    _fixed_pull("array", 0, 1), _fixed_pull("clients", 1, 2),
    _fixed_pull("indexed", 40, 3), {"op": "complete", "size": 8, "service": 2e-3},
    {"op": "poll"}, _fixed_pull("clients", 50, 4), _fixed_pull("array", 36, 5),
    {"op": "complete", "size": 12, "service": 0.01}, {"op": "poll"},
    {"op": "poll"}, _fixed_pull("indexed", 7, 6),
    {"op": "complete", "size": 5, "service": 1e-4},
]


class _Run:
    """One tenant router and its oracle, driven through the same events."""

    def __init__(self, staged: dict) -> None:
        self.staged = staged
        self.feed = _Feed()
        self.out = StringIO()
        self.router = RequestRouter(
            _engine(), self.feed, pool=Cluster.homogeneous("V100", 2),
            name="gateway", admission=AdmissionPolicy(max_queue_depth=1),
            tenants=REGISTRY, journal=EventTrace(self.out))
        Runtime().add(self.router)  # journal header, tenant view, pool lease
        self.router._schedule_next = lambda: None  # no event loop here
        self.oracle = EagerAccounting(REGISTRY)
        self.clock = 0.0
        self.next_id = 0
        self.batch_id = 0

    def pull(self, op) -> None:
        n = len(op["gaps"])
        times = (self.clock + np.cumsum(op["gaps"])) if n else np.empty(0)
        self.clock = float(times[-1]) if n else self.clock
        floats = times.tolist()
        ids = list(range(self.next_id, self.next_id + n))
        clients = None
        if op["kind"] == "array":
            tenants, idx, table = [op["tenant"]] * n, None, (op["tenant"],)
        elif op["kind"] == "indexed":
            table, idx = tuple(op["table"]), np.asarray(op["idx"], np.int64)
            tenants = [table[k] for k in op["idx"]]
        else:
            tenants, clients = op["tenants"], op["clients"]
            table = tuple(dict.fromkeys(tenants)) or (None,)
            idx = np.asarray([table.index(t) for t in tenants], np.int64)
        wave = ArrivalWave(times, first_id=self.next_id, bank=BANK,
                           tenant_idx=idx, tenant_table=table, clients=clients)
        self.next_id += n
        decisions = op["decisions"]
        self.staged["verdict"] = (
            [j for j, d in enumerate(decisions) if d is None],
            [j for j, d in enumerate(decisions) if d is not None],
            [d for d in decisions if d is not None])
        self.feed.wave = wave
        shed = [j for j, d in enumerate(decisions) if d is not None]
        assert self.router._pull(self.clock, self.router._policy_now()) == len(shed)
        if shed:
            self.oracle.record_shed([floats[j] for j in shed],
                                    [ids[j] for j in shed],
                                    [tenants[j] for j in shed],
                                    [decisions[j] for j in shed])

    def complete(self, op) -> None:
        router = self.router
        launch = self.clock
        batch = router._pending.take(launch, op["size"])
        if not batch:
            return
        completion = launch + op["service"]
        router._on_completion(completion, batch, self.batch_id, launch, 1)
        self.oracle.complete(batch, self.batch_id, launch, completion,
                             router._devices)
        self.batch_id += 1
        self.clock = completion

    def poll(self) -> None:
        live = self.router.accounting.live_tenant_histograms()
        want = self.oracle.live_tenant_histograms()
        assert list(live) == list(want)
        for tenant, hist in live.items():
            model = want[tenant]
            assert (hist.count, hist._min, hist._max, hist._sum) == (
                model.count, model._min, model._max, model._sum)
            assert np.array_equal(hist._counts, model._counts)


def _check_view(view, want, types=None):
    """``view`` reads as the list ``want`` every way a list is read; with
    ``types``, every row is a tuple of exactly those plain types."""
    n = len(want)
    assert len(view) == n
    assert list(view) == want and view == want and want == view
    assert [view[i] for i in range(n)] == want
    assert [view[i] for i in range(-n, 0)] == want
    for bad in (n, -n - 1):
        try:
            view[bad]
        except IndexError:
            pass
        else:
            raise AssertionError(f"index {bad} of {n} rows did not raise")
    for cut in (slice(None), slice(1, -1), slice(None, None, 2),
                slice(None, None, -1), slice(-3, None)):
        assert view[cut] == want[cut]
    if types is not None:
        for row in view:
            assert tuple(type(v) for v in row) == types


def test_column_sinks_equal_the_eager_oracle(monkeypatch):
    staged = {}
    monkeypatch.setattr(admission_module, "decide",
                        lambda *args, **kwargs: staged["verdict"])

    @settings(max_examples=60, deadline=None)
    @given(ops=OPS, slo=st.sampled_from([1e-3, 5e-3, 0.02]))
    @example(ops=EVERY_SHAPE, slo=5e-3)
    def run(ops, slo):
        drive = _Run(staged)
        for op in ops:
            getattr(drive, op["op"])(*(() if op["op"] == "poll" else (op,)))
        router, oracle = drive.router, drive.oracle
        router._finalize()
        report = router.report

        _check_view(report.shed, oracle.shed, (float, int, str))
        _check_view(report.tenant_shed, oracle.tenant_shed,
                    (float, int, str, str))
        _check_view(report.records, oracle.records)
        assert np.array_equal(
            report.latencies(),
            np.asarray([r.latency for r in oracle.records], dtype=float))

        lines = drive.out.getvalue().splitlines(keepends=True)
        assert lines[1:-1] == oracle.lines

        assert list(report.tenants) == REGISTRY.tenant_ids
        assert report.tenants == oracle.tenant_digests()
        for tenant, digest in report.tenants.items():
            assert digest["shed"] == oracle.shed_counts[tenant]
        drive.poll()  # the closing fold, polled once more

        for target in (None, slo):
            assert list(report.summary(target).items()) == list(
                eager_summary(report, oracle.records, oracle.shed,
                              target).items())

    run()
