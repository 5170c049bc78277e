"""Serving tenants: WFQ, quota-aware shedding, and the journal."""

from __future__ import annotations

import json
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import InferenceEngine, Mapping, VirtualNodeSet
from repro.data import make_dataset
from repro.elastic import ServingPhase
from repro.framework.models import get_workload
from repro.hardware import Cluster
from repro.runtime import EventTrace, Runtime, read_trace
from repro.serving import (
    MultiTenantPoissonSource,
    OpenLoopPoissonSource,
    RequestRouter,
    TenantRegistry,
    TenantSpec,
    audit_journal,
    serve_workload,
)
from repro.serving.batcher import (
    AdmissionPolicy,
    DispatchQueue,
    MicroBatchPolicy,
)
from repro.telemetry import StreamingHistogram
from repro.serving.tenancy import split_phases

FLOOD_SPEC = ("prem:class=premium,weight=8,quota=300,share=250;"
              "flood:class=best_effort,weight=1,share=4000")


def _serve(spec=FLOOD_SPEC, rate=4250.0, duration=1.0, seed=7, **kwargs):
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("max_wait", 0.002)
    kwargs.setdefault("pool_devices", 1)
    return serve_workload(
        "mlp_synthetic", [ServingPhase(duration, rate)], seed=seed,
        tenants=TenantRegistry.from_spec(spec), **kwargs)


def _entry(request_id, arrival, tenant):
    """A queue entry: ``(arrival, request_id, tenant, client, example)``,
    ``example`` a bank row index."""
    return (arrival, request_id, tenant, None, request_id % 4)


def _ids(batch):
    return [e[1] for e in batch]


def _take(source, until):
    """One pull's queue entries ``(arrival, request_id, tenant, client,
    example)``."""
    wave = source.take_wave(until)
    return wave.entries() if len(wave) else []


class TestWFQDispatchQueue:
    def test_weighted_order_jumps_the_backlog(self):
        registry = TenantRegistry.from_spec(
            "prem:class=premium,weight=8;flood:weight=1")
        queue = DispatchQueue(registry)
        for i in range(20):
            queue.push_wave((_entry(i, 0.01 * i, "flood"),))
        queue.push_wave((_entry(100, 0.25, "prem"),))
        queue.push_wave((_entry(101, 0.26, "prem"),))
        batch = queue.take(1.0, 4)
        # Both premium requests beat the 20-deep flood backlog.
        assert _ids(batch) == [100, 101, 0, 1]

    def test_single_tenant_is_arrival_order(self):
        registry = TenantRegistry.from_spec("only:weight=3")
        queue = DispatchQueue(registry)
        for i in range(10):
            queue.push_wave((_entry(i, 0.001 * i, "only"),))
        assert _ids(queue.take(1.0, 10)) == list(range(10))

    def test_not_yet_arrived_requests_stay_queued(self):
        registry = TenantRegistry.from_spec("a:weight=1")
        queue = DispatchQueue(registry)
        queue.push_wave((_entry(0, 0.0, "a"),))
        queue.push_wave((_entry(1, 5.0, "a"),))
        assert _ids(queue.take(1.0, 8)) == [0]
        assert len(queue) == 1
        assert queue.oldest_arrival() == 5.0

    def test_a_late_push_is_not_held_behind_its_tenants_head(self):
        # The second push arrived before the first: it must dispatch at a
        # launch only it has reached, not wait behind the later arrival.
        queue = DispatchQueue(TenantRegistry.from_spec("a"))
        queue.push_wave((_entry(0, 5.0, "a"),))
        queue.push_wave((_entry(1, 1.0, "a"),))
        assert _ids(queue.take(2.0, 8)) == [1]
        assert _ids(queue.take(5.0, 8)) == [0]

    def test_an_unregistered_tenant_weighs_one(self):
        queue = DispatchQueue(TenantRegistry.from_spec("heavy:weight=4;one"))
        for i, tenant in enumerate(["ghost", "one", "heavy"] * 4):
            queue.push_wave((_entry(i, 0.0, tenant),))
        # ghost and one finish at 1, 2, 3, 4 — tied, push order decides;
        # heavy's four finish at 0.25 … 1.0.
        assert _ids(queue.take(1.0, 12)) == [2, 5, 8, 0, 1, 11, 3, 4, 6, 7,
                                             9, 10]


class TestTenantAwareShedding:
    def test_premium_within_quota_never_shed_under_flood(self):
        report = _serve(admission=AdmissionPolicy(max_queue_depth=64,
                                                  max_estimated_wait=None))
        shed_tenants = {tenant for _, _, tenant, _ in report.tenant_shed}
        assert report.tenant_shed, "the flood must trip the depth cap"
        assert shed_tenants == {"flood"}, (
            "only the best-effort tenant may pay for the overload")
        assert report.tenants["prem"]["shed"] == 0

    def test_quota_exhausted_premium_queues_when_not_overloaded(self):
        # Premium offers 200 req/s against a 50 req/s quota, but the pool
        # is nowhere near saturation: over-quota premium loses its shed
        # *immunity*, not its seat — every request still queues and serves.
        report = _serve(
            spec="prem:class=premium,weight=4,quota=50,share=1",
            rate=200.0, pool_devices=2,
            admission=AdmissionPolicy(max_queue_depth=64,
                                      max_estimated_wait=None))
        assert report.tenant_shed == []
        assert report.tenants["prem"]["shed"] == 0
        assert report.tenants["prem"]["requests"] == len(report.records) > 0

    def test_quota_exhausted_premium_sheds_under_overload(self):
        # The same over-quota premium tenant under a genuine overload faces
        # the thresholds like anyone else — the quota bounds the immunity.
        report = _serve(
            spec="prem:class=premium,weight=4,quota=50,share=1",
            rate=8000.0, pool_devices=1,
            admission=AdmissionPolicy(max_queue_depth=32,
                                      max_estimated_wait=None))
        assert report.tenants["prem"]["shed"] > 0

    def test_eager_admission_fills_past_the_batch_window(self):
        # A registry-less router's lazy pull stops at max_batch, so a depth
        # cap above the batch size could never trip; serving tenants it
        # admits the whole backlog eagerly, so it can and does.
        report = _serve(admission=AdmissionPolicy(max_queue_depth=32,
                                                  max_estimated_wait=None))
        assert report.tenant_shed
        assert {reason for _, _, _, reason in report.tenant_shed} == {"depth"}


class TestDispatcherWiring:
    def test_unknown_dispatcher_rejected(self):
        with pytest.raises(ValueError, match="dispatcher"):
            _serve(dispatcher="lifo", duration=0.1)

    def test_unknown_dispatcher_rejected_without_tenants(self):
        with pytest.raises(ValueError, match="dispatcher"):
            serve_workload("mlp_synthetic", [ServingPhase(0.2, 100.0)],
                           dispatcher="lifo")

    def test_unknown_dispatcher_rejected_by_cosched_without_tenants(self):
        from repro.sched import resident_training_jobs, run_cosched

        with pytest.raises(ValueError, match="dispatcher"):
            run_cosched("mlp_synthetic", [ServingPhase(0.2, 100.0)],
                        resident_training_jobs(1, demand_gpus=1),
                        pool_devices=2, slo_p99=0.035, dispatcher="nonsense")

    def test_journal_needs_a_registry(self):
        with pytest.raises(ValueError, match="tenant registry"):
            serve_workload("mlp_synthetic", [ServingPhase(0.1, 100.0)],
                           journal="nope.jsonl")

    def test_fifo_dispatcher_serves_in_arrival_order(self):
        fifo = _serve(rate=600.0, admission=None, dispatcher="fifo")
        ids = [r.request_id for r in fifo.records]
        assert ids == sorted(ids), "fifo must dispatch in arrival order"
        # ... and the wfq knob actually changes the queue: with two tenants
        # backlogged it interleaves by weight, breaking arrival order.
        wfq = _serve(rate=600.0, admission=None)
        wfq_ids = [r.request_id for r in wfq.records]
        assert sorted(wfq_ids) == sorted(ids)   # same requests served
        assert wfq_ids != ids


class TestJournal:
    def test_audit_reproduces_live_report_exactly(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        report = _serve(journal=path,
                        admission=AdmissionPolicy(max_queue_depth=64,
                                                  max_estimated_wait=None))
        audit = audit_journal(path)
        assert audit["tenants"] == report.tenants   # bit-identical floats
        assert audit["dispatcher"] == "wfq"
        assert audit["requests"] == len(report.records)
        assert audit["shed"] == len(report.shed)

    def test_audit_lists_tenants_in_registry_order(self, tmp_path):
        """The header's ``tenants`` object is written with sorted keys; the
        audit must still rebuild the registry in its own order."""
        path = str(tmp_path / "journal.jsonl")
        spec = ("prem:class=premium,weight=8,quota=300,share=250;"
                "batch:class=best_effort,weight=1,share=4000")
        report = _serve(spec=spec, duration=0.3, journal=path,
                        admission=AdmissionPolicy(max_queue_depth=64))
        assert list(report.tenants) == ["prem", "batch"]
        audit = audit_journal(path)
        assert list(audit["tenants"]) == list(report.tenants)
        assert audit["tenants"] == report.tenants
        assert read_trace(path)[0]["data"]["order"] == ["prem", "batch"]

    def test_registry_header_is_first_line(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        _serve(duration=0.2, journal=path)
        events = read_trace(path)
        assert events[0]["kind"] == "registry"
        assert set(events[0]["data"]["tenants"]) == {"prem", "flood"}
        assert events[-1]["kind"] == "summary"

    def test_non_journal_trace_rejected_by_audit(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        serve_workload("mlp_synthetic", [ServingPhase(0.2, 100.0)],
                       pool_devices=1, trace=path)
        with pytest.raises(ValueError, match="registry"):
            audit_journal(path)

    def test_journal_survives_a_mid_run_crash(self, tmp_path):
        # The source dies mid-trace; the journal's finally-close must still
        # land every completed request on disk, auditable.
        class DyingSource(MultiTenantPoissonSource):
            def take_wave(self, until):
                if until > 0.5:
                    raise RuntimeError("injected source failure")
                return super().take_wave(until)

        workload = get_workload("mlp_synthetic")
        dataset = make_dataset(workload.dataset, n=512, seed=0)
        registry = TenantRegistry.from_spec("only:class=premium")
        source = DyingSource(registry, {"only": [ServingPhase(2.0, 300.0)]},
                             dataset.x_val, seed=0)
        path = str(tmp_path / "journal.jsonl")
        with pytest.raises(RuntimeError, match="injected"):
            serve_workload(
                "mlp_synthetic", [ServingPhase(2.0, 300.0)], pool_devices=2,
                source=source, seed=0, journal=path, tenants=registry)
        audit = audit_journal(path)
        assert audit["requests"] > 0
        assert audit["tenants"]["only"]["requests"] == audit["requests"]


class TestJournalLines:
    def test_every_line_is_the_sorted_key_dump_of_its_record(self, tmp_path):
        """The router assembles its bulk ``request`` and ``shed`` lines
        from cached fragments; whatever the writer, each line on disk must
        be exactly ``json.dumps(record, sort_keys=True)``."""
        path = str(tmp_path / "journal.jsonl")
        # Both gates armed and tripping; premium is over quota at times.
        report = _serve(
            spec="prem:class=premium,weight=4,quota=250,share=1;"
                 "batch:class=best_effort,weight=1,share=2",
            rate=2500.0, seed=5, pool_devices=2, journal=path,
            admission=AdmissionPolicy(max_queue_depth=6,
                                      max_estimated_wait=0.0035))
        assert {reason for _, _, reason in report.shed} == {"depth", "wait"}
        kinds = []
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                assert line == json.dumps(record, sort_keys=True) + "\n"
                kinds.append(record["kind"])
        assert kinds[0] == "registry" and kinds[-1] == "summary"
        assert kinds.count("request") == len(report.records) > 0
        assert kinds.count("shed") == len(report.shed) > 0
        assert set(kinds) == {"registry", "request", "shed", "summary"}


class _ListSource(OpenLoopPoissonSource):
    """Hands over prepared ``(arrival, tenant)`` pairs, in order, with
    ``row`` as every request's payload."""

    def __init__(self, arrivals, row):
        table = tuple(dict.fromkeys(tenant for _, tenant in arrivals))
        self._load(np.array([t for t, _ in arrivals], dtype=float), row[None],
                   np.array([table.index(tenant) for _, tenant in arrivals]),
                   table)


# Registered, and not representable in JSON without escapes.
ESCAPED = 'we"ird\\té\n'
JOURNAL_SPEC = [TenantSpec("prem", slo_class="premium", weight=4.0),
                TenantSpec(ESCAPED)]


class TestJournalBytes:
    """A batch's journal lines share one formatting of the batch's
    constants and take their envelope from the writer; none of that may
    show in the file."""

    @settings(max_examples=25, deadline=None)
    @given(
        arrivals=st.lists(
            st.tuples(st.sampled_from([0.0, 1e-4, 2e-3, 0.02]),
                      st.sampled_from([None, "prem", ESCAPED, "ghost"])),
            min_size=1, max_size=30),
        max_batch=st.integers(1, 8),
        depth=st.one_of(st.none(), st.integers(1, 6)))
    def test_request_lines_equal_the_dump_and_per_event_emit(
            self, tmp_path_factory, arrivals, max_batch, depth):
        row = make_dataset(get_workload("mlp_synthetic").dataset, n=8,
                           seed=0).x_val[0]

        def run(sample):
            out = StringIO()
            tagged, now = [], 0.0
            for gap, tenant in arrivals:
                now += gap
                tagged.append((now, tenant))
            report = serve_workload(
                "mlp_synthetic", [], source=_ListSource(tagged, row),
                tenants=TenantRegistry(JOURNAL_SPEC), pool_devices=1,
                max_batch=max_batch,
                admission=(None if depth is None
                           else AdmissionPolicy(max_queue_depth=depth)),
                journal=EventTrace(out, sample=sample))
            return report, out.getvalue()

        report, text = run(sample=1)
        records = {r.request_id: r for r in report.records}
        events = []
        for line in text.splitlines(keepends=True):
            event = json.loads(line)
            events.append(event)
            assert line == json.dumps(event, sort_keys=True) + "\n"
            if event["kind"] == "request":
                r = records.pop(event["data"]["request_id"])
                assert event["t"] == r.completion_time
                assert event["data"] == {
                    "arrival": r.arrival_time, "batch_id": r.batch_id,
                    "completion": r.completion_time,
                    "dispatch": r.dispatch_time,
                    "request_id": r.request_id, "tenant": r.tenant}
        assert not records and len(report.records) + len(report.shed) == len(arrivals)
        assert [e["seq"] for e in events] == list(range(len(events)))

        # Per-event emit() of the same events, undecimated and at the
        # sampling offsets a bulk writer has to reproduce.
        for sample in (1, 3):
            replay = StringIO()
            with EventTrace(replay, sample=sample) as trace:
                for e in events:
                    trace.emit(e["t"], e["seq"], e["kind"], e["actor"], e["data"])
            assert replay.getvalue() == (text if sample == 1 else run(sample)[1])

        path = tmp_path_factory.mktemp("journal") / "journal.jsonl"
        path.write_text(text)
        assert audit_journal(str(path))["tenants"] == report.tenants


class TestTornJournal:
    """A journal cut mid-line by ``kill -9`` still audits: the intact
    prefix is reported, the torn tail counted; damage *before* the last
    line is not a torn tail and stays a loud error."""

    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("torn") / "journal.jsonl")
        _serve(duration=0.15, journal=path)
        return path

    def test_every_truncation_of_the_last_line_audits_the_prefix(
            self, journal, tmp_path):
        from repro.runtime.trace import load_trace

        raw = open(journal, "rb").read()
        assert raw.endswith(b"}\n")
        last_start = raw.rindex(b"\n", 0, len(raw) - 1) + 1
        intact, _ = load_trace(journal)
        assert intact[-1]["kind"] == "summary"
        whole = audit_journal(journal)
        assert "torn_tail" not in whole
        cut_path = str(tmp_path / "cut.jsonl")
        for cut in range(last_start, len(raw) + 1):
            with open(cut_path, "wb") as fh:
                fh.write(raw[:cut])
            events, torn = load_trace(cut_path)
            # Only the full line parses (with or without its newline);
            # cutting at the line's first byte leaves no tail at all.
            complete = cut >= len(raw) - 1
            assert torn == (0 if complete or cut == last_start else 1), cut
            assert events == (intact if complete else intact[:-1]), cut
            audit = audit_journal(cut_path)
            assert audit.get("torn_tail", 0) == torn
            # The summary line feeds nothing into the audit: same table.
            assert audit["tenants"] == whole["tenants"]
            assert audit["requests"] == whole["requests"]

    def test_a_truncated_request_line_drops_only_that_request(
            self, journal, tmp_path):
        lines = open(journal).read().splitlines(keepends=True)
        last_request = max(i for i, line in enumerate(lines)
                           if '"kind": "request"' in line)
        cut_path = str(tmp_path / "cut.jsonl")
        with open(cut_path, "w") as fh:
            fh.write("".join(lines[:last_request]))
            fh.write(lines[last_request][:len(lines[last_request]) // 2])
        audit = audit_journal(cut_path)
        assert audit["torn_tail"] == 1
        assert audit["requests"] == sum(
            '"kind": "request"' in line for line in lines[:last_request])

    def test_an_unparsable_line_before_the_end_names_its_line_number(
            self, journal, tmp_path):
        lines = open(journal).read().splitlines(keepends=True)
        assert len(lines) > 4
        lines[2] = lines[2][:len(lines[2]) // 2] + "\n"
        bad_path = str(tmp_path / "damaged.jsonl")
        with open(bad_path, "w") as fh:
            fh.write("".join(lines))
        with pytest.raises(ValueError, match=r"damaged\.jsonl:3: unparsable"):
            audit_journal(bad_path)
        with pytest.raises(ValueError, match=r":3: "):
            read_trace(bad_path)

    def test_cli_audit_reports_the_torn_tail_and_exits_zero(
            self, journal, tmp_path, capsys):
        from repro.cli import main

        raw = open(journal, "rb").read()
        cut_path = str(tmp_path / "cut.jsonl")
        with open(cut_path, "wb") as fh:
            fh.write(raw[:-20])
        assert main(["audit", "--journal", cut_path]) == 0
        out = capsys.readouterr().out
        assert "journal audit:" in out and "1 torn (unparsable) line" in out
        assert main(["audit", "--journal", journal]) == 0
        assert "torn" not in capsys.readouterr().out
        assert main(["audit", "--journal", cut_path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["torn_tail"] == 1


class TestMultiTenantPoissonSource:
    def _source(self, spec, rate, seed=7, limit=None):
        registry = TenantRegistry.from_spec(spec)
        workload = get_workload("mlp_synthetic")
        dataset = make_dataset(workload.dataset, n=64, seed=seed)
        phases = [ServingPhase(1.0, rate)]
        return MultiTenantPoissonSource(
            registry, split_phases(phases, registry), dataset.x_val,
            seed=seed, limit=limit)

    def test_merged_stream_is_time_sorted_with_global_ids(self):
        source = self._source("a:share=1;b:share=2", 600.0)
        entries = _take(source, float("inf"))
        times = [e[0] for e in entries]
        assert times == sorted(times)
        assert [e[1] for e in entries] == list(range(len(entries)))
        assert {e[2] for e in entries} == {"a", "b"}

    def test_tenant_stream_independent_of_neighbours_rate(self):
        # prem's arrivals must be identical whether the other tenant offers
        # 1000 or 4000 req/s — per-tenant seed domains, not one shared draw.
        low = self._source("prem:share=250;flood:share=1000", 1250.0)
        high = self._source("prem:share=250;flood:share=4000", 4250.0)
        prem_low = [e[0] for e in _take(low, float("inf")) if e[2] == "prem"]
        prem_high = [e[0] for e in _take(high, float("inf")) if e[2] == "prem"]
        assert prem_low == prem_high

    def test_limit_caps_the_merged_total(self):
        source = self._source("a:share=1;b:share=1", 800.0, limit=37)
        assert source.total_requests == 37
        assert len(_take(source, float("inf"))) == 37

    def test_missing_phase_trace_rejected(self):
        registry = TenantRegistry.from_spec("a;b")
        workload = get_workload("mlp_synthetic")
        dataset = make_dataset(workload.dataset, n=64, seed=0)
        with pytest.raises(ValueError, match="no phase trace"):
            MultiTenantPoissonSource(
                registry, {"a": [ServingPhase(1.0, 100.0)]}, dataset.x_val)

    def test_wave_drain_matches_per_request_drain(self):
        # Two identical sources, one drained in waves at staggered cutoffs
        # and one pulled at each next arrival time in turn, must yield the
        # same requests — ids, times, tenants, clients and payload rows.
        spec = "prem:share=250;flood:share=1000"
        waves = self._source(spec, 1250.0)
        oracle = self._source(spec, 1250.0)
        for until in (0.1, 0.25, 0.25, 0.6, float("inf")):
            got = _take(waves, until)
            want = []
            while (oracle.next_arrival_time() is not None
                   and oracle.next_arrival_time() <= until):
                want += _take(oracle, oracle.next_arrival_time())
            assert [e[:4] for e in got] == [e[:4] for e in want]
            # Each entry names its payload by bank row index.
            for g, w in zip(got, want):
                assert np.array_equal(waves._bank.examples[g[4]],
                                      oracle._bank.examples[w[4]])
            assert waves.next_arrival_time() == oracle.next_arrival_time()


class TestMultiTenantWaveEdgeCases:
    """The merged wave protocol's corners: coincident cross-tenant
    arrivals, tenants whose phases produce nothing, and a wave cut exactly
    at ``until``.  Per-tenant streams are pinned by stubbing the arrival
    sampler, so the merge logic is tested against known timestamps."""

    def _source(self, monkeypatch, streams, spec="a;b"):
        import repro.elastic.trace as trace_module
        per_tenant = iter(streams)  # consumed in registry order

        def fixed_times(phases, seed=0, limit=None):
            return np.asarray(next(per_tenant), dtype=float)

        monkeypatch.setattr(trace_module, "serving_arrival_times",
                            fixed_times)
        registry = TenantRegistry.from_spec(spec)
        workload = get_workload("mlp_synthetic")
        dataset = make_dataset(workload.dataset, n=64, seed=0)
        phases = {t: [ServingPhase(1.0, 1.0)] for t in registry.tenant_ids}
        return MultiTenantPoissonSource(registry, phases, dataset.x_val)

    def test_simultaneous_cross_tenant_arrivals_keep_registry_order(
            self, monkeypatch):
        source = self._source(monkeypatch, [[0.1, 0.5], [0.1, 0.3, 0.5]])
        wave = source.take_wave(float("inf"))
        merged = [(e[0], e[2]) for e in wave.entries()]
        # Ties at 0.1 and 0.5 break in registry order: a before b.
        assert merged == [(0.1, "a"), (0.1, "b"), (0.3, "b"),
                          (0.5, "a"), (0.5, "b")]
        assert wave.first_id == 0
        entries = wave.entries()
        assert [e[1] for e in entries] == list(range(5))

    def test_empty_phase_tenant_contributes_nothing(self, monkeypatch):
        source = self._source(monkeypatch, [[], [0.1, 0.2, 0.3]])
        assert source.total_requests == 3
        wave = source.take_wave(float("inf"))
        assert [e[2] for e in wave.entries()] == ["b"] * 3
        assert len(source.take_wave(float("inf"))) == 0

    def test_wave_straddling_until_exactly(self, monkeypatch):
        streams = [[0.1, 0.2], [0.2, 0.4]]
        source = self._source(monkeypatch, streams)
        # An arrival at exactly ``until`` belongs to this wave, not the next.
        wave = source.take_wave(0.2)
        assert wave.times.tolist() == [0.1, 0.2, 0.2]
        assert [e[2] for e in wave.entries()] == [
            "a", "a", "b"]
        assert source.next_arrival_time() == 0.4
        tail = source.take_wave(0.4)
        assert tail.times.tolist() == [0.4]
        assert tail.first_id == 3
        assert len(source.take_wave(float("inf"))) == 0
        # Pulls at each arrival time in turn cut the identical boundary.
        oracle = self._source(monkeypatch, streams)
        head = _take(oracle, 0.1) + _take(oracle, 0.2)
        assert [(e[0], e[2]) for e in head] \
            == [(0.1, "a"), (0.2, "a"), (0.2, "b")]
        assert oracle.next_arrival_time() == 0.4


class TestLiveTenantHistograms:
    """The live per-tenant histograms fold lazily: a poll catches each one
    up from the exact latency lists, and nothing is paid between polls."""

    SPEC = "prem:class=premium,weight=8,quota=300;flood:share=4"

    def _router(self, rate=1500.0, duration=1.0, seed=3):
        registry = TenantRegistry.from_spec(self.SPEC)
        workload = get_workload("mlp_synthetic")
        pool = Cluster.homogeneous("V100", 2)
        engine = InferenceEngine(
            workload, workload.build_model(seed),
            Mapping.even(VirtualNodeSet.even(2, 2), pool))
        examples = make_dataset(workload.dataset, n=512, seed=seed).x_val
        source = MultiTenantPoissonSource(
            registry, split_phases([ServingPhase(duration, rate)], registry),
            examples, seed=seed)
        return RequestRouter(
            engine, source, pool=pool, tenants=registry,
            policy=MicroBatchPolicy(max_batch=8, max_wait=0.002))

    @staticmethod
    def _fold_sizes(monkeypatch):
        """Record the length of every observe_many from here on."""
        sizes = []
        original = StreamingHistogram.observe_many

        def recording(self, values):
            values = list(values)
            sizes.append(len(values))
            return original(self, values)

        monkeypatch.setattr(StreamingHistogram, "observe_many", recording)
        return sizes

    @staticmethod
    def _exact(latencies):
        hist = StreamingHistogram()
        hist.observe_many(latencies)
        return hist

    @staticmethod
    def _same(a, b):
        return (a.count == b.count and a._min == b._min and a._max == b._max
                and bool((a._counts == b._counts).all()))

    def _latencies(self, records):
        out = {t: [] for t in ("prem", "flood")}
        for r in records:
            out[r.tenant].append(r.completion_time - r.arrival_time)
        return out

    def test_polls_mid_run_and_at_the_end_match_the_exact_lists(
            self, monkeypatch):
        router = self._router()
        sizes = self._fold_sizes(monkeypatch)
        polls = []

        def poll(t):
            # Copies: the router keeps folding into the live objects.
            served = len(router.report.records)
            before = len(sizes)
            view = router.accounting.live_tenant_histograms()
            polls.append((served, list(sizes[before:]),
                          {k: (h.count, h._min, h._max, h._counts.copy())
                           for k, h in view.items()}))

        runtime = Runtime()
        runtime.add(router)
        for t in (0.3, 0.6, 0.6):
            runtime.queue.post(t, poll, kind="poll")
        runtime.run()
        records = router.report.records
        assert len(polls) == 3 and 0 < polls[0][0] < polls[1][0] < len(records)

        folded = {"prem": 0, "flood": 0}
        for served, new_sizes, view in polls:
            exact = self._latencies(records[:served])
            for tenant, (count, lo, hi, counts) in view.items():
                want = self._exact(exact[tenant])
                assert (count, lo, hi) == (want.count, want._min, want._max)
                assert (counts == want._counts).all()
            # Each poll folded exactly the completions since the last one.
            fresh = [len(exact[t]) - folded[t] for t in ("prem", "flood")]
            assert sorted(new_sizes) == sorted(n for n in fresh if n)
            folded = {t: len(exact[t]) for t in folded}
        assert polls[2][1] == []  # same instant, nothing new: no fold

        exact = self._latencies(records)
        final = router.accounting.live_tenant_histograms()
        assert all(self._same(final[t], self._exact(exact[t])) for t in exact)
        assert all(final[t].count for t in exact)

    def test_unpolled_run_folds_once_per_tenant_at_finalize(
            self, monkeypatch):
        router = self._router()
        sizes = self._fold_sizes(monkeypatch)
        report = router.run()
        exact = self._latencies(report.records)
        # No per-batch telemetry: the only observe_many calls of the whole
        # run are the closing folds, one per tenant over its whole list.
        assert sorted(sizes) == sorted(len(v) for v in exact.values())
        assert len(report.records) > 1000 and len(report.batches) > 100
        final = router.accounting.live_tenant_histograms()
        assert len(sizes) == 2  # the poll after the run had nothing to fold
        assert all(self._same(final[t], self._exact(exact[t])) for t in exact)

    def test_a_second_run_starts_from_empty_histograms(self):
        router = self._router(duration=0.2)
        first = router.run()
        assert first.records
        again = router.run()  # drained source: an empty run
        assert not again.records
        histograms = router.accounting.live_tenant_histograms()
        assert all(h.count == 0 for h in histograms.values())
