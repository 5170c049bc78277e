"""Serving traces and request sources."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.elastic import ServingPhase, serving_arrival_times, spike_phases
from repro.serving import (
    ClosedLoopSource,
    MultiTenantPoissonSource,
    OpenLoopPoissonSource,
    TenantRegistry,
)
from repro.serving.generators import EMPTY_WAVE, ArrivalWave, _ExampleBank
from repro.serving.request import BatchRecord, RecordBlock


def _take(source, until):
    """One pull's queue entries ``(arrival, request_id, tenant, client,
    example)``."""
    wave = source.take_wave(until)
    return wave.entries() if len(wave) else []


class TestServingTrace:
    def test_arrivals_increase_and_stay_in_range(self):
        times = serving_arrival_times([ServingPhase(2.0, 100.0)], seed=0)
        assert np.all(np.diff(times) > 0)
        assert times[0] >= 0 and times[-1] < 2.0

    def test_rate_is_roughly_honored(self):
        times = serving_arrival_times([ServingPhase(10.0, 200.0)], seed=0)
        assert 10.0 * 200.0 * 0.9 < len(times) < 10.0 * 200.0 * 1.1

    def test_piecewise_rates(self):
        phases = spike_phases(100.0, spike_factor=4.0,
                              base_duration=2.0, spike_duration=2.0)
        times = serving_arrival_times(phases, seed=1)
        base = np.sum(times < 2.0)
        spike = np.sum((times >= 2.0) & (times < 4.0))
        assert spike > 2.5 * base  # ~4x, with Poisson slack

    def test_deterministic_in_seed(self):
        phases = [ServingPhase(1.0, 300.0)]
        a = serving_arrival_times(phases, seed=7)
        b = serving_arrival_times(phases, seed=7)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, serving_arrival_times(phases, seed=8))

    def test_limit_caps_arrivals(self):
        times = serving_arrival_times([ServingPhase(10.0, 500.0)], seed=0,
                                      limit=25)
        assert len(times) == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingPhase(0.0, 10.0)
        with pytest.raises(ValueError):
            ServingPhase(1.0, -1.0)
        ServingPhase(1.0, 0.0)  # a silent phase is a phase
        with pytest.raises(ValueError):
            spike_phases(100.0, spike_factor=0.5)
        with pytest.raises(ValueError):
            serving_arrival_times([], seed=0)

    @pytest.mark.parametrize("duration,rate", [
        (float("nan"), 1.0), (float("inf"), 1.0), (-float("inf"), 1.0),
        (1.0, float("nan")), (1.0, float("inf"))])
    def test_non_finite_phases_are_rejected(self, duration, rate):
        """A NaN rate once yielded no arrivals without a word, and a NaN
        duration or an infinite rate never returned from sampling."""
        with pytest.raises(ValueError, match="finite"):
            ServingPhase(duration, rate)


class TestOpenLoopSource:
    def test_requests_cycle_example_bank(self):
        examples = np.arange(6, dtype=float).reshape(3, 2)
        source = OpenLoopPoissonSource([ServingPhase(1.0, 200.0)], examples,
                                       seed=0)
        got = _take(source, 1.0)
        assert len(got) == source.total_requests
        assert [e[1] for e in got] == list(range(len(got)))
        for _, request_id, _, _, example in got:
            assert type(example) is int  # a bank row index, not a row view
            np.testing.assert_array_equal(examples[example],
                                          examples[request_id % 3])

    def test_take_respects_clock(self):
        examples = np.zeros((1, 2))
        source = OpenLoopPoissonSource([ServingPhase(2.0, 100.0)], examples,
                                       seed=0)
        first = source.next_arrival_time()
        got = _take(source, first)
        assert len(got) >= 1
        nxt = source.next_arrival_time()
        assert nxt is None or nxt > first

    def test_drained_source_reports_none(self):
        examples = np.zeros((1, 2))
        source = OpenLoopPoissonSource([ServingPhase(0.5, 50.0)], examples,
                                       seed=0)
        source.take_wave(10.0)
        assert source.next_arrival_time() is None


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 50), data=st.data())
    def test_pulls_cut_the_arrival_array_and_empty_ones_touch_nothing(self, seed, data):
        """Any sequence of pull times — before the first arrival, between
        two, exactly on one, backwards, past the end — takes exactly the
        pending arrivals at or before it, ids and bank rows in step; a pull
        that finds nothing is the shared empty wave, and the peek is the
        first pending arrival as a plain float."""
        phases = [ServingPhase(0.2, 150.0)]
        times = serving_arrival_times(phases, seed=seed)
        source = OpenLoopPoissonSource(phases, np.zeros((3, 2)), seed=seed)
        picks = st.one_of(st.floats(0.0, 0.25),
                          st.sampled_from(times.tolist() or [0.0]))
        taken = 0
        for until in data.draw(st.lists(picks, max_size=12)) + [1.0, 1.0]:
            pending = times[taken:]
            assert source.next_arrival_time() == (pending[0] if len(pending) else None)
            assert type(source.next_arrival_time()) in (float, type(None))
            want = pending[pending <= until]
            wave = source.take_wave(until)
            if len(want) == 0:
                assert wave is EMPTY_WAVE
                continue
            np.testing.assert_array_equal(wave.times, want)
            assert (wave.first_id, wave.first_cursor) == (taken, taken)
            taken += len(want)
        assert taken == len(times) and source.next_arrival_time() is None


def _entries_from_arrays(wave, offsets):
    """A wave's queue entries built from its arrays alone, one
    ``tolist()`` each, the way the router built them before waves carried
    plain columns."""
    times = wave.times.tolist()
    idx = ([0] * len(times) if wave.tenant_idx is None
           else wave.tenant_idx.tolist())
    n = len(wave.bank.examples)
    return [(times[j], wave.first_id + j, wave.tenant_table[idx[j]],
             wave.clients and wave.clients[j], (wave.first_cursor + j) % n)
            for j in offsets]


def _open_loop(seed):
    return OpenLoopPoissonSource([ServingPhase(0.3, 400.0)],
                                 np.zeros((7, 2)), seed=seed)


def _multi_tenant(seed):
    registry = TenantRegistry.from_spec("a:share=1;b:share=3;c:share=1")
    phases = {t: [ServingPhase(0.3, 150.0)] for t in registry.tenant_ids}
    return MultiTenantPoissonSource(registry, phases, np.zeros((7, 2)),
                                    seed=seed)


def _closed_loop(seed):
    return ClosedLoopSource(num_clients=5, requests_per_client=4,
                            examples=np.zeros((7, 2)), think_time=0.002,
                            seed=seed)


class TestWavePlainColumns:
    """The admission path reads a wave's times and tenant indices as plain
    lists: they must be the arrays' values, plain floats and ints, and the
    entries built from them the entries the arrays give."""

    @staticmethod
    def _check(wave):
        assert wave.time_list == wave.times.tolist()
        assert all(type(t) is float for t in wave.time_list)
        if wave.tenant_idx is not None:
            assert wave.idx_list == wave.tenant_idx.tolist()
        every = range(len(wave))
        assert wave.entries() == _entries_from_arrays(wave, every)
        assert wave.entries(every[1::2]) == _entries_from_arrays(
            wave, every[1::2])

    @pytest.mark.parametrize("make", [_open_loop, _multi_tenant, _closed_loop])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_every_wave_of_every_source(self, make, seed):
        source, waves, t = make(seed), 0, 0.0
        while source.next_arrival_time() is not None:
            t += 0.003
            wave = source.take_wave(t)
            if not len(wave):
                continue
            self._check(wave)
            waves += 1
            source.on_completion(_complete(wave.entries(), completion=t))
        assert waves > 5

    def test_a_wave_built_over_arrays_alone(self):
        bank = _ExampleBank(np.zeros((3, 2)))
        for idx in (None, np.array([1, 0, 1, 1], np.int64)):
            self._check(ArrivalWave(np.array([0.5, 0.5, 0.75, 2.0]), 9, bank,
                                    4, idx, ("x", "y"), [3, 1, 2, 0]))


def _complete(entries, completion):
    """The completion block of one micro-batch of ``entries``."""
    batch = BatchRecord(batch_id=0, dispatch_time=completion - 0.001,
                        completion_time=completion, size=len(entries),
                        devices=1, waves=1)
    return RecordBlock(batch, entries)


class TestClosedLoopSource:
    def test_one_outstanding_request_per_client(self):
        examples = np.zeros((4, 2))
        source = ClosedLoopSource(num_clients=3, requests_per_client=2,
                                  examples=examples, think_time=0.01, seed=0)
        first = _take(source, 10.0)
        assert len(first) == 3  # one per client, nothing more until completion
        assert source.next_arrival_time() is None
        source.on_completion(_complete(first, completion=1.0))
        second = _take(source, 100.0)
        assert len(second) == 3
        assert all(e[0] >= 1.0 for e in second)

    def test_total_request_budget(self):
        examples = np.zeros((4, 2))
        source = ClosedLoopSource(num_clients=2, requests_per_client=3,
                                  examples=examples, think_time=0.0, seed=0)
        served = 0
        t = 0.0
        while source.next_arrival_time() is not None:
            t += 1.0
            batch = _take(source, t)
            served += len(batch)
            if batch:
                source.on_completion(_complete(batch, completion=t))
        assert served == 2 * 3

    def test_waves_carry_clients_and_contiguous_ids_and_rows(self):
        """A closed-loop pull is one wave like any other: its entries name
        the client that issued them, ids and bank rows run on contiguously
        in issue order across pulls, and a shed offset ``j`` is request
        ``first_id + j``."""
        examples = np.arange(10, dtype=float).reshape(5, 2)
        source = ClosedLoopSource(num_clients=4, requests_per_client=3,
                                  examples=examples, think_time=0.0, seed=3)
        issued, t = 0, 0.0
        while source.next_arrival_time() is not None:
            t += 1.0
            wave = source.take_wave(t)
            assert (wave.first_id, wave.first_cursor) == (issued, issued)
            assert wave.tenant_idx is None and list(wave.tenant_table) == [None]
            entries = wave.entries()
            assert [e[1] for e in entries] == list(
                range(issued, issued + len(wave)))
            assert [e[3] for e in entries] == wave.clients
            assert sorted(wave.clients) == [0, 1, 2, 3]  # one per client
            for _, request_id, tenant, _, example in entries:
                assert tenant is None and type(example) is int
                np.testing.assert_array_equal(wave.bank.examples[example],
                                              examples[request_id % 5])
            shed = wave.shed_block([1, 3], ["depth", "wait"])
            assert shed.ids.tolist() == [issued + 1, issued + 3]
            assert shed.times.tolist() == [entries[1][0], entries[3][0]]
            issued += len(wave)
            source.on_completion(_complete(entries, completion=t))
        assert issued == 4 * 3

    def test_validation(self):
        examples = np.zeros((1, 2))
        with pytest.raises(ValueError):
            ClosedLoopSource(0, 1, examples)
        with pytest.raises(ValueError):
            ClosedLoopSource(1, 0, examples)
        with pytest.raises(ValueError):
            ClosedLoopSource(1, 1, examples, think_time=-1.0)
