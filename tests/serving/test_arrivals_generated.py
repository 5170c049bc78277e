"""Block-drawn Poisson arrivals against the one-draw-at-a-time loop.

:func:`repro.elastic.trace.serving_arrival_times` draws unit-rate
exponentials a block at a time, scales, folds them with ``np.cumsum`` and
cuts each phase with one ``searchsorted``; ``tests/oracles/arrivals.py`` is
the loop it replaced, one ``rng.exponential`` per arrival.  The contract is
equality of doubles, not closeness: same values, dtype and length for every
phase list (1 ms phases, silent phases, phases an overshoot skips whole,
rates above 10 k/s so a phase spans several blocks), seed and ``limit`` —
which means every draw of the seed's stream is spent on the arrival, or the
phase boundary, the loop spends it on.  The merged multi-tenant stream,
which is what the gateway actually serves, must come out the same too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles.arrivals import arrival_times
from repro.elastic import ServingPhase, serving_arrival_times
from repro.serving import MultiTenantPoissonSource, TenantRegistry

DURATIONS = st.one_of(st.sampled_from([0.001, 0.01, 0.25, 1.0]),
                      st.floats(0.001, 2.0))
RATES = st.one_of(st.sampled_from([0.0, 0.5, 40.0, 1000.0, 12000.0, 30000.0]),
                  st.floats(0.0, 5000.0))
PHASES = st.lists(st.builds(ServingPhase, DURATIONS, RATES),
                  min_size=1, max_size=4)
SEEDS = st.integers(0, 2 ** 32 - 1)
# None, nothing, one, a few, and more than any drawn trace can hold.
LIMITS = st.one_of(st.none(), st.sampled_from([0, 1, 10 ** 9]),
                   st.integers(2, 300))


def assert_same_doubles(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("error")  # the loop overflows to inf silently
@settings(max_examples=150, deadline=None)
@given(phases=PHASES, seed=SEEDS, limit=LIMITS)
# A vanishing rate: every gap overflows, nothing arrives, one draw is spent.
@example(phases=[ServingPhase(0.5, 1e-308), ServingPhase(0.5, 200.0)],
         seed=5, limit=None)
# Gaps that are finite but sum past the largest double.
@example(phases=[ServingPhase(0.001, 1.1125369292536007e-308)], seed=0, limit=None)
# A phase of several blocks, then one the overshoot lands inside.
@example(phases=[ServingPhase(1.0, 30000.0), ServingPhase(0.001, 40.0),
                 ServingPhase(0.5, 1000.0)], seed=0, limit=None)
# The first draw already crosses: the phase records nothing, spends one draw.
@example(phases=[ServingPhase(0.001, 0.5), ServingPhase(0.001, 0.5),
                 ServingPhase(1.0, 100.0)], seed=3, limit=None)
# The limit falls exactly on a block's last draw's neighbourhood.
@example(phases=[ServingPhase(2.0, 12000.0)], seed=1, limit=4096)
@example(phases=[ServingPhase(2.0, 12000.0)], seed=1, limit=4095)
def test_block_drawn_arrivals_equal_the_per_draw_loop(phases, seed, limit):
    assert_same_doubles(serving_arrival_times(phases, seed=seed, limit=limit),
                        arrival_times(phases, seed=seed, limit=limit))


@settings(max_examples=40, deadline=None)
@given(a=PHASES, b=PHASES, seed=SEEDS, limit=LIMITS)
def test_merged_two_tenant_stream_equals_the_per_draw_loop(a, b, seed, limit):
    """``MultiTenantPoissonSource`` over two tenants: the same merged
    ``times`` / ``tenant_idx`` whichever sampler fed it."""
    import repro.elastic.trace as trace_module

    registry = TenantRegistry.from_spec("first;second")
    phases = {"first": a, "second": b}
    bank = np.zeros((4, 1))

    def merged():
        source = MultiTenantPoissonSource(registry, phases, bank, seed=seed,
                                          limit=limit)
        wave = source.take_wave(float("inf"))
        idx = wave.tenant_idx
        return wave.times, (np.empty(0, np.int64) if idx is None else idx)

    times, idx = merged()
    production = trace_module.serving_arrival_times
    trace_module.serving_arrival_times = arrival_times
    try:
        want_times, want_idx = merged()
    finally:
        trace_module.serving_arrival_times = production
    assert_same_doubles(times, want_times)
    assert_same_doubles(idx, want_idx)
