"""``ClusterConditions.bottleneck_speed`` is memoized; the oracle is not.

The production answer is remembered per device-id group until the next
straggler, clear or derate write.  Drawn runs interleave every write —
derates of exactly 1.0 (a clear), network windows (which must not touch
a bottleneck) — with repeated queries on tuples and lists over a small id
pool, so remembered answers keep being asked for again; each answer must
equal :class:`oracles.conditions.ConditionsOracle`'s loop, and so must the
step times and service latencies priced through it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from oracles.conditions import ConditionsOracle
from repro.hardware.perfmodel import ClusterConditions, StepTimeBreakdown

IDS = st.integers(0, 5)
GROUPS = st.lists(IDS, max_size=5)
SPEEDS = st.one_of(st.sampled_from([1.0, 0.5, 0.25, 1e-9]),
                   st.floats(min_value=1e-6, max_value=1.0))
OPS = st.one_of(
    st.tuples(st.just("straggler"), IDS,
              st.floats(min_value=1e-6, max_value=0.999)),
    st.tuples(st.just("clear"), IDS, st.just(None)),
    st.tuples(st.just("derate"), IDS, SPEEDS),
    st.tuples(st.just("network"), st.just(None),
              st.sampled_from([1.0, 1.5, 3.0])),
    st.tuples(st.just("query"), GROUPS, st.booleans()),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(OPS, max_size=40))
def test_memoized_bottleneck_equals_the_loop_after_every_write(ops):
    live, oracle = ClusterConditions(), ConditionsOracle()
    breakdown = StepTimeBreakdown(compute=0.03, update=0.01, comm=0.02)
    for op, arg, value in ops:
        if op == "straggler":
            live.set_straggler(arg, value)
            oracle.set_straggler(arg, value)
        elif op == "clear":
            live.clear_straggler(arg)
            oracle.clear_straggler(arg)
        elif op == "derate":
            live.set_derate(arg, value)
            oracle.set_derate(arg, value)
        elif op == "network":
            live.network_factor = oracle.network_factor = value
        else:
            group = tuple(arg) if value else list(arg)
            want = oracle.bottleneck_speed(group)
            for _ in range(2):  # the second ask is answered from the memo
                assert live.bottleneck_speed(group) == want
            assert live.serving_latency(0.004, group) == 0.004 / want
            assert breakdown.degraded_total(live, group) == (
                (0.03 + 0.01) / want + 0.02 * oracle.network_factor)
    every = tuple(range(6))
    assert live.bottleneck_speed(every) == oracle.bottleneck_speed(every)
