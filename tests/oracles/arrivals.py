"""Open-loop Poisson arrivals, one draw at a time.

The loop :func:`repro.elastic.trace.serving_arrival_times` ran before it
drew its gaps in blocks, kept verbatim: one ``rng.exponential(1 / rate)``
per arrival, ``t += gap``, a phase ends at the first draw that reaches its
boundary (that draw is spent, its arrival is not recorded, and ``t`` keeps
the overshoot), ``limit`` stops the trace after one more draw.  The
production function must return the same doubles — same values, dtype and
length — for every phase list, seed and limit.

The seed stream is the public one: ``derive_rng(seed, 0x7B)``, the serving
domain tag restated here rather than imported.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.utils.seeding import derive_rng

__all__ = ["arrival_times"]

SERVING_DOMAIN = 0x7B


def arrival_times(phases: Sequence, seed: int = 0,
                  limit: Optional[int] = None) -> np.ndarray:
    """Arrival times over ``phases`` (anything with ``duration``/``rate``)."""
    if not phases:
        raise ValueError("a serving trace needs at least one phase")
    rng = derive_rng(seed, SERVING_DOMAIN)
    times: List[float] = []
    t = 0.0
    phase_start = 0.0
    for phase in phases:
        phase_end = phase_start + phase.duration
        t = max(t, phase_start)
        if phase.rate > 0:
            while True:
                t += float(rng.exponential(1.0 / phase.rate))
                if t >= phase_end or (limit is not None and len(times) >= limit):
                    break
                times.append(t)
        phase_start = phase_end
        if limit is not None and len(times) >= limit:
            break
    return np.asarray(times, dtype=float)
