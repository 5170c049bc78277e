"""Admission control: the shed rule, written once.

When a domain wipe or a spike drives the queue past what the surviving
capacity can serve inside the latency budget, the router sheds *new*
arrivals at the door instead of admitting work already doomed to blow its
SLO.  :class:`~repro.serving.batcher.AdmissionPolicy` holds the thresholds
and :func:`decide` is the only place the rule is spelled; a router imports
this module only when it is given a policy.  Each arrival of a wave, in order: a
**bypass** arrival (premium tenant inside its quota) is admitted
unconditionally; anyone else is shed for *depth* when the queue already
holds the depth limit, else for *wait* when the estimated wait exceeds the
wait limit (those are the recorded reasons), else admitted — and under brownout
the arrivals marked **halved** (non-premium) face half of each armed limit.
A wave of one and a wave of ten thousand are the same call; the masks come
from a pre-stage (:func:`repro.serving.tenancy.meter` for a router serving
tenants; without a registry there is none: nobody bypasses, everybody
faces the full limits).  The one-arrival-at-a-time reference this is tested against
lives in ``tests/oracles/admission.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.batcher import VECTOR_MIN, AdmissionPolicy

__all__ = ["AdmissionPolicy", "decide"]


def decide(policy: AdmissionPolicy, times: Sequence[float], depth: int,
           server_free: float, service_estimate: float, max_batch: int,
           bypass: Optional[Sequence[bool]] = None,
           halved: Optional[Sequence[bool]] = None,
           ) -> Tuple[List[int], List[int], List[str]]:
    """Admit or shed one wave; returns ``(admitted, shed, reasons)``.

    ``times`` are the wave's ascending arrival times; ``admitted`` and
    ``shed`` are wave offsets in arrival order and ``reasons`` runs
    parallel to ``shed``.  The state is the router's at the pull: ``depth``
    requests queued (it grows by one per admit — nothing dispatches inside
    a pull), the pipeline busy until ``server_free``, the last batch's
    ``service_estimate`` (0.0 until one completed: no wait gate yet), and
    the ``max_batch`` in force.  ``bypass``/``halved`` are the pre-stage's
    masks; ``None`` means nobody.  Long depth-gate-only waves are decided
    with numpy, everything else by a loop over plain floats — chosen from
    what this call can see, never by a caller's flag.
    """
    n = len(times)
    depth_limit = policy.max_queue_depth
    wait_limit = policy.max_estimated_wait if service_estimate > 0 else None
    if halved is not None:
        half_depth = None if depth_limit is None else max(1, depth_limit // 2)
        half_wait = None if wait_limit is None else wait_limit / 2
    if (n >= VECTOR_MIN and wait_limit is None
            and (halved is None or depth_limit is None)):
        # Depth gate only, one limit for all: within a wave the queue never
        # drains, so the non-bypass arrival at offset j is admitted iff
        # j < depth_limit - depth (an earlier shed forces every later one).
        if depth_limit is None:
            return list(range(n)), [], []
        admit = np.arange(n) < depth_limit - depth
        if bypass is not None:
            admit |= np.asarray(bypass, dtype=bool)
        shed = np.nonzero(~admit)[0].tolist()
        return np.nonzero(admit)[0].tolist(), shed, ["depth"] * len(shed)
    admitted: List[int] = []
    shed: List[int] = []
    reasons: List[str] = []
    for j, t in enumerate(times):
        if bypass is None or not bypass[j]:
            if halved is not None and halved[j]:
                gate_depth, gate_wait = half_depth, half_wait
            else:
                gate_depth, gate_wait = depth_limit, wait_limit
            if gate_depth is not None and depth >= gate_depth:
                shed.append(j)
                reasons.append("depth")
                continue
            if gate_wait is not None:
                backlog = server_free - t if server_free > t else 0.0
                batches_ahead = depth // max_batch + 1
                if backlog + batches_ahead * service_estimate > gate_wait:
                    shed.append(j)
                    reasons.append("wait")
                    continue
        admitted.append(j)
        depth += 1
    return admitted, shed, reasons
