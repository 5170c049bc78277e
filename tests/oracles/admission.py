"""The shed rule, one arrival at a time.

:func:`admit` walks a wave in arrival order and, for **each** arrival, does
everything from scratch: probes whether the hardware is degraded, derives
the brownout from that (half the batch size, and for non-premium arrivals
half of each armed threshold), draws on the tenant's token bucket, and
applies premium bypass → depth gate → estimated-wait gate against the queue
depth as it stands after the arrivals before it.  No hoisting, no masks, no
arrays — this is the documented contract of
:class:`repro.serving.AdmissionPolicy` restated, and what the production
kernel (:func:`repro.serving.admission.decide` behind its metering
pre-stage) must agree with decision for decision, reason for reason, token
for token.

The policy is read through its three public fields only
(``max_queue_depth``, ``max_estimated_wait``, ``brownout``).
"""

from __future__ import annotations

from typing import (Callable, Collection, List, Mapping, Optional, Sequence,
                    Tuple)

__all__ = ["BucketOracle", "admit"]


class BucketOracle:
    """A continuous-refill token bucket that starts full."""

    def __init__(self, rate_rps: float, burst: float) -> None:
        self.rate_rps = rate_rps
        self.burst = burst
        self.tokens = burst
        self.last = 0.0

    def take(self, now: float) -> bool:
        if now > self.last:
            refilled = self.tokens + (now - self.last) * self.rate_rps
            self.tokens = min(self.burst, refilled)
            self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


def admit(policy, arrivals: Sequence[Tuple[float, Optional[str]]], *,
          depth: int, server_free: float, service_estimate: float,
          max_batch: int, degraded: Callable[[], bool],
          buckets: Mapping[Optional[str], BucketOracle],
          premium: Optional[Collection[str]]) -> List[Optional[str]]:
    """Decide ``(arrival_time, tenant)`` pairs in order.

    Returns one entry per arrival: ``None`` for admitted, else the reason
    it was shed (``"depth"`` or ``"wait"``).  ``max_batch`` is the
    *configured* batch size and ``degraded()`` the live hardware probe;
    ``buckets`` holds the metered tenants' quota meters (mutated) and
    ``premium`` the premium tenants' ids — ``None`` for a single-stream
    router, which has no tenant classes: nobody bypasses and a brownout
    halves nobody's thresholds.
    """
    decisions: List[Optional[str]] = []
    for time, tenant in arrivals:
        browned = bool(policy.brownout) and degraded()
        batch = max(1, max_batch // 2) if browned else max_batch

        bucket = buckets.get(tenant)
        within_quota = bucket.take(time) if bucket is not None else True
        is_premium = premium is not None and tenant in premium

        reason = None
        if not (is_premium and within_quota):
            depth_limit = policy.max_queue_depth
            wait_limit = policy.max_estimated_wait
            if browned and premium is not None and not is_premium:
                if depth_limit is not None:
                    depth_limit = max(1, depth_limit // 2)
                if wait_limit is not None:
                    wait_limit = wait_limit / 2
            if depth_limit is not None and depth >= depth_limit:
                reason = "depth"
            elif wait_limit is not None and service_estimate > 0:
                backlog = max(0.0, server_free - time)
                batches_ahead = depth // batch + 1
                if backlog + batches_ahead * service_estimate > wait_limit:
                    reason = "wait"
        if reason is None:
            depth += 1
        decisions.append(reason)
    return decisions
