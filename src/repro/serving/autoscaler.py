"""Latency-driven elastic autoscaling for the serving router.

The virtual-node abstraction makes serving capacity a pure mapping change: a
job with V virtual nodes on k devices runs ``ceil(V / k)`` sequential waves
per micro-batch, so adding devices cuts service latency without changing a
single logit.  The autoscaler closes the loop around that knob with two
complementary signals:

* **Feedforward capacity planning.**  Because the per-wave cost model is
  shared with training (:class:`~repro.hardware.perfmodel.PerfModel`), the
  router can price a full micro-batch at *every* candidate device count up
  front — a capacity table ``{devices: requests/second}``.  The scaler
  estimates the observed arrival rate from request timestamps (arrivals are
  exogenous, so the estimate survives remaps unchanged) and picks the
  smallest allocation whose capacity covers it with ``headroom``.  A load
  spike bigger than one doubling is handled in a single remap, because the
  target comes from the rate, not from a fixed step.
* **Feedback on the observed tail.**  Queueing pathologies the capacity
  model cannot see (burstiness, batch under-fill) show up in the measured
  p99; a breach while the rate is genuinely near capacity escalates one
  allocation step.  The latency window is cleared on every action so each
  escalation is justified by at least ``min_samples`` fresh observations.

Scale-down is deliberately sticky: it waits out a ``cooldown``, demands the
rate fit the *smaller* allocation with stricter ``down_headroom``, and
requires a comfortably healthy tail — the hysteresis band between
``headroom`` and ``down_headroom`` is what prevents flapping between two
allocations that straddle the offered load.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional

from repro.serving.request import RecordBlock
from repro.telemetry import LatencyHistogram

__all__ = ["AllocationProfile", "LatencyAutoscaler", "ScalingDecision"]


@dataclass(frozen=True)
class AllocationProfile:
    """Model-priced serving characteristics of one candidate allocation.

    ``capacity_rps`` is the sustainable request rate with full micro-batches
    (the stability bound: a queue at a higher offered rate diverges).
    ``full_batch_latency`` is the service time of one *full* micro-batch —
    the burst tail: when a Poisson cluster fills a batch, that is what those
    requests wait on top of queueing, so an allocation whose full-batch
    latency already crowds the SLO can never hold the p99 under it.
    """

    devices: int
    capacity_rps: float
    full_batch_latency: float


@dataclass(frozen=True)
class ScalingDecision:
    """One autoscaler action, for reports and tests."""

    time: float
    old_devices: int
    new_devices: int
    p50: float
    p99: float
    rate_hat: float  # estimated arrival rate, requests/second


class LatencyAutoscaler:
    """Propose device counts from observed arrival rate and tail latency.

    Parameters
    ----------
    slo_p99:
        The tail-latency objective, seconds.
    capacity:
        ``{devices: AllocationProfile}`` for every candidate allocation,
        priced from the shared perf model (see
        :func:`repro.serving.router.capacity_table`); plain
        ``{devices: requests/second}`` floats are also accepted (no
        burst-latency floor is enforced then).  Candidates whose full-batch
        service latency exceeds ``scale_down_margin * slo_p99`` are never
        *scale-down* targets: even if the mean rate fits, one Poisson burst
        filling a batch would blow the tail there, which is exactly the
        marginal allocation a scaler oscillates against.
    min_devices, max_devices:
        Clamp the candidate allocations (``max_devices`` defaults to the
        largest capacity key).
    window:
        Latency observations retained for the p99 estimate; small enough
        that a spike dominates the window within a few micro-batches.
    rate_window, burst_window:
        Arrival timestamps retained for the rate estimates.  Scale-*up*
        decisions read the trailing ``burst_window`` arrivals (a spike must
        dominate the estimate within milliseconds); scale-*down* decisions
        read the full ``rate_window`` (shedding capacity on a noisy
        under-estimate is how flapping starts — a Poisson rate estimate over
        N arrivals carries ~1/√N relative noise, so the long window buys the
        down path ~3× less variance).
    min_samples:
        Fresh latency observations required before a feedback action.
    cooldown:
        Simulated seconds an action must wait before a *scale-down*;
        scale-ups act immediately (capacity breaches compound by the batch).
    headroom:
        Fraction of modeled capacity an allocation is allowed to carry; the
        scaler sizes up when the observed rate exceeds
        ``headroom * capacity[devices]``.
    down_headroom:
        Stricter fraction the rate must fit in at the *smaller* allocation
        before shedding devices (must be < ``headroom``: the gap is the
        anti-flap hysteresis band).
    scale_down_margin:
        The observed p99 must also sit below ``margin * slo`` to scale down.
    persistence:
        Consecutive micro-batches a scaling condition must hold before it
        acts.  Decisions are evaluated at every batch completion — hundreds
        of times per second — so a noisy estimator *will* eventually cross
        any fixed threshold under steady load (a stopping-time selection
        effect); demanding the crossing persist turns one-batch excursions
        into no-ops while delaying reaction to a real spike by only a few
        batch times.
    """

    def __init__(self, slo_p99: float, capacity: Mapping[int, float],
                 min_devices: int = 1, max_devices: Optional[int] = None,
                 window: int = 32, rate_window: int = 128,
                 burst_window: int = 48, min_samples: int = 12,
                 cooldown: float = 1.0, headroom: float = 0.75,
                 down_headroom: float = 0.45,
                 scale_down_margin: float = 0.45,
                 persistence: int = 3) -> None:
        if slo_p99 <= 0:
            raise ValueError(f"slo_p99 must be positive, got {slo_p99}")
        if not capacity:
            raise ValueError("need a non-empty capacity table")
        if max_devices is None:
            max_devices = max(capacity)
        if min_devices < 1 or max_devices < min_devices:
            raise ValueError(
                f"need 1 <= min_devices <= max_devices, got "
                f"[{min_devices}, {max_devices}]")
        if not 0 < down_headroom < headroom <= 1.0:
            raise ValueError(
                f"need 0 < down_headroom < headroom <= 1, got "
                f"down_headroom={down_headroom}, headroom={headroom}")
        if not 0 < scale_down_margin < 1:
            raise ValueError(
                f"scale_down_margin must be in (0, 1), got {scale_down_margin}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if burst_window < 2 or rate_window < burst_window:
            raise ValueError(
                f"need 2 <= burst_window <= rate_window, got "
                f"burst_window={burst_window}, rate_window={rate_window}")
        if persistence < 1:
            raise ValueError(f"persistence must be >= 1, got {persistence}")
        self.slo_p99 = slo_p99
        self.candidates = sorted(
            k for k in capacity if min_devices <= k <= max_devices)
        if not self.candidates:
            raise ValueError(
                f"no capacity entries inside [{min_devices}, {max_devices}]")
        self.capacity: Dict[int, float] = {}
        self.service_floor: Dict[int, float] = {}
        for k in self.candidates:
            profile = capacity[k]
            if isinstance(profile, AllocationProfile):
                self.capacity[k] = profile.capacity_rps
                self.service_floor[k] = profile.full_batch_latency
            else:
                self.capacity[k] = float(profile)
                self.service_floor[k] = 0.0
        self.min_samples = min_samples
        self.cooldown = cooldown
        self.headroom = headroom
        self.down_headroom = down_headroom
        self.scale_down_margin = scale_down_margin
        self.burst_window = burst_window
        self.persistence = persistence
        self._hist = LatencyHistogram(window=window)
        self._arrivals: Deque[float] = deque(maxlen=rate_window)
        self._last_action: Optional[float] = None
        self._up_streak = 0
        self._down_streak = 0
        self.decisions: List[ScalingDecision] = []

    # -- estimators ----------------------------------------------------------

    def rate_estimate(self, last: Optional[int] = None) -> Optional[float]:
        """Observed arrival rate over the trailing ``last`` timestamps.

        ``None`` reads the whole retained window; in both cases the estimate
        is (count - 1) / span, which is unbiased for a Poisson process and —
        crucially — independent of any remap history, because arrivals are
        exogenous.
        """
        n = len(self._arrivals) if last is None else min(last, len(self._arrivals))
        if n < 2:
            return None
        spread = self._arrivals[-1] - self._arrivals[-n]
        if spread <= 0:
            return None
        return (n - 1) / spread

    def _smallest_fitting(self, rate: float, fraction: float,
                          respect_floor: bool = False) -> int:
        """Smallest candidate allocation carrying ``rate`` within ``fraction``
        of its modeled capacity; the largest candidate when none fits.

        With ``respect_floor`` (the scale-down path), allocations whose
        full-batch service latency crowds the SLO are skipped outright.
        """
        for k in self.candidates:
            if (respect_floor and self.service_floor[k]
                    > self.slo_p99 * self.scale_down_margin):
                continue
            if rate <= fraction * self.capacity[k]:
                return k
        return self.candidates[-1]

    def _next_above(self, devices: int) -> int:
        for k in self.candidates:
            if k > devices:
                return k
        return self.candidates[-1]

    def _capacity_at(self, devices: int) -> float:
        """Modeled capacity of the current allocation.

        The router may start (or be driven) at an allocation that is not a
        candidate in the table; price it as the nearest candidate below it
        (conservative), falling back to the smallest candidate.
        """
        if devices in self.capacity:
            return self.capacity[devices]
        below = [k for k in self.candidates if k <= devices]
        return self.capacity[below[-1] if below else self.candidates[0]]

    # -- the decision --------------------------------------------------------

    def observe(self, block: RecordBlock, now: float,
                devices: int) -> Optional[int]:
        """Fold a completed micro-batch in; return a new device count or None."""
        self._arrivals.extend(block.arrivals)
        self._hist.observe_many(block.latencies())
        if len(self._arrivals) < self.burst_window:
            return None
        rate_burst = self.rate_estimate(self.burst_window)
        rate_long = self.rate_estimate()
        if rate_burst is None or rate_long is None:
            return None

        tail_ok = len(self._hist) >= self.min_samples
        p99 = self._hist.percentile(99) if tail_ok else 0.0

        # Feedforward: the observed rate does not fit this allocation.
        up_k = self._smallest_fitting(rate_burst, self.headroom)
        # Feedback: the tail breached while genuinely near capacity (an
        # over-provisioned breach is just backlog draining).
        breached = (tail_ok and p99 > self.slo_p99
                    and rate_burst > self.down_headroom * self._capacity_at(devices))
        if up_k > devices or breached:
            self._up_streak += 1
            self._down_streak = 0
            if self._up_streak < self.persistence:
                return None
            return self._act(max(up_k, self._next_above(devices)) if breached
                             else up_k, now, rate_burst, devices)
        self._up_streak = 0

        down_k = self._smallest_fitting(
            max(rate_long, rate_burst), self.down_headroom, respect_floor=True)
        if (down_k < devices and tail_ok
                and p99 < self.slo_p99 * self.scale_down_margin):
            self._down_streak += 1
            if (self._down_streak >= self.persistence
                    and (self._last_action is None
                         or now - self._last_action >= self.cooldown)):
                return self._act(down_k, now, rate_long, devices)
        else:
            self._down_streak = 0
        return None

    def on_failure(self, now: float) -> None:
        """A serving device just crashed out of the allocation.

        Latency evidence gathered at the pre-failure capacity is stale —
        clear the window and the persistence streaks so the next decision
        is argued entirely from post-failure samples.  The failure also
        counts as an action for the scale-*down* cooldown: shedding devices
        moments after losing one is exactly the flap the cooldown exists to
        prevent (scale-up remains immediate once evidence accumulates).
        """
        self._hist.clear()
        self._up_streak = 0
        self._down_streak = 0
        self._last_action = now

    def _act(self, target: int, now: float, rate_hat: float,
             devices: int) -> Optional[int]:
        if target == devices:
            # Nothing to do (e.g. breached while already at the largest
            # candidate).  Reset the streaks so the same stale condition is
            # not re-adjudicated every single batch — it must persist anew.
            self._up_streak = 0
            self._down_streak = 0
            return None
        self.decisions.append(ScalingDecision(
            time=now, old_devices=devices, new_devices=target,
            p50=self._hist.percentile(50) if len(self._hist) else 0.0,
            p99=self._hist.percentile(99) if len(self._hist) else 0.0,
            rate_hat=rate_hat))
        self._last_action = now
        self._hist.clear()
        self._up_streak = 0
        self._down_streak = 0
        return target
