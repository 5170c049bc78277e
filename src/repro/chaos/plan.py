"""Fault plans: seeded, validated timelines of injected infrastructure events.

A :class:`FaultPlan` is the complete, deterministic description of one chaos
scenario — device crashes and revivals, straggler onset/clear windows,
network-degradation windows, and partial-degradation (derate) steps — fixed
*before* the simulation starts.  The
:class:`~repro.chaos.process.ChaosProcess` posts each entry as a first-class
event on the shared runtime queue, so injected failures interleave with
arrivals, dispatches, and rescales under the same deterministic
``(time, seq)`` order as every other event, and the whole scenario replays
bit-identically.

Plans come from two constructors: :meth:`FaultPlan.from_events` for
hand-written scenarios (golden-trace fixtures, targeted tests) and
:func:`random_plan` for rate-parameterized scenarios drawn from an explicit
seed through :func:`repro.utils.seeding.derive_rng` — no module-level RNG
state anywhere.

With a :class:`~repro.chaos.topology.FailureDomainTopology` attached,
:func:`random_plan` additionally draws **correlated** modes: domain wipes
(every device in a sampled rack/switch domain crashes at one instant and
revives together when the domain's power/link is restored) and spatially
correlated straggler windows (a whole rack slows at once).  ``min_healthy``
validation is then domain-aware: a plan whose single largest wipe would
drop the pool below the floor is rejected at construction, not discovered
at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.chaos.degradation import DerateCurve, ThermalRamp
from repro.chaos.topology import RACK, FailureDomainTopology
from repro.utils.seeding import DOMAIN_CHAOS, derive_rng

__all__ = [
    "CRASH",
    "REVIVE",
    "STRAGGLER_START",
    "STRAGGLER_END",
    "NETWORK_START",
    "NETWORK_END",
    "DERATE",
    "ChaosEvent",
    "FaultPlan",
    "domain_wipe_events",
    "random_plan",
]

CRASH = "crash"
REVIVE = "revive"
STRAGGLER_START = "straggler_start"
STRAGGLER_END = "straggler_end"
NETWORK_START = "network_start"
NETWORK_END = "network_end"
DERATE = "derate"

_KINDS = (CRASH, REVIVE, STRAGGLER_START, STRAGGLER_END,
          NETWORK_START, NETWORK_END, DERATE)
# Network events carry no device; everything else targets one.
_DEVICE_KINDS = (CRASH, REVIVE, STRAGGLER_START, STRAGGLER_END, DERATE)

# Deterministic RNG stream indices under DOMAIN_CHAOS.  New modes get new
# streams so pre-existing plans replay unchanged when the new rates are 0.
_STREAM_CRASH = 0
_STREAM_STRAGGLER = 1
_STREAM_NETWORK = 2
_STREAM_WIPE = 3
_STREAM_DERATE = 4


@dataclass(frozen=True, order=True)
class ChaosEvent:
    """One injected infrastructure event.

    ``factor`` is the straggler speed (0 < f < 1) for ``straggler_start``,
    the collective-cost multiplier (> 1) for ``network_start``, and the
    derate speed (0 < f <= 1; exactly 1.0 clears the derate) for
    ``derate``; it is unused (1.0) for the other kinds.  The dataclass
    orders by ``(time, kind, device_id, factor)`` so sorted plans are
    canonical.
    """

    time: float
    kind: str
    device_id: int = -1
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown chaos event kind {self.kind!r}")
        if not 0 <= self.time < math.inf:  # NaN fails this too
            raise ValueError(
                f"chaos events need a finite time and cannot predate t=0: "
                f"{self.time}")
        if not math.isfinite(self.factor):
            raise ValueError(f"chaos event factor must be finite, got {self.factor}")
        if self.kind in _DEVICE_KINDS and self.device_id < 0:
            raise ValueError(f"{self.kind} event needs a device id")
        if self.kind == STRAGGLER_START and not 0.0 < self.factor < 1.0:
            raise ValueError(
                f"straggler factor must be in (0, 1), got {self.factor}")
        if self.kind == NETWORK_START and self.factor <= 1.0:
            raise ValueError(
                f"network degradation factor must be > 1, got {self.factor}")
        if self.kind == DERATE and not 0.0 < self.factor <= 1.0:
            raise ValueError(
                f"derate speed must be in (0, 1], got {self.factor}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated timeline of :class:`ChaosEvent` entries.

    ``topology`` (optional) records the failure-domain tree the plan was
    drawn against; ``min_healthy``/``n_devices`` (optional) make
    :meth:`validate` enforce the healthy-floor invariant over the whole
    timeline — including simultaneous domain wipes — at construction.
    """

    events: Tuple[ChaosEvent, ...] = ()
    seed: Optional[int] = None
    description: str = ""
    topology: Optional[FailureDomainTopology] = None
    min_healthy: Optional[int] = None
    n_devices: Optional[int] = None

    @classmethod
    def from_events(cls, events: Iterable[ChaosEvent],
                    seed: Optional[int] = None,
                    description: str = "",
                    topology: Optional[FailureDomainTopology] = None,
                    min_healthy: Optional[int] = None,
                    n_devices: Optional[int] = None) -> "FaultPlan":
        if n_devices is None and topology is not None:
            n_devices = topology.num_devices
        plan = cls(tuple(sorted(events)), seed=seed, description=description,
                   topology=topology, min_healthy=min_healthy,
                   n_devices=n_devices)
        plan.validate()
        return plan

    def validate(self) -> None:
        """Check the timeline is well-formed: crash/revive alternate per
        device, straggler windows nest correctly, network windows do not
        overlap, and — when ``min_healthy`` is declared — the concurrent
        down set never drops the pool below the floor."""
        if self.min_healthy is not None and self.n_devices is None:
            raise ValueError(
                "min_healthy validation needs n_devices (or a topology)")
        down: Dict[int, bool] = {}
        straggling: Dict[int, bool] = {}
        network_open = False
        last_t = 0.0
        for ev in self.events:
            if ev.time < last_t:
                raise ValueError("fault plan events must be time-sorted")
            last_t = ev.time
            if ev.kind == CRASH:
                if down.get(ev.device_id):
                    raise ValueError(
                        f"device {ev.device_id} crashed twice without revive")
                down[ev.device_id] = True
                if self.min_healthy is not None:
                    healthy = self.n_devices - sum(down.values())
                    if healthy < self.min_healthy:
                        raise ValueError(
                            f"plan drops below min_healthy={self.min_healthy} "
                            f"at t={ev.time:g}: only {healthy} of "
                            f"{self.n_devices} device(s) up")
            elif ev.kind == REVIVE:
                if not down.get(ev.device_id):
                    raise ValueError(
                        f"device {ev.device_id} revived without a crash")
                down[ev.device_id] = False
            elif ev.kind == STRAGGLER_START:
                if straggling.get(ev.device_id):
                    raise ValueError(
                        f"device {ev.device_id} straggler window overlaps")
                straggling[ev.device_id] = True
            elif ev.kind == STRAGGLER_END:
                if not straggling.get(ev.device_id):
                    raise ValueError(
                        f"device {ev.device_id} straggler cleared while clean")
                straggling[ev.device_id] = False
            elif ev.kind == NETWORK_START:
                if network_open:
                    raise ValueError("network degradation windows overlap")
                network_open = True
            elif ev.kind == NETWORK_END:
                if not network_open:
                    raise ValueError("network window closed while clean")
                network_open = False

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def count(self, kind: str) -> int:
        return sum(1 for ev in self.events if ev.kind == kind)

    @property
    def crashes(self) -> int:
        return self.count(CRASH)

    @property
    def stragglers(self) -> int:
        return self.count(STRAGGLER_START)

    @property
    def network_windows(self) -> int:
        return self.count(NETWORK_START)

    @property
    def derates(self) -> int:
        """Derate steps that actually slow a device (1.0 restores are not
        degradation, they are the curve clearing itself)."""
        return sum(1 for ev in self.events
                   if ev.kind == DERATE and ev.factor < 1.0)

    def describe(self) -> str:
        """A human-readable timeline for CLI output."""
        header = self.description or "fault plan"
        lines = [f"{header}: {self.crashes} crash(es), "
                 f"{self.stragglers} straggler window(s), "
                 f"{self.network_windows} network window(s), "
                 f"{self.derates} derate step(s)"]
        if self.topology is not None:
            lines.append(f"  topology: {self.topology.describe()}")
        if self.min_healthy is not None:
            lines.append(f"  floor: >= {self.min_healthy} of "
                         f"{self.n_devices} device(s) healthy at all times")
        for ev in self.events:
            target = f" dev{ev.device_id}" if ev.device_id >= 0 else ""
            extra = ""
            if ev.kind == STRAGGLER_START:
                extra = f" @{ev.factor:g}x speed"
            elif ev.kind == NETWORK_START:
                extra = f" @{ev.factor:g}x cost"
            elif ev.kind == DERATE:
                extra = (" restored" if ev.factor == 1.0
                         else f" @{ev.factor:g}x speed")
            lines.append(f"  t={ev.time:8.3f}  {ev.kind:16s}{target}{extra}")
        return "\n".join(lines)


def domain_wipe_events(topology: FailureDomainTopology, level: str,
                       index: int, time: float, repair: float,
                       ) -> List[ChaosEvent]:
    """Crash every device of one failure domain at ``time``, revive all at
    ``repair`` — the atomic rack-power / ToR-switch wipe primitive shared
    by :func:`random_plan`, the blast-radius benchmark, and the golden
    wipe/recover fixture."""
    if repair <= time:
        raise ValueError(f"repair {repair:g} must follow the wipe {time:g}")
    members = topology.members(level, index)
    events: List[ChaosEvent] = []
    for dev in members:
        events.append(ChaosEvent(time, CRASH, dev))
        events.append(ChaosEvent(repair, REVIVE, dev))
    return events


def random_plan(*, seed: int, duration: float,
                devices: Union[int, Sequence[int]],
                crash_rate: float = 0.0, mttr: float = 2.0,
                straggler_rate: float = 0.0, straggler_factor: float = 0.6,
                straggler_duration: float = 2.0,
                network_rate: float = 0.0, network_factor: float = 3.0,
                network_duration: float = 1.5,
                min_healthy: int = 1,
                topology: Optional[FailureDomainTopology] = None,
                wipe_rate: float = 0.0, wipe_level: str = RACK,
                correlated_stragglers: bool = False,
                derate_rate: float = 0.0,
                derate_curve: Optional[DerateCurve] = None) -> FaultPlan:
    """Draw a rate-parameterized fault plan from an explicit seed.

    Crashes arrive as a Poisson process at ``crash_rate`` per simulated
    second cluster-wide; each picks a uniformly random currently-healthy
    device and revives it after an exponential repair time with mean
    ``mttr``.  Draws that would leave fewer than ``min_healthy`` devices up
    are skipped — a scenario that kills the whole pool tests nothing.
    Straggler and network windows are independent Poisson processes with
    exponential durations; overlapping windows (same device / same link)
    are skipped rather than merged so the plan stays trivially valid.

    With a ``topology``, three correlated modes open up:

    * ``wipe_rate`` draws domain wipes at ``wipe_level`` (``"rack"`` or
      ``"switch"``): every device of a sampled fully-healthy domain crashes
      at one instant and revives together after an exponential ``mttr``
      repair.  A topology whose largest ``wipe_level`` domain cannot be
      wiped without violating ``min_healthy`` is rejected up front — the
      floor is a property of the topology, not of the dice.
    * ``correlated_stragglers`` turns each straggler onset into a whole-rack
      window (shared cooling), replacing the independent per-device draw.
    * ``derate_rate`` draws partial-degradation onsets; each stamps
      ``derate_curve`` (default a :class:`ThermalRamp`) onto a random
      healthy device as piecewise DERATE events.

    All randomness flows from ``derive_rng(seed, DOMAIN_CHAOS, stream)``
    with one stream per mode — same seed, same plan, always, and plans
    drawn before the correlated modes existed are byte-identical.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if isinstance(devices, int):
        devices = range(devices)  # a pool size means ids 0..n-1
    if not devices:
        raise ValueError("need at least one device to perturb")
    if min_healthy < 1:
        raise ValueError("min_healthy must be >= 1")
    devices = sorted(devices)
    if topology is not None:
        topology.validate_devices(devices, owner="plan")
    if (wipe_rate > 0 or correlated_stragglers) and topology is None:
        raise ValueError("correlated modes (wipe_rate, correlated_stragglers)"
                         " need a failure-domain topology")
    if wipe_rate > 0:
        radius = topology.blast_radius(wipe_level)
        if len(devices) - radius < min_healthy:
            raise ValueError(
                f"a single {wipe_level} wipe (blast radius {radius}) would "
                f"leave {len(devices) - radius} of {len(devices)} device(s) "
                f"healthy, below min_healthy={min_healthy}")
    events: List[ChaosEvent] = []
    down: Dict[int, float] = {}  # device -> revive time (wipes + crashes)

    if wipe_rate > 0:
        rng = derive_rng(seed, DOMAIN_CHAOS, _STREAM_WIPE)
        domains = topology.domains(wipe_level)
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / wipe_rate))
            if t >= duration:
                break
            healthy = [d for d in devices if down.get(d, 0.0) <= t]
            # A wipe needs its whole domain up (half a rack has no PDU to
            # trip) and must respect the floor against everything already
            # down at this instant.
            candidates = [
                i for i, members in enumerate(domains)
                if all(down.get(d, 0.0) <= t for d in members)
                and len(healthy) - len(members) >= min_healthy]
            if not candidates:
                continue
            idx = candidates[int(rng.integers(len(candidates)))]
            repair = t + float(rng.exponential(mttr))
            for dev in domains[idx]:
                down[dev] = repair
                events.append(ChaosEvent(t, CRASH, dev))
                events.append(ChaosEvent(repair, REVIVE, dev))

    if crash_rate > 0:
        rng = derive_rng(seed, DOMAIN_CHAOS, _STREAM_CRASH)
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / crash_rate))
            if t >= duration:
                break
            healthy = [d for d in devices if down.get(d, 0.0) <= t]
            if len(healthy) <= min_healthy:
                continue
            dev = healthy[int(rng.integers(len(healthy)))]
            repair = t + float(rng.exponential(mttr))
            down[dev] = repair
            events.append(ChaosEvent(t, CRASH, dev))
            events.append(ChaosEvent(repair, REVIVE, dev))

    if straggler_rate > 0:
        rng = derive_rng(seed, DOMAIN_CHAOS, _STREAM_STRAGGLER)
        t = 0.0
        slow_until: Dict[int, float] = {}
        while True:
            t += float(rng.exponential(1.0 / straggler_rate))
            if t >= duration:
                break
            end = t + float(rng.exponential(straggler_duration))
            if correlated_stragglers:
                # Shared-cooling mode: the whole sampled rack slows at once.
                racks = topology.domains(RACK)
                group = racks[int(rng.integers(len(racks)))]
            else:
                group = (devices[int(rng.integers(len(devices)))],)
            if any(slow_until.get(d, 0.0) > t for d in group):
                continue
            for dev in group:
                slow_until[dev] = end
                events.append(ChaosEvent(t, STRAGGLER_START, dev,
                                         factor=straggler_factor))
                events.append(ChaosEvent(end, STRAGGLER_END, dev))

    if network_rate > 0:
        rng = derive_rng(seed, DOMAIN_CHAOS, _STREAM_NETWORK)
        t = 0.0
        open_until = 0.0
        while True:
            t += float(rng.exponential(1.0 / network_rate))
            if t >= duration:
                break
            end = t + float(rng.exponential(network_duration))
            if open_until > t:
                continue
            open_until = end
            events.append(ChaosEvent(t, NETWORK_START, factor=network_factor))
            events.append(ChaosEvent(end, NETWORK_END))

    if derate_rate > 0:
        curve = derate_curve if derate_curve is not None else ThermalRamp()
        rng = derive_rng(seed, DOMAIN_CHAOS, _STREAM_DERATE)
        t = 0.0
        derated_until: Dict[int, float] = {}
        while True:
            t += float(rng.exponential(1.0 / derate_rate))
            if t >= duration:
                break
            dev = devices[int(rng.integers(len(devices)))]
            # One curve at a time per device, and a down device has nothing
            # left to derate.
            if derated_until.get(dev, 0.0) > t or down.get(dev, 0.0) > t:
                continue
            derated_until[dev] = t + curve.duration
            events.extend(curve.events(dev, t))

    n_devices = len(devices)
    return FaultPlan.from_events(
        events, seed=seed,
        description=(f"random plan (seed {seed}, {n_devices} devices, "
                     f"{duration:g}s)"),
        topology=topology, min_healthy=min_healthy, n_devices=n_devices)
