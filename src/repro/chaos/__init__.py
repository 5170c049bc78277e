"""Chaos engineering on the unified runtime: faults as first-class events.

The paper's §7 observation is that elasticity doubles as fault tolerance —
virtual nodes migrate off failed workers instead of restarting from stale
checkpoints.  This package stress-tests that claim: a seeded
:class:`FaultPlan` schedules device crash/revive, straggler windows,
network-degradation windows, and partial-degradation (derate) curves;
:class:`ChaosProcess` injects them as ordinary events on the shared
discrete-event runtime; :class:`ChaosController` fans each one out to the
device pool, the perf-model conditions, and the training/serving/
co-scheduling consumers.  A :class:`FailureDomainTopology` (device → rack →
switch tree) unlocks correlated modes — atomic domain wipes and rack-wide
straggler windows.  Every scenario is deterministic under its seed.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CRASH": "repro.chaos.plan",
    "DERATE": "repro.chaos.plan",
    "DEVICE": "repro.chaos.topology",
    "LEVELS": "repro.chaos.topology",
    "NETWORK_END": "repro.chaos.plan",
    "NETWORK_START": "repro.chaos.plan",
    "RACK": "repro.chaos.topology",
    "REVIVE": "repro.chaos.plan",
    "STRAGGLER_END": "repro.chaos.plan",
    "STRAGGLER_START": "repro.chaos.plan",
    "SWITCH": "repro.chaos.topology",
    "ChaosController": "repro.chaos.process",
    "ChaosEvent": "repro.chaos.plan",
    "ChaosProcess": "repro.chaos.process",
    "DerateCurve": "repro.chaos.degradation",
    "ECCThrottle": "repro.chaos.degradation",
    "FailureDomainTopology": "repro.chaos.topology",
    "FaultPlan": "repro.chaos.plan",
    "ThermalRamp": "repro.chaos.degradation",
    "domain_wipe_events": "repro.chaos.plan",
    "random_plan": "repro.chaos.plan",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
