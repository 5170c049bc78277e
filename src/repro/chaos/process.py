"""Chaos injection as first-class events on the shared runtime.

:class:`ChaosProcess` posts every :class:`~repro.chaos.plan.FaultPlan` entry
onto the runtime's event queue at start, so injected failures are dispatched
in the same deterministic ``(time, seq)`` order as arrivals, dispatches, and
rescales — and journal into ``--trace-out`` like any other event.

:class:`ChaosController` is the fan-out: it applies each event to the
physical substrate (the :class:`~repro.runtime.pool.DevicePool` quarantine,
the shared :class:`~repro.hardware.perfmodel.ClusterConditions`) and then
notifies whichever consumers are wired in — the training cluster process
(recovery stalls, derated step rates), the serving router (re-admission
with retry), and the co-scheduler (healthy-capacity budget repair).  Each
listener is optional so the controller drives pure-training, pure-serving,
and co-scheduled scenarios alike.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.chaos.plan import (CRASH, DERATE, NETWORK_END, NETWORK_START,
                              REVIVE, STRAGGLER_END, STRAGGLER_START,
                              ChaosEvent, FaultPlan)
from repro.hardware.perfmodel import ClusterConditions
from repro.runtime.pool import DevicePool

__all__ = ["ChaosController", "ChaosProcess"]


class ChaosController:
    """Applies chaos events and routes reactions to registered consumers."""

    def __init__(self, pool: DevicePool, conditions: ClusterConditions, *,
                 training=None, router=None, cosched=None) -> None:
        self.pool = pool
        self.conditions = conditions
        self.training = training
        self.router = router
        self.cosched = cosched
        # (time, kind, device_id, factor, owner-of-revoked-lease-or-"")
        self.fired: List[Tuple[float, str, int, float, str]] = []

    # -- event application ----------------------------------------------------

    def apply(self, now: float, event: ChaosEvent) -> Dict[str, object]:
        """Apply one plan entry; returns the trace payload for the journal."""
        kind = event.kind
        owner = ""
        if kind == CRASH:
            lease = self.pool.fail_device(event.device_id, now)
            owner = lease.owner if lease is not None else ""
            if (self.router is not None
                    and lease is getattr(self.router, "lease", None)):
                self.router.on_device_failed(now, event.device_id)
            elif self.training is not None and lease is not None:
                self.training.on_device_failed(now, event.device_id, lease)
            self._repair_budget(now)
        elif kind == REVIVE:
            self.pool.revive_device(event.device_id, now)
            if self.router is not None:
                self.router.on_device_revived(now)
            self._repair_budget(now)
        elif kind == STRAGGLER_START:
            self.conditions.set_straggler(event.device_id, event.factor)
            self._conditions_changed(now)
        elif kind == STRAGGLER_END:
            self.conditions.clear_straggler(event.device_id)
            self._conditions_changed(now)
        elif kind == NETWORK_START:
            self.conditions.network_factor = event.factor
            self._conditions_changed(now)
        elif kind == NETWORK_END:
            self.conditions.network_factor = 1.0
            self._conditions_changed(now)
        elif kind == DERATE:
            self.conditions.set_derate(event.device_id, event.factor)
            self._conditions_changed(now)
            # Unlike transient straggler jitter, a derate is a sustained
            # capacity change the co-scheduler's budget should track.
            if self.cosched is not None:
                self.cosched.on_capacity_changed(now)
        self.fired.append((now, kind, event.device_id, event.factor, owner))
        data: Dict[str, object] = {"chaos": kind}
        if event.device_id >= 0:
            data["device"] = event.device_id
        if kind in (STRAGGLER_START, NETWORK_START, DERATE):
            data["factor"] = event.factor
        if owner:
            data["owner"] = owner
        data["healthy"] = self.pool.healthy_capacity
        return data

    def _repair_budget(self, now: float) -> None:
        """Restore the train-budget invariant after capacity changed."""
        if self.cosched is not None:
            self.cosched.on_capacity_changed(now)
        elif self.training is not None:
            # No co-scheduler: training alone tracks healthy capacity.
            self.training.set_budget(
                now, min(self.training.gpu_budget, self.pool.healthy_capacity))

    def _conditions_changed(self, now: float) -> None:
        if self.training is not None:
            self.training.on_conditions_changed(now)

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """A JSON-able digest of everything that fired and every reaction."""
        out: Dict[str, object] = {
            "events": [list(entry) for entry in self.fired],
            "crashes": sum(1 for e in self.fired if e[1] == CRASH),
            "revives": sum(1 for e in self.fired if e[1] == REVIVE),
            "straggler_windows": sum(
                1 for e in self.fired if e[1] == STRAGGLER_START),
            "network_windows": sum(
                1 for e in self.fired if e[1] == NETWORK_START),
        }
        derate_events = sum(1 for e in self.fired if e[1] == DERATE)
        if derate_events:  # keep pre-derate digests byte-identical
            out["derate_events"] = derate_events
        if self.router is not None:
            failures = list(getattr(self.router.report, "failures", ()))
            out["serving_failures"] = [list(f) for f in failures]
            out["requeued_requests"] = sum(f[2] for f in failures)
        if self.training is not None:
            recoveries = list(getattr(self.training, "recoveries", ()))
            out["train_recoveries"] = [list(r) for r in recoveries]
            out["checkpoint_restores"] = sum(
                1 for r in recoveries if r[3] == "checkpoint")
        return out


class ChaosProcess:
    """A runtime process that fires a :class:`FaultPlan` event by event."""

    name = "chaos"

    def __init__(self, plan: FaultPlan, controller: ChaosController) -> None:
        plan.validate()
        self.plan = plan
        self.controller = controller

    def start(self, runtime) -> None:
        for ev in self.plan.events:
            runtime.queue.post(ev.time,
                               (lambda t, ev=ev: self.controller.apply(t, ev)),
                               kind=f"chaos_{ev.kind}", actor=self.name)
