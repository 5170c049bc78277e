"""The shared discrete-event runtime under every simulated subsystem.

One event loop — :class:`Runtime` over a slab-backed :class:`EventQueue`
with deterministic ``(time, seq)`` tie-breaking — drives the elastic
cluster simulator, the serving request router, and the co-scheduler that
runs both on one shared :class:`DevicePool`.  Processes (:class:`Process`)
post events on ``runtime.queue`` and cancel or test them by the integer
handle ``post`` returns; the runtime dispatches them in time order, keeps
the simulated time in ``runtime.now``, and can journal every fired event
to a JSONL :class:`EventTrace`.  There is one queue, one way to schedule
on it, and one dispatch: each event is one call of its action.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DeviceLease": "repro.runtime.pool",
    "DevicePool": "repro.runtime.pool",
    "EventQueue": "repro.runtime.core",
    "EventTrace": "repro.runtime.trace",
    "LeaseError": "repro.runtime.pool",
    "Process": "repro.runtime.core",
    "Runtime": "repro.runtime.core",
    "open_trace": "repro.runtime.trace",
    "read_trace": "repro.runtime.trace",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
