"""The shared discrete-event runtime under every simulated subsystem.

One event loop — :class:`Runtime` over a :class:`SimClock` and a slab-backed
:class:`EventQueue` with deterministic ``(time, seq)`` tie-breaking — drives
the elastic cluster simulator, the serving request router, and the
co-scheduler that runs both on one shared :class:`DevicePool`.  Processes
(:class:`Process`) post events; the runtime dispatches them in time order
and can journal every fired event to a JSONL :class:`EventTrace`.  There
is one queue: its index is a heap while few events are live and a calendar
time wheel above that, chosen by the live population, never by the caller.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DeviceLease": "repro.runtime.pool",
    "DevicePool": "repro.runtime.pool",
    "Event": "repro.runtime.core",
    "EventQueue": "repro.runtime.core",
    "EventTrace": "repro.runtime.trace",
    "LeaseError": "repro.runtime.pool",
    "Process": "repro.runtime.core",
    "Runtime": "repro.runtime.core",
    "SimClock": "repro.runtime.core",
    "batch_action": "repro.runtime.core",
    "open_trace": "repro.runtime.trace",
    "read_trace": "repro.runtime.trace",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
