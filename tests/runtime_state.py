"""Read-only views of runtime state that only tests look at.

The event queue's memory shape and the device pool's free list are read
here from the state production keeps, so no ``src/`` path compiles an
accessor that nothing in it calls.
"""

from __future__ import annotations

from typing import Dict, Tuple


def queue_stats(queue) -> Dict[str, int]:
    """An :class:`~repro.runtime.EventQueue`'s memory shape: live events
    and heap entries (live ones plus cancelled ones not yet dropped) — the
    first thing to print when an event-ordering or memory question comes
    up."""
    return {"live": len(queue._live), "index_entries": len(queue._heap)}


def free_ids(pool) -> Tuple[int, ...]:
    """A :class:`~repro.runtime.DevicePool`'s free device ids, ascending."""
    return tuple(pool._free)
