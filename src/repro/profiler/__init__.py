"""Offline profiling (§5.1.1): throughput-vs-batch-size curves per device type."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "OfflineProfiler": "repro.profiler.offline",
    "ProfileStore": "repro.profiler.profiles",
    "ThroughputProfile": "repro.profiler.profiles",
    "load_store": "repro.profiler.io",
    "profile_from_dict": "repro.profiler.io",
    "profile_to_dict": "repro.profiler.io",
    "save_store": "repro.profiler.io",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
