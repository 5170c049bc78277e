"""Shared utilities: deterministic seeding, units, and table formatting."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "GB": "repro.utils.units",
    "KB": "repro.utils.units",
    "MB": "repro.utils.units",
    "check_positive": "repro.utils.validation",
    "check_power_of_two_like": "repro.utils.validation",
    "derive_rng": "repro.utils.seeding",
    "derive_seed": "repro.utils.seeding",
    "format_bytes": "repro.utils.units",
    "format_duration": "repro.utils.units",
    "format_table": "repro.utils.tabulate",
    "power_of_two_like_sizes": "repro.utils.validation",
    "vn_rng": "repro.utils.seeding",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
