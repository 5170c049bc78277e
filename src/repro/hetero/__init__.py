"""Heterogeneous training (§5): solver and virtual-node assignment."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "HeteroAssignment": "repro.hetero.assignment",
    "HeterogeneousSolver": "repro.hetero.solver",
    "TypeAssignment": "repro.hetero.assignment",
    "materialize": "repro.hetero.assignment",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
