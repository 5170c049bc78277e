"""Baselines the paper compares against."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "GradientAccumulationTrainer": "repro.baselines.grad_accumulation",
    "TFStarConfig": "repro.baselines.tfstar",
    "TFStarTrainer": "repro.baselines.tfstar",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
