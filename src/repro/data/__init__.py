"""Deterministic synthetic datasets and the sharding-aware batch loader."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BatchLoader": "repro.data.loader",
    "Compose": "repro.data.augment",
    "GaussianNoise": "repro.data.augment",
    "RandomCrop": "repro.data.augment",
    "RandomHorizontalFlip": "repro.data.augment",
    "TokenDropout": "repro.data.augment",
    "Dataset": "repro.data.datasets",
    "GlobalBatch": "repro.data.loader",
    "make_dataset": "repro.data.datasets",
    "synthetic_image_dataset": "repro.data.datasets",
    "synthetic_text_dataset": "repro.data.datasets",
    "synthetic_vector_dataset": "repro.data.datasets",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
