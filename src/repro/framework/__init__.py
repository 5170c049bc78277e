"""A small, deterministic, NumPy deep-learning framework.

This is the training substrate VirtualFlow runs on — the stand-in for
TensorFlow in the original system.  Layers implement explicit
``forward``/``backward`` passes (no taped autograd), which keeps execution
order — and therefore floating-point results — fully deterministic.  All
stochasticity (initialization, dropout) is injected through explicit
:class:`numpy.random.Generator` arguments so the virtual-node layer above can
key randomness to logical, placement-free coordinates.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Adam": "repro.framework.optimizers",
    "AdamW": "repro.framework.optimizers",
    "ArenaView": "repro.framework.arena",
    "FlatLayout": "repro.framework.arena",
    "FlatTensorArena": "repro.framework.arena",
    "ConstantSchedule": "repro.framework.schedules",
    "CosineSchedule": "repro.framework.schedules",
    "BatchNorm": "repro.framework.layers",
    "Conv2D": "repro.framework.layers",
    "Dense": "repro.framework.layers",
    "Dropout": "repro.framework.layers",
    "Embedding": "repro.framework.layers",
    "Flatten": "repro.framework.layers",
    "GELU": "repro.framework.layers",
    "GlobalAvgPool2D": "repro.framework.layers",
    "LAMB": "repro.framework.optimizers",
    "LayerNorm": "repro.framework.layers",
    "Loss": "repro.framework.losses",
    "MLPClassifier": "repro.framework.models",
    "MSELoss": "repro.framework.losses",
    "MaxPool2D": "repro.framework.layers",
    "Module": "repro.framework.layers",
    "Momentum": "repro.framework.optimizers",
    "MultiHeadSelfAttention": "repro.framework.layers",
    "Optimizer": "repro.framework.optimizers",
    "ReLU": "repro.framework.layers",
    "Residual": "repro.framework.layers",
    "ResourceFootprint": "repro.framework.models",
    "SGD": "repro.framework.optimizers",
    "Sequential": "repro.framework.layers",
    "SmallCNN": "repro.framework.models",
    "SoftmaxCrossEntropy": "repro.framework.losses",
    "StepDecaySchedule": "repro.framework.schedules",
    "Tanh": "repro.framework.layers",
    "TinyBert": "repro.framework.models",
    "TinyTransformer": "repro.framework.models",
    "TransformerBlock": "repro.framework.layers",
    "WORKLOADS": "repro.framework.models",
    "Workload": "repro.framework.models",
    "WarmupSchedule": "repro.framework.schedules",
    "accuracy": "repro.framework.metrics",
    "build_model": "repro.framework.models",
    "linear_scaling_rule": "repro.framework.schedules",
    "get_workload": "repro.framework.models",
    "top_k_accuracy": "repro.framework.metrics",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
