"""Loss functions.

Losses return *mean-per-example* values and gradients already divided by the
local batch size, matching the convention used by TensorFlow/Horovod that the
paper's weighted gradient synchronization (§5.2) is defined against.

Each built-in loss also has a *segmented* kernel (``_LOSS``), which the fused
backend's training step looks up through
:func:`repro.core.backends.vectorized.loss_kernel`: the per-virtual-node
losses and gradients of a batch that concatenates every node's shard, each
bit-identical to ``forward``/``backward`` on that shard alone.  They live
here, not with the layer kernels, because only training loads this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.framework.layers import softmax

if TYPE_CHECKING:
    from repro.core.backends.vectorized import VectorizedRun

__all__ = ["Loss", "SoftmaxCrossEntropy", "MSELoss"]


class Loss:
    """Interface: ``forward(logits, targets) -> scalar``, then ``backward()``."""

    def forward(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(outputs, targets)


class SoftmaxCrossEntropy(Loss):
    """Mean cross-entropy over integer class targets."""

    def __init__(self, label_smoothing: float = 0.0) -> None:
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
        self.label_smoothing = label_smoothing
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"expected (batch, classes) logits, got shape {logits.shape}")
        n, k = logits.shape
        targets = np.asarray(targets, dtype=np.int64)
        if targets.shape != (n,):
            raise ValueError(f"targets shape {targets.shape} != ({n},)")
        probs = softmax(logits, axis=-1)
        eps = self.label_smoothing
        onehot = np.zeros_like(probs)
        onehot[np.arange(n), targets] = 1.0
        soft = onehot * (1 - eps) + eps / k
        self._cache = (probs, soft)
        logp = np.log(np.clip(probs, 1e-12, None))
        return float(-(soft * logp).sum() / n)

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        probs, soft = self._cache
        n = probs.shape[0]
        return (probs - soft) / n


class MSELoss(Loss):
    """Mean squared error."""

    def __init__(self) -> None:
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        targets = np.asarray(targets, dtype=outputs.dtype)
        if targets.shape != outputs.shape:
            raise ValueError(f"shape mismatch: {outputs.shape} vs {targets.shape}")
        self._cache = (outputs, targets)
        return float(np.mean((outputs - targets) ** 2))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        outputs, targets = self._cache
        return 2.0 * (outputs - targets) / outputs.size


# ---------------------------------------------------------------------------
# Segmented kernels: per-virtual-node losses and loss gradients of a fused
# run's segments (see the module doc).
# ---------------------------------------------------------------------------


def _softmax_xent(loss_fn: SoftmaxCrossEntropy, run: VectorizedRun, logits, targets):
    if logits.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got {logits.shape}")
    b, k = logits.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (b,):
        raise ValueError(f"targets shape {targets.shape} != {(b,)}")
    probs = softmax(logits, axis=-1)
    eps = loss_fn.label_smoothing
    onehot = np.zeros_like(probs)
    onehot[np.arange(b), targets] = 1.0
    soft = onehot * (1 - eps) + eps / k
    logp = np.log(np.clip(probs, 1e-12, None))
    weighted = soft * logp
    losses = [float(-weighted[start:end].sum() / (end - start))
              for start, end in run.segments]
    # Reference divides by the shard size; dividing by a per-row column with
    # the same value is the identical elementwise operation.
    n_rows = run.row_scale([float(s) for s in run.sizes], probs.ndim,
                           dtype=probs.dtype)
    return losses, (probs - soft) / n_rows


def _mse(loss_fn: MSELoss, run: VectorizedRun, outputs, targets):
    targets = np.asarray(targets, dtype=outputs.dtype)
    if targets.shape != outputs.shape:
        raise ValueError(f"shape mismatch: {outputs.shape} vs {targets.shape}")
    sq = (outputs - targets) ** 2
    losses = [float(np.mean(sq[start:end])) for start, end in run.segments]
    per_example = int(np.prod(outputs.shape[1:], dtype=np.int64))
    sizes = [float(s * per_example) for s in run.sizes]
    n_rows = run.row_scale(sizes, outputs.ndim, dtype=outputs.dtype)
    return losses, 2.0 * (outputs - targets) / n_rows


# Keyed on the exact class: a subclass may change the math, so the fused
# backend refuses it until it registers a kernel of its own.
_LOSS = {SoftmaxCrossEntropy: _softmax_xent, MSELoss: _mse}
