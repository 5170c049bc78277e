"""Optimizers: whole-arena updates of a model's flat parameter buffer.

Updates are applied *in place* so that every virtual node's view of the model
(which aliases the same arrays) advances together — mirroring how the real
system keeps a single cached copy of the model per accelerator (§3.2).

:meth:`Optimizer.step` takes the two arena views a training step holds —
``model.parameters()`` and the averaged gradients, both
:class:`~repro.framework.arena.ArenaView` s on one
:class:`~repro.framework.arena.FlatLayout` — and each optimizer's
``_update`` advances the whole parameter arena in O(1) NumPy calls.  Slot
variables are one flat array per slot kind (``velocity``; Adam's ``m`` and
``v``) in the same layout; :meth:`Optimizer.state_dict` returns copies of
them, which is what a checkpoint stores.  A plain dict, gradients on another
layout, or a restored slot whose size is not the layout's raise before any
parameter or slot changes.

Every update is **bit-identical** to the per-key loop
(``PerKeyOptimizer`` in ``tests/oracles/serial_step.py``): the updates are
elementwise (order-free across parameters), scalar factors are computed with
the same IEEE operations, and LAMB's per-parameter trust ratios use the same
BLAS dot that ``np.linalg.norm`` performs on each parameter (a segmented
``np.add.reduceat`` would differ in the last ulp, so it is deliberately not
used here — see :meth:`FlatLayout.segment_dots`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.framework.arena import ArenaView, FlatLayout

__all__ = ["Optimizer", "SGD", "Momentum", "Adam", "AdamW", "LAMB"]


class Optimizer:
    """Base optimizer; subclasses implement :meth:`_update` over the whole
    arena and name their slot kinds in ``SLOTS``."""

    SLOTS: Tuple[str, ...] = ()

    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.step_count = 0
        self._slots: Dict[str, np.ndarray] = {}
        self._layout: Optional[FlatLayout] = None  # the layout _slots were checked for

    def step(self, params: ArenaView, grads: ArenaView) -> None:
        """Apply one update to the parameter arena behind ``params``."""
        layout = getattr(params, "layout", None)
        other = getattr(grads, "layout", None)
        if layout is None or other is None:
            raise TypeError(
                f"{type(self).__name__}.step takes arena views (a model's "
                f"parameters() with a FlatTensorArena installed), got "
                f"{type(params).__name__} and {type(grads).__name__}")
        if other is not layout and other != layout:
            raise ValueError("gradients are on another layout than the parameters")
        if layout is not self._layout:
            self._bind(layout)
        self.step_count += 1
        self._update(layout, params.flat, grads.flat)

    def _bind(self, layout: FlatLayout) -> None:
        """Check restored slots against ``layout``, or zero fresh ones."""
        for name, slot in self._slots.items():
            if slot.shape != (layout.total_size,):
                raise ValueError(
                    f"optimizer slot {name!r} has shape {slot.shape}, the "
                    f"parameter layout needs ({layout.total_size},)")
        if not self._slots:
            self._slots = {name: layout.alloc() for name in self.SLOTS}
        self._layout = layout

    def _update(self, layout: FlatLayout, params_flat: np.ndarray,
                grads_flat: np.ndarray) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, np.ndarray]:
        """A copy of each slot, ``{slot kind: flat array}`` (empty before the
        first step): the arrays a checkpoint writes as ``optimizer.flat/<slot>``."""
        return {name: slot.copy() for name, slot in self._slots.items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore slots saved by :meth:`state_dict`: every slot kind of this
        optimizer, or none (saved before its first step)."""
        if state and set(state) != set(self.SLOTS):
            raise ValueError(
                f"{type(self).__name__} has slots {list(self.SLOTS)}, the state "
                f"holds {sorted(state)}")
        self._slots = {name: np.array(state[name]) for name in self.SLOTS
                       if name in state}
        self._layout = None


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def _update(self, layout, params_flat, grads_flat):
        params_flat -= self.lr * grads_flat  # one axpy over the whole arena


class Momentum(Optimizer):
    """SGD with (optionally Nesterov) momentum."""

    SLOTS = ("velocity",)

    def __init__(self, lr: float, momentum: float = 0.9, nesterov: bool = False) -> None:
        super().__init__(lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.nesterov = nesterov

    def _update(self, layout, params_flat, grads_flat):
        v = self._slots["velocity"]
        v *= self.momentum
        v += grads_flat
        if self.nesterov:
            params_flat -= self.lr * (grads_flat + self.momentum * v)
        else:
            params_flat -= self.lr * v


class Adam(Optimizer):
    """Adam with bias correction."""

    SLOTS = ("m", "v")

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
        super().__init__(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def _moments(self, grads_flat: np.ndarray):
        """Advance both moments; return them bias-corrected."""
        m, v = self._slots["m"], self._slots["v"]
        m *= self.beta1
        m += (1 - self.beta1) * grads_flat
        v *= self.beta2
        v += (1 - self.beta2) * grads_flat * grads_flat
        m_hat = m / (1 - self.beta1**self.step_count)
        v_hat = v / (1 - self.beta2**self.step_count)
        return m_hat, v_hat

    def _update(self, layout, params_flat, grads_flat):
        m_hat, v_hat = self._moments(grads_flat)
        params_flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamW(Adam):
    """Adam with decoupled weight decay."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.01) -> None:
        super().__init__(lr, beta1, beta2, eps)
        self.weight_decay = weight_decay

    def _update(self, layout, params_flat, grads_flat):
        m_hat, v_hat = self._moments(grads_flat)
        params_flat -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                  + self.weight_decay * params_flat)


class LAMB(AdamW):
    """Layer-wise adaptive moments (You et al.), used for huge-batch training.

    Included because the paper's motivation cites LAMB-style optimizers as the
    per-workload tuning VirtualFlow makes unnecessary; having it implemented
    lets benchmarks contrast "retune with LAMB" against "fix batch via VNs".
    """

    def _update(self, layout, params_flat, grads_flat):
        m_hat, v_hat = self._moments(grads_flat)
        update = m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * params_flat
        # Per-parameter trust ratios over arena segments.  segment_dots is
        # the same BLAS dot np.linalg.norm ravels each parameter into, so
        # these norms are bit-identical to a per-parameter loop's.
        w_norm = np.sqrt(layout.segment_dots(params_flat))
        u_norm = np.sqrt(layout.segment_dots(update))
        safe_u = np.where(u_norm > 0, u_norm, 1.0)
        trust = np.where((w_norm > 0) & (u_norm > 0), w_norm / safe_u, 1.0)
        # A per-parameter loop computes (lr * trust) per parameter, then
        # scales the update; broadcasting the per-segment factor elementwise
        # is the identical arithmetic.
        params_flat -= np.repeat(self.lr * trust, layout.sizes) * update
