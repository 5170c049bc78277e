"""Optimizers operating on flat parameter/gradient dicts.

Updates are applied *in place* so that every virtual node's view of the model
(which aliases the same arrays) advances together — mirroring how the real
system keeps a single cached copy of the model per accelerator (§3.2).

Flat fast path
--------------
When both ``params`` and ``grads`` are arena views sharing one
:class:`~repro.framework.arena.FlatLayout` (see ``repro.framework.arena``),
:meth:`Optimizer.step` dispatches to :meth:`Optimizer._update_flat`, which
updates the entire parameter arena in O(1) NumPy calls instead of
O(num_params) Python iterations.  Slot variables (velocity, Adam moments)
are then kept as one flat array each, with the per-key dict rebound to
layout views so ``state_dict``/``load_state_dict`` and any interleaved
dict-path steps stay coherent.

Every flat update is **bit-identical** to the per-key loop: the updates are
elementwise (order-free across parameters), scalar factors are computed with
the same IEEE operations, and LAMB's per-parameter trust ratios use the same
BLAS dot that ``np.linalg.norm`` performs on each parameter (a segmented
``np.add.reduceat`` would differ in the last ulp, so it is deliberately not
used here — see :meth:`FlatLayout.segment_dots`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.framework.arena import ArenaView, FlatLayout, flat_pair

__all__ = ["Optimizer", "SGD", "Momentum", "Adam", "AdamW", "LAMB"]

Params = Dict[str, np.ndarray]


class Optimizer:
    """Base optimizer; subclasses implement :meth:`_update` (and may override
    :meth:`_update_flat` with a fused whole-arena update)."""

    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.step_count = 0

    def step(self, params: Params, grads: Params) -> None:
        """Apply one update. ``grads`` must share keys with ``params``."""
        pair = flat_pair(params, grads)
        if pair is not None:
            # A shared layout certifies matching keys — no set diff needed.
            layout, params_flat, grads_flat = pair
            self.step_count += 1
            self._update_flat(layout, params_flat, grads_flat)
            return
        missing = set(params) - set(grads)
        if missing:
            raise KeyError(f"gradients missing for: {sorted(missing)[:5]}")
        self.step_count += 1
        for key in sorted(params):  # sorted: deterministic update order
            self._update(key, params[key], grads[key])

    def _update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    def _update_flat(self, layout: FlatLayout, params_flat: np.ndarray,
                     grads_flat: np.ndarray) -> None:
        """Whole-arena update; the default replays the per-key loop over
        layout views so subclasses without a fused form keep working."""
        params = layout.views(params_flat)
        grads = layout.views(grads_flat)
        for key in layout.names:  # layout order IS the sorted order
            self._update(key, params[key], grads[key])

    # -- slot-variable plumbing -------------------------------------------------

    def _flat_slot(self, layout: FlatLayout, dict_attr: str,
                   flat_attr: str) -> np.ndarray:
        """Return (creating on first use) the flat array behind a slot dict.

        Any values already accumulated through the dict path are packed in
        (absent keys start at zero, matching the lazy ``setdefault``), and
        the slot dict is rebound to views of the flat array so both paths
        share storage from then on.
        """
        flat = getattr(self, flat_attr, None)
        if flat is None or flat.size != layout.total_size:
            flat = layout.pack(getattr(self, dict_attr), missing_zero=True)
            setattr(self, flat_attr, flat)
            setattr(self, dict_attr, ArenaView(layout, flat))
        return flat

    @staticmethod
    def _load_slot(slots: Dict[str, np.ndarray], name: str,
                   value: np.ndarray) -> None:
        """Restore one slot array, writing in place when the slot already
        exists (so arena-backed slot views keep aliasing their flat array)."""
        existing = slots.get(name)
        if existing is not None and existing.shape == np.shape(value):
            existing[...] = value
        else:
            slots[name] = np.array(value, copy=True)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Slot variables, for checkpoint/migration. Overridden by stateful opts."""
        return {}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        pass


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def _update(self, key, param, grad):
        param -= self.lr * grad

    def _update_flat(self, layout, params_flat, grads_flat):
        params_flat -= self.lr * grads_flat  # one axpy over the whole arena


class Momentum(Optimizer):
    """SGD with (optionally Nesterov) momentum."""

    def __init__(self, lr: float, momentum: float = 0.9, nesterov: bool = False) -> None:
        super().__init__(lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.nesterov = nesterov
        self._velocity: Dict[str, np.ndarray] = {}
        self._velocity_flat: Optional[np.ndarray] = None

    def _update(self, key, param, grad):
        v = self._velocity.setdefault(key, np.zeros_like(param))
        v *= self.momentum
        v += grad
        if self.nesterov:
            param -= self.lr * (grad + self.momentum * v)
        else:
            param -= self.lr * v

    def _update_flat(self, layout, params_flat, grads_flat):
        v = self._flat_slot(layout, "_velocity", "_velocity_flat")
        v *= self.momentum
        v += grads_flat
        if self.nesterov:
            params_flat -= self.lr * (grads_flat + self.momentum * v)
        else:
            params_flat -= self.lr * v

    def state_dict(self):
        return {f"velocity.{k}": v.copy() for k, v in self._velocity.items()}

    def load_state_dict(self, state):
        for key, value in state.items():
            if key.startswith("velocity."):
                self._load_slot(self._velocity, key[len("velocity."):], value)


class Adam(Optimizer):
    """Adam with bias correction."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
        super().__init__(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        self._m_flat: Optional[np.ndarray] = None
        self._v_flat: Optional[np.ndarray] = None

    def _moments(self, key: str, param: np.ndarray, grad: np.ndarray):
        m = self._m.setdefault(key, np.zeros_like(param))
        v = self._v.setdefault(key, np.zeros_like(param))
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        m_hat = m / (1 - self.beta1**self.step_count)
        v_hat = v / (1 - self.beta2**self.step_count)
        return m_hat, v_hat

    def _flat_moments(self, layout, grads_flat):
        """The whole-arena analogue of :meth:`_moments` — same elementwise
        arithmetic, two fused passes instead of a loop per parameter."""
        m = self._flat_slot(layout, "_m", "_m_flat")
        v = self._flat_slot(layout, "_v", "_v_flat")
        m *= self.beta1
        m += (1 - self.beta1) * grads_flat
        v *= self.beta2
        v += (1 - self.beta2) * grads_flat * grads_flat
        m_hat = m / (1 - self.beta1**self.step_count)
        v_hat = v / (1 - self.beta2**self.step_count)
        return m_hat, v_hat

    def _update(self, key, param, grad):
        m_hat, v_hat = self._moments(key, param, grad)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _update_flat(self, layout, params_flat, grads_flat):
        m_hat, v_hat = self._flat_moments(layout, grads_flat)
        params_flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self):
        out = {f"m.{k}": v.copy() for k, v in self._m.items()}
        out.update({f"v.{k}": v.copy() for k, v in self._v.items()})
        return out

    def load_state_dict(self, state):
        for key, value in state.items():
            if key.startswith("m."):
                self._load_slot(self._m, key[2:], value)
            elif key.startswith("v."):
                self._load_slot(self._v, key[2:], value)


class AdamW(Adam):
    """Adam with decoupled weight decay."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.01) -> None:
        super().__init__(lr, beta1, beta2, eps)
        self.weight_decay = weight_decay

    def _update(self, key, param, grad):
        m_hat, v_hat = self._moments(key, param, grad)
        param -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * param)

    def _update_flat(self, layout, params_flat, grads_flat):
        m_hat, v_hat = self._flat_moments(layout, grads_flat)
        params_flat -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                  + self.weight_decay * params_flat)


class LAMB(AdamW):
    """Layer-wise adaptive moments (You et al.), used for huge-batch training.

    Included because the paper's motivation cites LAMB-style optimizers as the
    per-workload tuning VirtualFlow makes unnecessary; having it implemented
    lets benchmarks contrast "retune with LAMB" against "fix batch via VNs".
    """

    def _update(self, key, param, grad):
        m_hat, v_hat = self._moments(key, param, grad)
        update = m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * param
        w_norm = float(np.linalg.norm(param))
        u_norm = float(np.linalg.norm(update))
        trust = w_norm / u_norm if w_norm > 0 and u_norm > 0 else 1.0
        param -= self.lr * trust * update

    def _update_flat(self, layout, params_flat, grads_flat):
        m_hat, v_hat = self._flat_moments(layout, grads_flat)
        update = m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * params_flat
        # Per-parameter trust ratios over arena segments.  segment_dots is
        # the same BLAS dot np.linalg.norm ravels each parameter into, so
        # these norms are bit-identical to the per-key loop's.
        w_norm = np.sqrt(layout.segment_dots(params_flat))
        u_norm = np.sqrt(layout.segment_dots(update))
        safe_u = np.where(u_norm > 0, u_norm, 1.0)
        trust = np.where((w_norm > 0) & (u_norm > 0), w_norm / safe_u, 1.0)
        # Dict path computes (lr * trust) per parameter then scales the
        # update; broadcasting the per-segment factor elementwise is the
        # identical arithmetic.
        params_flat -= np.repeat(self.lr * trust, layout.sizes) * update
