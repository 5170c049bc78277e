"""The shared per-device gradient buffer (§3.2-3.3).

All virtual nodes on one accelerator fold their raw gradients into a single
model-sized buffer, so memory overhead is a constant — one extra copy of the
model — independent of the number of virtual nodes.  This module provides
that accumulator plus its byte accounting for the memory model.

The buffer *is* one contiguous flat array (a
:class:`~repro.framework.arena.FlatLayout` over the template): folding an
arena-backed gradient dict is a single axpy on the flat buffer, and the dict
API (:meth:`GradientBuffer.weighted_sum`, :meth:`GradientBuffer.average`) is
served through named views.  Plain dicts of scattered arrays still work via
the original per-key loop — bit-identical either way, since the fold is
elementwise.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.framework.arena import ArenaView, FlatLayout

__all__ = ["GradientBuffer"]

Grads = Dict[str, np.ndarray]


def _readonly(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class GradientBuffer:
    """Accumulates weighted per-virtual-node gradients for one device."""

    def __init__(self, template: Grads) -> None:
        if not template:
            raise ValueError("gradient buffer needs a non-empty parameter template")
        layout = getattr(template, "layout", None)
        if layout is None:
            layout = FlatLayout(template)
        self._layout = layout
        self._flat = np.zeros(layout.total_size, dtype=layout.dtype)
        self._buffer: Grads = ArenaView(layout, self._flat)
        self._weight = 0.0
        self.num_accumulated = 0

    @property
    def nbytes(self) -> int:
        """Buffer size in bytes — equals the model size (§3.3)."""
        return int(self._flat.nbytes)

    def add(self, grads: Grads, weight: float = 1.0) -> None:
        """Fold one virtual node's mean gradients in with the given weight.

        ``weight`` is the virtual node's example count; the final
        :meth:`average` is then the example-weighted mean, which the weighted
        synchronization (§5.2) requires for uneven shards.

        Arena-backed gradients (sharing this buffer's layout) fold as one
        axpy on the flat buffer; plain dicts take the key-checked loop.
        """
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        layout = getattr(grads, "layout", None)
        if layout is not None and (layout is self._layout or layout == self._layout):
            self.add_flat(grads.flat, weight)
            return
        extra = set(grads) - set(self._buffer)
        if extra:
            raise KeyError(f"unknown gradient keys: {sorted(extra)[:5]}")
        missing = set(self._buffer) - set(grads)
        if missing:
            raise KeyError(f"missing gradient keys: {sorted(missing)[:5]}")
        for key in self._buffer:
            self._buffer[key] += weight * grads[key]
        self._weight += weight
        self.num_accumulated += 1

    def add_flat(self, flat_grads: np.ndarray, weight: float = 1.0) -> None:
        """Fold a flat gradient buffer in: one fused multiply-add."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if flat_grads.shape != self._flat.shape:
            raise ValueError(
                f"flat gradients have shape {flat_grads.shape}, buffer needs "
                f"{self._flat.shape}")
        self._flat += weight * flat_grads
        self._weight += weight
        self.num_accumulated += 1

    def weighted_sum(self) -> Grads:
        """The raw weighted sum (used by cross-device synchronization).

        Returns **read-only views** of the live buffer — no copies.  Callers
        only ever reduce these; attempting to write through one raises.  The
        result is an arena view, so :func:`repro.core.sync.allreduce_gradients`
        reduces it as one flat stack.
        """
        return ArenaView(self._layout, self.weighted_sum_flat())

    def weighted_sum_flat(self) -> np.ndarray:
        """The raw weighted sum as one read-only flat array."""
        return _readonly(self._flat)

    def average(self) -> Grads:
        """Example-weighted average of everything accumulated so far."""
        if self._weight == 0:
            raise RuntimeError("no gradients accumulated")
        avg = self._flat / self._weight
        return ArenaView(self._layout, avg)

    def average_flat(self) -> np.ndarray:
        """Example-weighted average as one fresh flat array."""
        if self._weight == 0:
            raise RuntimeError("no gradients accumulated")
        return self._flat / self._weight

    def reset(self) -> None:
        self._flat[...] = 0.0
        self._weight = 0.0
        self.num_accumulated = 0
