"""Flat tensor arena: the parameter/gradient hot path as contiguous buffers.

The dict-of-arrays API (``model.parameters()``, ``model.gradients()``) is the
right *interface* for virtual-node semantics — checkpointing, migration, and
the §5.2 weighted synchronization are all defined over named tensors — but it
is the wrong *storage*: every hot-path operation (gradient fold, all-reduce,
optimizer update, state snapshot) degenerates into a Python loop over keys
with one small NumPy call and often one fresh allocation each.  For
many-virtual-node configurations that per-key overhead dominates host
wall-clock.

This module applies the standard systems remedy — tensor fusion, as in
Horovod's fusion buffer and PyTorch DDP's gradient buckets — end to end:

* :class:`FlatLayout` is an immutable name -> (offset, shape) table over one
  contiguous 1-D array, in canonical (sorted-name) order.
* :class:`FlatTensorArena` allocates one **parameter arena** and one
  **gradient arena** for a model and re-registers every module's parameter
  and gradient arrays as reshaped *views* into them.  Layer code is
  untouched — ``self.grads["w"] += ...`` writes straight into the arena —
  and the dict API keeps working, now backed by views instead of scattered
  allocations.
* :class:`ArenaView` is that dict API: a plain ``dict`` of named views that
  also carries the flat base array and its layout, which is what the
  optimizers take: each updates the whole arena in a handful of fused vector
  operations.

Bit-exactness contract
----------------------
Every fused path reproduces the per-key loop's floating-point arithmetic
**bit for bit**: elementwise updates are order-free, reductions keep the
canonical accumulation order (a scaled ``(n, P)`` stack summed over its
leading axis accumulates rows sequentially, exactly like the per-key loop),
and LAMB's per-parameter trust ratios use the same BLAS dot that
``np.linalg.norm`` ravels into (``np.add.reduceat`` sums segments
sequentially, which differs from that dot in the last ulp).

Invalidation rules
------------------
A layout is immutable and tied to a fixed set of parameter names/shapes; the
arena is installed once per model (``FlatTensorArena.install`` is
idempotent).  Views stay valid for the model's lifetime because layers only
ever write parameters in place (``array[...] = ...``, ``+=``); rebinding a
``module.params`` entry to a new array would detach it from the arena and is
the one thing layer code must not do.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

__all__ = ["FlatLayout", "ArenaView", "FlatTensorArena"]


class FlatLayout:
    """Immutable name -> slice table over one contiguous 1-D buffer.

    Names are ordered canonically (sorted), matching the deterministic key
    order of the per-key synchronization loop.
    """

    __slots__ = ("names", "shapes", "sizes", "starts", "total_size", "dtype",
                 "_slices")

    def __init__(self, template: Mapping[str, np.ndarray]) -> None:
        if not template:
            raise ValueError("flat layout needs a non-empty tensor template")
        names = tuple(sorted(template))
        dtypes = {np.asarray(template[k]).dtype for k in names}
        if len(dtypes) != 1:
            raise ValueError(f"mixed dtypes in template: {sorted(map(str, dtypes))}")
        self.names = names
        self.dtype = dtypes.pop()
        self.shapes: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(np.asarray(template[k]).shape) for k in names)
        self.sizes = np.array([int(np.prod(s)) if s else 1 for s in self.shapes],
                              dtype=np.intp)
        self.starts = np.zeros(len(names), dtype=np.intp)
        np.cumsum(self.sizes[:-1], out=self.starts[1:])
        self.total_size = int(self.sizes.sum())
        self._slices = {
            name: (int(start), int(start + size), shape)
            for name, start, size, shape in zip(
                names, self.starts, self.sizes, self.shapes)
        }

    @classmethod
    def from_spec(cls, names: Iterable[str], shapes: Iterable[Iterable[int]],
                  dtype=np.float64) -> "FlatLayout":
        """Rebuild a layout from serialized (names, shapes) metadata."""
        scalar = np.zeros(1, dtype=dtype)
        template = {
            # Zero-stride dummies: carry shape/dtype without allocating.
            name: np.lib.stride_tricks.as_strided(
                scalar, shape=tuple(shape), strides=(0,) * len(tuple(shape)))
            for name, shape in zip(names, shapes)
        }
        return cls(template)

    def spec(self) -> Dict[str, list]:
        """JSON-serializable (names, shapes) metadata for :meth:`from_spec`."""
        return {"names": list(self.names),
                "shapes": [list(s) for s in self.shapes]}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FlatLayout):
            return NotImplemented
        return (self.names == other.names and self.shapes == other.shapes
                and self.dtype == other.dtype)

    def __hash__(self) -> int:
        return hash((self.names, self.shapes, str(self.dtype)))

    # -- views & packing -----------------------------------------------------

    def views(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        """Named reshaped views over ``flat`` (no copies)."""
        if flat.shape != (self.total_size,):
            raise ValueError(
                f"flat buffer has shape {flat.shape}, layout needs "
                f"({self.total_size},)")
        return {name: flat[start:end].reshape(shape)
                for name, (start, end, shape) in self._slices.items()}

    def stacked_views(self, matrix: np.ndarray) -> Dict[str, np.ndarray]:
        """Named ``(rows,) + shape`` views over a ``(rows, total_size)`` matrix.

        Row ``i`` of every view aliases row ``i`` of the matrix, so writes
        through a view update the packed matrix in place — the mechanism the
        fused execution backend uses to hand per-virtual-node stateful
        buffers to a stacked kernel without any per-node dict copies.
        """
        if matrix.ndim != 2 or matrix.shape[1] != self.total_size:
            raise ValueError(
                f"state matrix has shape {matrix.shape}, layout needs "
                f"(rows, {self.total_size})")
        rows = matrix.shape[0]
        return {name: matrix[:, start:end].reshape((rows,) + shape)
                for name, (start, end, shape) in self._slices.items()}

    def alloc(self, fill: Optional[float] = 0.0) -> np.ndarray:
        """Fresh flat buffer (zeroed by default; ``fill=None`` leaves it raw)."""
        if fill is None:
            return np.empty(self.total_size, dtype=self.dtype)
        return np.full(self.total_size, fill, dtype=self.dtype)

    def pack(self, arrays: Mapping[str, np.ndarray],
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """Gather named arrays into one contiguous buffer (``out`` when given)."""
        flat = out if out is not None else self.alloc(fill=None)
        for name, (start, end, shape) in self._slices.items():
            if name not in arrays:
                raise KeyError(f"missing tensor {name!r} while packing")
            flat[start:end] = np.asarray(arrays[name]).reshape(-1)
        return flat

    # -- segmented reductions -------------------------------------------------

    def segment_dots(self, values: np.ndarray) -> np.ndarray:
        """Per-segment ``seg.dot(seg)`` (sum of squares), one per name.

        Uses the same BLAS dot that ``np.linalg.norm`` applies to each
        parameter, so ``sqrt(segment_dots(flat))`` is bit-identical to the
        per-key ``np.linalg.norm`` loop — the property LAMB's fused trust
        ratios rely on.
        """
        out = np.empty(len(self.names), dtype=np.float64)
        for i, (start, size) in enumerate(zip(self.starts, self.sizes)):
            seg = values[start:start + size]
            out[i] = seg.dot(seg)
        return out


class ArenaView(dict):
    """Named views over one flat buffer, presented through the dict API.

    Behaves exactly like the plain ``{name: ndarray}`` dicts the rest of the
    system exchanges, but carries ``.layout`` and ``.flat``, which the
    optimizers update as one array.  Mutating an entry's *contents*
    writes through to the flat buffer; rebinding an entry would detach it
    (nothing in the codebase does).
    """

    __slots__ = ("layout", "flat")

    def __init__(self, layout: FlatLayout, flat: np.ndarray) -> None:
        super().__init__(layout.views(flat))
        self.layout = layout
        self.flat = flat


class FlatTensorArena:
    """One parameter arena + one gradient arena for a model.

    Construction packs the model's current parameters/gradients into two
    contiguous buffers and re-registers every module's entries as views, so
    all subsequent reads and writes — layer backward passes, optimizer
    updates, checkpoint restores — operate on arena memory.  The model's
    ``parameters()``/``gradients()``/``zero_grad()`` gain O(1) fast paths
    through the installed arena.
    """

    def __init__(self, model) -> None:
        params = dict(model.named_parameters())
        self.layout = FlatLayout(params)
        self.params_flat = self.layout.pack(params)
        self.grads_flat = self.layout.pack(dict(model.named_gradients()))
        self.params = ArenaView(self.layout, self.params_flat)
        self.grads = ArenaView(self.layout, self.grads_flat)
        self._rebind(model, "")
        self._stack: Optional[np.ndarray] = None
        model._arena = self

    @classmethod
    def install(cls, model) -> "FlatTensorArena":
        """Install (or reuse) the arena for ``model`` — idempotent."""
        arena = getattr(model, "_arena", None)
        if arena is not None:
            return arena
        return cls(model)

    def _rebind(self, module, prefix: str) -> None:
        for key in list(module.params):
            name = prefix + key
            module.params[key] = self.params[name]
            module.grads[key] = self.grads[name]
        for child_name, child in module.children():
            self._rebind(child, f"{prefix}{child_name}.")

    # -- fused primitives -----------------------------------------------------

    def zero_grads(self) -> None:
        """The whole gradient arena to zero in one vector op."""
        self.grads_flat[...] = 0.0

    def grad_stack(self, rows: int) -> np.ndarray:
        """Reusable ``(rows, P)`` scratch for stacking per-virtual-node grads.

        Contents are transient within one backend call; callers must fully
        rewrite the rows they use before reducing.
        """
        if self._stack is None or self._stack.shape[0] < rows:
            self._stack = np.empty((rows, self.layout.total_size),
                                   dtype=self.layout.dtype)
        return self._stack[:rows]

    def view_of(self, flat: np.ndarray) -> ArenaView:
        """Wrap a parameter-arena-shaped flat buffer in the dict API."""
        return ArenaView(self.layout, flat)
