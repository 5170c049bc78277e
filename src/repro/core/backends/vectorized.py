"""Vectorized wave kernels: whole wave *groups* as one segmented tensor op.

The fused backend executes every wave of a step simultaneously.  Shards are
concatenated along the batch axis in canonical virtual-node order — where
the reference loop runs ``V`` forwards of shape ``(b_i, ...)``, these
kernels run one forward of shape ``(B, ...)`` with ``B = sum(b_i)``, split
by its **size runs**: ``(size, count)`` rows, ``count`` consecutive
virtual-node segments of ``size`` rows each (:func:`~repro.core.sharding.
size_runs`).  Equal-size wave groups are the degenerate case of one row,
where the concatenated batch reshapes (for free, as a view) into the
classic ``(V, b, ...)`` stack.

Bit-exactness contract
----------------------
The point of this module is not merely "numerically close" — it reproduces
the reference wave loop *bit for bit*.  That constrains every kernel:

* **GEMM geometry is sacred.**  OpenBLAS picks kernels (and therefore
  last-ulp rounding) by matrix shape, so any matmul whose M dimension
  contains the batch must present the *reference's* per-virtual-node shape.
  Each size run's rows reshape (for free) to a ``(count, rows, K)`` stack:
  NumPy maps a stacked matmul onto one GEMM per stack slice, so every
  node's GEMM keeps exactly the reference M whatever its neighbours' sizes
  are, at one Python-level op per run instead of one per node.
  :func:`~repro.core.sharding.shard_sizes` gives the first ``n mod V``
  nodes of an even set one extra row, so a serving micro-batch of any
  length is at most two runs; a heterogeneous (§5) set is one run per
  device type; uniform segments are one run, whose stacked result is
  returned as it is.  Matmuls that are already per-example in the reference (``(b, t, K) @ (K, N)``, attention's
  per-head products) concatenate freely: the per-slice shapes are unchanged.
  (Folding the batch into one big-M GEMM was measured to differ in the last
  ulp on OpenBLAS — see ``seg_matmul`` — hence the size runs.)
* **Reductions keep the reference's accumulation order.**  A per-wave
  reduction over a ``(b_i, ...)`` shard becomes a per-slice reduction over
  the middle axes of its run's ``(count, b, ...)`` stack: each slice is
  that shard's contiguous row segment (identical memory layout), which
  NumPy reduces with the identical accumulation order.  A kept axis of
  C >= 2 channels goes further.  NumPy reduces an axis that is not the
  innermost one *sequentially*: every channel of the reference's
  ``np.sum(t_i, axis=all-but-last)`` is the running sum of the shard's rows
  in row order, in an inner loop only C elements long (six, in the ResNet
  stages).  The same running sums come out of copying each run's
  ``(count, n, C)`` rows into ``(n, count, C)`` and reducing axis 0, whose
  inner loop is ``count * C`` elements — bit for bit, at any magnitudes,
  for any table (:meth:`VectorizedRun.seg_sum`; BatchNorm's four backward
  sums share one such reduction).  C = 1 is left alone: there the
  reference's reduction runs along the contiguous axis and is *pairwise*,
  which no other layout reproduces.
* **Elementwise operands may be re-viewed and tiled freely; reductions and
  GEMMs may not.**  An elementwise ufunc rounds each output element from
  the same two input elements whatever the array shapes and strides are, so
  a kernel may flatten ``(B, h, w, C)`` to ``(V, b, h*w*C)``, repeat a
  ``(C,)`` or per-node ``(V, C)`` operand into matching tiles
  (:meth:`VectorizedRun.tiled` / :meth:`VectorizedRun.tile`), write into
  ``out=`` buffers, and fuse ``x - mean`` for the variance and for
  ``x_hat`` into one pass — as long as every operation keeps the
  reference's operand pair and order.  A sum's rounding depends on the
  order its terms are added in, which follows shape and layout: the
  ``seg_*`` reductions and GEMMs above keep the reference's order and
  shapes.
* **Copies move bytes, so they may move whole pixels.**  A copy rounds
  nothing: a kernel may view each row of C values as one opaque ``np.void``
  item of ``C * itemsize`` bytes (:func:`_pixels`) and copy those, so the
  copy's inner loop runs over pixels instead of six channels.  The
  interleave copies of :meth:`VectorizedRun.seg_sum` do, and so does
  MaxPool: it byte-copies the ``p x p`` window positions into contiguous
  planes ``(p*p, n, h/p, w/p, C)``, folds them with elementwise
  ``np.maximum`` in window order (the reference reduction's order, ±0 ties
  and NaNs included), and copies its gradient planes back into place —
  pixels are moved, never re-added.  The fold is the reference's own order
  only while channels are the input's innermost memory axis and number two
  or more; at C = 1 (or in a channels-first or column-major layout) NumPy
  reduces along the window itself, vectorised, and meets ±0 ties and NaNs
  in another order — there the kernel keeps the reference's ``max`` (the
  planes still give the mask and the backward).
* **The batch input has no gradient.**  The reference layers compute
  ``dL/dx`` for the input examples and nobody reads it; the fused backend
  asks its run not to (``backward(..., input_grad=False)``).  The flag
  travels only along the chain of modules that receive the batch itself —
  ``Sequential`` child 0, a model wrapper's body, a leading ``Residual``'s
  body — and lets a kernel return ``None`` for its input gradient.
  Parameter gradients and stateful buffers never depend on it.
* **Per-virtual-node parameter gradients are kept separate** (a
  ``(V, ...)`` stack per parameter) so the caller can reduce them in
  canonical virtual-node order with the exact §5.2 weighted-average
  arithmetic.
* **Stateful kernels see per-virtual-node state.**  BatchNorm's moving
  statistics are handed to the run as ``(V, ...)``-stacked views over one
  packed state matrix (:meth:`repro.framework.arena.FlatLayout.
  stacked_views`); training-mode statistics are computed per segment —
  exactly the shard statistics the serial loop computes — and the moving
  averages update in place across all nodes in one vector op.
* **Randomness** is drawn from one generator per virtual node in canonical
  order, filling that node's row segment, so each node consumes exactly the
  dropout stream it would under the serial loop.  The generators are
  derived on demand, by the first Dropout with a non-zero rate
  (:meth:`VectorizedRun.node_rngs`): a model that drops nothing derives none.

Coverage
--------
Forward and backward kernels exist for **every** built-in layer, loss, and
model container: here for the dense core and the containers; in
:mod:`~repro.core.backends.vectorized_conv` and
:mod:`~repro.core.backends.vectorized_attention` for the two layer
families, which the kernel tables import on first meeting one of their
classes — when :func:`kernel_plan` resolves a model as an engine is built,
so a run compiles only the families it executes; and for the losses next
to the losses (:mod:`repro.framework.losses`), which only training loads.
What has no kernel raises :class:`UnsupportedModule`: no serial fallback.
"""

from __future__ import annotations

import math
from importlib import import_module
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.framework import layers as L
from repro.framework.layers import Module

if TYPE_CHECKING:
    from repro.framework.losses import Loss

__all__ = [
    "UnsupportedModule",
    "VectorizedRun",
    "kernel_plan",
    "loss_kernel",
]


class UnsupportedModule(TypeError):
    """A module (or loss) the fused pass cannot run."""


def _at(prefix: str) -> str:
    return f"at {prefix[:-1] or 'the model root'!r}"


class _Kernels(dict):
    """``module type -> kernel``; a type without an entry takes its nearest
    base's (memoized), loading each base's layer family on the way, or
    raises :class:`UnsupportedModule`.  A hit makes no Python call."""

    def __init__(self, kind: str) -> None:
        super().__init__()
        self.kind = kind

    def __missing__(self, cls: type) -> Callable:
        for base in cls.__mro__:
            family = _FAMILIES.pop(base.__module__, None)
            if family is not None:
                import_module(family)  # registers the family's kernels
            fn = self.get(base)
            if fn is not None:
                self[cls] = fn
                return fn
        raise UnsupportedModule(f"{cls.__name__} has no vectorized {self.kind} kernel")


_FWD = _Kernels("forward")
_BWD = _Kernels("backward")
# Module type -> the buffers its kernels read and update.  A module may only
# fuse when every buffer it carries is one of its type's — a user subclass
# that adds buffers would otherwise inherit a kernel via the MRO walk and
# have their semantics silently ignored.  Filled by the family kernel
# modules, which _Kernels imports when it first meets a class of their
# layer module, before a miss.
_STATEFUL_OK: Dict[Type[Module], Tuple[str, ...]] = {}
_FAMILIES = {
    "repro.framework.conv": "repro.core.backends.vectorized_conv",
    "repro.framework.attention": "repro.core.backends.vectorized_attention",
}


def _fwd(*types: Type[Module]):
    def deco(fn):
        for t in types:
            _FWD[t] = fn
        return fn
    return deco


def _bwd(*types: Type[Module]):
    def deco(fn):
        for t in types:
            _BWD[t] = fn
        return fn
    return deco


def _pixels(a: np.ndarray) -> np.ndarray:
    """``a`` with its last axis viewed as one opaque ``np.void`` item.

    A copy between two such views moves whole ``C``-element pixels — bytes,
    never values — with an inner loop over pixels instead of channels.  A
    strided ``a`` is made C-contiguous first (itself a byte copy).
    """
    if not a.flags.c_contiguous:
        a = np.ascontiguousarray(a)
    return a.view(f"V{a.shape[-1] * a.itemsize}")[..., 0]


class VectorizedRun:
    """One fused forward/backward over a segmented stack of wave shards.

    ``runs`` are the pass's **size runs**: an ``(R, 2)`` integer array (or
    a sequence of pairs) of ``(size, count)`` rows, ``count`` consecutive
    virtual-node segments of ``size`` rows each, in canonical order, the
    rows tiling the concatenated batch (:func:`~repro.core.sharding.
    size_runs`).  A training run also derives the per-node ``sizes`` and
    ``[start, end)`` ``segments`` that its loss, dropout and per-node
    broadcast kernels read; an inference run leaves them None.  The run
    owns all transient state (activation caches, per-node parameter
    gradients) so the model instance itself is never mutated — its own
    caches, gradients, and buffers are untouched.  Per-virtual-node stateful buffers, when present,
    arrive as ``state_views`` — ``name -> (V,) + shape`` views of the job's
    state matrix, which the kernels update in place.

    ``workspace`` is the training step's buffer dict, owned by the executor
    and reused from step to step; a training run built without one gets an
    empty dict of its own.  Inference runs have none and allocate as they
    go.
    It holds only what is too large for malloc to keep between steps:

    * each convolution's ``im2col`` patch rows under ``("cols", prefix)``
      — alive from the layer's forward to its backward anyway, where the
      input-gradient patch rows overwrite them;
    * scratch that never leaves a kernel, shared by every layer of one
      geometry: the zero-bordered padded input (``("padded", pad, shape,
      dtype)``: zeroed once, only its interior ever written) and the
      interleave buffers of the narrow reductions (``("sum", shape,
      dtype)``).

    Anything a kernel returns or stashes — activations, gradients, the
    ``col2im`` result — stays a fresh allocation: a shared buffer would
    alias, e.g., a ``Residual``'s skip add.
    """

    # What only a training run sets (``_rngs``: by node_rngs); an inference
    # run reads these.
    sizes = segments = state_views = workspace = _derive_rngs = _rngs = None

    def __init__(self, runs: Sequence[Tuple[int, int]], training: bool,
                 rngs: Optional[Callable[[], List[np.random.Generator]]] = None,
                 state_views: Optional[Dict[str, np.ndarray]] = None,
                 workspace: Optional[Dict[tuple, object]] = None) -> None:
        # Each (size, count) row as (first row, end row, first node, end
        # node, segment size): what the seg_* primitives stack over.
        self.runs: List[Tuple[int, int, int, int, int]] = []
        sizes: List[int] = []
        row = node = 0
        for size, count in runs.tolist() if isinstance(runs, np.ndarray) else runs:
            if size < 0 or count < 0:
                raise ValueError(f"size runs {runs!r} hold a negative number")
            self.runs.append((row, row + size * count, node, node + count, size))
            if training:
                sizes += [size] * count
            row += size * count
            node += count
        if not self.runs:
            raise ValueError("a vectorized run needs at least one segment")
        self.batch = row
        self.num_stacked = node
        # Uniform segment size, or None when the wave group mixes sizes.
        self.uniform: Optional[int] = (
            self.runs[0][4] if self.runs[0][3] == node else None)
        self.training = training
        if training:
            ends = list(accumulate(sizes, initial=0))
            self.sizes, self.segments = sizes, list(zip(ends, ends[1:]))
            self._derive_rngs = rngs
            self.state_views = state_views
            self.workspace = {} if workspace is None else workspace
            self._cache: Dict[str, Tuple] = {}
            # flat parameter name -> (V,) + param.shape per-node gradients
            self.param_grads: Dict[str, np.ndarray] = {}

    # -- dispatch -----------------------------------------------------------

    def forward(self, module: Module, x: np.ndarray, prefix: str = "") -> np.ndarray:
        return _FWD[type(module)](module, self, prefix, x)

    def backward(self, module: Module, grad: np.ndarray, prefix: str = "",
                 input_grad: bool = True) -> Optional[np.ndarray]:
        """Accumulate ``module``'s parameter gradients; return ``dL/dinput``.

        ``input_grad=False`` says nobody reads the input gradient — the
        module consumes the batch input itself.  A kernel may then return
        ``None`` instead of computing it (Conv2D and Dense skip a GEMM,
        Conv2D a scatter as well, Embedding a block of zeros); containers
        forward the flag to the child that receives their own input and to
        no other.
        """
        return _BWD[type(module)](module, self, prefix, grad, input_grad)

    # -- kernel support -----------------------------------------------------

    def put(self, prefix: str, *values) -> None:
        self._cache[prefix] = values

    def get(self, prefix: str) -> Tuple:
        return self._cache[prefix]

    def add_grad(self, name: str, value: np.ndarray) -> None:
        """Accumulate a per-virtual-node parameter gradient stack.

        Mirrors the reference layers' ``grads[key] += ...`` convention: the
        first contribution lands on zeros, so a single contribution (the
        common case) is bit-identical to the unaccumulated value.
        """
        if name in self.param_grads:
            self.param_grads[name] += value
        else:
            self.param_grads[name] = value

    def node_rngs(self) -> List[np.random.Generator]:
        """The per-virtual-node dropout generators, in canonical order.

        Derived by the first call — the first Dropout with a non-zero rate —
        and shared by every later one, so each node's stream runs on from
        layer to layer exactly as under the serial loop; a run that drops
        nothing derives none.
        """
        if self._rngs is None:
            if self._derive_rngs is None:
                raise ValueError("Dropout requires per-virtual-node rngs during training")
            self._rngs = self._derive_rngs()
        return self._rngs

    def state(self, module: Module, prefix: str) -> List[np.ndarray]:
        """The ``(V,) + shape`` stacked views of ``module``'s buffers."""
        if self.state_views is None:
            raise UnsupportedModule(f"{type(module).__name__} carries per-virtual-node "
                                    f"state, but the step has no state matrix, {_at(prefix)}")
        return [self.state_views[prefix + key] for key in module.buffers]

    # -- segment-exact primitives ------------------------------------------
    #
    # Everything below reproduces a per-virtual-node operation of the serial
    # loop over the concatenated batch without changing its floating-point
    # shape: each run of equal-size segments takes a free (count, rows, ...)
    # reshape view of its rows and one stacked op, which NumPy executes as
    # ``count`` slice ops of exactly the reference shape.  A run that spans
    # the whole table (uniform segments) returns the stacked result itself;
    # otherwise every run writes its rows (or nodes) of one output.  Sizes
    # in the reshapes are explicit: a table may hold an empty segment.

    def seg_matmul(self, a: np.ndarray, w: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-virtual-node GEMM ``a_i @ w`` with the reference M dimension.

        ``a`` is ``(B, K)`` or ``(B, r, K)``; the reference multiplies each
        node's ``(b_i * r, K)`` block, so M = b_i * r per GEMM.  Folding the
        whole batch into one ``(B * r, K)`` GEMM changes M and with it
        OpenBLAS's kernel choice — measured last-ulp differences — so the
        stack/segment structure is preserved.  ``out``, a C-contiguous array
        of the result's shape and dtype (``np.result_type(a, w)``), receives
        the product and is returned; the GEMMs are the same.
        """
        k, n = a.shape[-1], w.shape[-1]
        r = a.shape[1] if a.ndim == 3 else 1
        shape = a.shape[:-1] + (n,)
        if out is not None and (out.shape != shape or not out.flags.c_contiguous):
            raise ValueError(f"seg_matmul needs a C-contiguous {shape} out buffer")
        for start, end, first, last, size in self.runs:
            stack = a[start:end].reshape(last - first, size * r, k)
            if out is None:
                if last - first == self.num_stacked:
                    return (stack @ w).reshape(shape)
                out = np.empty(shape, dtype=np.result_type(a, w))
            # Straight into the run's rows of the output: no stacked
            # temporary to allocate, fault in and copy out of.
            np.matmul(stack, w,
                      out=out[start:end].reshape(last - first, size * r, n))
        return out

    def seg_outer(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Per-virtual-node ``x_i^T @ g_i`` weight-gradient stack ``(V, K, N)``.

        Rows of ``x``/``g`` beyond the batch axis are flattened per node,
        exactly like the reference's ``x.reshape(-1, K).T @ g.reshape(-1, N)``.
        """
        k, n = x.shape[-1], g.shape[-1]
        r = x.shape[1] if x.ndim == 3 else 1
        out = None
        for start, end, first, last, size in self.runs:
            x3 = x[start:end].reshape(last - first, size * r, k)
            g3 = g[start:end].reshape(last - first, size * r, n)
            block = x3.transpose(0, 2, 1) @ g3
            if last - first == self.num_stacked:
                return block
            if out is None:
                out = np.empty((self.num_stacked, k, n), dtype=block.dtype)
            out[first:last] = block
        return out

    def seg_sum(self, t: np.ndarray, *more: np.ndarray):
        """Per-virtual-node sum over all axes but the last: ``(V, C)``.

        Every node's sum is the reference's ``np.sum(t_i, axis=all-but-last)``
        bit for bit: a kept axis of ``C >= 2`` channels is reduced
        node-interleaved, a single channel over the stacked
        ``(count, b, ..., 1)`` slices of each run (see "Reductions" in the
        module doc).  ``seg_sum(t, u, ...)`` sums several tensors of ``t``'s
        shape and returns their ``(V, C)`` sums in order — as one
        ``(k, V, C)`` array from a single reduction when ``C >= 2`` and
        they share ``t``'s dtype, else as a list.
        """
        c = t.shape[-1]
        ts = (t,) + more
        for u in more:
            if c < 2 or u.dtype != t.dtype:  # one reduction per tensor
                return [self.seg_sum(u) for u in ts]
        if c < 2:
            axes = tuple(range(1, t.ndim))
            out = None
            for start, end, first, last, size in self.runs:
                block = np.add.reduce(
                    t[start:end].reshape((last - first, size) + t.shape[1:]), axes)
                if last - first == self.num_stacked:
                    return block
                if out is None:
                    out = np.empty((self.num_stacked, c), dtype=block.dtype)
                out[first:last] = block
            return out
        # Node-interleaved: each run's (count, n, C) rows of every tensor are
        # copied, as whole C-element pixels, into an (n, k, count, C) buffer,
        # reduced over axis 0.
        k = len(ts) if more else 1
        per_row = t.size // (t.shape[0] * c) if t.shape[0] else 0
        pixels = tuple(map(_pixels, ts))
        out = None
        for start, end, first, last, size in self.runs:
            count = last - first
            key = ("sum", (size * per_row, k, count, c), t.dtype)
            try:
                buf, dst = self.workspace[key]
            except KeyError:  # first use
                buf, dst = self._interleave_buffer(key)
            i = 0
            for u in pixels:
                dst[i] = u[start:end].reshape(dst.shape[1:])
                i += 1
            block = np.add.reduce(buf, 0)
            if count == self.num_stacked:
                return block if more else block[0]
            if out is None:
                out = np.empty((k, self.num_stacked, c), dtype=block.dtype)
            out[:, first:last] = block
        return out if more else out[0]

    def _interleave_buffer(self, key: tuple) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(n, k, count, C)`` buffer :meth:`seg_sum` reduces for
        ``key`` and its ``(k, count, n)`` transposed pixel view, the copies'
        destination."""
        _, shape, dtype = key
        buf = np.empty(shape, dtype)
        pair = self.workspace[key] = buf, _pixels(buf).transpose(1, 2, 0)
        return pair

    def seg_mean(self, t: np.ndarray) -> np.ndarray:
        """Per-virtual-node mean over all axes but the last: ``(V, C)``.

        For floating ``t``: :meth:`seg_sum` divided in place by the ``intp``
        element count, the division ``np.mean`` makes.
        """
        sums = self.seg_sum(t)
        return np.true_divide(sums, self.seg_counts(t.shape, np.intp), out=sums,
                              casting="unsafe")

    def seg_counts(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Elements per channel in each node's segment of a ``shape`` tensor,
        as a ``(V, C)`` array — the ``n`` of that node's reductions."""
        counts = np.array(self.sizes, dtype=dtype) * math.prod(shape[1:-1])
        return counts[:, None].repeat(shape[-1], axis=1)

    # Elementwise kernels over channel-last tensors broadcast *tiles*: the
    # tensor is re-viewed with everything after the batch axis flattened to
    # F = prod(shape[1:]), and a per-channel operand is repeated F / C times
    # to match.  The values combined per element are the ones the
    # (B, ..., C) o (C,) broadcast combines, but the inner loop runs F
    # elements instead of C.  Never used for reductions.

    def tiled(self, t: np.ndarray) -> np.ndarray:
        """View a ``(B, ..., C)`` tensor as ``(V, b, F)`` node tiles.

        Mixed-size segments have no such stack: every row is its own tile,
        ``(B, 1, F)``, and :meth:`tile` expands per-node values to match.
        """
        if self.uniform is not None:
            return t.reshape(self.num_stacked, self.uniform, -1)
        return t.reshape(self.batch, 1, -1)

    def tile(self, values: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        """Tile per-channel ``values`` against ``tiled(t)``, ``t.shape == shape``.

        ``(C,)`` values shared by every node become ``(F,)``; per-node
        ``(V, C)`` values become ``(V, 1, F)`` (``(B, 1, F)`` for mixed-size
        segments, each row carrying its own node's tile).
        """
        reps = math.prod(shape[1:-1])
        if values.ndim == 1:
            return values[None, :].repeat(reps, axis=0).reshape(-1)
        if self.uniform is None:
            values = values.repeat(self.sizes, axis=0)
        return values[:, None, :].repeat(reps, axis=1).reshape(values.shape[0], 1, -1)

    def row_scale(self, per_vn: Sequence[float], ndim: int,
                  dtype=np.float64) -> np.ndarray:
        """Expand one scalar per node to a broadcastable per-row column."""
        rows = np.repeat(np.asarray(per_vn, dtype=dtype), self.sizes)
        return rows.reshape((self.batch,) + (1,) * (ndim - 1))


Step = Tuple[Callable, Callable, Module, str]  # (forward, backward, module, prefix)


def kernel_plan(model: Module) -> List[Step]:
    """``model`` as a flat list of ``(forward, backward, module, prefix)``
    steps, every kernel resolved once; ``Sequential`` nesting is flattened,
    other containers dispatch their children themselves.

    The fused backend walks it forward (training), in reverse with
    ``input_grad`` False only at step 0 — the ``Sequential`` rule — and
    forward without ``Dropout`` (inference).  Every module, nested or not,
    needs both kernels, and one with buffers a kernel that updates them:
    otherwise :class:`UnsupportedModule` names its class and path.  Every
    module walked records its path in ``planned_at``, so a child added to
    it later raises instead of being skipped by every cached plan.
    """
    steps: List[Step] = []

    def walk(module: Module, prefix: str, flat: bool) -> None:
        module.planned_at = prefix  # Module.add_child now refuses it
        cls = type(module)
        try:
            forward, backward = _FWD[cls], _BWD[cls]
        except UnsupportedModule as miss:
            raise UnsupportedModule(f"{miss}, {_at(prefix)}") from None
        kept = next((keys for t, keys in _STATEFUL_OK.items() if isinstance(module, t)), ())
        if set(module.buffers) - set(kept):
            raise UnsupportedModule(f"{cls.__name__} carries buffers no vectorized "
                                    f"kernel updates, {_at(prefix)}")
        flat_children = flat and forward is _sequential_fwd
        if flat and not flat_children:
            steps.append((forward, backward, module, prefix))
        for name, child in module.children():
            walk(child, f"{prefix}{name}.", flat_children)

    walk(model, "", True)
    return steps


# ---------------------------------------------------------------------------
# Layer kernels.  Shapes are the reference shapes with the batch axis holding
# the concatenated wave group: a per-wave (b_i, ...) tensor is rows
# [start_i, end_i) of a (B, ...) tensor.
# ---------------------------------------------------------------------------


@_fwd(L.Dense)
def _dense_fwd(m: L.Dense, run: VectorizedRun, prefix: str, x):
    if run.training:
        run.put(prefix, x)
    if x.ndim == 2 and run.num_stacked > 1:
        # Batch in the GEMM's M dimension: keep per-node geometry.
        out = run.seg_matmul(x, m.params["w"])
    else:
        # (B, t, K) @ (K, N) is one GEMM per example and one node's (b, K) @
        # (K, N) is one GEMM: both already are the reference's.
        out = x @ m.params["w"]
    out += m.params["b"]  # the product is this kernel's own array
    return out


@_bwd(L.Dense)
def _dense_bwd(m: L.Dense, run: VectorizedRun, prefix: str, grad, input_grad):
    (x,) = run.get(prefix)
    run.add_grad(prefix + "w", run.seg_outer(x, grad))
    run.add_grad(prefix + "b", run.seg_sum(grad))
    if not input_grad:
        return None
    if grad.ndim == 2:
        return run.seg_matmul(grad, m.params["w"].T)
    return grad @ m.params["w"].T


@_fwd(L.ReLU)
def _relu_fwd(m: L.ReLU, run: VectorizedRun, prefix: str, x):
    mask = x > 0
    if run.training:
        run.put(prefix, mask)
    return x * mask


@_bwd(L.ReLU)
def _relu_bwd(m: L.ReLU, run: VectorizedRun, prefix: str, grad, input_grad):
    (mask,) = run.get(prefix)
    return grad * mask


@_fwd(L.Tanh)
def _tanh_fwd(m: L.Tanh, run: VectorizedRun, prefix: str, x):
    t = np.tanh(x)
    if run.training:
        run.put(prefix, t)
    return t


@_bwd(L.Tanh)
def _tanh_bwd(m: L.Tanh, run: VectorizedRun, prefix: str, grad, input_grad):
    (t,) = run.get(prefix)
    return grad * (1.0 - t**2)


@_fwd(L.Dropout)
def _dropout_fwd(m: L.Dropout, run: VectorizedRun, prefix: str, x):
    if not run.training:
        return x
    if m.rate == 0.0:
        run.put(prefix, None)
        return x
    keep = 1.0 - m.rate
    # One draw per virtual node, filling that node's row segment in canonical
    # order, so every node consumes the same stream it would serially.
    mask = np.empty_like(x)
    for (start, end), rng in zip(run.segments, run.node_rngs()):
        mask[start:end] = (rng.random((end - start,) + x.shape[1:]) < keep) / keep
    run.put(prefix, mask)
    return x * mask


@_bwd(L.Dropout)
def _dropout_bwd(m: L.Dropout, run: VectorizedRun, prefix: str, grad, input_grad):
    (mask,) = run.get(prefix)
    if mask is None:
        return grad
    return grad * mask


@_fwd(L.Flatten)
def _flatten_fwd(m: L.Flatten, run: VectorizedRun, prefix: str, x):
    if run.training:
        run.put(prefix, x.shape)
    return x.reshape(x.shape[0], -1)


@_bwd(L.Flatten)
def _flatten_bwd(m: L.Flatten, run: VectorizedRun, prefix: str, grad, input_grad):
    (shape,) = run.get(prefix)
    return grad.reshape(shape)


@_fwd(L.Residual)
def _residual_fwd(m: L.Residual, run: VectorizedRun, prefix: str, x):
    return x + run.forward(m.body, x, prefix + "body.")


@_bwd(L.Residual)
def _residual_bwd(m: L.Residual, run: VectorizedRun, prefix: str, grad, input_grad):
    inner = run.backward(m.body, grad, prefix + "body.", input_grad)
    return grad + inner if input_grad else None


@_fwd(L.Sequential)
def _sequential_fwd(m: L.Sequential, run: VectorizedRun, prefix: str, x):
    for name, child in m.children():
        x = run.forward(child, x, f"{prefix}{name}.")
    return x


@_bwd(L.Sequential)
def _sequential_bwd(m: L.Sequential, run: VectorizedRun, prefix: str, grad, input_grad):
    # Only child 0 receives the container's own input.
    for i, (name, child) in reversed(list(enumerate(m.children()))):
        grad = run.backward(child, grad, f"{prefix}{name}.", input_grad or i > 0)
    return grad


def loss_kernel(loss_fn: Loss) -> Callable:
    """The vectorized kernel of ``loss_fn``: ``kernel(loss_fn, run, outputs,
    targets)`` gives per-virtual-node ``(losses, loss_gradients)``, each
    segment's bit-identical to ``loss_fn.forward``/``backward`` on that
    shard alone.  The kernels live with the losses
    (:mod:`repro.framework.losses`), which only training loads."""
    from repro.framework.losses import _LOSS
    fn = _LOSS.get(type(loss_fn))
    if fn is None:
        raise UnsupportedModule(f"{type(loss_fn).__name__} has no vectorized loss kernel")
    return fn
