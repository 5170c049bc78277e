"""Neural-network layers with explicit forward/backward passes: the core.

Every layer is a :class:`Module` with three obligations:

* ``forward(x, training=..., rng=...)`` computes outputs and caches whatever
  the backward pass needs.  All randomness (dropout) comes from the ``rng``
  argument — layers own no RNG state, so execution is a pure function of
  (parameters, inputs, rng).
* ``backward(grad_out)`` returns the gradient w.r.t. the input and
  *accumulates* parameter gradients into ``self.grads``.
* parameters and stateful buffers (BatchNorm moving statistics) are exposed
  through flat, name-spaced dicts so the virtual-node executor can snapshot,
  migrate, and restore them without knowing layer internals.

This module holds the base class, the dense and activation layers and the
containers.  The two layer families live in modules of their own, so a run
compiles only the family its model uses: convolutions, batch norm and
pooling in :mod:`repro.framework.conv`, attention, layer norm and
embeddings in :mod:`repro.framework.attention`.

Shapes follow NHWC for images and (batch, seq, dim) for sequences.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.framework import initializers as init

__all__ = [
    "Module",
    "Dense",
    "Dropout",
    "ReLU",
    "Tanh",
    "Flatten",
    "Residual",
    "Sequential",
    "softmax",
    "softmax_backward",
]


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    z = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(s: np.ndarray, grad_s: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backward through softmax given its output ``s`` and ``dL/ds``."""
    dot = np.sum(grad_s * s, axis=axis, keepdims=True)
    return s * (grad_s - dot)


class Module:
    """Base class for all layers and models."""

    # Path prefix ("" for the model, "0.body." below it) once an engine's
    # kernel plan holds this module (set by ``core.backends.vectorized.
    # kernel_plan``), so no child can join it.
    planned_at = None
    # The fused backend's kernel plan of this model, beside its ``_arena``
    # (set by ``FusedBackend.bind``).
    _kernel_plan = None

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.buffers: Dict[str, np.ndarray] = {}
        self._children: List[Tuple[str, "Module"]] = []

    # -- composition -------------------------------------------------------

    def add_child(self, name: str, module: "Module") -> "Module":
        if self.planned_at is not None:
            raise RuntimeError(f"cannot add {name!r} to {type(self).__name__} at "
                               f"{self.planned_at[:-1] or 'the model root'!r}: an "
                               f"engine has planned the model")
        self._children.append((name, module))
        return module

    def children(self) -> Iterator[Tuple[str, "Module"]]:
        return iter(self._children)

    def modules(self) -> Iterator["Module"]:
        """Depth-first iterator over self and all descendants."""
        yield self
        for _, child in self._children:
            yield from child.modules()

    # -- parameters --------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for key, value in self.params.items():
            yield prefix + key, value
        for name, child in self._children:
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Dict[str, np.ndarray]:
        """Flat dict of all parameters, name-spaced by module path.

        With a :class:`~repro.framework.arena.FlatTensorArena` installed the
        cached arena view is returned directly — same named arrays, no
        traversal, and flat-aware consumers get the fused fast path.
        """
        arena = getattr(self, "_arena", None)
        if arena is not None:
            return arena.params
        return dict(self.named_parameters())

    def named_gradients(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for key, value in self.grads.items():
            yield prefix + key, value
        for name, child in self._children:
            yield from child.named_gradients(prefix=f"{prefix}{name}.")

    def gradients(self) -> Dict[str, np.ndarray]:
        """Flat dict of parameter gradients (same keys as ``parameters``)."""
        arena = getattr(self, "_arena", None)
        if arena is not None:
            return arena.grads
        return dict(self.named_gradients())

    def set_parameters(self, flat: Dict[str, np.ndarray]) -> None:
        """Copy values into existing parameter arrays (shape-checked)."""
        own = self.parameters()
        missing = set(own) - set(flat)
        if missing:
            raise KeyError(f"missing parameters: {sorted(missing)[:5]}")
        for key, array in own.items():
            value = np.asarray(flat[key], dtype=array.dtype)
            if value.shape != array.shape:
                raise ValueError(
                    f"parameter {key!r}: expected shape {array.shape}, got {value.shape}"
                )
            array[...] = value

    def zero_grad(self) -> None:
        arena = getattr(self, "_arena", None)
        if arena is not None:
            arena.zero_grads()
            return
        for grad in self.gradients().values():
            grad[...] = 0.0

    def _register(self, name: str, value: np.ndarray) -> np.ndarray:
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)
        return value

    # -- stateful buffers (BatchNorm moving statistics etc.) ----------------

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for key, value in self.buffers.items():
            yield prefix + key, value
        for name, child in self._children:
            yield from child.named_buffers(prefix=f"{prefix}{name}.")

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copies of all stateful (non-parameter) buffers.

        These are the paper's "stateful kernels" — per-virtual-node state that
        must be migrated on resize (§4.1).
        """
        return {k: v.copy() for k, v in self.named_buffers()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_buffers())
        for key, array in own.items():
            if key not in state:
                raise KeyError(f"missing buffer {key!r} in state dict")
            array[...] = np.asarray(state[key], dtype=array.dtype)

    # -- execution ----------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        *,
        training: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters().values()))


class Dense(Module):
    """Affine layer: ``y = x @ W + b`` (input may have extra leading dims)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 initializer: str = "glorot") -> None:
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        if initializer == "glorot":
            w = init.glorot_uniform(rng, (in_dim, out_dim))
        elif initializer == "he":
            w = init.he_normal(rng, (in_dim, out_dim))
        else:
            raise ValueError(f"unknown initializer {initializer!r}")
        self._register("w", w)
        self._register("b", init.zeros((out_dim,)))
        self._x: Optional[np.ndarray] = None

    def forward(self, x, *, training=False, rng=None):
        self._x = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, grad):
        x = self._x
        x2 = x.reshape(-1, self.in_dim)
        g2 = grad.reshape(-1, self.out_dim)
        self.grads["w"] += x2.T @ g2
        self.grads["b"] += g2.sum(axis=0)
        return grad @ self.params["w"].T


class Dropout(Module):
    """Inverted dropout; the mask comes from the caller-supplied rng.

    Because the executor passes a per-(step, virtual node) generator, dropout
    is identical across any virtual-node-to-device mapping.
    """

    def __init__(self, rate: float) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask: Optional[np.ndarray] = None

    def forward(self, x, *, training=False, rng=None):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("Dropout requires an rng during training")
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x, *, training=False, rng=None):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad):
        return grad * self._mask


class Tanh(Module):
    def __init__(self) -> None:
        super().__init__()
        self._t: Optional[np.ndarray] = None

    def forward(self, x, *, training=False, rng=None):
        self._t = np.tanh(x)
        return self._t

    def backward(self, grad):
        return grad * (1.0 - self._t**2)


class Flatten(Module):
    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x, *, training=False, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class Residual(Module):
    """y = x + body(x); body is any submodule."""

    def __init__(self, body: Module) -> None:
        super().__init__()
        self.body = self.add_child("body", body)

    def forward(self, x, *, training=False, rng=None):
        return x + self.body.forward(x, training=training, rng=rng)

    def backward(self, grad):
        return grad + self.body.backward(grad)


class Sequential(Module):
    """Chain of modules executed in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for i, module in enumerate(modules):
            self.add_child(str(i), module)

    def forward(self, x, *, training=False, rng=None):
        for _, layer in self._children:
            x = layer.forward(x, training=training, rng=rng)
        return x

    def backward(self, grad):
        for _, layer in reversed(self._children):
            grad = layer.backward(grad)
        return grad
