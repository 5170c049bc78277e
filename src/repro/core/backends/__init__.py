"""Pluggable execution backends.

The semantic model (virtual nodes, canonical reduction order, per-node
state) is fixed; *how* waves execute on the host is a strategy behind the
:class:`ExecutionBackend` interface:

* ``fused`` — the default (:data:`DEFAULT_BACKEND`): every wave of a step,
  equal- or mixed-size, stateless or stateful, as one segmented vectorized
  pass, bit-identical to the serial loop, with a per-model serial fallback
  for user modules without kernels;
* ``reference`` — the canonical serial wave loop, the bit-exactness oracle.

Resolve names with :func:`get_backend`; extend with :func:`register_backend`.
"""

from repro.core.backends.base import (
    DEFAULT_BACKEND,
    ExecutionBackend,
    TrainStep,
    TrainStepOutput,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.backends.fused import FusedBackend
from repro.core.backends.reference import ReferenceBackend

register_backend("reference", ReferenceBackend)
register_backend("fused", FusedBackend)

__all__ = [
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "FusedBackend",
    "ReferenceBackend",
    "TrainStep",
    "TrainStepOutput",
    "backend_names",
    "get_backend",
    "register_backend",
]
