"""Execution backends.

The semantic model (virtual nodes, canonical reduction order, per-node
state) is fixed; *how* waves execute on the host sits behind the
:class:`ExecutionBackend` interface:

* :class:`FusedBackend` — what every engine runs: every wave of a step,
  equal- or mixed-size, stateless or stateful, as one segmented vectorized
  pass, bit-identical to the serial loop, with a per-model serial fallback
  for user modules without kernels;
* :class:`ReferenceBackend` — the canonical serial wave loop: that fallback,
  and the bit-exactness oracle tests assign to an engine's ``backend``.
"""

from repro.core.backends.base import ExecutionBackend, TrainStep, TrainStepOutput
from repro.core.backends.fused import FusedBackend
from repro.core.backends.reference import ReferenceBackend

__all__ = [
    "ExecutionBackend",
    "FusedBackend",
    "ReferenceBackend",
    "TrainStep",
    "TrainStepOutput",
]
