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

from repro._lazy import lazy_exports

_EXPORTS = {
    "ExecutionBackend": "repro.core.backends.base",
    "FusedBackend": "repro.core.backends.fused",
    "ReferenceBackend": "repro.core.backends.reference",
    "TrainStep": "repro.core.backends.base",
    "TrainStepOutput": "repro.core.backends.base",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
