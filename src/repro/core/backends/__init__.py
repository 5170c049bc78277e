"""Execution backends.

The semantic model (virtual nodes, canonical reduction order, per-node
state) is fixed; *how* waves execute on the host sits behind the
:class:`ExecutionBackend` interface:

* :class:`FusedBackend` — what every engine runs: every wave of a step,
  equal- or mixed-size, stateless or stateful, as one segmented vectorized
  pass over the model's kernel plan, bit-identical to the serial loop;
* the canonical serial wave loop, the bit-exactness oracle, lives with
  the tests (``tests/oracles/reference_backend.py``), which assign it to
  an engine's ``backend``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ExecutionBackend": "repro.core.backends.base",
    "FusedBackend": "repro.core.backends.fused",
    "TrainStep": "repro.core.backends.base",
    "TrainStepOutput": "repro.core.backends.base",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
