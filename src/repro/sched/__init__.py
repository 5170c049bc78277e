"""Cluster scheduling policies above the core engine.

Gavel-style round-based scheduling (§6.5.2): the Least Attained Service
policy over a heterogeneous cluster, with and without VirtualFlow's
heterogeneous allocations, one runtime event per round.  Co-scheduling:
elastic training and a serving router sharing one device pool, with the
:class:`CoScheduler` harvesting training GPUs during serving spikes.  Both
run on the unified discrete-event runtime.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CoschedReport": "repro.sched.cosched",
    "CoScheduler": "repro.sched.cosched",
    "GavelJob": "repro.sched.gavel",
    "GavelResult": "repro.sched.gavel",
    "GavelSimulator": "repro.sched.gavel",
    "hetero_split": "repro.sched.gavel",
    "hetero_throughput": "repro.sched.gavel",
    "resident_training_jobs": "repro.sched.cosched",
    "run_cosched": "repro.sched.cosched",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
