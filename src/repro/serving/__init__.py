"""Online serving: dynamic micro-batching + elastic virtual-node autoscaling.

The training side of this repo resizes jobs by remapping virtual nodes; this
package applies the same abstraction to latency-bound serving.  A
discrete-event :class:`RequestRouter` admits single-example requests from an
open-loop Poisson (or closed-loop) :class:`RequestSource`, coalesces them
into micro-batches under a :class:`MicroBatchPolicy`, serves each batch
through the shared :class:`~repro.core.inference.InferenceEngine`, and — with
a :class:`LatencyAutoscaler` attached — remaps the virtual-node→device
assignment over a device pool whenever the observed p99 breaches (or clears)
the SLO.  Every dispatched micro-batch is bit-identical to a one-shot
:class:`~repro.core.inference.InferenceEngine` batch of the same requests,
under any mapping and any scaling history; only latency moves.

Quickstart::

    from repro.elastic import spike_phases
    from repro.serving import serve_workload

    report = serve_workload(
        "mlp_synthetic", spike_phases(base_rate=200.0, spike_factor=4.0),
        max_batch=16, max_wait=0.002, pool_devices=8,
        autoscale=True, slo_p99=0.030,
    )
    print(report.summary(slo_p99=0.030))
"""

# Imported eagerly, unlike the other packages: every command that reaches
# serving runs the router, which loads all of these modules anyway, and
# loading them together defines every request source as soon as any
# serving module is imported.
from repro.serving.request import BatchRecord, RequestRecord
from repro.serving.batcher import (
    AdmissionPolicy,
    DispatchQueue,
    MicroBatchPolicy,
)
from repro.serving.generators import (
    ClosedLoopSource,
    OpenLoopPoissonSource,
    RequestSource,
)
from repro.serving.autoscaler import LatencyAutoscaler, ScalingDecision
from repro.serving.router import RequestRouter, ServingReport, serve_workload
from repro.serving.tenancy import (
    SLO_CLASSES,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
)
from repro.serving.gateway import MultiTenantPoissonSource, audit_journal

__all__ = [
    "AdmissionPolicy",
    "BatchRecord",
    "ClosedLoopSource",
    "DispatchQueue",
    "LatencyAutoscaler",
    "MicroBatchPolicy",
    "MultiTenantPoissonSource",
    "OpenLoopPoissonSource",
    "RequestRecord",
    "RequestRouter",
    "RequestSource",
    "SLO_CLASSES",
    "ScalingDecision",
    "ServingReport",
    "TenantRegistry",
    "TenantSpec",
    "TokenBucket",
    "audit_journal",
    "serve_workload",
]
