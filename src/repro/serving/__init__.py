"""Online serving: dynamic micro-batching + elastic virtual-node autoscaling.

The training side of this repo resizes jobs by remapping virtual nodes; this
package applies the same abstraction to latency-bound serving.  A
discrete-event :class:`RequestRouter` admits single-example requests from an
open-loop Poisson (or closed-loop) :class:`RequestSource`, coalesces them
into micro-batches under a :class:`MicroBatchPolicy`, serves each batch
through the shared :class:`~repro.core.inference.InferenceEngine`, and — with
a :class:`LatencyAutoscaler` attached — remaps the virtual-node→device
assignment over a device pool whenever the observed p99 breaches (or clears)
the SLO.  Dispatch prices a micro-batch from the perf model; completed
micro-batches are forwarded together, and every one's logits are
bit-identical to a one-shot :class:`~repro.core.inference.InferenceEngine`
batch of the same requests, under any mapping and any scaling history; only
latency moves.  Like every package, this one loads a name's module on first
use: a run imports the autoscaler or the shed rule only when it arms them.

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

from repro._lazy import lazy_exports

_EXPORTS = {
    "AdmissionPolicy": "repro.serving.batcher",
    "BatchRecord": "repro.serving.request",
    "ClosedLoopSource": "repro.serving.generators",
    "DispatchQueue": "repro.serving.batcher",
    "LatencyAutoscaler": "repro.serving.autoscaler",
    "MicroBatchPolicy": "repro.serving.batcher",
    "MultiTenantPoissonSource": "repro.serving.gateway",
    "OpenLoopPoissonSource": "repro.serving.generators",
    "RequestRecord": "repro.serving.request",
    "RequestRouter": "repro.serving.router",
    "RequestSource": "repro.serving.generators",
    "SLO_CLASSES": "repro.serving.tenancy",
    "ScalingDecision": "repro.serving.autoscaler",
    "ServingReport": "repro.serving.router",
    "TenantRegistry": "repro.serving.tenancy",
    "TenantSpec": "repro.serving.tenancy",
    "TokenBucket": "repro.serving.tenancy",
    "audit_journal": "repro.serving.gateway",
    "serve_workload": "repro.serving.router",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
