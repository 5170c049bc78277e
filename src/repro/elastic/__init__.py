"""Resource elasticity (§4): event-driven cluster simulation, the elastic
weighted-fair-sharing scheduler (Algorithm 1), and the static priority
baseline."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ClusterSimulator": "repro.elastic.simulator",
    "ElasticWFSScheduler": "repro.elastic.wfs",
    "JobSpec": "repro.elastic.jobs",
    "JobState": "repro.elastic.jobs",
    "JobStatus": "repro.elastic.jobs",
    "ServingPhase": "repro.elastic.trace",
    "SimulationResult": "repro.elastic.simulator",
    "StaticPriorityScheduler": "repro.elastic.priority",
    "TABLE3_WORKLOADS": "repro.elastic.trace",
    "TrainingClusterProcess": "repro.elastic.simulator",
    "TraceJob": "repro.elastic.trace",
    "TraceMetrics": "repro.elastic.metrics",
    "apply_policy": "repro.elastic.policies",
    "compute_metrics": "repro.elastic.metrics",
    "fifo_priority": "repro.elastic.policies",
    "sjf_priority": "repro.elastic.policies",
    "srtf_priority": "repro.elastic.policies",
    "generate_trace": "repro.elastic.trace",
    "serving_arrival_times": "repro.elastic.trace",
    "spike_phases": "repro.elastic.trace",
    "three_job_trace": "repro.elastic.trace",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
