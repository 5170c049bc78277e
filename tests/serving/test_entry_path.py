"""The open-loop serving path builds no :class:`Request` object.

From the arrival wave to the completion block an admitted arrival is one
plain queue entry, ``(arrival, request_id, tenant, client, example)``;
``Request`` is what request-list sources (closed-loop clients, the tenant
tagger, ``take_arrivals``) hand over.  Every constructed ``Request`` runs
``__post_init__``, so counting those calls over whole runs catches a
per-request object creeping back onto the open-loop path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import CRASH, REVIVE, ChaosEvent, FaultPlan
from repro.core import InferenceEngine, Mapping, VirtualNodeSet
from repro.data import make_dataset
from repro.elastic import ServingPhase
from repro.framework.models import get_workload
from repro.hardware import Cluster
from repro.sched import resident_training_jobs, run_cosched
from repro.serving import (
    AdmissionPolicy,
    ClosedLoopSource,
    Request,
    RequestRouter,
    TenantRegistry,
    serve_workload,
)

TENANTS = "prem:class=premium,weight=8,quota=300;flood:share=4"


@pytest.fixture
def requests_built(monkeypatch):
    """How many :class:`Request` objects were constructed so far."""
    built = []
    post_init = Request.__post_init__

    def counting(self):
        built.append(self.request_id)
        post_init(self)

    monkeypatch.setattr(Request, "__post_init__", counting)
    return built


def _serve(**kwargs):
    return serve_workload("mlp_synthetic", [ServingPhase(0.5, 2000.0)],
                          pool_devices=1, seed=3, **kwargs)


@pytest.mark.parametrize("run", [
    pytest.param(lambda: _serve(), id="router"),
    pytest.param(lambda: _serve(tenants=TenantRegistry.from_spec(TENANTS)),
                 id="gateway"),
    pytest.param(lambda: _serve(
        tenants=TenantRegistry.from_spec(TENANTS),
        admission=AdmissionPolicy(max_queue_depth=16)), id="gateway-shedding"),
])
def test_serving_an_open_loop_source_builds_no_request(run, requests_built):
    report = run()
    assert len(report.records) > 500
    assert requests_built == []


def test_cosched_with_a_serving_crash_builds_no_request(requests_built):
    plan = FaultPlan.from_events([ChaosEvent(0.32, CRASH, 0),
                                  ChaosEvent(0.6, REVIVE, 0)])
    report = run_cosched(
        "mlp_synthetic", [ServingPhase(1.0, 400.0)],
        resident_training_jobs(1, demand_gpus=2), pool_devices=4,
        initial_serving=2, slo_p99=0.035, seed=1, fault_plan=plan,
        tenants=TenantRegistry.from_spec(TENANTS))
    assert any(requeued for _, _, requeued in report.serving.failures)
    assert len(report.serving.records) > 100
    assert requests_built == []


def test_a_closed_loop_source_serves_every_request_through_the_gateway(
        requests_built):
    workload = get_workload("mlp_synthetic")
    bank = make_dataset(workload.dataset, n=16, seed=0).x_val
    engine = InferenceEngine(
        workload, workload.build_model(0),
        Mapping.even(VirtualNodeSet.even(2, 2), Cluster.homogeneous("V100", 2)))
    source = ClosedLoopSource(num_clients=5, requests_per_client=4,
                              examples=bank, think_time=0.002, seed=0)
    report = RequestRouter(engine, source,
                           tenants=TenantRegistry.from_spec(TENANTS)).run()
    assert sorted(r.request_id for r in report.records) == list(range(20))
    assert sorted(requests_built) == list(range(20))
    assert {r.client for r in report.records} == set(range(5))
    assert np.isfinite(report.latencies()).all()
