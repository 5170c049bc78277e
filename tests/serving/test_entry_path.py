"""A closed-loop source enters the router the way open-loop load does.

Every source hands the router an
:class:`~repro.serving.generators.ArrivalWave` per pull and hears back one
:class:`~repro.serving.request.RecordBlock` per completed micro-batch; a
closed-loop population is no exception.  Its waves carry the issuing
client in their ``clients`` column, and its clients issue again when their
completions come back.
"""

from __future__ import annotations

import numpy as np

from repro.core import InferenceEngine, Mapping, VirtualNodeSet
from repro.data import make_dataset
from repro.framework.models import get_workload
from repro.hardware import Cluster
from repro.serving import (
    AdmissionPolicy,
    ClosedLoopSource,
    RequestRouter,
    TenantRegistry,
)

TENANTS = "prem:class=premium,weight=8,quota=300;flood:share=4"


def _closed_loop_router(**kwargs):
    workload = get_workload("mlp_synthetic")
    bank = make_dataset(workload.dataset, n=16, seed=0).x_val
    engine = InferenceEngine(
        workload, workload.build_model(0),
        Mapping.even(VirtualNodeSet.even(2, 2), Cluster.homogeneous("V100", 2)))
    source = ClosedLoopSource(num_clients=5, requests_per_client=4,
                              examples=bank, think_time=0.002, seed=0)
    return RequestRouter(engine, source, **kwargs)


def test_a_closed_loop_source_serves_every_request_through_the_gateway():
    report = _closed_loop_router(
        tenants=TenantRegistry.from_spec(TENANTS)).run()
    assert sorted(r.request_id for r in report.records) == list(range(20))
    assert {r.client for r in report.records} == set(range(5))
    assert np.isfinite(report.latencies()).all()


def test_a_shed_closed_loop_request_keeps_its_issue_id():
    """A shed arrival's id is its wave's ``first_id + j``: served and shed
    ids together are the issue order, each once, and a client whose
    request was shed issues nothing more."""
    report = _closed_loop_router(
        admission=AdmissionPolicy(max_queue_depth=1,
                                  max_estimated_wait=None)).run()
    served = [r.request_id for r in report.records]
    shed = [request_id for _, request_id, _ in report.shed]
    assert shed and served
    assert sorted(served + shed) == list(range(len(served) + len(shed)))
    assert len(served) + len(shed) < 20
