"""Gateway throughput: a 1M-request overload replay against an absolute floor.

The request router serving tenants is the front end every co-scheduling
result runs through, and under overload its admission path executes once per
*offered* request — millions of times per experiment.  This benchmark
replays 1M requests of a two-tenant overload (a premium tenant inside quota
plus a best-effort flood, depth-capped admission, WFQ dispatch, full request
journal) through it: wave-at-a-time arrival consumption,
vectorized tenant metering, the shed rule's depth-only numpy side, bulk WFQ
pushes, and journal lines assembled from cached fragments.

The gate is absolute: offered requests per second above :data:`FLOOR_RPS`,
and every journal line byte-equal to ``json.dumps(record, sort_keys=True)``
of the record it parses to.  The floor sits at most half of what the
recording host measures (435–536 k req/s) and above everything the replay
measured on the code this file used to embed as baselines — the pre-wave
stack with one ``Request``, one scalar bucket draw and one ``json.dumps``
per offered request (80–82 k) and the per-request admission loop over the
bulk journal (88–91 k) — so a fall back to per-request work still trips it.

Admission decisions are not this file's business: they are pinned against
``tests/oracles/admission.py`` on generated waves and by the golden-trace
suite.  Results persist as ``results/gateway_throughput.txt`` and
``results/BENCH_gateway_throughput.json``.  ``--smoke`` runs a small replay
against the same floor.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from typing import Dict

from _common import report, save_bench_json
from repro.core.inference import InferenceEngine
from repro.core.mapping import Mapping
from repro.core.virtual_node import VirtualNodeSet
from repro.data import make_dataset
from repro.elastic.trace import ServingPhase
from repro.framework.models import get_workload
from repro.hardware.cluster import Cluster
from repro.runtime import EventTrace
from repro.serving.batcher import AdmissionPolicy, MicroBatchPolicy
from repro.serving.gateway import MultiTenantPoissonSource
from repro.serving.router import RequestRouter
from repro.serving.tenancy import TenantRegistry, split_phases

# Replay geometry: a two-tenant overload — a premium tenant well inside its
# quota share plus a best-effort flood at ~16x its share — against one
# serving device with a depth-capped queue, so the overwhelming majority of
# offered requests exercise the admission/shed/journal path.
REQUESTS = 1_000_000
ARRIVAL_RATE = 500_000.0
REGISTRY_SPEC = ("prem:class=premium,weight=8,quota=300,share=250;"
                 "flood:class=best_effort,weight=1,share=4000")
QUEUE_DEPTH = 256
SEED = 7

SMOKE_REQUESTS = 20_000
# Absolute offered-req/s floor, full replay and --smoke alike (see the
# module docstring for where it sits and why).
FLOOR_RPS = 200_000.0


# --------------------------------------------------------------------------
# The two-tenant overload replay.
# --------------------------------------------------------------------------

def _build(n: int):
    """One fully wired tenant router, journaling to an in-memory sink."""
    registry = TenantRegistry.from_spec(REGISTRY_SPEC)
    workload = get_workload("mlp_synthetic")
    pool = Cluster.homogeneous("V100", 1)
    mapping = Mapping.even(VirtualNodeSet.even(1, 1), pool)
    engine = InferenceEngine(workload, workload.build_model(SEED), mapping)
    dataset = make_dataset(workload.dataset, n=512, seed=SEED)
    phases = [ServingPhase(n / ARRIVAL_RATE, ARRIVAL_RATE)]
    source = MultiTenantPoissonSource(
        registry, split_phases(phases, registry), dataset.x_val, seed=SEED,
        limit=n)
    sink = io.StringIO()
    router = RequestRouter(
        engine, source,
        policy=MicroBatchPolicy(max_batch=8, max_wait=0.002), pool=pool,
        name="gateway",
        admission=AdmissionPolicy(max_queue_depth=QUEUE_DEPTH,
                                  max_estimated_wait=None),
        tenants=registry, journal=EventTrace(sink))
    return router, source, sink


def run_replay(n: int) -> Dict[str, object]:
    router, source, sink = _build(n)
    t0 = time.perf_counter()
    result = router.run()
    wall = time.perf_counter() - t0
    lines = sink.getvalue().splitlines()
    return {
        "wall_s": wall,
        "offered": source.total_requests,
        "offered_per_s": source.total_requests / wall,
        "served": len(result.records),
        "shed": len(result.shed),
        "journal_lines": len(lines),
        # Outside the timed region: every line is the canonical dump of
        # the record it parses to, whichever writer assembled it.
        "journal_canonical": all(
            line == json.dumps(json.loads(line), sort_keys=True)
            for line in lines),
    }


# --------------------------------------------------------------------------
# Driver + gates.
# --------------------------------------------------------------------------

def run(smoke: bool = False) -> Dict:
    n = SMOKE_REQUESTS if smoke else REQUESTS
    # The smoke replay lasts ~50 ms, first-call costs included: best of 3.
    replay = min((run_replay(n) for _ in range(3 if smoke else 1)),
                 key=lambda r: r["wall_s"])
    payload: Dict = {
        "smoke": smoke,
        "requests": n,
        "arrival_rate": ARRIVAL_RATE,
        "queue_depth": QUEUE_DEPTH,
        "floor_offered_per_s": FLOOR_RPS,
        "replay": replay,
    }
    report("gateway_throughput",
           ["offered", "served", "shed", "wall s", "req/s"],
           [[f"{replay['offered']:,}", f"{replay['served']:,}",
             f"{replay['shed']:,}", f"{replay['wall_s']:.2f}",
             f"{replay['offered_per_s']:,.0f}"]],
           title=f"Gateway throughput: {n:,}-request two-tenant overload "
                 f"replay (@{ARRIVAL_RATE:,.0f} req/s offered, depth "
                 f"{QUEUE_DEPTH})",
           notes=f"gate: >= {FLOOR_RPS:,.0f} offered req/s and every "
                 "journal line == json.dumps(record, sort_keys=True); "
                 "decisions are pinned against tests/oracles/admission.py")
    path = save_bench_json("gateway_throughput", payload)
    print(f"wrote {os.path.relpath(path, os.getcwd())}")
    return payload


def _failures(replay: Dict[str, object]) -> list:
    out = []
    if not replay["journal_canonical"]:
        out.append("a journal line is not json.dumps(record, sort_keys=True)")
    if replay["served"] + replay["shed"] != replay["offered"] \
            or replay["journal_lines"] != replay["offered"] + 2:
        out.append(f"offered {replay['offered']} != served {replay['served']}"
                   f" + shed {replay['shed']} (journal lines "
                   f"{replay['journal_lines']})")
    if replay["offered_per_s"] < FLOOR_RPS:
        out.append(f"replay at {replay['offered_per_s']:,.0f} offered req/s "
                   f"(floor {FLOOR_RPS:,.0f})")
    return out


def test_million_request_gateway_speedup():
    """The gateway must replay the 1M-request overload above the absolute
    req/s floor, lose no request and write only canonical journal lines."""
    assert not _failures(run(smoke=False)["replay"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small replay against the same req/s floor")
    args = parser.parse_args(argv)
    failures = _failures(run(smoke=args.smoke)["replay"])
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
