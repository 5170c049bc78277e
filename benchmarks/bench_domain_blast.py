"""Domain-blast frontier: load shedding vs blast radius under rack wipes.

PR 7's chaos benchmark injected *independent* crashes; real clusters fail in
correlated blast radii — a PDU trip or a ToR switch takes a whole rack at
one instant.  This benchmark sweeps the failure-domain **blast radius** over
one fixed 8-device pool (8 racks of 1, 4 racks of 2, 2 racks of 4) and, at
each radius, wipes the rack holding the serving deployment's devices while
the trace runs its load spike.  Two routers face the identical wipe:

* ``noshed`` — the plain static router: every arrival is admitted, so the
  requests that pile up behind the outage all blow the p99 when the rack
  revives and the backlog drains;
* ``shed``   — the same router behind an :class:`AdmissionPolicy`
  (queue-depth + estimated-wait thresholds, brownout): arrivals that are
  already doomed are rejected at the door, so the requests actually
  admitted still meet the SLO.

The frontier claim: the shedding router holds >= 95% SLO attainment on
admitted requests at *every* blast radius, while the no-shedding baseline
collapses once the wipe covers the whole deployment — graceful degradation
measured as a shed rate, not a latency explosion.  A derate step (ECC
throttle on the first revived device) rides along so the brownout path and
the co-scheduler's derate-aware budget arbitration are exercised in the
same runs.

Everything is simulated time and deterministic in the pinned seeds (the
hardest cell is re-run and compared) — so the gates have no noise
tolerance and never retry.  Results persist as
``results/domain_blast.txt`` and ``results/BENCH_domain_blast.json``.
``--smoke`` runs a tiny trace with no gate, for CI breakage detection.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List

from _common import report, save_bench_json
from repro.chaos import (ECCThrottle, FailureDomainTopology, FaultPlan,
                         domain_wipe_events)
from repro.core import RecoveryPolicy
from repro.elastic import spike_phases
from repro.sched import resident_training_jobs, run_cosched
from repro.serving.batcher import AdmissionPolicy

WORKLOAD = "mlp_synthetic"
TRAIN_WORKLOAD = "resnet56_cifar10"
POOL = 8
SERVING = 4              # static serving split: devices 0..3, training 4..7
SLO_P99 = 0.035          # seconds — the 35 ms frontier
BASE_RATE = 400.0        # req/s; the spike multiplies this
SPIKE = 2.0
MAX_BATCH = 16
MAX_WAIT = 0.002
RESIZE_DELAY = 0.25
TRAIN_JOBS = 2
TRAIN_DEMAND = 4
SEED = 1
MTTR_WINDOW = 1.2        # seconds the wiped rack stays dark
DERATE = ECCThrottle(speed=0.7, duration_s=1.0)
ATTAIN_FLOOR = 0.95

# Blast radius -> rack shape over the same 8 devices.  Rack 0 always holds
# the serving deployment's lowest device ids, so the wipe hits serving with
# exactly `radius` devices at once (radius 4 = the whole deployment).
RADII = (1, 2, 4)

SHED_POLICY = AdmissionPolicy(max_queue_depth=48, max_estimated_wait=0.025,
                              brownout=True)
RECOVERY = RecoveryPolicy(mode="migrate")


def _phases(smoke: bool):
    if smoke:
        return spike_phases(BASE_RATE, SPIKE, base_duration=1.0,
                            spike_duration=0.5)
    return spike_phases(BASE_RATE, SPIKE, base_duration=3.0,
                        spike_duration=1.0)


def _topology(radius: int) -> FailureDomainTopology:
    return FailureDomainTopology.regular(POOL // radius, radius)


def _plan(radius: int, smoke: bool) -> FaultPlan:
    """Wipe rack 0 mid-trace, then ECC-throttle its first device on revive.

    The wipe lands during the base load before the spike; the rack comes
    back ``MTTR_WINDOW`` later (inside the spike for the full trace), and
    the freshly revived device runs derated — the post-power-trip thermal
    stress that arms the brownout path.
    """
    topology = _topology(radius)
    wipe_at = 0.4 if smoke else 2.5
    repair = wipe_at + (0.5 if smoke else MTTR_WINDOW)
    events = domain_wipe_events(topology, "rack", 0, wipe_at, repair)
    events.extend(DERATE.events(topology.members("rack", 0)[0], repair))
    return FaultPlan.from_events(
        events, description=f"rack wipe, blast radius {radius}",
        topology=topology, min_healthy=1)


def _run_policy(policy: str, radius: int, smoke: bool):
    train_specs = resident_training_jobs(TRAIN_JOBS, demand_gpus=TRAIN_DEMAND,
                                         workload=TRAIN_WORKLOAD)
    return run_cosched(
        WORKLOAD, _phases(smoke), train_specs,
        pool_devices=POOL, max_batch=MAX_BATCH, max_wait=MAX_WAIT,
        initial_serving=SERVING, autoscale=False,
        resize_delay=RESIZE_DELAY, seed=SEED,
        fault_plan=_plan(radius, smoke), recovery=RECOVERY,
        topology=_topology(radius),
        admission=SHED_POLICY if policy == "shed" else None)


def _cell(policy: str, radius: int, smoke: bool) -> Dict:
    rep = _run_policy(policy, radius, smoke)
    summary = rep.summary(slo_p99=SLO_P99)
    chaos = rep.chaos or {}
    return {
        "p99_ms": summary["serving_latency_p99_ms"],
        "slo_attainment": summary["serving_slo_attainment"],
        "holds_slo": summary["serving_slo_attainment"] >= ATTAIN_FLOOR,
        "requests": summary["serving_requests"],
        "offered": summary["serving_offered"],
        "shed_requests": summary["serving_shed_requests"],
        "shed_rate": summary["serving_shed_rate"],
        "brownout_batches": summary["serving_brownout_batches"],
        "train_goodput_sps": summary["train_goodput_sps"],
        "requeued_requests": chaos.get("requeued_requests", 0),
        "derate_events": chaos.get("derate_events", 0),
    }


def run(smoke: bool = False) -> Dict:
    radii = (RADII[0], RADII[-1]) if smoke else RADII
    frontier: List[Dict] = []
    rows: List[List[str]] = []
    for radius in radii:
        cells = {policy: _cell(policy, radius, smoke)
                 for policy in ("noshed", "shed")}
        for policy, cell in cells.items():
            rows.append([
                str(radius), policy,
                f"{cell['p99_ms']:.1f}",
                f"{cell['slo_attainment']:.1%}",
                f"{int(cell['shed_requests'])}",
                f"{cell['shed_rate']:.1%}",
                f"{int(cell['brownout_batches'])}",
                f"{cell['train_goodput_sps']:.1f}",
            ])
        frontier.append({"blast_radius": radius, "cells": cells})

    report("domain_blast",
           ["radius", "policy", "p99 ms", "SLO attain", "shed", "shed rate",
            "brownouts", "train steps/s"],
           rows,
           title=f"Domain-blast frontier: {WORKLOAD} static-{SERVING} "
                 f"serving + {TRAIN_JOBS}x{TRAIN_WORKLOAD} on one pool of "
                 f"{POOL} V100s; rack 0 wiped mid-trace "
                 f"({MTTR_WINDOW:g}s outage), ECC derate on revive",
           notes=f"shed admission (depth {SHED_POLICY.max_queue_depth}, "
                 f"wait {SHED_POLICY.max_estimated_wait*1e3:g} ms, brownout)"
                 f" must hold attainment >= {ATTAIN_FLOOR:.0%} on admitted "
                 f"requests at every radius; the no-shedding baseline "
                 f"collapses once the wipe covers the deployment")
    payload = {
        "smoke": smoke,
        "workload": WORKLOAD,
        "train_workload": TRAIN_WORKLOAD,
        "pool_devices": POOL,
        "serving_devices": SERVING,
        "slo_p99_ms": SLO_P99 * 1e3,
        "attain_floor": ATTAIN_FLOOR,
        "outage_s": MTTR_WINDOW,
        "seed": SEED,
        "radii": list(radii),
        "frontier": frontier,
    }
    path = save_bench_json("domain_blast", payload)
    print(f"wrote {os.path.relpath(path, os.getcwd())}")
    return payload


# One full frontier run shared by every gate test (rerunning in smoke mode
# would clobber the published results files with tiny-trace numbers).
_FULL_PAYLOAD: Dict = {}


def _full_payload() -> Dict:
    if not _FULL_PAYLOAD:
        _FULL_PAYLOAD.update(run(smoke=False))
    return _FULL_PAYLOAD


def test_shedding_holds_slo_at_every_radius():
    """The shedding router holds the attainment floor on admitted requests
    at every blast radius; the no-shedding baseline collapses once the wipe
    covers the whole deployment.  Deterministic — no retries."""
    payload = _full_payload()
    for point in payload["frontier"]:
        radius = point["blast_radius"]
        shed = point["cells"]["shed"]
        assert shed["slo_attainment"] >= payload["attain_floor"], (
            f"shedding router lost the SLO at blast radius {radius}: "
            f"attainment {shed['slo_attainment']:.1%}")
    worst = payload["frontier"][-1]
    noshed = worst["cells"]["noshed"]
    assert noshed["slo_attainment"] < payload["attain_floor"], (
        f"no-shedding baseline held {noshed['slo_attainment']:.1%} at blast "
        f"radius {worst['blast_radius']} — the wipe is not stressing it")


def test_shed_rate_grows_with_blast_radius():
    """Graceful degradation is visible as shed rate, monotone in the blast
    radius, and the brownout policy actually fires under the derate."""
    payload = _full_payload()
    rates = [p["cells"]["shed"]["shed_rate"] for p in payload["frontier"]]
    assert all(b >= a for a, b in zip(rates, rates[1:])), (
        f"shed rate is not monotone in blast radius: {rates}")
    # A 1-device wipe needs no shedding (rate 0 is the graceful floor); the
    # whole-deployment wipe must shed meaningfully.
    assert rates[-1] > rates[0], (
        f"shed rate does not grow with blast radius: {rates}")
    assert rates[-1] > 0.0
    for point in payload["frontier"]:
        shed = point["cells"]["shed"]
        assert shed["brownout_batches"] > 0, (
            f"brownout never engaged at radius {point['blast_radius']} "
            f"despite the revive derate")
        assert point["cells"]["noshed"]["shed_requests"] == 0


def test_domain_blast_deterministic_across_runs():
    """The hardest cell replays bit-identically: two seeded runs agree."""
    radius = RADII[-1]
    first = _cell("shed", radius, smoke=False)
    again = _cell("shed", radius, smoke=False)
    assert first == again, "two seeded runs of the same cell disagree"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny config, no frontier gate (CI breakage "
                             "check)")
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)
    if args.smoke:
        return 0
    ok = True
    for point in payload["frontier"]:
        if point["cells"]["shed"]["slo_attainment"] < payload["attain_floor"]:
            ok = False
    if payload["frontier"][-1]["cells"]["noshed"]["slo_attainment"] >= \
            payload["attain_floor"]:
        ok = False
    if not ok:
        print("WARNING: shedding did not dominate the blast-radius frontier",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
