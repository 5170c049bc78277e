"""Tenant-fairness frontier: WFQ vs FIFO under a best-effort flood.

A request router serving tenants claims that weighted fair queueing — not
admission control alone — is what protects a premium tenant's SLO from a
misbehaving neighbour.  This benchmark pins that claim as an overload
frontier.  One premium tenant offers a steady 250 req/s (inside its
token-bucket quota, weight 8, 35 ms p99 SLO) while a best-effort tenant
floods a single-device pool at rates swept from comfortable to 8000 req/s.
Both tenants run through the identical :class:`RequestRouter` (given the
registry) with the identical depth-capped admission policy; the *only*
difference between the two cells at each flood level is the dispatcher:

* ``wfq``  — the router's weighted fair queue: the premium tenant's
  finish tags advance 8x slower, so its requests jump the flood backlog
  and its p99 stays a few milliseconds regardless of the flood rate —
  while the flood tenant still meets its own 150 ms best-effort SLO
  (fairness, not starvation);
* ``fifo`` — the pre-tenancy queue: premium requests wait behind the
  whole depth-capped backlog, so once the flood exceeds the pool's
  capacity the premium p99 blows through its SLO and attainment
  collapses.

The frontier gates: WFQ holds premium attainment >= 95% at **every** flood
level; FIFO collapses below the floor at every overloaded level.  The
hardest WFQ cell also writes the durable request journal and the gate
asserts :func:`repro.serving.audit_journal` reproduces the live per-tenant
digests **exactly** — the ``repro audit`` path is bit-for-bit, not close.

Everything is simulated time and deterministic in the pinned seed (the
hardest cell is re-run and compared) — so the gates have no noise
tolerance and never retry.  Results persist as
``results/tenant_fairness.txt``, ``results/BENCH_tenant_fairness.json``,
and the journal as ``results/tenant_fairness_journal.jsonl``.  ``--smoke``
runs a tiny trace with no gate, for CI breakage detection.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from _common import RESULTS_DIR, report, save_bench_json
from repro.elastic import ServingPhase
from repro.serving import TenantRegistry, audit_journal, serve_workload
from repro.serving.batcher import AdmissionPolicy

WORKLOAD = "mlp_synthetic"
POOL = 1                 # one device: capacity ~4.1k req/s, so the sweep
                         # crosses from underload into 2x overload
PREM_RATE = 250.0        # req/s, constant across every flood level
PREM_QUOTA = 300.0       # req/s: the premium tenant stays inside quota
PREM_WEIGHT = 8.0
MAX_BATCH = 8
MAX_WAIT = 0.002
DURATION = 2.0
SEED = 7
ATTAIN_FLOOR = 0.95
QUEUE_DEPTH = 256        # admission cap: bounds the backlog FIFO premium
                         # requests wait behind (~64 ms — past the 35 ms SLO)

# Best-effort flood rates (req/s).  The pool absorbs the first two; the
# last two are past saturation, where the dispatcher decides who pays.
FLOODS = (1000.0, 2000.0, 4000.0, 8000.0)
OVERLOADED = (4000.0, 8000.0)

ADMISSION = AdmissionPolicy(max_queue_depth=QUEUE_DEPTH,
                            max_estimated_wait=None)

JOURNAL_PATH = os.path.join(RESULTS_DIR, "tenant_fairness_journal.jsonl")


def _registry(flood: float) -> TenantRegistry:
    """Premium at a fixed rate; the flood tenant's share carries the sweep.

    ``share`` values are the per-tenant load split of the total phase rate,
    so premium's arrival stream is identical at every flood level (its own
    seed domain, its own 250 req/s trace).
    """
    return TenantRegistry.from_spec(
        f"prem:class=premium,weight={PREM_WEIGHT:g},quota={PREM_QUOTA:g},"
        f"share={PREM_RATE:g};"
        f"flood:class=best_effort,weight=1,share={flood:g}")


def _run(dispatcher: str, flood: float, smoke: bool,
         journal: Optional[str] = None):
    duration = 0.5 if smoke else DURATION
    return serve_workload(
        WORKLOAD, [ServingPhase(duration, PREM_RATE + flood)],
        max_batch=MAX_BATCH, max_wait=MAX_WAIT, pool_devices=POOL,
        seed=SEED, tenants=_registry(flood), admission=ADMISSION,
        dispatcher=dispatcher, journal=journal)


def _cell(dispatcher: str, flood: float, smoke: bool) -> Dict:
    rep = _run(dispatcher, flood, smoke)
    prem = rep.tenants["prem"]
    best = rep.tenants["flood"]
    return {
        "prem_p99_ms": prem["latency_p99_ms"],
        "prem_attainment": prem["slo_attainment"],
        "prem_holds_slo": prem["slo_attainment"] >= ATTAIN_FLOOR,
        "prem_shed": prem["shed"],
        "flood_p99_ms": best["latency_p99_ms"],
        "flood_attainment": best["slo_attainment"],
        "flood_shed_rate": best["shed_rate"],
        "requests": len(rep.records),
    }


def run(smoke: bool = False) -> Dict:
    floods = (FLOODS[0], FLOODS[-1]) if smoke else FLOODS
    frontier: List[Dict] = []
    rows: List[List[str]] = []
    for flood in floods:
        cells = {d: _cell(d, flood, smoke) for d in ("wfq", "fifo")}
        for dispatcher, cell in cells.items():
            rows.append([
                f"{flood:g}", dispatcher,
                f"{cell['prem_p99_ms']:.1f}",
                f"{cell['prem_attainment']:.1%}",
                f"{int(cell['prem_shed'])}",
                f"{cell['flood_p99_ms']:.1f}",
                f"{cell['flood_attainment']:.1%}",
                f"{cell['flood_shed_rate']:.1%}",
            ])
        frontier.append({"flood_rps": flood, "cells": cells})

    # The hardest WFQ cell once more, journalled: the offline audit must
    # reproduce the live per-tenant digests bit-for-bit.
    rep = _run("wfq", floods[-1], smoke, journal=JOURNAL_PATH)
    audit = audit_journal(JOURNAL_PATH)
    audit_ok = audit["tenants"] == rep.tenants

    report("tenant_fairness",
           ["flood req/s", "dispatcher", "prem p99 ms", "prem attain",
            "prem shed", "flood p99 ms", "flood attain", "flood shed"],
           rows,
           title=f"Tenant-fairness frontier: premium {PREM_RATE:g} req/s "
                 f"(weight {PREM_WEIGHT:g}, quota {PREM_QUOTA:g} req/s, "
                 f"35 ms SLO) vs a best-effort flood on {POOL} V100, "
                 f"depth-capped admission ({QUEUE_DEPTH})",
           notes=f"wfq must hold premium attainment >= {ATTAIN_FLOOR:.0%} "
                 f"at every flood level while the flood tenant still meets "
                 f"its 150 ms SLO; fifo collapses past saturation.  journal "
                 f"audit parity: {'exact' if audit_ok else 'MISMATCH'}")
    payload = {
        "smoke": smoke,
        "workload": WORKLOAD,
        "pool_devices": POOL,
        "prem_rate_rps": PREM_RATE,
        "prem_quota_rps": PREM_QUOTA,
        "prem_weight": PREM_WEIGHT,
        "queue_depth": QUEUE_DEPTH,
        "attain_floor": ATTAIN_FLOOR,
        "seed": SEED,
        "floods": list(floods),
        "frontier": frontier,
        "audit": {
            "journal": os.path.relpath(JOURNAL_PATH, RESULTS_DIR),
            "requests": audit["requests"],
            "shed": audit["shed"],
            "matches_live": audit_ok,
        },
    }
    path = save_bench_json("tenant_fairness", payload)
    print(f"wrote {os.path.relpath(path, os.getcwd())}")
    return payload


# One full frontier run shared by every gate test (rerunning in smoke mode
# would clobber the published results files with tiny-trace numbers).
_FULL_PAYLOAD: Dict = {}


def _full_payload() -> Dict:
    if not _FULL_PAYLOAD:
        _FULL_PAYLOAD.update(run(smoke=False))
    return _FULL_PAYLOAD


def test_wfq_holds_premium_slo_at_every_flood():
    """WFQ keeps the premium tenant inside its SLO at every flood level —
    without starving the flood tenant out of its own best-effort SLO —
    while FIFO's premium attainment collapses at every overloaded level.
    Deterministic — no retries."""
    payload = _full_payload()
    for point in payload["frontier"]:
        flood = point["flood_rps"]
        wfq = point["cells"]["wfq"]
        assert wfq["prem_attainment"] >= payload["attain_floor"], (
            f"WFQ lost the premium SLO at flood {flood:g} req/s: "
            f"attainment {wfq['prem_attainment']:.1%}")
        assert wfq["prem_shed"] == 0, (
            f"premium was shed within quota at flood {flood:g} req/s")
        assert wfq["flood_attainment"] >= payload["attain_floor"], (
            f"WFQ starved the best-effort tenant at flood {flood:g} req/s: "
            f"attainment {wfq['flood_attainment']:.1%}")
    for point in payload["frontier"]:
        if point["flood_rps"] not in OVERLOADED:
            continue
        fifo = point["cells"]["fifo"]
        assert fifo["prem_attainment"] < payload["attain_floor"], (
            f"FIFO held premium {fifo['prem_attainment']:.1%} at flood "
            f"{point['flood_rps']:g} req/s — the flood is not stressing it")


def test_overload_pays_in_flood_shed_not_premium_latency():
    """Past saturation the flood tenant pays with sheds (monotone in its
    own rate) while WFQ premium p99 stays flat — graceful degradation is
    tenant-attributed, not socialized."""
    payload = _full_payload()
    shed_rates = [p["cells"]["wfq"]["flood_shed_rate"]
                  for p in payload["frontier"]]
    assert all(b >= a for a, b in zip(shed_rates, shed_rates[1:])), (
        f"flood shed rate is not monotone in the flood rate: {shed_rates}")
    assert shed_rates[-1] > 0.0, "the top flood level never shed"
    p99s = [p["cells"]["wfq"]["prem_p99_ms"] for p in payload["frontier"]]
    assert max(p99s) <= 35.0, (
        f"WFQ premium p99 drifted with the flood rate: {p99s}")
    # Identical admission in both cells: the sheds match level for level.
    for point in payload["frontier"]:
        assert (point["cells"]["wfq"]["flood_shed_rate"]
                == point["cells"]["fifo"]["flood_shed_rate"]), (
            f"cells diverge in admission at flood {point['flood_rps']:g}")


def test_journal_audit_reproduces_live_report(tmp_path):
    """The offline journal replay equals the live per-tenant report
    **exactly** — every float bit-identical, no rerun, no report object."""
    payload = _full_payload()
    assert payload["audit"]["matches_live"], (
        "audit_journal diverged from the live per-tenant report")
    journal = str(tmp_path / "journal.jsonl")
    rep = _run("wfq", FLOODS[-1], smoke=False, journal=journal)
    audit = audit_journal(journal)
    assert audit["tenants"] == rep.tenants
    assert audit["dispatcher"] == "wfq"
    assert audit["requests"] == len(rep.records)
    assert audit["shed"] == len(rep.shed)


def test_tenant_fairness_deterministic_across_runs():
    """The hardest cell replays bit-identically: two seeded runs agree."""
    flood = FLOODS[-1]
    first = _cell("wfq", flood, smoke=False)
    again = _cell("wfq", flood, smoke=False)
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
    ok = payload["audit"]["matches_live"]
    for point in payload["frontier"]:
        if point["cells"]["wfq"]["prem_attainment"] < payload["attain_floor"]:
            ok = False
        if (point["flood_rps"] in OVERLOADED
                and point["cells"]["fifo"]["prem_attainment"]
                >= payload["attain_floor"]):
            ok = False
    if not ok:
        print("WARNING: WFQ did not dominate the tenant-fairness frontier",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
