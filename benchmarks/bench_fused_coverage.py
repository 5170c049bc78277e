"""Fused-backend workload coverage: the ResNet wave hot path, ref vs fused.

PR 1 vectorized equal-size waves for stateless models; the stateful frontier
(Conv2D + BatchNorm, i.e. every ResNet-style figure in the paper) still ran
the serial reference loop — O(V) forwards/backwards plus per-wave
``state_dict`` deep copies per step.  With the segmented kernels the fused
backend now covers the *entire* built-in workload zoo with no training
fallback, so this benchmark (a) asserts that coverage — every registered
workload's model must have a kernel plan (``kernel_plan``), which training
and inference both walk — and (b) measures the host wall-clock
win on the ResNet wave hot path at many virtual nodes, the regime the
paper's Table 1 / Fig 8 / Fig 2 workloads live in.

Serving takes the same kernels at a different shape — micro-batches of a
few requests over as many one-example virtual nodes as the pool has devices
— so (c) times ``backend.infer`` per micro-batch length over one and four
virtual nodes (one segment; uniform, and two size runs) and on a conv
model, under the same rule, with the two backends timed in interleaved
pairs and the rule read off the median paired ratio.

The gate is what holds on any host: every workload fuses, the two backends
train to bit-identical parameters and serve bit-identical logits, and the
fused pass is never slower.  The
size of the win (2-3x at 16+ virtual nodes) is wall clock on whatever
machine runs this, so the best speedup is printed, not gated; absolute
timings are tracked by the end-to-end ledger.  Results persist as
``results/fused_coverage.txt`` (table) and
``results/BENCH_fused_coverage.json`` (machine-readable perf record — see
the ``BENCH_*.json`` convention in ``_common.py``).  ``--smoke`` runs a tiny
config with no speedup gate, for CI breakage detection.
"""

from __future__ import annotations

import argparse
import functools
import os
import statistics
import sys
import time
from typing import Dict, List

import numpy as np

from _common import report, save_bench_json
from oracles.reference_backend import ReferenceBackend
from repro.core import InferenceEngine, Mapping, TrainerConfig, VirtualFlowTrainer
from repro.core.backends.vectorized import UnsupportedModule, kernel_plan, loss_kernel
from repro.core.virtual_node import VirtualNodeSet
from repro.data import make_dataset
from repro.framework import WORKLOADS, SoftmaxCrossEntropy, get_workload
from repro.hardware import Cluster

# (workload, virtual nodes, per-node batch) — headline config first.
CONFIGS = (
    ("resnet56_cifar10", 16, 2),
    ("resnet56_cifar10", 32, 2),
    ("resnet50_imagenet", 16, 2),
)
SMOKE_CONFIGS = (("resnet56_cifar10", 4, 2),)
# (workload, virtual nodes, micro-batch lengths): the serving shape.
INFER_CONFIGS = (
    ("mlp_synthetic", 1, tuple(range(1, 9))),
    ("mlp_synthetic", 4, tuple(range(1, 9))),
    ("resnet56_cifar10", 4, (8, 32)),
)
SMOKE_INFER_CONFIGS = (("mlp_synthetic", 4, (5,)),)


def _best_of(fn, steps: int, reps: int) -> float:
    """Best-of-``reps`` mean seconds per call over ``steps`` calls."""
    fn()  # warm
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(steps):
            fn()
        best = min(best, (time.perf_counter() - t0) / steps)
    return best


def coverage_matrix() -> List[Dict]:
    """Every workload's kernel plan and loss kernel, or the error that names
    what the fused pass cannot run (there is no other path)."""
    rows = []
    loss_fn = SoftmaxCrossEntropy()  # the trainer's, for every workload
    for name in sorted(WORKLOADS):
        try:
            plan = kernel_plan(get_workload(name).build_model(0))
            loss_kernel(loss_fn)
        except UnsupportedModule as error:
            rows.append({"workload": name, "fused": False, "error": str(error)})
        else:
            rows.append({"workload": name, "fused": True, "plan_steps": len(plan)})
    return rows


def _step_times(workload_name: str, num_vns: int, per_vn_batch: int,
                steps: int, reps: int) -> Dict[str, float]:
    """Seconds per executor step, serial reference loop vs fused pass.

    Both trainers take the same steps from the same seed, so they must end
    on the same parameters, bit for bit: fusion is a host optimization.
    """
    out = {}
    params = {}
    batch = num_vns * per_vn_batch
    for key in ("reference_s", "fused_s"):
        trainer = VirtualFlowTrainer(TrainerConfig(
            workload=workload_name, global_batch_size=batch,
            num_virtual_nodes=num_vns, num_devices=2,
            dataset_size=2 * batch))
        if key == "reference_s":
            trainer.executor.engine.backend = ReferenceBackend()
        x = trainer.dataset.x_train[:batch]
        y = trainer.dataset.y_train[:batch]
        counter = {"step": 0}

        def one_step() -> None:
            trainer.executor.run_step(x, y, epoch=0, step=counter["step"])
            counter["step"] += 1

        out[key] = _best_of(one_step, steps, reps)
        params[key] = trainer.executor.model.parameters()
    for name, value in params["reference_s"].items():
        np.testing.assert_array_equal(value, params["fused_s"][name])
    return out


def _infer_times(workload_name: str, num_vns: int, length: int,
                 calls: int, reps: int) -> Dict[str, float]:
    """Seconds per ``backend.infer`` of one ``length``-request micro-batch
    over ``num_vns`` one-example virtual nodes, as the request router
    shards it; both backends must return the same logits, bit for bit.

    The backends are timed in pairs: each rep times ``calls`` calls of
    both, back to back, alternating which goes first, so a slow stretch of
    the host lands on both halves of a pair.  ``reference_s``/``fused_s``
    are best-of-``reps``; ``ratio`` is the median of the per-rep
    fused/reference ratios, the estimator the gate reads."""
    workload = get_workload(workload_name)
    model = workload.build_model(0)
    vn_set = VirtualNodeSet.even(num_vns, num_vns)
    mapping = Mapping.even(vn_set, Cluster.homogeneous("V100", 1))
    x = np.ascontiguousarray(
        make_dataset(workload.dataset, n=4 * length, seed=0).x_train[:length])
    keys = ("reference_s", "fused_s")
    batches = {}
    for key in keys:
        engine = InferenceEngine(workload, model, mapping)
        if key == "reference_s":
            engine.engine.backend = ReferenceBackend()
        runs, _, _ = engine.engine.inference_plan(length)
        batches[key] = functools.partial(
            engine.backend.infer, model, vn_set, x, runs)
    logits = {key: one_batch() for key, one_batch in batches.items()}  # warm
    assert logits["reference_s"].tobytes() == logits["fused_s"].tobytes()
    best = dict.fromkeys(keys, float("inf"))
    ratios = []
    for rep in range(reps):
        per_call = {}
        for key in (keys if rep % 2 == 0 else keys[::-1]):
            one_batch = batches[key]
            t0 = time.perf_counter()
            for _ in range(calls):
                one_batch()
            per_call[key] = (time.perf_counter() - t0) / calls
            best[key] = min(best[key], per_call[key])
        ratios.append(per_call["fused_s"] / per_call["reference_s"])
    return {**best, "ratio": statistics.median(ratios)}


def run(smoke: bool = False) -> Dict:
    coverage = coverage_matrix()
    uncovered = [row["workload"] for row in coverage if not row["fused"]]
    assert not uncovered, f"workloads outside the fused path: {uncovered}"

    configs = SMOKE_CONFIGS if smoke else CONFIGS
    steps = 2 if smoke else 10
    reps = 1 if smoke else 3
    rows: List[List[str]] = []
    records: List[Dict] = []
    for workload_name, num_vns, per_vn_batch in configs:
        times = _step_times(workload_name, num_vns, per_vn_batch, steps, reps)
        speedup = times["reference_s"] / times["fused_s"]
        rows.append([
            workload_name, f"{num_vns}VN", f"{num_vns * per_vn_batch}",
            f"{times['reference_s']*1e3:.3f}", f"{times['fused_s']*1e3:.3f}",
            f"{speedup:.2f}x",
        ])
        records.append({
            "workload": workload_name,
            "virtual_nodes": num_vns,
            "global_batch": num_vns * per_vn_batch,
            "reference_ms": times["reference_s"] * 1e3,
            "fused_ms": times["fused_s"] * 1e3,
            "speedup": speedup,
        })
    infer_rows: List[List[str]] = []
    infer_records: List[Dict] = []
    for workload_name, num_vns, lengths in (
            SMOKE_INFER_CONFIGS if smoke else INFER_CONFIGS):
        for length in lengths:
            # Microsecond batches need hundreds of calls per timing; the
            # conv model's take a millisecond each.
            calls = 5 if smoke else (1000 if workload_name == "mlp_synthetic" else 20)
            times = _infer_times(workload_name, num_vns, length, calls,
                                 reps=1 if smoke else 11)
            speedup = times["reference_s"] / times["fused_s"]
            infer_rows.append([
                workload_name, f"{num_vns}VN", f"{length}",
                f"{times['reference_s']*1e6:.1f}", f"{times['fused_s']*1e6:.1f}",
                f"{speedup:.2f}x", f"{times['ratio']:.3f}",
            ])
            infer_records.append({
                "workload": workload_name,
                "virtual_nodes": num_vns,
                "batch": length,
                "reference_us": times["reference_s"] * 1e6,
                "fused_us": times["fused_s"] * 1e6,
                "speedup": speedup,
                "paired_ratio": times["ratio"],
            })
    report("fused_coverage_inference",
           ["workload", "config", "micro-batch", "reference us/batch",
            "fused us/batch", "speedup", "paired fused/ref"],
           infer_rows,
           title="Fused-backend coverage: serving micro-batches through "
                 "backend.infer, one model.forward per shard vs one "
                 "segmented pass (bit-identical logits)",
           notes="fused must be bit-identical, and the median of its "
                 "per-rep paired ratios to the reference at most 1.05; "
                 "the best speedup is reported, not gated")
    headline = records[0]["speedup"]
    report("fused_coverage",
           ["workload", "config", "batch", "reference ms/step",
            "fused ms/step", "speedup"],
           rows,
           title="Fused-backend coverage: ResNet wave hot path, serial "
                 "reference loop vs one segmented vectorized pass "
                 "(bit-identical results)",
           notes="a kernel plan for all "
                 f"{len(coverage)} registered workloads; fused must be "
                 "bit-identical and never slower, the best speedup is "
                 "reported, not gated")
    payload = {
        "smoke": smoke,
        "coverage": coverage,
        "configs": records,
        "inference": infer_records,
        "speedup": headline,
    }
    path = save_bench_json("fused_coverage", payload)
    print(f"wrote {os.path.relpath(path, os.getcwd())}")
    return payload


def test_fused_coverage_speedup():
    """Every workload fuses (asserted in :func:`run`), to bit-identical
    parameters (asserted while timing), and never slower.

    The size of the win is wall clock on whatever host runs this (2-3x
    measured at 16+ virtual nodes), so it is printed for the record, not
    gated.
    """
    payload = run(smoke=False)
    for record in payload["configs"]:
        assert record["speedup"] > 1.05, (
            f"{record['workload']}@{record['virtual_nodes']}VN: fused path "
            f"slower than the serial loop ({record['speedup']:.2f}x)")
    best = max(payload["configs"], key=lambda r: r["speedup"])
    print(f"fused coverage: best speedup {best['speedup']:.2f}x "
          f"({best['workload']}@{best['virtual_nodes']}VN)")
    # Serving micro-batches: at one segment the two backends run the same
    # GEMMs, so the rule is its literal form — never slower than 1.05x —
    # read off the paired estimator, not two independent best-ofs.
    for record in payload["inference"]:
        assert record["paired_ratio"] <= 1.05, (
            f"{record['workload']}@{record['virtual_nodes']}VN, micro-batch "
            f"{record['batch']}: fused inference slower than the serial loop "
            f"(median paired ratio {record['paired_ratio']:.3f}; best "
            f"{record['fused_us']:.1f} vs {record['reference_us']:.1f} us)")
    best = max(payload["inference"], key=lambda r: r["speedup"])
    print(f"fused coverage, inference: best speedup {best['speedup']:.2f}x "
          f"({best['workload']}@{best['virtual_nodes']}VN, micro-batch "
          f"{best['batch']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny config, no speedup gate (CI breakage check)")
    args = parser.parse_args(argv)
    run(smoke=args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
