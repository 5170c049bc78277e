"""Figure 17: peak memory and throughput across virtual node counts.

Paper (single RTX 2080 Ti, values normalized to vanilla TensorFlow):

* top — the gradient buffer adds a model-sized constant: BERT-LARGE sees up
  to 16.2% peak-memory overhead, flat beyond 2 virtual nodes;
* bottom — throughput scales with virtual nodes for large models (+31.4%
  for BERT-LARGE: fewer expensive optimizer updates per example) and dips
  slightly at worst (-4.2%).

A third table compares the host execution backends: the fused backend every
engine runs must reproduce the serial ``ReferenceBackend`` wave loop,
assigned to a trainer's engine, bit-exactly and never be slower;
the best speedup (about 2x on a multi-wave configuration) is printed, not
gated.
"""

from __future__ import annotations

import time

import numpy as np

from _common import report
from oracles.reference_backend import ReferenceBackend
from repro.core import TrainerConfig, VirtualFlowTrainer
from repro.framework import get_workload
from repro.hardware import PerfModel, get_spec
from repro.utils.validation import power_of_two_like_sizes

WORKLOADS = ("resnet50_imagenet", "transformer_wmt", "bert_large_glue")
VNS = (1, 2, 4, 8, 16, 32)


def _max_wave(wl, spec) -> int:
    cap = wl.footprint.max_batch(spec.memory_bytes, wl.optimizer_slots)
    return power_of_two_like_sizes(cap)[-1]


def _run():
    perf = PerfModel()
    spec = get_spec("RTX2080Ti")
    memory = {}
    throughput = {}
    for name in WORKLOADS:
        wl = get_workload(name)
        b = _max_wave(wl, spec)
        vanilla_mem = wl.footprint.wave_bytes(b, wl.optimizer_slots,
                                              grad_buffer=False)
        vanilla_tput = b / perf.vanilla_step_time(wl, spec, b)
        memory[name] = [
            wl.footprint.wave_bytes(b, wl.optimizer_slots, grad_buffer=True)
            / vanilla_mem
            for _ in VNS  # constant: the buffer does not scale with VNs
        ]
        throughput[name] = [
            (v * b / perf.device_step_time(wl, spec, [b] * v)) / vanilla_tput
            for v in VNS
        ]
    return memory, throughput


def test_fig17_microbenchmarks(benchmark):
    memory, throughput = benchmark(_run)
    rows = []
    for name in WORKLOADS:
        rows.append([name, "memory"] + [f"{m:.3f}" for m in memory[name]])
        rows.append([name, "throughput"] + [f"{t:.3f}" for t in throughput[name]])
    report("fig17_microbench", ["workload", "metric"] + [f"{v}VN" for v in VNS],
           rows, title="Fig 17: normalized peak memory (top) and throughput "
                       "(bottom) on RTX 2080 Ti",
           notes="paper: BERT memory overhead <= 16.2%, flat in VNs; "
                 "BERT throughput +31.4% at high VN; worst dip -4.2%")
    # Memory: overhead constant in VN count and bounded like the paper.
    for name in WORKLOADS:
        assert len(set(round(m, 9) for m in memory[name])) == 1
        overhead = memory[name][0] - 1
        assert 0 < overhead < 0.20
    big = memory["bert_large_glue"][0] - 1
    assert big == max(m[0] - 1 for m in memory.values())  # scales w/ model size
    # Throughput: large models gain the most from update amortization.
    bert = throughput["bert_large_glue"]
    assert bert[-1] > 1.15          # paper: +31.4%
    assert bert == sorted(bert)     # monotone in VN count
    for name in WORKLOADS:
        assert min(throughput[name]) > 0.90   # worst dip small (paper -4.2%)


# -- execution-backend comparison (host wall-clock, not simulated time) ------

BACKEND_CONFIGS = (
    # (workload, global batch, virtual nodes, devices)
    ("mlp_synthetic", 32, 16, 2),
    ("bert_base_glue", 32, 16, 2),
    ("bert_base_glue", 32, 32, 2),  # 16 waves/device: the fusion sweet spot
)


def _wall_clock(backend: str, workload: str, batch: int, vns: int,
                devices: int, steps: int = 8, reps: int = 3) -> tuple:
    """Best-of-``reps`` seconds/step plus the final parameters."""
    trainer = VirtualFlowTrainer(TrainerConfig(
        workload=workload, global_batch_size=batch, num_virtual_nodes=vns,
        num_devices=devices, dataset_size=2 * batch))
    if backend == "reference":
        trainer.executor.engine.backend = ReferenceBackend()
    x = trainer.dataset.x_train[:batch]
    y = trainer.dataset.y_train[:batch]
    trainer.executor.run_step(x, y, epoch=0, step=0)  # warm caches
    best = float("inf")
    step = 1
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(steps):
            trainer.executor.run_step(x, y, epoch=0, step=step)
            step += 1
        best = min(best, (time.perf_counter() - t0) / steps)
    return best, trainer.executor.model.parameters()


def test_fig17_backend_fusion_speedup():
    rows = []
    speedups = {}
    for workload, batch, vns, devices in BACKEND_CONFIGS:
        t_ref, p_ref = _wall_clock("reference", workload, batch, vns, devices)
        t_fused, p_fused = _wall_clock("fused", workload, batch, vns, devices)
        speedup = t_ref / t_fused
        speedups[(workload, vns)] = speedup
        rows.append([workload, f"{vns}VN x {devices}dev",
                     f"{t_ref*1e3:.2f}", f"{t_fused*1e3:.2f}", f"{speedup:.2f}x"])
        # Same trajectory, bit for bit: fusion is a host optimization only.
        for key in p_ref:
            np.testing.assert_array_equal(p_ref[key], p_fused[key])
    report("fig17_backend_fusion",
           ["workload", "config", "reference ms/step", "fused ms/step", "speedup"],
           rows, title="Execution backends: serial reference loop vs fused "
                       "vectorized waves (identical results, host time only)",
           notes="fused must be bit-identical and never slower; the best "
                 "speedup is reported, not gated")
    # The bit-equality above is the hard guarantee, and fusion may never be
    # a slowdown.  The size of the win is wall clock on whatever host runs
    # this (1.9-2.8x measured), so it is printed for the record, not gated:
    # absolute timings are tracked by the end-to-end ledger instead.
    for (workload, vns), speedup in speedups.items():
        assert speedup > 1.05, (
            f"{workload}@{vns}VN: fused slower than reference ({speedup:.2f}x)")
    (workload, vns), best = max(speedups.items(), key=lambda kv: kv[1])
    print(f"fig17 backend fusion: best speedup {best:.2f}x "
          f"({workload}@{vns}VN)")
