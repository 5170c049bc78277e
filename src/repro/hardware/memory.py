"""Device memory accounting and the Figure-6 style step memory timeline.

The per-device :class:`~repro.hardware.device.MemoryLedger` (re-exported
here) tracks live bytes per category.  :func:`simulate_step_memory`, which
no CLI run loads, replays the virtual-node execution of one or more
training steps (paper Figure 5) and emits a time series of per-category
usage, reproducing the paper's Figure 6 breakdown where activations
dominate at the peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.hardware.device import DeviceSpec, MemoryLedger

if TYPE_CHECKING:
    from repro.framework.models import Workload

__all__ = ["MemoryLedger", "MemoryTimeline", "simulate_step_memory"]

CATEGORIES = ("parameters", "grad_buffer", "optimizer", "activations", "inputs",
              "kernel_temp", "other")


@dataclass
class MemoryTimeline:
    """Time series of per-category memory usage over simulated execution."""

    times: List[float] = field(default_factory=list)
    usage: List[Dict[str, int]] = field(default_factory=list)

    def record(self, t: float, breakdown: Dict[str, int]) -> None:
        self.times.append(t)
        self.usage.append(dict(breakdown))

    @property
    def peak(self) -> int:
        return max((sum(u.values()) for u in self.usage), default=0)

    def peak_by_category(self) -> Dict[str, int]:
        peaks: Dict[str, int] = {}
        for u in self.usage:
            for cat, nbytes in u.items():
                peaks[cat] = max(peaks.get(cat, 0), nbytes)
        return peaks

    def series(self, category: str) -> List[int]:
        return [u.get(category, 0) for u in self.usage]


def simulate_step_memory(
    workload: "Workload",
    spec: "DeviceSpec",
    wave_batches: Sequence[int],
    num_steps: int = 3,
    grad_buffer: bool = True,
    first_step_overhead: float = 2.0,
) -> MemoryTimeline:
    """Replay the Figure-5 execution and record a Figure-6 memory timeline.

    ``wave_batches`` gives the per-wave local batch sizes (one entry per
    virtual node on this device).  Parameters, the gradient buffer, and
    optimizer slots stay resident across the whole step; activations and
    inputs come and go per wave.  ``first_step_overhead`` stretches step 0 in
    time, mirroring the paper's note that the first step is slower due to
    initial graph optimization.
    """
    from repro.hardware.perfmodel import PerfModel  # local import: cycle guard

    fp = workload.footprint
    ledger = MemoryLedger(capacity_bytes=spec.memory_bytes)
    timeline = MemoryTimeline()
    perf = PerfModel()

    # Step-invariant residents.
    ledger.allocate("parameters", fp.param_bytes)
    ledger.allocate("optimizer", fp.param_bytes * workload.optimizer_slots)
    if grad_buffer:
        ledger.allocate("grad_buffer", fp.param_bytes)
    ledger.allocate("kernel_temp", fp.kernel_temp_bytes)
    ledger.allocate("other", fp.other_bytes)

    t = 0.0
    timeline.record(t, ledger.breakdown())
    for step in range(num_steps):
        stretch = first_step_overhead if step == 0 else 1.0
        for batch in wave_batches:
            wave = perf.wave_time(workload, spec, batch) * stretch
            # Inputs prefetched, then activations built during the forward pass.
            ledger.allocate("inputs", batch * fp.input_bytes_per_example)
            timeline.record(t + 0.1 * wave, ledger.breakdown())
            ledger.allocate("activations", batch * fp.activation_bytes_per_example)
            timeline.record(t + 0.5 * wave, ledger.breakdown())  # forward peak
            # Backward pass releases activations and inputs.
            ledger.free("activations")
            ledger.free("inputs")
            t += wave
            timeline.record(t, ledger.breakdown())
        t += perf.update_time(workload, spec) * stretch
        timeline.record(t, ledger.breakdown())
    return timeline
