"""Gradient accumulation, for the §8 related-work comparison.

PyTorch-style gradient accumulation runs k micro-batches before one optimizer
step.  On a single device this computes the *same* update as VirtualFlow with
k virtual nodes — VirtualFlow is a strict generalization (it additionally
decouples the mapping, enabling elasticity and heterogeneity).  This trainer
exists so tests can assert that equivalence, and benchmarks can show what
plain accumulation cannot do (resize, span device types).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.sync import weighted_average_flat
from repro.data.datasets import Dataset, make_dataset
from repro.data.loader import BatchLoader
from repro.framework.arena import FlatTensorArena
from repro.framework.losses import SoftmaxCrossEntropy
from repro.framework.models import get_workload
from repro.utils.seeding import vn_rng

__all__ = ["GradientAccumulationTrainer"]


class GradientAccumulationTrainer:
    """Single-device trainer that accumulates over k micro-batches per step."""

    def __init__(self, workload: str, global_batch_size: int, accumulation_steps: int,
                 seed: int = 0, dataset: Optional[Dataset] = None,
                 dataset_size: int = 4096) -> None:
        if accumulation_steps < 1:
            raise ValueError("accumulation_steps must be >= 1")
        if global_batch_size % accumulation_steps:
            raise ValueError(
                f"global batch {global_batch_size} not divisible by "
                f"{accumulation_steps} accumulation steps"
            )
        self.workload = get_workload(workload)
        self.accumulation_steps = accumulation_steps
        self.micro_batch = global_batch_size // accumulation_steps
        self.global_batch_size = global_batch_size
        self.seed = seed
        self.dataset = dataset or make_dataset(self.workload.dataset, n=dataset_size, seed=seed)
        self.loader = BatchLoader(self.dataset, global_batch_size, seed=seed)
        self.model = self.workload.build_model(seed)
        self.arena = FlatTensorArena.install(self.model)
        self.loss_fn = SoftmaxCrossEntropy()
        self.optimizer = self.workload.build_optimizer()

    def run_step(self, x: np.ndarray, y: np.ndarray, epoch: int, step: int) -> float:
        """One optimizer step over k sequential micro-batches."""
        stack = self.arena.grad_stack(self.accumulation_steps)
        total_loss = 0.0
        for k in range(self.accumulation_steps):
            lo, hi = k * self.micro_batch, (k + 1) * self.micro_batch
            xk, yk = x[lo:hi], y[lo:hi]
            rng = vn_rng(self.seed, epoch, step, k)
            logits = self.model.forward(xk, training=True, rng=rng)
            total_loss += self.loss_fn.forward(logits, yk) * len(xk)
            self.model.zero_grad()
            self.model.backward(self.loss_fn.backward())
            stack[k] = self.arena.grads_flat
        avg = weighted_average_flat(stack, [float(self.micro_batch)] * len(stack))
        self.optimizer.step(self.arena.params, self.arena.view_of(avg))
        return total_loss / len(x)

    def train_epoch(self, epoch: int) -> float:
        losses = [self.run_step(b.x, b.y, epoch, b.step) for b in self.loader.epoch(epoch)]
        return float(np.mean(losses)) if losses else float("nan")
