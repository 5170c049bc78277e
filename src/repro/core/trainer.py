"""High-level training API: ``VirtualFlowTrainer``.

This is the user-facing entry point the examples and benchmarks use: pick a
workload and a cluster, fix the global batch size and the total number of
virtual nodes once, and train — on any hardware, with identical results.

    >>> trainer = VirtualFlowTrainer(TrainerConfig(
    ...     workload="mlp_synthetic", global_batch_size=64,
    ...     num_virtual_nodes=8, device_type="V100", num_devices=2))
    >>> history = trainer.train(epochs=2)

Resizing mid-training (``trainer.resize(4)``) redistributes virtual nodes
without touching model semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.executor import StepResult, VirtualFlowExecutor
from repro.core.mapping import Mapping
from repro.core.virtual_node import VirtualNodeSet
# Called through its module, so that a patch of the function reaches
# this module whenever it loads (see repro._lazy).
from repro.data import datasets
from repro.data.datasets import Dataset
from repro.data.loader import BatchLoader
from repro.framework.losses import SoftmaxCrossEntropy
from repro.framework.models import Workload, get_workload
from repro.hardware.cluster import Cluster

__all__ = ["TrainerConfig", "EpochResult", "VirtualFlowTrainer"]


@dataclass(frozen=True)
class TrainerConfig:
    """Everything needed to reproduce a training run.

    The hyperparameters (``global_batch_size``, ``num_virtual_nodes``, the
    workload's optimizer) are hardware-free; the hardware fields
    (``device_type``, ``num_devices``) only affect simulated time and memory
    feasibility.  ``vn_sizes`` overrides even splitting for heterogeneous
    configurations.  How the host executes the waves is not configuration:
    the numbers depend only on these fields.
    """

    workload: str
    global_batch_size: int
    num_virtual_nodes: int
    device_type: str = "V100"
    num_devices: int = 1
    seed: int = 0
    dataset_size: int = 4096
    vn_sizes: Optional[Sequence[int]] = None
    learning_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.global_batch_size < 1:
            raise ValueError("global_batch_size must be >= 1")
        if self.num_virtual_nodes < 1:
            raise ValueError("num_virtual_nodes must be >= 1")
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.vn_sizes is not None:
            if len(self.vn_sizes) != self.num_virtual_nodes:
                raise ValueError("vn_sizes length must equal num_virtual_nodes")
            if sum(self.vn_sizes) != self.global_batch_size:
                raise ValueError("vn_sizes must sum to global_batch_size")


@dataclass(frozen=True)
class EpochResult:
    """Per-epoch training record."""

    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    sim_time: float  # cumulative simulated seconds at epoch end


class VirtualFlowTrainer:
    """Train a registered workload under virtual node processing."""

    def __init__(self, config: TrainerConfig,
                 dataset: Optional[Dataset] = None,
                 cluster: Optional[Cluster] = None,
                 mapping: Optional[Mapping] = None,
                 augment=None) -> None:
        self.config = config
        self.workload: Workload = get_workload(config.workload)
        self.dataset = dataset or datasets.make_dataset(
            self.workload.dataset, n=config.dataset_size, seed=config.seed
        )
        self.loader = BatchLoader(self.dataset, config.global_batch_size, seed=config.seed)
        if config.vn_sizes is not None:
            vn_set = VirtualNodeSet.uneven(config.vn_sizes)
        else:
            vn_set = VirtualNodeSet.even(config.global_batch_size, config.num_virtual_nodes)
        self.cluster = cluster or Cluster.homogeneous(config.device_type, config.num_devices)
        mapping = mapping or Mapping.even(vn_set, self.cluster)
        model = self.workload.build_model(config.seed)
        self.executor = VirtualFlowExecutor(
            workload=self.workload,
            model=model,
            loss_fn=SoftmaxCrossEntropy(),
            optimizer=self.workload.build_optimizer(config.learning_rate),
            mapping=mapping,
            seed=config.seed,
            augment=augment,
        )
        self.history: List[EpochResult] = []
        self._epochs_done = 0

    # -- training ----------------------------------------------------------------

    @property
    def sim_time(self) -> float:
        return self.executor.sim_time

    @property
    def mapping(self) -> Mapping:
        return self.executor.mapping

    def train_epoch(self, epoch: Optional[int] = None,
                    on_step: Optional[Callable[[StepResult], None]] = None) -> EpochResult:
        """Run one full epoch and evaluate on the validation split."""
        epoch = self._epochs_done if epoch is None else epoch
        losses: List[float] = []
        for batch in self.loader.epoch(epoch):
            result = self.executor.run_step(batch.x, batch.y, epoch=epoch, step=batch.step)
            losses.append(result.loss)
            if on_step is not None:
                on_step(result)
        val_loss, val_acc = self.executor.evaluate(self.dataset.x_val, self.dataset.y_val)
        record = EpochResult(
            epoch=epoch,
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            val_loss=val_loss,
            val_accuracy=val_acc,
            sim_time=self.executor.sim_time,
        )
        self.history.append(record)
        self._epochs_done = epoch + 1
        return record

    def train(self, epochs: int,
              on_epoch: Optional[Callable[[EpochResult], None]] = None) -> List[EpochResult]:
        """Train for ``epochs`` epochs, returning the per-epoch history."""
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        for _ in range(epochs):
            record = self.train_epoch()
            if on_epoch is not None:
                on_epoch(record)
        return self.history

    def evaluate(self) -> Dict[str, float]:
        """Evaluate the current model on the validation split."""
        loss, acc = self.executor.evaluate(self.dataset.x_val, self.dataset.y_val)
        return {"val_loss": loss, "val_accuracy": acc}

    # -- elasticity ---------------------------------------------------------------

    def resize(self, num_devices: int, device_type: Optional[str] = None) -> float:
        """Resize to ``num_devices`` devices; returns simulated migration time.

        The virtual node set — and therefore the model's convergence
        trajectory — is untouched; only the mapping changes (§4.1).
        """
        device_type = device_type or self.config.device_type
        new_cluster = Cluster.homogeneous(device_type, num_devices)
        new_mapping = Mapping.even(self.executor.vn_set, new_cluster)
        self.cluster = new_cluster
        return self.executor.remap(new_mapping)

    def remap(self, mapping: Mapping) -> float:
        """Install an arbitrary new mapping (e.g. from the heterogeneous solver)."""
        self.cluster = mapping.cluster
        return self.executor.remap(mapping)
