"""The TF* baseline (paper §6.2).

TF* is vanilla TensorFlow behaviour: the local batch size is pinned to what
one device can hold (usually the memory maximum), the **global batch size is
the local batch times the device count**, and no hyperparameters are retuned
when the device count changes.  Running the "same" workload on fewer GPUs
therefore silently trains with a smaller batch — and a different convergence
trajectory (Table 1, Fig 8).

Mechanically this is the degenerate virtual-node configuration: exactly one
virtual node per device, batch size coupled to hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.trainer import TrainerConfig, VirtualFlowTrainer
from repro.data.datasets import Dataset

__all__ = ["TFStarConfig", "TFStarTrainer"]


@dataclass(frozen=True)
class TFStarConfig:
    """Hardware-coupled configuration: note there is no global batch field."""

    workload: str
    local_batch_size: int
    device_type: str = "V100"
    num_devices: int = 1
    seed: int = 0
    dataset_size: int = 4096
    # TF* does NOT retune the learning rate when the batch changes — this is
    # whatever LR the original (large-batch) configuration used.
    learning_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.local_batch_size < 1:
            raise ValueError("local_batch_size must be >= 1")
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")

    @property
    def global_batch_size(self) -> int:
        """Coupled to hardware: local batch x device count (§2.1)."""
        return self.local_batch_size * self.num_devices


class TFStarTrainer(VirtualFlowTrainer):
    """Vanilla-framework trainer: one virtual node per device, no retuning."""

    def __init__(self, config: TFStarConfig, dataset: Optional[Dataset] = None) -> None:
        self.tfstar_config = config
        vf_config = TrainerConfig(
            workload=config.workload,
            global_batch_size=config.global_batch_size,
            num_virtual_nodes=config.num_devices,  # exactly one per device
            device_type=config.device_type,
            num_devices=config.num_devices,
            seed=config.seed,
            dataset_size=config.dataset_size,
            learning_rate=config.learning_rate,
        )
        super().__init__(vf_config, dataset=dataset)

    def resize(self, num_devices: int, device_type: Optional[str] = None) -> float:
        """Vanilla frameworks cannot resize without a restart (§2.2)."""
        raise NotImplementedError(
            "TF* cannot resize a running job: the model graph pins the device "
            "set; restart from a checkpoint instead (which changes the batch "
            "size and the convergence trajectory)"
        )
