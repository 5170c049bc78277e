"""Checkpointing for VirtualFlow training state.

A checkpoint captures everything needed to restart a run anywhere: model
parameters, optimizer slot variables, every virtual node's stateful kernels,
and the training cursor.  Notably it does NOT capture the mapping — that is
the whole point of the paper: the same checkpoint restores onto any cluster
shape, and training continues bit-exactly.

The format is a single ``.npz`` file of flat buffers plus a JSON metadata
blob: the model as ONE contiguous parameter buffer (``model.flat``),
optimizer slots as one buffer per slot kind (``optimizer.flat/<slot>``),
both in the flat tensor arena's layout, and — for a model with stateful
kernels — all virtual nodes' kernels as one ``(num_nodes, state_size)``
matrix (``vn.flat``), with the name -> slice tables recorded in the
metadata.  The optimizer's slots are written as its ``state_dict`` holds
them, so a restored run saved again before its next step writes the same
bytes.  Any other file — the per-tensor layout of format version 1, an
unknown version, an ``.npz`` that is not a checkpoint — is rejected with a
``ValueError`` naming what it holds.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import numpy as np

from repro.core.executor import VirtualFlowExecutor
from repro.core.state import StateMatrix
from repro.framework.arena import FlatLayout

__all__ = ["save_checkpoint", "load_checkpoint"]

_META_KEY = "__virtualflow_meta__"
FORMAT_VERSION = 2
# Array-name prefixes of the per-tensor layout (format version 1).
_PER_TENSOR_PREFIXES = ("model/", "optimizer/", "vn/")


def save_checkpoint(executor: VirtualFlowExecutor, path: str) -> None:
    """Write the executor's full training state to ``path`` (.npz)."""
    arrays: Dict[str, np.ndarray] = {}
    meta = {
        "format_version": FORMAT_VERSION,
        "workload": executor.workload.name,
        "vn_sizes": executor.vn_set.sizes,
        "seed": executor.seed,
        "steps_run": executor.steps_run,
        "examples_seen": executor.examples_seen,
        "sim_time": executor.sim_time,
        "optimizer_step_count": executor.optimizer.step_count,
    }
    arena = executor.arena
    arrays["model.flat"] = arena.params_flat
    meta["param_layout"] = arena.layout.spec()
    for slot, flat in executor.optimizer.state_dict().items():
        arrays[f"optimizer.flat/{slot}"] = flat
    states = executor.state_matrix
    if states is not None:
        arrays["vn.flat"] = states.rows
        meta["state_layout"] = states.layout.spec()
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **arrays)


def _layout_from_meta(meta: Dict, key: str) -> FlatLayout:
    spec = meta[key]
    return FlatLayout.from_spec(spec["names"], spec["shapes"])


def load_checkpoint(executor: VirtualFlowExecutor, path: str) -> Dict:
    """Restore training state saved by :func:`save_checkpoint`.

    The executor must be configured with the same workload and virtual node
    set (the hardware mapping may be entirely different).  Returns the
    checkpoint metadata.
    """
    with np.load(path) as data:
        if _META_KEY not in data.files:
            raise ValueError(
                f"{path!r} is not a VirtualFlow checkpoint: no {_META_KEY!r} "
                f"entry among its {len(data.files)} arrays")
        meta = json.loads(bytes(data[_META_KEY].tobytes()).decode("utf-8"))
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format_version {version!r} in "
                f"{path!r}; this build reads version {FORMAT_VERSION}")
        per_tensor = sorted(k for k in data.files if k.startswith(_PER_TENSOR_PREFIXES))
        if per_tensor:
            raise ValueError(
                f"{path!r} holds {len(per_tensor)} per-tensor arrays (e.g. "
                f"{per_tensor[0]!r}), the version-1 layout; this build reads "
                f"only flat buffers")
        if meta["workload"] != executor.workload.name:
            raise ValueError(
                f"checkpoint is for workload {meta['workload']!r}, executor "
                f"runs {executor.workload.name!r}"
            )
        if meta["vn_sizes"] != executor.vn_set.sizes:
            raise ValueError(
                "checkpoint virtual node set does not match the executor's "
                f"({meta['vn_sizes']} vs {executor.vn_set.sizes}); the virtual "
                "node set is an application-level hyperparameter and must be "
                "preserved"
            )
        layout = _layout_from_meta(meta, "param_layout")
        executor.model.set_parameters(layout.views(data["model.flat"]))
        executor.optimizer.load_state_dict({
            key[len("optimizer.flat/"):]: data[key]
            for key in data.files if key.startswith("optimizer.flat/")})
        executor.optimizer.step_count = int(meta["optimizer_step_count"])
        if "vn.flat" in data.files:  # copied into the executor's state matrix
            executor.vn_states = StateMatrix(
                _layout_from_meta(meta, "state_layout"), data["vn.flat"]).nodes
    executor.steps_run = int(meta["steps_run"])
    executor.examples_seen = int(meta["examples_seen"])
    executor.sim_time = float(meta["sim_time"])
    return meta
