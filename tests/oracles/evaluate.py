"""Evaluation as ``VirtualFlowExecutor.evaluate`` spelled it before it ran
on the execution backend's inference path.

Kept verbatim, but for the merge, which it computes itself (the nodes'
buffers summed in index order, then divided by the node count): the
virtual-node mean of the stateful buffers is loaded into the model, the
reference layers' ``model.forward`` runs once per ``batch_size`` slice,
the example-weighted loss and accuracy are summed in slice order, and the
model's own buffers are restored.  The production method must return the
same ``(loss, accuracy)`` floats bit for bit on either backend.  Unlike
it, this loop leaves every layer's forward cache (``Conv2D``'s patch rows
among them) pinned on the model.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.framework.metrics import accuracy

__all__ = ["evaluate"]


def _merged(states):
    merged = {}
    for key in states[0].buffers:
        total = states[0].buffers[key].copy()
        for state in states[1:]:
            total += state.buffers[key]
        merged[key] = total / len(states)
    return merged


def evaluate(executor, x: np.ndarray, y: np.ndarray,
             batch_size: int = 256) -> Tuple[float, float]:
    if len(x) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    model = executor.model
    states = executor.vn_states
    saved = model.state_dict()
    if states and states[0].buffers:
        model.load_state_dict(_merged(states))
    total_loss = 0.0
    correct_weighted = 0.0
    for start in range(0, len(x), batch_size):
        xb, yb = x[start : start + batch_size], y[start : start + batch_size]
        logits = model.forward(xb, training=False)
        total_loss += executor.loss_fn.forward(logits, yb) * len(xb)
        correct_weighted += accuracy(logits, yb) * len(xb)
    model.load_state_dict(saved)
    return total_loss / len(x), correct_weighted / len(x)
