"""Ablation: weighted vs naive gradient synchronization (§5.2).

Design choice under test: VirtualFlow weights each device's local gradient
mean by its example count.  The ablation replaces it with the vanilla
mean-of-means and measures the gradient error on uneven shards — the
paper's 6-vs-2 worked example, at benchmark scale.
"""

from __future__ import annotations

import numpy as np

from _common import report
from oracles.reference_backend import weighted_average
from repro.core.virtual_node import VirtualNodeSet
from repro.core.sharding import shard_batch
from repro.data import make_dataset
from repro.framework import SoftmaxCrossEntropy, get_workload

SPLITS = {
    "even 16:16": [16, 16],
    "mild 24:8": [24, 8],
    "paper 6:2 (x4)": [24, 8],
    "extreme 30:2": [30, 2],
    "three-way 16:12:4": [16, 12, 4],
}


def naive_average(contributions):
    """The *incorrect* unweighted mean-of-means (what vanilla frameworks
    do): equal to the weighted average only when all example counts match."""
    n = len(contributions)
    out = {}
    for key in sorted(contributions[0][0]):
        acc = np.zeros_like(contributions[0][0][key])
        for grads, _ in contributions:
            acc += grads[key] / n
        out[key] = acc
    return out


def _gradient_error(sizes):
    """Relative error of naive sync vs the exact global-mean gradient."""
    wl = get_workload("mlp_synthetic")
    model = wl.build_model(0)
    loss_fn = SoftmaxCrossEntropy()
    ds = make_dataset("synthetic_vectors", n=256, seed=0)
    batch = sum(sizes)
    x, y = ds.x_train[:batch], ds.y_train[:batch]

    vn_set = VirtualNodeSet.uneven(sizes)
    contributions = []
    for node, (xs, ys) in zip(vn_set, shard_batch(vn_set, x, y)):
        logits = model.forward(xs, training=False)
        loss_fn.forward(logits, ys)
        model.zero_grad()
        model.backward(loss_fn.backward())
        contributions.append(
            ({k: v.copy() for k, v in model.gradients().items()},
             float(node.batch_size)))

    # Ground truth: one pass over the whole batch.
    logits = model.forward(x, training=False)
    loss_fn.forward(logits, y)
    model.zero_grad()
    model.backward(loss_fn.backward())
    exact = {k: v.copy() for k, v in model.gradients().items()}

    def rel_err(est):
        num = np.sqrt(sum(np.sum((est[k] - exact[k]) ** 2) for k in exact))
        den = np.sqrt(sum(np.sum(exact[k] ** 2) for k in exact))
        return float(num / den)

    return rel_err(weighted_average(contributions)), rel_err(naive_average(contributions))


def _run():
    return {name: _gradient_error(sizes) for name, sizes in SPLITS.items()}


def test_ablation_weighted_sync(benchmark):
    errors = benchmark(_run)
    rows = [[name, f"{w:.2e}", f"{n:.2e}"]
            for name, (w, n) in errors.items()]
    report("ablation_weighted_sync",
           ["shard split", "weighted sync error", "naive sync error"], rows,
           title="Ablation: gradient error vs the exact global mean (§5.2)",
           notes="weighted sync is exact for ANY split; naive averaging is "
                 "only correct for even splits")
    for name, (weighted_err, naive_err) in errors.items():
        assert weighted_err < 1e-12  # always exact
        if "even" not in name:
            assert naive_err > 1e-3   # meaningfully wrong on uneven shards
            assert naive_err > weighted_err * 1e6
        else:
            assert naive_err < 1e-12  # degenerate case: both exact
    # Error grows with skew.
    assert errors["extreme 30:2"][1] > errors["mild 24:8"][1]
