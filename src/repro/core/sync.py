"""Gradient synchronization with heterogeneous-correct weighting (§5.2).

The paper's worked example: with 6 examples on GPU0 and 2 on GPU1, averaging
the two local means weights GPU1's examples 3x too heavily.  VirtualFlow
instead weights each local mean by its example count::

    (6/8) * mean(g1..g6) + (2/8) * mean(g7, g8) = mean(g1..g8)

:func:`weighted_average` implements that contract over any number of
contributions, as a canonical per-key loop over named gradients.

Flat stack
----------
Training reduces flat gradients: :func:`weighted_average_flat` takes the
contributions as the rows of an ``(n, P)`` stack over the flat tensor
arena's layout, scales them and sums over the leading axis.  NumPy
accumulates a leading-axis reduction row by row in order, so the result is
**bit-identical** to the canonical per-key loop — the same property the
fused execution backend relies on — while doing one vector multiply and one
vector reduction instead of ``2 * n * num_params`` small ops.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["weighted_average", "weighted_average_flat", "naive_average"]

Grads = Dict[str, np.ndarray]


def _check_keys(contributions: Sequence[Tuple[Grads, float]]) -> List[str]:
    if not contributions:
        raise ValueError("no gradient contributions to synchronize")
    keys = sorted(contributions[0][0])
    for grads, _ in contributions[1:]:
        if sorted(grads) != keys:
            raise KeyError("gradient contributions disagree on parameter keys")
    return keys


def _total_weight(weights: Sequence[float]) -> float:
    # Plain sequential Python sum — the canonical accumulation order (NumPy's
    # pairwise np.sum could differ in the last ulp for many contributions).
    total = float(sum(weights))
    if total <= 0:
        raise ValueError(f"total weight must be positive, got {total}")
    return total


def weighted_average_flat(stack: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Example-weighted average of an ``(n, P)`` flat-gradient stack.

    Row ``i`` is one contribution's flat gradients with weight
    ``weights[i]``.  Rows are scaled by ``weight / total`` **in place** (the
    stack is scratch afterwards) and summed over the leading axis — a
    sequential, in-order accumulation, bit-identical to
    :func:`weighted_average`'s per-key loop.
    """
    if stack.ndim != 2:
        raise ValueError(f"expected an (n, P) stack, got shape {stack.shape}")
    if len(weights) != stack.shape[0]:
        raise ValueError(
            f"{len(weights)} weights for {stack.shape[0]} contributions")
    total = _total_weight(weights)
    stack *= np.asarray([w / total for w in weights], dtype=stack.dtype)[:, None]
    return stack.sum(axis=0)


def weighted_average(contributions: Sequence[Tuple[Grads, float]]) -> Grads:
    """Example-weighted average of per-worker mean gradients.

    Each contribution is ``(mean_grads, example_count)``.  The result equals
    the plain mean over all examples, however they were split — the §5.2
    correctness property.  Summation follows the given (canonical) order, so
    results are bit-reproducible.
    """
    keys = _check_keys(contributions)
    total = _total_weight([w for _, w in contributions])
    out: Grads = {}
    for key in keys:
        acc = np.zeros_like(contributions[0][0][key])
        for grads, weight in contributions:
            acc += (weight / total) * grads[key]
        out[key] = acc
    return out


def naive_average(contributions: Sequence[Tuple[Grads, float]]) -> Grads:
    """The *incorrect* unweighted mean-of-means (what vanilla frameworks do).

    Kept as the §5.2 counterexample: equal to :func:`weighted_average` only
    when all example counts match.
    """
    keys = _check_keys(contributions)
    n = len(contributions)
    out: Grads = {}
    for key in keys:
        acc = np.zeros_like(contributions[0][0][key])
        for grads, _ in contributions:
            acc += grads[key] / n
        out[key] = acc
    return out
