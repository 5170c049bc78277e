"""Gradient synchronization with heterogeneous-correct weighting (§5.2).

The paper's worked example: with 6 examples on GPU0 and 2 on GPU1, averaging
the two local means weights GPU1's examples 3x too heavily.  VirtualFlow
instead weights each local mean by its example count::

    (6/8) * mean(g1..g6) + (2/8) * mean(g7, g8) = mean(g1..g8)

Training reduces flat gradients: :func:`weighted_average_flat` takes the
contributions as the rows of an ``(n, P)`` stack over the flat tensor
arena's layout, scales them and sums over the leading axis.  NumPy
accumulates a leading-axis reduction row by row in order, so the result is
**bit-identical** to the canonical per-key loop over named gradients
(``tests/oracles/reference_backend.py``) — the same property the fused
execution backend relies on — while doing one vector multiply and one
vector reduction instead of ``2 * n * num_params`` small ops.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["weighted_average_flat"]


def weighted_average_flat(stack: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Example-weighted average of an ``(n, P)`` flat-gradient stack.

    Row ``i`` is one contribution's flat gradients with weight
    ``weights[i]``.  Rows are scaled by ``weight / total`` **in place** (the
    stack is scratch afterwards) and summed over the leading axis — a
    sequential, in-order accumulation, bit-identical to the canonical
    per-key loop.
    """
    if stack.ndim != 2:
        raise ValueError(f"expected an (n, P) stack, got shape {stack.shape}")
    if len(weights) != stack.shape[0]:
        raise ValueError(
            f"{len(weights)} weights for {stack.shape[0]} contributions")
    # Plain sequential Python sum — the canonical accumulation order (NumPy's
    # pairwise np.sum could differ in the last ulp for many contributions).
    total = float(sum(weights))
    if total <= 0:
        raise ValueError(f"total weight must be positive, got {total}")
    stack *= np.asarray([w / total for w in weights], dtype=stack.dtype)[:, None]
    return stack.sum(axis=0)
