"""Exactly-once sharding and weighted gradient synchronization (§5.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sharding import shard_batch, shard_sizes
from repro.core.sync import weighted_average_flat
from repro.core.virtual_node import VirtualNodeSet
from repro.framework.arena import FlatLayout

from oracles.reference_backend import weighted_average


def _mean_of_means(contributions):
    """The unweighted mean of per-worker means: what vanilla frameworks do."""
    return {key: sum(grads[key] for grads, _ in contributions) / len(contributions)
            for key in contributions[0][0]}


class TestSharding:
    def test_even_shards(self):
        vns = VirtualNodeSet.even(8, 4)
        assert shard_sizes(vns, 8) == [2, 2, 2, 2]

    def test_uneven_shards_match_node_sizes(self):
        vns = VirtualNodeSet.uneven([6, 2])
        assert shard_sizes(vns, 8) == [6, 2]

    def test_scaled_batch_proportional(self):
        vns = VirtualNodeSet.uneven([6, 2])
        assert sum(shard_sizes(vns, 4)) == 4
        assert shard_sizes(vns, 4) == [3, 1]

    def test_shards_contiguous_and_disjoint(self):
        vns = VirtualNodeSet.uneven([3, 5, 2])
        x = np.arange(10)
        shards = [xs.tolist() for xs, _ in shard_batch(vns, x, x)]
        assert shards == [[0, 1, 2], [3, 4, 5, 6, 7], [8, 9]]

    def test_shard_batch_exactly_once(self):
        vns = VirtualNodeSet.uneven([4, 2, 2])
        x = np.arange(8)
        y = np.arange(8) * 10
        shards = shard_batch(vns, x, y)
        seen = np.concatenate([s[0] for s in shards])
        np.testing.assert_array_equal(np.sort(seen), x)  # every example once
        for xs, ys in shards:
            np.testing.assert_array_equal(ys, xs * 10)  # labels stay aligned

    def test_length_mismatch(self):
        vns = VirtualNodeSet.even(4, 2)
        with pytest.raises(ValueError):
            shard_batch(vns, np.zeros(4), np.zeros(5))

    @given(
        st.lists(st.integers(1, 20), min_size=1, max_size=8),
        st.integers(0, 200),
    )
    @settings(max_examples=200)
    def test_property_shards_always_partition(self, sizes, batch):
        """For any node sizes and any batch, shards partition exactly."""
        vns = VirtualNodeSet.uneven(sizes)
        got = shard_sizes(vns, batch)
        assert sum(got) == batch
        assert all(s >= 0 for s in got)
        x = np.arange(batch)
        shards = shard_batch(vns, x, x)
        assert [len(xs) for xs, _ in shards] == got
        # Contiguous, disjoint, in order: the rows come back as they went in.
        np.testing.assert_array_equal(np.concatenate([xs for xs, _ in shards]), x)

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=6))
    def test_property_native_batch_matches_sizes(self, sizes):
        vns = VirtualNodeSet.uneven(sizes)
        assert shard_sizes(vns, sum(sizes)) == sizes


def _grads(rng, shape=(3,)):
    return {"w": rng.standard_normal(shape), "b": rng.standard_normal((2,))}


class TestWeightedSync:
    def test_paper_worked_example(self, rng):
        """§5.2: 6 examples on GPU0, 2 on GPU1 — weighted avg == global mean."""
        per_example = [_grads(rng) for _ in range(8)]
        mean_all = {k: np.mean([g[k] for g in per_example], axis=0)
                    for k in per_example[0]}
        gpu0 = {k: np.mean([per_example[i][k] for i in range(6)], axis=0)
                for k in per_example[0]}
        gpu1 = {k: np.mean([per_example[i][k] for i in (6, 7)], axis=0)
                for k in per_example[0]}
        weighted = weighted_average([(gpu0, 6.0), (gpu1, 2.0)])
        for k in mean_all:
            np.testing.assert_allclose(weighted[k], mean_all[k], rtol=1e-12)
        # ... and the naive mean-of-means is wrong (the paper's bug).
        naive = _mean_of_means([(gpu0, 6.0), (gpu1, 2.0)])
        assert any(not np.allclose(naive[k], mean_all[k]) for k in mean_all)

    def test_naive_equals_weighted_for_even_split(self, rng):
        a, b = _grads(rng), _grads(rng)
        w = weighted_average([(a, 4.0), (b, 4.0)])
        n = _mean_of_means([(a, 4.0), (b, 4.0)])
        for k in w:
            np.testing.assert_allclose(w[k], n[k], rtol=1e-12)

    def test_single_contribution_identity(self, rng):
        g = _grads(rng)
        out = weighted_average([(g, 5.0)])
        for k in g:
            np.testing.assert_allclose(out[k], g[k])

    def test_key_mismatch_rejected(self, rng):
        with pytest.raises(KeyError):
            weighted_average([(_grads(rng), 1.0), ({"w": np.zeros(3)}, 1.0)])

    def test_zero_weight_rejected(self, rng):
        with pytest.raises(ValueError):
            weighted_average([(_grads(rng), 0.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_average([])

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_property_weighted_average_equals_global_mean(self, counts, seed):
        """However examples are grouped, the weighted average is the mean."""
        rng = np.random.default_rng(seed)
        total = sum(counts)
        per_example = rng.standard_normal((total, 4))
        global_mean = per_example.mean(axis=0)
        contributions = []
        start = 0
        for c in counts:
            contributions.append(({"w": per_example[start:start + c].mean(axis=0)},
                                  float(c)))
            start += c
        out = weighted_average(contributions)
        np.testing.assert_allclose(out["w"], global_mean, rtol=1e-9, atol=1e-12)


class TestWeightedAverageFlat:
    """The flat-stack reduction training uses, held to the per-key contract."""

    def test_bit_identical_to_the_per_key_loop(self, rng):
        contributions = [(_grads(rng), w) for w in (6.0, 2.0, 3.0)]
        layout = FlatLayout(contributions[0][0])
        stack = np.stack([layout.pack(g) for g, _ in contributions])
        flat = weighted_average_flat(stack, [w for _, w in contributions])
        np.testing.assert_array_equal(
            flat, layout.pack(weighted_average(contributions)))

    def test_device_means_reduce_to_the_global_mean(self, rng):
        """Per-device mean gradients weighted by example count: 7 + 3."""
        per_example = rng.standard_normal((10, 5))
        stack = np.stack([per_example[:7].mean(axis=0),
                          per_example[7:].mean(axis=0)])
        out = weighted_average_flat(stack, [7.0, 3.0])
        np.testing.assert_allclose(out, per_example.mean(axis=0), rtol=1e-12)

    def test_scales_the_stack_in_place(self, rng):
        """The stack is scratch afterwards: each row holds its weighted share."""
        original = rng.standard_normal((3, 4))
        stack = original.copy()
        weights = [1.0, 2.0, 5.0]
        weighted_average_flat(stack, weights)
        for row, weight in enumerate(weights):
            np.testing.assert_array_equal(stack[row], original[row] * (weight / 8.0))

    def test_rejects_a_stack_that_is_not_a_matrix(self):
        with pytest.raises(ValueError, match="stack"):
            weighted_average_flat(np.zeros(4), [1.0])

    def test_rejects_a_weight_count_that_differs_from_the_rows(self):
        with pytest.raises(ValueError, match="2 weights for 3"):
            weighted_average_flat(np.zeros((3, 4)), [1.0, 1.0])

    def test_rejects_a_non_positive_total_weight(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_average_flat(np.zeros((2, 4)), [0.0, 0.0])

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=6),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=50)
    def test_property_equals_global_mean(self, counts, seed):
        """However examples are grouped into rows, the result is the mean."""
        rng = np.random.default_rng(seed)
        per_example = rng.standard_normal((sum(counts), 4))
        bounds = np.cumsum([0] + counts)
        stack = np.stack([per_example[lo:hi].mean(axis=0)
                          for lo, hi in zip(bounds[:-1], bounds[1:])])
        out = weighted_average_flat(stack, [float(c) for c in counts])
        np.testing.assert_allclose(out, per_example.mean(axis=0),
                                   rtol=1e-9, atol=1e-12)
