"""Cluster partitioning, edge subsampling and weight schemes."""

import numpy as np
import pytest

from stochmds import SamplerConfig, assign_weights, partition_nodes
from stochmds.rng import substream
from stochmds.sampling import _sample_local_pairs


class TestSamplerConfig:
    def test_requires_exactly_one_of_q_or_fraction(self):
        with pytest.raises(ValueError):
            SamplerConfig(p=4)
        with pytest.raises(ValueError):
            SamplerConfig(p=4, q=2, fraction=0.5)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(p=1, q=1)
        with pytest.raises(ValueError):
            SamplerConfig(p=4, fraction=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(p=4, q=1, scheme="nope")


class TestPartitionNodes:
    def test_exact_cover(self):
        part = partition_nodes(4, 2, substream(0, "partition", 1))
        all_nodes = np.sort(np.concatenate(part))
        np.testing.assert_array_equal(all_nodes, np.arange(4))
        assert [len(c) for c in part] == [2, 2]

    def test_remainder_of_one_idles(self):
        part = partition_nodes(5, 2, substream(0, "partition", 1))
        assert [len(c) for c in part] == [2, 2]
        assert len(np.concatenate(part)) == 4

    def test_remainder_of_two_forms_cluster(self):
        part = partition_nodes(8, 3, substream(0, "partition", 1))
        assert sorted(len(c) for c in part) == [2, 3, 3]

    def test_single_cluster_when_p_equals_n(self):
        part = partition_nodes(4, 4, substream(0, "partition", 1))
        assert len(part) == 1
        np.testing.assert_array_equal(np.sort(part[0]), np.arange(4))

    def test_p_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            partition_nodes(3, 4, substream(0, "partition", 1))

    def test_reproducible_from_seed_and_slot(self):
        for slot in range(5):
            a = partition_nodes(20, 5, substream(7, "partition", slot))
            b = partition_nodes(20, 5, substream(7, "partition", slot))
            for ca, cb in zip(a, b):
                np.testing.assert_array_equal(ca, cb)

    def test_pair_cooccurrence_probability(self):
        """P(fixed pair shares a cluster) = (p-1)/(N-1) over random slots."""
        N, p, slots = 20, 5, 10_000
        hits = 0
        for t in range(slots):
            member = np.full(N, -1)
            for j, cluster in enumerate(
                    partition_nodes(N, p, substream(123, "partition", t))):
                member[cluster] = j
            hits += member[3] == member[11]
        want = (p - 1) / (N - 1)
        se = np.sqrt(want * (1 - want) / slots)
        assert abs(hits / slots - want) <= 3 * se


class TestSampleClusterEdges:
    def test_full_fraction_gives_all_pairs(self):
        a, b = _sample_local_pairs(3, substream(0, "edges", 0), fraction=1.0)
        assert set(zip(a.tolist(), b.tolist())) == {(0, 1), (0, 2), (1, 2)}

    def test_single_pair_cluster(self):
        a, b = _sample_local_pairs(2, substream(0, "edges", 0), q=1)
        assert (a.tolist(), b.tolist()) == ([0], [1])

    def test_no_duplicates_or_self_loops(self):
        rng = substream(1, "edges", 0)
        for _ in range(100):
            a, b = _sample_local_pairs(8, rng, q=12)
            assert len(set(zip(a.tolist(), b.tolist()))) == len(a) == 12
            assert np.all(a < b)

    def test_uniform_over_choices(self):
        """chi-square uniformity of single-edge draws from a 3-cluster."""
        counts = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
        draws = 10_000
        rng = substream(2, "edges", 0)
        for _ in range(draws):
            a, b = _sample_local_pairs(3, rng, q=1)
            counts[(int(a[0]), int(b[0]))] += 1
        expected = draws / 3
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 13.8  # 0.999 quantile, 2 dof

    def test_oversized_request_clamped(self):
        with pytest.warns(UserWarning):
            a, _ = _sample_local_pairs(3, substream(0, "edges", 0), q=10)
        assert len(a) == 3


class TestAssignWeights:
    def test_unity(self):
        w = assign_weights(np.array([0.5, 2.0]), "unity")
        np.testing.assert_array_equal(w, [1.0, 1.0])

    def test_sammon(self):
        w = assign_weights(np.array([2.0, 0.5, 4000.0]), "sammon", eps_w=1e-3)
        np.testing.assert_allclose(w, [0.5, 1.0, 1e-3])  # clamped both ends

    def test_negative_measurement_discarded(self):
        w = assign_weights(np.array([-0.1, 1.0, 0.0, np.nan]), "sammon")
        np.testing.assert_array_equal(w, [0.0, 1.0, 0.0, 0.0])
        w = assign_weights(np.array([-0.1, 1.0]), "unity")
        np.testing.assert_array_equal(w, [0.0, 1.0])

