"""Cluster partitioning, edge subsampling, weight schemes, calibration."""

import numpy as np
import pytest

from stochmds import (
    SamplerConfig,
    assign_weights,
    calibrate_p_q,
    partition_nodes,
    sample_cluster_edges,
)
from stochmds.rng import substream


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
        all_nodes = np.sort(np.concatenate(part.clusters))
        np.testing.assert_array_equal(all_nodes, np.arange(4))
        assert [len(c) for c in part.clusters] == [2, 2]

    def test_remainder_of_one_idles(self):
        part = partition_nodes(5, 2, substream(0, "partition", 1))
        assert [len(c) for c in part.clusters] == [2, 2]
        assert len(np.concatenate(part.clusters)) == 4

    def test_remainder_of_two_forms_cluster(self):
        part = partition_nodes(8, 3, substream(0, "partition", 1))
        assert sorted(len(c) for c in part.clusters) == [2, 3, 3]

    def test_single_cluster_when_p_equals_n(self):
        part = partition_nodes(4, 4, substream(0, "partition", 1))
        assert len(part.clusters) == 1
        np.testing.assert_array_equal(np.sort(part.clusters[0]), np.arange(4))

    def test_p_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            partition_nodes(3, 4, substream(0, "partition", 1))

    def test_reproducible_from_seed_and_slot(self):
        for slot in range(5):
            a = partition_nodes(20, 5, substream(7, "partition", slot))
            b = partition_nodes(20, 5, substream(7, "partition", slot))
            for ca, cb in zip(a.clusters, b.clusters):
                np.testing.assert_array_equal(ca, cb)

    def test_pair_cooccurrence_probability(self):
        """P(fixed pair shares a cluster) = (p-1)/(N-1) over random slots."""
        N, p, slots = 20, 5, 10_000
        hits = 0
        for t in range(slots):
            part = partition_nodes(N, p, substream(123, "partition", t))
            member = part.membership(N)
            hits += member[3] == member[11]
        want = (p - 1) / (N - 1)
        se = np.sqrt(want * (1 - want) / slots)
        assert abs(hits / slots - want) <= 3 * se


class TestSampleClusterEdges:
    def test_full_fraction_gives_all_pairs(self):
        cluster = np.array([4, 7, 9])
        edges = sample_cluster_edges(cluster, substream(0, "edges", 0),
                                     fraction=1.0)
        got = {tuple(sorted(e)) for e in edges.tolist()}
        assert got == {(4, 7), (4, 9), (7, 9)}

    def test_single_pair_cluster(self):
        edges = sample_cluster_edges(np.array([2, 5]),
                                     substream(0, "edges", 0), q=1)
        assert sorted(edges[0].tolist()) == [2, 5]

    def test_no_duplicates_or_self_loops(self):
        rng = substream(1, "edges", 0)
        for _ in range(100):
            cluster = np.arange(8)
            edges = sample_cluster_edges(cluster, rng, q=12)
            keys = {tuple(sorted(e)) for e in edges.tolist()}
            assert len(keys) == len(edges)
            assert all(a != b for a, b in edges.tolist())

    def test_uniform_over_choices(self):
        """chi-square uniformity of single-edge draws from a 3-cluster."""
        counts = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
        draws = 10_000
        rng = substream(2, "edges", 0)
        for _ in range(draws):
            e = sample_cluster_edges(np.arange(3), rng, q=1)
            counts[tuple(sorted(e[0].tolist()))] += 1
        expected = draws / 3
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 13.8  # 0.999 quantile, 2 dof

    def test_oversized_request_clamped(self):
        with pytest.warns(UserWarning):
            edges = sample_cluster_edges(np.arange(3),
                                         substream(0, "edges", 0), q=10)
        assert len(edges) == 3

    def test_ensure_connected(self):
        rng = substream(3, "edges", 0)
        for _ in range(50):
            edges = sample_cluster_edges(np.arange(6), rng, q=5,
                                         ensure_connected=True)
            # 5 edges over 6 nodes must form a spanning tree to connect
            parent = list(range(6))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in edges.tolist():
                parent[find(a)] = find(b)
            assert len({find(v) for v in range(6)}) == 1


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


class TestCalibratePQ:
    def test_sparse_rule(self):
        p, q = calibrate_p_q(1000, 4000, sparse_mode=True, beta=3.0)
        assert (p, q) == (64, 256)

    def test_dense_floor_case(self):
        with pytest.warns(UserWarning):
            p, q = calibrate_p_q(100, 100, sparse_mode=False)
        assert (p, q) == (2, 1)

    def test_dense_rule_all_pairs(self):
        p, q = calibrate_p_q(800_000, 800_000 * 100, sparse_mode=False)
        assert p == 100
        assert q == 100 * 99 // 2

    def test_target_below_n_rejected(self):
        with pytest.raises(ValueError):
            calibrate_p_q(100, 50)
