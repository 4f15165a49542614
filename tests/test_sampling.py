"""Cluster partitioning, edge subsampling and weight schemes."""

import itertools

import numpy as np
import pytest
from scipy.stats import chi2

from stochmds import SamplerConfig, assign_weights, partition_nodes
from stochmds.rng import substream
from stochmds import sampling
from stochmds.sampling import _decode_pairs, _pair_from_index, \
    _sample_local_pairs


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

    @pytest.mark.parametrize("n, p", [(5, 2), (100, 25), (40_001, 100)])
    def test_int32_ids_are_the_permutation_draw(self, n, p):
        """The int32 ids are ``rng.permutation(n)`` cut into clusters, and
        the generator ends in the same state."""
        got_rng, want_rng = substream(9, "partition", n), \
            substream(9, "partition", n)
        part = partition_nodes(n, p, got_rng)
        perm = want_rng.permutation(n)
        assert all(c.dtype == np.int32 for c in part)
        np.testing.assert_array_equal(np.concatenate(part),
                                      perm[:len(np.concatenate(part))])
        assert got_rng.random() == want_rng.random()

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


class TestPairDecode:
    def test_matches_triu_order(self):
        """Both paths list the pairs of s items in ``np.triu_indices``
        order, index for index."""
        for s in range(2, 61):
            k = np.arange(s * (s - 1) // 2)
            want = np.triu_indices(s, k=1)
            for decode in (_decode_pairs, _pair_from_index):
                a, b = decode(k, s)
                np.testing.assert_array_equal(a, want[0])
                np.testing.assert_array_equal(b, want[1])

    def test_cell_boundaries_of_a_large_size(self):
        """At s = 100,000 (about 5e9 pairs) every row's first and last index,
        and the ones either side of them, decode to their pairs."""
        s = 100_000
        rows = np.arange(s - 1, dtype=np.int64)
        first = rows * s - rows * (rows + 1) // 2
        last = first + (s - 2 - rows)
        k = np.concatenate([first, last, first[1:] + 1, last[:-1] - 1])
        a_want = np.concatenate([rows, rows, rows[1:], rows[:-1]])
        b_want = np.concatenate([rows + 1, np.full(s - 1, s - 1),
                                 rows[1:] + 2, np.full(s - 2, s - 2)])
        keep = b_want < s  # the last row has no second pair
        a, b = _decode_pairs(k[keep], s)
        np.testing.assert_array_equal(a, a_want[keep])
        np.testing.assert_array_equal(b, b_want[keep])

    def test_table_only_below_its_size_limit(self, monkeypatch):
        """Cluster draws cache a size's table up to ``_PAIR_TABLE_MAX``
        pairs and decode larger sizes by arithmetic."""
        monkeypatch.setattr(sampling, "_pair_tables", {})
        k = np.array([0, 5, 17])
        small, large = 30, 1000  # 435 and 499,500 pairs
        for s in (small, large):
            a, b = _pair_from_index(k, s)
            np.testing.assert_array_equal(
                np.stack([a, b]), np.stack(_decode_pairs(k, s)))
        assert list(sampling._pair_tables) == [small]


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

    # numpy's choice without replacement and shuffle takes Floyd's draw,
    # unless more than 10,000 pairs are available and more than a
    # twentieth of them are requested: then it shuffles the tail of the
    # index range
    @pytest.mark.parametrize("size, q", [(100, 50), (25, 105), (200, 1000)],
                             ids=["floyd", "floyd_dense", "tail_shuffle"])
    def test_draw_is_a_set_of_pairs(self, size, q):
        rng = substream(3, "edges", size)
        for _ in range(20):
            a, b = _sample_local_pairs(size, rng, q=q)
            assert len(a) == q
            assert len(set(zip(a.tolist(), b.tolist()))) == q
            assert np.all((0 <= a) & (a < b) & (b < size))

    def test_uniform_over_subsets(self):
        """chi-square uniformity of whole draws: every one of the 20
        three-pair subsets of a 4-node cluster is equally likely."""
        subsets = {frozenset(c): 0 for c in itertools.combinations(
            itertools.combinations(range(4), 2), 3)}
        draws = 20_000
        rng = substream(4, "edges", 0)
        for _ in range(draws):
            a, b = _sample_local_pairs(4, rng, q=3)
            subsets[frozenset(zip(a.tolist(), b.tolist()))] += 1
        assert len(subsets) == 20
        expected = draws / 20
        stat = sum((c - expected) ** 2 / expected for c in subsets.values())
        assert stat < chi2.ppf(0.999, 19)

    @pytest.mark.parametrize("size, q, draws", [(100, 50, 2000),
                                                (200, 1000, 400)],
                             ids=["floyd", "tail_shuffle"])
    def test_uniform_pair_frequencies(self, size, q, draws):
        """chi-square uniformity of how often each pair is drawn."""
        total = size * (size - 1) // 2
        counts = np.zeros((size, size), dtype=np.int64)
        rng = substream(5, "edges", size)
        for _ in range(draws):
            a, b = _sample_local_pairs(size, rng, q=q)
            counts[a, b] += 1
        counts = counts[np.triu_indices(size, k=1)]
        expected = draws * q / total
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < chi2.ppf(0.999, total - 1)

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

