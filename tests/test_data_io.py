"""Parsers, providers and their dissimilarities, and embedding round
trips."""

import io

import numpy as np
import pytest

from stochmds.data_io import (
    EdgeListProvider,
    FeatureProvider,
    FingerprintProvider,
    MatrixProvider,
    load_fingerprints,
    load_vectors,
    open_dense_matrix,
    parse_edge_list,
    read_embedding,
    serialize_edge_list,
    write_embedding,
)
from stochmds.observations import ObservationBatch
from stochmds.sampling import assign_weights


class TestParseEdgeList:
    def test_basic_line(self):
        batch = parse_edge_list("0\t1\t2.5\n")
        assert len(batch) == 1
        assert batch.delta[0] == 2.5
        assert batch.weight[0] == 1.0  # default weight

    def test_comments_ignored(self):
        batch = parse_edge_list("# header\n0\t1\t2.5\n# tail\n")
        assert len(batch) == 1

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("0\t1\t1.0\n0\t0\t1.0\n")

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list("0\t1\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list("a\tb\t1.0\n")

    def test_nonpositive_delta_with_weight_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list("0\t1\t-2.0\t0.5\n")
        # weight zero makes a nonpositive delta admissible (no information)
        batch = parse_edge_list("0\t1\t-2.0\t0.0\n")
        assert batch.weight[0] == 0.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_nonfinite_delta_rejected_with_line_number(self, value):
        with pytest.raises(ValueError, match="line 2: non-finite delta"):
            parse_edge_list(f"0\t1\t1.0\n1\t2\t{value}\t0.5\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list(f"0\t1\t{value}\t0.0\n")

    def test_duplicate_pair_last_wins(self):
        with pytest.warns(UserWarning):
            batch = parse_edge_list("0\t1\t1.0\n1\t0\t3.0\n")
        assert len(batch) == 1
        assert batch.delta[0] == 3.0

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        text = "\n".join(
            f"{i}\t{i + 1}\t{rng.random() + 0.1!r}\t{rng.random()!r}"
            for i in range(20)) + "\n"
        batch = parse_edge_list(text)
        again = parse_edge_list(serialize_edge_list(batch))
        np.testing.assert_array_equal(batch.m, again.m)
        np.testing.assert_array_equal(batch.delta, again.delta)
        np.testing.assert_array_equal(batch.weight, again.weight)


def _tanimoto(h, g):
    """The Tanimoto dissimilarity of two fingerprints, as a provider gives
    it for the pair they form."""
    return FingerprintProvider(np.array([h, g], dtype=bool)).pairs(
        np.array([0]), np.array([1]))[0]


def _cosine(u, v):
    """The cosine dissimilarity of two vectors, as a provider gives it."""
    return FeatureProvider(np.array([u, v]), metric="cosine").pairs(
        np.array([0]), np.array([1]))[0]


class TestTanimoto:
    def test_identical_fingerprints(self):
        h = np.array([1, 0, 1, 1], dtype=bool)
        assert _tanimoto(h, h) == 0.0

    def test_disjoint_supports(self):
        a = np.array([1, 1, 0, 0], dtype=bool)
        b = np.array([0, 0, 1, 1], dtype=bool)
        assert _tanimoto(a, b) == 1.0

    def test_hand_value(self):
        a = np.array([1, 1, 0, 0], dtype=bool)
        b = np.array([0, 1, 1, 0], dtype=bool)
        assert _tanimoto(a, b) == pytest.approx(2 / 3)

    def test_symmetry(self):
        bits = np.random.default_rng(1).random((50, 16)) < 0.4
        prov = FingerprintProvider(bits)
        m, n = np.triu_indices(50, k=1)
        np.testing.assert_array_equal(prov.pairs(m, n), prov.pairs(n, m))

    def test_empty_pair_gives_nan(self):
        """Two empty fingerprints have no Tanimoto dissimilarity: the
        provider gives NaN, which every weight scheme drops."""
        z = np.zeros(8, dtype=bool)
        delta = np.array([_tanimoto(z, z)])
        assert np.isnan(delta).all()
        for scheme in ("unity", "sammon"):
            assert assign_weights(delta, scheme)[0] == 0.0


class TestCosine:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert _cosine(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert _cosine([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_antipodal(self):
        assert _cosine([1.0, 0.0], [-1.0, 0.0]) == 2.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            _cosine(np.zeros(3), np.ones(3))


class TestProviders:
    def test_edge_list_provider_lookup(self):
        batch = parse_edge_list("0\t1\t2.0\n1\t2\t3.0\n")
        prov = EdgeListProvider(batch, 3)
        out = prov.pairs(np.array([1, 0, 0]), np.array([0, 2, 1]))
        np.testing.assert_array_equal(out[[0, 2]], [2.0, 2.0])
        assert np.isnan(out[1])  # absent pair

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_list_provider_matches_dict_lookup(self, seed):
        """The sorted-key lookup gives what a dict over the same edges gives:
        the last delta of a repeated pair in either orientation, and NaN for
        an absent pair."""
        rng = np.random.default_rng(seed)
        n, count = 25, 120
        m = rng.integers(0, n, count)
        o = (m + rng.integers(1, n, count)) % n
        delta = rng.random(count) + 0.1
        table = {}
        for a, b, d in zip(m.tolist(), o.tolist(), delta.tolist()):
            table[(min(a, b), max(a, b))] = d
        prov = EdgeListProvider(ObservationBatch(m, o, delta,
                                                 np.ones(count)), n)
        qm, qn = rng.integers(0, n, 600), rng.integers(0, n, 600)
        want = [table.get((min(a, b), max(a, b)), np.nan)
                for a, b in zip(qm.tolist(), qn.tolist())]
        assert any(np.isnan(want)) and not all(np.isnan(want))
        np.testing.assert_array_equal(prov.pairs(qm, qn), want)
        assert prov.lookups == 600

    def test_empty_edge_list_provider_gives_nan(self):
        prov = EdgeListProvider(ObservationBatch.empty(), 4)
        assert np.isnan(prov.pairs([0, 1], [1, 3])).all()

    def test_edge_list_provider_rejects_ids_beyond_node_count(self):
        """Pair keys are lo * node_count + hi, so an id at or beyond the node
        count would alias another pair: (0, 5) at n = 3 lands on (1, 2)."""
        batch = parse_edge_list("1\t2\t1.0\n0\t5\t9.0\n")
        with pytest.raises(ValueError, match="node ids"):
            EdgeListProvider(batch, 3)

    def test_feature_provider_euclidean(self):
        feats = np.array([[0.0, 0.0], [3.0, 4.0]])
        prov = FeatureProvider(feats)
        np.testing.assert_allclose(prov.pairs(np.array([0]), np.array([1])),
                                   [5.0])

    def test_feature_provider_cosine(self):
        feats = np.array([[1.0, 0.0], [0.0, 2.0]])
        prov = FeatureProvider(feats, metric="cosine")
        np.testing.assert_allclose(prov.pairs(np.array([0]), np.array([1])),
                                   [1.0])

    def test_fingerprint_provider(self):
        bits = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=bool)
        prov = FingerprintProvider(bits)
        np.testing.assert_allclose(prov.pairs(np.array([0]), np.array([1])),
                                   [2 / 3])

    def test_lookup_counter_tracks_laziness(self):
        """Per-slot lookups stay at q * (N/p): the run never scans the data."""
        from stochmds import MuSchedule, SamplerConfig, random_init, \
            run_stochastic

        rng = np.random.default_rng(2)
        feats = rng.random((60, 3))
        prov = FeatureProvider(feats)
        init = random_init(60, 2, rng, 1.0)
        sampler = SamplerConfig(p=10, q=5, seed=0)
        slots = 7
        run_stochastic(prov, init, MuSchedule.constant(0.1), sampler, slots,
                       eval_pairs=0)
        assert prov.lookups == slots * 5 * (60 // 10)

    def test_dense_matrix_budget(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.random((20, 20))
        mat = (mat + mat.T) / 2
        path = tmp_path / "d.npy"
        np.save(path, mat)
        small = open_dense_matrix(path, memory_budget_bytes=1)
        assert isinstance(small.matrix, np.memmap)  # over budget: mapped
        big = open_dense_matrix(path, memory_budget_bytes=1 << 20)
        assert not isinstance(big.matrix, np.memmap)
        np.testing.assert_allclose(
            small.pairs(np.array([0, 3]), np.array([5, 7])),
            big.pairs(np.array([0, 3]), np.array([5, 7])))


class TestFingerprintFiles:
    def test_hex_records(self):
        ids, bits = load_fingerprints("a\tff\nb\t0f\n")
        assert ids == ["a", "b"]
        assert bits.shape == (2, 8)
        assert bits[0].all()
        np.testing.assert_array_equal(bits[1], [0, 0, 0, 0, 1, 1, 1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            load_fingerprints("a\tff\nb\tffff\n")

    def test_bad_hex_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            load_fingerprints("a\tzz\n")


class TestEmbeddingIO:
    def test_single_node(self):
        buf = io.StringIO()
        write_embedding(np.zeros((1, 2)), buf)
        assert buf.getvalue() == "id,c0,c1\n0,0.0,0.0\n"

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 3)) * 1e3
        buf = io.StringIO()
        write_embedding(X, buf)
        _, back = read_embedding(buf.getvalue())
        np.testing.assert_array_equal(back, X)

    def test_empty_embedding_header_only(self):
        buf = io.StringIO()
        write_embedding(np.zeros((0, 2)), buf)
        assert buf.getvalue() == "id,c0,c1\n"

    def test_vectors_loader(self):
        ids, X = load_vectors("n0\t1.0\t2.0\nn1\t3.0\t4.0\n")
        assert ids == ["n0", "n1"]
        np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])


class TestTextSources:
    def test_one_line_string_is_text(self):
        """A string holding a tab is text, not a path, for every reader."""
        assert len(parse_edge_list("0\t1\t2.0")) == 1
        assert load_vectors("a\t1.0\t2.0")[0] == ["a"]
        assert load_fingerprints("a\tff")[0] == ["a"]
