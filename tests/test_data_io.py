"""Parsers, providers and their dissimilarities, and embedding round
trips."""

import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochmds import data_io
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


# tokens a field may hold: well-formed ones, and ones that the line loop and
# np.loadtxt might read differently (signs, leading zeros, floats as ids,
# digit separators, non-ASCII digits, non-finite and out-of-range values)
_ID_TOKENS = ["0", "1", "2", "3", "5", "8", "+2", "007", "-0", "-1", "1.0",
              "1e0", "1_0", "\u0663", "2147483648", "99999999999999999999",
              "0x1", "", "a"]
_VALUE_TOKENS = ["0.5", "1", "1.0", "2.5", "0.25", "3e-2", ".5", "5.",
                 "1E1", "0", "-0.0", "-2", "nan", "NaN", "+nan", "inf",
                 "-inf", "Infinity", "1e400", "1e-400", "1_0", "\u0663",
                 "0x10", "1.5#", "x", ""]
_SEPARATORS = ["\t", " ", "  ", " \t", "\x1f", "\v", "\f", "\x1c",
               "\xa0", "\x00"]
_LINE_ENDS = ["\n", "\n", "\r\n", "\r", "\x1e", "\x85"]


@st.composite
def _edge_files(draw):
    """An edge-list text: data lines of 2 to 5 fields (mostly 3 or 4, mostly
    well-formed), comments at a line start, indented or inline, blank and
    whitespace-only lines, and a mix of line endings and separators."""
    valid = draw(st.booleans())
    ids = st.sampled_from(_ID_TOKENS[:5]) if valid else \
        st.sampled_from(_ID_TOKENS)
    values = st.sampled_from(_VALUE_TOKENS[:5]) if valid else \
        st.sampled_from(_VALUE_TOKENS)
    weights = st.sampled_from(["0", "0.5", "1", "1.0", "0.125"]) if valid \
        else st.sampled_from(["0.5", "1", "0", "-0.0", "1.5", "-0.1"]
                             + _VALUE_TOKENS[10:])
    width = draw(st.sampled_from([3, 4]))
    seps = st.sampled_from(["\t", " "]) if valid else \
        st.sampled_from(_SEPARATORS)
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["data"] * 6 + ["comment", "indented",
                                                     "inline", "blank"]))
        if kind == "comment":
            lines.append("# m n delta weight")
        elif kind == "indented":
            lines.append(" \t# note")
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        else:
            k = width if valid else draw(st.sampled_from([width] * 4
                                                         + [2, 3, 4, 5]))
            fields = [draw(ids), draw(ids), draw(values), draw(weights),
                      draw(values)][:k]
            line = fields[0]
            for f in fields[1:]:
                line += draw(seps) + f
            if kind == "inline":
                line += " # c"
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + line)
    ends = st.sampled_from(_LINE_ENDS[:3]) if valid else \
        st.sampled_from(_LINE_ENDS)
    text = "".join(line + draw(ends) for line in lines)
    node_count = draw(st.sampled_from([None, None, 4, 9, 2**31 + 1]))
    return text, node_count


def _outcome(parse):
    """(batch, warning messages) or (error type, message) of one parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            batch = parse()
        except Exception as exc:  # its type is compared too
            return type(exc), str(exc)
    return batch, [str(w.message) for w in caught]


def _loop(text, node_count):
    """What the line loop alone gives for ``text``."""
    def parse():
        batch, dupes = data_io._parse_lines(
            data_io._read_lines(io.StringIO(text)), node_count)
        if dupes:
            warnings.warn(f"{dupes} duplicate pair(s); last occurrence wins")
        return batch
    return _outcome(parse)


def _assert_same_outcome(got, want):
    if not isinstance(want[0], ObservationBatch):
        assert got == want
        return
    assert isinstance(got[0], ObservationBatch), got
    for field in ("m", "n", "delta", "weight"):
        a, b = getattr(got[0], field), getattr(want[0], field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.flags.c_contiguous, field
        assert a.tobytes() == b.tobytes(), field
    assert got[1] == want[1]


class _LoopSpy:
    """Counts the calls that reach the line loop."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = data_io._parse_lines

        def spy(*args):
            self.calls += 1
            return real(*args)

        monkeypatch.setattr(data_io, "_parse_lines", spy)


class TestVectorizedParse:
    """``parse_edge_list`` reads a list in one vectorized pass and hands
    anything that pass might read differently, or finds at fault, to the
    line loop: the result is the loop's, bit for bit, every time."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_edge_files())
    def test_matches_line_loop(self, case):
        text, node_count = case
        got = _outcome(lambda: parse_edge_list(io.StringIO(text),
                                               node_count=node_count))
        _assert_same_outcome(got, _loop(text, node_count))

    def test_well_formed_lists_never_enter_the_loop(self, monkeypatch):
        spy = _LoopSpy(monkeypatch)
        three = "# m n delta\r\n0\t1\t2.5\r\n1\t2\t1.5\r\n\r\n2 3 0.5\r\n"
        batch = parse_edge_list(three)
        np.testing.assert_array_equal(batch.m, [0, 1, 2])
        np.testing.assert_array_equal(batch.weight, [1.0, 1.0, 1.0])
        four = ("0\t1\t1.0\t0.5\n2\t3\t2.0\t1\n1\t0\t3.0\t0.25\n"
                "3\t2\t4.0\t1\n2\t3\t5.0\t0\n")
        with pytest.warns(UserWarning, match="^3 duplicate pair"):
            batch = parse_edge_list(four)
        assert spy.calls == 0
        # first-occurrence order; orientation and values of the last
        np.testing.assert_array_equal(batch.m, [1, 2])
        np.testing.assert_array_equal(batch.n, [0, 3])
        np.testing.assert_array_equal(batch.delta, [3.0, 5.0])
        np.testing.assert_array_equal(batch.weight, [0.25, 0.0])

    def test_bad_line_enters_the_loop_and_is_named(self, monkeypatch):
        spy = _LoopSpy(monkeypatch)
        text = "".join(f"{i}\t{i + 1}\t1.0\n" for i in range(6)) + \
            "7\t7\t1.0\n8\t9\t1.0\n"
        with pytest.raises(ValueError, match=r"^line 7: self-loop \(7, 7\)"):
            parse_edge_list(text)
        assert spy.calls == 1

    @pytest.mark.parametrize("text", [
        "0\t1\t1_0\n",                 # a digit separator
        "0\t1\t2.5 # inline\n",         # a comment after data
        "0\t1\t2.5\n1\t2\t2.5\t1\n",    # mixed field counts
        "0\t1\t2.5\x1f\n",              # a control character read as a space
        "0\t\u0663\t2.5\n",             # a non-ASCII digit
        "1.0\t2\t2.5\n",                # an integer written as a float
        "0\t2147483648\t2.5\n",         # an id past the key range
    ])
    def test_inputs_the_pass_might_misread_go_to_the_loop(self, text,
                                                           monkeypatch):
        want = _loop(text, None)
        spy = _LoopSpy(monkeypatch)
        _assert_same_outcome(_outcome(lambda: parse_edge_list(text)), want)
        assert spy.calls == 1

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

    @pytest.mark.parametrize("length", [1, 7, 8, 13, 64, 100])
    def test_packed_rows_match_the_bool_formula(self, length):
        """Counts over packed rows give the Tanimoto values of the unpacked
        bits bit for bit, at lengths that do not fill the last byte and
        with empty fingerprints, whose pairs give NaN."""
        rng = np.random.default_rng(length)
        bits = rng.random((40, length)) < 0.3
        bits[:3] = False                # three empty rows: three NaN pairs
        bits[3:, -1] = True
        m, n = np.triu_indices(40, k=1)
        a, b = bits[m], bits[n]
        inter = np.count_nonzero(a & b, axis=1)
        union = np.count_nonzero(a | b, axis=1)
        want = np.full(len(m), np.nan)
        ok = union > 0
        want[ok] = 1.0 - inter[ok] / union[ok]
        got = FingerprintProvider(bits).pairs(m, n)
        assert np.isnan(want).sum() == 3
        assert got.tobytes() == want.tobytes()


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


    @pytest.mark.parametrize("shape", [(6, 3), (6,), (2, 2, 2)])
    def test_dense_matrix_must_be_square(self, shape, tmp_path):
        path = tmp_path / "d.npy"
        np.save(path, np.ones(shape))
        with pytest.raises(ValueError, match="not square"):
            open_dense_matrix(path)


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

    @pytest.mark.parametrize("hx", ["-ff", "0x1", "f_f", "+12"])
    def test_only_hex_digits_accepted(self, hx):
        """``int(hx, 16)`` takes signs, a ``0x`` prefix and underscores;
        a fingerprint is hex digits only."""
        with pytest.raises(ValueError, match="line 2: invalid hex"):
            load_fingerprints(f"a\t{'0' * len(hx)}\nb\t{hx}\n")

    @pytest.mark.parametrize("digits", [1, 3, 8, 33])
    def test_bits_match_bit_by_bit_decode(self, digits):
        """Odd digit counts too: 4 bits per digit, most significant
        first."""
        rng = np.random.default_rng(digits)
        hexes = ["".join(rng.choice(list("0123456789abcdefABCDEF"), digits))
                 for _ in range(5)]
        _, bits = load_fingerprints(
            "".join(f"n{i}\t{hx}\n" for i, hx in enumerate(hexes)))
        want = [[(int(hx, 16) >> (4 * digits - 1 - k)) & 1
                 for k in range(4 * digits)] for hx in hexes]
        assert bits.dtype == bool
        np.testing.assert_array_equal(bits, want)


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_vector_rejected(self, value):
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_vectors(f"n0\t1.0\t2.0\nn1\t3.0\t{value}\n")


class TestTextSources:
    def test_one_line_string_is_text(self):
        """A string holding a tab is text, not a path, for every reader."""
        assert len(parse_edge_list("0\t1\t2.0")) == 1
        assert load_vectors("a\t1.0\t2.0")[0] == ["a"]
        assert load_fingerprints("a\tff")[0] == ["a"]
