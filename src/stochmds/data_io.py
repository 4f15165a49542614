"""Dissimilarity ingestion and embedding/trace output.

Providers expose a uniform lookup contract: ``node_count`` plus
``pairs(m, n) -> delta`` (NaN for absent pairs). On-demand providers compute
dissimilarities lazily from object features, so runs never materialize an
N x N matrix; a call counter backs the laziness guarantee.
"""

from __future__ import annotations

import math
import os
import re
import string
import warnings

import numpy as np

from .observations import ObservationBatch

__all__ = [
    "parse_edge_list",
    "write_embedding",
    "read_embedding",
    "load_fingerprints",
    "load_vectors",
    "EdgeListProvider",
    "MatrixProvider",
    "FeatureProvider",
    "FingerprintProvider",
    "open_dense_matrix",
]


# ---------------------------------------------------------------------------
# text sources


def _read_lines(source) -> list:
    """The lines of ``source``: a file-like object, a string of text (one
    that holds a newline or a tab), or else a path."""
    if hasattr(source, "read"):
        return source.read().splitlines()
    if isinstance(source, str) and ("\n" in source or "\t" in source):
        return source.splitlines()
    with open(source) as fh:
        return fh.read().splitlines()


# ---------------------------------------------------------------------------
# edge lists


def parse_edge_list(source, node_count: int | None = None) -> ObservationBatch:
    """Parse ``m<TAB>n<TAB>delta[<TAB>weight]`` lines into a batch.

    ``source`` may be a path, a file-like object, or a string of lines.
    ``#``-prefixed lines are ignored; duplicate unordered pairs keep the last
    occurrence with a warning. Malformed lines, self-loops, node ids below
    0 or not below 2**31, non-finite deltas, and nonpositive deltas carrying
    positive weight are rejected with the offending line number.

    The lines are read in one vectorized pass (``_parse_table``). Any input
    that pass might read differently, and any input it finds at fault, goes
    to the line loop (``_parse_lines``), which words every error; both give
    the same batch, bit for bit.
    """
    lines = _read_lines(source)
    parsed = _parse_table(lines, node_count)
    batch, dupes = parsed if parsed is not None else \
        _parse_lines(lines, node_count)
    if dupes:
        warnings.warn(f"{dupes} duplicate pair(s); last occurrence wins",
                      stacklevel=2)
    return batch


def _parse_lines(lines, node_count):
    """The line loop: (batch, duplicate count), or ``ValueError`` naming the
    first bad line."""
    seen: dict = {}
    dupes = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ValueError(f"line {lineno}: expected 3 or 4 fields, got {len(parts)}")
        try:
            m = int(parts[0])
            n = int(parts[1])
            delta = float(parts[2])
            weight = float(parts[3]) if len(parts) == 4 else 1.0
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if m == n:
            raise ValueError(f"line {lineno}: self-loop ({m}, {n})")
        if m < 0 or n < 0:
            raise ValueError(f"line {lineno}: negative node index")
        if max(m, n) >= _ID_LIMIT:
            raise ValueError(f"line {lineno}: node index {max(m, n)} is "
                             f"not below {_ID_LIMIT}")
        if node_count is not None and (m >= node_count or n >= node_count):
            raise ValueError(f"line {lineno}: node index beyond node count")
        if not math.isfinite(delta):
            raise ValueError(f"line {lineno}: non-finite delta {delta}")
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"line {lineno}: weight {weight} outside [0, 1]")
        if weight > 0 and delta <= 0:
            raise ValueError(f"line {lineno}: nonpositive delta {delta} with "
                             "positive weight")
        key = (min(m, n), max(m, n))
        if key in seen:
            dupes += 1
        seen[key] = (m, n, delta, weight)
    return ObservationBatch.from_entries(seen.values()), dupes


# characters the line loop and np.loadtxt need not read alike: control
# characters that str.splitlines / str.split take as breaks, and the digit
# separator that int and float accept
_LOOP_ONLY = "\v\f\x1c\x1d\x1e\x1f_"
# a '#' after the start of a line: loadtxt strips it as a comment, the loop
# rejects the line
_INLINE_HASH = re.compile(r"^[ \t]*[^\s#][^\n]*#", re.MULTILINE)
# node ids must lie below this, so that the node count and every pair key
# (lo * N + hi) fit in int64; the vectorized pass leaves larger ids to the
# loop, which rejects them
_ID_LIMIT = 1 << 31


def _parse_table(lines, node_count):
    """The vectorized pass: (batch, duplicate count) as ``_parse_lines``
    gives them, or None when the input is for the loop to read.

    One ``np.loadtxt`` call reads every line into a structured table (its
    field count taken from the first data line), and the loop's checks run
    on whole columns. A pair listed twice keeps its first position and its
    last occurrence's orientation and values, as the loop's dict does.
    """
    text = "\n".join(lines)
    if not text.isascii() or any(c in text for c in _LOOP_ONLY) or \
            ("#" in text and _INLINE_HASH.search(text)):
        return None
    first = next((s for s in map(str.strip, lines)
                  if s and not s.startswith("#")), None)
    width = len(first.split()) if first is not None else 0
    if width not in (3, 4):
        return None
    dtype = [("m", np.int64), ("n", np.int64), ("delta", np.float64),
             ("weight", np.float64)][:width]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=dtype, ndmin=1)
    except (ValueError, Warning):
        return None
    m, n, delta = table["m"], table["n"], table["delta"]
    weight = table["weight"] if width == 4 else np.ones(len(table))
    lo, hi = np.minimum(m, n), np.maximum(m, n)
    bound = _ID_LIMIT if node_count is None else min(node_count, _ID_LIMIT)
    if (lo.min() < 0 or hi.max() >= bound or np.any(m == n)
            or not np.isfinite(delta).all()
            or not ((weight >= 0) & (weight <= 1)).all()
            or np.any((weight > 0) & (delta <= 0))):
        return None
    keys = lo * (int(hi.max()) + 1) + hi
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # a stable sort puts each pair's first and last occurrence at the ends
    # of its run of equal keys
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    ends = np.r_[starts[1:], len(keys)] - 1
    rows = order[ends][np.argsort(order[starts])]
    return (ObservationBatch(m[rows], n[rows], delta[rows], weight[rows]),
            len(keys) - len(starts))


# ---------------------------------------------------------------------------
# providers


class _CountingProvider:
    """Base class tracking how many pair lookups have been served."""

    def __init__(self):
        self.lookups = 0

    def _count(self, k: int):
        self.lookups += int(k)


class EdgeListProvider(_CountingProvider):
    """Lookup over a fixed set of measured pairs; absent pairs give NaN.
    ``keys`` holds them once, sorted, as ``lo * N + hi`` beside ``delta``;
    a pair listed twice keeps its last delta."""

    def __init__(self, batch: ObservationBatch, node_count: int):
        super().__init__()
        self.node_count = int(node_count)
        lo = np.minimum(batch.m, batch.n)
        hi = np.maximum(batch.m, batch.n)
        if len(batch) and (lo.min() < 0 or hi.max() >= self.node_count):
            raise ValueError(
                f"edge list node ids must lie in [0, {self.node_count})")
        # np.unique keeps each key's first index, so search the reversed list
        self.keys, last = np.unique((lo * self.node_count + hi)[::-1],
                                    return_index=True)
        self.delta = batch.delta[::-1][last]

    def pairs(self, m, n):
        m = np.asarray(m, dtype=np.int64)
        n = np.asarray(n, dtype=np.int64)
        self._count(len(m))
        wanted = np.minimum(m, n) * self.node_count + np.maximum(m, n)
        out = np.full(len(wanted), np.nan)
        if len(self.keys):
            pos = np.minimum(np.searchsorted(self.keys, wanted),
                             len(self.keys) - 1)
            hit = self.keys[pos] == wanted
            out[hit] = self.delta[pos[hit]]
        return out


class MatrixProvider(_CountingProvider):
    """Lookup into a symmetric dissimilarity matrix (array or memmap)."""

    def __init__(self, matrix):
        super().__init__()
        self.matrix = matrix
        self.node_count = matrix.shape[0]

    def pairs(self, m, n):
        self._count(len(m))
        return np.asarray(self.matrix[m, n], dtype=np.float64)


class FeatureProvider(_CountingProvider):
    """On-demand dissimilarities computed from per-object feature vectors.

    metric: ``euclidean`` or ``cosine``. Only the requested pairs are
    touched, which keeps memory linear in the number of objects.
    """

    def __init__(self, features: np.ndarray, metric: str = "euclidean"):
        super().__init__()
        if metric not in ("euclidean", "cosine"):
            raise ValueError(f"unknown metric {metric!r}")
        self.features = np.asarray(features, dtype=np.float64)
        self.metric = metric
        self.node_count = self.features.shape[0]
        if metric == "cosine":
            norms = np.linalg.norm(self.features, axis=1)
            if np.any(norms == 0):
                raise ValueError("cosine metric requires nonzero feature vectors")
            self._norms = norms

    def pairs(self, m, n):
        self._count(len(m))
        a = self.features[m]
        b = self.features[n]
        if self.metric == "euclidean":
            return np.linalg.norm(a - b, axis=1)
        dots = np.einsum("ij,ij->i", a, b)
        return np.clip(1.0 - dots / (self._norms[m] * self._norms[n]), 0.0, 2.0)


# set bits of each byte value
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


class FingerprintProvider(_CountingProvider):
    """On-demand Tanimoto dissimilarities over binary fingerprints.

    ``bits`` is an (N, L) array of bits. Each row is kept packed, eight bits
    to a byte (``np.packbits``, zero-padded), and bits are counted through a
    256-entry table, so a row costs L/8 bytes and the counts equal those of
    the unpacked bits. Two empty fingerprints give NaN.
    """

    def __init__(self, bits: np.ndarray):
        super().__init__()
        self.packed = np.packbits(np.asarray(bits, dtype=bool), axis=1)
        self.node_count = self.packed.shape[0]

    def pairs(self, m, n):
        self._count(len(m))
        a = self.packed[m]
        b = self.packed[n]
        inter = _POPCOUNT[a & b].sum(axis=1, dtype=np.int64)
        union = _POPCOUNT[a | b].sum(axis=1, dtype=np.int64)
        out = np.full(len(inter), np.nan)
        ok = union > 0
        out[ok] = 1.0 - inter[ok] / union[ok]
        return out


def open_dense_matrix(path, memory_budget_bytes: int = 1 << 30) -> MatrixProvider:
    """Open a square .npy dissimilarity matrix, memory-mapping it when it
    would not fit the budget (row blocks are then paged in on demand)."""
    size = os.path.getsize(path)
    mmap_mode = "r" if size > memory_budget_bytes else None
    matrix = np.load(path, mmap_mode=mmap_mode)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{path}: matrix of shape {matrix.shape} is not square")
    return MatrixProvider(matrix)


# ---------------------------------------------------------------------------
# fingerprints / vectors / embeddings on disk


def load_fingerprints(source):
    """Read ``id<TAB>hex`` fingerprint records.

    Bit length is set by the first record's hex digits (4 bits per digit);
    inconsistent lengths and anything but hex digits (signs, ``0x``,
    underscores) are rejected with the line number. Returns (ids, bits)
    with ``bits`` a boolean (N, L) array, most-significant bit first.
    """
    ids, hexes = [], []
    for lineno, raw in enumerate(_read_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'id<TAB>hex'")
        ident, hx = parts
        if hexes and len(hx) != len(hexes[0]):
            raise ValueError(f"line {lineno}: fingerprint length mismatch")
        if not set(hx) <= set(string.hexdigits):
            raise ValueError(f"line {lineno}: invalid hex {hx!r}")
        ids.append(ident)
        hexes.append(hx)
    if not hexes:
        raise ValueError("no fingerprint records found")
    # an odd digit count is padded with a leading 0, whose 4 bits are dropped
    pad = len(hexes[0]) % 2
    raw = np.frombuffer(bytes.fromhex("".join("0" * pad + hx for hx in hexes)),
                        dtype=np.uint8).reshape(len(hexes), -1)
    return ids, np.unpackbits(raw, axis=1)[:, 4 * pad:].view(bool)


def load_vectors(source):
    """Read ``id<TAB>v0...`` rows of finite floats into (ids, (N, D) array)."""
    ids, rows = [], []
    for lineno, raw in enumerate(_read_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected id plus values")
        ids.append(parts[0])
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, rows[-1])):
            raise ValueError(f"line {lineno}: non-finite value")
    if not rows:
        raise ValueError("no vector records found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("vector rows have inconsistent lengths")
    return ids, np.array(rows)


def write_embedding(X: np.ndarray, sink, ids=None) -> None:
    """Write a CSV ``id,c0,...,c{P-1}`` with full round-trip precision."""
    X = np.asarray(X, dtype=np.float64)
    n, dim = X.shape if X.ndim == 2 else (0, 0)
    if ids is None:
        ids = list(range(n))
    if len(ids) != n:
        raise ValueError("ids length does not match embedding rows")
    own = not hasattr(sink, "write")
    fh = open(sink, "w") if own else sink
    try:
        fh.write("id," + ",".join(f"c{k}" for k in range(dim)) + "\n")
        for ident, row in zip(ids, X):
            fh.write(str(ident) + "," + ",".join(repr(float(v)) for v in row)
                     + "\n")
    finally:
        if own:
            fh.close()


def read_embedding(source):
    """Inverse of ``write_embedding``: returns (ids, X)."""
    lines = _read_lines(source)
    if not lines or not lines[0].startswith("id"):
        raise ValueError("missing embedding header")
    ids, rows = [], []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        ids.append(parts[0])
        rows.append([float(v) for v in parts[1:]])
    dim = len(lines[0].split(",")) - 1
    X = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    return ids, X
