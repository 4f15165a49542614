"""Dissimilarity ingestion and embedding/trace output.

Providers expose a uniform lookup contract: ``node_count`` plus
``pairs(m, n) -> delta`` (NaN for absent pairs). On-demand providers compute
dissimilarities lazily from object features, so runs never materialize an
N x N matrix; a call counter backs the laziness guarantee.
"""

from __future__ import annotations

import math
import os
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
    occurrence with a warning. Malformed lines, self-loops, non-finite
    deltas, and nonpositive deltas carrying positive weight are rejected with
    the offending line number.
    """
    seen: dict = {}
    dupes = 0
    for lineno, raw in enumerate(_read_lines(source), start=1):
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
    if dupes:
        warnings.warn(f"{dupes} duplicate pair(s); last occurrence wins",
                      stacklevel=2)
    return ObservationBatch.from_entries(seen.values())


def serialize_edge_list(batch: ObservationBatch) -> str:
    lines = [
        f"{int(m)}\t{int(n)}\t{float(d)!r}\t{float(w)!r}"
        for m, n, d, w in zip(batch.m, batch.n, batch.delta, batch.weight)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


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


class FingerprintProvider(_CountingProvider):
    """On-demand Tanimoto dissimilarities over binary fingerprints."""

    def __init__(self, bits: np.ndarray):
        super().__init__()
        self.bits = np.asarray(bits).astype(bool)
        self.node_count = self.bits.shape[0]

    def pairs(self, m, n):
        self._count(len(m))
        a = self.bits[m]
        b = self.bits[n]
        inter = np.count_nonzero(a & b, axis=1)
        union = np.count_nonzero(a | b, axis=1)
        out = np.full(len(inter), np.nan)
        ok = union > 0
        out[ok] = 1.0 - inter[ok] / union[ok]
        return out


def open_dense_matrix(path, memory_budget_bytes: int = 1 << 30) -> MatrixProvider:
    """Open an .npy dissimilarity matrix, memory-mapping it when it would
    not fit the budget (row blocks are then paged in on demand)."""
    size = os.path.getsize(path)
    mmap_mode = "r" if size > memory_budget_bytes else None
    return MatrixProvider(np.load(path, mmap_mode=mmap_mode))


# ---------------------------------------------------------------------------
# fingerprints / vectors / embeddings on disk


def load_fingerprints(source):
    """Read ``id<TAB>hex`` fingerprint records.

    Bit length is set by the first record's hex digits (4 bits per digit);
    inconsistent lengths are rejected. Returns (ids, bits) with ``bits`` a
    boolean (N, L) array, most-significant bit first.
    """
    ids, rows = [], []
    digits = None
    for lineno, raw in enumerate(_read_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'id<TAB>hex'")
        ident, hx = parts
        if digits is None:
            digits = len(hx)
        elif len(hx) != digits:
            raise ValueError(f"line {lineno}: fingerprint length mismatch")
        try:
            value = int(hx, 16)
        except ValueError:
            raise ValueError(f"line {lineno}: invalid hex {hx!r}") from None
        nbits = digits * 4
        row = np.array([(value >> (nbits - 1 - k)) & 1 for k in range(nbits)],
                       dtype=bool)
        ids.append(ident)
        rows.append(row)
    if not rows:
        raise ValueError("no fingerprint records found")
    return ids, np.array(rows)


def load_vectors(source):
    """Read ``id<TAB>v0<TAB>v1...`` rows into (ids, (N, D) float array)."""
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
