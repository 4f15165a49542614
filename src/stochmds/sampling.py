"""Random cluster partitioning, edge subsampling, and weight schemes.

Each time slot partitions the nodes into random disjoint clusters of size p
and selects a subset of intra-cluster pairs whose dissimilarities get
measured.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SamplerConfig",
    "partition_nodes",
    "assign_weights",
]

WEIGHT_SCHEMES = ("unity", "sammon")


@dataclass
class SamplerConfig:
    """Per-slot sampling parameters.

    Exactly one of ``q`` (edges per cluster) or ``fraction`` (fraction of
    intra-cluster pairs) must be set.
    """

    p: int
    q: int | None = None
    fraction: float | None = None
    scheme: str = "unity"
    seed: int = 0

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"cluster size p must be >= 2, got {self.p}")
        if (self.q is None) == (self.fraction is None):
            raise ValueError("exactly one of 'q' or 'fraction' must be given")
        if self.q is not None and self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in (0, 1], got {self.fraction}")
        if self.scheme not in WEIGHT_SCHEMES:
            raise ValueError(f"unknown weight scheme {self.scheme!r}")


def partition_nodes(node_count: int, p: int,
                    rng: np.random.Generator) -> list:
    """Partition nodes into random disjoint clusters of size p, returned as
    a list of node-id arrays.

    A remainder of size >= 2 forms a final smaller cluster; a remainder of
    one node idles for the slot.

    The ids are int32 below 2**31 nodes: the permutation is the one
    ``rng.permutation(node_count)`` draws (a shuffle makes the same draws
    whatever the dtype) at half its memory.
    """
    if p < 2:
        raise ValueError(f"cluster size p must be >= 2, got {p}")
    if p > node_count:
        raise ValueError(f"cluster size p={p} exceeds node count {node_count}")
    small = node_count <= np.iinfo(np.int32).max
    perm = np.arange(node_count, dtype=np.int32 if small else np.int64)
    rng.shuffle(perm)
    full = node_count // p
    rem = node_count - full * p
    clusters = [perm[k * p:(k + 1) * p] for k in range(full)]
    if rem >= 2:
        clusters.append(perm[full * p:])
    return clusters

# pair tables for small cluster sizes, built once per size
_PAIR_TABLE_MAX = 200_000
_pair_tables: dict = {}


def _decode_pairs(k: np.ndarray, s: int):
    """Decode linear pair indices into (a, b), a < b, over s items, by
    arithmetic, so only the requested pairs are materialized.

    Pairs are enumerated row-major, in ``np.triu_indices(s, 1)`` order:
    (0,1), (0,2), ..., (0,s-1), (1,2), ...
    """
    # row a satisfies T(a) <= k < T(a+1) with T(a) = a*s - a*(a+1)/2
    kf = k.astype(np.float64)
    a = np.floor((2 * s - 1 - np.sqrt((2 * s - 1) ** 2 - 8 * kf)) / 2).astype(np.int64)
    # guard against floating-point rounding on the cell boundaries
    start = a * s - a * (a + 1) // 2
    over = k < start
    a[over] -= 1
    start = a * s - a * (a + 1) // 2
    under = k >= start + (s - 1 - a)
    a[under] += 1
    start = a * s - a * (a + 1) // 2
    b = k - start + a + 1
    return a, b


def _pair_from_index(k: np.ndarray, s: int):
    """``_decode_pairs`` for cluster draws, which decode many indices over
    few sizes: up to ``_PAIR_TABLE_MAX`` pairs, a size's
    ``np.triu_indices`` table is built once, cached for the process and
    indexed; larger sizes are decoded arithmetically. A one-off decode
    over all N nodes calls ``_decode_pairs`` directly, so no whole-N
    table is kept.
    """
    if s * (s - 1) // 2 > _PAIR_TABLE_MAX:
        return _decode_pairs(k, s)
    table = _pair_tables.get(s)
    if table is None:
        table = np.triu_indices(s, k=1)
        _pair_tables[s] = table
    return table[0][k], table[1][k]


def _pair_request(size: int, q: int | None = None,
                  fraction: float | None = None) -> int:
    """Pairs requested from ``size`` items, before clamping to the
    size*(size-1)/2 available."""
    if q is not None:
        return q
    if fraction is None:
        raise ValueError("one of q or fraction is required")
    return max(1, round(fraction * (size * (size - 1) // 2)))


def _sample_local_pairs(
    size: int,
    rng: np.random.Generator,
    q: int | None = None,
    fraction: float | None = None,
):
    """Uniform random subset of pairs over ``size`` items, as local index
    arrays ``(a, b)`` with ``a < b``. Requests beyond the number of available
    pairs are clamped with a warning.

    The subset is one ``rng.choice(..., replace=False, shuffle=False)``
    draw of pair indices: numpy's Floyd draw, or, for a request of more
    than a twentieth of over 10,000 pairs, a partial shuffle of the index
    range's tail. Floyd's draw costs time in the pairs drawn, not in the
    size*(size-1)/2 available. The pairs come in no particular order.
    """
    if size < 2:
        raise ValueError("cluster must have at least 2 nodes")
    total = size * (size - 1) // 2
    q = _pair_request(size, q, fraction)
    if q > total:
        warnings.warn(f"requested q={q} clamped to {total} available pairs",
                      stacklevel=2)
        q = total
    k = rng.choice(total, q, replace=False, shuffle=False)
    return _pair_from_index(k, size)


def assign_weights(delta: np.ndarray, scheme: str = "unity",
                   eps_w: float = 1e-3,
                   clamp: bool = True) -> np.ndarray:
    """Weights for measured dissimilarities.

    unity: w = 1; sammon: w = 1/delta clamped to [eps_w, 1]. Invalid
    measurements (delta <= 0, e.g. negative noisy ranges, or missing values)
    get weight 0 under every scheme.
    ``clamp=False`` leaves sammon weights unbounded; the plain-gradient
    baseline uses this since its characteristic divergence stems from
    unbounded inverse-distance weights.
    """
    delta = np.asarray(delta, dtype=np.float64)
    valid = np.isfinite(delta) & (delta > 0)
    if scheme == "unity":
        w = np.where(valid, 1.0, 0.0)
    elif scheme == "sammon":
        w = np.zeros_like(delta)
        np.divide(1.0, delta, out=w, where=valid)
        if clamp:
            w = np.clip(w, eps_w, 1.0, out=w)
        w[~valid] = 0.0
    else:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    return w
