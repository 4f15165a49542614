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


def _cluster_sizes(node_count: int, p: int) -> list:
    """Sizes of a slot's clusters over ``node_count`` nodes: p each, then a
    remainder of size >= 2 (a remainder of one node idles for the slot)."""
    if p < 2:
        raise ValueError(f"cluster size p must be >= 2, got {p}")
    if p > node_count:
        raise ValueError(f"cluster size p={p} exceeds node count {node_count}")
    full, rem = divmod(node_count, p)
    return [p] * full + [rem] * (rem >= 2)


def _shuffled_nodes(node_count: int, rng: np.random.Generator) -> np.ndarray:
    """The permutation ``rng.permutation(node_count)`` draws (a shuffle makes
    the same draws whatever the dtype), as int32 below 2**31 nodes at half
    its memory. A slot's clusters are consecutive slices of it."""
    small = node_count <= np.iinfo(np.int32).max
    perm = np.arange(node_count, dtype=np.int32 if small else np.int64)
    rng.shuffle(perm)
    return perm


def partition_nodes(node_count: int, p: int,
                    rng: np.random.Generator) -> list:
    """Partition nodes into random disjoint clusters of size p, returned as
    a list of node-id arrays: views of the shuffled permutation that the
    slot kernel of ``run_stochastic`` cuts into the same clusters.

    A remainder of size >= 2 forms a final smaller cluster; a remainder of
    one node idles for the slot.
    """
    count = len(_cluster_sizes(node_count, p))
    perm = _shuffled_nodes(node_count, rng)
    return [perm[k * p:(k + 1) * p] for k in range(count)]


def _decode_pairs(k: np.ndarray, s: int | np.ndarray):
    """Decode linear pair indices into (a, b), a < b, over s items, by
    arithmetic, so only the requested pairs are materialized. ``s`` is one
    size, or one size per index.

    Pairs are enumerated row-major, in ``np.triu_indices(s, 1)`` order:
    (0,1), (0,2), ..., (0,s-1), (1,2), ...
    """
    # row a satisfies T(a) <= k < T(a+1) with T(a) = a*s - a*(a+1)/2
    # = a*(c-a)/2, c = 2s - 1, so a is the floor of c/2 - sqrt(c^2/4 - 2k)
    c = 2 * s - 1
    a = (c / 2 - np.sqrt(c * c / 4 - 2.0 * k)).astype(np.int64)
    b = k - a * (c - a) // 2 + a + 1
    if ((b <= a) | (b >= s)).any():
        # rounding put an index on a cell boundary one row off (s > 10^8)
        a -= (b <= a).astype(np.int64) - (b >= s)
        b = k - a * (c - a) // 2 + a + 1
    return a, b


def _pair_count(size: int, q: int | None = None,
                fraction: float | None = None) -> int:
    """Pairs drawn from ``size`` items: ``q``, or ``fraction`` of the
    size*(size-1)/2 available (at least one), clamped to the available
    pairs with a warning."""
    total = size * (size - 1) // 2
    if q is None:
        if fraction is None:
            raise ValueError("one of q or fraction is required")
        q = max(1, round(fraction * total))
    if q > total:
        warnings.warn(f"requested q={q} clamped to {total} available pairs",
                      stacklevel=3)
        q = total
    return q


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
