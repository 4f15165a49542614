"""Core observation containers shared across the engine.

An observation is a noisy, weighted dissimilarity measurement between two
nodes at a given time slot. Batches are stored as flat numpy arrays so that
the per-slot update path never loops over individual measurements in Python.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["ObservationBatch", "StepConfig", "clamp_weights"]


@dataclass
class ObservationBatch:
    """Weighted dissimilarity measurements for one time slot.

    ``m``, ``n`` are 0-based node indices, ``delta`` the measured
    dissimilarities, ``weight`` the per-measurement weights in [0, 1].
    Zero-weight entries carry no information and are ignored by every
    consumer. The four arrays must have equal length (``ValueError``).
    """

    m: np.ndarray
    n: np.ndarray
    delta: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.int64)
        self.n = np.asarray(self.n, dtype=np.int64)
        self.delta = np.asarray(self.delta, dtype=np.float64)
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if not (self.m.shape[:1] == self.n.shape[:1] == self.delta.shape[:1]
                == self.weight.shape[:1]):
            raise ValueError("observation arrays must have equal length")

    def __len__(self) -> int:
        return self.m.shape[0]

    @classmethod
    def from_entries(cls, entries) -> "ObservationBatch":
        """Build a batch from an iterable of (m, n, delta[, weight]) tuples."""
        rows = [tuple(e) for e in entries]
        if not rows:
            return cls.empty()
        m = np.array([r[0] for r in rows])
        n = np.array([r[1] for r in rows])
        delta = np.array([r[2] for r in rows], dtype=np.float64)
        weight = np.array(
            [r[3] if len(r) > 3 else 1.0 for r in rows], dtype=np.float64
        )
        return cls(m, n, delta, weight)

    @classmethod
    def empty(cls) -> "ObservationBatch":
        z = np.zeros(0)
        return cls(z.astype(np.int64), z.astype(np.int64), z, z)

    def validate(self, node_count: int | None = None) -> "ObservationBatch":
        """Check the batch invariants, raising ``ValueError`` on violation.

        Intended for data arriving from outside the engine; internally
        generated batches are correct by construction. A pair measured more
        than once is valid: each measurement counts on its own.
        """
        if np.any(self.m == self.n):
            raise ValueError("self-loop observation (m == n)")
        if node_count is not None:
            _validate_batch_indices(self, node_count)
        if not np.all((self.weight >= 0) & (self.weight <= 1)):
            raise ValueError("weights must lie in [0, 1]")
        live = self.delta[self.weight > 0]
        if not np.all(np.isfinite(live) & (live > 0)):
            raise ValueError(
                "delta must be finite and positive wherever weight > 0")
        return self

    def nonzero(self) -> "ObservationBatch":
        """Return the sub-batch of strictly positive-weight observations."""
        keep = self.weight > 0
        if keep.all():
            return self
        return ObservationBatch(
            self.m[keep], self.n[keep], self.delta[keep], self.weight[keep])

    def total_weighted_delta_sq(self) -> float:
        """Sum of w * delta^2 over the positive-weight measurements, the
        normalization constant for stress."""
        return float(np.sum(self.weight * self._live_delta()**2))

    def _live_delta(self) -> np.ndarray:
        """``delta`` with the rows that carry no information (weight not
        positive, whose delta may be anything, NaN included) set to 0.

        Such a row then adds an exact 0 to any sum of w * f(delta, d) with
        finite d, as it does when its delta is finite, so the sums keep
        their full length and order and stay bit for bit the same. Returns
        ``delta`` itself when every row has positive weight."""
        live = self.weight > 0
        return self.delta if live.all() else np.where(live, self.delta, 0.0)


def _validate_batch_indices(batch: ObservationBatch, node_count: int):
    if len(batch) == 0:
        return
    if batch.m.min() < 0 or batch.n.min() < 0 \
            or batch.m.max() >= node_count or batch.n.max() >= node_count:
        raise ValueError("node index out of range")
    if np.any(batch.weight < 0):
        raise ValueError("negative weight")


@dataclass
class StepConfig:
    """Parameters of one incremental update.

    ``mu`` is the step size / forgetting factor, ``eps_x`` the squared-distance
    regularizer that keeps the update matrix bounded near coincident points,
    and ``eps_w`` the smallest admissible nonzero weight, which keeps the
    Laplacian conditioning guarantee: ``stochastic_step``, where outside
    batches enter, clamps smaller ones up; the engine's own batches never
    carry them.
    """

    mu: float = 0.1
    eps_x: float = 1e-8
    eps_w: float = 1e-3

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")
        if self.eps_x < 0:
            raise ValueError(f"eps_x must be nonnegative, got {self.eps_x}")
        if not 0.0 < self.eps_w <= 1.0:
            raise ValueError(f"eps_w must lie in (0, 1], got {self.eps_w}")


def clamp_weights(weight: np.ndarray, eps_w: float) -> np.ndarray:
    """Clamp nonzero weights below ``eps_w`` up to ``eps_w``, with a warning.

    Keeps every solved Laplacian system inside the conditioning bound tied to
    the minimum admissible weight. Zero weights stay zero.
    """
    small = (weight > 0) & (weight < eps_w)
    if not small.any():
        return weight
    warnings.warn(
        f"{int(small.sum())} weight(s) below eps_w={eps_w} clamped up",
        stacklevel=2,
    )
    out = weight.copy()
    out[small] = eps_w
    return out
