"""Stress evaluation and the four coordinate update rules.

All updates share one structure: per connected component of the measurement
graph, solve a Laplacian system against the majorization matrix of the
current configuration. The batch and incremental rules both group the batch
with ``graph_linalg.group_components`` and solve each stack of equal-size
components in one ``ComponentStack.solve`` call. The incremental rule blends
that solution with the previous coordinates through the step size ``mu``;
the per-component coordinate center is preserved exactly.
"""

from __future__ import annotations

import numpy as np

from .graph_linalg import (ComponentStack, _by_smallest_member, _sparse,
                           group_components)
from .observations import ObservationBatch, StepConfig

__all__ = [
    "stress",
    "normalized_stress",
    "b_epsilon_matrix",
    "smacof_iterate",
    "stochastic_step",
    "spe_step",
    "sgd_step",
    "averaged_step",
    "closed_form_b_average",
    "upsilon",
]


def stress(X: np.ndarray, batch: ObservationBatch) -> float:
    """Weighted stress: sum of w * (delta - ||x_m - x_n||)^2."""
    if len(batch) == 0:
        return 0.0
    d = np.linalg.norm(X[batch.m] - X[batch.n], axis=1)
    return float(np.sum(batch.weight * (batch.delta - d) ** 2))


def normalized_stress(X: np.ndarray, batch: ObservationBatch) -> float:
    """Stress divided by sum of w * delta^2 (0 when the batch carries nothing)."""
    denom = batch.total_weighted_delta_sq()
    if denom == 0.0:
        return 0.0
    return stress(X, batch) / denom


def _regularized_coeffs(X, m, n, w, delta, eps_x):
    """Edge coefficients w*delta / sqrt(||x_m - x_n||^2 + eps_x).

    At eps_x == 0 coincident endpoints get coefficient 0 (the classical
    majorization matrix guard).
    """
    diff = X[m] - X[n]
    d2 = np.einsum("ij,ij->i", diff, diff)
    if eps_x > 0:
        return w * delta / np.sqrt(d2 + eps_x), diff
    coef = np.zeros_like(d2)
    pos = d2 > 0
    coef[pos] = (w[pos] * delta[pos]) / np.sqrt(d2[pos])
    return coef, diff


def _b_times_x(Xc, stack: ComponentStack, eps_x):
    """B^eps(X_C) X_C for every component of a stack; ``Xc`` is the stack's
    (count, size, dim) block of coordinates."""
    flat = Xc.reshape(-1, Xc.shape[2])
    coef, diff = _regularized_coeffs(flat, stack.a, stack.b, stack.weights,
                                     stack.delta, eps_x)
    contrib = coef[:, None] * diff
    out = np.empty_like(flat)
    for col in range(flat.shape[1]):
        out[:, col] = (
            np.bincount(stack.a, weights=contrib[:, col], minlength=len(flat))
            - np.bincount(stack.b, weights=contrib[:, col], minlength=len(flat)))
    return out.reshape(Xc.shape)


def b_epsilon_matrix(X: np.ndarray, batch: ObservationBatch, eps_x: float):
    """Regularized majorization matrix per connected component.

    Returns a list of (node_ids, B) pairs, one per component with >= 2 nodes,
    where B is a sparse CSR matrix over local indices with exact zero row
    sums (diagonal entries negate the off-diagonal row sums). B is the
    Laplacian of the edge coefficients, so a repeated measurement counts
    once per measurement.
    """
    out = []
    for c in _by_smallest_member(group_components(batch, X.shape[0])):
        nodes = c.nodes[0]
        coef, _ = _regularized_coeffs(X[nodes], c.a, c.b, c.weights, c.delta,
                                      eps_x)
        out.append((nodes, _sparse(c, coef)[0]))
    return out


def smacof_iterate(X: np.ndarray, batch: ObservationBatch) -> np.ndarray:
    """One majorization iterate per component: X' = pinv(L) B(X) X.

    Components are recentered at the origin (the minimum-norm solution);
    nodes without usable measurements are left unchanged. Stress never
    increases.
    """
    Xn = np.array(X, dtype=np.float64, copy=True)
    for stack in group_components(batch, X.shape[0]):
        rhs = _b_times_x(Xn[stack.nodes], stack, eps_x=0.0)
        Xn[stack.nodes] = stack.solve(rhs)
    return Xn


def stochastic_step(X: np.ndarray, batch: ObservationBatch,
                    cfg: StepConfig) -> np.ndarray:
    """One incremental update of the embedding from a measurement batch.

    Per connected component C of the positive-weight graph:

        X_C' = (I - mu * J_C) X_C + mu * pinv(L_C) B^eps(X_C) X_C

    with J_C the centering projector on C, so the coordinate center of each
    component is preserved. Nodes outside every component are unchanged;
    clusters whose measurements all have zero weight are skipped.
    """
    Xn = np.array(X, dtype=np.float64, copy=True)
    _damped_update(Xn, batch, cfg)
    return Xn


def _damped_update(Xn: np.ndarray, batch: ObservationBatch, cfg: StepConfig,
                   nodes: np.ndarray | None = None) -> None:
    """Apply the incremental update in place to the rows ``batch`` touches.

    Batch ids index ``nodes`` (rows of ``Xn``) when given and rows of ``Xn``
    otherwise. Each component reads its rows before writing them, and
    components are disjoint, so every row is updated from its current value.
    """
    mu = cfg.mu
    if mu == 0.0:
        return
    count = Xn.shape[0] if nodes is None else len(nodes)
    for stack in group_components(batch, count, cfg.eps_w):
        rows = stack.nodes if nodes is None else nodes[stack.nodes]
        Xc = Xn[rows]
        y = stack.solve(_b_times_x(Xc, stack, cfg.eps_x))
        Xn[rows] = ((1.0 - mu) * Xc
                    + mu * Xc.mean(axis=1, keepdims=True) + mu * y)


def spe_step(xi: np.ndarray, xj: np.ndarray, delta: float, mu: float):
    """Closed-form two-node update (the p = 2 special case).

    Each endpoint moves half of mu times the proportional misfit along the
    connecting segment, exactly matching the general component update on a
    two-node cluster:

        xi' = xi + (mu/2) * (delta/d - 1) * (xi - xj)

    and symmetrically for xj. Coincident points are rejected; callers must
    take the regularized path instead.
    """
    xi = np.asarray(xi, dtype=np.float64)
    xj = np.asarray(xj, dtype=np.float64)
    diff = xi - xj
    d = float(np.linalg.norm(diff))
    if d == 0.0:
        raise ValueError("coincident points: use the eps_x-regularized update")
    shift = 0.5 * mu * (delta / d - 1.0) * diff
    return xi + shift, xj - shift


def sgd_step(X: np.ndarray, batch: ObservationBatch, mu: float):
    """Plain stochastic-gradient step X + mu * (B(X) X - L X).

    Comparison baseline only; divergence is expected behavior under noise.
    Returns (X', diverged) where ``diverged`` flags non-finite output.
    """
    live = batch.nonzero()
    Xn = np.array(X, dtype=np.float64, copy=True)
    if len(live) == 0:
        return Xn, False
    coef, diff = _regularized_coeffs(X, live.m, live.n, live.weight,
                                     live.delta, eps_x=0.0)
    # rows of (B - L) X: sum over edges of (w*delta/d - w) * (x_m - x_n)
    contrib = (coef - live.weight)[:, None] * diff
    np.add.at(Xn, live.m, mu * contrib)
    np.add.at(Xn, live.n, -mu * contrib)
    diverged = not bool(np.all(np.isfinite(Xn)))
    return Xn, diverged


def upsilon(N: int, p: int) -> float:
    """Effective averaging rate N(p-1) / (p(N-1)) of the size-p cluster scheme."""
    return N * (p - 1) / (p * (N - 1))


def closed_form_b_average(
    X: np.ndarray,
    expected_deltas: np.ndarray,
    eps_x: float,
    p: int,
) -> np.ndarray:
    """Expected update matrix under the i.i.d.-weight, size-p cluster scheme.

    Off-diagonal entries are -(upsilon/N) * E[delta_mn] / sqrt(d_mn^2 + eps_x)
    and the diagonal negates the off-diagonal row sums. Requires p to divide
    the node count. The weights themselves cancel and do not appear.
    """
    X = np.asarray(X, dtype=np.float64)
    N = X.shape[0]
    if not 2 <= p <= N:
        raise ValueError(f"cluster size p={p} out of range for N={N}")
    if N % p != 0:
        raise ValueError(f"p={p} must divide N={N}")
    expected_deltas = np.asarray(expected_deltas, dtype=np.float64)
    if expected_deltas.shape != (N, N):
        raise ValueError("expected_deltas must be an N x N matrix")

    d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, 1.0)  # diagonal never used
    norm = np.sqrt(d2 + eps_x)
    scaled = expected_deltas / norm
    np.fill_diagonal(scaled, 0.0)

    B = -(upsilon(N, p) / N) * scaled
    np.fill_diagonal(B, -B.sum(axis=1))
    return B


def averaged_step(X: np.ndarray, b_average: np.ndarray, mu: float,
                  ups: float) -> np.ndarray:
    """One step of the deterministic companion recursion.

        X' = (1 - mu * upsilon) X + mu * B_avg X

    ``b_average`` is the expected update matrix evaluated at X (closed form
    or an empirical estimate). X is assumed origin-centered; the iteration
    preserves that.
    """
    return (1.0 - mu * ups) * X + mu * (b_average @ X)
