"""Stress evaluation and the four coordinate update rules.

All updates share one structure: per connected component of the measurement
graph, solve a Laplacian system against the majorization matrix of the
current configuration. ``_b_times_x`` forms B^eps(X)X once per batch, in
batch order; the batch and incremental rules group the batch with
``graph_linalg.group_components`` and solve all its components against
their rows of that in one pass (``graph_linalg._RoutedStack``). The
incremental rule blends that solution with the previous coordinates through
the step size ``mu``, over all grouped rows at once; each component's
center is preserved exactly. Every stress, B(X)X and gradient takes its
edges by one rule: ``_column_diffs`` draws x_m - x_n a column at a time, in
batch order, and ``_add_squares`` adds the squared columns in column order,
so no (E, dim) difference array is formed. ``_squared_lengths_from`` takes
one node's lengths to every node by the same ``_add_squares``.

A batch-majorization run iterates on one fixed batch, so it builds a
``_BatchPlan`` once: the batch grouped, routed and factored, and three work
vectors of one value per measurement. Each iterate takes the new
embedding's stress from the same edge lengths that give the next iterate's
B(X). Stress counts positive-weight measurements only: a zero-weight row
may carry any delta.
"""

from __future__ import annotations

import numpy as np

from .graph_linalg import group_components, _RoutedStack
from .observations import ObservationBatch, StepConfig, clamp_weights, \
    _validate_batch_indices

__all__ = [
    "stress",
    "smacof_iterate",
    "stochastic_step",
    "spe_step",
    "sgd_step",
    "averaged_step",
    "closed_form_b_average",
    "upsilon",
]


def stress(X: np.ndarray, batch: ObservationBatch) -> float:
    """Weighted stress: sum of w * (delta - ||x_m - x_n||)^2 over the
    positive-weight measurements. Ids outside X's rows raise ValueError."""
    _validate_batch_indices(batch, X.shape[0])
    return _stress(X, batch)


def _stress(X: np.ndarray, batch: ObservationBatch) -> float:
    """``stress`` without the id check, for batches the engine checked."""
    d = np.sqrt(_squared_lengths(X, batch.m, batch.n))
    return _misfit(d, batch._live_delta(), batch.weight, out=d)


def _misfit(d, delta, w, out) -> float:
    """Stress from the edge lengths ``d`` (batch order): the sum of
    w * (delta - d)^2, its terms formed in ``out`` (which may be ``d``)."""
    np.subtract(delta, d, out=out)
    out *= out
    out *= w
    return float(np.sum(out))


def _column_diffs(X, m, n, s=None, t=None):
    """Yield x_m - x_n for each column of X in turn, in batch order, in the
    work vector ``s`` (``t`` takes the x_n gather), so a caller uses each
    column up before it draws the next. Ids must be checked already: the
    gathers clip instead of raising, and so need no buffer."""
    if s is None:
        s, t = np.empty(len(m)), np.empty(len(m))
    for col in range(X.shape[1]):
        x = np.ascontiguousarray(X[:, col], dtype=np.float64)
        x.take(m, out=s, mode="clip")
        x.take(n, out=t, mode="clip")
        s -= t
        yield s


def _add_squares(diffs, out) -> np.ndarray:
    """The module's one edge-length rule: the squares of the difference
    columns ``diffs`` yields, added into ``out`` in column order."""
    out.fill(0.0)
    for d in diffs:
        d *= d
        out += d
    return out


def _squared_lengths(X, m, n, out=None, s=None, t=None) -> np.ndarray:
    """||x_m - x_n||^2 per measurement, in ``out``: ``_add_squares`` over
    the columns of ``_column_diffs``."""
    out = np.empty(len(m)) if out is None else out
    return _add_squares(_column_diffs(X, m, n, s, t), out)


def _diffs_from(cols, i, s):
    """Yield x_j - x_i for every row j, one coordinate column of ``cols``
    (contiguous float64 rows, one per dimension) at a time, in the work
    vector ``s``."""
    for x in cols:
        np.subtract(x, x[i], out=s)
        yield s


def _squared_lengths_from(cols, i, out, s) -> np.ndarray:
    """||x_j - x_i||^2 for every row j, in ``out``: ``_add_squares`` over
    the columns of ``_diffs_from``."""
    return _add_squares(_diffs_from(cols, i, s), out)


def _regularized_coeffs(X, m, n, w, delta, eps_x) -> np.ndarray:
    """Edge coefficients w*delta / sqrt(||x_m - x_n||^2 + eps_x).

    At eps_x == 0 coincident endpoints get coefficient 0 (the classical
    majorization matrix guard).
    """
    d2 = _squared_lengths(X, m, n)
    if eps_x > 0:
        return w * delta / np.sqrt(d2 + eps_x)
    return np.divide(w * delta, np.sqrt(d2), out=np.zeros_like(d2),
                     where=d2 > 0)


def _b_times_x(X, m, n, coef, s=None, t=None) -> np.ndarray:
    """B(X) X from B(X)'s edge coefficients ``coef``, in batch order, over
    the columns of ``_column_diffs`` (in ``s`` and ``t`` if given). Row i
    sums +-coef * (x_m - x_n) over its measurements in batch order."""
    out = np.empty(X.shape)
    for col, d in enumerate(_column_diffs(X, m, n, s, t)):
        d *= coef
        sums = np.bincount(m, weights=d, minlength=len(X))
        sums -= np.bincount(n, weights=d, minlength=len(X))
        out[:, col] = sums
    return out


def smacof_iterate(X: np.ndarray, batch: ObservationBatch,
                   plan: _BatchPlan | None = None) -> np.ndarray:
    """One majorization iterate per component: X' = pinv(L) B(X) X.

    Components are recentered at the origin (the minimum-norm solution);
    nodes without usable measurements are left unchanged. Stress never
    increases. All components are solved in one pass: one gather of their
    rows of B(X)X, one dense assembly with one LU call per size, one
    scatter. A run that iterates on one batch passes the ``_BatchPlan`` it
    built for that batch once, and gets the same iterate without grouping,
    routing or factoring the batch again.
    """
    if plan is not None:
        return plan.iterate(X)
    _validate_batch_indices(batch, X.shape[0])
    live = batch.nonzero()
    Xn = np.array(X, dtype=np.float64, copy=True)
    bx = _b_times_x(Xn, live.m, live.n, _regularized_coeffs(
        Xn, live.m, live.n, live.weight, live.delta, 0.0))
    groups = group_components(live, X.shape[0])
    Xn[groups.nodes] = _RoutedStack(groups).solve_in_place(
        np.take(bx, groups.nodes, axis=0))
    return Xn


def _all_finite(X: np.ndarray) -> bool:
    """True when every entry is finite (min and max propagate NaN and inf,
    so no N x P temporary is needed)."""
    return X.size == 0 or bool(np.isfinite(X.min()) and np.isfinite(X.max()))


class _BatchPlan:
    """A fixed batch prepared once for a run of majorization iterates.

    Grouping, routes and factorizations depend only on the batch, so the
    plan groups it once and keeps its ``_RoutedStack``, factored per
    component.
    It also owns three work vectors of one value per measurement, in batch
    order: the coefficients w * delta / d of B(X), and the two that
    ``_column_diffs`` gathers columns into.

    ``iterate`` is ``smacof_iterate`` with all that reused. The stress of X
    and the coefficients of B(X) come from the same edge lengths, so when
    ``iterate`` returns a finite X' it has already measured X': a run takes
    ``stress_at(X')`` at no cost and the next iterate starts from the kept
    coefficients. Edge lengths come from ``_squared_lengths`` and B(X)X from
    ``_b_times_x``, as in ``stress`` and ``smacof_iterate``, so stresses
    equal the plain ones bit for bit at every dim, and so do iterates except
    on dense components, whose Cholesky solve differs from LU at round-off.
    X' must not be changed in place while the plan is in use.
    """

    def __init__(self, batch: ObservationBatch, node_count: int):
        _validate_batch_indices(batch, node_count)
        self.batch = batch
        self.delta = batch._live_delta()
        self.routes = _RoutedStack(
            group_components(batch.nonzero(), node_count)).keep_factors()
        e = len(batch)
        self.coef, self.s, self.t = np.empty(e), np.empty(e), np.empty(e)
        self._at, self._stress = None, 0.0

    def stress_at(self, X: np.ndarray) -> float:
        """Stress of X, as ``stress`` gives it."""
        if X is not self._at:
            self._measure(X)
        return self._stress

    def _measure(self, X: np.ndarray) -> None:
        """Edge lengths of X: its stress, and B(X)'s coefficients kept in
        ``coef``."""
        b, coef = self.batch, self.coef
        np.sqrt(_squared_lengths(X, b.m, b.n, coef, self.s, self.t), out=coef)
        self._stress = _misfit(coef, self.delta, b.weight, out=self.s)
        # coincident endpoints keep coefficient 0, as in _regularized_coeffs;
        # zero-weight rows get 0 * 0 / d
        np.multiply(b.weight, self.delta, out=self.s)
        np.divide(self.s, coef, out=coef, where=coef > 0)
        self._at = X

    def iterate(self, X: np.ndarray) -> np.ndarray:
        if X is not self._at:
            self._measure(X)
        b = self.batch
        bx = _b_times_x(X, b.m, b.n, self.coef, self.s, self.t)
        Xn = np.array(X, dtype=np.float64, copy=True)
        nodes = self.routes.groups.nodes
        Xn[nodes] = self.routes.solve_in_place(np.take(bx, nodes, axis=0))
        if _all_finite(Xn):
            self._measure(Xn)
        return Xn


def stochastic_step(X: np.ndarray, batch: ObservationBatch,
                    cfg: StepConfig) -> np.ndarray:
    """One incremental update of the embedding from a measurement batch.

    Per connected component C of the positive-weight graph:

        X_C' = (I - mu * J_C) X_C + mu * pinv(L_C) B^eps(X_C) X_C

    with J_C the centering projector on C, so the coordinate center of each
    component is preserved. Nodes outside every component are unchanged;
    clusters whose measurements all have zero weight are skipped.

    Outside batches enter the update here: nonzero weights below
    ``cfg.eps_w`` are clamped up, with a warning. Beyond the returned copy
    of X, the step costs time linear in the batch, not in N. Ids outside
    X's rows raise ``ValueError``.
    """
    _validate_batch_indices(batch, X.shape[0])
    Xn = np.array(X, dtype=np.float64, copy=True)
    nodes, local = _on_touched_rows(batch, cfg.eps_w)
    _damped_update(Xn, local, cfg, nodes)
    return Xn


def _on_touched_rows(batch: ObservationBatch, eps_w: float | None = None):
    """``(nodes, local)``: the batch's sorted distinct ids, and the batch
    on them, nonzero weights below ``eps_w`` clamped up unless it is None.
    np.unique keeps id order, so an update of ``local`` on ``nodes``
    equals the one over all N rows bit for bit."""
    nodes, ids = np.unique(np.r_[batch.m, batch.n], return_inverse=True)
    weight = batch.weight if eps_w is None else \
        clamp_weights(batch.weight, eps_w)
    return nodes, ObservationBatch(*np.split(ids, 2), batch.delta, weight)


def _damped_update(Xn: np.ndarray, batch: ObservationBatch, cfg: StepConfig,
                   nodes: np.ndarray) -> bool:
    """Apply the incremental update in place to the rows ``nodes`` of
    ``Xn``, which batch ids index, at a cost linear in the batch, and
    report whether the rows it wrote are finite.

    Weights are used as given: 0 (ignored; a timed-out localization star
    rides at 0) or at least ``cfg.eps_w``; zero weights are dropped here,
    once. ``nodes`` are distinct rows. B^eps(X)X is formed over them before
    any is written, and components own disjoint rows, so every row is
    updated from its current value.

    After grouping, the chunk is one pass: the grouped rows of B^eps(X)X
    are solved in place (``_RoutedStack.solve_in_place``), and the blend
    takes every component's center at once (``ComponentGroups._means``)
    and is written in the per-stack order of operations, so the result is
    the same bit for bit. Temporaries are released as soon as used.
    """
    mu = cfg.mu
    if mu == 0.0:
        return True
    live = batch.nonzero()
    X = np.take(Xn, nodes, axis=0)
    bx = _b_times_x(X, live.m, live.n, _regularized_coeffs(
        X, live.m, live.n, live.weight, live.delta, cfg.eps_x))
    del X
    groups = group_components(live, len(nodes))
    del live
    if not len(groups.sizes):
        return True
    y = np.take(bx, groups.nodes, axis=0)
    del bx
    _RoutedStack(groups).solve_in_place(y)
    rows = nodes[groups.nodes]
    Xc = np.take(Xn, rows, axis=0)
    # (1 - mu) Xc + mu center + mu y, in that order, written over Xc
    center = groups._means(Xc)
    Xc *= 1.0 - mu
    center *= mu
    Xc += groups._spread(center)
    y *= mu
    Xc += y
    Xn[rows] = Xc
    return _all_finite(Xc)


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


def sgd_step(X: np.ndarray, batch: ObservationBatch,
             mu: float) -> np.ndarray:
    """Plain stochastic-gradient step X + mu * (B(X) X - L X).

    Comparison baseline only; divergence is expected behavior under noise,
    and the output may be non-finite. Ids outside X's rows raise
    ``ValueError``.
    """
    _validate_batch_indices(batch, X.shape[0])
    return _sgd_step(X, batch, mu)


def _sgd_step(X: np.ndarray, batch: ObservationBatch,
              mu: float) -> np.ndarray:
    """``sgd_step`` on a batch whose ids are checked already."""
    live = batch.nonzero()
    coef = _regularized_coeffs(X, live.m, live.n, live.weight, live.delta,
                               eps_x=0.0)
    # rows of (B - L) X: sum over edges of (w*delta/d - w) * (x_m - x_n)
    return X + mu * _b_times_x(X, live.m, live.n, coef - live.weight)


def upsilon(N: int, p: int) -> float:
    """Effective averaging rate N(p-1) / (p(N-1)) of the size-p cluster scheme."""
    return N * (p - 1) / (p * (N - 1))


def _check_cluster_size(node_count: int, p: int) -> None:
    """The size-p cluster scheme of the expected update needs
    2 <= p <= N and p dividing N; anything else raises ValueError."""
    if not 2 <= p <= node_count:
        raise ValueError(f"cluster size p={p} out of range for N={node_count}")
    if node_count % p != 0:
        raise ValueError(f"p={p} must divide N={node_count}")


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
    _check_cluster_size(N, p)
    expected_deltas = np.asarray(expected_deltas, dtype=np.float64)
    if expected_deltas.shape != (N, N):
        raise ValueError("expected_deltas must be an N x N matrix")

    d2 = _squared_lengths(X, *np.divmod(np.arange(N * N), N)).reshape(N, N)
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
