"""Weighted graph Laplacians and the minimum-norm solves behind every update.

A measurement batch induces a weighted graph; each connected component gets
its own Laplacian. All coordinate updates reduce to solving ``L y = rhs``
where ``rhs`` has zero column sums, and the minimum-norm (pseudo-inverse)
solution is the one with zero column sums as well.

Every caller goes through one layer, and it sees only the graph (node ids,
edges, weights): ``stress_core`` forms B(X)X once per batch and passes each
stack its rows. ``group_components`` groups a batch's positive-weight edges
by connected component into one ``ComponentStack`` per component size. The
data picks one of three routes per component: a complete component with one
measurement per pair, all of one weight ``w``, is solved in closed form,
``y = rhs / (w * size)`` recentered, with no assembly; the others take a
dense solve up to ``DENSE_SOLVER_MAX`` nodes, and deflated conjugate
gradients above. ``_RoutedStack`` is the one dispatch: it splits a stack
into its closed-form components and one sub-stack of the rest, which alone
reaches the dense or CG route. ``ComponentStack.solve`` is its one-shot
use; batch majorization, whose batch is fixed, has it keep its factors. A
single component is a stack of one: ``build_laplacian`` returns one per
connected component and ``algebraic_connectivity`` takes one.
``_laplacian_entries`` alone decides how measurements become Laplacian
entries (a pair measured twice counts twice); the dense kernel and
``_sparse``, the CSR form behind CG and ``algebraic_connectivity``, read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.csgraph import connected_components as _cs_components
from scipy.sparse.linalg import cg as _cg

from .observations import ObservationBatch

__all__ = [
    "ComponentStack",
    "group_components",
    "build_laplacian",
    "algebraic_connectivity",
    "DENSE_SOLVER_MAX",
]

# components at most this large use the dense factorization path; larger ones
# fall back to deflated conjugate gradients on the sparse Laplacian
DENSE_SOLVER_MAX = 512
_CG_TOL = 1e-12   # relative residual that CG iterates to


def _component_labels(m, n, node_count):
    """Connected-component label per node under positive-weight adjacency.

    Labels are consecutive integers ordered by each component's smallest
    member. Uses min-label propagation with pointer jumping (linear work per
    pass, logarithmic passes); falls back to the csgraph routine if an
    adversarial edge pattern stalls convergence.
    """
    if len(m) == 0:
        return np.arange(node_count), node_count
    labels = np.arange(node_count)
    max_passes = 4 + 2 * int(np.ceil(np.log2(node_count + 1)))
    for _ in range(max_passes):
        before = labels.copy()
        low = np.minimum(labels[m], labels[n])
        np.minimum.at(labels, m, low)
        np.minimum.at(labels, n, low)
        labels = labels[labels]
        labels = labels[labels]
        if not labels.any():  # one component swallowing node 0: connected
            return labels, 1
        if np.array_equal(labels, before):
            break
    else:
        ones = np.ones(len(m))
        adj = sp.csr_matrix(
            (np.concatenate([ones, ones]),
             (np.concatenate([m, n]), np.concatenate([n, m]))),
            shape=(node_count, node_count),
        )
        # scipy numbers components in order of their smallest member
        _, labels = _cs_components(adj, directed=False)
    uniq, inverse = np.unique(labels, return_inverse=True)
    return inverse, len(uniq)


def _validate_batch_indices(batch: ObservationBatch, node_count: int):
    if len(batch) == 0:
        return
    if batch.m.min() < 0 or batch.n.min() < 0 \
            or batch.m.max() >= node_count or batch.n.max() >= node_count:
        raise ValueError("node index out of range")
    if np.any(batch.weight < 0):
        raise ValueError("negative weight")


@dataclass
class ComponentStack:
    """Connected components of one size, stacked for a batched solve.

    Row ``k`` of ``nodes`` holds component k's global node ids in ascending
    order. Edge endpoints ``a`` and ``b`` index the flattened ``nodes``, so
    ``a // size`` is an edge's component and ``a % size`` its local node.
    Edges keep their measured orientation and are grouped by component.
    """

    nodes: np.ndarray    # (count, size) global node ids
    a: np.ndarray
    b: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.shape[1]

    @property
    def count(self) -> int:
        return self.nodes.shape[0]

    @property
    def nnz(self) -> int:
        """Number of measurements (each stores two off-diagonal entries)."""
        return len(self.weights)

    def split(self):
        """Yield each component as a stack of one, in order; a stack that
        holds one component yields itself."""
        if self.count == 1:
            yield self
            return
        p = self.size
        bounds = np.searchsorted(self.a // p,
                                 np.arange(self.count + 1)).tolist()
        for k in range(self.count):
            e = slice(bounds[k], bounds[k + 1])
            yield ComponentStack(self.nodes[k:k + 1], self.a[e] - k * p,
                                 self.b[e] - k * p, self.weights[e])

    def _edge_counts(self) -> np.ndarray:
        """Measurements per component."""
        if self.count == 1:
            return np.array([self.nnz])
        return np.bincount(self.a // self.size, minlength=self.count)

    def _take(self, keep: np.ndarray, per: np.ndarray) -> ComponentStack:
        """The components where ``keep`` holds as a stack of their own, their
        edges renumbered into it; ``per`` is ``_edge_counts()``."""
        idx = np.flatnonzero(keep)
        edges = np.repeat(keep, per)
        shift = np.repeat((idx - np.arange(len(idx))) * self.size, per[idx])
        return ComponentStack(self.nodes[idx], self.a[edges] - shift,
                              self.b[edges] - shift, self.weights[edges])

    def _complete_weights(self) -> np.ndarray | None:
        """Per component, the weight ``w`` when the component is complete
        with one measurement per unordered pair, all of weight ``w``, and 0
        otherwise; None when no component is.

        Exact and linear in the measurements. Only a component with
        ``size * (size - 1) // 2`` measurements can qualify. Each of its
        measurements marks cells (i, j) and (j, i) of a ``size**2``-byte
        bitmap (twice its measurements plus its nodes); all off-diagonal
        cells are marked exactly when no pair is measured twice and none is
        a self-loop. Equal degrees are not enough: a multigraph can be
        regular without being complete.
        """
        g, p = self.nodes.shape
        half = p * (p - 1) // 2
        if p < 2 or self.nnz < half:
            return None
        per = self._edge_counts()
        cand = np.flatnonzero(per == half)
        if len(cand) == 0:
            return None
        sub = self if len(cand) == g else self._take(per == half, per)
        a, b, w = sub.a, sub.b, sub.weights.reshape(-1, half)
        seen = np.zeros((len(w), p * p), dtype=bool)
        # a * p + local b is component k's cell (i, j) at k p^2 + i p + j
        key = a * p
        key += b if g == 1 else b % p
        seen.reshape(-1)[key] = True
        np.multiply(b, p, out=key)
        key += a if g == 1 else a % p
        seen.reshape(-1)[key] = True
        ok = ((np.count_nonzero(seen, axis=1) == 2 * half)
              & (w == w[:, :1]).all(axis=1))
        if not ok.any():
            return None
        out = np.zeros(g)
        out[cand[ok]] = w[ok, 0]
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Min-norm ``y[k]`` with ``L_k y[k] = rhs[k]`` for every component;
        ``rhs`` is (count, size, dim) with zero column sums, and so is the
        result. Each component takes the route its data picks
        (``_RoutedStack``), so its result does not depend on its stack."""
        return _RoutedStack(self).solve(rhs)


class _RoutedStack:
    """The one place that picks each component's route from the data.

    A complete component of one weight ``w`` (``_complete_weights``) has
    ``pinv(L) = (I - 11^T / size) / (w * size)`` and needs no solve. The
    others form ``rest``, one sub-stack, which takes one batched LU solve
    up to ``DENSE_SOLVER_MAX`` nodes and deflated CG per component above.
    After ``keep_factors``, each ``rest`` component keeps what its route
    reuses instead: the Cholesky factor of ``L + shift 11^T``, factored in
    place (None when Cholesky fails, as on a path with a 1e-20 weight: the
    component then takes the LU solve), or its CG system. Kept solves equal
    one-shot ones bit for bit by CG and to round-off by Cholesky.
    """

    def __init__(self, stack: ComponentStack):
        w = stack._complete_weights()
        self.dense = stack.size <= DENSE_SOLVER_MAX
        self.rest, self.kept, self.closed = stack, None, None
        if w is not None:
            closed = w > 0
            self.closed, self.w = np.flatnonzero(closed), w[closed]
            self.open = np.flatnonzero(~closed)
            self.rest = stack._take(~closed, stack._edge_counts()) \
                if len(self.open) else None

    def keep_factors(self) -> _RoutedStack:
        if self.rest is not None:
            self.kept = [(single, _cholesky(single) if self.dense
                          else _cg_system(single))
                         for single in self.rest.split()]
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.closed is None:
            return self._solve_rest(rhs)
        if self.rest is None:
            return _closed_form(rhs, self.w)
        y = np.empty_like(rhs)
        y[self.closed] = _closed_form(rhs[self.closed], self.w)
        y[self.open] = self._solve_rest(rhs[self.open])
        return y

    def _solve_rest(self, rhs: np.ndarray) -> np.ndarray:
        if self.kept is None and self.dense:
            return _dense_min_norm(self.rest, rhs)
        y = np.empty_like(rhs)
        kept = self.kept or [(single, None) for single in self.rest.split()]
        for k, (single, cached) in enumerate(kept):
            if not self.dense:
                y[k] = _solve_cg(single, rhs[k], cached)
            elif cached is None:
                y[k] = _dense_min_norm(single, rhs[k:k + 1])[0]
            else:  # recenter cho_solve's own array; y[k] sums in another order
                yk = cho_solve(cached, rhs[k], check_finite=False)
                yk -= yk.sum(axis=0) / single.size
                y[k] = yk
        return y


def _closed_form(rhs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Min-norm solves for complete components of weights ``w``:
    ``y[k] = rhs[k] / (w[k] * size)``, recentered as the dense route does."""
    p = rhs.shape[1]
    y = rhs / (w * p)[:, None, None]
    y -= y.sum(axis=1, keepdims=True) / p
    return y


def _laplacian_entries(stack: ComponentStack):
    """The one place that decides how a stack's measurements become
    Laplacian entries: each adds its own weight ``w``, ``-w`` at (a, b) and
    (b, a) and ``w`` to both degrees.

    Returns ``(rows, cols, off, degree, shift)``: measurement k adds
    ``off[k]`` at ``(rows[h][k], cols[h][k])`` for h = 0, 1 (flattened rows,
    local columns); ``degree`` is (count, size); adding ``shift[k]`` to every
    entry makes L_k nonsingular without changing it on zero-sum vectors.
    """
    g, p = stack.nodes.shape
    a, b, w = stack.a, stack.b, stack.weights
    degree = (np.bincount(a, weights=w, minlength=g * p)
              + np.bincount(b, weights=w, minlength=g * p)).reshape(g, p)
    i, j = (a, b) if g == 1 else (a % p, b % p)
    shift = np.maximum(degree.sum(axis=1) / p, 1.0) / p
    return (a, b), (j, i), -w, degree, shift


def _sparse(stack: ComponentStack):
    """CSR Laplacian of a stack of one, its degrees and its shift."""
    rows, cols, off, degree, shift = _laplacian_entries(stack)
    diag = np.arange(stack.size)
    L = sp.csr_matrix(
        (np.concatenate([off, off, degree[0]]),
         (np.concatenate([*rows, diag]), np.concatenate([*cols, diag]))),
        shape=(stack.size, stack.size))
    return L, degree[0], float(shift[0])


def group_components(batch: ObservationBatch, node_count: int,
                     singletons: bool = False) -> list:
    """Group a batch's positive-weight edges by connected component.

    Returns one ``ComponentStack`` per component size, ascending; isolated
    nodes form a size-1 stack only with ``singletons``. Inside a stack,
    components are ordered by smallest member, node ids ascend and edges keep
    batch order.
    """
    live = batch.nonzero()
    labels, n_comp = _component_labels(live.m, live.n, node_count)
    if n_comp == 1:  # connected: already in order
        stack = ComponentStack(np.arange(node_count)[None, :], live.m, live.n,
                               live.weight)
        return [stack] if node_count > 1 or singletons else []
    sizes = np.bincount(labels, minlength=n_comp)
    # rank components by (size, label): labels ascend, so a stable sort by
    # size gives that order
    rank = np.empty(n_comp, dtype=np.int64)
    rank[np.argsort(sizes, kind="stable")] = np.arange(n_comp)
    node_rank = rank[labels]
    nodes = np.argsort(node_rank, kind="stable")
    order = np.argsort(node_rank[live.m], kind="stable")
    position = np.empty(node_count, dtype=np.int64)
    position[nodes] = np.arange(node_count)
    a, b = position[live.m[order]], position[live.n[order]]
    w = live.weight[order]
    node_size = sizes[labels[nodes]]  # non-decreasing
    edge_size = node_size[a]
    stacks = []
    for size in np.unique(node_size).tolist():
        if size < 2 and not singletons:
            continue
        n0, n1 = np.searchsorted(node_size, [size, size + 1]).tolist()
        e0, e1 = np.searchsorted(edge_size, [size, size + 1]).tolist()
        stacks.append(ComponentStack(nodes[n0:n1].reshape(-1, size),
                                     a[e0:e1] - n0, b[e0:e1] - n0,
                                     w[e0:e1]))
    return stacks


def build_laplacian(batch: ObservationBatch, node_count: int) -> list:
    """One ``ComponentStack`` of one component per connected component.

    Components are ordered by their smallest member. Isolated nodes appear as
    singleton components with empty edge sets (skipped by all solvers).
    """
    _validate_batch_indices(batch, node_count)
    comps = [c for stack in group_components(batch, node_count,
                                             singletons=True)
             for c in stack.split()]
    comps.sort(key=lambda c: c.nodes[0, 0])
    return comps


def _shifted_dense(stack: ComponentStack) -> np.ndarray:
    """(count, size, size): every component's ``L + shift 11^T``,
    nonsingular and equal to L on zero-sum vectors."""
    g, p = stack.nodes.shape
    rows, cols, off, degree, shift = _laplacian_entries(stack)
    L = np.repeat(shift, p * p)  # every entry starts at its shift
    # one half at a time, so no temporary exceeds one value per measurement
    for r, c in zip(rows, cols):
        flat = r * p
        flat += c
        np.add.at(L, flat, off)
    L = L.reshape(g, p, p)
    L.reshape(g, p * p)[:, ::p + 1] += degree
    return L


def _dense_min_norm(stack: ComponentStack, rhs: np.ndarray) -> np.ndarray:
    """Batched LU min-norm solve of a stack's Laplacian systems; each
    component is solved alone by the same LAPACK call."""
    y = np.linalg.solve(_shifted_dense(stack), rhs)
    y -= y.sum(axis=1, keepdims=True) / stack.size
    return y


def _cholesky(stack: ComponentStack):
    """``cho_factor`` of a stack of one's ``L + shift 11^T``, factored in
    place (the matrix is symmetric, so its transpose is the Fortran-ordered
    copy LAPACK works on); None when Cholesky fails on round-off."""
    A = _shifted_dense(stack)[0].T
    try:
        return cho_factor(A, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None


def _cg_system(stack: ComponentStack):
    """What CG needs of a stack of one: its CSR Laplacian, the shifted
    operator ``L + shift 11^T`` and the Jacobi preconditioner."""
    p = stack.size
    L, degree, shift = _sparse(stack)
    A = sp.linalg.LinearOperator(
        (p, p), matvec=lambda v: L @ v + shift * v.sum(), dtype=np.float64
    )
    return L, A, sp.diags(1.0 / (degree + shift))


def _solve_cg(stack: ComponentStack, rhs: np.ndarray,
              system=None) -> np.ndarray:
    """Deflated CG min-norm solve for a stack of one; ``rhs`` is
    (size, dim). ``system`` is the stack's ``_cg_system``, built here when
    not given. Falls back to the dense solve if CG does not converge."""
    p = stack.size
    L, A, M = system or _cg_system(stack)
    y = np.empty_like(rhs)
    for col in range(rhs.shape[1]):
        b = rhs[:, col]
        sol, info = _cg(A, b, rtol=_CG_TOL, atol=0.0, maxiter=50 * p, M=M)
        if info != 0:
            return _dense_min_norm(stack, rhs[None])[0]
        y[:, col] = sol
    y -= y.mean(axis=0)
    resid = np.linalg.norm(L @ y - rhs)
    if resid > 1e-9 * max(np.linalg.norm(rhs), 1e-300):
        return _dense_min_norm(stack, rhs[None])[0]
    return y


def algebraic_connectivity(stack: ComponentStack) -> float:
    """Second-smallest Laplacian eigenvalue (reciprocal of the pseudo-inverse
    spectral norm) of a connected component, given as a stack of one."""
    if stack.size < 2:
        raise ValueError("algebraic connectivity is undefined for singletons")
    vals = np.linalg.eigvalsh(_sparse(stack)[0].toarray())
    return float(vals[1])
