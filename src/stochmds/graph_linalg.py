"""Weighted graph Laplacians and the minimum-norm solves behind every update.

A measurement batch induces a weighted graph; each connected component gets
its own Laplacian. All coordinate updates reduce to solving ``L y = rhs``
where ``rhs`` has zero column sums, and the minimum-norm (pseudo-inverse)
solution is the one with zero column sums as well.

Every caller goes through one layer. ``group_components`` groups a batch's
positive-weight edges by connected component into one ``ComponentStack``
per component size, and ``ComponentStack.solve`` does the min-norm solves
of a stack at once. The data picks one of three routes per component: a
complete component with one measurement per pair, all of one weight ``w``,
is solved in closed form, ``y = rhs / (w * size)`` recentered, with no
assembly; the others take one batched dense factorization up to
``DENSE_SOLVER_MAX`` nodes, and deflated conjugate gradients above. A single
component is a stack of one: ``build_laplacian`` returns one per connected
component and ``algebraic_connectivity`` takes one. ``_laplacian_entries``
alone decides how measurements become Laplacian entries (a pair measured
twice counts twice); the batched dense kernel and ``_sparse``, the CSR form
behind CG and ``algebraic_connectivity``, both read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cs_components
from scipy.sparse.linalg import cg as _cg

from .observations import ObservationBatch, clamp_weights

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
        _, raw = _cs_components(adj, directed=False)
        # canonicalize to min-member labels
        mins = np.full(raw.max() + 1, node_count, dtype=np.int64)
        np.minimum.at(mins, raw, np.arange(node_count))
        labels = mins[raw]
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
    delta: np.ndarray

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
            yield ComponentStack(
                self.nodes[k:k + 1], self.a[e] - k * p, self.b[e] - k * p,
                self.weights[e], self.delta[e])

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
        per = np.bincount(self.a // p, minlength=g) if g > 1 \
            else np.array([self.nnz])
        cand = np.flatnonzero(per == half)
        if len(cand) == 0:
            return None
        a, b, w = self.a, self.b, self.weights
        if len(cand) < g:  # keep their edges, renumbered as a stack of them
            edges = np.repeat(per == half, per)
            shift = np.repeat((cand - np.arange(len(cand))) * p, half)
            a, b, w = a[edges] - shift, b[edges] - shift, w[edges]
        w = w.reshape(-1, half)
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
        """Min-norm ``y[k]`` with ``L_k y[k] = rhs[k]`` for every component.

        ``rhs`` is (count, size, dim) with zero column sums; so is the result.
        The route follows from the data, component by component, so a
        component's result does not depend on the stack it is in. A
        complete component with one weight ``w`` has
        ``pinv(L) = (I - 11^T / size) / (w * size)`` and needs no solve.
        The others take one batched dense factorization up to
        ``DENSE_SOLVER_MAX`` nodes, and deflated CG each above.
        """
        w = self._complete_weights()
        if w is not None and w.all():
            return _closed_form(rhs, w)
        if self.size <= DENSE_SOLVER_MAX:
            y = _dense_min_norm(self, rhs)
        else:
            y = np.empty_like(rhs)
            for k, single in enumerate(self.split()):
                if w is None or w[k] == 0:
                    y[k] = _solve_cg(single, rhs[k])
        if w is not None:
            closed = w > 0
            y[closed] = _closed_form(rhs[closed], w[closed])
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
                     eps_w: float | None = None,
                     singletons: bool = False) -> list:
    """Group a batch's positive-weight edges by connected component.

    Returns one ``ComponentStack`` per component size, ascending; isolated
    nodes form a size-1 stack only with ``singletons``. Inside a stack,
    components are ordered by smallest member, node ids ascend and edges keep
    batch order. When ``eps_w`` is given, nonzero weights below it are
    clamped up with a warning.
    """
    live = batch.nonzero()
    w = live.weight if eps_w is None else clamp_weights(live.weight, eps_w)
    labels, n_comp = _component_labels(live.m, live.n, node_count)
    if n_comp == 1:  # connected: already in order
        stack = ComponentStack(np.arange(node_count)[None, :], live.m, live.n,
                               w, live.delta)
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
    w, delta = w[order], live.delta[order]
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
                                     w[e0:e1], delta[e0:e1]))
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


def _dense_min_norm(stack: ComponentStack, rhs: np.ndarray) -> np.ndarray:
    """Batched dense min-norm solve of a stack's Laplacian systems."""
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
    y = np.linalg.solve(L, rhs)
    y -= y.sum(axis=1, keepdims=True) / p
    return y


def _solve_cg(stack: ComponentStack, rhs: np.ndarray) -> np.ndarray:
    """Deflated CG min-norm solve for a stack of one; ``rhs`` is
    (size, dim). Falls back to the dense solve if CG does not converge."""
    p = stack.size
    L, degree, shift = _sparse(stack)
    A = sp.linalg.LinearOperator(
        (p, p), matvec=lambda v: L @ v + shift * v.sum(), dtype=np.float64
    )
    M = sp.diags(1.0 / (degree + shift))
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
