"""Weighted graph Laplacians and the minimum-norm solves behind every update.

A measurement batch induces a weighted graph; each connected component gets
its own Laplacian. All coordinate updates reduce to solving ``L y = rhs``
where ``rhs`` has zero column sums, and the minimum-norm (pseudo-inverse)
solution is the one with zero column sums as well.

Every caller goes through one layer. ``group_components`` groups a batch's
positive-weight edges by connected component into one ``ComponentStack``
per component size, and ``ComponentStack.solve`` does the min-norm solves
of a stack at once: one batched dense factorization up to
``DENSE_SOLVER_MAX`` nodes, deflated conjugate gradients above. A single
component is a stack of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cs_components
from scipy.sparse.linalg import cg as _cg

from .observations import ObservationBatch, clamp_weights

__all__ = [
    "ComponentLaplacian",
    "ComponentStack",
    "group_components",
    "ClusterPartition",
    "build_laplacian",
    "connected_components",
    "solve_min_norm",
    "project_centering",
    "algebraic_connectivity",
    "DENSE_SOLVER_MAX",
]

# components at most this large use the dense factorization path; larger ones
# fall back to deflated conjugate gradients on the sparse Laplacian
DENSE_SOLVER_MAX = 512


@dataclass
class ComponentLaplacian:
    """Laplacian of one connected component of the measurement graph.

    Edges are stored once per unordered pair (``rows[k] < cols[k]`` in local
    indices); the diagonal is implied as the weighted degree, so row sums of
    the full matrix are exactly zero by construction.
    """

    node_ids: np.ndarray  # global node indices, ascending
    rows: np.ndarray      # local edge endpoints, rows[k] < cols[k]
    cols: np.ndarray
    weights: np.ndarray   # strictly positive edge weights
    degree: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.degree is None:
            p = len(self.node_ids)
            self.degree = (
                np.bincount(self.rows, weights=self.weights, minlength=p)
                + np.bincount(self.cols, weights=self.weights, minlength=p)
            )

    @property
    def size(self) -> int:
        return len(self.node_ids)

    @property
    def nnz(self) -> int:
        """Number of stored off-diagonal entries (one per unordered pair)."""
        return len(self.weights)

    def to_dense(self) -> np.ndarray:
        L = np.zeros((self.size, self.size))
        L[self.rows, self.cols] = -self.weights
        L[self.cols, self.rows] = -self.weights
        L[np.diag_indices(self.size)] = self.degree
        return L

    def as_stack(self) -> "ComponentStack":
        """This component as a stack of one."""
        return ComponentStack(self.node_ids[None, :], self.rows, self.cols,
                              self.weights)

    def to_sparse(self) -> sp.csr_matrix:
        p = self.size
        i = np.concatenate([self.rows, self.cols, np.arange(p)])
        j = np.concatenate([self.cols, self.rows, np.arange(p)])
        v = np.concatenate([-self.weights, -self.weights, self.degree])
        return sp.csr_matrix((v, (i, j)), shape=(p, p))

    def check(self) -> "ComponentLaplacian":
        """Validate the structural invariants (used by tests)."""
        if np.any(self.weights <= 0):
            raise ValueError("stored weights must be strictly positive")
        if np.any(self.rows >= self.cols):
            raise ValueError("edges must be stored with rows < cols")
        # the diagonal is by definition the negated off-diagonal row sum
        d = (np.bincount(self.rows, weights=self.weights, minlength=self.size)
             + np.bincount(self.cols, weights=self.weights, minlength=self.size))
        if not np.array_equal(d, self.degree):
            raise ValueError("degree must equal the off-diagonal row sums")
        if self.size:
            sums = np.abs(self.to_dense().sum(axis=1))
            if sums.max() > 1e-12 * max(float(self.degree.max()), 1.0):
                raise ValueError("row sums must vanish")
        return self


@dataclass
class ClusterPartition:
    """Disjoint node subsets with per-cluster selected edge sets."""

    clusters: list  # list of int arrays
    edge_sets: list  # list of (k, 2) int arrays, global indices
    slot: int = 0

    def validate(self, node_count: int | None = None) -> "ClusterPartition":
        seen = np.concatenate([np.asarray(c) for c in self.clusters]) \
            if self.clusters else np.zeros(0, dtype=np.int64)
        if np.unique(seen).size != seen.size:
            raise ValueError("clusters must be pairwise disjoint")
        if node_count is not None and seen.size and (
            seen.min() < 0 or seen.max() >= node_count
        ):
            raise ValueError("cluster node index out of range")
        for c, edges in zip(self.clusters, self.edge_sets):
            members = set(np.asarray(c).tolist())
            e = np.asarray(edges).reshape(-1, 2)
            for a, b in e.tolist():
                if a not in members or b not in members:
                    raise ValueError("edge endpoint outside its cluster")
        return self

    def membership(self, node_count: int) -> np.ndarray:
        """Cluster index per node; -1 for nodes outside every cluster."""
        out = np.full(node_count, -1, dtype=np.int64)
        for j, c in enumerate(self.clusters):
            out[np.asarray(c)] = j
        return out


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
    delta: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.nodes.shape[1]

    @property
    def count(self) -> int:
        return self.nodes.shape[0]

    def _edge_slices(self) -> list:
        bounds = np.searchsorted(self.a // self.size,
                                 np.arange(self.count + 1)).tolist()
        return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def components(self):
        """Yield ``(node_ids, i, j, weights, delta)`` per component, with
        local endpoints ``i`` and ``j``."""
        p = self.size
        for k, e in enumerate(self._edge_slices()):
            yield (self.nodes[k], self.a[e] - k * p, self.b[e] - k * p,
                   self.weights[e], self.delta[e])

    def solve(self, rhs: np.ndarray, dense_max: int = DENSE_SOLVER_MAX,
              cg_tol: float = 1e-12) -> np.ndarray:
        """Min-norm ``y[k]`` with ``L_k y[k] = rhs[k]`` for every component.

        ``rhs`` is (count, size, dim) with zero column sums; so is the result.
        """
        p = self.size
        if p <= dense_max:
            return _dense_min_norm(self, rhs)
        y = np.empty_like(rhs)
        for k, e in enumerate(self._edge_slices()):
            a, b = self.a[e], self.b[e]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            lo -= k * p
            hi -= k * p
            lap = ComponentLaplacian(self.nodes[k], lo, hi, self.weights[e])
            y[k] = _solve_cg(lap, rhs[k], cg_tol)
        return y


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


def _by_smallest_member(stacks: list) -> list:
    """Every component of ``stacks`` as ``(node_ids, i, j, weights, delta)``,
    ordered by smallest member."""
    comps = [c for stack in stacks for c in stack.components()]
    comps.sort(key=lambda c: c[0][0])
    return comps


def build_laplacian(
    batch: ObservationBatch,
    node_count: int,
    eps_w: float | None = None,
    include_singletons: bool = True,
) -> list:
    """Build one ``ComponentLaplacian`` per connected component.

    Components are ordered by their smallest member. Isolated nodes appear as
    singleton components with empty edge sets (skipped by all solvers) unless
    ``include_singletons`` is False. When ``eps_w`` is given, nonzero weights
    below it are clamped up with a warning.
    """
    _validate_batch_indices(batch, node_count)
    stacks = group_components(batch, node_count, eps_w, include_singletons)
    return [ComponentLaplacian(nodes, np.minimum(i, j), np.maximum(i, j), w)
            for nodes, i, j, w, _ in _by_smallest_member(stacks)]


def connected_components(batch: ObservationBatch, node_count: int) -> ClusterPartition:
    """Partition {0..N-1} into maximal components of the positive-weight graph."""
    _validate_batch_indices(batch, node_count)
    comps = _by_smallest_member(
        group_components(batch, node_count, singletons=True))
    return ClusterPartition(
        [nodes for nodes, *_ in comps],
        [np.column_stack([nodes[i], nodes[j]]) for nodes, i, j, _, _ in comps],
        slot=batch.slot)


def _dense_min_norm(stack: ComponentStack, rhs: np.ndarray) -> np.ndarray:
    """Batched dense min-norm solve of a stack's Laplacian systems."""
    g, p = stack.nodes.shape
    a, b, w = stack.a, stack.b, stack.weights
    degree = (np.bincount(a, weights=w, minlength=g * p)
              + np.bincount(b, weights=w, minlength=g * p)).reshape(g, p)
    L = np.zeros((g, p, p))
    rows = L.reshape(g * p, p)
    i, j = (a, b) if g == 1 else (a % p, b % p)  # local endpoints
    rows[a, j] = rows[b, i] = -w
    L.reshape(g, p * p)[:, ::p + 1] = degree
    # shift along the all-ones direction makes L nonsingular without touching
    # the solution on the zero-column-sum subspace
    L += (np.maximum(degree.sum(axis=1) / p, 1.0) / p)[:, None, None]
    y = np.linalg.solve(L, rhs)
    y -= y.sum(axis=1, keepdims=True) / p
    return y


def _solve_cg(lap: ComponentLaplacian, rhs: np.ndarray, tol: float) -> np.ndarray:
    p = lap.size
    L = lap.to_sparse()
    shift = max(float(lap.degree.mean()), 1.0) / p
    # L + shift*11^T is SPD and agrees with L on the zero-column-sum subspace
    A = sp.linalg.LinearOperator(
        (p, p), matvec=lambda v: L @ v + shift * v.sum(), dtype=np.float64
    )
    M = sp.diags(1.0 / (lap.degree + shift))
    y = np.empty_like(rhs)
    for col in range(rhs.shape[1]):
        b = rhs[:, col]
        sol, info = _cg(A, b, rtol=tol, atol=0.0, maxiter=50 * p, M=M)
        if info != 0:
            return _dense_min_norm(lap.as_stack(), rhs[None])[0]
        y[:, col] = sol
    y -= y.mean(axis=0)
    resid = np.linalg.norm(L @ y - rhs)
    if resid > 1e-9 * max(np.linalg.norm(rhs), 1e-300):
        return _dense_min_norm(lap.as_stack(), rhs[None])[0]
    return y


def solve_min_norm(
    lap: ComponentLaplacian,
    rhs: np.ndarray,
    rhs_tol: float = 1e-9,
    dense_threshold: int = DENSE_SOLVER_MAX,
    cg_tol: float = 1e-12,
    eps_w: float | None = None,
) -> np.ndarray:
    """Minimum-norm solution of ``L y = rhs`` for a connected component.

    Requires each column of ``rhs`` to sum to zero (relative to its magnitude)
    so the system is consistent; the returned solution has zero column sums.
    The component is solved as a stack of one; the solver choice (dense
    factorization vs deflated CG) is internal and does not affect the output
    contract.
    """
    rhs = np.atleast_2d(np.asarray(rhs, dtype=np.float64))
    squeeze = False
    if rhs.shape[0] == 1 and lap.size != 1:
        rhs = rhs.T
        squeeze = True
    if rhs.shape[0] != lap.size:
        raise ValueError("rhs row count does not match component size")

    col_sums = rhs.sum(axis=0)
    scale = np.abs(rhs).sum(axis=0)
    bad = np.abs(col_sums) > rhs_tol * np.maximum(scale, 1e-300)
    if np.any(bad):
        raise ValueError(
            "rhs not in the range space of L (column sums "
            f"{col_sums[bad]} exceed tolerance)"
        )
    if eps_w is not None and lap.nnz and float(lap.weights.min()) < eps_w:
        warnings.warn(
            "edge weight below eps_w: Laplacian conditioning bound not guaranteed",
            stacklevel=2,
        )
    y = lap.as_stack().solve(rhs[None], dense_threshold, cg_tol)[0]
    return y[:, 0] if squeeze else y


def project_centering(lap: ComponentLaplacian, X: np.ndarray) -> np.ndarray:
    """Apply the component's centering projector: remove per-column means."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != lap.size:
        raise ValueError("row count does not match component size")
    return X - X.mean(axis=0)


def algebraic_connectivity(lap: ComponentLaplacian) -> float:
    """Second-smallest Laplacian eigenvalue (reciprocal of the pseudo-inverse
    spectral norm) of a connected component."""
    if lap.size < 2:
        raise ValueError("algebraic connectivity is undefined for singletons")
    vals = np.linalg.eigvalsh(lap.to_dense())
    return float(vals[1])
