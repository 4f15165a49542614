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
component is a stack of one. ``_laplacian_entries`` alone decides how
measurements become Laplacian entries; a pair measured twice counts twice.
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
_RHS_TOL = 1e-9   # relative column-sum slack of a min-norm right-hand side
_CG_TOL = 1e-12   # relative residual that CG iterates to


@dataclass
class ComponentLaplacian:
    """Laplacian of one connected component: a view of a stack of one.

    Edges are stored with ``rows[k] < cols[k]`` in local indices, so a
    repeated measurement counts once per measurement. The diagonal is implied
    as the weighted degree, so row sums of the full matrix are exactly zero by
    construction.
    """

    node_ids: np.ndarray  # global node indices, ascending
    rows: np.ndarray      # local edge endpoints, rows[k] < cols[k]
    cols: np.ndarray
    weights: np.ndarray   # strictly positive edge weights
    degree: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.degree is None:
            self.degree = _laplacian_entries(self.as_stack())[3][0]

    @property
    def size(self) -> int:
        return len(self.node_ids)

    @property
    def nnz(self) -> int:
        """Number of stored off-diagonal entries (one per measurement)."""
        return len(self.weights)

    def to_dense(self) -> np.ndarray:
        return _sparse(self.as_stack())[0].toarray()

    def as_stack(self) -> "ComponentStack":
        """This component as a stack of one."""
        return ComponentStack(self.node_ids[None, :], self.rows, self.cols,
                              self.weights)

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
    """Disjoint node subsets."""

    clusters: list  # list of int arrays

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
                self.weights[e], None if self.delta is None else self.delta[e])

    def solve(self, rhs: np.ndarray,
              dense_max: int = DENSE_SOLVER_MAX) -> np.ndarray:
        """Min-norm ``y[k]`` with ``L_k y[k] = rhs[k]`` for every component.

        ``rhs`` is (count, size, dim) with zero column sums; so is the result.
        """
        if self.size <= dense_max:
            return _dense_min_norm(self, rhs)
        y = np.empty_like(rhs)
        for k, single in enumerate(self.split()):
            y[k] = _solve_cg(single, rhs[k], _CG_TOL)
        return y


def _laplacian_entries(stack: ComponentStack, weights=None):
    """The one place that decides how a stack's measurements become
    Laplacian entries: each adds its own weight ``w`` (from ``weights`` when
    given), ``-w`` at (a, b) and (b, a) and ``w`` to both degrees.

    Returns ``(rows, cols, off, degree, shift)``: measurement k adds
    ``off[k]`` at ``(rows[h][k], cols[h][k])`` for h = 0, 1 (flattened rows,
    local columns); ``degree`` is (count, size); adding ``shift[k]`` to every
    entry makes L_k nonsingular without changing it on zero-sum vectors.
    """
    g, p = stack.nodes.shape
    a, b = stack.a, stack.b
    w = stack.weights if weights is None else weights
    degree = (np.bincount(a, weights=w, minlength=g * p)
              + np.bincount(b, weights=w, minlength=g * p)).reshape(g, p)
    i, j = (a, b) if g == 1 else (a % p, b % p)
    shift = np.maximum(degree.sum(axis=1) / p, 1.0) / p
    return (a, b), (j, i), -w, degree, shift


def _sparse(stack: ComponentStack, weights=None):
    """CSR Laplacian of a stack of one (edge weights from ``weights`` when
    given), its degrees and its shift."""
    rows, cols, off, degree, shift = _laplacian_entries(stack, weights)
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


def _by_smallest_member(stacks: list) -> list:
    """Every component of ``stacks`` as a stack of one, ordered by smallest
    member."""
    comps = [c for stack in stacks for c in stack.split()]
    comps.sort(key=lambda c: c.nodes[0, 0])
    return comps


def build_laplacian(batch: ObservationBatch, node_count: int) -> list:
    """Build one ``ComponentLaplacian`` per connected component.

    Components are ordered by their smallest member. Isolated nodes appear as
    singleton components with empty edge sets (skipped by all solvers).
    """
    _validate_batch_indices(batch, node_count)
    stacks = group_components(batch, node_count, singletons=True)
    return [ComponentLaplacian(c.nodes[0], np.minimum(c.a, c.b),
                               np.maximum(c.a, c.b), c.weights)
            for c in _by_smallest_member(stacks)]


def connected_components(batch: ObservationBatch, node_count: int) -> ClusterPartition:
    """Partition {0..N-1} into maximal components of the positive-weight graph."""
    _validate_batch_indices(batch, node_count)
    comps = _by_smallest_member(
        group_components(batch, node_count, singletons=True))
    return ClusterPartition([c.nodes[0] for c in comps])


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


def _solve_cg(stack: ComponentStack, rhs: np.ndarray, tol: float) -> np.ndarray:
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
        sol, info = _cg(A, b, rtol=tol, atol=0.0, maxiter=50 * p, M=M)
        if info != 0:
            return _dense_min_norm(stack, rhs[None])[0]
        y[:, col] = sol
    y -= y.mean(axis=0)
    resid = np.linalg.norm(L @ y - rhs)
    if resid > 1e-9 * max(np.linalg.norm(rhs), 1e-300):
        return _dense_min_norm(stack, rhs[None])[0]
    return y


def solve_min_norm(
    lap: ComponentLaplacian,
    rhs: np.ndarray,
    dense_threshold: int = DENSE_SOLVER_MAX,
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
    bad = np.abs(col_sums) > _RHS_TOL * np.maximum(scale, 1e-300)
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
    y = lap.as_stack().solve(rhs[None], dense_threshold)[0]
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
