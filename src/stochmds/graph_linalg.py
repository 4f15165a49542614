"""Weighted graph Laplacians and the minimum-norm solves behind every update.

A measurement batch induces a weighted graph; each connected component gets
its own Laplacian. All coordinate updates reduce to solving ``L y = rhs``
where ``rhs`` has zero column sums, and the minimum-norm (pseudo-inverse)
solution is the one with zero column sums as well.

Every caller goes through one layer, and it sees only the graph (node ids,
edges, weights): ``stress_core`` forms B(X)X once per batch and hands the
layer its rows. ``group_components`` lays a batch's components end to end,
ordered by size, in one ``ComponentGroups``; its callers have stripped the
batch of zero weights (``ObservationBatch.nonzero``). A grouping is solved
in one pass (``_RoutedStack``), whatever its number of sizes:

- the route pass picks each component's route from the data once over the
  whole grouping: a complete component with one measurement per pair, all
  of one weight ``w``, is solved in closed form, ``y = rhs / (w * size)``,
  with no assembly; the others take the dense route up to
  ``DENSE_SOLVER_MAX`` nodes and deflated conjugate gradients above;
- one assembly (``_shifted_dense``) forms every dense-route component's
  ``L + shift 11^T`` from one pass of ``_laplacian_entries`` over the
  grouping's edges, and ``np.linalg.solve`` is called once per size, so each
  matrix still goes through the same LAPACK call alone. The matrices are
  filled and solved in waves of consecutive sizes, none holding more cells
  than the largest size does, so the assembly's memory stays what a
  per-size assembly needed;
- the solutions are written over the right-hand side and recentered in one
  step.

Batch majorization, whose batch is fixed, has ``_RoutedStack`` keep each
component's factor instead. A ``ComponentStack`` is a grouping of one
size; ``build_laplacian`` returns one stack per connected component and
``algebraic_connectivity`` takes one. ``_laplacian_entries`` alone
decides how measurements become Laplacian entries (a pair measured twice
counts twice); the dense assembly and ``_sparse``, the CSR form behind CG
and ``algebraic_connectivity``, read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.csgraph import connected_components as _cs_components
from scipy.sparse.linalg import cg as _cg

from .observations import ObservationBatch, _validate_batch_indices

__all__ = [
    "ComponentGroups",
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
        n_comp, labels = _cs_components(adj, directed=False)
        return labels.astype(np.int64, copy=False), n_comp
    # every node is labelled with its component's smallest member, the one
    # node that labels itself: number those roots in node order
    roots = labels == np.arange(node_count)
    ids = np.cumsum(roots)
    del roots
    ids -= 1
    return ids[labels], int(ids[-1]) + 1


@dataclass
class ComponentGroups:
    """Connected components laid end to end, for solves that take every
    component in one pass.

    ``nodes`` holds each component's global node ids in ascending order,
    one component after another, and ``sizes`` the component sizes, which
    never decrease. Edge endpoints ``a`` and ``b`` index the flattened
    ``nodes``; edges keep their measured orientation and are grouped by
    component. ``runs`` lists, per size, the range of its components.
    """

    nodes: np.ndarray
    a: np.ndarray
    b: np.ndarray
    weights: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        # (size, first, end): the components of each size, a range
        sizes = self.sizes
        if len(sizes) and sizes[0] == sizes[-1]:
            self.runs = [(int(sizes[0]), 0, len(sizes))]
            return
        cuts = (np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist()
        bounds = [0, *cuts, len(sizes)] if len(sizes) else []
        self.runs = [(int(sizes[c0]), c0, c1)
                     for c0, c1 in zip(bounds, bounds[1:])]

    @cached_property
    def starts(self) -> np.ndarray:
        """Where each component's nodes start in the flattened ``nodes``,
        then the node count."""
        out = np.zeros(len(self.sizes) + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=out[1:])
        return out

    @cached_property
    def edge_starts(self) -> np.ndarray:
        """Where each component's edges start, then the edge count. Every
        endpoint ``a`` lies in its component's node range, so one binary
        search per component finds its first edge."""
        return np.searchsorted(self.a, self.starts)

    @cached_property
    def edge_counts(self) -> np.ndarray:
        """Measurements per component."""
        starts = self.edge_starts
        return starts[1:] - starts[:-1]

    def split(self) -> list:
        """Each component as a stack of one, in order."""
        return [self._stack(k, k + 1) for k in range(len(self.sizes))]

    def _stack(self, c0: int, c1: int) -> ComponentStack:
        """Components ``c0`` to ``c1 - 1``, of one size, as a stack of their
        own: a view of the nodes and weights, endpoints renumbered into it."""
        n0, n1 = int(self.starts[c0]), int(self.starts[c1])
        e0, e1 = int(self.edge_starts[c0]), int(self.edge_starts[c1])
        a, b = self.a[e0:e1], self.b[e0:e1]
        if n0:
            a, b = a - n0, b - n0
        return ComponentStack(self.nodes.reshape(-1)[n0:n1].reshape(c1 - c0, -1),
                              a, b, self.weights[e0:e1])

    def _complete_weights(self) -> np.ndarray | None:
        """Per component, the weight ``w`` when the component is complete
        with one measurement per unordered pair, all of weight ``w``, and 0
        otherwise; None when no component is.

        Exact and linear in the measurements. Only a component of size p
        with p (p - 1) / 2 measurements can qualify. Its diagonal and each
        of its measurements' cells (i, j) and (j, i) are marked in a p^2
        bitmap, the candidates' bitmaps laid end to end; every cell is
        marked exactly when no pair is measured twice and none is a
        self-loop. Equal degrees are not enough: a multigraph can be
        regular without being complete.
        """
        sizes, per = self.sizes, self.edge_counts
        half = sizes * (sizes - 1) // 2
        cand = (per == half) & (half > 0)
        if not cand.any():
            return None
        a, b, w = self.a, self.b, self.weights
        everyone = cand.all()
        if not everyone:
            edges = np.repeat(cand, per)
            a, b, w = a[edges], b[edges], w[edges]
        cells = np.where(cand, sizes * sizes, 0)  # the others get no block
        first = np.cumsum(cells) - cells
        seen = np.zeros(int(first[-1] + cells[-1]), dtype=bool)
        row, col = _block_cells(self.starts, sizes, first)
        diagonal = row + col
        seen[diagonal if everyone else diagonal[np.repeat(cand, sizes)]] = True
        del diagonal
        for key in _cell_halves((a, b), (b, a), row, col):
            seen[key] = True
        half = half[cand]
        head = np.cumsum(half) - half  # each candidate's first measurement
        w0 = np.minimum.reduceat(w, head)
        ok = (np.logical_and.reduceat(seen, first[cand])
              & (w0 == np.maximum.reduceat(w, head)))
        if not ok.any():
            return None
        out = np.zeros(len(sizes))
        out[np.flatnonzero(cand)[ok]] = w0[ok]
        return out

    def _means(self, v: np.ndarray) -> np.ndarray:
        """Per component, the column means of its rows of ``v`` (one row
        per node), each summed as a stack's ``(count, size, dim).sum(axis=1)``
        sums it: down each column in row order, as ``np.bincount`` over
        component labels sums, except in one dimension, where numpy sums
        the contiguous column pairwise. So the sums are taken per size in
        one dimension and by one ``np.bincount`` per dimension otherwise,
        unless there is one size."""
        dim = v.shape[1]
        if len(self.runs) == 1:
            size = self.runs[0][0]
            return v.reshape(-1, size, dim).sum(axis=1) / size
        if dim == 1:
            starts = self.starts.tolist()
            sums = np.concatenate([
                v[starts[c0]:starts[c1]].reshape(c1 - c0, size, dim)
                .sum(axis=1) for size, c0, c1 in self.runs])
        else:
            labels = np.repeat(np.arange(len(self.sizes)), self.sizes)
            sums = np.empty((len(self.sizes), dim))
            for col in range(dim):
                sums[:, col] = np.bincount(labels, weights=v[:, col])
        return sums / self.sizes[:, None]

    def _spread(self, values: np.ndarray) -> np.ndarray:
        """``values`` (one row per component) repeated for each of its
        nodes, one row per node."""
        return np.repeat(values, self.sizes, axis=0)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Min-norm ``y_k`` with ``L_k y_k = rhs_k`` for every component
        k, each by the route its data picks (``_RoutedStack``), so its
        result does not depend on the others."""
        return _RoutedStack(self).solve(rhs)


@dataclass
class ComponentStack(ComponentGroups):
    """Connected components of one size, stacked for a batched solve.

    Row ``k`` of ``nodes`` holds component k's global node ids in ascending
    order. Edge endpoints ``a`` and ``b`` index the flattened ``nodes``, so
    ``a // size`` is an edge's component and ``a % size`` its local node.
    """

    sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        count, size = self.nodes.shape
        self.sizes = np.full(count, size)
        self.runs = [(size, 0, count)]

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


class _RoutedStack:
    """The one place that picks each component's route from the data.

    A complete component of one weight ``w`` (``_complete_weights``) has
    ``pinv(L) = (I - 11^T / size) / (w * size)`` and needs no solve. The
    others take the dense route up to ``DENSE_SOLVER_MAX`` nodes, all of
    them assembled in one pass and solved by one LU call per size
    (``_lu_solve``), and deflated CG one by one above. After
    ``keep_factors``, each of those keeps what its route reuses instead:
    the Cholesky factor of ``L + shift 11^T``, factored in place (None when
    Cholesky fails, as on a path with a 1e-20 weight: the component then
    stays on the LU route), or its CG system. Kept solves equal one-shot
    ones bit for bit by CG and to round-off by Cholesky.
    """

    def __init__(self, groups: ComponentGroups):
        self.groups, self.kept = groups, None
        self.w = groups._complete_weights()
        sizes = groups.sizes
        if self.w is None and (not len(sizes)
                               or sizes[-1] <= DENSE_SOLVER_MAX):
            self.lu, self.alone = None, []  # every component, one LU route
            return
        open_ = self._open()
        big = sizes[open_] > DENSE_SOLVER_MAX
        self.lu = open_[~big]
        # the components solved on their own: rows, stack of one, and what
        # their solve reuses
        self.alone = [(self._rows(k), groups._stack(k, k + 1), None)
                      for k in open_[big].tolist()]

    def _rows(self, k: int) -> slice:
        return slice(*self.groups.starts[k:k + 2].tolist())

    def _open(self) -> np.ndarray:
        """The components that are not solved in closed form."""
        if self.w is None:
            return np.arange(len(self.groups.sizes))
        return np.flatnonzero(self.w == 0)

    def keep_factors(self) -> _RoutedStack:
        open_ = self._open()
        singles = [self.groups._stack(k, k + 1) for k in open_.tolist()]
        self.kept = [(single, _cholesky(single) if single.size <= DENSE_SOLVER_MAX
                      else _cg_system(single)) for single in singles]
        factored = np.array([reused is not None for _, reused in self.kept],
                            dtype=bool)
        self.alone = [(self._rows(k), single, reused) for k, (single, reused)
                      in zip(open_.tolist(), self.kept) if reused is not None]
        self.lu = open_[~factored]
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Min-norm solves of every component; ``rhs`` holds one row per
        node of the flattened ``nodes`` ((count, size, dim) for a stack),
        with zero column sums per component, and so does the result."""
        return self.solve_in_place(np.array(rhs, dtype=np.float64))

    def solve_in_place(self, y: np.ndarray) -> np.ndarray:
        """``solve`` written over ``y``, a C-ordered right-hand side."""
        groups = self.groups
        if not len(groups.sizes):
            return y
        flat = y.reshape(-1, y.shape[-1])
        # solved first, from their own right-hand sides
        alone = [(rows, _solve_alone(single, flat[rows], reused))
                 for rows, single, reused in self.alone]
        lu = self.lu is None or len(self.lu)
        if lu:
            _lu_solve(groups, flat, self.lu)
        if self.w is not None:
            closed = np.where(self.w > 0, self.w * groups.sizes, 1.0)
            flat /= np.repeat(closed, groups.sizes)[:, None]
        if lu or self.w is not None:
            _recenter(groups, flat)
        for rows, yk in alone:
            flat[rows] = yk
        return y


def _solve_alone(single: ComponentStack, rhs: np.ndarray, reused):
    """One component's min-norm solve by CG above ``DENSE_SOLVER_MAX``
    (``reused`` its kept system, if any), else by its kept Cholesky factor.
    """
    if single.size > DENSE_SOLVER_MAX:
        return _solve_cg(single, rhs, reused)
    # recenter cho_solve's own array; a row of y would sum in another order
    y = cho_solve(reused, rhs, check_finite=False)
    y -= y.sum(axis=0) / single.size
    return y


def _recenter(groups: ComponentGroups, flat: np.ndarray) -> None:
    """Subtract from every component's rows of ``flat`` their mean."""
    flat -= groups._spread(groups._means(flat))


def _block_cells(starts, sizes, first):
    """Per node of a grouping whose component k starts at node
    ``starts[k]`` and owns the size x size block (C order) at cell
    ``first[k]`` of a buffer of blocks: where the node's row of that block
    starts, and the node's column in it. Cell (r, c) is ``row[r] +
    col[c]``."""
    col = np.arange(starts[-1]) - np.repeat(starts[:-1], sizes)
    row = np.repeat(sizes, sizes) * col
    row += np.repeat(first, sizes)
    return row, col


def _cell_halves(rows, cols, row, col):
    """The flat cells of ``(rows[h], cols[h])``, h = 0, 1, by
    ``_block_cells``'s ``row`` and ``col``. Each half is written over the
    one before, so it is used before the next is drawn."""
    cell = None
    for r, c in zip(rows, cols):
        cell = np.take(row, r) if cell is None else \
            np.take(row, r, out=cell, mode="clip")  # "raise" would buffer
        cell += col[c]
        yield cell


def _stack_cell_halves(rows, cols, size):
    """``_cell_halves`` when every component has one size and every block
    is in the buffer: component k starts at node k p and at cell k p^2, so
    the cell of (r, c) is r p + c mod p."""
    cell = None
    for r, c in zip(rows, cols):
        cell = np.multiply(r, size, out=cell)
        cell += c % size
        yield cell


def _laplacian_entries(groups: ComponentGroups):
    """The one place that decides how a grouping's measurements become
    Laplacian entries: each adds its own weight ``w``, ``-w`` at (a, b) and
    (b, a) and ``w`` to both degrees.

    Returns ``(rows, cols, w, degree, shift)``: measurement k subtracts
    ``w[k]`` at ``(rows[h][k], cols[h][k])`` for h = 0, 1 (positions in
    the flattened nodes); ``degree`` is shaped like the nodes; adding
    ``shift[k]`` to every entry makes L_k nonsingular without changing it
    on zero-sum vectors.
    """
    a, b, w = groups.a, groups.b, groups.weights
    degree = np.bincount(a, weights=w, minlength=groups.nodes.size)
    degree += np.bincount(b, weights=w, minlength=groups.nodes.size)
    # each component's degree sum as a (count, size) stack sums its rows
    if len(groups.runs) == 1:
        size = groups.runs[0][0]
        sums = degree.reshape(-1, size).sum(axis=1)
    else:
        starts = groups.starts.tolist()
        sums = np.concatenate([
            degree[starts[c0]:starts[c1]].reshape(c1 - c0, size).sum(axis=1)
            for size, c0, c1 in groups.runs])
        size = groups.sizes
    shift = np.maximum(sums / size, 1.0) / size
    return (a, b), (b, a), w, degree.reshape(groups.nodes.shape), shift


def _sparse(stack: ComponentStack):
    """CSR Laplacian of a stack of one, its degrees and its shift."""
    rows, cols, w, degree, shift = _laplacian_entries(stack)
    off = -w
    diag = np.arange(stack.size)
    L = sp.csr_matrix(
        (np.concatenate([off, off, degree[0]]),
         (np.concatenate([*rows, diag]), np.concatenate([*cols, diag]))),
        shape=(stack.size, stack.size))
    return L, degree[0], float(shift[0])


def group_components(batch: ObservationBatch, node_count: int,
                     singletons: bool = False) -> ComponentGroups:
    """Group a batch's edges by connected component. Every weight must be
    positive: callers hand in ``batch.nonzero()``, so a chunk's zero
    weights are dropped once, by its caller.

    Returns the components ordered by (size, smallest member), so each size
    is one ``ComponentStack`` of the result; isolated nodes form size-1
    components only with ``singletons``. Node ids ascend inside a component
    and edges keep batch order. Each temporary is released once used, so
    grouping holds a few values per node and per edge at a time.
    """
    m, n = batch.m, batch.n
    labels, n_comp = _component_labels(m, n, node_count)
    if n_comp == 1:  # connected: already in order
        keep = node_count > 1 or singletons
        return ComponentGroups(np.arange(node_count if keep else 0), m, n,
                               batch.weight, np.array([node_count] * keep))
    sizes = np.bincount(labels, minlength=n_comp)
    # rank components by (size, label): labels ascend, so a stable sort by
    # size gives that order
    by_size = np.argsort(sizes, kind="stable")
    rank = np.empty(n_comp, dtype=np.int64)
    rank[by_size] = np.arange(n_comp)
    labels = rank[labels]  # each node's component rank
    del rank
    sizes = sizes[by_size]
    # isolated nodes lead; without singletons they are left out
    skip = 0 if singletons or sizes[0] > 1 else \
        int(np.searchsorted(sizes, 2))
    nodes = np.argsort(labels, kind="stable")
    order = np.argsort(labels[m], kind="stable")
    position = labels  # each node's place in the grouped nodes
    position[nodes] = np.arange(-skip, node_count - skip)
    a, b = position[m[order]], position[n[order]]
    del labels, position
    w = batch.weight[order]
    del order
    if skip:  # a copy, so that the isolated nodes are not held
        nodes, sizes = nodes[skip:].copy(), sizes[skip:].copy()
    return ComponentGroups(nodes, a, b, w, sizes)


def build_laplacian(batch: ObservationBatch, node_count: int) -> list:
    """One ``ComponentStack`` of one component per connected component.

    Components are ordered by their smallest member. Isolated nodes appear as
    singleton components with empty edge sets (skipped by all solvers).
    """
    _validate_batch_indices(batch, node_count)
    comps = group_components(batch.nonzero(), node_count,
                             singletons=True).split()
    comps.sort(key=lambda c: c.nodes[0, 0])
    return comps


def _blocks(groups: ComponentGroups, comps=None) -> list:
    """Per size, the components ``comps`` (all when None) as ``(size, c0,
    c1, count, rows, cell)``: the run of components of that size, how many
    of them are in ``comps``, their rows of the flattened nodes (a slice,
    or an index array when others of that size lie between them) and where
    their blocks start when the blocks of ``comps`` lie end to end."""
    everyone = comps is None or len(comps) == len(groups.sizes)
    if everyone and len(groups.runs) == 1:
        size, c0, c1 = groups.runs[0]
        return [(size, c0, c1, c1, slice(0, groups.nodes.size), 0)]
    starts = groups.starts
    bounds = None if everyone else np.searchsorted(
        comps, [c0 for _, c0, _ in groups.runs] + [len(groups.sizes)]).tolist()
    out, cell = [], 0
    for k, (size, c0, c1) in enumerate(groups.runs):
        if everyone or bounds[k + 1] - bounds[k] == c1 - c0:
            count, rows = c1 - c0, slice(int(starts[c0]), int(starts[c1]))
        elif bounds[k + 1] == bounds[k]:
            continue
        else:
            first = starts[comps[bounds[k]:bounds[k + 1]]]
            count = len(first)
            rows = (first[:, None] + np.arange(size)).reshape(-1)
        out.append((size, c0, c1, count, rows, cell))
        cell += count * size * size
    return out


def _waves(blocks: list, room: int) -> list:
    """Consecutive blocks, each wave holding at most as many cells as the
    largest block plus ``room`` (or one block)."""
    if len(blocks) < 2:
        return [blocks] if blocks else []
    cells = [count * size * size for size, _, _, count, _, _ in blocks]
    budget = max(cells) + room
    waves, held = [], None
    for block, n in zip(blocks, cells):
        if held is None or held + n > budget:
            waves.append([])
            held = 0
        waves[-1].append(block)
        held += n
    return waves


def _shifted_dense(groups: ComponentGroups, comps=None, room: int = 0):
    """The one dense assembly: every component of ``comps`` (all when
    None) as its ``L + shift 11^T``, nonsingular and equal to L on zero-sum
    vectors. One pass of ``_laplacian_entries`` and one of ``_cell_halves``
    serve every component; the matrices are then filled and handed out
    wave by wave, each wave no larger than the largest size's block plus
    ``room`` cells (``_waves``). Yields ``(A, blocks)``: a flat buffer of
    size x size blocks in component order, and per size ``(size, count,
    rows, cells)``, its components' rows and their slice of ``A``.
    """
    rows, cols, w, degree, shift = _laplacian_entries(groups)
    blocks = _blocks(groups, comps)
    sizes = groups.sizes
    cells = sizes * sizes
    skip = None
    if comps is not None and len(comps) < len(sizes):
        keep = np.zeros(len(sizes), dtype=bool)
        keep[comps] = True
        cells[~keep] = 0
        skip = np.repeat(~keep, groups.edge_counts)
    if skip is None and len(groups.runs) == 1:
        halves = _stack_cell_halves(rows, cols, groups.runs[0][0])
    else:
        halves = _cell_halves(rows, cols, *_block_cells(
            groups.starts, sizes, np.cumsum(cells) - cells))
    waves = _waves(blocks, room)
    if len(waves) > 1:  # kept for every wave, as int32 while the cells fit
        halves = [cell.astype(np.int32 if cells.sum() < 2**31 else np.int64)
                  for cell in halves]
    degree = degree.reshape(-1)
    for wave in waves:
        c0, c1, first = wave[0][1], wave[-1][2], wave[0][5]
        e0, e1 = ((0, len(w)) if c1 - c0 == len(sizes) else
                  (int(groups.edge_starts[c0]), int(groups.edge_starts[c1])))
        # measurements of components left out between the wave's own land
        # in a first, spare cell
        spare = int(sum(block[3] for block in wave) < c1 - c0)
        if spare:
            A = np.repeat(np.r_[0.0, shift[c0:c1]], np.r_[1, cells[c0:c1]])
        else:
            A = np.repeat(shift[c0:c1], cells[c0:c1])  # entries start at it
        offset = first - spare  # the global cell at A[0]
        for cell in halves:
            local = cell[e0:e1] - offset if offset else cell[e0:e1]
            if spare:
                local[skip[e0:e1]] = 0
            np.subtract.at(A, local, w[e0:e1])
        out = []
        for size, _, _, count, nodes, at in wave:
            n = count * size * size
            block = slice(at - offset, at - offset + n)
            A[block].reshape(count, size * size)[:, ::size + 1] += \
                degree[nodes].reshape(count, size)
            out.append((size, count, nodes, block))
        yield A, out
        del A, out  # released before the next wave is filled


def _lu_solve(groups: ComponentGroups, flat: np.ndarray, comps=None) -> None:
    """Overwrite the rows of ``flat`` of every component of ``comps`` (all
    when None) with its solve against ``L + shift 11^T``, not yet
    recentered: one assembly, then one LAPACK call per size, which solves
    each matrix alone.

    A wave of the assembly may exceed the largest size's block by as many
    cells as ``flat`` has values: what a per-size solve held besides that
    block, the B(X)X rows its caller kept alive, was at least as large. So
    a small grouping is one wave, and a large one holds no more than the
    per-size solve did."""
    dim = flat.shape[1]
    for A, blocks in _shifted_dense(groups, comps, flat.size):
        for size, count, rows, cells in blocks:
            flat[rows] = np.linalg.solve(
                A[cells].reshape(count, size, size),
                flat[rows].reshape(count, size, dim)).reshape(-1, dim)
        del A


def _dense_min_norm(groups: ComponentGroups, rhs: np.ndarray) -> np.ndarray:
    """LU min-norm solve of every component, whatever its route: the CG
    fallback, and the reference the routes are tested against. ``rhs`` as
    in ``_RoutedStack.solve``."""
    y = np.array(rhs, dtype=np.float64)
    flat = y.reshape(-1, y.shape[-1])
    _lu_solve(groups, flat)
    _recenter(groups, flat)
    return y


def _cholesky(stack: ComponentStack):
    """``cho_factor`` of a stack of one's ``L + shift 11^T``, factored in
    place (the matrix is symmetric, so its transpose is the Fortran-ordered
    copy LAPACK works on); None when Cholesky fails on round-off."""
    [(A, _)] = _shifted_dense(stack)
    A = A.reshape(stack.size, stack.size).T
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
