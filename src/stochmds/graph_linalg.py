"""Weighted graph Laplacians and the minimum-norm solves behind every update.

A measurement batch induces a weighted graph; each connected component gets
its own Laplacian. All coordinate updates reduce to solving ``L y = rhs``
where ``rhs`` has zero column sums, and the minimum-norm (pseudo-inverse)
solution is the one with zero column sums as well.

Every caller goes through one layer, and it sees only the graph (node ids,
edges, weights): ``stress_core`` forms B(X)X once per batch and hands the
layer its rows. ``group_components`` lays a batch's components end to end
in one ``ComponentGroups``: the open ones by size, then the candidates for
the closed form (as many measurements as pairs of nodes) by size; its
callers have stripped the batch of zero weights
(``ObservationBatch.nonzero``). It finds the components by root hooking
(``_component_labels``, after Shiloach and Vishkin): each pass hooks every
edge's larger root onto the smaller and jumps pointers until each node
points at its root, so the roots end up the components' smallest members.
Every two passes at least halve the trees of each component, so labelling
n nodes takes at most 2 ceil(log2 n) passes that hook, and one that finds
nothing left to hook.
Its stable sorts take 16-bit keys whenever the keys fit, which numpy
radix-sorts. A grouping is solved in one pass (``_RoutedStack``), whatever
its number of sizes, and every route takes a run of its components:

- the open components up to ``DENSE_SOLVER_MAX`` nodes lead; one assembly
  (``_shifted_dense``) forms each one's ``L + shift 11^T`` from one pass of
  ``_laplacian_entries`` over their edges, and ``np.linalg.solve`` is
  called once per size on their slice of the right-hand side, so each
  matrix still goes through the same LAPACK call alone. The matrices are
  filled and solved in waves of consecutive sizes, none holding more cells
  than the largest size does, so the assembly's memory stays what a
  per-size assembly needed;
- the larger open components follow, each solved alone by deflated
  conjugate gradients;
- a candidate that is complete, with one measurement per pair, all of one
  weight ``w``, is solved in closed form, ``y = rhs / (w * size)``, with no
  assembly (a pair measured once is complete because it is connected;
  larger candidates are checked against a bitmap of their pairs); one
  that is not is solved alone, as an open component of its size is;
- the solutions are written over the right-hand side and recentered in one
  step.

Every per-component sum in this layer, and in the blend that follows it,
is taken in one place, ``ComponentGroups._sum``: one ``np.bincount`` over
the grouping's component ``labels``, which adds a column's rows in row
order, starting from 0, on every numpy version. Means, recentering (of
every route, kept factors and CG included) and the degree sums behind the
shift all go through it, so their bits do not depend on how numpy orders a
reduction. Only CG's own iterations, whose dot products scipy takes, sum
otherwise.

Batch majorization, whose batch is fixed, has ``_RoutedStack`` keep each
component's factor instead. A component solved on its own is a grouping
of one (``ComponentGroups._stack``); ``build_laplacian`` returns one per
connected component and ``algebraic_connectivity`` takes one.
``_laplacian_entries`` alone decides how measurements become Laplacian
entries (a pair measured twice counts twice); the dense assembly and
``_sparse``, the CSR form behind CG and ``algebraic_connectivity``, read
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import cg as _cg

from .observations import ObservationBatch, _validate_batch_indices

__all__ = [
    "ComponentGroups",
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
    member. Root hooking with pointer jumping (Shiloach & Vishkin, 1982):
    every node points at itself or at a smaller node, so the pointers form
    a forest, and after jumping each node points at its tree's root. A pass
    reads the roots of every edge's ends, hooks each edge's larger root
    onto the smaller (``np.minimum.at`` in both directions, so a root takes
    the smallest root it meets), then jumps pointers until they are stable.
    Pointers only move down, so an unchanged sum of pointers means none
    moved: the loop ends when hooking moves none, that is when the ends of
    every edge share a root. Each tree is then a component and its root its
    smallest member. A pass holds two values per edge, the roots of its
    ends.

    The loop ends within 2 ceil(log2 n) + 1 passes on n nodes. A root that
    neither hooks nor is hooked onto in a pass is smaller than the roots of
    the trees next to its own, and each of those hooked onto a root smaller
    still; so it hooks in the next pass, unless its tree is already its
    component. Every tree of a component that still has two therefore joins
    another within two passes, which at least halves their number.
    """
    if len(m) == 0:
        return np.arange(node_count), node_count
    labels = np.arange(node_count)
    total = labels.sum()
    lm, ln = labels.take(m), labels.take(n)  # the root of each edge's ends
    while True:
        np.minimum.at(labels, lm, ln)
        np.minimum.at(labels, ln, lm)
        hooked = labels.sum()
        if hooked == total:  # every edge within a tree
            break
        total = hooked
        while True:
            up = labels.take(labels)
            jumped = up.sum()
            if jumped == total:
                break
            labels, total = up, jumped
        if not total:  # one component swallowing node 0: connected
            return labels, 1
        labels.take(m, out=lm, mode="clip")  # "raise" would buffer
        labels.take(n, out=ln, mode="clip")
    del lm, ln
    # every node is labelled with its component's smallest member, the one
    # node that labels itself: number those roots in node order
    roots = labels == np.arange(node_count)
    ids = np.cumsum(roots)
    del roots
    ids -= 1
    return ids[labels], int(ids[-1]) + 1


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of integer keys in [0,
    ``bound``). Below 2**16 the keys are sorted as uint16, which numpy
    radix-sorts; on wider keys with many ties it takes timsort, several
    times slower."""
    if bound <= 2**16:
        keys = keys.astype(np.uint16, copy=False)
    return np.argsort(keys, kind="stable")


def _closed_form_candidates(sizes, counts) -> np.ndarray:
    """Per component, whether it may be solved in closed form: it has two
    nodes or more and as many measurements (``counts``) as pairs of nodes,
    size (size - 1) / 2."""
    half = sizes * (sizes - 1) // 2
    return (counts == half) & (half > 0)


@dataclass
class ComponentGroups:
    """Connected components laid end to end, for solves that take every
    component in one pass.

    ``nodes`` holds each component's global node ids in ascending order,
    one component after another, and ``sizes`` the component sizes. The
    open components come first and the closed-form candidates
    (``_closed_form_candidates``) last, from ``tail`` on; sizes never
    decrease within the open part and within the tail, so each route of
    ``_RoutedStack`` takes a run of components. Edge endpoints ``a`` and
    ``b`` index the flattened ``nodes``; edges keep their measured
    orientation and are grouped by component.
    """

    nodes: np.ndarray
    a: np.ndarray
    b: np.ndarray
    weights: np.ndarray
    sizes: np.ndarray

    @property
    def size(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def nnz(self) -> int:
        """Number of measurements (each stores two off-diagonal entries)."""
        return len(self.weights)

    @cached_property
    def runs(self) -> list:
        """Per run of components of one size, ``(size, first, end)``: the
        range of its components."""
        sizes = self.sizes
        cuts = (np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist()
        bounds = [0, *cuts, len(sizes)] if len(sizes) else []
        return [(int(sizes[c0]), c0, c1) for c0, c1 in zip(bounds, bounds[1:])]

    @cached_property
    def starts(self) -> np.ndarray:
        """Where each component's nodes start in the flattened ``nodes``,
        then the node count."""
        out = np.zeros(len(self.sizes) + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=out[1:])
        return out

    @cached_property
    def labels(self) -> np.ndarray:
        """The component of each grouped node."""
        return np.repeat(np.arange(len(self.sizes)), self.sizes)

    @cached_property
    def edge_counts(self) -> np.ndarray:
        """Measurements per component. Every endpoint ``a`` lies in its
        component's node range, so one binary search per component finds
        its first edge. ``group_components`` and ``_stack``, which know the
        counts, set them."""
        return np.diff(np.searchsorted(self.a, self.starts))

    @cached_property
    def edge_starts(self) -> np.ndarray:
        """Where each component's edges start, then the edge count."""
        return np.concatenate(([0], np.cumsum(self.edge_counts)))

    @cached_property
    def tail(self) -> int:
        """Where the closed-form candidates start: the number of open
        components (``group_components``, which knows it, sets it)."""
        return int(np.count_nonzero(
            ~_closed_form_candidates(self.sizes, self.edge_counts)))

    def split(self) -> list:
        """Each component as a grouping of one, in order."""
        return [self._stack(k, k + 1) for k in range(len(self.sizes))]

    def _stack(self, c0: int, c1: int) -> ComponentGroups:
        """Components ``c0`` to ``c1 - 1`` as a grouping of their own: a
        view of the nodes and weights, endpoints renumbered into it (the
        grouping itself when that is every component)."""
        if c0 == 0 and c1 == len(self.sizes):
            return self
        n0, n1 = int(self.starts[c0]), int(self.starts[c1])
        e0, e1 = int(self.edge_starts[c0]), int(self.edge_starts[c1])
        a, b = self.a[e0:e1], self.b[e0:e1]
        if n0:
            a, b = a - n0, b - n0
        part = ComponentGroups(self.nodes[n0:n1], a, b, self.weights[e0:e1],
                               self.sizes[c0:c1])
        part.edge_counts = self.edge_counts[c0:c1]
        return part

    def _complete_weights(self) -> np.ndarray | None:
        """Per component, the weight ``w`` when the component is complete
        with one measurement per unordered pair, all of weight ``w``, and 0
        otherwise; None when no component is.

        Exact and linear in the measurements. Only the candidates, from
        ``tail`` on, can qualify. A pair does: it is connected, so its one
        measurement joins its two nodes. The pairs lead the tail; from
        three nodes up, the diagonal and each measurement's cells (i, j)
        and (j, i) are marked in a p^2 bitmap, the components' bitmaps laid
        end to end; every cell is marked exactly when no pair is measured
        twice and none is a self-loop. Equal degrees are not enough: a
        multigraph can be regular without being complete.
        """
        sizes, t = self.sizes, self.tail
        if t == len(sizes):
            return None
        out = np.zeros(len(sizes))
        t3 = t + int(np.searchsorted(sizes[t:], 3))
        out[t:t3] = self.weights[self.edge_starts[t:t3]]
        if t3 < len(sizes):
            big = self._stack(t3, len(sizes))
            cells = big.sizes * big.sizes
            first = np.cumsum(cells) - cells
            seen = np.zeros(int(first[-1] + cells[-1]), dtype=bool)
            row, col = _block_cells(big, first)
            seen[row + col] = True  # the diagonal
            for key in _cell_halves((big.a, big.b), (big.b, big.a), row, col):
                seen[key] = True
            w, head = big.weights, big.edge_starts[:-1]
            w0 = np.minimum.reduceat(w, head)
            ok = (np.logical_and.reduceat(seen, first)
                  & (w0 == np.maximum.reduceat(w, head)))
            out[t3:][ok] = w0[ok]
        return out if out.any() else None

    def _sum(self, column: np.ndarray) -> np.ndarray:
        """Per component, the sum of its entries of ``column`` (one per
        node), added in row order: the one per-component sum."""
        return np.bincount(self.labels, weights=column,
                           minlength=len(self.sizes))

    def _means(self, v: np.ndarray) -> np.ndarray:
        """Per component, the column means of its rows of ``v`` (one row
        per node)."""
        sums = np.empty((len(self.sizes), v.shape[1]))
        for col in range(v.shape[1]):
            sums[:, col] = self._sum(v[:, col])
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


class _RoutedStack:
    """The one place that picks each component's route from the data.

    Every route takes a run of the grouping's components. The open ones up
    to ``DENSE_SOLVER_MAX`` nodes lead (``lu``, a ``_stack`` of them, None
    when there are none): they are assembled in one pass and solved by one
    LU call per size (``_lu_solve``) on their slice of the right-hand side.
    The open ones above it follow, each solved alone by deflated CG, a
    grouping of one. The candidates close the grouping: a complete one of
    one weight ``w`` (``_complete_weights``) has ``pinv(L) = (I - 11^T /
    size) / (w * size)`` and needs no solve, and one that is not complete
    is solved alone, by LU (by CG above ``DENSE_SOLVER_MAX``).

    After ``keep_factors``, every component not solved in closed form is
    solved alone and keeps what its route reuses: the Cholesky factor of
    ``L + shift 11^T``, factored in place (None when Cholesky fails, as on
    a path with a 1e-20 weight: the component is then solved by LU), or
    its CG system. Every route's solutions are recentered together, after
    the last is written. Kept solves equal one-shot ones bit for bit by LU
    and CG and to round-off by Cholesky.
    """

    def __init__(self, groups: ComponentGroups):
        self.groups = groups
        sizes, t = groups.sizes, groups.tail
        d = int(np.searchsorted(sizes[:t], DENSE_SOLVER_MAX, side="right"))
        self.lu = groups._stack(0, d) if d else None
        w = groups._complete_weights()
        self.w = None if w is None else w[t:]  # per candidate
        failed = (range(t, len(sizes)) if w is None
                  else (t + np.flatnonzero(self.w == 0)).tolist())
        # the components solved on their own: rows, grouping of one, and
        # what their solve reuses
        self.alone = [(self._rows(k), groups._stack(k, k + 1), None)
                      for k in [*range(d, t), *failed]]

    def _rows(self, k: int) -> slice:
        return slice(*self.groups.starts[k:k + 2].tolist())

    def keep_factors(self) -> _RoutedStack:
        d = 0 if self.lu is None else len(self.lu.sizes)
        dense = [(self._rows(k), self.groups._stack(k, k + 1), None)
                 for k in range(d)]
        self.alone = [(rows, single, _cholesky(single)
                       if single.size <= DENSE_SOLVER_MAX
                       else _cg_system(single))
                      for rows, single, _ in dense + self.alone]
        self.lu = None
        return self

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Min-norm solves of every component; ``rhs`` holds one row per
        node (or is (count, size, dim) for one size), with zero column sums
        per component, and so does the result."""
        return self.solve_in_place(np.array(rhs, dtype=np.float64))

    def solve_in_place(self, y: np.ndarray) -> np.ndarray:
        """``solve`` written over ``y``, a C-ordered right-hand side."""
        groups = self.groups
        flat = y.reshape(-1, y.shape[-1])
        for rows, single, reused in self.alone:
            flat[rows] = _solve_alone(single, flat[rows], reused)
        if self.lu is not None:
            _lu_solve(self.lu, flat[:self.lu.size])
        if self.w is not None:
            t = groups.tail
            sizes = groups.sizes[t:]
            closed = np.where(self.w > 0, self.w * sizes, 1.0)
            flat[groups.starts[t]:] /= np.repeat(closed, sizes)[:, None]
        _recenter(groups, flat)
        return y


def _solve_alone(single: ComponentGroups, rhs: np.ndarray, reused):
    """One component's solve, not yet recentered: by CG above
    ``DENSE_SOLVER_MAX`` (``reused`` its kept system, if any), else by its
    kept Cholesky factor, or by LU, in place, when it has none."""
    if single.size > DENSE_SOLVER_MAX:
        return _solve_cg(single, rhs, reused)
    if reused is None:
        return _lu_solve(single, rhs)
    return cho_solve(reused, rhs, check_finite=False)


def _recenter(groups: ComponentGroups, flat: np.ndarray) -> None:
    """Subtract from every component's rows of ``flat`` their mean."""
    flat -= groups._spread(groups._means(flat))


def _block_cells(groups: ComponentGroups, first):
    """Per node of ``groups``, whose component k owns the size x size
    block (C order) at cell ``first[k]`` of a buffer of blocks: where the
    node's row of that block starts, and the node's column in it. Cell
    (r, c) is ``row[r] + col[c]``."""
    labels = groups.labels
    col = np.arange(len(labels)) - groups.starts[labels]
    row = groups.sizes[labels] * col
    row += first[labels]
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


def _laplacian_entries(groups: ComponentGroups):
    """The one place that decides how a grouping's measurements become
    Laplacian entries: each adds its own weight ``w``, ``-w`` at (a, b) and
    (b, a) and ``w`` to both degrees.

    Returns ``(rows, cols, w, degree, shift)``: measurement k subtracts
    ``w[k]`` at ``(rows[h][k], cols[h][k])`` for h = 0, 1 (positions in
    ``nodes``); ``degree`` holds one value per node; adding
    ``shift[k]`` to every entry makes L_k nonsingular without changing it
    on zero-sum vectors.
    """
    a, b, w = groups.a, groups.b, groups.weights
    degree = np.bincount(a, weights=w, minlength=groups.size)
    degree += np.bincount(b, weights=w, minlength=groups.size)
    size = groups.sizes
    shift = np.maximum(groups._sum(degree) / size, 1.0) / size
    return (a, b), (b, a), w, degree, shift


def _sparse(single: ComponentGroups):
    """CSR Laplacian of a grouping of one, its degrees and its shift."""
    rows, cols, w, degree, shift = _laplacian_entries(single)
    off = -w
    diag = np.arange(single.size)
    L = sp.csr_matrix(
        (np.concatenate([off, off, degree]),
         (np.concatenate([*rows, diag]), np.concatenate([*cols, diag]))),
        shape=(single.size, single.size))
    return L, degree, float(shift[0])


def group_components(batch: ObservationBatch, node_count: int,
                     singletons: bool = False) -> ComponentGroups:
    """Group a batch's edges by connected component. Every weight must be
    positive: callers hand in ``batch.nonzero()``, so a chunk's zero
    weights are dropped once, by its caller.

    Returns the components ordered by (closed-form candidate, size,
    smallest member): the open ones by size, then the candidates
    (``_closed_form_candidates``) by size, so each route of
    ``_RoutedStack`` takes a run of them. Isolated nodes lead, as size-1
    components, only with ``singletons``. Node ids ascend inside a
    component and edges keep batch order. Each temporary is released once
    used, so grouping holds a few values per node and per edge at a time.
    """
    m, n = batch.m, batch.n
    labels, n_comp = _component_labels(m, n, node_count)
    if n_comp == 1:  # connected: already in order
        keep = node_count > 1 or singletons
        return ComponentGroups(np.arange(node_count if keep else 0), m, n,
                               batch.weight,
                               np.array([node_count] * keep, dtype=np.int64))
    sizes = np.bincount(labels, minlength=n_comp)
    edge_label = labels[m]
    counts = np.bincount(edge_label, minlength=n_comp)
    cand = _closed_form_candidates(sizes, counts)
    # rank components by (candidate, size, label): labels ascend, so a
    # stable sort by the first two gives that order
    by_key = _stable_argsort(sizes + (node_count + 1) * cand,
                             2 * (node_count + 1))
    rank = np.empty(n_comp, dtype=np.int64)
    rank[by_key] = np.arange(n_comp)
    labels = rank[labels]  # each node's component rank
    edge_label = rank[edge_label]
    del rank
    sizes, counts = sizes[by_key], counts[by_key]
    # isolated nodes lead, and no later size is below 2; without
    # singletons they are left out
    skip = 0 if singletons else int(np.searchsorted(sizes, 2))
    nodes = _stable_argsort(labels, n_comp)
    order = _stable_argsort(edge_label, n_comp)
    del edge_label
    position = labels  # each node's place in the grouped nodes
    position[nodes] = np.arange(-skip, node_count - skip)
    a, b = position[m[order]], position[n[order]]
    del labels, position
    w = batch.weight[order]
    del order
    if skip:  # a copy, so that the isolated nodes are not held
        nodes, sizes = nodes[skip:].copy(), sizes[skip:].copy()
        counts = counts[skip:].copy()
    groups = ComponentGroups(nodes, a, b, w, sizes)
    # the cached properties, known here already
    groups.edge_counts = counts
    groups.tail = len(sizes) - np.count_nonzero(cand)
    return groups


def build_laplacian(batch: ObservationBatch, node_count: int) -> list:
    """One ``ComponentGroups`` of one component per connected component.

    Components are ordered by their smallest member. Isolated nodes appear as
    singleton components with empty edge sets (skipped by all solvers).
    """
    _validate_batch_indices(batch, node_count)
    comps = group_components(batch.nonzero(), node_count,
                             singletons=True).split()
    comps.sort(key=lambda c: c.nodes[0])
    return comps


def _waves(groups: ComponentGroups, cells: np.ndarray, room: int) -> list:
    """The grouping's size runs (``runs``) in consecutive waves, each
    holding at most as many ``cells`` (one count per component) as the
    largest run plus ``room`` (or one run)."""
    runs = groups.runs
    if len(runs) < 2:
        return [runs] if runs else []
    blocks = [int(cells[c0]) * (c1 - c0) for _, c0, c1 in runs]
    budget = max(blocks) + room
    waves, held = [], None
    for run, n in zip(runs, blocks):
        if held is None or held + n > budget:
            waves.append([])
            held = 0
        waves[-1].append(run)
        held += n
    return waves


def _shifted_dense(groups: ComponentGroups, room: int = 0):
    """The one dense assembly: every component of ``groups`` as its ``L +
    shift 11^T``, nonsingular and equal to L on zero-sum vectors. One pass
    of ``_laplacian_entries`` and one of ``_cell_halves`` serve every
    component; the matrices are then filled and handed out wave by wave,
    each wave no larger than the largest size run's blocks plus ``room``
    cells (``_waves``). Yields ``(A, blocks)``: a flat buffer of size x
    size blocks in component order, and per size run ``(size, count, rows,
    cells)``, its components' rows and their slice of ``A``.
    """
    rows, cols, w, degree, shift = _laplacian_entries(groups)
    sizes, starts = groups.sizes, groups.starts
    cells = sizes * sizes
    first = np.cumsum(cells) - cells
    halves = _cell_halves(rows, cols, *_block_cells(groups, first))
    waves = _waves(groups, cells, room)
    if len(waves) > 1:  # kept for every wave, as int32 while the cells fit
        halves = [cell.astype(np.int32 if cells.sum() < 2**31 else np.int64)
                  for cell in halves]
    for wave in waves:
        c0, c1 = wave[0][1], wave[-1][2]
        e0, e1 = ((0, len(w)) if c1 - c0 == len(sizes) else
                  (int(groups.edge_starts[c0]), int(groups.edge_starts[c1])))
        A = np.repeat(shift[c0:c1], cells[c0:c1])  # entries start at it
        offset = int(first[c0])  # the global cell at A[0]
        for cell in halves:
            local = cell[e0:e1] - offset if offset else cell[e0:e1]
            np.subtract.at(A, local, w[e0:e1])
        out = []
        for size, r0, r1 in wave:
            count, n0, n1 = r1 - r0, int(starts[r0]), int(starts[r1])
            at = int(first[r0]) - offset
            block = slice(at, at + count * size * size)
            A[block].reshape(count, size * size)[:, ::size + 1] += \
                degree[n0:n1].reshape(count, size)
            out.append((size, count, slice(n0, n1), block))
        yield A, out
        del A, out  # released before the next wave is filled


def _lu_solve(groups: ComponentGroups, flat: np.ndarray) -> np.ndarray:
    """Overwrite ``flat`` (one row per node of ``groups``) with every
    component's solve against ``L + shift 11^T``, not yet recentered, and
    return it: one assembly, then one LAPACK call per size run, which
    solves each matrix alone.

    A wave of the assembly may exceed the largest run's blocks by as many
    cells as ``flat`` has values: what a per-size solve held besides that
    block, the B(X)X rows its caller kept alive, was at least as large. So
    a small grouping is one wave, and a large one holds no more than the
    per-size solve did."""
    dim = flat.shape[1]
    for A, blocks in _shifted_dense(groups, flat.size):
        for size, count, rows, cells in blocks:
            flat[rows] = np.linalg.solve(
                A[cells].reshape(count, size, size),
                flat[rows].reshape(count, size, dim)).reshape(-1, dim)
        del A
    return flat


def _cholesky(single: ComponentGroups):
    """``cho_factor`` of a grouping of one's ``L + shift 11^T``, factored in
    place (the matrix is symmetric, so its transpose is the Fortran-ordered
    copy LAPACK works on); None when Cholesky fails on round-off."""
    [(A, _)] = _shifted_dense(single)
    A = A.reshape(single.size, single.size).T
    try:
        return cho_factor(A, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None


def _cg_system(single: ComponentGroups):
    """What CG needs of a grouping of one: its CSR Laplacian, the shifted
    operator ``L + shift 11^T`` and the Jacobi preconditioner."""
    p = single.size
    L, degree, shift = _sparse(single)
    A = sp.linalg.LinearOperator(
        (p, p), matvec=lambda v: L @ v + shift * v.sum(), dtype=np.float64
    )
    return L, A, sp.diags(1.0 / (degree + shift))


def _solve_cg(single: ComponentGroups, rhs: np.ndarray,
              system=None) -> np.ndarray:
    """Deflated CG solve for a grouping of one, not yet recentered; ``rhs``
    is (size, dim). ``system`` is its ``_cg_system``, built here when not
    given. Falls back to LU (``_lu_solve`` on a copy of ``rhs``, not yet
    recentered either) if CG does not converge."""
    p = single.size
    L, A, M = system or _cg_system(single)
    y = np.empty_like(rhs)
    for col in range(rhs.shape[1]):
        b = rhs[:, col]
        sol, info = _cg(A, b, rtol=_CG_TOL, atol=0.0, maxiter=50 * p, M=M)
        if info != 0:
            return _lu_solve(single, rhs.copy())
        y[:, col] = sol
    resid = np.linalg.norm(L @ y - rhs)
    if resid > 1e-9 * max(np.linalg.norm(rhs), 1e-300):
        return _lu_solve(single, rhs.copy())
    return y


def algebraic_connectivity(single: ComponentGroups) -> float:
    """Second-smallest Laplacian eigenvalue (reciprocal of the pseudo-inverse
    spectral norm) of a connected component, given as a grouping of one."""
    if single.size < 2:
        raise ValueError("algebraic connectivity is undefined for singletons")
    vals = np.linalg.eigvalsh(_sparse(single)[0].toarray())
    return float(vals[1])
