"""Plain reference paths for the library's fast paths, one per fast path.

Each reference computes what a fast path computes the obvious way: Python
loops, dense matrices or one call per cluster. Its docstring names the fast
path it checks, and the tests compare the two, bit for bit where the fast
path promises that. Nothing here is imported by the library.
"""

import io
import warnings

import numpy as np

from stochmds import ObservationBatch, sgd_step, smacof_iterate, \
    stochastic_step, stress
from stochmds import data_io, graph_linalg
from stochmds.graph_linalg import DENSE_SOLVER_MAX, group_components
from stochmds.sampling import _decode_pairs, _pair_count, assign_weights
from stochmds.stress_core import _b_times_x, _regularized_coeffs


# ---------------------------------------------------------------------------
# graph_linalg: labels, grouping, assembly and solves


def union_find(m, n, node_count):
    """A plain union-find over ``node_count`` nodes joined by the edges
    ``(m[k], n[k])``: its ``find``, with path halving."""
    parent = list(range(node_count))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in zip(m, n):
        parent[find(a)] = find(b)
    return find


def union_find_labels(m, n, node_count):
    """Checks ``graph_linalg._component_labels``: component labels by a
    plain union-find, numbered in order of each component's smallest
    member, and their count."""
    find = union_find(m, n, node_count)
    smallest = {}
    for v in range(node_count):
        smallest.setdefault(find(v), v)  # v ascends: first is smallest
    rank = {root: k for k, root in
            enumerate(sorted(smallest, key=smallest.get))}
    return [rank[find(v)] for v in range(node_count)], len(rank)


def size_stacks(groups):
    """A grouping's components as one grouping per run of one size, in
    order."""
    return [groups._stack(c0, c1) for _, c0, c1 in groups.runs]


def reference_stacks(m, n, w, node_count, singletons):
    """Checks ``graph_linalg.group_components`` (as ``size_stacks`` cuts
    it), by union-find and Python lists: per run of one size, the open
    components (fewer measurements than pairs of nodes) by size, ascending,
    then the candidates (as many) by size, ascending; components by
    smallest member, each component's nodes ascending and its edges in
    batch order, in flattened local ids."""
    find = union_find(m, n, node_count)
    members = {}
    for v in range(node_count):
        members.setdefault(find(v), []).append(v)

    def key(comp):
        p, count = len(comp), sum(find(a) == find(comp[0]) for a in m)
        return (p > 1 and count == p * (p - 1) // 2, p, comp[0])

    by_run = {}
    for comp in sorted(members.values(), key=key):
        if len(comp) > 1 or singletons:
            by_run.setdefault(key(comp)[:2], []).append(comp)
    out = []
    for (_, size), group in by_run.items():
        place = {v: k * size + i for k, comp in enumerate(group)
                 for i, v in enumerate(comp)}
        edges = [(place[a], place[b], x) for comp in group
                 for a, b, x in zip(m, n, w) if a in comp]
        out.append(([v for comp in group for v in comp],
                    [e[0] for e in edges], [e[1] for e in edges],
                    [e[2] for e in edges]))
    return out


def sequential_sum(rows):
    """Checks ``ComponentGroups._sum``: ``rows.sum(axis=0)``, added one row
    at a time in row order, starting from 0."""
    total = np.zeros(rows.shape[1:])
    for row in rows:
        total += row
    return total


def plain_component(p, edges):
    """Checks ``graph_linalg._shifted_dense``: one component's ``L + shift
    11^T`` entry by entry. The shift, then -w at every (i, j) in
    measurement order, then at every (j, i), then the degree, each end's
    sum taken in measurement order; the shift sums the degrees in node
    order."""
    ends = np.zeros((2, p))
    for i, j, w in edges:
        ends[0, i] += w
    for i, j, w in edges:
        ends[1, j] += w
    degree = ends[0] + ends[1]
    L = np.full((p, p), max(sequential_sum(degree) / p, 1.0) / p)
    for i, j, w in edges:
        L[i, j] -= w
    for i, j, w in edges:
        L[j, i] -= w
    L[np.arange(p), np.arange(p)] += degree
    return L


def plain_solve(p, edges, rhs):
    """Checks ``graph_linalg._RoutedStack``: one component's min-norm solve
    by the route a plain reading of its measurements picks. Closed form
    when every pair is measured once at one weight, CG above
    ``DENSE_SOLVER_MAX``, else one LU solve."""
    pairs = [(min(i, j), max(i, j)) for i, j, _ in edges]
    weights = {w for _, _, w in edges}
    complete = (len(pairs) == p * (p - 1) // 2 == len(set(pairs))
                and all(i != j for i, j in pairs) and len(weights) == 1)
    if complete:
        y = rhs / (weights.pop() * p)
    elif p > DENSE_SOLVER_MAX:
        a, b, w = (np.array(col) for col in zip(*edges))
        y = graph_linalg._solve_cg(graph_linalg.ComponentGroups(
            np.arange(p), a, b, w, np.array([p])), rhs)
    else:
        y = np.linalg.solve(plain_component(p, edges), rhs)
    return y - sequential_sum(y) / p


def dense_min_norm(groups, rhs):
    """Checks every route of ``ComponentGroups.solve``: the LU min-norm
    solve of every component, whatever its route. ``rhs`` as in
    ``_RoutedStack.solve``. It calls ``graph_linalg._lu_solve`` through the
    module, so a test's stand-in for it sees this call too."""
    y = np.array(rhs, dtype=np.float64)
    graph_linalg._recenter(
        groups, graph_linalg._lu_solve(groups, y.reshape(-1, y.shape[-1])))
    return y


# ---------------------------------------------------------------------------
# stress_core: edge lengths, B(X)X and the updates


def per_edge_squares(X, m, n):
    """Checks ``stress_core._squared_lengths`` and
    ``_squared_lengths_from``: ||x_m - x_n||^2 one measurement at a time
    in Python floats, from 0.0, each column's squared difference added in
    column order."""
    out = np.empty(len(m))
    for k, (i, j) in enumerate(zip(m.tolist(), n.tolist())):
        d2 = 0.0
        for a, b in zip(X[i].tolist(), X[j].tolist()):
            d2 += (a - b) * (a - b)
        out[k] = d2
    return out


def per_edge_stress(X, batch):
    """Checks ``stress`` and ``_BatchPlan.stress_at``: the sum of w *
    (delta - d)^2 over the measurements, d from ``per_edge_squares``; a
    zero-weight row's delta is read as 0, so it adds 0 whatever it holds."""
    d = np.sqrt(per_edge_squares(X, batch.m, batch.n))
    delta = np.where(batch.weight > 0, batch.delta, 0.0)
    return float(np.sum(batch.weight * (delta - d) ** 2))


def per_edge_b_times_x(X, m, n, coef):
    """Checks ``stress_core._b_times_x``: B(X)X one measurement at a time.
    +coef * (x_m - x_n) goes into row m and the same into row n's own sum,
    each row's sums taken in batch order; then the two sums are
    subtracted."""
    plus, minus = np.zeros(X.shape), np.zeros(X.shape)
    for i, j, c in zip(m.tolist(), n.tolist(), coef.tolist()):
        for col in range(X.shape[1]):
            v = c * (float(X[i, col]) - float(X[j, col]))
            plus[i, col] += v
            minus[j, col] += v
    return plus - minus


def fancy_index_squares(X, m, n):
    """||x_m - x_n||^2 from whole fancy-index copies ``X[m] - X[n]``: from
    zeros, each column's squares added in column order."""
    diff = X[m] - X[n]
    d2 = np.zeros(len(diff))
    for col in diff.T:
        d2 += col * col
    return d2


def fancy_index_coeffs(X, m, n, w, delta, eps_x):
    """Checks ``stress_core._regularized_coeffs`` against fancy-index
    copies: w delta / sqrt(d^2 + eps_x), or, at eps_x 0, w delta / d with 0
    where the endpoints coincide."""
    d2 = fancy_index_squares(X, m, n)
    if eps_x > 0:
        return w * delta / np.sqrt(d2 + eps_x)
    coef = np.zeros_like(d2)
    pos = d2 > 0
    coef[pos] = (w[pos] * delta[pos]) / np.sqrt(d2[pos])
    return coef


def fancy_index_b_times_x(X, m, n, coef):
    """Checks ``stress_core._b_times_x`` against fancy-index copies: the
    edge terms coef * (x_m - x_n) summed into rows m and n by ``bincount``
    one column at a time, the n sums subtracted from the m sums."""
    contrib = coef[:, None] * (X[m] - X[n])
    out = np.empty_like(X)
    for col in range(X.shape[1]):
        out[:, col] = (
            np.bincount(m, weights=contrib[:, col], minlength=len(X))
            - np.bincount(n, weights=contrib[:, col], minlength=len(X)))
    return out


def fancy_index_stress(X, batch):
    """Checks ``stress`` against fancy-index copies, for batches whose
    deltas are all finite."""
    d = np.sqrt(fancy_index_squares(X, batch.m, batch.n))
    return float(np.sum(batch.weight * (batch.delta - d) ** 2))


def b_epsilon_dense(X, b, eps_x):
    """Checks ``stress_core._b_times_x`` as a matrix: the dense B^eps(X) of
    a batch, the Laplacian of the regularized edge coefficients, with exact
    zero row sums."""
    coef = _regularized_coeffs(X, b.m, b.n, b.weight, b.delta, eps_x)
    B = np.zeros((len(X), len(X)))
    np.add.at(B, (b.m, b.n), -coef)
    np.add.at(B, (b.n, b.m), -coef)
    B[np.diag_indices_from(B)] = -B.sum(axis=1)
    return B


def reference_solution(X, comps, batch, eps_x):
    """Checks ``stochastic_step`` and ``smacof_iterate`` per component:
    pinv(L_C) B^eps(X_C) X_C from dense matrices, with every measurement
    adding its own entry. Returns it keyed by the component's node ids."""
    out = {}
    live = batch.nonzero()
    for nodes in comps:
        p = len(nodes)
        local = {int(v): k for k, v in enumerate(nodes)}
        L = np.zeros((p, p))
        B = np.zeros((p, p))
        Xc = X[nodes]
        for m, n, d, w in zip(live.m, live.n, live.delta, live.weight):
            if int(m) not in local:
                continue
            i, j = local[int(m)], local[int(n)]
            dist2 = float(np.sum((Xc[i] - Xc[j]) ** 2))
            coef = w * d / np.sqrt(dist2 + eps_x)
            L[i, j] -= w
            L[j, i] -= w
            B[i, j] -= coef
            B[j, i] -= coef
        np.fill_diagonal(L, -L.sum(axis=1))
        np.fill_diagonal(B, -B.sum(axis=1))
        out[tuple(nodes)] = np.linalg.pinv(L) @ B @ Xc
    return out


def per_stack_update(Xn, batch, cfg, nodes):
    """Checks ``stress_core._damped_update``: the update one size-stack at
    a time, in place on ``Xn``. Each stack takes its own route, solve,
    center and blend, as the kernel applied it before it took a whole chunk
    in one pass."""
    mu = cfg.mu
    live = batch.nonzero()
    X = np.take(Xn, nodes, axis=0)
    coef = _regularized_coeffs(X, live.m, live.n, live.weight, live.delta,
                               cfg.eps_x)
    bx = _b_times_x(X, live.m, live.n, coef)
    for stack in size_stacks(group_components(live, len(nodes))):
        count, size = len(stack.sizes), int(stack.sizes[0])
        local = stack.nodes.reshape(count, size)
        rows = nodes[local]
        Xc = np.take(Xn, rows, axis=0)
        y = stack.solve(np.take(bx, local, axis=0))
        # each center summed one row at a time, in row order
        center = np.zeros((count, 1, Xc.shape[2]))
        for k in range(size):
            center[:, 0] += Xc[:, k]
        center /= size
        Xn[rows] = (1.0 - mu) * Xc + mu * center + mu * y


# ---------------------------------------------------------------------------
# embedder: the slot kernel, its chunking and the batch plan


def sample_local_pairs(size, rng, q=None, fraction=None):
    """Checks one cluster's draw in ``embedder._sample_chunk``: a uniform
    random subset of pairs over ``size`` items, as local index arrays
    ``(a, b)`` with ``a < b``. Requests beyond the number of available
    pairs are clamped with a warning.

    The subset is one ``rng.choice(..., replace=False, shuffle=False)``
    draw of pair indices: numpy's Floyd draw, or, for a request of more
    than a twentieth of over 10,000 pairs, a partial shuffle of the index
    range's tail. Floyd's draw costs time in the pairs drawn, not in the
    size*(size-1)/2 available. The pairs come in no particular order.
    """
    if size < 2:
        raise ValueError("cluster must have at least 2 nodes")
    q = _pair_count(size, q, fraction)
    k = rng.choice(size * (size - 1) // 2, q, replace=False, shuffle=False)
    return _decode_pairs(k, size)


def per_cluster_slot(X, provider, clusters, sampler, rng, noise_sigma, cfg,
                     mode):
    """Checks a sampled slot of ``run_stochastic`` and an averaging sample
    of the empirical oracle (``_sample_chunk`` and ``_apply_slot``): one
    mini-batch and one public update per cluster, drawn from the slot's
    stream in cluster order. Returns the new embedding."""
    Xn = X.copy()
    for cluster in clusters:
        a, b = sample_local_pairs(len(cluster), rng, q=sampler.q,
                                  fraction=sampler.fraction)
        delta = provider.pairs(cluster[a], cluster[b])
        if noise_sigma > 0:
            delta = delta + noise_sigma * rng.standard_normal(len(delta))
        w = assign_weights(delta, sampler.scheme, eps_w=cfg.eps_w,
                           clamp=(mode != "sgd"))
        mini = ObservationBatch(a, b, delta, w)
        if mode == "sgd":
            Xn[cluster] = sgd_step(Xn[cluster], mini, cfg.mu)
        else:
            Xn[cluster] = stochastic_step(Xn[cluster], mini, cfg)
    return Xn


def greedy_chunks(sizes, counts, limit):
    """Checks ``embedder._slot_plan``: consecutive clusters, cut before a
    cluster that would take the chunk's nodes plus twice its pairs over
    ``limit``; a chunk holds at least one cluster. Returns the clusters per
    chunk."""
    runs, total = [], 0
    for size, count in zip(sizes, counts):
        cost = size + 2 * count
        if not runs or total + cost > limit:
            runs.append(0)
            total = 0
        runs[-1] += 1
        total += cost
    return runs


def plain_batch_run(batch, init, tol, max_iters):
    """Checks ``run_batch_smacof``'s batch plan (``_BatchPlan``): a loop of
    one-shot ``smacof_iterate`` and ``stress`` calls. Returns the final
    embedding and the stresses."""
    X = init.copy()
    prev = stress(X, batch)
    stresses = [prev]
    for _ in range(max_iters):
        Xn = smacof_iterate(X, batch)
        if not np.all(np.isfinite(Xn)):
            break
        X = Xn
        cur = stress(X, batch)
        stresses.append(cur)
        if (prev - cur) < tol * max(prev, 1e-300):
            break
        prev = cur
    return X, stresses


# ---------------------------------------------------------------------------
# localization: a round's stars


def per_head_stars(positions, declares, locked, radius, min_neighbors,
                   max_members):
    """Checks ``localization._partition_stars``: the round's head loop one
    head at a time, each head's ranges one ``np.linalg.norm`` row over all
    nodes, each star's locks written through ``locked`` as it is formed.
    Returns the stars laid end to end (each head, then its members), their
    sizes, their head-to-member ranges and the solicitation, response and
    abort counts."""
    solicitations = responses = aborted = 0
    stars, ranges = [], []
    for head in declares.tolist():
        if locked[head]:
            continue  # captured by an earlier star
        solicitations += 1
        dist = np.linalg.norm(positions - positions[head], axis=1)
        candidates = np.flatnonzero((dist <= radius) & ~locked)
        candidates = candidates[candidates != head]
        if len(candidates) < min_neighbors:
            responses += len(candidates)
            aborted += 1
            continue
        order = np.argsort(dist[candidates], kind="stable")
        members = candidates[order[:max_members]]
        responses += len(members)
        star = np.r_[head, members]
        locked[star] = True
        stars.append(star)
        ranges.append(dist[members])
    sizes = np.array([len(star) for star in stars], dtype=np.intp)
    if not stars:
        return (np.empty(0, dtype=np.intp), sizes, np.empty(0),
                (solicitations, responses, aborted))
    return (np.concatenate(stars), sizes, np.concatenate(ranges),
            (solicitations, responses, aborted))


# ---------------------------------------------------------------------------
# data_io: edge lists


def line_loop_parse(text, node_count):
    """Checks ``parse_edge_list``'s vectorized pass: what its line loop
    alone gives for ``text``, duplicate warning included. It calls the loop
    through ``data_io``, so a test's stand-in for it sees this call too."""
    batch, dupes = data_io._parse_lines(
        data_io._read_lines(io.StringIO(text)), node_count)
    if dupes:
        warnings.warn(f"{dupes} duplicate pair(s); last occurrence wins")
    return batch


def serialize_edge_list(batch):
    """An edge list that ``parse_edge_list`` reads back as ``batch``: one
    tab-separated line per measurement, floats in their shortest exact
    form."""
    lines = [
        f"{int(m)}\t{int(n)}\t{float(d)!r}\t{float(w)!r}"
        for m, n, d, w in zip(batch.m, batch.n, batch.delta, batch.weight)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
