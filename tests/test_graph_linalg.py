"""Laplacian construction, component detection, and min-norm solves.

``build_laplacian`` returns one ``ComponentGroups`` of one component per
connected component; the tests read node ids from ``nodes``, degrees from
``_laplacian_entries`` and dense matrices from ``_sparse``, the assembly the
CG solve and ``algebraic_connectivity`` run on."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmds import ObservationBatch, StepConfig, algebraic_connectivity, \
    build_laplacian, smacof_iterate, stochastic_step
from stochmds import graph_linalg
from stochmds.graph_linalg import DENSE_SOLVER_MAX, _RoutedStack, \
    _component_labels, _dense_min_norm, _laplacian_entries, _sparse, \
    _stable_argsort, group_components


def batch(entries):
    return ObservationBatch.from_entries(entries)


def dense(single):
    """A grouping of one's Laplacian as an array."""
    return _sparse(single)[0].toarray()


def min_norm(single, rhs):
    """Min-norm solve of one component, as every update does it."""
    return single.solve(rhs)


def spy(monkeypatch, name):
    """Replace ``graph_linalg.<name>`` by a wrapper that records its calls."""
    calls = []
    real = getattr(graph_linalg, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_linalg, name, wrapper)
    return calls


def random_connected_graph(rng, p, w_lo, w_hi=1.0):
    """Random spanning tree plus extra edges, weights in [w_lo, w_hi]."""
    edges = []
    for v in range(1, p):
        u = int(rng.integers(0, v))
        edges.append((u, v))
    tree = set(edges)  # the extra pairs are distinct; only the tree repeats
    iu, ju = np.triu_indices(p, k=1)
    extra = rng.random(len(iu)) < 0.3
    for u, v in zip(iu[extra].tolist(), ju[extra].tolist()):
        if (u, v) not in tree:
            edges.append((u, v))
    w = rng.uniform(w_lo, w_hi, size=len(edges))
    return batch([(u, v, 1.0, wk) for (u, v), wk in zip(edges, w)])


class TestBuildLaplacian:
    def test_two_edge_chain(self):
        laps = build_laplacian(batch([(0, 1, 1.0, 1.0), (1, 2, 1.0, 2.0)]), 3)
        assert len(laps) == 1
        expected = np.array([[1., -1., 0.], [-1., 3., -2.], [0., -2., 2.]])
        np.testing.assert_array_equal(dense(laps[0]), expected)

    def test_empty_graph_gives_singletons(self):
        laps = build_laplacian(ObservationBatch.empty(), 2)
        assert len(laps) == 2
        assert all(len(l.sizes) == 1 and l.size == 1 and l.nnz == 0
                   for l in laps)

    def test_two_components(self):
        laps = build_laplacian(batch([(0, 1, 1.0, 1.0), (2, 3, 1.0, 1.0)]), 4)
        assert len(laps) == 2
        assert [len(l.sizes) for l in laps] == [1, 1]
        np.testing.assert_array_equal(laps[0].nodes, [0, 1])
        np.testing.assert_array_equal(laps[1].nodes, [2, 3])
        # split() carries each component's own measurements
        np.testing.assert_array_equal(laps[1].a, [0])
        np.testing.assert_array_equal(laps[1].b, [1])

    def test_zero_row_sums(self):
        """Diagonal equals the negated off-diagonal row sum by definition."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(2, 12))
            lap = build_laplacian(random_connected_graph(rng, p, 0.1), p)[0]
            assert np.all(lap.weights > 0) and np.all(lap.a != lap.b)
            degree = _laplacian_entries(lap)[3]
            expected = (
                np.bincount(lap.a, weights=lap.weights, minlength=p)
                + np.bincount(lap.b, weights=lap.weights, minlength=p))
            np.testing.assert_array_equal(degree, expected)
            L = dense(lap)
            np.testing.assert_array_equal(np.diag(L), degree)
            assert np.max(np.abs(L.sum(axis=1))) < 1e-12

    def test_repeated_pair_counts_once_per_measurement(self):
        lap = build_laplacian(
            batch([(0, 1, 1.0, 0.5), (1, 0, 1.0, 1.0), (1, 2, 1.0, 1.0)]), 3)[0]
        assert lap.nnz == 3
        np.testing.assert_array_equal(_laplacian_entries(lap)[3],
                                      [1.5, 2.5, 1.0])
        expected = np.array([[1.5, -1.5, 0.], [-1.5, 2.5, -1.], [0., -1., 1.]])
        L = dense(lap)
        np.testing.assert_array_equal(L, expected)
        np.testing.assert_array_equal(L.sum(axis=1), np.zeros(3))

    def test_rejects_bad_indices_and_weights(self):
        with pytest.raises(ValueError):
            build_laplacian(batch([(0, 5, 1.0, 1.0)]), 3)
        bad = ObservationBatch(np.array([0]), np.array([1]),
                               np.array([1.0]), np.array([-0.5]))
        with pytest.raises(ValueError):
            build_laplacian(bad, 2)

    def test_zero_weight_pairs_absent(self):
        laps = build_laplacian(batch([(0, 1, 1.0, 1.0), (1, 2, 1.0, 0.0)]), 3)
        sizes = sorted(l.size for l in laps)
        assert sizes == [1, 2]


def union_find_labels(m, n, node_count):
    """Component labels by a plain union-find, numbered in order of each
    component's smallest member, and their count."""
    parent = list(range(node_count))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in zip(m, n):
        parent[find(a)] = find(b)
    smallest = {}
    for v in range(node_count):
        smallest.setdefault(find(v), v)  # v ascends: first is smallest
    rank = {root: k for k, root in
            enumerate(sorted(smallest, key=smallest.get))}
    return [rank[find(v)] for v in range(node_count)], len(rank)


@st.composite
def label_graphs(draw):
    """Edges among shuffled node ids, in random order and orientation:
    pieces that are paths, stars, forests (random trees with some edges
    dropped) and complete graphs, isolated nodes besides them; no piece at
    all gives an empty edge set."""
    kinds = draw(st.lists(st.sampled_from(["path", "star", "forest",
                                           "complete"]), max_size=5))
    sizes = [draw(st.integers(2, 12 if kind == "complete" else 80))
             for kind in kinds]
    isolated = draw(st.integers(0 if kinds else 1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    node_count = sum(sizes) + isolated
    ids = rng.permutation(node_count).tolist()
    pairs, at = [], 0
    for kind, size in zip(kinds, sizes):
        v, at = ids[at:at + size], at + size
        if kind == "path":
            pairs += zip(v[:-1], v[1:])
        elif kind == "star":
            pairs += [(v[0], u) for u in v[1:]]
        elif kind == "forest":
            pairs += [(v[int(rng.integers(0, k))], v[k])
                      for k in range(1, size) if rng.random() < 0.8]
        else:
            pairs += [(v[i], v[j]) for i in range(size)
                      for j in range(i + 1, size)]
    pairs = [(b, a) if rng.random() < 0.5 else (a, b)
             for a, b in (pairs[k] for k in rng.permutation(len(pairs)))]
    m = np.array([a for a, _ in pairs], dtype=np.int64)
    n = np.array([b for _, b in pairs], dtype=np.int64)
    return m, n, node_count


class TestConnectedComponents:
    @staticmethod
    def components(b, n):
        return [lap.nodes.tolist() for lap in build_laplacian(b, n)]

    def test_path_graph(self):
        comps = self.components(batch([(0, 1, 1, 1), (1, 2, 1, 1)]), 3)
        assert comps == [[0, 1, 2]]

    def test_two_edges(self):
        comps = self.components(batch([(0, 1, 1, 1), (2, 3, 1, 1)]), 4)
        assert comps == [[0, 1], [2, 3]]

    def test_empty(self):
        assert self.components(ObservationBatch.empty(), 2) == [[0], [1]]

    def test_ordering_by_smallest_member(self):
        comps = self.components(batch([(4, 5, 1, 1), (0, 2, 1, 1)]), 6)
        assert comps == [[0, 2], [1], [3], [4, 5]]

    @settings(max_examples=200, deadline=None)
    @given(label_graphs())
    def test_labels_match_union_find(self, graph):
        """Root hooking labels every node as a plain union-find does,
        numbered by smallest member, within its pass bound (csgraph is
        never reached)."""
        m, n, node_count = graph
        with mock.patch.object(graph_linalg, "_cs_components",
                               wraps=graph_linalg._cs_components) as cs:
            labels, count = _component_labels(m, n, node_count)
        assert cs.call_count == 0
        want, want_count = union_find_labels(m.tolist(), n.tolist(),
                                             node_count)
        assert labels.tolist() == want and count == want_count

    @pytest.mark.parametrize("seed", range(3))
    def test_csgraph_fallback_matches_union_find(self, seed, monkeypatch):
        """With one hooking pass allowed, a path through nodes in random
        order outlasts the pass limit; the csgraph fallback must then give
        the same labels as a plain union-find, ordered by smallest member."""
        calls = spy(monkeypatch, "_cs_components")
        monkeypatch.setattr(graph_linalg, "_label_passes", lambda count: 1)
        node_count = 300
        rng = np.random.default_rng(seed)
        perm = rng.permutation(node_count)
        path, other = perm[:200], perm[200:260]  # perm[260:] stay isolated
        tree_parent = other[[int(rng.integers(0, k)) for k in
                             range(1, len(other))]]
        m = np.concatenate([path[:-1], other[1:]])
        n = np.concatenate([path[1:], tree_parent])
        labels, count = _component_labels(m, n, node_count)
        assert len(calls) == 1
        want, want_count = union_find_labels(m.tolist(), n.tolist(),
                                             node_count)
        assert count == want_count == 2 + (node_count - 260)
        assert labels.tolist() == want


def size_stacks(groups):
    """A grouping's components as one grouping per run of one size, in
    order."""
    return [groups._stack(c0, c1) for _, c0, c1 in groups.runs]


def reference_stacks(m, n, w, node_count, singletons):
    """``group_components`` by union-find and Python lists: per run of one
    size, the open components (fewer measurements than pairs of nodes) by
    size, ascending, then the candidates (as many) by size, ascending;
    components by smallest member, each component's nodes ascending and its
    edges in batch order, in flattened local ids."""
    parent = list(range(node_count))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in zip(m, n):
        parent[find(a)] = find(b)
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


class TestGroupComponents:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("singletons", [False, True])
    def test_matches_reference(self, seed, singletons):
        """Sparse random graphs (components of many sizes, singletons
        among them) are grouped as the union-find reference groups them:
        the same stacks, nodes, local edges and weights, in order."""
        rng = np.random.default_rng(seed)
        node_count = int(rng.integers(50, 300))
        pairs = int(rng.integers(1, node_count))
        m = rng.integers(0, node_count, pairs)
        n = (m + rng.integers(1, node_count, pairs)) % node_count
        w = rng.random(pairs) + 0.1
        stacks = size_stacks(group_components(
            ObservationBatch(m, n, np.ones(pairs), w), node_count,
            singletons=singletons))
        want = reference_stacks(m.tolist(), n.tolist(), w.tolist(),
                                node_count, singletons)
        got = [(s.nodes.ravel().tolist(), s.a.tolist(), s.b.tolist(),
                s.weights.tolist()) for s in stacks]
        assert got == want
        runs = [(s.tail == 0, int(s.sizes[0])) for s in stacks]
        assert runs == sorted(set(runs))


class TestStableArgsort:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 300, 2**16, 2**16 + 1, 2**40]),
           st.integers(0, 3000), st.integers(0, 2**32 - 1))
    def test_matches_numpy_stable(self, bound, count, seed):
        """Keys below and above 2**16, many tied, the largest one present:
        the same permutation as numpy's stable argsort of the keys as
        given."""
        keys = np.random.default_rng(seed).integers(0, bound, count)
        if count:
            keys[-1] = bound - 1
        got = _stable_argsort(keys, bound)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argsort(keys, kind="stable"))


class TestSolveMinNorm:
    def test_two_node_system(self):
        lap = build_laplacian(batch([(0, 1, 1.0, 1.0)]), 2)[0]
        y = min_norm(lap, np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(y, [[0.5], [-0.5]], atol=1e-12)

    def test_zero_rhs(self):
        lap = build_laplacian(batch([(0, 1, 1.0, 1.0)]), 2)[0]
        y = min_norm(lap, np.zeros((2, 3)))
        np.testing.assert_array_equal(y, np.zeros((2, 3)))

    def test_matches_dense_pinv(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            p = int(rng.integers(2, 11))
            lap = build_laplacian(random_connected_graph(rng, p, 0.05), p)[0]
            rhs = rng.standard_normal((p, 2))
            rhs -= rhs.mean(axis=0)
            want = np.linalg.pinv(dense(lap)) @ rhs
            got = min_norm(lap, rhs)
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_residual_and_centering_contract(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = int(rng.integers(2, 40))
            lap = build_laplacian(random_connected_graph(rng, p, 0.01), p)[0]
            rhs = rng.standard_normal((p, 3))
            rhs -= rhs.mean(axis=0)
            y = min_norm(lap, rhs)
            resid = np.linalg.norm(dense(lap) @ y - rhs)
            assert resid <= 1e-8 * np.linalg.norm(rhs)
            assert np.abs(y.sum(axis=0)).max() <= 1e-9 * np.abs(y).sum()

    def test_cg_path_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(9)
        p = 60
        stack = build_laplacian(random_connected_graph(rng, p, 0.1), p)[0]
        assert stack._complete_weights() is None
        rhs = rng.standard_normal((p, 2))
        rhs -= rhs.mean(axis=0)
        direct = _dense_min_norm(stack, rhs)
        cg_calls = spy(monkeypatch, "_solve_cg")
        fallbacks = spy(monkeypatch, "_lu_solve")
        iterative = graph_linalg._solve_cg(stack, rhs)
        assert len(cg_calls) >= 1 and not fallbacks  # CG converged itself
        np.testing.assert_allclose(iterative, direct, atol=1e-8)

    @pytest.mark.parametrize("info", [1, 0], ids=["no-convergence",
                                                  "residual"])
    def test_cg_fallback_recentered_once(self, info, monkeypatch):
        """When CG stops short (``info`` != 0) or its residual is too
        large, the component is solved by LU and recentered once, as the
        dense reference solves it, bit for bit."""
        rng = np.random.default_rng(10)
        p = DENSE_SOLVER_MAX + 8
        tree = np.arange(1, p)  # a random spanning tree and p extra pairs
        m = np.concatenate([tree, rng.integers(0, p, p)])
        n = np.concatenate([[rng.integers(0, v) for v in tree],
                            rng.integers(0, p, p)])
        keep = m != n
        stack = build_laplacian(ObservationBatch(
            m[keep], n[keep], np.ones(keep.sum()),
            rng.uniform(0.1, 1.0, keep.sum())), p)[0]
        rhs = rng.standard_normal((p, 2))
        rhs -= rhs.mean(axis=0)
        monkeypatch.setattr(graph_linalg, "_cg",
                            lambda A, b, **kw: (np.zeros_like(b), info))
        fallbacks = spy(monkeypatch, "_lu_solve")
        assert np.array_equal(stack.solve(rhs), _dense_min_norm(stack, rhs))
        assert len(fallbacks) == 2  # the fallback, then the reference

    def test_low_weight_warning(self):
        """A weight below eps_w is clamped up, with a warning, before the
        update's solve, so the solved system keeps its conditioning bound."""
        X = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])

        def triangle(w):  # a cycle, so the weights do not cancel
            return batch([(0, 1, 1.0, w), (1, 2, 1.0, 1.0), (0, 2, 1.0, 1.0)])

        cfg = StepConfig(mu=1.0, eps_x=0.0, eps_w=1e-3)
        with pytest.warns(UserWarning, match="1 weight.* below eps_w"):
            got = stochastic_step(X, triangle(1e-6), cfg)
        assert np.array_equal(got, stochastic_step(X, triangle(1e-3), cfg))
        unclamped = stochastic_step(X, triangle(1e-6),
                                    StepConfig(mu=1.0, eps_x=0.0, eps_w=1e-9))
        assert np.abs(got - unclamped).max() > 1e-6


def complete_stack(rng, count, size, weight):
    """``count`` complete graphs of ``size`` nodes at one weight, with
    shuffled node ids, edge order and orientation, as one stack."""
    n = count * size
    ids = rng.permutation(n)
    iu, ju = np.triu_indices(size, k=1)
    m = np.concatenate([ids[k * size:(k + 1) * size][iu]
                        for k in range(count)])
    nn = np.concatenate([ids[k * size:(k + 1) * size][ju]
                         for k in range(count)])
    flip = rng.random(len(m)) < 0.5
    m, nn = np.where(flip, nn, m), np.where(flip, m, nn)
    order = rng.permutation(len(m))
    b = ObservationBatch(m[order], nn[order], np.ones(len(m)),
                         np.full(len(m), weight))
    [stack] = size_stacks(group_components(b, n))
    return stack


def zero_sum_rhs(rng, count, size, dim=2):
    rhs = rng.standard_normal((count, size, dim))
    return rhs - rhs.mean(axis=1, keepdims=True)


class TestCompleteClosedForm:
    """Complete components of one size at one weight w are solved as
    rhs / (w * size), with no assembly, factorization or CG."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 12),
           st.one_of(st.floats(0.01, 1.0),
                     st.floats(1e-100, 0.01, exclude_max=True)),
           st.integers(0, 2**32 - 1))
    def test_matches_dense_and_pinv(self, count, size, weight, seed):
        rng = np.random.default_rng(seed)
        stack = complete_stack(rng, count, size, weight)
        assert np.array_equal(stack._complete_weights(),
                              np.full(count, weight))
        rhs = zero_sum_rhs(rng, count, size)
        got = stack.solve(rhs)
        assert np.abs(got.sum(axis=1)).max() <= 1e-12 * np.abs(got).max()
        for k, single in enumerate(stack.split()):
            want = np.linalg.pinv(dense(single)) @ rhs[k]
            np.testing.assert_allclose(got[k], want, rtol=0,
                                       atol=1e-9 * np.abs(want).max())
        # the dense reference loses digits as w -> 0 (its shifted matrix
        # has condition ~ 1 / (w * size)), so it is held to 1e-12 only
        # where it is itself that accurate
        if weight >= 0.01:
            np.testing.assert_allclose(got, _dense_min_norm(stack, rhs),
                                       rtol=0, atol=1e-12)

    def test_above_dense_limit_needs_no_cg(self, monkeypatch):
        def no_cg(*args):
            raise AssertionError("CG ran on a complete component")

        monkeypatch.setattr(graph_linalg, "_solve_cg", no_cg)
        rng = np.random.default_rng(31)
        size = DENSE_SOLVER_MAX + 8
        stack = complete_stack(rng, 1, size, 1.0)
        rhs = zero_sum_rhs(rng, 1, size)
        np.testing.assert_allclose(stack.solve(rhs),
                                   _dense_min_norm(stack, rhs),
                                   rtol=0, atol=1e-12)

    def test_route_is_per_component(self, monkeypatch):
        """In a stack that mixes complete components of different weights
        with incomplete ones, each component gets the result it gets alone,
        bit for bit, and only the incomplete ones reach the dense solve."""
        rng = np.random.default_rng(33)
        size = 5
        iu, ju = np.triu_indices(size, k=1)
        entries = []
        for k, weight in enumerate([1.0, 0.5, None, 1.0, None]):
            pairs = list(zip(iu.tolist(), ju.tolist()))
            if weight is None:  # drop one pair: connected, not complete
                pairs.pop(int(rng.integers(1, len(pairs))))
            for i, j in pairs:
                entries.append((k * size + i, k * size + j, 1.0,
                                weight or rng.uniform(0.5, 1.0)))
        # the open components lead, then the candidates
        stack = group_components(batch(entries), 5 * size)
        np.testing.assert_array_equal(stack._complete_weights(),
                                      [0.0, 0.0, 1.0, 0.5, 1.0])
        rhs = zero_sum_rhs(rng, 5, size)
        calls = spy(monkeypatch, "_shifted_dense")
        got = stack.solve(rhs)
        assert len(calls) == 1
        for k, single in enumerate(stack.split()):
            assert np.array_equal(got[k], single.solve(rhs[k:k + 1])[0])
            want = np.linalg.pinv(dense(single)) @ rhs[k]
            np.testing.assert_allclose(got[k], want, atol=1e-12)
        assert len(calls) == 3  # the two incomplete components, alone

    def test_closed_form_component_never_reaches_dense(self):
        """K4 at w = 1e-100 next to a 4-node path at w = 1: K4's shifted
        matrix is singular in floating point, so a dense solve of the whole
        stack raises. Each component must get what it gets alone."""
        k4 = [(i, j, 1.0, 1e-100) for i in range(4) for j in range(i + 1, 4)]
        path = [(v, v + 1, 1.0, 1.0) for v in range(4, 7)]
        [stack] = size_stacks(group_components(batch(k4 + path), 8))
        assert len(stack.sizes) == 2
        rhs = zero_sum_rhs(np.random.default_rng(37), 2, 4)
        got = stack.solve(rhs)
        assert np.all(np.isfinite(got))
        for k, single in enumerate(stack.split()):
            assert np.array_equal(got[k], single.solve(rhs[k:k + 1])[0])
        factored = _RoutedStack(stack).keep_factors()
        np.testing.assert_allclose(factored.solve(rhs), got, rtol=0,
                                   atol=1e-12 * np.abs(got).max())

    @pytest.mark.parametrize("entries", [
        # every degree 3 and K4's edge count, but (0, 1) and (2, 3) twice
        [(0, 1, 1, 1), (1, 0, 1, 1), (2, 3, 1, 1), (3, 2, 1, 1),
         (0, 2, 1, 1), (1, 3, 1, 1)],
        # K4 with two weights
        [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 1, 1), (1, 2, 1, 1),
         (1, 3, 1, 1), (2, 3, 1, 0.5)],
        # K4 less one edge
        [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 1, 1), (1, 2, 1, 1),
         (1, 3, 1, 1)],
        # K4 with one zero-weight edge, which nonzero() drops
        [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 1, 1), (1, 2, 1, 1),
         (1, 3, 1, 1), (2, 3, 1, 0)],
        # K4 less one edge plus a self-loop: K4's edge count, no pair twice
        [(0, 1, 1, 1), (0, 2, 1, 1), (0, 3, 1, 1), (1, 2, 1, 1),
         (1, 3, 1, 1), (2, 2, 1, 1)],
    ], ids=["regular-multigraph", "two-weights", "missing-edge",
            "zero-weight-edge", "self-loop"])
    def test_not_complete_takes_dense(self, entries, monkeypatch):
        [stack] = size_stacks(group_components(batch(entries), 4))
        assert stack._complete_weights() is None
        calls = spy(monkeypatch, "_shifted_dense")
        rhs = zero_sum_rhs(np.random.default_rng(32), 1, 4)
        got = stack.solve(rhs)
        assert len(calls) == 1
        want = np.linalg.pinv(dense(stack)) @ rhs[0]
        np.testing.assert_allclose(got[0], want, atol=1e-12)


@st.composite
def route_groupings(draw):
    """Components whose completeness is decided apart from their size:
    pairs measured once (at different weights) or twice, triangles at one
    weight or two, complete graphs and near-complete ones (a pair missing,
    a pair measured twice in place of another, a self-loop in place of a
    pair), and paths of three. Returns the batch entries and their node
    count; node ids, measurement order and orientation are shuffled."""
    kinds = draw(st.lists(st.sampled_from(
        ["pair", "pair-twice", "triangle", "triangle-two-weights",
         "complete", "missing", "repeat", "self-loop", "path"]),
        min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = [0.5, 1.0, 2.0]
    pieces = []
    for kind in kinds:
        size = {"pair": 2, "pair-twice": 2, "triangle": 3, "path": 3,
                "triangle-two-weights": 3}.get(kind) or int(rng.integers(3, 7))
        pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
        if kind == "pair-twice":
            pairs *= 2
        elif kind == "path":
            pairs = [(0, 1), (1, 2)]
        elif kind in ("missing", "repeat", "self-loop"):
            # the spanning star from node 0 stays, so the component holds
            k = int(rng.integers(size - 1, len(pairs)))
            gone = pairs.pop(k)
            if kind == "repeat":
                pairs.append(pairs[int(rng.integers(len(pairs)))])
            elif kind == "self-loop":
                pairs.append((gone[0], gone[0]))
        w = [weights[int(rng.integers(3))]] * len(pairs)
        if kind == "triangle-two-weights" or (kind == "pair-twice"
                                              and rng.random() < 0.5):
            w[int(rng.integers(len(w)))] = 3.0
        pieces.append((size, pairs, w))
    ids = rng.permutation(sum(size for size, _, _ in pieces)).tolist()
    entries, at = [], 0
    for size, pairs, w in pieces:
        v, at = ids[at:at + size], at + size
        for (i, j), wk in zip(pairs, w):
            if rng.random() < 0.5:
                i, j = j, i
            entries.append((v[i], v[j], 1.0, wk))
    entries = [entries[k] for k in rng.permutation(len(entries))]
    return entries, len(ids)


class TestCompleteWeights:
    @settings(max_examples=150, deadline=None)
    @given(route_groupings())
    def test_matches_brute_force(self, case):
        """Per component of a mixed grouping, the weight when every pair
        is measured exactly once at one weight, else 0 (None when no
        component is complete), as a per-component reading of the batch
        finds it."""
        entries, node_count = case
        groups = group_components(batch(entries), node_count)
        starts = groups.starts.tolist()
        want = []
        for k, p in enumerate(groups.sizes.tolist()):
            members = set(groups.nodes[starts[k]:starts[k + 1]].tolist())
            own = [(u, v, w) for u, v, _, w in entries if u in members]
            pairs = [frozenset((u, v)) for u, v, _ in own]
            complete = (len(own) == p * (p - 1) // 2 == len(set(pairs))
                        and all(len(pair) == 2 for pair in pairs)
                        and len({w for _, _, w in own}) == 1)
            want.append(own[0][2] if complete else 0.0)
        got = groups._complete_weights()
        if not any(want):
            assert got is None
        else:
            assert got.tolist() == want


class TestFactoredStack:
    """A stack routed once that keeps its factors solves as the one-shot
    ``ComponentGroups.solve`` does: bit for bit in closed form and by CG, to
    round-off by Cholesky."""

    def test_mixed_dense_stack(self, monkeypatch):
        rng = np.random.default_rng(34)
        size = 6
        iu, ju = np.triu_indices(size, k=1)
        entries = []
        for k, weight in enumerate([0.5, None, 1.0, None]):
            keep = np.ones(len(iu), dtype=bool)
            if weight is None:  # a spanning path plus random extra pairs
                keep = rng.random(len(iu)) < 0.5
                keep[[v * (v - 1) // 2 for v in range(1, size)]] = True
            for i, j in zip(iu[keep].tolist(), ju[keep].tolist()):
                entries.append((k * size + i, k * size + j, 1.0,
                                weight or rng.uniform(0.2, 1.0)))
        stack = group_components(batch(entries), 4 * size)
        factored = _RoutedStack(stack).keep_factors()
        assert len(factored.alone) == 2  # the two incomplete components
        calls = spy(monkeypatch, "_shifted_dense")
        for _ in range(3):  # reused, never refactored
            rhs = zero_sum_rhs(rng, 4, size)
            got, want = factored.solve(rhs), stack.solve(rhs)
            for k in (2, 3):  # the complete ones, after the open ones
                assert np.array_equal(got[k], want[k])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert len(calls) == 3  # the one-shot solves only

    def test_failed_cholesky_takes_lu(self):
        """A 1e-20 weight on a path leaves L + shift 11^T positive definite
        only in exact arithmetic; Cholesky fails, and the component is
        solved as the one-shot solve does it, bit for bit."""
        [stack] = size_stacks(group_components(
            batch([(0, 1, 1.0, 1.0), (1, 2, 1.0, 1e-20)]), 3))
        factored = _RoutedStack(stack).keep_factors()
        [(_, _, reused)] = factored.alone
        assert reused is None and factored.lu is None
        rhs = zero_sum_rhs(np.random.default_rng(36), 1, 3)
        assert np.array_equal(factored.solve(rhs), stack.solve(rhs))

    def test_cg_stack(self, monkeypatch):
        rng = np.random.default_rng(35)
        p = DENSE_SOLVER_MAX + 8
        # a random spanning tree plus as many random extra pairs
        tree = np.arange(1, p)
        m = np.concatenate([tree, rng.integers(0, p, p)])
        n = np.concatenate([[rng.integers(0, v) for v in tree],
                            rng.integers(0, p, p)])
        keep = m != n
        b = ObservationBatch(m[keep], n[keep], np.ones(keep.sum()),
                             rng.uniform(0.1, 1.0, keep.sum()))
        [stack] = size_stacks(group_components(b, p))
        built = spy(monkeypatch, "_sparse")
        factored = _RoutedStack(stack).keep_factors()
        assert len(built) == 1
        for _ in range(2):
            rhs = zero_sum_rhs(rng, 1, p)
            assert np.array_equal(factored.solve(rhs), stack.solve(rhs))
        assert len(built) == 1 + 2  # the one-shot solves build their own


class TestAlgebraicConnectivity:
    def test_two_node(self):
        lap = build_laplacian(batch([(0, 1, 1.0, 1.0)]), 2)[0]
        assert algebraic_connectivity(lap) == pytest.approx(2.0)

    def test_k3(self):
        lap = build_laplacian(
            batch([(0, 1, 1, 1), (0, 2, 1, 1), (1, 2, 1, 1)]), 3)[0]
        assert algebraic_connectivity(lap) == pytest.approx(3.0, abs=1e-10)

    def test_singleton_rejected(self):
        [lap] = build_laplacian(ObservationBatch.empty(), 1)
        assert lap.size == 1
        with pytest.raises(ValueError, match="singletons"):
            algebraic_connectivity(lap)

    def test_connectivity_lower_bound(self):
        """Weighted connectivity bound: a(G) >= 2 eps_w / (p-1)^2."""
        rng = np.random.default_rng(12)
        eps_w = 1e-3
        for _ in range(200):
            p = int(rng.integers(2, 31))
            lap = build_laplacian(random_connected_graph(rng, p, eps_w), p)[0]
            a = algebraic_connectivity(lap)
            assert a >= 2 * eps_w / (p - 1) ** 2 - 1e-12


def sequential_sum(rows):
    """``rows.sum(axis=0)``, added one row at a time in row order,
    starting from 0."""
    total = np.zeros(rows.shape[1:])
    for row in rows:
        total += row
    return total


def plain_component(p, edges):
    """One component's ``L + shift 11^T`` entry by entry: the shift, then
    -w at every (i, j) in measurement order, then at every (j, i), then the
    degree, each end's sum taken in measurement order; the shift sums the
    degrees in node order."""
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
    """One component's min-norm solve by the route a plain reading of its
    measurements picks: closed form when every pair is measured once at one
    weight, CG above ``DENSE_SOLVER_MAX``, else one LU solve."""
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


@st.composite
def groupings(draw):
    """Components of mixed sizes 2-40: open ones (a random tree, extra
    pairs, some pairs measured twice), complete ones at one weight and
    near-complete ones of three nodes or more (as many measurements as
    pairs at one weight, one pair measured twice and one missing), each
    complete or near-complete one with an open twin of its size; maybe one
    open component above ``DENSE_SOLVER_MAX``."""
    sizes = draw(st.lists(st.integers(2, 40), min_size=1, max_size=7))
    kinds = draw(st.lists(st.sampled_from(["open", "complete", "near"]),
                          min_size=len(sizes), max_size=len(sizes)))
    sizes = [max(s, 3) if k == "near" else s for s, k in zip(sizes, kinds)]
    sizes += [s for s, k in zip(sizes, kinds) if k != "open"]
    kinds += ["open"] * (len(sizes) - len(kinds))
    if draw(st.integers(0, 3)) == 0:
        sizes.append(DENSE_SOLVER_MAX + 8)
        kinds.append("open")
    return (sizes, kinds, draw(st.sampled_from([1, 2, 3])),
            draw(st.integers(0, 2**32 - 1)))


def grouping_instance(sizes, kinds, seed):
    """A batch of the given components (``groupings``' kinds) over shuffled
    node ids, in random measurement order and orientation, and per
    component, keyed by its smallest id, (sorted ids, local measurements
    in batch order)."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(sum(sizes))
    starts = np.cumsum([0, *sizes])
    rows = []
    for size, kind, nodes in zip(sizes, kinds, np.split(ids, starts[1:-1])):
        if kind != "open":
            iu, ju = np.triu_indices(size, k=1)
            pairs, w = list(zip(iu.tolist(), ju.tolist())), rng.uniform(0.1, 2)
            if kind == "near":  # the star from node 0 stays, so it holds
                pairs.pop(int(rng.integers(size - 1, len(pairs))))
                pairs.append(pairs[int(rng.integers(len(pairs)))])
            weights = [w] * len(pairs)
        else:
            pairs = [(int(rng.integers(0, v)), v) for v in range(1, size)]
            pairs += [tuple(rng.choice(size, 2, replace=False).tolist())
                      for _ in range(size // 2)]
            pairs += [pairs[k] for k in rng.choice(len(pairs), 2)]  # twice
            weights = rng.uniform(0.1, 2, len(pairs)).tolist()
        for (u, v), w in zip(pairs, weights):
            if rng.random() < 0.5:
                u, v = v, u
            rows.append((int(nodes[u]), int(nodes[v]), 1.0, w))
    rows = [rows[k] for k in rng.permutation(len(rows))]
    owner, local, comps = {}, {}, {}
    for nodes in np.split(ids, starts[1:-1]):
        nodes = np.sort(nodes)
        comps[int(nodes[0])] = (nodes, [])
        for k, v in enumerate(nodes.tolist()):
            owner[v], local[v] = int(nodes[0]), k
    for a, b, _, w in rows:
        comps[owner[a]][1].append((local[a], local[b], w))
    return ObservationBatch.from_entries(rows), comps


class TestGroupingAgainstPlainReference:
    """The grouping-wide assembly and solve against a per-component
    reference built entry by entry, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(groupings())
    def test_assembly_and_solve(self, case):
        sizes, kinds, dim, seed = case
        batch, comps = grouping_instance(sizes, kinds, seed)
        groups = group_components(batch, sum(sizes))
        assert sorted(groups.sizes.tolist()) == sorted(sizes)
        starts = groups.starts.tolist()
        owner = {}
        for k in range(len(groups.sizes)):
            nodes, edges = comps[int(groups.nodes[starts[k]])]
            assert groups.nodes[starts[k]:starts[k + 1]].tolist() == \
                nodes.tolist()
            owner[k] = (len(nodes), edges)
        # the one assembly, of the open components up to the dense limit,
        # which lead, and of the candidates, which close the grouping
        t = groups.tail
        assert t == kinds.count("open")
        w = groups._complete_weights()  # the near-complete ones are not
        assert (0 if w is None else np.count_nonzero(w)) == \
            kinds.count("complete")
        d = int(np.searchsorted(groups.sizes[:t], DENSE_SOLVER_MAX, "right"))
        for c0, c1 in ((0, d), (t, len(groups.sizes))):
            part, assembled = groups._stack(c0, c1), []
            for A, blocks in graph_linalg._shifted_dense(part):
                for size, count, rows, cells in blocks:
                    first = np.arange(rows.start, rows.stop, size)
                    for k, block in zip(np.searchsorted(part.starts, first),
                                        A[cells].reshape(count, size, size)):
                        assert np.array_equal(block,
                                              plain_component(*owner[c0 + k]))
                        assembled.append(c0 + k)
            assert assembled == list(range(c0, c1))
        # the routed solve
        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal((len(groups.nodes), dim))
        for k in range(len(groups.sizes)):
            rhs[starts[k]:starts[k + 1]] -= \
                rhs[starts[k]:starts[k + 1]].mean(axis=0)
        with mock.patch.object(graph_linalg, "_solve_cg",
                               wraps=graph_linalg._solve_cg) as cg:
            got = groups.solve(rhs)
        assert cg.call_count == sum(s > DENSE_SOLVER_MAX for s in sizes)
        for k, (p, edges) in owner.items():
            want = plain_solve(p, edges, rhs[starts[k]:starts[k + 1]])
            assert np.array_equal(got[starts[k]:starts[k + 1]], want), k

    @settings(max_examples=40, deadline=None)
    @given(groupings(), st.data())
    def test_cut_across_sizes(self, case, data):
        """``_stack(c0, c1)`` over a range of components that crosses a
        change of size has the whole grouping's Laplacian entries and
        solves of those components, bit for bit."""
        sizes, kinds, dim, seed = case
        if len(set(sizes)) == 1:  # a second size, for the cut to cross
            sizes, kinds = sizes + [sizes[0] + 1], kinds + ["open"]
        batch, _ = grouping_instance(sizes, kinds, seed)
        groups = group_components(batch, sum(sizes))
        edge = data.draw(st.sampled_from([c for _, c, _ in groups.runs[1:]]))
        c0 = data.draw(st.integers(0, edge - 1))
        c1 = data.draw(st.integers(edge + 1, len(groups.sizes)))
        part = groups._stack(c0, c1)
        n0, n1 = int(groups.starts[c0]), int(groups.starts[c1])
        e0, e1 = int(groups.edge_starts[c0]), int(groups.edge_starts[c1])
        assert part.size == n1 - n0 and part.nnz == e1 - e0
        rows, cols, w, degree, shift = _laplacian_entries(part)
        whole = _laplacian_entries(groups)
        for h in range(2):
            assert np.array_equal(rows[h] + n0, whole[0][h][e0:e1])
            assert np.array_equal(cols[h] + n0, whole[1][h][e0:e1])
        assert np.array_equal(w, whole[2][e0:e1])
        assert np.array_equal(degree, whole[3][n0:n1])
        assert np.array_equal(shift, whole[4][c0:c1])
        rhs = np.random.default_rng(seed).standard_normal((groups.size, dim))
        rhs -= groups._spread(groups._means(rhs))
        assert np.array_equal(part.solve(rhs[n0:n1]),
                              groups.solve(rhs)[n0:n1])


class TestRouteRuns:
    """Every route takes a run of components and writes over its rows of
    the right-hand side in place."""

    def test_lu_route_solves_a_slice(self, monkeypatch):
        """The open components lead and the LU route solves their rows,
        the leading slice of the right-hand side, with no gather; a
        near-complete candidate is solved alone on its own slice."""
        sizes = [4, 6, 9, 5, 5, 3]
        kinds = ["open", "open", "open", "complete", "near", "complete"]
        batch, _ = grouping_instance(sizes, kinds, 5)
        groups = group_components(batch, sum(sizes))
        rhs = np.random.default_rng(5).standard_normal((groups.size, 2))
        rhs -= groups._spread(groups._means(rhs))
        want = groups.solve(rhs)
        calls = spy(monkeypatch, "_lu_solve")
        y = rhs.copy()
        _RoutedStack(groups).solve_in_place(y)
        assert np.array_equal(y, want)
        t, starts = groups.tail, groups.starts.tolist()
        [near] = t + np.flatnonzero(groups._complete_weights()[t:] == 0)
        spans = []
        for part, flat in calls:
            assert flat.base is y
            first = (flat.ctypes.data - y.ctypes.data) // y.strides[0]
            spans.append((first, first + len(flat), len(part.sizes)))
        assert sorted(spans) == [(0, starts[t], t),
                                 (starts[near], starts[near + 1], 1)]


class TestSummationOrder:
    """Every per-component sum is taken in row order, as a plain loop over
    the component's rows takes it, whatever numpy's own reductions do.
    Components of 9 or more rows with non-integer values tell that order
    from numpy's pairwise sum."""

    @pytest.mark.parametrize("sizes", [[40] * 4, [9, 9, 17, 33, 33, 60]],
                             ids=["one-size", "mixed"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("method", ["_sum", "_means"])
    def test_sums_and_means(self, sizes, dim, method):
        batch, _ = grouping_instance(sizes, ["open"] * len(sizes), dim)
        groups = group_components(batch, sum(sizes))
        v = np.random.default_rng(dim).standard_normal((sum(sizes), dim))
        if method == "_sum":
            got = np.stack([groups._sum(v[:, col]) for col in range(dim)], 1)
        else:
            got = groups._means(v)
        starts = groups.starts.tolist()
        for k, size in enumerate(groups.sizes.tolist()):
            for col in range(dim):
                want = sequential_sum(v[starts[k]:starts[k + 1], col])
                assert got[k, col] == (want if method == "_sum"
                                       else want / size), (k, col)

    @pytest.mark.parametrize("sizes", [[40] * 4, [9, 9, 17, 33, 33, 60]],
                             ids=["one-size", "mixed"])
    def test_degree_sums(self, sizes):
        batch, _ = grouping_instance(sizes, ["open"] * len(sizes), 4)
        groups = group_components(batch, sum(sizes))
        *_, degree, shift = _laplacian_entries(groups)
        degree = degree.reshape(-1)
        assert not np.array_equal(degree, np.round(degree))
        starts = groups.starts.tolist()
        for k, size in enumerate(groups.sizes.tolist()):
            total = sequential_sum(degree[starts[k]:starts[k + 1]])
            assert total > size  # so the shift carries the sum
            assert shift[k] == max(total / size, 1.0) / size


class TestEmptyGroupings:
    """No nodes and one node give groupings with int64 sizes that every
    solve and update accepts."""

    def test_no_nodes(self):
        empty = ObservationBatch.empty()
        groups = group_components(empty, 0)
        assert groups.sizes.dtype == np.int64 and not len(groups.sizes)
        assert groups.labels.shape == (0,)
        assert groups.solve(np.zeros((0, 2))).shape == (0, 2)
        assert smacof_iterate(np.zeros((0, 2)), empty).shape == (0, 2)
        cfg = StepConfig(mu=0.5)
        assert stochastic_step(np.zeros((0, 2)), empty, cfg).shape == (0, 2)
        X = np.array([[1.0, 2.0], [3.0, 5.0]])
        assert np.array_equal(stochastic_step(X, empty, cfg), X)

    @pytest.mark.parametrize("singletons", [False, True])
    def test_one_node(self, singletons):
        groups = group_components(ObservationBatch.empty(), 1, singletons)
        assert groups.sizes.dtype == np.int64
        assert groups.labels.tolist() == [0] * singletons
        rhs = np.zeros((int(singletons), 2))
        assert np.array_equal(groups.solve(rhs), rhs)
        X = np.array([[1.0, 2.0]])
        assert np.array_equal(smacof_iterate(X, ObservationBatch.empty()), X)
