"""Laplacian construction, component detection, and min-norm solves.

``build_laplacian`` returns one ``ComponentStack`` of one component per
connected component; the tests read node ids from ``nodes[0]``, degrees from
``_laplacian_entries`` and dense matrices from ``_sparse``, the assembly the
CG solve and ``algebraic_connectivity`` run on."""

import numpy as np
import pytest

from stochmds import ObservationBatch, algebraic_connectivity, \
    build_laplacian
from stochmds.graph_linalg import _dense_min_norm, _laplacian_entries, \
    _solve_cg, _sparse, group_components


def batch(entries):
    return ObservationBatch.from_entries(entries)


def dense(stack):
    """A stack of one's Laplacian as an array."""
    return _sparse(stack)[0].toarray()


def min_norm(stack, rhs):
    """Min-norm solve of one component, as every update does it."""
    return stack.solve(rhs[None])[0]


def random_connected_graph(rng, p, w_lo, w_hi=1.0):
    """Random spanning tree plus extra edges, weights in [w_lo, w_hi]."""
    edges = []
    for v in range(1, p):
        u = int(rng.integers(0, v))
        edges.append((u, v))
    iu, ju = np.triu_indices(p, k=1)
    extra = rng.random(len(iu)) < 0.3
    for u, v in zip(iu[extra], ju[extra]):
        if (u, v) not in edges:
            edges.append((int(u), int(v)))
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
        assert all(l.count == 1 and l.size == 1 and l.nnz == 0
                   for l in laps)

    def test_two_components(self):
        laps = build_laplacian(batch([(0, 1, 1.0, 1.0), (2, 3, 1.0, 1.0)]), 4)
        assert len(laps) == 2
        assert [l.count for l in laps] == [1, 1]
        np.testing.assert_array_equal(laps[0].nodes[0], [0, 1])
        np.testing.assert_array_equal(laps[1].nodes[0], [2, 3])
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
            degree = _laplacian_entries(lap)[3][0]
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
        np.testing.assert_array_equal(_laplacian_entries(lap)[3][0],
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


class TestConnectedComponents:
    @staticmethod
    def components(b, n):
        return [lap.nodes[0].tolist() for lap in build_laplacian(b, n)]

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

    def test_cg_path_matches_dense(self):
        rng = np.random.default_rng(9)
        p = 60
        stack = build_laplacian(random_connected_graph(rng, p, 0.1), p)[0]
        rhs = rng.standard_normal((p, 2))
        rhs -= rhs.mean(axis=0)
        direct = _dense_min_norm(stack, rhs[None])[0]
        iterative = _solve_cg(stack, rhs)
        np.testing.assert_allclose(iterative, direct, atol=1e-8)

    def test_low_weight_warning(self):
        """A weight below eps_w is clamped up, with a warning, before the
        solve, so the solved system keeps its conditioning bound."""
        low = batch([(0, 1, 1.0, 1e-6)])
        with pytest.warns(UserWarning, match="below eps_w"):
            [stack] = group_components(low, 2, eps_w=1e-3)
        np.testing.assert_array_equal(stack.weights, [1e-3])
        y = stack.solve(np.array([[[1.0], [-1.0]]]))[0]
        np.testing.assert_allclose(y, [[500.0], [-500.0]], rtol=1e-12)


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
