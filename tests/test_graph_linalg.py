"""Laplacian construction, component detection, and min-norm solves."""

import numpy as np
import pytest

from stochmds import (
    ObservationBatch,
    algebraic_connectivity,
    build_laplacian,
    connected_components,
    project_centering,
    solve_min_norm,
)
from stochmds.graph_linalg import ComponentLaplacian


def batch(entries):
    return ObservationBatch.from_entries(entries)


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
        np.testing.assert_array_equal(laps[0].to_dense(), expected)

    def test_empty_graph_gives_singletons(self):
        laps = build_laplacian(ObservationBatch.empty(), 2)
        assert len(laps) == 2
        assert all(l.size == 1 and l.nnz == 0 for l in laps)

    def test_two_components(self):
        laps = build_laplacian(batch([(0, 1, 1.0, 1.0), (2, 3, 1.0, 1.0)]), 4)
        assert len(laps) == 2
        np.testing.assert_array_equal(laps[0].node_ids, [0, 1])
        np.testing.assert_array_equal(laps[1].node_ids, [2, 3])

    def test_zero_row_sums(self):
        """Diagonal equals the negated off-diagonal row sum by definition."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(2, 12))
            lap = build_laplacian(random_connected_graph(rng, p, 0.1), p)[0]
            lap.check()
            expected = (
                np.bincount(lap.rows, weights=lap.weights, minlength=p)
                + np.bincount(lap.cols, weights=lap.weights, minlength=p))
            np.testing.assert_array_equal(lap.degree, expected)
            assert np.max(np.abs(lap.to_dense().sum(axis=1))) < 1e-12

    def test_repeated_pair_counts_once_per_measurement(self):
        lap = build_laplacian(
            batch([(0, 1, 1.0, 0.5), (1, 0, 1.0, 1.0), (1, 2, 1.0, 1.0)]), 3)[0]
        lap.check()
        expected = np.array([[1.5, -1.5, 0.], [-1.5, 2.5, -1.], [0., -1., 1.]])
        np.testing.assert_array_equal(lap.to_dense(), expected)

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
    def test_path_graph(self):
        part = connected_components(batch([(0, 1, 1, 1), (1, 2, 1, 1)]), 3)
        assert len(part.clusters) == 1
        np.testing.assert_array_equal(part.clusters[0], [0, 1, 2])

    def test_two_edges(self):
        part = connected_components(batch([(0, 1, 1, 1), (2, 3, 1, 1)]), 4)
        assert [c.tolist() for c in part.clusters] == [[0, 1], [2, 3]]

    def test_empty(self):
        part = connected_components(ObservationBatch.empty(), 2)
        assert [c.tolist() for c in part.clusters] == [[0], [1]]

    def test_ordering_by_smallest_member(self):
        part = connected_components(batch([(4, 5, 1, 1), (0, 2, 1, 1)]), 6)
        firsts = [c[0] for c in part.clusters]
        assert firsts == sorted(firsts)


class TestSolveMinNorm:
    def test_two_node_system(self):
        lap = build_laplacian(batch([(0, 1, 1.0, 1.0)]), 2)[0]
        y = solve_min_norm(lap, np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(y, [[0.5], [-0.5]], atol=1e-12)

    def test_zero_rhs(self):
        lap = build_laplacian(batch([(0, 1, 1.0, 1.0)]), 2)[0]
        y = solve_min_norm(lap, np.zeros((2, 3)))
        np.testing.assert_array_equal(y, np.zeros((2, 3)))

    def test_matches_dense_pinv(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            p = int(rng.integers(2, 11))
            lap = build_laplacian(random_connected_graph(rng, p, 0.05), p)[0]
            rhs = rng.standard_normal((p, 2))
            rhs -= rhs.mean(axis=0)
            want = np.linalg.pinv(lap.to_dense()) @ rhs
            got = solve_min_norm(lap, rhs)
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_residual_and_centering_contract(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = int(rng.integers(2, 40))
            lap = build_laplacian(random_connected_graph(rng, p, 0.01), p)[0]
            rhs = rng.standard_normal((p, 3))
            rhs -= rhs.mean(axis=0)
            y = solve_min_norm(lap, rhs)
            resid = np.linalg.norm(lap.to_dense() @ y - rhs)
            assert resid <= 1e-8 * np.linalg.norm(rhs)
            assert np.abs(y.sum(axis=0)).max() <= 1e-9 * np.abs(y).sum()

    def test_cg_path_matches_dense(self):
        rng = np.random.default_rng(9)
        p = 60
        lap = build_laplacian(random_connected_graph(rng, p, 0.1), p)[0]
        rhs = rng.standard_normal((p, 2))
        rhs -= rhs.mean(axis=0)
        dense = solve_min_norm(lap, rhs)
        iterative = solve_min_norm(lap, rhs, dense_threshold=4)
        np.testing.assert_allclose(iterative, dense, atol=1e-8)

    def test_inconsistent_rhs_rejected(self):
        lap = build_laplacian(batch([(0, 1, 1.0, 1.0)]), 2)[0]
        with pytest.raises(ValueError):
            solve_min_norm(lap, np.array([[1.0], [1.0]]))

    def test_low_weight_warning(self):
        lap = build_laplacian(batch([(0, 1, 1.0, 1e-6)]), 2)[0]
        rhs = np.array([[1.0], [-1.0]])
        with pytest.warns(UserWarning):
            solve_min_norm(lap, rhs, eps_w=1e-3)


class TestProjectCentering:
    def test_mean_removal(self):
        lap = build_laplacian(batch([(0, 1, 1.0, 1.0)]), 2)[0]
        out = project_centering(lap, np.array([[1.0, 1.0], [3.0, 3.0]]))
        np.testing.assert_array_equal(out, [[-1.0, -1.0], [1.0, 1.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        lap = build_laplacian(random_connected_graph(rng, 6, 0.2), 6)[0]
        X = rng.standard_normal((6, 2))
        once = project_centering(lap, X)
        twice = project_centering(lap, once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_constant_vector_annihilated(self):
        lap = build_laplacian(
            batch([(0, 1, 1, 1), (1, 2, 1, 1)]), 3)[0]
        out = project_centering(lap, np.ones((3, 1)))
        np.testing.assert_allclose(out, np.zeros((3, 1)), atol=1e-15)


class TestAlgebraicConnectivity:
    def test_two_node(self):
        lap = build_laplacian(batch([(0, 1, 1.0, 1.0)]), 2)[0]
        assert algebraic_connectivity(lap) == pytest.approx(2.0)

    def test_k3(self):
        lap = build_laplacian(
            batch([(0, 1, 1, 1), (0, 2, 1, 1), (1, 2, 1, 1)]), 3)[0]
        assert algebraic_connectivity(lap) == pytest.approx(3.0, abs=1e-10)

    def test_singleton_rejected(self):
        lap = ComponentLaplacian(np.array([0]), np.zeros(0, dtype=int),
                                 np.zeros(0, dtype=int), np.zeros(0))
        with pytest.raises(ValueError):
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
