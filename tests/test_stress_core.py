"""Stress function and the four update rules."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochmds import (
    ObservationBatch,
    StepConfig,
    averaged_step,
    closed_form_b_average,
    sgd_step,
    smacof_iterate,
    spe_step,
    stochastic_step,
    stress,
    upsilon,
)
from stochmds import MuSchedule, graph_linalg, run_stochastic, stress_core
from stochmds.data_io import FeatureProvider
from stochmds.embedder import _sample_chunk, _slot_plan
from stochmds.graph_linalg import DENSE_SOLVER_MAX, group_components
from stochmds.sampling import SamplerConfig
from stochmds.stress_core import _b_times_x, _damped_update, \
    _regularized_coeffs


def full_batch(X, weights=None, deltas=None):
    n = len(X)
    iu, ju = np.triu_indices(n, k=1)
    if deltas is None:
        deltas = np.linalg.norm(X[iu] - X[ju], axis=1)
    if weights is None:
        weights = np.ones(len(iu))
    return ObservationBatch(iu, ju, deltas, weights)


def random_instance(rng, n=10, dim=2):
    X = rng.standard_normal((n, dim))
    X -= X.mean(axis=0)
    iu, ju = np.triu_indices(n, k=1)
    deltas = rng.random(len(iu)) + 0.5
    return X, ObservationBatch(iu, ju, deltas, np.ones(len(iu)))


class TestStress:
    def test_perfect_fit_is_zero(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 2))
        assert stress(X, full_batch(X)) == 0.0

    def test_hand_value(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0]])
        b = ObservationBatch.from_entries([(0, 1, 1.0, 1.0)])
        assert stress(X, b) == pytest.approx(1.0)

    def test_all_zero_weights(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 2))
        b = full_batch(X, weights=np.zeros(10), deltas=np.full(10, 2.0))
        assert stress(X, b) == 0.0

    def test_zero_weight_rows_are_ignored(self):
        """A dropped measurement (weight 0) may carry a NaN or infinite
        delta; stress and its normalization skip it, and a finite
        zero-weight row changes neither sum."""
        rng = np.random.default_rng(3)
        X, b = random_instance(rng)
        dropped = ObservationBatch(
            np.concatenate([b.m, [0, 1]]), np.concatenate([b.n, [2, 3]]),
            np.concatenate([b.delta, [np.nan, np.inf]]),
            np.concatenate([b.weight, [0.0, 0.0]]))
        assert stress(X, dropped) == pytest.approx(stress(X, b), rel=1e-14)
        assert dropped.total_weighted_delta_sq() == pytest.approx(
            b.total_weighted_delta_sq(), rel=1e-14)
        finite = ObservationBatch(b.m, b.n, b.delta,
                                  np.where(np.arange(len(b)) % 3, b.weight,
                                           0.0))
        assert stress(X, finite) == _stress_fancy(X, finite)
        assert finite.total_weighted_delta_sq() == float(
            np.sum(finite.weight * finite.delta**2))

    def test_translation_invariance(self):
        # the shifted coordinates round before stress sees them, so equality
        # holds to machine precision rather than bitwise
        rng = np.random.default_rng(2)
        X, b = random_instance(rng)
        shift = X + np.array([3.7, -1.2])
        assert stress(shift, b) == pytest.approx(stress(X, b), rel=1e-13)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        X, b = random_instance(rng)
        theta = rng.random() * 2 * np.pi
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        assert stress(X @ R, b) == pytest.approx(stress(X, b), rel=1e-10)


def b_epsilon_dense(X, b, eps_x):
    """Dense B^eps(X) of a batch: the Laplacian of the regularized edge
    coefficients, with exact zero row sums."""
    coef, _ = _regularized_coeffs(X, b.m, b.n, b.weight, b.delta, eps_x)
    B = np.zeros((len(X), len(X)))
    np.add.at(B, (b.m, b.n), -coef)
    np.add.at(B, (b.n, b.m), -coef)
    B[np.diag_indices_from(B)] = -B.sum(axis=1)
    return B


def b_times_x(X, b, eps_x):
    """B^eps(X) X of a batch, as the updates form it."""
    coef, diff = _regularized_coeffs(X, b.m, b.n, b.weight,
                                     b._live_delta(), eps_x)
    return _b_times_x(X, b.m, b.n, coef, diff.T)


class TestBEpsilonMatrix:
    def test_hand_value(self):
        X = np.array([[0.0, 0.0], [3.0, 0.0]])
        b = ObservationBatch.from_entries([(0, 1, 2.0, 1.0)])
        coef, _ = _regularized_coeffs(X, b.m, b.n, b.weight, b.delta, 0.0)
        np.testing.assert_allclose(coef, [2 / 3], rtol=1e-15)
        np.testing.assert_allclose(
            b_times_x(X, b, 0.0),
            np.array([[2 / 3, -2 / 3], [-2 / 3, 2 / 3]]) @ X, atol=1e-15)

    def test_coincident_points_guarded(self):
        X = np.zeros((2, 2))
        b = ObservationBatch.from_entries([(0, 1, 1.0, 1.0)])
        coef, _ = _regularized_coeffs(X, b.m, b.n, b.weight, b.delta, 1e-8)
        np.testing.assert_allclose(coef, [1e4], rtol=1e-12)
        # the eps_x = 0 guard zeroes the coincident entry entirely
        coef0, _ = _regularized_coeffs(X, b.m, b.n, b.weight, b.delta, 0.0)
        assert coef0.tolist() == [0.0]

    def test_zero_weight_entry_absent(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        b = ObservationBatch.from_entries([(0, 1, 1.0, 1.0),
                                           (1, 2, np.nan, 0.0)])
        # the caller drops zero weights (once) and groups the live batch:
        # the zero-weight pair forms no component and enters no B X
        stacks = size_stacks(group_components(b.nonzero(), 3))
        assert [s.nodes.tolist() for s in stacks] == [[[0, 1]]]
        np.testing.assert_array_equal(stacks[0].weights, [1.0])
        got = b_times_x(X, b, 0.0)
        np.testing.assert_array_equal(got, [[-1, 0], [1, 0], [0, 0]])
        assert np.array_equal(got, b_times_x(X, b.nonzero(), 0.0))

    def test_boundedness_and_zero_row_sums(self):
        rng = np.random.default_rng(4)
        eps_x = 1e-6
        for _ in range(50):
            X, b = random_instance(rng, n=8)
            bound = (b.weight * b.delta / np.sqrt(eps_x)).max()
            dense = b_epsilon_dense(X, b, eps_x)
            assert np.abs(dense).max() <= bound + 1e-12
            assert np.abs(dense.sum(axis=1)).max() <= 1e-12 * max(
                np.abs(dense).max(), 1.0)
            np.testing.assert_allclose(b_times_x(X, b, eps_x), dense @ X,
                                       atol=1e-12)


class TestSmacofIterate:
    def test_perfect_fit_fixed_point(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 2))
        X -= X.mean(axis=0)
        out = smacof_iterate(X, full_batch(X))
        np.testing.assert_allclose(out, X, atol=1e-10)

    def test_stress_non_increasing_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            X, b = random_instance(rng, n=10)
            out = smacof_iterate(X, b)
            assert stress(out, b) <= stress(X, b) + 1e-10 * (1 + stress(X, b))

    def test_converges_on_realizable_instance(self):
        rng = np.random.default_rng(7)
        truth = rng.random((12, 2)) * 3
        b = full_batch(truth)
        X = rng.standard_normal((12, 2))
        prev = stress(X, b)
        for _ in range(300):
            X = smacof_iterate(X, b)
            cur = stress(X, b)
            assert cur <= prev + 1e-10 * (1 + prev)
            prev = cur
        assert prev < stress(rng.standard_normal((12, 2)), b)

    def test_disconnected_components_iterated_independently(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 2))
        b = ObservationBatch.from_entries(
            [(0, 1, 1.0, 1.0), (2, 3, 2.0, 1.0)])  # node 4 isolated
        out = smacof_iterate(X, b)
        np.testing.assert_array_equal(out[4], X[4])
        assert stress(out, b) <= stress(X, b) + 1e-12


class TestStochasticStep:
    def test_mu_zero_identity(self):
        rng = np.random.default_rng(9)
        X, b = random_instance(rng)
        out = stochastic_step(X, b, StepConfig(mu=0.0))
        np.testing.assert_array_equal(out, X)

    def test_mu_one_full_graph_equals_batch_iterate(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            X, b = random_instance(rng, n=int(rng.integers(3, 12)))
            want = smacof_iterate(X, b)
            got = stochastic_step(X, b, StepConfig(mu=1.0, eps_x=0.0))
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_two_node_cluster_matches_spe(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            X = rng.standard_normal((2, 3))
            delta = float(rng.random() + 0.1)
            mu = float(rng.random())
            b = ObservationBatch.from_entries([(0, 1, delta, 1.0)])
            got = stochastic_step(X, b, StepConfig(mu=mu, eps_x=0.0))
            xi, xj = spe_step(X[0], X[1], delta, mu)
            np.testing.assert_allclose(got, np.vstack([xi, xj]), atol=1e-10)

    def test_center_preserved_per_component(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            X = rng.standard_normal((7, 2)) + 5.0
            b = ObservationBatch.from_entries(
                [(0, 1, 1.0, 1.0), (1, 2, 0.7, 0.4), (4, 5, 1.2, 1.0)])
            out = stochastic_step(X, b, StepConfig(mu=0.6))
            for comp in ([0, 1, 2], [4, 5]):
                np.testing.assert_allclose(
                    out[comp].sum(axis=0), X[comp].sum(axis=0),
                    rtol=1e-9, atol=1e-9)
            np.testing.assert_array_equal(out[[3, 6]], X[[3, 6]])

    def test_degenerate_cluster_skipped(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((4, 2))
        b = full_batch(X, weights=np.zeros(6))
        out = stochastic_step(X, b, StepConfig(mu=0.5))
        np.testing.assert_array_equal(out, X)

    def test_self_loop_measurement_changes_nothing(self):
        """A measurement of a node against itself adds a constant to the
        stress, so it must not move the update on either solve route."""
        rng = np.random.default_rng(26)
        p = DENSE_SOLVER_MAX + 4
        X = rng.standard_normal((p, 2))
        entries = [(v, v + 1, 1.0, 1.0) for v in range(p - 1)]
        loop = entries + [(2, 2, 1.0, 1.0)]
        for size in (5, p):
            b = ObservationBatch.from_entries(
                [e for e in entries if e[1] < size])
            bl = ObservationBatch.from_entries(
                [e for e in loop if e[1] < size])
            cfg = StepConfig(mu=0.5)
            np.testing.assert_allclose(stochastic_step(X, bl, cfg),
                                       stochastic_step(X, b, cfg), atol=1e-9)

    def test_stacked_solve_matches_per_component_path(self):
        """Equal-size components run through one batched solve; the result
        must match the generic single-component route."""
        rng = np.random.default_rng(24)
        for _ in range(20):
            X = rng.standard_normal((12, 2))
            entries = []
            for base in (0, 4, 8):  # three components of size 4
                for a in range(base, base + 3):
                    entries.append((a, a + 1, rng.random() + 0.2,
                                    rng.random() * 0.9 + 0.1))
            b = ObservationBatch.from_entries(entries)
            cfg = StepConfig(mu=0.7)
            got = stochastic_step(X, b, cfg)
            want = X.copy()
            for base in (0, 4, 8):
                keep = [i for i, e in enumerate(entries) if e[0] >= base
                        and e[0] < base + 4]
                sub = ObservationBatch.from_entries(
                    [entries[i] for i in keep])
                want_full = stochastic_step(X, sub, cfg)
                want[base:base + 4] = want_full[base:base + 4]
            np.testing.assert_allclose(got, want, atol=1e-12)


class TestStepIsLocal:
    """``stochastic_step`` hands the update kernel its batch renumbered onto
    the rows it touches, so a streamed slot costs time linear in its batch,
    not in N, and gives the update of the batch in global ids."""

    @staticmethod
    def instance(rng, node_count, touched, pairs):
        X = rng.standard_normal((node_count, 2))
        nodes = np.sort(rng.choice(node_count, touched, replace=False))
        a, b = np.triu_indices(touched, k=1)
        k = rng.choice(len(a), pairs, replace=False)
        return X, ObservationBatch(nodes[a[k]], nodes[b[k]],
                                   rng.random(pairs) + 0.5, np.ones(pairs))

    def test_streamed_batch_grouped_over_touched_rows(self, monkeypatch):
        """One 25-node batch of 105 pairs (the ref100 chunk shape) in a
        40,000-node embedding: components are labelled and B(X)X summed
        over those 25 rows only, with the result of the update over all
        rows."""
        X, batch = self.instance(np.random.default_rng(40), 40_000, 25, 105)
        rows = []
        group, b_times_x = stress_core.group_components, stress_core._b_times_x

        def spy_group(batch, node_count):
            rows.append(("group_components", node_count))
            return group(batch, node_count)

        def spy_b_times_x(X, *args):
            rows.append(("_b_times_x", len(X)))
            return b_times_x(X, *args)

        monkeypatch.setattr(stress_core, "group_components", spy_group)
        monkeypatch.setattr(stress_core, "_b_times_x", spy_b_times_x)
        trace = run_stochastic([batch], X, MuSchedule.constant(0.5), None, 1)
        assert rows == [("_b_times_x", 25), ("group_components", 25)]
        want = X.copy()
        _damped_update(want, batch, StepConfig(mu=0.5), np.arange(len(X)))
        assert np.array_equal(trace.final, want)

    def test_rows_off_the_live_batch_unchanged(self):
        """Untouched rows, and rows that only zero-weight measurements
        (here with NaN deltas) touch, come back bit for bit."""
        rng = np.random.default_rng(41)
        X, live = self.instance(rng, 60, 12, 30)
        dead = ObservationBatch([live.m[0], 55, 57], [58, 56, 59],
                                [np.nan, 1.0, np.nan], np.zeros(3))
        batch = ObservationBatch(np.r_[live.m, dead.m], np.r_[live.n, dead.n],
                                 np.r_[live.delta, dead.delta],
                                 np.r_[live.weight, dead.weight])
        out = stochastic_step(X, batch, StepConfig(mu=0.5))
        moved = np.unique(np.r_[live.m, live.n])
        rest = np.setdiff1d(np.arange(len(X)), moved)
        assert np.array_equal(out[rest], X[rest])
        assert not np.array_equal(out[moved], X[moved])
        assert np.array_equal(out, stochastic_step(X, live, StepConfig(mu=0.5)))


class TestClosedFormBesideDense:
    """K4 at w = 1e-100 and a 4-node path at w = 1 form one stack of size
    4. K4 is solved in closed form; a dense solve of the whole stack would
    raise on its singular shifted matrix. Each update must equal, per
    component, that component updated alone."""

    @staticmethod
    def instance():
        rng = np.random.default_rng(38)
        k4 = [(i, j, rng.uniform(0.5, 2.0), 1e-100)
              for i in range(4) for j in range(i + 1, 4)]
        path = [(v, v + 1, rng.uniform(0.5, 2.0), 1.0) for v in range(4, 7)]
        return rng.standard_normal((8, 2)), k4, path

    @pytest.mark.parametrize("update", [
        smacof_iterate,
        lambda X, b: stochastic_step(X, b, StepConfig(mu=0.5, eps_w=1e-300)),
    ], ids=["smacof_iterate", "stochastic_step"])
    def test_each_component_as_alone(self, update):
        X, k4, path = self.instance()
        got = update(X, ObservationBatch.from_entries(k4 + path))
        assert np.all(np.isfinite(got))
        for entries, rows in ((k4, slice(0, 4)), (path, slice(4, 8))):
            alone = update(X, ObservationBatch.from_entries(entries))
            assert np.array_equal(got[rows], alone[rows])


class TestBatchIndices:
    """The public updates reject node ids outside [0, N), as
    ``run_batch_smacof`` does, instead of wrapping -1 to N - 1."""

    @pytest.mark.parametrize("update", [
        smacof_iterate,
        lambda X, b: stochastic_step(X, b, StepConfig()),
        stress,
        lambda X, b: sgd_step(X, b, 0.1),
    ], ids=["smacof_iterate", "stochastic_step", "stress", "sgd_step"])
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_id_rejected(self, update, bad):
        X = np.random.default_rng(39).standard_normal((4, 2))
        b = ObservationBatch.from_entries([(0, bad, 1.0, 1.0),
                                           (1, 2, 1.0, 1.0)])
        with pytest.raises(ValueError, match="node index out of range"):
            update(X, b)


def _component_instance(rng, sizes, isolated, zero_edges):
    """Random batch over connected components of the given sizes plus
    isolated nodes, zero-weight edges and a few pairs measured twice, with
    shuffled node ids, edge order and orientation. Returns (node count,
    components, batch)."""
    n = sum(sizes) + isolated
    ids = rng.permutation(n)
    comps, entries, start = [], [], 0
    for size in sizes:
        nodes = ids[start:start + size]
        start += size
        comps.append(np.sort(nodes))
        pairs = {(int(rng.integers(0, v)), v) for v in range(1, size)}
        iu, ju = np.triu_indices(size, k=1)
        extra = rng.random(len(iu)) < 0.3
        pairs |= set(zip(iu[extra].tolist(), ju[extra].tolist()))
        for u, v in pairs:
            a, b = (nodes[u], nodes[v]) if rng.random() < 0.5 \
                else (nodes[v], nodes[u])
            entries.append((a, b, rng.random() + 0.2, rng.uniform(0.05, 1.0)))
    for k in rng.choice(len(entries), size=min(3, len(entries)), replace=False):
        a, b = entries[k][:2] if rng.random() < 0.5 else entries[k][1::-1]
        entries.append((a, b, rng.random() + 0.2, rng.uniform(0.05, 1.0)))
    seen = {(min(a, b), max(a, b)) for a, b, _, _ in entries}
    while zero_edges:
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        if (min(a, b), max(a, b)) not in seen:
            seen.add((min(a, b), max(a, b)))
            entries.append((a, b, rng.random() + 0.2, 0.0))
            zero_edges -= 1
    entries = [entries[k] for k in rng.permutation(len(entries))]
    return n, comps, ObservationBatch.from_entries(entries)


def _reference_solution(X, comps, batch, eps_x):
    """pinv(L_C) B^eps(X_C) X_C per component from dense matrices, with
    every measurement adding its own entry."""
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


@st.composite
def component_batches(draw):
    """Sizes with a repeated size, a one-off size and random extras, plus
    isolated nodes and zero-weight edges."""
    repeated = draw(st.integers(2, 6))
    one_off = draw(st.integers(7, 12))
    extra = draw(st.lists(st.integers(2, 9), max_size=4))
    sizes = [repeated, repeated, one_off] + extra
    order = draw(st.permutations(range(len(sizes))))
    return ([sizes[k] for k in order], draw(st.integers(1, 4)),
            draw(st.integers(1, 5)), draw(st.integers(0, 2**32 - 1)))


class TestComponentLayerReference:
    """Grouping and the batched min-norm solve against dense pinv
    references, per component."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(component_batches(), st.floats(0.05, 1.0))
    def test_stochastic_step_matches_reference(self, case, mu):
        sizes, isolated, zero_edges, seed = case
        rng = np.random.default_rng(seed)
        n, comps, batch = _component_instance(rng, sizes, isolated, zero_edges)
        X = rng.standard_normal((n, 2)) * 3
        cfg = StepConfig(mu=mu, eps_x=1e-8)
        got = stochastic_step(X, batch, cfg)
        want = X.copy()
        for nodes, sol in _reference_solution(X, comps, batch, 1e-8).items():
            Xc = X[list(nodes)]
            want[list(nodes)] = ((1 - mu) * Xc + mu * Xc.mean(axis=0)
                                 + mu * sol)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(component_batches())
    def test_smacof_iterate_matches_reference(self, case):
        sizes, isolated, zero_edges, seed = case
        rng = np.random.default_rng(seed)
        n, comps, batch = _component_instance(rng, sizes, isolated, zero_edges)
        X = rng.standard_normal((n, 2)) * 3
        got = smacof_iterate(X, batch)
        want = X.copy()
        for nodes, sol in _reference_solution(X, comps, batch, 0.0).items():
            want[list(nodes)] = sol
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_component_above_dense_limit_takes_cg(self, monkeypatch):
        rng = np.random.default_rng(25)
        sizes = [DENSE_SOLVER_MAX + 8, 3, 3, 5]
        n, comps, batch = _component_instance(rng, sizes, 2, 4)
        cg_calls = []
        real_cg = graph_linalg._solve_cg

        def spy_cg(*args):
            cg_calls.append(args)
            return real_cg(*args)

        monkeypatch.setattr(graph_linalg, "_solve_cg", spy_cg)
        X = rng.standard_normal((n, 2)) * 3
        want_smacof = X.copy()
        want_step = X.copy()
        mu = 0.4
        for nodes, sol in _reference_solution(X, comps, batch, 1e-8).items():
            Xc = X[list(nodes)]
            want_step[list(nodes)] = ((1 - mu) * Xc + mu * Xc.mean(axis=0)
                                      + mu * sol)
        for nodes, sol in _reference_solution(X, comps, batch, 0.0).items():
            want_smacof[list(nodes)] = sol
        np.testing.assert_allclose(
            stochastic_step(X, batch, StepConfig(mu=mu, eps_x=1e-8)),
            want_step, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(smacof_iterate(X, batch), want_smacof,
                                   rtol=1e-9, atol=1e-9)
        assert len(cg_calls) >= 2  # one per update


def size_stacks(groups):
    """A grouping's components as one ``ComponentStack`` per size, in
    order."""
    return [groups._stack(c0, c1) for _, c0, c1 in groups.runs]


def _per_stack_update(Xn, batch, cfg, nodes):
    """The update one size-stack at a time: each stack's own route,
    solve, center and blend, as the kernel applied it before it took a
    whole chunk in one pass."""
    mu = cfg.mu
    live = batch.nonzero()
    X = np.take(Xn, nodes, axis=0)
    coef, diff = _regularized_coeffs(X, live.m, live.n, live.weight,
                                     live.delta, cfg.eps_x)
    bx = _b_times_x(X, live.m, live.n, coef, diff.T)
    for stack in size_stacks(group_components(live, len(nodes))):
        rows = nodes[stack.nodes]
        Xc = np.take(Xn, rows, axis=0)
        y = stack.solve(np.take(bx, stack.nodes, axis=0))
        center = Xc.sum(axis=1, keepdims=True) / stack.size
        Xn[rows] = (1.0 - mu) * Xc + mu * center + mu * y


def _star_batch(rng, node_count, stars):
    """A protocol round's batch in local ids: each star a head, then its
    members, each member measured to its head, a timed-out star at weight
    0; and the distinct rows the stars hold."""
    sizes = rng.integers(2, 12, stars)
    nodes = rng.choice(node_count, int(sizes.sum()), replace=False)
    heads = np.cumsum(sizes) - sizes
    m = np.repeat(heads, sizes - 1)
    k = np.delete(np.arange(len(nodes)), heads)
    ride = (rng.random(stars) < 0.85).astype(float)
    return (ObservationBatch(m, k, rng.uniform(0.5, 3.0, len(m)),
                             np.repeat(ride, sizes - 1)), nodes)


class TestChunkKernelAgainstPerStack:
    """``_damped_update`` takes a chunk's components in one pass; it must
    give what the per-stack loop gives, bit for bit."""

    @pytest.mark.parametrize("n, p, q, fraction, scheme", [
        (100, 25, None, 0.35, "unity"),
        (1001, 7, 5, None, "sammon"),
        (5000, 100, 50, None, "unity"),
        (300, 12, None, 1.0, "sammon"),
        (300, 12, None, 1.0, "unity"),
        (2000, 2, 1, None, "unity"),
    ])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_slot_chunks(self, n, p, q, fraction, scheme, dim):
        rng = np.random.default_rng([n, p, dim])
        provider = FeatureProvider(rng.random((n, 2)) * 10, metric="euclidean")
        sampler = SamplerConfig(p=p, q=q, fraction=fraction, scheme=scheme)
        X = rng.standard_normal((n, dim)) * 5
        perm = rng.permutation(n)
        for span, sizes, counts in _slot_plan(n, sampler)[:3]:
            nodes = perm[span]
            batch = _sample_chunk(provider, nodes, sizes, counts, sampler,
                                  rng, 0.3, 1e-6, clamp=True)
            cfg = StepConfig(mu=0.3, eps_x=1e-8)
            got, want = X.copy(), X.copy()
            _damped_update(got, batch, cfg, nodes)
            _per_stack_update(want, batch, cfg, nodes)
            assert np.array_equal(got, want)
            assert not np.array_equal(got, X)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_star_batches(self, seed, dim):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((200, dim)) * 5
        batch, nodes = _star_batch(rng, 200, int(rng.integers(1, 16)))
        cfg = StepConfig(mu=0.5, eps_x=1e-8)
        got, want = X.copy(), X.copy()
        _damped_update(got, batch, cfg, nodes)
        _per_stack_update(want, batch, cfg, nodes)
        assert np.array_equal(got, want)

    def test_large_chunk_assembles_once_and_solves_once_per_size(
            self, monkeypatch):
        """A chunk of an N = 40,000, p = 100, q = 50 slot: one dense
        assembly, and one LAPACK call per size that some component not
        solved in closed form has."""
        n = 40_000
        rng = np.random.default_rng(7)
        provider = FeatureProvider(rng.random((n, 2)) * 200,
                                   metric="euclidean")
        sampler = SamplerConfig(p=100, q=50)
        span, sizes, counts = _slot_plan(n, sampler)[0]
        nodes = rng.permutation(n)[span]
        batch = _sample_chunk(provider, nodes, sizes, counts, sampler, rng,
                              0.0, 1e-6, clamp=True)
        dense = set()
        for comp in group_components(batch, len(nodes)).split():
            pairs = {(min(a, b), max(a, b)) for a, b in
                     zip(comp.a.tolist(), comp.b.tolist())}
            complete = (len(pairs) == comp.nnz == comp.size * (comp.size - 1)
                        // 2 and len(set(comp.weights.tolist())) == 1)
            if not complete:
                dense.add(comp.size)
        assembled, solved = [], []
        real_assembly, real_solve = graph_linalg._shifted_dense, np.linalg.solve
        monkeypatch.setattr(graph_linalg, "_shifted_dense",
                            lambda *a: assembled.append(1) or real_assembly(*a))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda A, b: solved.append(A.shape[-1])
                            or real_solve(A, b))
        _damped_update(rng.random((n, 2)), batch, StepConfig(mu=0.1), nodes)
        assert len(assembled) == 1
        assert solved == sorted(dense) and len(dense) > 15


def _stress_fancy(X, batch):
    diff = X[batch.m] - X[batch.n]
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return float(np.sum(batch.weight * (batch.delta - d) ** 2))


def _coeffs_fancy(X, m, n, w, delta, eps_x):
    diff = X[m] - X[n]
    d2 = np.einsum("ij,ij->i", diff, diff)
    if eps_x > 0:
        return w * delta / np.sqrt(d2 + eps_x), diff
    coef = np.zeros_like(d2)
    pos = d2 > 0
    coef[pos] = (w[pos] * delta[pos]) / np.sqrt(d2[pos])
    return coef, diff


def _b_times_x_fancy(X, m, n, w, delta, eps_x):
    coef, diff = _coeffs_fancy(X, m, n, w, delta, eps_x)
    contrib = coef[:, None] * diff
    out = np.empty_like(X)
    for col in range(X.shape[1]):
        out[:, col] = (
            np.bincount(m, weights=contrib[:, col], minlength=len(X))
            - np.bincount(n, weights=contrib[:, col], minlength=len(X)))
    return out


class TestGathersBitIdentical:
    """The stress and B(X)X kernels gather rows with ``np.take``; they must
    equal plain fancy-index copies bit for bit, coincident endpoints and
    zero-weight edges included."""

    @staticmethod
    def instance(rng, count, size, dim):
        """``count * size`` rows and a batch of random measurements within
        each block of ``size`` rows, with a zero-weight edge and, per block,
        two coincident endpoints (its rows 0 and 1) measured against each
        other."""
        X = rng.standard_normal((count, size, dim))
        X[:, 1] = X[:, 0]
        m, n = [], []
        for k in range(count):
            pairs = rng.choice(size, size=(3 * size, 2))
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            m += [k * size] + (k * size + pairs[:, 0]).tolist()
            n += [k * size + 1] + (k * size + pairs[:, 1]).tolist()
        w = rng.uniform(0.05, 1.0, len(m))
        w[len(m) // 2] = 0.0
        return X.reshape(-1, dim), ObservationBatch(
            np.array(m), np.array(n), rng.random(len(m)) + 0.2, w)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("eps_x", [0.0, 1e-8])
    def test_matches_fancy_index(self, dim, eps_x):
        rng = np.random.default_rng(40 + dim)
        for count, size in [(1, 2), (1, 9), (4, 5), (3, 30)]:
            X, b = self.instance(rng, count, size, dim)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                coef, diff = _regularized_coeffs(
                    X, b.m, b.n, b.weight, b.delta, eps_x)
                got_bx = _b_times_x(X, b.m, b.n, coef, diff.copy().T)
                # the batch plan gathers one column at a time instead
                cols = (np.take(X[:, c], b.m) - np.take(X[:, c], b.n)
                        for c in range(dim))
                assert np.array_equal(_b_times_x(X, b.m, b.n, coef, cols),
                                      got_bx)
            want_coef, want_diff = _coeffs_fancy(
                X, b.m, b.n, b.weight, b.delta, eps_x)
            assert np.array_equal(coef, want_coef)
            assert np.array_equal(diff, want_diff)
            assert np.array_equal(got_bx, _b_times_x_fancy(
                X, b.m, b.n, b.weight, b.delta, eps_x))
            if eps_x == 0.0:  # coincident endpoints: coefficient exactly 0
                coincident = np.all(diff == 0, axis=1)
                assert coincident.any() and np.all(coef[coincident] == 0.0)
            assert stress(X, b) == _stress_fancy(X, b)


class TestSpeStep:
    def test_substitution_example(self):
        # frozen from the dense pseudo-inverse route on the same pair
        xi, xj = spe_step(np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                          delta=1.0, mu=0.5)
        np.testing.assert_allclose(xi, [0.25, 0.0], atol=1e-12)
        np.testing.assert_allclose(xj, [1.75, 0.0], atol=1e-12)

    def test_matches_pinv_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            X = rng.standard_normal((2, 2))
            delta = float(rng.random() + 0.1)
            mu = float(rng.random())
            w = float(rng.random() * 0.9 + 0.1)
            L = w * np.array([[1.0, -1.0], [-1.0, 1.0]])
            d = np.linalg.norm(X[0] - X[1])
            B = (w * delta / d) * np.array([[1.0, -1.0], [-1.0, 1.0]])
            Ld = np.linalg.pinv(L)
            want = (np.eye(2) - mu * (Ld @ L)) @ X + mu * Ld @ B @ X
            xi, xj = spe_step(X[0], X[1], delta, mu)
            np.testing.assert_allclose(np.vstack([xi, xj]), want, atol=1e-10)

    def test_fixed_point_at_exact_distance(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((2, 2))
        d = float(np.linalg.norm(X[0] - X[1]))
        for mu in (0.1, 0.5, 1.0):
            xi, xj = spe_step(X[0], X[1], d, mu)
            np.testing.assert_allclose(np.vstack([xi, xj]), X, atol=1e-12)

    def test_mu_zero_identity(self):
        xi, xj = spe_step(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 1.0, 0.0)
        np.testing.assert_array_equal(xi, [1.0, 2.0])
        np.testing.assert_array_equal(xj, [3.0, 4.0])

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            spe_step(np.zeros(2), np.zeros(2), 1.0, 0.5)


class TestSgdStep:
    def test_mu_zero_identity(self):
        rng = np.random.default_rng(18)
        X, b = random_instance(rng)
        out = sgd_step(X, b, 0.0)
        np.testing.assert_array_equal(out, X)

    def test_perfect_fit_unchanged(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((6, 2))
        out = sgd_step(X, full_batch(X), 0.3)
        np.testing.assert_allclose(out, X, atol=1e-12)

    def test_gradient_direction_against_finite_differences(self):
        """One step moves along -1/2 grad(stress) scaled by mu."""
        rng = np.random.default_rng(20)
        X, b = random_instance(rng, n=5)
        out = sgd_step(X, b, mu=1.0)
        direction = out - X
        h = 1e-6
        grad = np.zeros_like(X)
        for i in range(X.shape[0]):
            for k in range(X.shape[1]):
                Xp = X.copy()
                Xp[i, k] += h
                Xm = X.copy()
                Xm[i, k] -= h
                grad[i, k] = (stress(Xp, b) - stress(Xm, b)) / (2 * h)
        np.testing.assert_allclose(direction, -0.5 * grad, atol=1e-5)

    def test_nonfinite_flagged(self):
        X = np.array([[-1e308, 0.0], [1e308, 0.0]])  # difference overflows
        b = ObservationBatch.from_entries([(0, 1, 1.0, 1.0)])
        with np.errstate(over="ignore", invalid="ignore"):
            out = sgd_step(X, b, 1.0)
        assert not np.all(np.isfinite(out))


class TestAveraged:
    def test_upsilon_values(self):
        assert upsilon(5, 5) == pytest.approx(1.0)
        assert upsilon(2, 2) == pytest.approx(1.0)
        assert upsilon(6, 3) == pytest.approx(6 * 2 / (3 * 5))

    def test_closed_form_two_nodes(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0]])
        E = np.array([[0.0, 1.5], [1.5, 0.0]])
        B = closed_form_b_average(X, E, eps_x=0.0, p=2)
        dbar = 1.5 / 2.0
        np.testing.assert_allclose(
            B, 0.5 * np.array([[dbar, -dbar], [-dbar, dbar]]), atol=1e-15)

    def test_p_must_divide_n(self):
        X = np.zeros((6, 2))
        with pytest.raises(ValueError):
            closed_form_b_average(X, np.ones((6, 6)), 1e-8, p=4)

    def test_mu_zero_identity(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((4, 2))
        X -= X.mean(axis=0)
        E = np.abs(rng.random((4, 4))) + 0.5
        E = (E + E.T) / 2
        np.fill_diagonal(E, 0)
        B = closed_form_b_average(X, E, 1e-8, p=2)
        out = averaged_step(X, B, mu=0.0, ups=upsilon(4, 2))
        np.testing.assert_array_equal(out, X)

    def test_closed_form_matches_monte_carlo(self):
        """Quick version of the averaging oracle; the acceptance suite runs
        the full draw counts."""
        rng = np.random.default_rng(22)
        N, p, eps_x = 4, 2, 1e-8
        X = rng.standard_normal((N, 2))
        X -= X.mean(axis=0)
        E = np.abs(rng.random((N, N))) + 0.5
        E = (E + E.T) / 2
        np.fill_diagonal(E, 0)
        closed = closed_form_b_average(X, E, eps_x, p)
        mean, se = _monte_carlo_lb(X, E, eps_x, p, draws=20000, rng=rng)
        assert np.all(np.abs(mean - closed) <= 3 * se + 1e-4)

    def test_averaged_trajectory_matches_relaxed_batch(self):
        """p = N with deterministic deltas reduces to the relaxed batch
        update (1-mu) X + mu pinv(L) B X."""
        rng = np.random.default_rng(23)
        N, mu = 6, 0.3
        truth = rng.random((N, 2)) * 2
        iu, ju = np.triu_indices(N, k=1)
        E = np.zeros((N, N))
        E[iu, ju] = E[ju, iu] = np.linalg.norm(truth[iu] - truth[ju], axis=1)
        X = rng.standard_normal((N, 2))
        X -= X.mean(axis=0)
        Xa = X.copy()
        batch = ObservationBatch(iu, ju, E[iu, ju], np.ones(len(iu)))
        for _ in range(25):
            B = closed_form_b_average(Xa, E, eps_x=1e-14, p=N)
            Xa = averaged_step(Xa, B, mu, ups=1.0)
            X = (1 - mu) * X + mu * smacof_iterate(X, batch)
            np.testing.assert_allclose(Xa, X, atol=1e-8)


def _monte_carlo_lb(X, E, eps_x, p, draws, rng):
    """Monte-Carlo estimate of the expected pinv(L) B^eps(X) matrix under the
    compliant sampler: uniform partition into size-p clusters, all
    intra-cluster pairs weighted i.i.d. uniform on [eps_w, 1]."""
    N = X.shape[0]
    acc = np.zeros((N, N))
    acc2 = np.zeros((N, N))
    iu, ju = np.triu_indices(p, k=1)
    for _ in range(draws):
        perm = rng.permutation(N)
        full = np.zeros((N, N))
        for k in range(N // p):
            c = np.sort(perm[k * p:(k + 1) * p])
            m, n = c[iu], c[ju]
            w = rng.uniform(1e-3, 1.0, size=len(m))
            d2 = np.sum((X[m] - X[n]) ** 2, axis=1)
            coef = w * E[m, n] / np.sqrt(d2 + eps_x)
            L = np.zeros((p, p))
            L[iu, ju] = L[ju, iu] = -w
            L[np.diag_indices(p)] = -L.sum(axis=1)
            B = np.zeros((p, p))
            B[iu, ju] = B[ju, iu] = -coef
            B[np.diag_indices(p)] = -B.sum(axis=1)
            full[np.ix_(c, c)] = np.linalg.pinv(L) @ B
        acc += full
        acc2 += full * full
    mean = acc / draws
    se = np.sqrt(np.maximum(acc2 / draws - mean**2, 0) / draws)
    return mean, se
