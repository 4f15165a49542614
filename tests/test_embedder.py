"""Run drivers, schedules, traces, and steady-state metrics."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmds import (
    MuSchedule,
    ObservationBatch,
    SamplerConfig,
    StepConfig,
    hovering_deviation,
    random_init,
    run_averaged_oracle,
    run_batch_smacof,
    run_stochastic,
    sgd_step,
    smacof_iterate,
    steady_state_stats,
    stochastic_step,
    stress,
)
from stochmds import embedder, graph_linalg, observations, stress_core
from stochmds.data_io import EdgeListProvider, FeatureProvider, \
    MatrixProvider
from stochmds.embedder import _CHUNK_DIVISOR, _CHUNK_FLOOR, _chunk_limit, \
    _slot_plan, _usable_pairs, estimate_scale
from stochmds.graph_linalg import DENSE_SOLVER_MAX
from stochmds.rng import substream
from stochmds.sampling import _sample_local_pairs, _shuffled_nodes, \
    assign_weights, partition_nodes


def planar_provider(n, seed=0, side=10.0):
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2)) * side
    return FeatureProvider(coords, metric="euclidean"), coords


def full_batch_from(coords):
    n = len(coords)
    iu, ju = np.triu_indices(n, k=1)
    deltas = np.linalg.norm(coords[iu] - coords[ju], axis=1)
    return ObservationBatch(iu, ju, deltas, np.ones(len(iu)))


class TestMuSchedule:
    def test_constant(self):
        s = MuSchedule.constant(0.2)
        assert s.mu_at(0) == s.mu_at(999) == 0.2

    def test_constant_range(self):
        with pytest.raises(ValueError):
            MuSchedule.constant(0.0)
        with pytest.raises(ValueError):
            MuSchedule.constant(1.5)

    def test_piecewise(self):
        s = MuSchedule.piecewise([0, 1000, 2000], [0.2, 0.05, 0.001])
        assert s.mu_at(0) == 0.2
        assert s.mu_at(999) == 0.2
        assert s.mu_at(1000) == 0.05
        assert s.mu_at(2500) == 0.001

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            MuSchedule.piecewise([5, 10], [0.1, 0.2])  # must start at 0
        with pytest.raises(ValueError):
            MuSchedule.piecewise([0, 10], [0.1, 1.5])

    def test_reciprocal(self):
        s = MuSchedule.reciprocal(2.0)
        assert s.mu_at(0) == 1.0  # min(1, 2/1)
        assert s.mu_at(3) == 0.5
        assert s.mu_at(19) == 0.1


class TestRunBatchSmacof:
    def test_perfect_fit_terminates_first_iteration(self):
        rng = np.random.default_rng(0)
        coords = rng.random((10, 2))
        coords -= coords.mean(axis=0)
        trace = run_batch_smacof(full_batch_from(coords), coords)
        assert trace.status == "converged"
        assert len(trace.records) == 2  # initial + one iterate
        assert trace.records[-1]["stress"] == pytest.approx(0.0, abs=1e-18)

    def test_iteration_cap(self):
        rng = np.random.default_rng(1)
        coords = rng.random((8, 2))
        init = random_init(8, 2, rng, 1.0)
        trace = run_batch_smacof(full_batch_from(coords), init, tol=0.0,
                                 max_iters=5)
        assert trace.status == "max_iters"
        assert trace.slot_index().tolist() == [0, 1, 2, 3, 4, 5]

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(2)
        coords = rng.random((20, 2)) * 5
        init = random_init(20, 2, rng, 5.0)
        trace = run_batch_smacof(full_batch_from(coords), init, tol=1e-10,
                                 max_iters=200)
        s = trace.stresses()
        assert np.all(np.diff(s) <= 1e-10 * (1 + s[:-1]))

    def test_nonfinite_iterate_stops_diverged(self):
        """Dissimilarities near the float range overflow B(X) X; the run
        stops at once and keeps the last finite embedding."""
        init = random_init(8, 2, np.random.default_rng(0), 1.0)
        iu, ju = np.triu_indices(8, k=1)
        batch = ObservationBatch(iu, ju, np.full(len(iu), 1e308),
                                 np.ones(len(iu)))
        with np.errstate(all="ignore"):
            trace = run_batch_smacof(batch, init, max_iters=5)
        assert trace.status == "diverged"
        assert len(trace.records) == 1
        np.testing.assert_array_equal(trace.final, init)

    def test_exact_recovery_small(self):
        rng = np.random.default_rng(3)
        coords = rng.random((40, 2)) * 10
        init = random_init(40, 2, rng, 10.0)
        trace = run_batch_smacof(full_batch_from(coords), init, tol=1e-14,
                                 max_iters=2000)
        assert trace.records[-1]["stress_norm"] < 1e-6


def _plain_batch_run(batch, init, tol, max_iters):
    """``run_batch_smacof`` as a loop of one-shot iterates and ``stress``
    calls: the reference for its batch plan."""
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


def _batch_of_components(rng, sizes, complete, isolated=2, dead=4):
    """One batch holding a component per size, on shuffled node ids with
    random orientation and edge order: complete graphs at one weight per
    component when ``complete``, else random connected graphs with weights
    in [0.2, 1]. ``dead`` zero-weight rows with NaN delta (a dropped
    measurement) join random node pairs; ``isolated`` nodes get none."""
    n = sum(sizes) + isolated
    ids = rng.permutation(n)
    rows, start = [], 0
    for size in sizes:
        nodes = ids[start:start + size]
        start += size
        iu, ju = np.triu_indices(size, k=1)
        if complete:
            keep = np.ones(len(iu), dtype=bool)
            w = np.full(len(iu), rng.choice([1.0, 0.5, 0.25]))
        else:
            keep = rng.random(len(iu)) < 0.3
            keep[[v * (v - 1) // 2 for v in range(1, size)]] = True
            w = rng.uniform(0.2, 1.0, len(iu))
        for i, j, wk in zip(iu[keep], ju[keep], w[keep]):
            a, b = (nodes[i], nodes[j]) if rng.random() < 0.5 \
                else (nodes[j], nodes[i])
            rows.append((a, b, rng.uniform(0.5, 3.0), wk))
    for _ in range(dead):
        a, b = rng.choice(sum(sizes), size=2, replace=False)
        rows.append((ids[a], ids[b], np.nan, 0.0))
    rows = [rows[k] for k in rng.permutation(len(rows))]
    return n, ObservationBatch.from_entries(rows)


class TestBatchPlan:
    """``run_batch_smacof`` plans its batch once; each route must give what
    plain one-shot iterates and ``stress`` calls give."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_closed_form_route_is_bit_identical(self, dim, monkeypatch):
        rng = np.random.default_rng(40 + dim)
        n, batch = _batch_of_components(rng, [3, 3, 5, 4, 7], complete=True)
        init = random_init(n, dim, rng, 3.0)
        dense = []
        monkeypatch.setattr(graph_linalg, "_cholesky",
                            lambda *a: dense.append(a))
        trace = run_batch_smacof(batch, init, tol=0.0, max_iters=12)
        assert not dense  # every component took the closed form
        want_X, want_s = _plain_batch_run(batch, init, 0.0, 12)
        assert np.array_equal(trace.final, want_X)
        assert np.array_equal(trace.stresses(), want_s)
        assert np.all(np.isfinite(trace.stresses()))

    def test_dense_route_matches_to_round_off(self):
        rng = np.random.default_rng(44)
        n, batch = _batch_of_components(rng, [30, 12, 12, 6], complete=False)
        init = random_init(n, 2, rng, 3.0)
        trace = run_batch_smacof(batch, init, tol=1e-9, max_iters=30)
        want_X, want_s = _plain_batch_run(batch, init, 1e-9, 30)
        assert len(trace.records) == len(want_s)
        np.testing.assert_allclose(trace.final, want_X, rtol=0,
                                   atol=1e-12 * np.abs(want_X).max())
        np.testing.assert_allclose(trace.stresses(), want_s, rtol=1e-12)

    def test_cg_route_builds_its_system_once(self, monkeypatch):
        rng = np.random.default_rng(46)
        size = DENSE_SOLVER_MAX + 8
        n, batch = _batch_of_components(rng, [size], complete=False)
        init = random_init(n, 2, rng, 3.0)
        built = []
        real = graph_linalg._sparse
        monkeypatch.setattr(graph_linalg, "_sparse",
                            lambda stack: built.append(stack) or real(stack))
        trace = run_batch_smacof(batch, init, tol=0.0, max_iters=4)
        assert len(trace.records) == 5
        assert len(built) == 1 and built[0].size == size
        want_X, want_s = _plain_batch_run(batch, init, 0.0, 4)
        assert len(built) == 1 + 4  # the plain loop builds it per iterate
        assert np.array_equal(trace.final, want_X)
        assert np.array_equal(trace.stresses(), want_s)

    def test_one_module_level_iterate_per_iteration(self, monkeypatch):
        """Each iteration goes through ``embedder.smacof_iterate`` once, so
        a wrapper of that name sees every iteration."""
        calls = []
        real = embedder.smacof_iterate
        monkeypatch.setattr(embedder, "smacof_iterate",
                            lambda *a: calls.append(a) or real(*a))
        rng = np.random.default_rng(47)
        coords = rng.random((15, 2)) * 4
        trace = run_batch_smacof(full_batch_from(coords),
                                 random_init(15, 2, rng, 4.0), tol=0.0,
                                 max_iters=7)
        assert len(calls) == len(trace.records) - 1 == 7

    def test_empty_batch(self):
        init = random_init(4, 2, np.random.default_rng(0), 1.0)
        trace = run_batch_smacof(ObservationBatch.empty(), init,
                                 max_iters=3)
        assert trace.status == "converged"
        assert trace.stresses().tolist() == [0.0, 0.0]
        np.testing.assert_array_equal(trace.final, init)


class TestDroppedMeasurements:
    """A zero-weight row may carry a NaN delta (``validate`` allows it); it
    carries no information and must not reach stress or its norm."""

    def _batch(self):
        return ObservationBatch.from_entries(
            [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (0, 2, np.nan, 0.0)])

    def test_streamed_run_stress_is_finite(self):
        b = self._batch().validate(3)
        init = random_init(3, 2, np.random.default_rng(0), 1.0)
        trace = run_stochastic([b, b], init, MuSchedule.constant(0.5), None,
                               slots=2)
        assert trace.status == "ok"
        assert np.all(np.isfinite(trace.stresses()))
        norms = [r["stress_norm"] for r in trace.records]
        # the first record has no batch to evaluate yet
        assert np.all(np.isfinite(norms)) and min(norms[1:]) > 0

    def test_batch_run_converges(self):
        b = self._batch()
        init = random_init(3, 2, np.random.default_rng(1), 1.0)
        trace = run_batch_smacof(b, init, tol=1e-9, max_iters=200)
        assert trace.status == "converged"
        assert np.all(np.isfinite(trace.stresses()))
        assert trace.records[-1]["stress"] < 1e-12


class TestRunStochastic:
    def test_zero_slots_initial_only(self):
        provider, coords = planar_provider(12)
        init = random_init(12, 2, np.random.default_rng(0), 10.0)
        sampler = SamplerConfig(p=4, fraction=1.0, seed=5)
        trace = run_stochastic(provider, init, MuSchedule.constant(0.1),
                               sampler, slots=0)
        assert len(trace.records) == 1
        assert trace.records[0]["t"] == 0
        np.testing.assert_array_equal(trace.final, init)

    def test_stress_decreases_on_clean_data(self):
        provider, coords = planar_provider(40, seed=4)
        init = random_init(40, 2, np.random.default_rng(1), 10.0)
        sampler = SamplerConfig(p=10, fraction=0.5, seed=6)
        trace = run_stochastic(provider, init, MuSchedule.constant(0.3),
                               sampler, slots=300)
        s = trace.stresses()
        assert s[-1] < 0.1 * s[0]

    @pytest.mark.parametrize("streaming", [False, True])
    def test_nonfinite_iterate_stops_diverged(self, streaming):
        n = 8
        deltas = np.full((n, n), 1e308)
        np.fill_diagonal(deltas, 0.0)
        init = random_init(n, 2, np.random.default_rng(1), 1.0)
        if streaming:
            iu, ju = np.triu_indices(n, k=1)
            batch = ObservationBatch(iu, ju, deltas[iu, ju], np.ones(len(iu)))
            source, sampler = iter([batch] * 3), None
        else:
            source = MatrixProvider(deltas)
            sampler = SamplerConfig(p=4, fraction=1.0, seed=0)
        with np.errstate(all="ignore"):
            trace = run_stochastic(source, init, MuSchedule.constant(0.5),
                                   sampler, 3, eval_pairs=0)
        assert trace.status == "diverged"
        assert len(trace.records) == 1
        assert np.all(np.isfinite(trace.final))

    def test_stream_source_and_truncation(self):
        rng = np.random.default_rng(3)
        coords = rng.random((6, 2))
        batches = [full_batch_from(coords) for _ in range(3)]
        init = random_init(6, 2, rng, 1.0)
        trace = run_stochastic(iter(batches), init, MuSchedule.constant(0.5),
                               None, slots=10)
        assert trace.status == "truncated"
        assert trace.slot_index().tolist() == [0, 1, 2, 3]

    def test_streamed_self_loop_rejected(self):
        batch = ObservationBatch([0, 1], [1, 1], [1.0, 2.0], [1.0, 1.0])
        init = random_init(3, 2, np.random.default_rng(0), 1.0)
        with pytest.raises(ValueError, match="self-loop"):
            run_stochastic(iter([batch]), init, MuSchedule.constant(0.5),
                           None, slots=1)

    @pytest.mark.parametrize("delta, weight",
                             [(np.nan, 1.0), (np.inf, 0.5), (1.0, np.nan)])
    def test_streamed_nonfinite_value_rejected(self, delta, weight):
        batch = ObservationBatch([0, 1], [1, 2], [1.0, delta], [1.0, weight])
        init = random_init(3, 2, np.random.default_rng(0), 1.0)
        with pytest.raises(ValueError, match="finite|weights"):
            run_stochastic(iter([batch]), init, MuSchedule.constant(0.5),
                           None, slots=1)

    def test_streamed_repeated_pair_runs(self):
        """A pair measured twice is valid: each measurement counts."""
        batch = ObservationBatch([0, 1, 1], [1, 0, 2], [1.0, 1.5, 2.0],
                                 [1.0, 0.5, 1.0])
        init = random_init(3, 2, np.random.default_rng(0), 1.0)
        trace = run_stochastic(iter([batch] * 2), init,
                               MuSchedule.constant(0.5), None, slots=2)
        assert trace.status == "ok"
        assert len(trace.records) == 3

    @pytest.mark.parametrize("mode", ["stochastic", "sgd"])
    def test_streamed_ids_checked_once_per_slot(self, monkeypatch, mode):
        """``validate`` checks a streamed batch's ids and the step does not
        check them again; an id outside [0, N) still raises."""
        calls = []

        def counting(batch, node_count):
            calls.append(node_count)
            check(batch, node_count)

        check = observations._validate_batch_indices
        monkeypatch.setattr(observations, "_validate_batch_indices", counting)
        monkeypatch.setattr(stress_core, "_validate_batch_indices", counting)
        batch = ObservationBatch([0, 1], [1, 2], [1.0, 2.0], [1.0, 1.0])
        init = random_init(3, 2, np.random.default_rng(0), 1.0)
        trace = run_stochastic(iter([batch] * 2), init,
                               MuSchedule.constant(0.1), None, slots=2,
                               mode=mode)
        assert len(trace.records) == 3 and calls == [3, 3]
        for bad in (-1, 3):
            bad_batch = ObservationBatch([0, bad], [1, 2], [1.0, 2.0],
                                         [1.0, 1.0])
            with pytest.raises(ValueError, match="out of range"):
                run_stochastic(iter([bad_batch]), init,
                               MuSchedule.constant(0.1), None, slots=1,
                               mode=mode)

    @pytest.mark.parametrize("noise_sigma", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("run", ["sampled", "streamed", "oracle"])
    def test_bad_noise_sigma_rejected(self, run, noise_sigma):
        """A negative or non-finite noise level raises before the first
        slot, even for a streamed run, which adds no noise."""
        provider, _ = planar_provider(12)
        init = random_init(12, 2, np.random.default_rng(0), 10.0)
        sampler = SamplerConfig(p=4, q=3, seed=0)
        with pytest.raises(ValueError, match="noise_sigma"):
            if run == "oracle":
                run_averaged_oracle(provider, init, 0.1, 1, sampler,
                                    noise_sigma=noise_sigma)
            else:
                source = provider if run == "sampled" else \
                    iter([full_batch_from(init)])
                run_stochastic(source, init, MuSchedule.constant(0.1),
                               sampler if run == "sampled" else None, 1,
                               noise_sigma=noise_sigma)

    @pytest.mark.parametrize("streaming", [False, True])
    def test_nonfinite_init_rejected(self, streaming):
        """A slot checks only the rows it writes, so a non-finite start is
        rejected before the first slot."""
        provider, coords = planar_provider(12)
        init = random_init(12, 2, np.random.default_rng(0), 10.0)
        init[5, 1] = np.nan
        source = iter([full_batch_from(coords)]) if streaming else provider
        sampler = None if streaming else SamplerConfig(p=4, q=3, seed=0)
        with pytest.raises(ValueError, match="init"):
            run_stochastic(source, init, MuSchedule.constant(0.1), sampler, 1)

    def test_spe_mode_rejected(self):
        """SPE is the stochastic mode with p = 2, not a mode of its own."""
        provider, _ = planar_provider(10)
        init = random_init(10, 2, np.random.default_rng(4), 1.0)
        with pytest.raises(ValueError, match="unknown mode"):
            run_stochastic(provider, init, MuSchedule.constant(0.2),
                           SamplerConfig(p=2, q=1, seed=0), 5, mode="spe")

    def test_sgd_diverges_under_heavy_noise(self):
        """The plain-gradient baseline processes the full measurement graph
        per slot with raw inverse-distance weights; under heavy range noise
        it diverges in most seeded runs while the incremental rule stays
        finite on the same data."""
        provider, coords = planar_provider(100, seed=6)
        diverged = 0
        runs = 100
        for seed in range(runs):
            init = random_init(100, 2, substream(seed, "init"), 10.0)
            sampler = SamplerConfig(p=100, fraction=1.0, scheme="sammon",
                                    seed=seed)
            with np.errstate(all="ignore"):
                trace = run_stochastic(
                    provider, init, MuSchedule.constant(0.05), sampler,
                    slots=150, noise_sigma=np.sqrt(10), mode="sgd",
                    eval_pairs=0)
            diverged += trace.status == "diverged"
        assert diverged > runs / 2

        robust_sampler = SamplerConfig(p=25, fraction=0.35, scheme="sammon",
                                       seed=0)
        init = random_init(100, 2, substream(0, "init"), 10.0)
        robust = run_stochastic(provider, init, MuSchedule.constant(0.05),
                                robust_sampler, slots=150,
                                noise_sigma=np.sqrt(10), eval_pairs=0)
        assert robust.status == "ok"
        assert np.all(np.isfinite(robust.final))

    def test_piecewise_schedule_drives_slots(self):
        """A staged step-size plan (large early, tiny late) lands in the
        trace records exactly as scheduled."""
        provider, _ = planar_provider(20, seed=9)
        init = random_init(20, 2, np.random.default_rng(6), 10.0)
        schedule = MuSchedule.piecewise([0, 10, 20, 30, 40],
                                        [0.2, 0.05, 0.014, 0.004, 0.001])
        sampler = SamplerConfig(p=5, fraction=1.0, seed=2)
        trace = run_stochastic(provider, init, schedule, sampler, 50)
        mus = [r["mu"] for r in trace.records[1:]]
        assert mus[0] == 0.2 and mus[9] == 0.2
        assert mus[10] == 0.05
        assert mus[49] == 0.001

    def test_eval_uses_fixed_subsample(self):
        provider, _ = planar_provider(30, seed=7)
        init = random_init(30, 2, np.random.default_rng(5), 10.0)
        sampler = SamplerConfig(p=5, q=4, seed=11)
        trace = run_stochastic(provider, init, MuSchedule.constant(0.1),
                               sampler, slots=3, eval_pairs=50)
        # 30 nodes give 435 pairs; the evaluator must stick to 50
        assert trace.records[0]["pairs"] == 0
        lookups_for_eval = 50
        assert provider.lookups >= lookups_for_eval


def _per_cluster_slot(X, provider, clusters, sampler, rng, noise_sigma,
                      cfg, mode):
    """Reference for the slot kernel: one mini-batch and one update per
    cluster, drawn from the slot's stream in cluster order."""
    Xn = X.copy()
    for cluster in clusters:
        a, b = _sample_local_pairs(len(cluster), rng, q=sampler.q,
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


def _clusters_per_chunk(node_count, sampler):
    """The number of clusters in each chunk of the slot plan."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q clamped on a remainder
        return [len(sizes) for _, sizes, _ in _slot_plan(node_count, sampler)]


def _chunks(clusters, sampler, limit):
    """The slot plan's chunks over ``clusters``, a ``partition_nodes``
    result under the chunk bound ``limit``, each as its list of clusters."""
    node_count = sum(len(c) for c in clusters)
    assert _chunk_limit(node_count) == limit
    ends = np.cumsum(_clusters_per_chunk(node_count, sampler))
    return [clusters[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]


def _greedy_chunks(sizes, counts, limit):
    """Reference chunking: consecutive clusters, cut before a cluster that
    would take the chunk's nodes plus twice its pairs over ``limit``; a
    chunk holds at least one cluster. Returns the clusters per chunk."""
    runs, total = [], 0
    for size, count in zip(sizes, counts):
        cost = size + 2 * count
        if not runs or total + cost > limit:
            runs.append(0)
            total = 0
        runs[-1] += 1
        total += cost
    return runs


# "spe" is the stochastic rule at p = 2, the paper's SPE case. A p = 2
# cluster costs 4, far below the chunk floor, so an spe slot is never one
# cluster per chunk
_SLOT_KERNEL_CASES = [
    pytest.param(several, noise_sigma, mode,
                 id=f"{layout}-{noise_sigma}-{mode}")
    for layout, several in (("one_per_chunk", False),
                            ("several_per_chunk", True))
    for noise_sigma in (0.0, 0.3)
    for mode in ("sgd", "spe", "stochastic")
    if several or mode != "spe"]


class TestSlotKernel:
    @pytest.mark.parametrize("several, noise_sigma, mode", _SLOT_KERNEL_CASES)
    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_matches_per_cluster_loop(self, mode, noise_sigma, several,
                                      data):
        """The chunked kernel reproduces the per-cluster loop exactly, in
        both chunk layouts. A cluster costs between p + 2 and p^2 (nodes
        plus twice its pairs) against a chunk bound of ``_CHUNK_FLOOR`` at
        these sizes. So a cluster of p > sqrt(floor) that measures more than
        (floor - p) / 2 pairs fills a chunk on its own, and at p <= 9 every
        chunk but the last holds several clusters once the full clusters
        cost more than one floor."""
        if mode == "spe":
            mode, p = "stochastic", 2
        elif several:
            p = data.draw(st.integers(2, 9))
        else:
            root = int(np.sqrt(_CHUNK_FLOOR))
            p = data.draw(st.integers(root + 1, root + 8))
        total = p * (p - 1) // 2
        if several:
            least = _CHUNK_FLOOR // (p + 2) + 1
            full = data.draw(st.integers(least, least + 4 * p))
        else:
            full = data.draw(st.integers(1, 4))
        n = full * p + data.draw(st.integers(0, p - 1))  # remainder cluster
        limit = _chunk_limit(n)
        q_min = 1 if several else (limit - p) // 2 + 1
        if data.draw(st.booleans()):
            q, fraction = data.draw(st.integers(q_min, total)), None
        else:
            f_min = 0.05 if several else (q_min + 1) / total
            q, fraction = None, data.draw(st.floats(f_min, 1.0))
        sampler = SamplerConfig(
            p=p, q=q, fraction=fraction,
            scheme=data.draw(st.sampled_from(["unity", "sammon"])),
            seed=data.draw(st.integers(0, 2**16)))
        chunks = list(_chunks(partition_nodes(n, p, np.random.default_rng(0)),
                              sampler, limit))
        if several:
            assert len(chunks) >= 2
            assert all(len(c) >= 2 for c in chunks[:-1])
        else:
            assert all(len(c) == 1 for c in chunks)
        mu = data.draw(st.sampled_from([0.05, 0.5]))
        provider, _ = planar_provider(n, seed=sampler.seed)
        init = random_init(n, 2, np.random.default_rng(sampler.seed), 10.0)
        slots = 2
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")  # q clamped on a remainder
            trace = run_stochastic(provider, init, MuSchedule.constant(mu),
                                   sampler, slots, noise_sigma=noise_sigma,
                                   mode=mode, eval_pairs=0,
                                   record_embeddings=True)
            X = init
            for t in range(1, len(trace.embeddings)):
                rng = substream(sampler.seed, "partition", t)
                part = partition_nodes(n, p, rng)
                X = _per_cluster_slot(X, provider, part, sampler, rng,
                                      noise_sigma, StepConfig(mu=mu), mode)
                assert np.array_equal(trace.embeddings[t], X)
        assert len(trace.embeddings) == slots + 1 or trace.status == "diverged"


    @pytest.mark.parametrize("kw", [{"q": 1}, {"q": 30}, {"fraction": 1.0}])
    def test_chunk_bound_counts_pairs(self, kw):
        """Each chunk's nodes plus twice its pairs stay within the bound, so
        a denser sampler gets chunks of fewer clusters."""
        sampler = SamplerConfig(p=10, **kw)
        n = 24_000
        limit = n // _CHUNK_DIVISOR
        assert _chunk_limit(n) == limit
        cost = 10 + 2 * min(sampler.q or 45, 45)
        chunks = _clusters_per_chunk(n, sampler)
        assert sum(chunks) == n // 10
        assert all(c == max(1, limit // cost) for c in chunks[:-1])

    def test_small_slot_is_one_chunk(self):
        """The reference run's slot, four 25-node clusters measuring 105
        pairs each, costs 940 and is applied as one chunk."""
        sampler = SamplerConfig(p=25, fraction=0.35)
        assert len(_slot_plan(100, sampler)) == 1

    def test_large_slot_bound_is_a_share_of_n(self):
        """Above _CHUNK_DIVISOR floors the bound is N // _CHUNK_DIVISOR, as
        without the floor: at N = 40,000, p = 100 and q = 50, chunks of 25
        clusters (cost 200 each against 5000)."""
        n = 40_000
        assert _chunk_limit(n) == n // _CHUNK_DIVISOR
        assert _chunk_limit(_CHUNK_DIVISOR * _CHUNK_FLOOR) == _CHUNK_FLOOR
        chunks = _clusters_per_chunk(n, SamplerConfig(p=100, q=50))
        assert chunks == [25] * 16

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_plan_matches_greedy_cut(self, data):
        """The plan's chunks are the slot's clusters cut one by one,
        remainder clusters included: the same sizes, clamped pair counts
        and nodes, and the same chunk boundaries."""
        p = data.draw(st.integers(2, 120))
        n = data.draw(st.one_of(st.integers(p, 3 * p + 5),
                                st.integers(p, 30_000)))
        if data.draw(st.booleans()):
            kw = {"q": data.draw(st.integers(1, 300))}
        else:
            kw = {"fraction": data.draw(st.floats(0.01, 1.0))}
        sampler = SamplerConfig(p=p, **kw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # q clamped
            plan = _slot_plan(n, sampler)
            clusters = partition_nodes(n, p, np.random.default_rng(0))
            counts = [len(_sample_local_pairs(
                len(c), np.random.default_rng(0), **kw)[0]) for c in clusters]
        perm = np.random.default_rng(0).permutation(n)
        sizes = [len(c) for c in clusters]
        runs = _greedy_chunks(sizes, counts, _chunk_limit(n))
        assert [len(chunk_sizes) for _, chunk_sizes, _ in plan] == runs
        first = 0
        for (span, chunk_sizes, chunk_counts), run in zip(plan, runs):
            assert list(chunk_sizes) == sizes[first:first + run]
            assert list(chunk_counts) == counts[first:first + run]
            np.testing.assert_array_equal(
                perm[span], np.concatenate(clusters[first:first + run]))
            first += run

    @pytest.mark.parametrize("run", ["stochastic", "oracle"])
    def test_q_clamp_warns_once_per_run(self, run):
        """A run clamps each cluster size's request once: over three slots
        of 47 nodes at p = 10 and q = 40, only the 7-node remainder (21
        pairs) is clamped, and it warns once, not once per slot."""
        provider, _ = planar_provider(47)
        init = random_init(47, 2, np.random.default_rng(0), 10.0)
        sampler = SamplerConfig(p=10, q=40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if run == "stochastic":
                run_stochastic(provider, init, MuSchedule.constant(0.1),
                               sampler, 3)
            else:
                run_averaged_oracle(provider, init - init.mean(axis=0), 0.1,
                                    3, sampler, averaging_samples=2)
        assert [str(w.message) for w in caught] == [
            "requested q=40 clamped to 21 available pairs"]

    @pytest.mark.parametrize("mode, scheme, noise_sigma",
                             [("stochastic", "sammon", 0.1),
                              ("sgd", "unity", 0.0)])
    def test_chunk_layout_changes_no_output(self, mode, scheme, noise_sigma,
                                            monkeypatch):
        """At N = 30,000, p = 100 and q = 50, chunks of 6, 25 and 150
        clusters (divisors 24, 8 and 1) give the same final embedding and
        the same records, but for their wall times, bit for bit."""
        n = 30_000
        provider, _ = planar_provider(n, seed=3, side=100.0)
        init = random_init(n, 2, np.random.default_rng(4), 100.0)
        sampler = SamplerConfig(p=100, q=50, scheme=scheme, seed=5)
        runs = []
        for divisor in (24, _CHUNK_DIVISOR, 1):
            monkeypatch.setattr(embedder, "_CHUNK_DIVISOR", divisor)
            trace = run_stochastic(provider, init, MuSchedule.constant(0.1),
                                   sampler, 2, noise_sigma=noise_sigma,
                                   mode=mode, eval_pairs=5_000)
            records = [{k: v for k, v in r.items() if k != "wall_ms"}
                       for r in trace.records]
            runs.append((trace.status, records, trace.final.tobytes()))
        assert len(runs[0][1]) == 3
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_slot_memory_is_a_small_multiple_of_the_embedding(self):
        """One slot at N = 20,000, p = 100 and q = 50, traced after a
        warm-up slot, peaks below 4 embeddings (c10's bound): the run's
        embedding and the slot's copy, the int32 permutation, and one
        chunk's working memory."""
        n = 20_000
        provider, _ = planar_provider(n, seed=6, side=100.0)
        init = random_init(n, 2, np.random.default_rng(7), 100.0)
        sampler = SamplerConfig(p=100, q=50, seed=8)

        def slot():
            run_stochastic(provider, init, MuSchedule.constant(0.1), sampler,
                           1, eval_pairs=0)

        slot()
        tracemalloc.start()
        try:
            slot()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * init.nbytes

    def test_small_slot_memory_stays_at_its_per_stack_level(self):
        """One warm slot of the 100-node reference shape (p = 25, fraction
        0.35), a single chunk whose four clusters form one stack, traced
        with the embedding and its copy made before tracing. The per-stack
        kernel read about 76 KB (47.8 embeddings) here; the one-pass kernel
        reads about 63 KB (39.6). The bound is the per-stack figure plus 5%,
        so a chunk that is one stack holds no more than it did."""
        n = 100
        provider, _ = planar_provider(n, seed=9)
        init = random_init(n, 2, np.random.default_rng(10), 10.0)
        sampler = SamplerConfig(p=25, fraction=0.35, seed=11)
        plan = embedder._slot_plan(n, sampler)

        def slot(t, Xn):
            rng = substream(sampler.seed, "partition", t)
            chunks = embedder._sampled_chunks(
                provider, _shuffled_nodes(n, rng), plan, sampler, rng, 0.1,
                StepConfig().eps_w, clamp=True)
            embedder._apply_slot(Xn, chunks, StepConfig(mu=0.1), "stochastic")

        slot(0, init.copy())
        Xn = init.copy()
        tracemalloc.start()
        try:
            slot(1, Xn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * 47.8 * init.nbytes


class _PoisonedAfter:
    """``base``'s dissimilarities for its first ``lookups`` calls, then the
    largest float for every pair, which overflows the update of whatever
    chunk measures them."""

    def __init__(self, base, lookups):
        self.base, self.left, self.node_count = base, lookups, base.node_count

    def pairs(self, a, b):
        self.left -= 1
        d = self.base.pairs(a, b)
        return d if self.left >= 0 else np.full(len(d), np.finfo(float).max)


def _streamed_batches(rng, n, touched, count):
    """``count`` batches over ``touched`` random nodes of ``n``, each taking
    all their pairs, with zero weights (a NaN delta among them) and
    weights below the default eps_w."""
    batches = []
    for _ in range(count):
        nodes = rng.choice(n, touched, replace=False)
        a, b = np.triu_indices(touched, k=1)
        delta = rng.uniform(1.0, 10.0, len(a))
        w = rng.uniform(0.1, 1.0, len(a))
        w[1::7] = 1e-5
        w[::5], delta[::10] = 0.0, np.nan
        batches.append(ObservationBatch(nodes[a], nodes[b], delta, w))
    return batches


class TestOneSlotForm:
    """Every slot is the rows it may touch plus chunks applied in place; a
    non-finite chunk restores those rows."""

    @pytest.mark.parametrize("mode", ["sgd", "stochastic"])
    def test_streamed_slot_matches_public_step(self, mode):
        """A streamed slot gives what the public full-N step gives, bit for
        bit, on the rows its batch touches, and leaves every other row's
        bytes as they were. sgd takes the weights as given; the
        stochastic rule clamps them up to eps_w."""
        n, mu = 40, 0.05
        rng = np.random.default_rng(13)
        init = random_init(n, 2, rng, 10.0)
        batches = _streamed_batches(rng, n, 8, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # weights clamped up
            trace = run_stochastic(batches, init, MuSchedule.constant(mu),
                                   None, 3, mode=mode, record_embeddings=True)
            assert trace.status == "ok"
            for t, batch in enumerate(batches, 1):
                before, after = trace.embeddings[t - 1], trace.embeddings[t]
                want = sgd_step(before, batch, mu) if mode == "sgd" else \
                    stochastic_step(before, batch, StepConfig(mu=mu))
                touched = np.zeros(n, dtype=bool)
                touched[batch.m] = touched[batch.n] = True
                assert after[touched].tobytes() == want[touched].tobytes()
                assert after[~touched].tobytes() == before[~touched].tobytes()
                assert not np.array_equal(after, before)

    @pytest.mark.parametrize("mode", ["sgd", "stochastic"])
    def test_nonfinite_later_chunk_restores_the_slot(self, mode,
                                                     monkeypatch):
        """Slot 2 of a run is cut into six chunks (a small chunk floor)
        and its third chunk on measures overflowing dissimilarities. The
        first two chunks were applied in place, so the run's final
        embedding is the rollback: X before slot 2, bit for bit."""
        monkeypatch.setattr(embedder, "_CHUNK_FLOOR", 50)
        n = 60
        base, _ = planar_provider(n, seed=14, side=100.0)
        sampler = SamplerConfig(p=5, fraction=1.0, seed=15)
        assert len(_slot_plan(n, sampler)) == 6
        # one lookup for the (empty) evaluation set, six for slot 1, two
        # for slot 2
        provider = _PoisonedAfter(base, 1 + 6 + 2)
        init = random_init(n, 2, np.random.default_rng(16), 100.0)
        with np.errstate(all="ignore"):
            trace = run_stochastic(provider, init, MuSchedule.constant(0.5),
                                   sampler, 3, mode=mode, eval_pairs=0,
                                   record_embeddings=True)
        assert trace.status == "diverged"
        assert len(trace.records) == len(trace.embeddings) == 2
        assert trace.final.tobytes() == trace.embeddings[1].tobytes()
        assert not np.array_equal(trace.final, init)

    def test_oracle_nonfinite_sample_diverges(self, monkeypatch):
        """The oracle averages each sample on its own copy: a sample whose
        later chunk goes non-finite makes the mean non-finite, so the run
        stops ``diverged`` with the last finite mean, as before."""
        monkeypatch.setattr(embedder, "_CHUNK_FLOOR", 50)
        n = 60
        base, _ = planar_provider(n, seed=17, side=100.0)
        sampler = SamplerConfig(p=5, fraction=1.0, seed=18)
        # the evaluation set, slot 1's three samples of six chunks, and
        # slot 2's first sample and two chunks of its second
        provider = _PoisonedAfter(base, 1 + 3 * 6 + 6 + 2)
        init = random_init(n, 2, np.random.default_rng(19), 100.0)
        with np.errstate(all="ignore"):
            trace = run_averaged_oracle(
                provider, init - init.mean(axis=0), 0.5, 3, sampler,
                averaging_samples=3, eval_pairs=0, record_embeddings=True)
        assert trace.status == "diverged"
        assert len(trace.records) == len(trace.embeddings) == 2
        assert trace.final.tobytes() == trace.embeddings[1].tobytes()

    def test_streamed_slot_memory_is_linear_in_the_batch(self):
        """Two streamed slots of 25-node batches at N = 200,000, with the
        embeddings not recorded, allocate less than 5% of the embedding
        from the first slot's start on: no copy of X, no scan of its rows.
        The schedule resets the peak when the first slot asks for mu."""
        n = 200_000
        rng = np.random.default_rng(20)
        init = random_init(n, 2, rng, 100.0)
        batches = _streamed_batches(rng, n, 25, 2)

        class PeakFromFirstSlot:
            start = None

            def mu_at(self, t):
                if t == 0:
                    tracemalloc.reset_peak()
                    self.start = tracemalloc.get_traced_memory()[0]
                return 0.1

        schedule = PeakFromFirstSlot()
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # weights clamped up
                trace = run_stochastic(batches, init, schedule, None, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.status == "ok" and len(trace.records) == 3
        assert peak - schedule.start < 0.05 * init.nbytes


class TestRunAveragedOracle:
    def test_single_sample_equals_one_stochastic_path(self):
        """averaging_samples=1 degenerates to a stochastic run driven by the
        oracle's own draw stream: replay the draws through the per-cluster
        reference and compare exactly, with and without noise, for q and
        fraction samplers, and with and without a remainder cluster."""
        p, mu, slots = 4, 0.3, 5
        cfg = StepConfig(mu=mu)
        for noise_sigma, kw, n in itertools.product(
                (0.0, 0.3), ({"q": 3}, {"fraction": 1.0}), (12, 14)):
            provider, _ = planar_provider(n, seed=8)
            init = random_init(n, 2, np.random.default_rng(6), 10.0)
            sampler = SamplerConfig(p=p, seed=21, **kw)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # q clamped on a remainder
                trace = run_averaged_oracle(
                    provider, init, mu, slots, sampler, mode="empirical",
                    averaging_samples=1, noise_sigma=noise_sigma,
                    record_embeddings=True)
                X = init
                for t in range(1, slots + 1):
                    draw_rng = substream(21, "oracle", t, 0)
                    part = partition_nodes(n, p, draw_rng)
                    X = _per_cluster_slot(X, provider, part, sampler,
                                          draw_rng, noise_sigma, cfg,
                                          "stochastic")
                    assert np.array_equal(trace.embeddings[t], X), \
                        (noise_sigma, kw, n, t)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_averaging_samples_rejected(self, samples):
        provider, _ = planar_provider(8)
        init = random_init(8, 2, np.random.default_rng(0), 10.0)
        with pytest.raises(ValueError, match="averaging_samples"):
            run_averaged_oracle(provider, init, 0.1, 2,
                                SamplerConfig(p=4, q=3),
                                averaging_samples=samples)

    def test_closed_form_mean_stress_non_increasing(self):
        rng = np.random.default_rng(7)
        n, p = 12, 4
        E = np.abs(rng.random((n, n))) + 1.0
        E = (E + E.T) / 2
        np.fill_diagonal(E, 0.0)
        init = random_init(n, 2, rng, 2.0)
        trace = run_averaged_oracle(
            None, init, 0.4, 200, mode="closed_form", expected_deltas=E,
            cluster_size=p, step=StepConfig(mu=0.4, eps_x=1e-12))
        s = trace.stresses()
        assert np.all(np.diff(s) <= 1e-10 * (1 + s[:-1]))

    def test_closed_form_rejects_nonfinite_deltas(self):
        """Absent pairs of a sparse input are NaN in the expected deltas."""
        E = np.ones((4, 4))
        np.fill_diagonal(E, 0.0)
        E[0, 3] = E[3, 0] = np.nan
        init = random_init(4, 2, np.random.default_rng(0), 1.0)
        with pytest.raises(ValueError, match="finite"):
            run_averaged_oracle(None, init, 0.3, 5, mode="closed_form",
                                expected_deltas=E, cluster_size=2)

    def test_nonfinite_iterate_stops_diverged(self):
        """Dissimilarities near the float range overflow the expected update;
        the run stops at once and keeps the last finite embedding."""
        E = np.full((6, 6), 1e308)
        np.fill_diagonal(E, 0.0)
        init = random_init(6, 2, np.random.default_rng(0), 1.0)
        with np.errstate(all="ignore"):
            trace = run_averaged_oracle(None, init, 0.3, 5, mode="closed_form",
                                        expected_deltas=E, cluster_size=3)
        assert trace.status == "diverged"
        assert len(trace.records) == 1
        np.testing.assert_array_equal(trace.final, init)

    def test_closed_form_full_graph_matches_relaxed_batch(self):
        rng = np.random.default_rng(8)
        n, mu = 10, 0.25
        coords = rng.random((n, 2)) * 4
        batch = full_batch_from(coords)
        E = np.zeros((n, n))
        E[batch.m, batch.n] = E[batch.n, batch.m] = batch.delta
        init = random_init(n, 2, rng, 4.0)
        trace = run_averaged_oracle(
            None, init, mu, 30, mode="closed_form", expected_deltas=E,
            cluster_size=n, step=StepConfig(mu=mu, eps_x=1e-14),
            record_embeddings=True)
        X = init.copy()
        from stochmds import smacof_iterate

        for t in range(1, 31):
            X = (1 - mu) * X + mu * smacof_iterate(X, batch)
            np.testing.assert_allclose(trace.embeddings[t], X, atol=1e-8)


class TestHoveringDeviation:
    def test_identical_traces_zero(self):
        rng = np.random.default_rng(9)
        tr = rng.standard_normal((6, 4, 2))
        assert hovering_deviation(tr, tr.copy(), 5) == 0.0

    def test_same_seed_run_vs_itself(self):
        provider, _ = planar_provider(10, seed=10)
        init = random_init(10, 2, np.random.default_rng(8), 10.0)
        sampler = SamplerConfig(p=5, fraction=0.8, seed=33)
        kw = dict(record_embeddings=True)
        a = run_stochastic(provider, init, MuSchedule.constant(0.2), sampler,
                           8, **kw)
        b = run_stochastic(provider, init, MuSchedule.constant(0.2), sampler,
                           8, **kw)
        assert hovering_deviation(a.embeddings, b.embeddings, 8) == 0.0

    def test_misaligned_traces_rejected(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 4, 2))
        b = a.copy()
        b[0, 0, 0] += 1.0
        with pytest.raises(ValueError):
            hovering_deviation(a, b, 4)
        with pytest.raises(ValueError):
            hovering_deviation(a, a[:, :3], 4)
        with pytest.raises(ValueError):
            hovering_deviation(a, a, 10)


class TestSteadyStateStats:
    def test_constant_window(self):
        records = [{"t": t, "stress": 2.5} for t in range(10)]
        assert steady_state_stats(records, (5, 9)) == (2.5, 2.5, 2.5)

    def test_one_two_three(self):
        records = [{"t": t, "stress": float(t)} for t in (1, 2, 3)]
        assert steady_state_stats(records, (1, 3)) == (1.0, 2.0, 3.0)

    def test_empty_window_rejected(self):
        records = [{"t": 1, "stress": 1.0}]
        with pytest.raises(ValueError):
            steady_state_stats(records, (5, 9))


class TestInitHelpers:
    def test_random_init_centered(self):
        X = random_init(50, 3, np.random.default_rng(11), 4.0)
        np.testing.assert_allclose(X.mean(axis=0), 0.0, atol=1e-12)
        assert np.abs(X).max() <= 4.0  # side 4 cube, centered afterwards

    def test_estimate_scale(self):
        provider = MatrixProvider(np.array([[0.0, 3.0], [3.0, 0.0]]))
        assert estimate_scale(provider, 0) == 3.0


@st.composite
def pair_providers(draw):
    """A provider of one of three kinds with the plain reference of its
    candidate pairs (in key order) and their deltas."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["features", "matrix", "edges"]))
    if kind == "features":
        coords = rng.random((n, 2))
        coords[rng.integers(n)] = coords[0]  # maybe a zero distance
        iu, ju = np.triu_indices(n, k=1)
        return (FeatureProvider(coords), list(zip(iu, ju)),
                np.linalg.norm(coords[iu] - coords[ju], axis=1))
    if kind == "matrix":
        mat = rng.random((n, n)) + 0.5
        mat[rng.random((n, n)) < 0.2] = np.nan
        mat[rng.random((n, n)) < 0.2] = 0.0
        mat = np.triu(mat, 1) + np.triu(mat, 1).T
        iu, ju = np.triu_indices(n, k=1)
        return MatrixProvider(mat), list(zip(iu, ju)), mat[iu, ju]
    count = draw(st.integers(0, 3 * n))
    m = rng.integers(0, n, count)
    o = (m + rng.integers(1, n, count)) % n  # never a self-loop
    delta = rng.random(count) + 0.1
    delta[rng.random(count) < 0.1] = 0.0  # unusable, as a weight-0 line
    table = {}
    for a, b, d in zip(m.tolist(), o.tolist(), delta.tolist()):
        table[(min(a, b), max(a, b))] = d  # a repeated pair: last one wins
    keys = sorted(table)
    return (EdgeListProvider(ObservationBatch(m, o, delta, np.ones(count)), n),
            keys, np.array([table[k] for k in keys]))


class TestUsablePairs:
    @settings(max_examples=60, deadline=None)
    @given(pair_providers(), st.integers(0, 80), st.integers(0, 2**16))
    def test_matches_plain_reference(self, case, cap, seed):
        """Every candidate pair up to the cap, else the decoded uniform draw,
        keeping the finite, positive deltas with unit weight."""
        provider, candidates, deltas = case
        take = np.arange(len(candidates))
        if len(candidates) > cap:
            take = np.sort(substream(seed, "eval").choice(
                len(candidates), size=cap, replace=False))
        pairs = np.array(candidates, dtype=np.int64).reshape(-1, 2)[take]
        d = np.asarray(deltas, dtype=np.float64)[take]
        keep = np.isfinite(d) & (d > 0)
        batch = _usable_pairs(provider, cap, seed, "eval")
        np.testing.assert_array_equal(batch.m, pairs[keep, 0])
        np.testing.assert_array_equal(batch.n, pairs[keep, 1])
        np.testing.assert_array_equal(batch.delta, d[keep])
        np.testing.assert_array_equal(batch.weight, np.ones(keep.sum()))

    @staticmethod
    def _knn_list(n=200, k=4, seed=0):
        """A k-NN edge list as a provider, with its unique edges in key
        order as a unit-weight batch."""
        coords = np.random.default_rng(seed).random((n, 2)) * 10
        dist = np.linalg.norm(coords[:, None] - coords[None], axis=-1)
        m = np.repeat(np.arange(n), k)
        o = np.argsort(dist, axis=1)[:, 1:k + 1].ravel()
        provider = EdgeListProvider(
            ObservationBatch(m, o, dist[m, o], np.ones(len(m))), n)
        lo, hi = np.array(sorted({(min(a, b), max(a, b)) for a, b in
                                  zip(m.tolist(), o.tolist())})).T
        return provider, ObservationBatch(lo, hi, dist[lo, hi],
                                          np.ones(len(lo)))

    def test_sparse_edge_list_evaluates_its_own_edges(self):
        """A k-NN list measures a few hundred of its 19,900 pairs; the
        evaluation sample holds every one of them, not the few that a draw
        over all pairs would hit."""
        provider, edges = self._knn_list()
        init = random_init(200, 2, np.random.default_rng(1), 10.0)
        trace = run_stochastic(provider, init, MuSchedule.constant(0.1),
                               SamplerConfig(p=10, fraction=1.0, seed=3), 0,
                               eval_pairs=len(edges) + 1)
        assert trace.records[0]["stress"] == stress(init, edges)

    def test_sparse_edge_list_start_scale_is_its_longest_edge(self):
        provider, edges = self._knn_list()
        assert len(edges) <= 512
        for seed in range(3):
            assert estimate_scale(provider, seed) == edges.delta.max()

    def test_complete_edge_list_draws_as_all_pairs(self):
        """On a complete list the draw over its edges is the draw over all
        pairs, so a complete list and a matrix give the same sample."""
        n = 40
        mat = np.random.default_rng(4).random((n, n)) + 0.1
        mat = np.triu(mat, 1) + np.triu(mat, 1).T
        iu, ju = np.triu_indices(n, k=1)
        edges = EdgeListProvider(
            ObservationBatch(ju, iu, mat[iu, ju], np.ones(len(iu))), n)
        for cap in (100, 779, 780, 1000):
            a = _usable_pairs(edges, cap, 5, "eval")
            b = _usable_pairs(MatrixProvider(mat), cap, 5, "eval")
            np.testing.assert_array_equal(a.m, b.m)
            np.testing.assert_array_equal(a.n, b.n)
            np.testing.assert_array_equal(a.delta, b.delta)
