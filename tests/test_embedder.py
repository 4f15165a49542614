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
from stochmds import embedder, graph_linalg, observations, sampling, \
    stress_core
from stochmds.data_io import EdgeListProvider, FeatureProvider, \
    MatrixProvider
from stochmds.embedder import _CHUNK_DIVISOR, _CHUNK_FLOOR, _chunk_limit, \
    _chunks, _usable_pairs, estimate_scale
from stochmds.graph_linalg import DENSE_SOLVER_MAX
from stochmds.rng import substream
from stochmds.sampling import _sample_local_pairs, assign_weights, \
    partition_nodes


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
        clusters = [np.arange(k, k + 10) for k in range(0, 2400, 10)]
        limit = 2400 // _CHUNK_DIVISOR
        cost = 10 + 2 * min(sampler.q or 45, 45)
        chunks = list(_chunks(clusters, sampler, limit))
        assert sum(len(c) for c in chunks) == len(clusters)
        assert all(len(c) == max(1, limit // cost) for c in chunks[:-1])

    def test_small_slot_is_one_chunk(self):
        """The reference run's slot, four 25-node clusters measuring 105
        pairs each, costs 940 and is applied as one chunk."""
        sampler = SamplerConfig(p=25, fraction=0.35)
        clusters = partition_nodes(100, 25, np.random.default_rng(0))
        assert len(list(_chunks(clusters, sampler, _chunk_limit(100)))) == 1

    def test_large_slot_bound_is_a_share_of_n(self):
        """Above _CHUNK_DIVISOR floors the bound is N // _CHUNK_DIVISOR, as
        without the floor: at N = 40,000, p = 100 and q = 50, chunks of 25
        clusters (cost 200 each against 5000)."""
        n = 40_000
        assert _chunk_limit(n) == n // _CHUNK_DIVISOR
        assert _chunk_limit(_CHUNK_DIVISOR * _CHUNK_FLOOR) == _CHUNK_FLOOR
        clusters = [np.arange(k, k + 100) for k in range(0, n, 100)]
        chunks = list(_chunks(clusters, SamplerConfig(p=100, q=50),
                              _chunk_limit(n)))
        assert [len(c) for c in chunks] == [25] * 16

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

    @pytest.mark.parametrize("n, cap", [(100, 0), (100, 50), (400, 512)])
    def test_draw_over_all_pairs_keeps_no_table(self, monkeypatch, n, cap):
        """A draw over all pairs decodes its indices by arithmetic, so it
        leaves the cluster draws' table cache as it found it."""
        monkeypatch.setattr(sampling, "_pair_tables", {})
        provider, _ = planar_provider(n)
        batch = _usable_pairs(provider, cap, 3, "eval")
        assert len(batch) == cap
        assert sampling._pair_tables == {}

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
