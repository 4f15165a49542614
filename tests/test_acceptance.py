"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The experiment-style
criteria reproduce the reference behaviors at full seed counts, so this
module takes several minutes; every tolerance is pinned here.
"""

import functools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from stochmds import (
    MobilityConfig,
    MuSchedule,
    ObservationBatch,
    ProtocolConfig,
    SamplerConfig,
    StepConfig,
    algebraic_connectivity,
    anchor_align,
    build_laplacian,
    closed_form_b_average,
    hovering_deviation,
    random_init,
    run_averaged_oracle,
    run_batch_smacof,
    run_localization,
    run_stochastic,
    smacof_iterate,
    spe_step,
    steady_state_stats,
    stochastic_step,
)
from stochmds.cli import bench_scaling, main
from stochmds.data_io import FeatureProvider
from stochmds.localization import (
    deploy_network,
    init_velocities,
    perturb_estimates,
    protocol_round,
    step_mobility,
)
from stochmds.rng import substream

pytestmark = pytest.mark.acceptance


def criterion(label):
    """Print one PASS/FAIL line per criterion around the wrapped test."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {label} ({time.perf_counter() - t0:.1f}s)")
                raise
            print(f"PASS {label} ({time.perf_counter() - t0:.1f}s)")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# shared setups


@pytest.fixture(scope="module")
def planar100():
    """The reference experiment network: 100 nodes on a 10 x 10 area."""
    rng = substream(424242, "deploy")
    coords = rng.random((100, 2)) * 10.0
    provider = FeatureProvider(coords, metric="euclidean")
    init = random_init(100, 2, substream(424242, "init"), 10.0)
    return coords, provider, init


def full_batch_from(coords, rng=None, deltas=None):
    n = len(coords)
    iu, ju = np.triu_indices(n, k=1)
    if deltas is None:
        deltas = np.linalg.norm(coords[iu] - coords[ju], axis=1)
    return ObservationBatch(iu, ju, deltas, np.ones(len(iu)))


def random_instance(rng, n=100, dim=2):
    X = rng.standard_normal((n, dim)) * 3
    X -= X.mean(axis=0)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < 0.5
    deltas = rng.random(len(iu)) * 4 + 0.2
    w = np.where(keep, rng.random(len(iu)) * 0.9 + 0.1, 0.0)
    return X, ObservationBatch(iu, ju, deltas, w)


# ---------------------------------------------------------------------------


@criterion("criterion 1: batch majorization monotone on 100 random instances")
def test_c01_majorization_monotonicity():
    t0 = time.perf_counter()
    rng = substream(1, "init")
    for case in range(100):
        X, batch = random_instance(rng)
        trace = run_batch_smacof(batch, X, tol=0.0, max_iters=8)
        s = trace.stresses()
        assert np.all(np.diff(s) <= 1e-10 * (1 + s[:-1])), f"case {case}"
    assert time.perf_counter() - t0 < 30.0


@criterion("criterion 2: equivalence suite (mu=1 batch, 2-node, mu=0)")
def test_c02_equivalences():
    rng = substream(2, "init")
    # (a) mu = 1 on a full connected graph reduces to the batch iterate
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        X = rng.standard_normal((n, 2))
        X -= X.mean(axis=0)
        iu, ju = np.triu_indices(n, k=1)
        batch = ObservationBatch(iu, ju, rng.random(len(iu)) + 0.3,
                                 rng.random(len(iu)) * 0.9 + 0.1)
        want = smacof_iterate(X, batch)
        got = stochastic_step(X, batch, StepConfig(mu=1.0, eps_x=0.0))
        assert np.abs(got - want).max() <= 1e-10

    # (b) 2-node clusters with eps_x = 0 equal the closed-form pair update
    for _ in range(1000):
        X = rng.standard_normal((2, 3))
        delta = float(rng.random() + 0.1)
        mu = float(rng.random())
        batch = ObservationBatch.from_entries([(0, 1, delta, 1.0)])
        got = stochastic_step(X, batch, StepConfig(mu=mu, eps_x=0.0))
        xi, xj = spe_step(X[0], X[1], delta, mu)
        assert np.abs(got - np.vstack([xi, xj])).max() <= 1e-10

    # (c) mu = 0 is the exact identity
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        X = rng.standard_normal((n, 2))
        iu, ju = np.triu_indices(n, k=1)
        batch = ObservationBatch(iu, ju, rng.random(len(iu)) + 0.1,
                                 (rng.random(len(iu)) < 0.5).astype(float))
        got = stochastic_step(X, batch, StepConfig(mu=0.0))
        assert np.array_equal(got, X)


@criterion("criterion 3: connectivity lower bound on 200 random graphs")
def test_c03_connectivity_bound():
    rng = substream(3, "init")
    eps_w = 1e-3
    violations = 0
    for _ in range(200):
        p = int(rng.integers(2, 31))
        edges = [(int(rng.integers(0, v)), v) for v in range(1, p)]
        iu, ju = np.triu_indices(p, k=1)
        extra = rng.random(len(iu)) < 0.25
        edges += [(int(a), int(b)) for a, b in zip(iu[extra], ju[extra])
                  if (int(a), int(b)) not in edges]
        w = rng.uniform(eps_w, 1.0, size=len(edges))
        batch = ObservationBatch.from_entries(
            [(a, b, 1.0, wk) for (a, b), wk in zip(edges, w)])
        lap = build_laplacian(batch, p)[0]
        if algebraic_connectivity(lap) < 2 * eps_w / (p - 1) ** 2 - 1e-12:
            violations += 1
    assert violations == 0


def _mc_expected_update(X, E, eps_x, p, draws, rng, eps_w=1e-3, chunk=4000):
    """Monte-Carlo estimate of the expected per-draw update matrix
    pinv(L) B^eps(X) under the compliant sampler: uniform partition into
    size-p clusters, all intra-cluster pairs weighted i.i.d. uniform on
    [eps_w, 1], dissimilarities i.i.d. with the given means."""
    N = X.shape[0]
    iu, ju = np.triu_indices(p, k=1)
    ones_shift = np.ones((p, p)) / p
    acc = np.zeros((N, N))
    acc2 = np.zeros((N, N))
    denom = np.sqrt(
        np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1) + eps_x)
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        perms = np.argsort(rng.random((m, N)), axis=1)
        full = np.zeros((m, N, N))
        ar = np.arange(m)[:, None]
        dg = np.arange(p)
        for k in range(N // p):
            c = np.sort(perms[:, k * p:(k + 1) * p], axis=1)
            gm, gn = c[:, iu], c[:, ju]
            w = rng.uniform(eps_w, 1.0, size=(m, len(iu)))
            delta = E[gm, gn] * rng.uniform(0.5, 1.5, size=(m, len(iu)))
            coef = w * delta / denom[gm, gn]
            L = np.zeros((m, p, p))
            B = np.zeros((m, p, p))
            L[ar, iu, ju] = -w
            L[ar, ju, iu] = -w
            B[ar, iu, ju] = -coef
            B[ar, ju, iu] = -coef
            L[:, dg, dg] = -L.sum(axis=2)
            B[:, dg, dg] = -B.sum(axis=2)
            # pinv via the all-ones shift (each cluster graph is connected)
            Ld = np.linalg.inv(L + ones_shift) - ones_shift
            full[np.arange(m)[:, None, None], c[:, :, None],
                 c[:, None, :]] = Ld @ B
        acc += full.sum(axis=0)
        acc2 += (full ** 2).sum(axis=0)
        done += m
    mean = acc / draws
    se = np.sqrt(np.maximum(acc2 / draws - mean ** 2, 0.0) / draws)
    return mean, se


@criterion("criterion 4: closed-form averaged matrix vs 1e5-draw Monte Carlo")
def test_c04_closed_form_vs_monte_carlo():
    t0 = time.perf_counter()
    rng = substream(7, "oracle", 99)  # fixed seed; see decisions ledger
    eps_x = 1e-8
    for N in (4, 6, 8):
        X = rng.standard_normal((N, 2))
        X -= X.mean(axis=0)
        E = np.abs(rng.random((N, N))) + 0.5
        E = (E + E.T) / 2
        np.fill_diagonal(E, 0.0)
        for p in sorted({2, N // 2, N}):
            closed = closed_form_b_average(X, E, eps_x, p)
            mean, se = _mc_expected_update(X, E, eps_x, p, 100_000, rng)
            tol = 3 * se + 1e-6 * np.abs(closed).max()
            assert np.all(np.abs(mean - closed) <= tol), f"N={N} p={p}"
    assert time.perf_counter() - t0 < 120.0


@criterion("criterion 5: hovering deviation shrinks with mu (20 seeds)")
def test_c05_hovering(planar100):
    t0 = time.perf_counter()
    coords, provider, init = planar100
    medians = {}
    for mu in (0.2, 0.1, 0.05):
        horizon = int(np.ceil(1 / mu))
        oracle = run_averaged_oracle(
            provider, init, mu, horizon,
            SamplerConfig(p=25, fraction=0.35, seed=777),
            mode="empirical", averaging_samples=150, noise_sigma=0.1,
            record_embeddings=True, eval_pairs=0)
        devs = []
        for seed in range(20):
            tr = run_stochastic(
                provider, init, MuSchedule.constant(mu),
                SamplerConfig(p=25, fraction=0.35, seed=seed), horizon,
                noise_sigma=0.1, record_embeddings=True, eval_pairs=0)
            devs.append(hovering_deviation(tr.embeddings, oracle.embeddings,
                                           horizon))
        medians[mu] = float(np.median(devs))
    assert medians[0.05] < medians[0.1] < medians[0.2], medians
    assert time.perf_counter() - t0 < 600.0


def _c06_eta(provider, init, mu, seed):
    """One c06 run's windowed steady-state mean; a process-pool worker."""
    tr = run_stochastic(
        provider, init, MuSchedule.constant(mu),
        SamplerConfig(p=25, fraction=0.35, seed=seed), 5000,
        noise_sigma=0.1, eval_pairs=4950)
    return steady_state_stats(tr, (4801, 5000))[1]


@criterion("criterion 6: steady-state stress decreases with mu (20 seeds)")
def test_c06_steady_state_tradeoff(planar100):
    """80 independent, fully seeded runs, spread over at most one worker
    process per core."""
    coords, provider, init = planar100
    mus, seeds = (0.2, 0.1, 0.05, 0.02), range(20)
    runs = [(mu, seed) for mu in mus for seed in seeds]
    with ProcessPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        etas = list(pool.map(functools.partial(_c06_eta, provider, init),
                             *zip(*runs)))
    medians = [float(np.median(etas[k * len(seeds):(k + 1) * len(seeds)]))
               for k in range(len(mus))]
    assert all(b < a for a, b in zip(medians, medians[1:])), medians


@criterion("criterion 7: closed-form averaged recursion monotone, 2000 steps")
def test_c07_averaged_monotone():
    rng = substream(7, "init")
    n, p = 12, 4
    E = np.abs(rng.random((n, n))) + 1.0
    E = (E + E.T) / 2
    np.fill_diagonal(E, 0.0)
    init = random_init(n, 2, rng, 2.0)
    trace = run_averaged_oracle(
        None, init, 0.4, 2000, mode="closed_form", expected_deltas=E,
        cluster_size=p, step=StepConfig(mu=0.4, eps_x=1e-12))
    s = trace.stresses()
    assert np.all(np.diff(s) <= 1e-10 * (1 + s[:-1]))


@criterion("criterion 8: exact recovery with corner anchors (10 seeds)")
def test_c08_exact_recovery():
    recovered = 0
    seeds = 10
    for seed in range(seeds):
        rng = substream(seed, "init", 8)
        pts = rng.random((96, 2)) * 10
        corners = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0],
                            [10.0, 10.0]])
        truth = np.vstack([pts, corners])
        batch = full_batch_from(truth)
        init = random_init(100, 2, substream(seed, "init", 9), 10.0)
        trace = run_batch_smacof(batch, init, tol=1e-14, max_iters=3000)
        if trace.records[-1]["stress_norm"] >= 1e-6:
            continue
        anchors = np.arange(96, 100)
        aligned = anchor_align(trace.final, anchors, truth[anchors])
        if np.sqrt(np.mean((aligned - truth) ** 2)) < 1e-3:
            recovered += 1
    # local-minimum failures permitted in at most 20% of seeds
    assert recovered >= 0.8 * seeds, f"{recovered}/{seeds}"


@criterion("criterion 9: protocol tracks better than periodic batch re-solve")
def test_c09_localization_tracking():
    e_stoch, e_batch = [], []
    for seed in range(20):
        res = run_localization(
            50, 700, seed=seed,
            mobility=MobilityConfig(alpha=0.9, sigma_v=0.01),
            protocol=ProtocolConfig(mu=0.5, noise_sigma=0.1),
            anchor_count=5, align_every=10, competitor_every=50)
        window = [r for r in res["records"] if 501 <= r["t"] <= 700]
        e_stoch.append(max(r["e_loc"] for r in window))
        e_batch.append(max(r["e_loc_batch"] for r in window))
    med_s = float(np.median(e_stoch))
    med_b = float(np.median(e_batch))
    assert med_s <= med_b, (med_s, med_b)


@criterion("criterion 10: near-linear scaling, no quadratic memory")
def test_c10_scaling():
    rows = bench_scaling([10_000, 20_000, 40_000], p=100, q=50, slots=4,
                         dim=2, seed=0)
    for row in rows[1:]:
        assert row["factor"] <= 2.5, rows
    for row in rows:
        assert row["peak_over_embedding"] < 4.0, rows


def _disjoint_stars(batch):
    """Whether a round's batch is a disjoint union of stars (head in ``m``,
    members in ``n``): no node is a member twice, and none is both a head
    and a member. Every star is in the batch, timed-out ones included, so
    this covers every lock the round took."""
    return (len(np.unique(batch.n)) == len(batch.n)
            and not np.intersect1d(batch.m, batch.n).size)


class _ReleasedAtOnce(np.ndarray):
    """Lock flags that drop each lock as it is taken: a round that releases
    a star's locks when the star ends instead of when the round does."""

    def __setitem__(self, key, value):
        super().__setitem__(key, False)


def test_c11_star_check_fails_on_per_star_release():
    """The disjoint-stars check of c11 fails on the c11 set-up when a round
    releases locks per star, which ``state.locked`` alone does not show."""
    state = deploy_network(20, 0, substream(11, "deploy"))
    perturb_estimates(state, substream(11, "init"))
    state.locked = state.locked.view(_ReleasedAtOnce)
    cfg = ProtocolConfig(mu=0.3, mean_cluster_size=6, timeout_prob=0.1)
    overlapping = 0
    for t in range(1, 51):
        batch = protocol_round(state, substream(11, "protocol", t), cfg)[1]
        assert not state.locked.any()
        overlapping += not _disjoint_stars(batch)
    assert overlapping > 0


@criterion("criterion 11: protocol safety over 1e5 rounds with timeouts")
def test_c11_protocol_safety():
    state = deploy_network(20, 0, substream(11, "deploy"))
    init_velocities(state, 0.02, substream(11, "mobility", 0))
    perturb_estimates(state, substream(11, "init"))
    mobility = MobilityConfig(alpha=0.9, sigma_v=0.02)
    cfg = ProtocolConfig(mu=0.3, mean_cluster_size=6, timeout_prob=0.1)
    mob_rng = substream(11, "mobility", 1)
    rounds = 100_000
    for t in range(1, rounds + 1):
        step_mobility(state, mobility, mob_rng)
        _, batch, log = protocol_round(state, substream(11, "protocol", t),
                                       cfg)
        assert log.double_lock_attempts == 0
        assert log.locks_leaked == 0
        assert not state.locked.any()
        assert _disjoint_stars(batch), f"round {t}"
        # message accounting is exact per round
        assert log.solicitations == (log.clusters_completed +
                                     log.clusters_aborted +
                                     log.clusters_timeout)
        assert log.results == log.clusters_completed + log.clusters_timeout
        assert log.messages == (log.solicitations + log.responses +
                                log.results)


def _strip_timing(lines):
    out = []
    for line in lines:
        rec = json.loads(line)
        rec.pop("wall_ms", None)
        out.append(json.dumps(rec, sort_keys=True))
    return out


@criterion("criterion 12: bit-identical outputs across repeated runs")
def test_c12_determinism(tmp_path):
    edge_path = tmp_path / "edges.tsv"
    rng = np.random.default_rng(0)
    coords = rng.random((40, 2)) * 6
    lines = []
    for i in range(40):
        for j in range(i + 1, 40):
            lines.append(f"{i}\t{j}\t{float(np.linalg.norm(coords[i] - coords[j]))!r}")
    edge_path.write_text("\n".join(lines) + "\n")

    # embed: stochastic and batch
    for mode, extra in (("stochastic", ["--p", "8", "--fraction", "0.6",
                                        "--slots", "60"]),
                        ("batch", ["--iters", "40"])):
        outs = []
        for _ in range(2):  # identical arguments both times
            out = tmp_path / "e.csv"
            trace = tmp_path / "t.jsonl"
            code = main(["embed", "--mode", mode, "--input", str(edge_path),
                         "--seed", "5",
                         "--out", str(out), "--trace", str(trace)] + extra)
            assert code == 0
            outs.append((out.read_bytes(),
                         _strip_timing(trace.read_text().splitlines())))
        assert outs[0][0] == outs[1][0], f"embed --mode {mode} embedding"
        assert outs[0][1] == outs[1][1], f"embed --mode {mode} trace"

    # oracle (empirical)
    outs = []
    for _ in range(2):
        trace = tmp_path / "o.jsonl"
        code = main(["oracle", "--mode", "empirical", "--input",
                     str(edge_path), "--p", "8", "--fraction", "0.6",
                     "--mu", "0.2", "--slots", "5", "--samples", "10",
                     "--seed", "5", "--trace", str(trace)])
        assert code == 0
        outs.append(_strip_timing(trace.read_text().splitlines()))
    assert outs[0] == outs[1], "oracle trace"

    # localize
    outs = []
    for _ in range(2):
        trace = tmp_path / "l.jsonl"
        code = main(["localize", "--n", "30", "--rounds", "40", "--seed", "5",
                     "--trace", str(trace)])
        assert code == 0
        outs.append(_strip_timing(trace.read_text().splitlines()))
    assert outs[0] == outs[1], "localize trace"

    # stats is deterministic given its inputs
    import io
    from contextlib import redirect_stdout

    texts = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["stats", "--trace-file", str(tmp_path / "t.jsonl"),
                         "--window", "1:40"])
        assert code == 0
        texts.append(buf.getvalue())
    assert texts[0] == texts[1], "stats output"

    # bench: deterministic payload (timing and memory fields are
    # measurements of the host, not outputs)
    payloads = []
    for _ in range(2):
        rows = bench_scaling([500, 1000], p=20, q=10, slots=2, dim=2, seed=5)
        payloads.append([{k: r[k] for k in ("n", "p", "q", "status")}
                         for r in rows])
    assert payloads[0] == payloads[1], "bench payload"
