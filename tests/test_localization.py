"""Mobile-network simulator: deployment, mobility, protocol, alignment."""

import dataclasses
import math

import numpy as np
import pytest

from stochmds import (
    MobilityConfig,
    ObservationBatch,
    ProtocolConfig,
    StepConfig,
    anchor_align,
    deploy_network,
    measure_distances,
    protocol_round,
    run_localization,
    step_mobility,
    stochastic_step,
)
from stochmds import localization
from stochmds.cli import CONFIG_KEYS, EXIT_CONFIG, main
from stochmds.localization import init_velocities, perturb_estimates
from stochmds.rng import substream


class TestDeploy:
    def test_region_and_radius(self):
        state = deploy_network(50, 5, substream(0, "deploy"))
        assert state.region == pytest.approx(math.sqrt(50))
        assert state.comm_radius == pytest.approx(math.sqrt(50) / 2)
        assert state.positions.shape == (50, 2)
        assert state.positions.min() >= 0
        assert state.positions.max() <= state.region
        assert len(state.anchors) == 5

    def test_anchor_free_deployment(self):
        state = deploy_network(4, 0, substream(0, "deploy"))
        assert len(state.anchors) == 0

    def test_seeded_determinism(self):
        a = deploy_network(30, 5, substream(9, "deploy"))
        b = deploy_network(30, 5, substream(9, "deploy"))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.anchors, b.anchors)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            deploy_network(1, 0, substream(0, "deploy"))
        with pytest.raises(ValueError):
            deploy_network(5, 5, substream(0, "deploy"))


class TestMobility:
    def test_alpha_one_keeps_velocities(self):
        state = deploy_network(10, 0, substream(1, "deploy"))
        state.positions[:] = state.region / 2  # keep clear of reflections
        init_velocities(state, 0.05, substream(1, "mobility", 0))
        v0 = state.velocities.copy()
        step_mobility(state, MobilityConfig(alpha=1.0, sigma_v=0.05),
                      substream(1, "mobility", 1))
        np.testing.assert_array_equal(state.velocities, v0)

    def test_sigma_zero_is_static(self):
        state = deploy_network(10, 0, substream(2, "deploy"))
        p0 = state.positions.copy()
        for _ in range(5):
            step_mobility(state, MobilityConfig(alpha=0.5, sigma_v=0.0),
                          substream(2, "mobility", 1))
        np.testing.assert_array_equal(state.positions, p0)

    def test_stationary_velocity_variance(self):
        """The recursion preserves the v(0) variance sigma_v^2 per axis."""
        cfg = MobilityConfig(alpha=0.9, sigma_v=0.01)
        state = deploy_network(64, 0, substream(3, "deploy"))
        init_velocities(state, cfg.sigma_v, substream(3, "mobility", 0))
        rng = substream(3, "mobility", 1)
        acc = 0.0
        steps = 20_000
        for _ in range(steps):
            step_mobility(state, cfg, rng)
            acc += float(np.mean(state.velocities**2))
        assert acc / steps == pytest.approx(cfg.sigma_v**2, rel=0.05)

    def test_reflective_boundary(self):
        state = deploy_network(5, 0, substream(4, "deploy"))
        state.positions[0] = [0.01, 0.01]
        state.velocities[:] = 0.0
        state.velocities[0] = [-0.5, -0.5]
        step_mobility(state, MobilityConfig(alpha=1.0, sigma_v=0.0),
                      substream(4, "mobility", 1))
        assert np.all(state.positions >= 0)
        assert np.all(state.positions <= state.region)
        assert np.all(state.velocities[0] > 0)  # bounced


class TestMeasure:
    def test_exact_distances_at_zero_noise(self):
        state = deploy_network(20, 0, substream(5, "deploy"))
        batch = measure_distances(state, 0.0, substream(5, "measure", 0))
        d = np.linalg.norm(state.positions[batch.m] - state.positions[batch.n],
                           axis=1)
        np.testing.assert_allclose(batch.delta, d, atol=1e-12)
        assert np.all(d <= state.comm_radius + 1e-12)

    def test_out_of_range_pairs_absent(self):
        state = deploy_network(2, 0, substream(6, "deploy"))
        state.positions = np.array([[0.0, 0.0], [state.region, state.region]])
        batch = measure_distances(state, 0.0, substream(6, "measure", 0))
        assert len(batch) == 0

    def test_negative_measurements_dropped(self):
        state = deploy_network(30, 0, substream(7, "deploy"))
        batch = measure_distances(state, 5.0, substream(7, "measure", 0))
        assert np.all(batch.delta > 0)


# values outside each protocol field's range, those reported to fail late
# or not at all first
_BAD_PROTOCOL = {
    "mu": (1.5, -0.1, math.nan),
    "mean_cluster_size": (0, 0.5, math.inf, math.nan),
    "min_neighbors": (-1,),
    "max_members": (0, -2),
    "noise_sigma": (-1.0, math.inf, math.nan),
    "timeout_prob": (-1, 1.01, math.nan),
    "eps_x": (-1e-12, math.inf, math.nan),
}


class TestProtocolConfig:
    """Each field is checked where the config is made, against the range
    the ``localize`` command gives it in ``cli.CONFIG_KEYS``."""

    def test_every_field_has_a_case(self):
        assert sorted(_BAD_PROTOCOL) == sorted(
            f.name for f in dataclasses.fields(ProtocolConfig))

    @pytest.mark.parametrize("name", sorted(_BAD_PROTOCOL))
    def test_field_outside_cli_range_rejected(self, name):
        lo, hi = CONFIG_KEYS[name][1]
        ProtocolConfig(**{name: lo})
        if hi < math.inf:
            ProtocolConfig(**{name: hi})
        for value in _BAD_PROTOCOL[name]:
            assert not (lo <= value <= hi and math.isfinite(value))
            with pytest.raises(ValueError, match=name):
                ProtocolConfig(**{name: value})


class TestProtocolRound:
    def test_sparse_head_aborts(self):
        state = deploy_network(8, 0, substream(8, "deploy"))
        # push one node far outside everyone's range
        state.positions[0] = [0.0, 0.0]
        state.positions[1:] = state.region
        state.estimates = state.positions.copy()
        cfg = ProtocolConfig(mean_cluster_size=1)  # every node declares
        _, batch, log = protocol_round(state, substream(8, "protocol", 1), cfg)
        assert log.clusters_aborted >= 1
        assert not state.locked.any()

    def test_cluster_capped_at_ten_members(self):
        state = deploy_network(30, 0, substream(9, "deploy"))
        # everyone in range of node 0: shrink deployment into a tiny blob
        state.positions = state.positions * 0.05
        state.estimates = state.positions.copy()
        cfg = ProtocolConfig(mean_cluster_size=10**9)
        rng = substream(9, "protocol", 1)
        # force exactly node 0 to declare by trying until it happens
        for attempt in range(200):
            rng2 = substream(9, "protocol", attempt)
            declares = rng2.random(30) < 1 / 15
            if declares.any():
                break
        cfg = ProtocolConfig(mean_cluster_size=15)
        _, batch, log = protocol_round(state, substream(9, "protocol", attempt),
                                       cfg)
        assert log.clusters_completed >= 1
        assert log.updated_nodes <= log.clusters_completed * 11
        per_cluster = np.bincount(np.asarray(batch.m))
        assert per_cluster.max() <= 10

    def test_all_locked_noop(self):
        state = deploy_network(12, 0, substream(10, "deploy"))
        state.locked[:] = True
        est0 = state.estimates.copy()
        _, batch, log = protocol_round(state, substream(10, "protocol", 1),
                                       ProtocolConfig(mean_cluster_size=1))
        assert log.clusters_completed == 0
        assert len(batch) == 0
        np.testing.assert_array_equal(state.estimates, est0)
        assert state.locked.all()  # pre-existing locks are not ours to drop

    def test_message_accounting_exact(self):
        cfg = ProtocolConfig(timeout_prob=0.2)
        state = deploy_network(40, 0, substream(11, "deploy"))
        perturb_estimates(state, substream(11, "init"))
        total_msgs = 0
        predicted = 0
        for t in range(1, 300):
            _, batch, log = protocol_round(state,
                                           substream(11, "protocol", t), cfg)
            assert not state.locked.any()
            assert log.double_lock_attempts == 0
            assert log.locks_leaked == 0
            assert log.solicitations == (log.clusters_completed +
                                         log.clusters_aborted +
                                         log.clusters_timeout)
            assert log.results == log.clusters_completed + log.clusters_timeout
            total_msgs += log.messages
            predicted += log.solicitations + log.responses + log.results
        assert total_msgs == predicted

    def test_updates_lower_cluster_stress(self):
        state = deploy_network(25, 0, substream(12, "deploy"))
        perturb_estimates(state, substream(12, "init"))
        truth_err0 = np.linalg.norm(state.estimates - state.positions)
        cfg = ProtocolConfig(mu=0.5, noise_sigma=0.0)
        for t in range(1, 80):
            protocol_round(state, substream(12, "protocol", t), cfg)
        # anchor-free relative refinement still tightens absolute error here
        # because the initial perturbation is zero-mean
        assert np.linalg.norm(state.estimates - state.positions) < truth_err0


def _moving_rounds(seed: int, node_count: int, rounds: int,
                   cfg: ProtocolConfig):
    """Yield (t, estimates before, state, batch, log) for each round of a
    perturbed network under default mobility."""
    state = deploy_network(node_count, 0, substream(seed, "deploy"))
    mobility = MobilityConfig()
    init_velocities(state, mobility.sigma_v, substream(seed, "mobility", 0))
    perturb_estimates(state, substream(seed, "init"))
    mob_rng = substream(seed, "mobility", 1)
    for t in range(1, rounds + 1):
        step_mobility(state, mobility, mob_rng)
        before = state.estimates.copy()
        _, batch, log = protocol_round(state, substream(seed, "protocol", t),
                                       cfg)
        yield t, before, state, batch, log


def _stars(batch: ObservationBatch) -> list:
    """A round's batch split into its stars, in head order: one
    (head, members, delta, weight) per run of equal ``batch.m``."""
    m = np.asarray(batch.m)
    starts = np.flatnonzero(np.r_[True, m[1:] != m[:-1]])
    ends = np.r_[starts[1:], len(m)]
    return [(int(m[a]), batch.n[a:b], batch.delta[a:b], batch.weight[a:b])
            for a, b in zip(starts, ends)]


class TestRoundIsOneSlot:
    """A round's stars are disjoint, and its one batched update equals
    applying the completed stars one by one."""

    def test_no_node_in_two_stars_of_a_round(self):
        stars = 0
        for t, _, state, batch, log in _moving_rounds(21, 200, 50,
                                                      ProtocolConfig()):
            heads = np.unique(batch.m)
            nodes = np.concatenate([heads, batch.n])
            assert len(np.unique(nodes)) == len(nodes), f"round {t}"
            assert len(heads) == log.clusters_completed
            assert not state.locked.any()
            stars += len(heads)
        assert stars > 50  # several stars per round

    def test_timed_out_star_rides_at_weight_zero(self, monkeypatch):
        """Every star of a round enters its one update, a timed-out star at
        weight 0, so its rows do not move; the round returns the same
        measurements in global ids at unity weight."""
        updates = []
        real = localization._damped_update

        def spy(Xn, batch, cfg, nodes):
            updates.append((batch, nodes))
            real(Xn, batch, cfg, nodes)

        monkeypatch.setattr(localization, "_damped_update", spy)
        cfg = ProtocolConfig(timeout_prob=0.5, noise_sigma=0.0)
        timed_out = 0
        for t, before, state, batch, log in _moving_rounds(23, 200, 30, cfg):
            [(update, nodes)] = updates
            updates.clear()
            assert np.array_equal(nodes[update.m], batch.m)
            assert np.array_equal(nodes[update.n], batch.n)
            assert np.array_equal(update.delta, batch.delta)
            assert np.all(batch.weight == 1.0)
            heads = {w: np.unique(batch.m[update.weight == w])
                     for w in (0.0, 1.0)}
            assert len(heads[0.0]) == log.clusters_timeout
            assert len(heads[1.0]) == log.clusters_completed
            for head in heads[0.0]:
                rows = np.r_[head, batch.n[batch.m == head]]
                assert np.array_equal(state.estimates[rows], before[rows])
            timed_out += log.clusters_timeout
        assert timed_out > 10

    @pytest.mark.parametrize("timeout_prob, min_neighbors, cluster_size",
                             [(0.2, 5, 11), (0.0, 0, 2)])
    def test_matches_star_by_star_reference(self, timeout_prob,
                                            min_neighbors, cluster_size):
        """Replays each round's draws star by star: the noise of every star,
        then its timeout draw. Timed-out stars stay locked but do not move.
        With ``min_neighbors=0`` and many heads, a head whose neighbors are
        all locked makes a zero-member star, which measures nothing and must
        not move."""
        cfg = ProtocolConfig(timeout_prob=timeout_prob,
                             min_neighbors=min_neighbors,
                             mean_cluster_size=cluster_size)
        step = StepConfig(mu=cfg.mu, eps_x=cfg.eps_x)
        timed_out = empty = 0
        for t, before, state, batch, log in _moving_rounds(22, 200, 50, cfg):
            rng = substream(22, "protocol", t)
            rng.random(state.node_count)  # head declarations
            want = before.copy()
            stars = _stars(batch)
            for head, members, delta, weight in stars:
                noise = rng.standard_normal(len(members))
                dist = np.linalg.norm(state.positions[members]
                                      - state.positions[head], axis=1)
                np.testing.assert_allclose(
                    delta, dist + cfg.noise_sigma * noise, rtol=0, atol=1e-12)
                if timeout_prob > 0 and rng.random() < timeout_prob:
                    timed_out += 1
                    continue
                cluster = np.r_[head, members]
                star = ObservationBatch(np.zeros(len(members), dtype=np.int64),
                                        np.arange(1, len(cluster)), delta,
                                        weight)
                want[cluster] = stochastic_step(want[cluster], star, step)
            np.testing.assert_allclose(state.estimates, want, rtol=0,
                                       atol=1e-12, err_msg=f"round {t}")
            empty += log.clusters_completed + log.clusters_timeout - len(stars)
        assert timed_out > 0 if timeout_prob > 0 else empty > 0


class TestAnchorAlign:
    def test_recovers_rigid_transform(self):
        rng = np.random.default_rng(13)
        truth = rng.random((20, 2)) * 5
        theta = np.pi / 2
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        est = truth @ R.T + np.array([1.0, 2.0])
        anchors = np.array([0, 5, 9, 14])
        aligned = anchor_align(est, anchors, truth[anchors])
        np.testing.assert_allclose(aligned, truth, atol=1e-8)

    def test_identity_when_aligned(self):
        rng = np.random.default_rng(14)
        truth = rng.random((10, 2))
        anchors = np.array([0, 3, 7])
        aligned = anchor_align(truth, anchors, truth[anchors])
        np.testing.assert_allclose(aligned, truth, atol=1e-12)

    def test_reflection_recovered(self):
        rng = np.random.default_rng(15)
        truth = rng.random((12, 2)) * 3
        est = truth @ np.diag([-1.0, 1.0])  # mirrored copy
        anchors = np.array([1, 4, 8, 11])
        aligned = anchor_align(est, anchors, truth[anchors])
        np.testing.assert_allclose(aligned, truth, atol=1e-9)

    def test_underdetermined_rejected(self):
        truth = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 1.0]])
        with pytest.raises(ValueError):
            anchor_align(truth, np.array([0, 1]), truth[:2])
        with pytest.raises(ValueError):
            anchor_align(truth, np.array([0, 1, 2]), truth[:3])  # collinear


class TestLocalizationError:
    """The per-round ``e_loc`` run_localization records: the Frobenius
    error of the estimates against the truth, over N."""

    def test_perfect_estimates(self, monkeypatch):
        # unperturbed start, no updates (mu = 0), static truth, no alignment
        monkeypatch.setattr(localization, "perturb_estimates",
                            lambda state, rng: None)
        out = run_localization(20, 5, seed=16,
                               mobility=MobilityConfig(sigma_v=0.0),
                               protocol=ProtocolConfig(mu=0.0), align_every=0)
        assert [r["e_loc"] for r in out["records"]] == [0.0] * 5

    def test_single_slot_window(self):
        out = run_localization(8, 1, seed=17, record_positions=True)
        [rec] = out["records"]
        want = np.linalg.norm(out["estimates"][0] - out["truth"][0]) / 8
        assert rec["t"] == 1 and rec["e_loc"] == want

    def test_window_is_max(self):
        # the statistic the tracking experiment reads: max e_loc over slots
        n, lo, hi = 30, 5, 20
        out = run_localization(n, 25, seed=18, record_positions=True)
        window = [r["e_loc"] for r in out["records"] if lo <= r["t"] <= hi]
        est, tru = out["estimates"], out["truth"]
        errs = [np.linalg.norm(est[t - 1] - tru[t - 1]) / n
                for t in range(lo, hi + 1)]
        assert len(window) == hi - lo + 1
        assert max(window) == max(errs)

    def test_bad_window_rejected(self, tmp_path):
        # a run without rounds records no e_loc, so localize refuses it
        assert run_localization(12, 0, seed=19)["records"] == []
        trace = tmp_path / "t.jsonl"
        code = main(["localize", "--n", "12", "--rounds", "0",
                     "--trace", str(trace)])
        assert code == EXIT_CONFIG
        assert not trace.exists()


class TestRunLocalization:
    def test_static_noiseless_converges(self):
        finals = []
        for seed in range(3):
            result = run_localization(
                50, 500, seed=seed,
                mobility=MobilityConfig(alpha=0.9, sigma_v=0.0),
                protocol=ProtocolConfig(mu=0.5, noise_sigma=0.0),
                anchor_count=5, align_every=10)
            finals.append(result["records"][-1]["e_loc"])
        assert float(np.median(finals)) < 1e-3

    def test_e_loc_records_match_positions(self):
        """Each round's ``e_loc`` (and ``e_loc_batch``) is the Frobenius
        error of the recorded estimates against the truth, over N."""
        n = 30
        out = run_localization(
            n, 25, seed=8, mobility=MobilityConfig(alpha=0.9, sigma_v=0.01),
            protocol=ProtocolConfig(mu=0.5), competitor_every=7,
            record_positions=True)
        for rec in out["records"]:
            t = rec["t"]
            truth = out["truth"][t - 1]
            assert rec["e_loc"] == \
                np.linalg.norm(out["estimates"][t - 1] - truth) / n
            assert rec["e_loc_batch"] == \
                np.linalg.norm(out["competitor"][t - 1] - truth) / n

    def test_competitor_trace_present(self):
        result = run_localization(
            30, 40, seed=4,
            mobility=MobilityConfig(alpha=0.9, sigma_v=0.01),
            protocol=ProtocolConfig(mu=0.5),
            competitor_every=10, record_positions=True)
        assert "e_loc_batch" in result["records"][-1]
        assert result["competitor"].shape == result["estimates"].shape

    def test_anchor_snap_at_alignment(self):
        result = run_localization(
            40, 20, seed=5,
            mobility=MobilityConfig(alpha=0.9, sigma_v=0.01),
            protocol=ProtocolConfig(mu=0.5), align_every=10,
            record_positions=True)
        state = result["state"]
        # round 20 is an alignment round: anchors sit at their true spots
        np.testing.assert_allclose(result["estimates"][-1][state.anchors],
                                   result["truth"][-1][state.anchors],
                                   atol=1e-12)

    def test_seeded_reproducibility(self):
        kw = dict(mobility=MobilityConfig(), protocol=ProtocolConfig(),
                  record_positions=True)
        a = run_localization(25, 30, seed=6, **kw)
        b = run_localization(25, 30, seed=6, **kw)
        np.testing.assert_array_equal(a["estimates"], b["estimates"])
        assert a["records"] == b["records"]
