"""Mobile-network simulator: deployment, mobility, protocol, alignment."""

import math

import numpy as np
import pytest

from stochmds import (
    MobilityConfig,
    ProtocolConfig,
    anchor_align,
    deploy_network,
    measure_distances,
    protocol_round,
    run_localization,
    step_mobility,
)
from stochmds import localization
from stochmds.cli import EXIT_CONFIG, main
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
