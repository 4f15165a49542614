"""Mobile-network localization simulator.

Nodes move on a square region under a first-order Gauss-Markov velocity
model, measure noisy ranges to neighbors within a communication radius, and
refine position estimates through an asynchronous cluster-head protocol:
heads declare at random and lock up to a fixed number of nearest available
neighbors into a star-shaped cluster, then measure head-to-member ranges.
Locks last until the round ends (timed-out stars included), so the stars of
one round are disjoint, and one incremental update applies every completed
star at once. Anchor nodes periodically resolve the
translation/rotation/reflection ambiguity of the relative estimates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .observations import ObservationBatch, StepConfig
from .rng import substream
from .sampling import assign_weights
from .stress_core import _damped_update
from .embedder import run_batch_smacof

__all__ = [
    "MobileNetworkState",
    "MobilityConfig",
    "ProtocolConfig",
    "RoundLog",
    "deploy_network",
    "init_velocities",
    "perturb_estimates",
    "step_mobility",
    "measure_distances",
    "protocol_round",
    "anchor_align",
    "run_localization",
]


# iteration cap of each batch competitor re-solve
_COMPETITOR_ITERS = 200


@dataclass
class MobilityConfig:
    """Gauss-Markov velocity recursion v' = alpha v + sqrt(1-alpha^2) n."""

    alpha: float = 0.9
    sigma_v: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.sigma_v < 0:
            raise ValueError(f"sigma_v must be nonnegative, got {self.sigma_v}")


@dataclass
class ProtocolConfig:
    """Cluster-head protocol parameters.

    Each node declares headship with probability 1 / mean_cluster_size per
    round; overlapping claims are resolved in ascending node-index order. A
    head that an earlier star of the round locked does not run. Heads with
    fewer than ``min_neighbors`` unlocked in-range neighbors abort; otherwise
    they lock the ``max_members`` nearest until the round ends. The round's
    stars share one update with step size ``mu`` and squared-distance
    regularizer ``eps_x``, a timed-out star at weight 0. Star measurements
    are weighted ``unity``, so no weight needs clamping.
    """

    mu: float = 0.5
    mean_cluster_size: int = 11
    min_neighbors: int = 5
    max_members: int = 10
    noise_sigma: float = 0.1
    timeout_prob: float = 0.0
    eps_x: float = 1e-8

    def __post_init__(self):  # the ranges the localize command checks
        inf = math.inf
        for name, lo, hi in (
                ("mu", 0, 1), ("mean_cluster_size", 1, inf),
                ("min_neighbors", 0, inf), ("max_members", 1, inf),
                ("noise_sigma", 0, inf), ("timeout_prob", 0, 1),
                ("eps_x", 0, inf)):
            v = getattr(self, name)
            if not (lo <= v <= hi and math.isfinite(v)):
                raise ValueError(f"{name} must lie in [{lo}, {hi}], got {v}")
        for name in ("min_neighbors", "max_members"):  # they cut arrays
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")

    @property
    def head_prob(self) -> float:
        return 1.0 / self.mean_cluster_size


@dataclass
class MobileNetworkState:
    """Truth and estimates for one simulated network."""

    positions: np.ndarray   # (N, 2) true positions
    velocities: np.ndarray  # (N, 2)
    estimates: np.ndarray   # (N, 2) current location estimates
    anchors: np.ndarray     # indices of GPS-equipped nodes
    region: float           # side length of the square deployment area
    comm_radius: float
    locked: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.locked is None:
            self.locked = np.zeros(len(self.positions), dtype=bool)

    @property
    def node_count(self) -> int:
        return len(self.positions)


@dataclass
class RoundLog:
    """Bookkeeping of one protocol round (message accounting is exact:
    total = solicitations + responses + result broadcasts).

    ``double_lock_attempts`` and ``locks_leaked`` are always 0: heads
    recruit only unlocked nodes and a round releases every lock it took.
    They stay because the benchmark and the c11 gate read them."""

    clusters_completed: int = 0
    clusters_aborted: int = 0
    clusters_timeout: int = 0
    solicitations: int = 0
    responses: int = 0
    results: int = 0
    double_lock_attempts: int = 0
    locks_leaked: int = 0
    updated_nodes: int = 0

    @property
    def messages(self) -> int:
        return self.solicitations + self.responses + self.results


def deploy_network(node_count: int, anchor_count: int,
                   rng: np.random.Generator) -> MobileNetworkState:
    """Place nodes uniformly at an average density of one per unit area.

    The region is sqrt(N) x sqrt(N) and the communication radius sqrt(N)/2.
    Estimates start equal to the truth; perturb them separately.
    """
    if node_count < 2:
        raise ValueError("need at least 2 nodes")
    if anchor_count >= node_count:
        raise ValueError("anchor count must be smaller than the node count")
    region = math.sqrt(node_count)
    positions = rng.random((node_count, 2)) * region
    anchors = np.sort(rng.choice(node_count, size=anchor_count, replace=False))
    return MobileNetworkState(
        positions=positions,
        velocities=np.zeros((node_count, 2)),
        estimates=positions.copy(),
        anchors=anchors,
        region=region,
        comm_radius=region / 2.0,
    )


def init_velocities(state: MobileNetworkState, sigma_v: float,
                    rng: np.random.Generator) -> None:
    state.velocities = sigma_v * rng.standard_normal((state.node_count, 2))


def perturb_estimates(state: MobileNetworkState,
                      rng: np.random.Generator) -> None:
    """Initial estimates: truth plus Gaussian error of variance N/100."""
    variance = state.node_count / 100.0
    state.estimates = state.positions + math.sqrt(variance) * \
        rng.standard_normal((state.node_count, 2))


def step_mobility(state: MobileNetworkState, cfg: MobilityConfig,
                  rng: np.random.Generator) -> MobileNetworkState:
    """Advance truth one step; reflective boundaries keep nodes in-region."""
    noise = cfg.sigma_v * rng.standard_normal((state.node_count, 2))
    state.velocities = cfg.alpha * state.velocities + \
        math.sqrt(max(0.0, 1.0 - cfg.alpha**2)) * noise
    pos = state.positions + state.velocities
    for _ in range(2):  # velocities are tiny relative to the region
        below = pos < 0
        pos[below] = -pos[below]
        state.velocities[below] = -state.velocities[below]
        above = pos > state.region
        pos[above] = 2 * state.region - pos[above]
        state.velocities[above] = -state.velocities[above]
    state.positions = pos
    return state


def measure_distances(state: MobileNetworkState, noise_sigma: float,
                      rng: np.random.Generator) -> ObservationBatch:
    """Noisy ranges for every pair within the communication radius.

    Nonpositive noisy measurements are discarded (weight zero drops them).
    """
    tree = cKDTree(state.positions)
    pairs = tree.query_pairs(state.comm_radius, output_type="ndarray")
    if pairs.size == 0:
        return ObservationBatch.empty()
    m, n = pairs[:, 0], pairs[:, 1]
    d = np.linalg.norm(state.positions[m] - state.positions[n], axis=1)
    if noise_sigma > 0:
        d = d + noise_sigma * rng.standard_normal(len(d))
    keep = d > 0
    return ObservationBatch(m[keep], n[keep], d[keep],
                            np.ones(int(keep.sum())))


def protocol_round(state: MobileNetworkState, rng: np.random.Generator,
                   cfg: ProtocolConfig) -> tuple:
    """One asynchronous round of the cluster-head protocol: one slot of
    disjoint stars.

    Returns (state, batch, log) where ``batch`` concatenates all star
    measurements taken this round, timed-out stars included, at unity
    weight. A star's locks last until the round ends, so no node joins two
    stars of one round; then every lock the round took is released (locks
    held on entry stay held). One batched update applies every star in
    place to ``state.estimates``, a timed-out star at weight 0, so it does
    not move. Members and ranges depend only on the true positions, so this
    equals applying the stars one after another.
    """
    log = RoundLog()
    locked = state.locked

    declares = np.flatnonzero(rng.random(state.node_count) < cfg.head_prob)
    stars = []  # (head then members, ranges, weight: 0 if timed out)

    for head in declares.tolist():
        if locked[head]:
            continue  # captured by an earlier cluster this round
        # solicit members among available nodes in range; a response is the
        # join message carrying the member's current estimate, so completed
        # clusters cost exactly one response per member
        log.solicitations += 1
        dist = np.linalg.norm(state.positions - state.positions[head], axis=1)
        candidates = np.flatnonzero(
            (dist <= state.comm_radius) & ~locked)
        candidates = candidates[candidates != head]
        if len(candidates) < cfg.min_neighbors:
            log.responses += len(candidates)
            log.clusters_aborted += 1
            continue
        order = np.argsort(dist[candidates], kind="stable")
        members = candidates[order[:cfg.max_members]]
        log.responses += len(members)

        star = np.r_[head, members]
        locked[star] = True

        meas = dist[members]  # star measurements head <-> member
        if cfg.noise_sigma > 0:
            meas = meas + cfg.noise_sigma * rng.standard_normal(len(members))

        timed_out = cfg.timeout_prob > 0 and rng.random() < cfg.timeout_prob
        log.results += 1  # result broadcast is transmitted either way
        if timed_out:
            log.clusters_timeout += 1
        else:
            log.clusters_completed += 1
            log.updated_nodes += len(members) + 1
        stars.append((star, meas, 0.0 if timed_out else 1.0))

    if not stars:  # no head locked anything
        return state, ObservationBatch.empty(), log
    stars, ranges, ride = zip(*stars)
    nodes, delta = np.concatenate(stars), np.concatenate(ranges)
    # S4: release every lock this round took: the nodes of its stars
    locked[nodes] = False

    # the stars in local ids: each head, then its members
    sizes = np.array([len(star) for star in stars])
    heads = np.cumsum(sizes) - sizes
    m, k = np.repeat(heads, sizes - 1), np.delete(np.arange(len(nodes)), heads)
    unity = assign_weights(delta, "unity")
    local = ObservationBatch(m, k, delta, unity * np.repeat(ride, sizes - 1))
    _damped_update(state.estimates, local,
                   StepConfig(mu=cfg.mu, eps_x=cfg.eps_x), nodes)
    return state, ObservationBatch(nodes[m], nodes[k], delta, unity), log


def anchor_align(estimates: np.ndarray, anchor_idx: np.ndarray,
                 anchor_truth: np.ndarray) -> np.ndarray:
    """Map estimates onto the anchor frame by least-squares rigid alignment.

    Solves the orthogonal (rotation or reflection) plus translation fit of
    the estimated anchor positions onto their true positions and applies it
    to every node. Needs at least 3 non-collinear anchors.
    """
    anchor_idx = np.asarray(anchor_idx)
    src = np.asarray(estimates, dtype=np.float64)[anchor_idx]
    dst = np.asarray(anchor_truth, dtype=np.float64)
    if len(src) < 3:
        raise ValueError("need at least 3 anchors for a plane alignment")
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    sc = src - mu_s
    dc = dst - mu_d
    sv_src = np.linalg.svd(sc, compute_uv=False)
    sv_dst = np.linalg.svd(dc, compute_uv=False)
    if sv_dst[-1] <= 1e-9 * sv_dst[0] or sv_src[-1] <= 1e-12 * max(sv_src[0], 1.0):
        raise ValueError("collinear anchors: alignment underdetermined")
    U, _, Vt = np.linalg.svd(sc.T @ dc)
    R = U @ Vt  # reflections permitted: no determinant correction
    return (np.asarray(estimates) - mu_s) @ R + mu_d


def run_localization(
    node_count: int,
    rounds: int,
    seed: int,
    mobility: MobilityConfig | None = None,
    protocol: ProtocolConfig | None = None,
    anchor_count: int = 5,
    align_every: int = 10,
    competitor_every: int | None = None,
    record_positions: bool = False,
    config_echo: dict | None = None,
):
    """Simulate the protocol over a mobile network.

    Each round: advance mobility, run one protocol round, and (every
    ``align_every`` rounds) re-align estimates onto the anchors, snapping
    anchor estimates to their true positions. With ``competitor_every`` set,
    a complexity-normalized batch competitor re-solves the full in-range
    measurement graph every k-th round from a warm start (at most
    ``_COMPETITOR_ITERS`` majorization iterations) and is aligned on
    the same cadence; its per-round error is reported alongside.

    Returns a dict with per-round metric records, final state, and (when
    requested) position traces.
    """
    mobility = mobility or MobilityConfig()
    protocol = protocol or ProtocolConfig()
    state = deploy_network(node_count, anchor_count, substream(seed, "deploy"))
    init_velocities(state, mobility.sigma_v, substream(seed, "mobility", 0))
    perturb_estimates(state, substream(seed, "init"))

    competitor = state.estimates.copy() if competitor_every else None
    anchor_truth = lambda: state.positions[state.anchors]

    records = []
    est_trace, truth_trace, comp_trace = [], [], []
    mob_rng = substream(seed, "mobility", 1)

    for t in range(1, rounds + 1):
        step_mobility(state, mobility, mob_rng)
        state, batch, log = protocol_round(
            state, substream(seed, "protocol", t), protocol)

        if competitor is not None and t % competitor_every == 0:
            full = measure_distances(state, protocol.noise_sigma,
                                     substream(seed, "measure", t))
            trace = run_batch_smacof(full, competitor, tol=1e-8,
                                     max_iters=_COMPETITOR_ITERS)
            competitor = trace.final

        if align_every and t % align_every == 0 and len(state.anchors) >= 3:
            state.estimates = anchor_align(state.estimates, state.anchors,
                                           anchor_truth())
            state.estimates[state.anchors] = anchor_truth()
            if competitor is not None:
                competitor = anchor_align(competitor, state.anchors,
                                          anchor_truth())
                competitor[state.anchors] = anchor_truth()

        n = state.node_count
        e_loc = float(np.linalg.norm(state.estimates - state.positions) / n)
        rec = {"t": t, "e_loc": e_loc, "clusters": log.clusters_completed,
               "messages": log.messages}
        if competitor is not None:
            rec["e_loc_batch"] = float(
                np.linalg.norm(competitor - state.positions) / n)
        records.append(rec)
        if record_positions:
            est_trace.append(state.estimates.copy())
            truth_trace.append(state.positions.copy())
            if competitor is not None:
                comp_trace.append(competitor.copy())

    out = {"records": records, "state": state, "seed": seed,
           "config": config_echo or {}}
    if record_positions:
        out["estimates"] = np.array(est_trace)
        out["truth"] = np.array(truth_trace)
        if competitor is not None:
            out["competitor"] = np.array(comp_trace)
    return out
