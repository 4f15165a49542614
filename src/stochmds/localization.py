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

``_partition_stars`` forms a round's stars, head by head, and draws
nothing; the round then draws each star's noise, then its timeout, in star
order. Every range here comes from stress_core's one edge-length rule
(``_add_squares``: the squared coordinate columns added in column order),
then ``np.sqrt``: the partition takes each head's range row from
``_squared_lengths_from``, and ``measure_distances`` every in-range pair's
from ``_squared_lengths``.
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
from .stress_core import _damped_update, _squared_lengths, \
    _squared_lengths_from
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
    """Noisy ranges for every pair within the communication radius, their
    true lengths from ``stress_core._squared_lengths``, then ``np.sqrt``.

    Nonpositive noisy measurements are discarded (weight zero drops them).
    """
    tree = cKDTree(state.positions)
    pairs = tree.query_pairs(state.comm_radius, output_type="ndarray")
    if pairs.size == 0:
        return ObservationBatch.empty()
    m, n = pairs[:, 0], pairs[:, 1]
    d = np.sqrt(_squared_lengths(state.positions, m, n))
    if noise_sigma > 0:
        d = d + noise_sigma * rng.standard_normal(len(d))
    keep = d > 0
    return ObservationBatch(m[keep], n[keep], d[keep],
                            np.ones(int(keep.sum())))


def _partition_stars(positions: np.ndarray, declares: np.ndarray,
                     locked: np.ndarray, radius: float, min_neighbors: int,
                     max_members: int) -> tuple:
    """A round's stars, formed head by head in ``declares`` order.

    A head that an earlier star locked does not run. Each running head
    solicits the unlocked non-head nodes within ``radius``; with fewer than
    ``min_neighbors`` it aborts, else its star is the head and the
    ``max_members`` nearest, ties in node order, all locked through
    ``locked`` as the star is formed. A head's range row is
    ``stress_core._squared_lengths_from``, then ``np.sqrt``. The partition
    draws nothing and holds O(N) per head.

    Returns ``(nodes, sizes, ranges, log)``: the stars laid end to end,
    each head then its members; each star's size; the head-to-member ranges
    in the same order; and a ``RoundLog`` holding the solicitation,
    response and abort counts.
    """
    log = RoundLog()
    cols = np.ascontiguousarray(positions.T, dtype=np.float64)
    d, s = np.empty(len(positions)), np.empty(len(positions))
    near = np.empty(len(positions), dtype=bool)
    stars, ranges = [], []
    for head in declares.tolist():
        if locked[head]:
            continue  # captured by an earlier star this round
        # solicit members among available nodes in range; a response is the
        # join message carrying the member's current estimate, so completed
        # stars cost exactly one response per member
        log.solicitations += 1
        np.sqrt(_squared_lengths_from(cols, head, d, s), out=d)
        d[head] = -1.0  # in range, and first in the star's order
        np.less_equal(d, radius, out=near)
        near &= ~locked
        candidates = near.nonzero()[0]  # the head among them
        if len(candidates) - 1 < min_neighbors:
            log.responses += len(candidates) - 1
            log.clusters_aborted += 1
            continue
        dist = d[candidates]
        order = dist.argsort(kind="stable")[:max_members + 1]
        star = candidates[order]
        log.responses += len(star) - 1
        locked[star] = True
        stars.append(star)
        ranges.append(dist[order[1:]])
    sizes = np.array([len(star) for star in stars], dtype=np.intp)
    if not stars:
        return np.empty(0, dtype=np.intp), sizes, np.empty(0), log
    return np.concatenate(stars), sizes, np.concatenate(ranges), log


def protocol_round(state: MobileNetworkState, rng: np.random.Generator,
                   cfg: ProtocolConfig) -> tuple:
    """One asynchronous round of the cluster-head protocol: one slot of
    disjoint stars.

    Returns (state, batch, log) where ``batch`` concatenates all star
    measurements taken this round, timed-out stars included, at unity
    weight. ``_partition_stars`` forms the stars; a star's locks last until
    the round ends, so no node joins two stars of one round; then every
    lock the round took is released (locks held on entry stay held). Each
    star then draws its range noise, then its timeout, in star order. One
    batched update applies every star in place to ``state.estimates``, a
    timed-out star at weight 0, so it does not move. Members and ranges
    depend only on the true positions, so this equals applying the stars
    one after another.
    """
    declares = np.flatnonzero(rng.random(state.node_count) < cfg.head_prob)
    nodes, sizes, delta, log = _partition_stars(
        state.positions, declares, state.locked, state.comm_radius,
        cfg.min_neighbors, cfg.max_members)
    if not len(sizes):  # no head locked anything
        return state, ObservationBatch.empty(), log
    # S4: release every lock this round took: the nodes of its stars
    state.locked[nodes] = False

    counts = sizes - 1
    noise = np.zeros(len(delta))
    ride = np.ones(len(sizes))  # 0 for a star that timed out
    ends = np.cumsum(counts).tolist()
    for j, (a, b) in enumerate(zip([0] + ends, ends)):
        if cfg.noise_sigma > 0:  # each star's noise, then its timeout draw
            rng.standard_normal(out=noise[a:b])
        if cfg.timeout_prob > 0 and rng.random() < cfg.timeout_prob:
            ride[j] = 0.0
    delta += cfg.noise_sigma * noise
    log.results = len(sizes)  # result broadcast is transmitted either way
    log.clusters_completed = int(ride.sum())
    log.clusters_timeout = len(sizes) - log.clusters_completed
    log.updated_nodes = int(sizes @ ride)

    # the stars in local ids: each head, then its members
    star = np.repeat(np.arange(len(sizes)), counts)
    m = (np.cumsum(sizes) - sizes)[star]
    k = star + np.arange(1, len(star) + 1)
    unity = assign_weights(delta, "unity")
    local = ObservationBatch(m, k, delta, unity * ride[star])
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
