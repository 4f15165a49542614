"""The four benchmark workloads and the episode loop that measures them.

Each workload makes its inputs from the benchmark seed with numpy's own
generator, not with ``stochmds.rng``, so the inputs stay the same when the
library changes its random streams. The one exception is ``ref100``'s
fixed instance, made exactly as the acceptance fixture makes it. Each
drives the library through the entry points ``stochmds.cli`` uses
(``run_stochastic``, ``run_batch_smacof``, ``run_localization``,
``parse_edge_list``), calling them through their modules so that a
``Tracer`` can wrap them.

A run is a sequence of independent episodes, each a complete call of the
entry point on inputs derived from (seed, episode index). Episodes repeat
until the run has measured for the requested seconds and has finished the
workload's ``quality_episodes``. Quality figures come from those first
episodes only, so they are identical for every run with the same seed; the
timing figures use every episode. A *unit* is one slot, protocol round or
majorization iteration.
"""

from __future__ import annotations

import math
import os
import statistics
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from stochmds import data_io, embedder, localization
from stochmds.embedder import MuSchedule, random_init
from stochmds.localization import MobilityConfig, ProtocolConfig
from stochmds.rng import substream
from stochmds.sampling import SamplerConfig

from calibration import UnitClock


@dataclass
class Episode:
    """What one episode measured and checked."""

    unit_ms: list             # time of each unit at reference speed
    raw_ms: list              # time of each unit as measured
    pairs: int                # dissimilarities processed by the units
    to_target: list           # per solve: (first unit's ms, units until
                              # stress_norm met the target)
    solve_ms: list            # times of the solves' later units
    quality: float            # trailing-window stress_norm
    failed: int = 0           # units that failed a check
    checks: list = field(default_factory=list)   # descriptions of failures
    extra: dict = field(default_factory=dict)    # further quality figures
    digest: tuple = ()        # deterministic outputs, compared across passes


def units_to_target(stress_norm, fraction: float) -> float:
    """Units until stress_norm first falls to ``fraction`` of its value
    before the first unit, interpolated linearly inside the unit that
    crosses. ``stress_norm[0]`` is the start and ``stress_norm[k]`` the
    value after unit k. A solve that never gets there counts all its
    units."""
    target = fraction * stress_norm[0]
    for k in range(1, len(stress_norm)):
        if stress_norm[k] <= target:
            drop = stress_norm[k - 1] - stress_norm[k]
            share = (stress_norm[k - 1] - target) / drop if drop > 0 else 1.0
            return k - 1 + min(max(share, 0.0), 1.0)
    return float(len(stress_norm) - 1)


def _stress_checks(ep: Episode, trace, units: int, monotone: bool,
                   statuses=("ok", "converged")) -> None:
    """Status, finiteness and (for batch runs) monotone stress."""
    if trace.status not in statuses:
        ep.checks.append(f"status {trace.status}")
    if not np.all(np.isfinite(trace.final)):
        ep.checks.append("non-finite embedding")
    s = np.array([r["stress"] for r in trace.records])
    if not np.all(np.isfinite(s)):
        ep.checks.append("non-finite stress")
    if ep.checks:
        ep.failed += units
    elif monotone:
        rises = np.diff(s) > 1e-10 * np.maximum(s[:-1], 1.0)
        if rises.any():
            ep.checks.append(f"stress increased in {int(rises.sum())} iteration(s)")
            ep.failed += int(rises.sum())


def _embedding_bytes_peak(call, embedding_bytes: int) -> float:
    """tracemalloc peak of ``call()`` over the embedding's size."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / embedding_bytes


# generator key outside the range of episode indices
SETUP_KEY = 2**20


@dataclass
class _TickingSchedule(MuSchedule):
    """A constant schedule whose per-slot lookup ticks a UnitClock; the
    library asks for mu once at the start of every slot."""

    clock: UnitClock | None = None

    def mu_at(self, t: int) -> float:
        self.clock.tick()
        return super().mu_at(t)


@contextmanager
def _ticking(owner, attr: str, clock: UnitClock):
    """Tick ``clock`` on every call of ``owner.attr``."""
    original = getattr(owner, attr)

    def ticked(*args, **kwargs):
        clock.tick()
        return original(*args, **kwargs)

    setattr(owner, attr, ticked)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Workload:
    """Common shape: ``setup_once`` (timed as set-up), ``episode`` (the
    units, timed through a UnitClock), ``memory_ratio`` (untimed), plus the
    figures below."""

    name, tag, unit = "", 0, ""
    tail_pct = 50.0           # per-episode percentile reported as the tail
    tick_every = 1            # units between calibration readings (~0.2 s)
    speed_exponent = 1.0      # log-log slope of unit time on kernel time
    quality_episodes = 1
    target_fraction = 0.5
    setup_reps = 5

    def __init__(self, seed: int, workdir: str):
        """``workdir``: a temporary directory for input files."""
        self.seed = seed

    def rng(self, key: int) -> np.random.Generator:
        """Generator for episode ``key`` (or one of the keys below)."""
        return np.random.default_rng([self.seed, self.tag, key])


class _Embedding(Workload):
    """Incremental embedding of planar points on a FeatureProvider."""

    dim = 2

    def _inputs(self, e: int):
        """Points, start generator and sampler of episode ``e``."""
        rng = self.rng(e)
        coords = rng.random((self.n, 2)) * self.side
        init_rng = np.random.default_rng(rng.integers(2**63))
        sampler = SamplerConfig(p=self.p, q=self.q, fraction=self.fraction,
                                seed=int(rng.integers(2**31)))
        return coords, init_rng, sampler

    def _run(self, coords, init_rng, sampler, slots, schedule=None):
        """What ``stochmds embed --mode stochastic`` does with its input."""
        provider = data_io.FeatureProvider(coords, metric="euclidean")
        init = random_init(self.n, self.dim, init_rng, self.side)
        trace = embedder.run_stochastic(
            provider, init, schedule or MuSchedule.constant(self.mu),
            sampler, slots, noise_sigma=self.noise_sigma)
        return trace, provider

    def setup_once(self) -> float:
        inputs = self._inputs(SETUP_KEY)
        t0 = time.perf_counter()
        self._run(*inputs, 0)
        return time.perf_counter() - t0

    def memory_ratio(self) -> float:
        """One slot without an evaluation set, as the c10 gate measures it:
        provider and start exist before tracing starts."""
        coords, init_rng, sampler = self._inputs(0)
        provider = data_io.FeatureProvider(coords, metric="euclidean")
        init = random_init(self.n, self.dim, init_rng, self.side)
        return _embedding_bytes_peak(
            lambda: embedder.run_stochastic(
                provider, init, MuSchedule.constant(self.mu), sampler, 1,
                noise_sigma=self.noise_sigma, eval_pairs=0),
            init.nbytes)

    def episode(self, e: int, clock: UnitClock) -> Episode:
        schedule = _TickingSchedule("constant", value=self.mu, clock=clock)
        trace, provider = self._run(*self._inputs(e), self.slots, schedule)
        recs = trace.records
        clock.finish(len(recs) - 1)
        unit_ms = clock.adjust([r["wall_ms"] for r in recs[1:]])
        sn = [r["stress_norm"] for r in recs]
        ep = Episode(unit_ms=unit_ms,
                     raw_ms=clock.raw([r["wall_ms"] for r in recs[1:]]),
                     pairs=sum(r["pairs"] for r in recs[1:]),
                     to_target=[(unit_ms[0],
                                 units_to_target(sn, self.target_fraction))],
                     solve_ms=unit_ms[1:],
                     quality=float(np.mean(sn[-self.window:])),
                     extra={"lookups": provider.lookups},
                     digest=(tuple(sn), trace.final.tobytes()))
        if len(unit_ms) != self.slots:
            ep.checks.append(f"{len(unit_ms)} of {self.slots} slots recorded")
        _stress_checks(ep, trace, self.slots, monotone=False)
        return ep


class Ref100(_Embedding):
    """The acceptance ``planar100`` reference run: its fixed points and
    start (made as the acceptance fixture makes them), with the sampler's
    seed, and so the cluster draws and the measurement noise, taken from
    the benchmark seed. One fixed instance keeps the seed-to-seed spread of
    the quality figures near 3 % per episode; fresh random instances spread
    by about 15 %."""

    name, tag, unit = "ref100", 1, "slot"
    n, side = 100, 10.0
    p, q, fraction, mu, noise_sigma = 25, None, 0.35, 0.1, 0.1
    slots, window = 1000, 200
    tick_every = 200
    speed_exponent = 0.77
    quality_episodes = 12
    target_fraction = 0.3     # the crossing slot varies least across seeds
    tail_pct = 75.0
    setup_reps = 15

    def _inputs(self, e: int):
        coords = substream(424242, "deploy").random((self.n, 2)) * self.side
        sampler = SamplerConfig(p=self.p, fraction=self.fraction,
                                seed=int(self.rng(e).integers(2**31)))
        return coords, substream(424242, "init"), sampler


class Stream40k(_Embedding):
    """The ``bench`` / c10 sweep point at N = 40,000."""

    name, tag, unit = "stream40k", 2, "slot"
    n, side = 40_000, 200.0
    p, q, fraction, mu, noise_sigma = 100, 50, None, 0.1, 0.0
    slots, window = 8, 3
    tick_every = 1
    speed_exponent = 0.54
    quality_episodes = 2
    target_fraction = 0.95
    tail_pct = 75.0
    setup_reps = 5


class Batch600(Workload):
    """Batch majorization of a full 600-point edge-list file (CG path).

    The file is one fixed instance. The quality episodes start from fixed
    reference starts, the same for every seed; the benchmark seed draws the
    starts of the episodes after them. A random start spends 10 to 17
    iterations on the unfolding plateau, and with seeded starts the run
    median of the time to target spread by 28 % across seeds."""

    name, tag, unit = "batch600", 4, "iteration"
    n = 600
    noise = 0.1               # multiplicative log-normal noise on distances
    tol, max_iters, window = 1e-6, 500, 10
    tick_every = 4
    speed_exponent = 0.45
    quality_episodes = 3      # odd: about one start in eight stalls
    target_fraction = 0.2     # past the unfolding plateau
    tail_pct = 80.0
    setup_reps = 3

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([self.tag, 600])
        coords = rng.random((self.n, 2)) * math.sqrt(self.n)
        iu, ju = np.triu_indices(self.n, k=1)
        delta = np.linalg.norm(coords[iu] - coords[ju], axis=1) * \
            np.exp(self.noise * rng.standard_normal(len(iu)))
        self.path = os.path.join(workdir, "batch600.tsv")
        with open(self.path, "w") as fh:
            fh.writelines(f"{m}\t{n}\t{d!r}\n" for m, n, d in
                          zip(iu.tolist(), ju.tolist(), delta.tolist()))
        self.batch = self.scale = None       # set by setup_once

    def _load(self):
        """What ``stochmds embed --mode batch --seed 0`` does before
        iterating (the start scale is then the same for every seed)."""
        batch = data_io.parse_edge_list(self.path)
        n = int(max(batch.m.max(), batch.n.max())) + 1
        provider = data_io.EdgeListProvider(batch, n)
        scale = embedder.estimate_scale(provider, 0)
        return batch, n, scale

    def _init(self, e: int, n: int, scale: float):
        if e < self.quality_episodes:
            return random_init(n, 2, np.random.default_rng([self.tag, e]), scale)
        return random_init(n, 2, self.rng(e), scale)

    def setup_once(self) -> float:
        t0 = time.perf_counter()
        batch, n, scale = self._load()
        embedder.run_batch_smacof(batch, self._init(SETUP_KEY, n, scale),
                                  tol=self.tol, max_iters=0)
        elapsed = time.perf_counter() - t0
        self.batch, self.scale = batch, scale
        return elapsed

    def memory_ratio(self) -> float:
        init = self._init(0, self.n, self.scale)
        return _embedding_bytes_peak(
            lambda: embedder.run_batch_smacof(self.batch, init, tol=self.tol,
                                              max_iters=1),
            init.nbytes)

    def episode(self, e: int, clock: UnitClock) -> Episode:
        init = self._init(e, self.n, self.scale)
        # an iteration starts with its smacof_iterate call
        with _ticking(embedder, "smacof_iterate", clock):
            trace = embedder.run_batch_smacof(
                self.batch, init, tol=self.tol, max_iters=self.max_iters)
        recs = trace.records
        clock.finish(len(recs) - 1)
        unit_ms = clock.adjust([r["wall_ms"] for r in recs[1:]])
        sn = [r["stress_norm"] for r in recs]
        # only solves from the reference starts count the units to target
        reference = e < self.quality_episodes
        ep = Episode(unit_ms=unit_ms,
                     raw_ms=clock.raw([r["wall_ms"] for r in recs[1:]]),
                     pairs=sum(r["pairs"] for r in recs[1:]),
                     to_target=[(unit_ms[0],
                                 units_to_target(sn, self.target_fraction))]
                     if reference else [],
                     solve_ms=unit_ms[1:],
                     quality=float(np.mean(sn[-self.window:])),
                     digest=(tuple(sn), trace.final.tobytes()))
        _stress_checks(ep, trace, len(unit_ms), monotone=True)
        return ep


class _RoundWatch:
    """Stamps the start of every protocol round and checks its RoundLog;
    captures every batch-competitor solve."""

    def __init__(self, clock: UnitClock):
        self.clock = clock
        self.stamps, self.pairs, self.failed, self.checks = [], 0, 0, []
        self.solves = []      # (round, trace)

    def protocol_round(self, original):
        def watched(state, rng, cfg):
            self.stamps.append(time.perf_counter())
            self.clock.tick()
            state, batch, log = original(state, rng, cfg)
            bad = []
            if log.locks_leaked or log.double_lock_attempts or state.locked.any():
                bad.append("leaked or double lock")
            if log.solicitations != (log.clusters_completed + log.clusters_aborted
                                     + log.clusters_timeout) \
                    or log.results != log.clusters_completed + log.clusters_timeout \
                    or log.messages != log.solicitations + log.responses + log.results:
                bad.append("message accounting")
            if bad:
                self.failed += 1
                self.checks.append(f"round {len(self.stamps)}: " + ", ".join(bad))
            self.pairs += len(batch)
            return state, batch, log
        return watched

    def competitor(self, original):
        def watched(*args, **kwargs):
            trace = original(*args, **kwargs)
            self.solves.append((len(self.stamps), trace))
            return trace
        return watched

    @contextmanager
    def installed(self):
        loc = localization
        saved = loc.protocol_round, loc.run_batch_smacof
        loc.protocol_round = self.protocol_round(saved[0])
        loc.run_batch_smacof = self.competitor(saved[1])
        try:
            yield self
        finally:
            loc.protocol_round, loc.run_batch_smacof = saved


class Localize200(Workload):
    """The c09 localization setup scaled to 200 nodes."""

    name, tag, unit = "localize200", 3, "round"
    n, rounds, window = 200, 700, (501, 700)
    tick_every = 40
    speed_exponent = 0.70
    quality_episodes = 2
    target_fraction = 0.1
    tail_pct = 99.5
    setup_reps = 15

    def _call(self, run_seed: int, rounds: int):
        return localization.run_localization(
            self.n, rounds, seed=run_seed,
            mobility=MobilityConfig(alpha=0.9, sigma_v=0.01),
            protocol=ProtocolConfig(mu=0.5, noise_sigma=0.1),
            anchor_count=5, align_every=10, competitor_every=50)

    def _run_seed(self, e: int) -> int:
        return int(self.rng(e).integers(2**31))

    def setup_once(self) -> float:
        t0 = time.perf_counter()
        self._call(self._run_seed(SETUP_KEY), 0)
        return time.perf_counter() - t0

    def memory_ratio(self) -> float:
        """The first 50 rounds, through the first competitor re-solve: one
        round alone peaks at a size that varies with its head count."""
        return _embedding_bytes_peak(
            lambda: self._call(self._run_seed(0), 50), self.n * 2 * 8)

    def episode(self, e: int, clock: UnitClock) -> Episode:
        watch = _RoundWatch(clock)
        with watch.installed():
            res = self._call(self._run_seed(e), self.rounds)
            end = time.perf_counter()
        recs = res["records"]
        bounds = watch.stamps + [end]
        measured = [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]
        clock.finish(len(measured))
        lo, hi = self.window
        win = [r for r in recs if lo <= r["t"] <= hi]
        solve_sn = [[r["stress_norm"] for r in tr.records]
                    for _, tr in watch.solves]
        # a solve runs inside round t, whose index among the units is t - 1
        solve_ms = [[r["wall_ms"] * clock.scale_at(t - 1)
                     for r in tr.records[1:]] for t, tr in watch.solves]
        ep = Episode(
            unit_ms=clock.adjust(measured), raw_ms=clock.raw(measured),
            pairs=watch.pairs,
            to_target=[(ms[0], units_to_target(sn, self.target_fraction))
                       for sn, ms in zip(solve_sn, solve_ms)],
            solve_ms=[t for ms in solve_ms for t in ms[1:]],
            quality=float(np.mean([sn[-1] for (t, _), sn
                                   in zip(watch.solves, solve_sn)
                                   if lo <= t <= hi])),
            failed=watch.failed, checks=watch.checks,
            extra={"e_loc_window_max": max(r["e_loc"] for r in win),
                   "e_loc_batch_window_max": max(r["e_loc_batch"] for r in win)},
            digest=(tuple(r["e_loc"] for r in recs),
                    tuple(r["e_loc_batch"] for r in recs)))
        if len(measured) != self.rounds or len(recs) != self.rounds:
            ep.checks.append(f"{len(measured)} of {self.rounds} rounds stamped")
            ep.failed = self.rounds
        est = res["state"].estimates
        if not np.all(np.isfinite(est)) or not all(
                math.isfinite(r["e_loc"]) and math.isfinite(r["e_loc_batch"])
                for r in recs):
            ep.checks.append("non-finite estimates")
            ep.failed = self.rounds
        for _, tr in watch.solves:
            probe = Episode([], [], 0, [], [], 0.0)
            # the competitor's iteration cap is part of the protocol setup
            _stress_checks(probe, tr, len(tr.records) - 1, monotone=True,
                           statuses=("converged", "max_iters"))
            if probe.checks:
                ep.checks += ["competitor: " + c for c in probe.checks]
                ep.failed += 1
        return ep


WORKLOADS = {w.name: w for w in (Ref100, Stream40k, Localize200, Batch600)}


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def median(values) -> float:
    return float(statistics.median(values))


@contextmanager
def scratch_dir(root: str):
    """A temporary directory inside the checkout, removed afterwards."""
    with tempfile.TemporaryDirectory(prefix=".benchmark-tmp-", dir=root) as d:
        yield d
