"""Run drivers: batch majorization, the incremental slot loop, the averaged
companion recursion, step-size schedules, and steady-state metrics.

A run produces a ``RunTrace``: one record per slot with its stress, plus the
final embedding and optionally the whole embedding sequence. ``_EvalSet``
evaluates ``stress_core.stress`` on one batch: a sampled run's fixed sample of
usable pairs (all of them up to ``eval_pairs``, else a uniform draw, so full
stress, quadratic in N, is never computed per slot for large runs; an edge
list offers only its own edges) or a streamed slot's own batch. A
batch-mode run takes its stress from its batch plan instead.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .data_io import MatrixProvider
from .observations import ObservationBatch, StepConfig
from .rng import substream
from .sampling import SamplerConfig, assign_weights, _cluster_sizes, \
    _decode_pairs, _pair_count, _shuffled_nodes
# _stress, _sgd_step and _damped_update skip the id check: every batch
# they get here is checked already or built in range
from .stress_core import (
    averaged_step,
    closed_form_b_average,
    smacof_iterate,
    upsilon,
    _all_finite,
    _BatchPlan,
    _check_cluster_size,
    _damped_update,
    _on_touched_rows,
    _sgd_step,
    _stress,
)

__all__ = [
    "MuSchedule",
    "RunTrace",
    "run_batch_smacof",
    "run_stochastic",
    "run_averaged_oracle",
    "hovering_deviation",
    "steady_state_stats",
    "random_init",
    "estimate_scale",
]


@dataclass
class MuSchedule:
    """Step-size schedule over slots.

    kinds: ``constant`` (fixed value), ``piecewise`` (value changes at given
    slot boundaries), ``reciprocal`` (mu_t = min(1, c / (1 + t)), the
    long-memory decay). Every emitted value lies in (0, 1].
    """

    kind: str
    value: float = 0.0
    breakpoints: tuple = ()
    values: tuple = ()

    @classmethod
    def constant(cls, value: float) -> "MuSchedule":
        if not 0.0 < value <= 1.0:
            raise ValueError(f"mu must lie in (0, 1], got {value}")
        return cls("constant", value=value)

    @classmethod
    def piecewise(cls, breakpoints, values) -> "MuSchedule":
        """``values[k]`` applies from slot ``breakpoints[k]`` (0-based) on."""
        breakpoints = tuple(int(b) for b in breakpoints)
        values = tuple(float(v) for v in values)
        if len(breakpoints) != len(values) or not values:
            raise ValueError("breakpoints and values must align and be nonempty")
        if breakpoints[0] != 0 or list(breakpoints) != sorted(set(breakpoints)):
            raise ValueError("breakpoints must start at 0 and increase")
        if any(not 0.0 < v <= 1.0 for v in values):
            raise ValueError("all schedule values must lie in (0, 1]")
        return cls("piecewise", breakpoints=breakpoints, values=values)

    @classmethod
    def reciprocal(cls, c: float) -> "MuSchedule":
        if c <= 0:
            raise ValueError(f"decay constant must be positive, got {c}")
        return cls("reciprocal", value=float(c))

    def mu_at(self, t: int) -> float:
        """Step size for the 0-based update index t."""
        if self.kind == "constant":
            return self.value
        if self.kind == "piecewise":
            k = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
            return self.values[k]
        if self.kind == "reciprocal":
            return min(1.0, self.value / (1.0 + t))
        raise ValueError(f"unknown schedule kind {self.kind!r}")


@dataclass
class RunTrace:
    """Per-slot records plus the final embedding of one run.

    ``evaluated_pairs`` is the size of the batch every record's stress is
    taken on: a sampled run's evaluation sample or a batch run's batch.
    It is None for a streamed run, which evaluates each slot's own batch.
    """

    records: list
    final: np.ndarray
    seed: int
    status: str = "ok"
    config: dict | None = None
    embeddings: np.ndarray | None = None  # (slots+1, N, P) when recorded
    evaluated_pairs: int | None = None

    def stresses(self) -> np.ndarray:
        return np.array([r["stress"] for r in self.records], dtype=np.float64)

    def slot_index(self) -> np.ndarray:
        return np.array([r["t"] for r in self.records], dtype=np.int64)

    def write_jsonl(self, path) -> None:
        """One header line with the effective config, the run's seed, status
        and evaluated pair count, then one line per slot."""
        header = {"config": self.config or {}, "seed": self.seed,
                  "status": self.status,
                  "evaluated_pairs": self.evaluated_pairs}
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def random_init(node_count: int, dim: int, rng: np.random.Generator,
                scale: float = 1.0) -> np.ndarray:
    """Uniform random configuration in a centered cube of side ``scale``."""
    X = (rng.random((node_count, dim)) - 0.5) * scale
    return X - X.mean(axis=0)


# pairs sampled by estimate_scale
_SCALE_SAMPLES = 512


def _usable_pairs(provider, cap: int, seed: int,
                  lane: str) -> ObservationBatch:
    """Unit-weight batch of a provider's usable pairs (finite, positive
    delta): every candidate pair when there are at most ``cap``, else a
    uniform draw of ``cap`` without replacement from substream (seed, lane).
    The candidates are an edge list's own pairs (``keys``), else all pairs.
    """
    n = provider.node_count
    keys = getattr(provider, "keys", None)
    total = n * (n - 1) // 2 if keys is None else len(keys)
    if total <= cap:
        a, b = np.triu_indices(n, k=1) if keys is None else np.divmod(keys, n)
    else:
        k = np.sort(substream(seed, lane).choice(total, cap, replace=False))
        a, b = _decode_pairs(k, n) if keys is None else \
            np.divmod(keys[k], n)
    delta = provider.pairs(a, b)
    keep = np.isfinite(delta) & (delta > 0)
    return ObservationBatch(a[keep], b[keep], delta[keep],
                            np.ones(int(keep.sum())))


def estimate_scale(provider, seed: int) -> float:
    """Largest dissimilarity over ``_SCALE_SAMPLES`` of the provider's
    usable pairs, used to size inits (1.0 when it has none)."""
    delta = _usable_pairs(provider, _SCALE_SAMPLES, seed, "init").delta
    return float(delta.max()) if len(delta) else 1.0


def _record(t, s, s_norm, mu, wall_ms, pairs):
    return {"t": int(t), "stress": float(s), "stress_norm": float(s_norm),
            "mu": float(mu), "wall_ms": float(wall_ms), "pairs": int(pairs)}


class _EvalSet:
    """The batch on which stress is evaluated: a run's fixed pair sample
    or a streamed slot's own batch."""

    def __init__(self, batch: ObservationBatch):
        self.batch = batch
        self.denom = batch.total_weighted_delta_sq()

    def __len__(self):
        return len(self.batch)

    def stress(self, X: np.ndarray):
        s = _stress(X, self.batch)
        return s, (s / self.denom if self.denom > 0 else 0.0)


def run_batch_smacof(batch: ObservationBatch, init: np.ndarray,
                     tol: float = 1e-6, max_iters: int = 500,
                     config_echo: dict | None = None,
                     seed: int = 0) -> RunTrace:
    """Iterate the batch majorization update until the relative stress
    decrease drops below ``tol`` or ``max_iters`` is reached.

    The batch is fixed for the whole run, so it is planned once
    (``stress_core._BatchPlan``): grouped into components, each component
    routed (closed form, dense Cholesky factor or CG) and factored, and
    work vectors allocated. Each iterate then gathers its edges, takes the
    stress of the new embedding from the same edge lengths that give the
    next iterate's B(X), and applies the cached solves.

    The recorded stress sequence is non-increasing up to solver round-off.
    A non-finite iterate stops the run with status ``diverged``; the final
    embedding is then the last finite one.
    """
    X = np.array(init, dtype=np.float64, copy=True)
    denom = batch.total_weighted_delta_sq()  # before the plan's buffers
    plan = _BatchPlan(batch, X.shape[0])

    def evaluate(X):
        s = plan.stress_at(X)
        return s, (s / denom if denom > 0 else 0.0)

    prev, prev_norm = evaluate(X)
    records = [_record(0, prev, prev_norm, 1.0, 0.0, len(batch))]
    status = "max_iters"
    for it in range(1, max_iters + 1):
        t0 = time.perf_counter()
        Xn = smacof_iterate(X, batch, plan)
        if not _all_finite(Xn):
            status = "diverged"
            break
        X = Xn
        cur, cur_norm = evaluate(X)
        wall = (time.perf_counter() - t0) * 1e3
        records.append(_record(it, cur, cur_norm, 1.0, wall, len(batch)))
        if (prev - cur) < tol * max(prev, 1e-300):
            status = "converged"
            break
        prev = cur
    return RunTrace(records, X, seed, status=status, config=config_echo,
                    evaluated_pairs=len(batch))


# a chunk's cost, nodes plus twice the pairs they measure (a pair takes
# about twice a node's working memory), stays within N // _CHUNK_DIVISOR, a
# fixed share of the embedding at any sampling density, or _CHUNK_FLOOR if
# larger, so a small slot (the 100-node reference run costs
# 4 x (25 + 2 x 105) = 940) is one chunk. At 8, an N = 40,000, p = 100,
# q = 50 slot is 16 chunks and peaks at about 2.65 embeddings, in a chunk's
# dense assembly and LU solve, with the embedding, the slot's rollback and
# its permutation
_CHUNK_DIVISOR = 8
_CHUNK_FLOOR = 1024


def _chunk_limit(node_count: int) -> int:
    return max(node_count // _CHUNK_DIVISOR, _CHUNK_FLOOR)


def _slot_plan(node_count: int, sampler: SamplerConfig) -> list:
    """The chunks of every sampled slot of a run over ``node_count`` nodes,
    as ``(span, sizes, counts)``: the chunk's slice of the slot's node
    permutation, its clusters' sizes and the pairs each measures (the
    request, clamped with one warning per size). A chunk is consecutive
    clusters within ``_chunk_limit``, or one larger cluster. A p above
    ``node_count`` raises ``ValueError``."""
    p = sampler.p
    sizes = _cluster_sizes(node_count, p)
    counts = [_pair_count(p, sampler.q, sampler.fraction)] * len(sizes)
    if sizes[-1] < p:
        counts[-1] = _pair_count(sizes[-1], sampler.q, sampler.fraction)
    # full clusters all cost the same, so every chunk but the last holds as
    # many of them; a remainder cluster joins the last chunk if it fits
    limit, full = _chunk_limit(node_count), node_count // p
    cost = p + 2 * counts[0]
    bounds = [*range(0, full, max(1, limit // cost)), full]
    if len(sizes) > full:
        if (full - bounds[-2]) * cost + sizes[-1] + 2 * counts[-1] > limit:
            bounds.append(full)
        bounds[-1] = full + 1
    # a remainder cluster ends the permutation; an idle node is left out
    return [(slice(c0 * p, c1 * p), sizes[c0:c1], counts[c0:c1])
            for c0, c1 in zip(bounds[:-1], bounds[1:])]


def _sample_chunk(provider, nodes: np.ndarray, sizes: list, counts: list,
                  sampler: SamplerConfig, rng: np.random.Generator,
                  noise_sigma: float, eps_w: float,
                  clamp: bool) -> ObservationBatch:
    """Sample consecutive clusters of ``nodes``, of the given ``sizes`` and
    pair ``counts``, as one batch whose ids index ``nodes``. Each cluster
    draws its pairs (as ``sampling._sample_local_pairs`` does), then their
    noise, from the slot's stream in cluster order, so the measurements
    never depend on the chunking; the chunk's pairs decode in one call."""
    ends = list(accumulate(counts))
    k = np.empty(ends[-1], dtype=np.int64)
    noise = np.empty(len(k)) if noise_sigma > 0 else None
    for size, lo, hi in zip(sizes, [0] + ends, ends):
        k[lo:hi] = rng.choice(size * (size - 1) // 2, hi - lo,
                              replace=False, shuffle=False)
        if noise is not None:
            rng.standard_normal(out=noise[lo:hi])
    m, n = _decode_pairs(
        k, sizes[0] if sizes[-1] == sizes[0] else np.repeat(sizes, counts))
    offsets = np.repeat(np.arange(0, len(nodes), sampler.p), counts)
    m += offsets
    n += offsets
    delta = provider.pairs(nodes[m], nodes[n])
    if noise is not None:
        delta = delta + noise_sigma * noise
    w = assign_weights(delta, sampler.scheme, eps_w=eps_w, clamp=clamp)
    return ObservationBatch(m, n, delta, w)


def _sampled_chunks(provider, perm: np.ndarray, plan: list,
                    sampler: SamplerConfig, rng: np.random.Generator,
                    noise_sigma: float, eps_w: float, clamp: bool):
    """The chunks ``(nodes, local batch)`` of a sampled slot: its node
    permutation cut by the run's ``_slot_plan``, each drawn when asked."""
    for span, sizes, counts in plan:
        nodes = perm[span]
        yield nodes, _sample_chunk(provider, nodes, sizes, counts, sampler,
                                   rng, noise_sigma, eps_w, clamp)


def _apply_slot(X: np.ndarray, chunks, cfg: StepConfig,
                mode: str) -> int | None:
    """Apply a slot's chunks ``(nodes, local batch)`` in place on X, each
    released before the next is drawn, and return their pairs, or None at
    the first chunk whose rows went non-finite. Chunks touch disjoint rows
    and read only their own, so this equals the per-cluster update."""
    pairs = 0
    for nodes, local in chunks:
        if mode == "sgd":
            X[nodes] = Xc = _sgd_step(X[nodes], local, cfg.mu)
            finite = _all_finite(Xc)
        else:
            finite = _damped_update(X, local, cfg, nodes)
        if not finite:
            return None
        pairs += len(local)
        del local
    return pairs


def _check_noise_sigma(noise_sigma: float) -> None:
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError(
            f"noise_sigma must be finite and nonnegative, got {noise_sigma}")


def run_stochastic(
    source,
    init: np.ndarray,
    schedule: MuSchedule,
    sampler: SamplerConfig | None,
    slots: int,
    *,
    step: StepConfig | None = None,
    noise_sigma: float = 0.0,
    mode: str = "stochastic",
    eval_pairs: int = 100_000,
    record_embeddings: bool = False,
    config_echo: dict | None = None,
) -> RunTrace:
    """Incremental embedding loop over random clusters.

    ``source`` is either a dissimilarity provider (sampled through
    ``sampler``; clean values, with optional measurement noise added per
    slot) or an iterable of pre-built ``ObservationBatch`` objects, in which
    case the sampler is unused and stress is evaluated on each slot's own
    batch. ``mode`` selects the update rule: ``stochastic`` (default; with
    p = 2 clusters it is SPE) or ``sgd`` (the divergence-prone baseline).
    The first record (t = 0) holds the evaluation of the initial
    configuration.

    The schedule gives each slot's mu in place of ``step.mu``; only
    ``eps_x`` and ``eps_w`` are read from ``step``. A bad streamed batch
    (checked once, by ``ObservationBatch.validate``), a non-finite
    ``init``, a negative or non-finite ``noise_sigma`` and a p above N
    (``_slot_plan``, made before the first slot) raise ``ValueError``.

    Every slot is the rows it may touch plus chunks ``(nodes, local
    batch)`` applied in place by ``_apply_slot``: a sampled slot's node
    permutation cut into chunks of clusters, each drawn, solved and
    released before the next; or a streamed batch as one chunk on its rows
    (``stress_core._on_touched_rows``; weights clamped up to ``eps_w``
    unless the mode is ``sgd``), at a cost linear in the batch, not in N.
    A chunk gone non-finite, or a blown-up ``sgd`` iterate, restores the
    rows saved before the slot's first chunk and stops the run
    ``diverged``: the final embedding is the last finite one.
    """
    step = step or StepConfig()
    if mode not in ("stochastic", "sgd"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_noise_sigma(noise_sigma)
    streaming = sampler is None
    if streaming:
        stream = iter(source)
        seed = 0
        evaluator = _EvalSet(ObservationBatch.empty())
    else:
        seed = sampler.seed
        plan = _slot_plan(len(init), sampler)
        evaluator = _EvalSet(_usable_pairs(source, eval_pairs, seed, "eval"))

    X = np.array(init, dtype=np.float64, copy=True)
    n = X.shape[0]
    if not _all_finite(X):
        raise ValueError("init must be finite")
    s0, sn0 = evaluator.stress(X)
    records = [_record(0, s0, sn0, 0.0, 0.0, 0)]
    embeds = [X.copy()] if record_embeddings else None
    status = "ok"
    if mode == "sgd":
        blowup = 1e6 * max(np.linalg.norm(X - X.mean(axis=0)), 1.0)

    for t in range(1, slots + 1):
        t0 = time.perf_counter()
        mu = schedule.mu_at(t - 1)
        if streaming:
            try:
                batch = next(stream).validate(n)
            except StopIteration:
                status = "truncated"
                break
            rows, local = _on_touched_rows(
                batch, None if mode == "sgd" else step.eps_w)
            chunks = [(rows, local)]
            evaluator = _EvalSet(replace(local, weight=batch.weight))
        else:
            rng = substream(seed, "partition", t)
            rows = _shuffled_nodes(n, rng)
            chunks = _sampled_chunks(source, rows, plan, sampler, rng,
                                     noise_sigma, step.eps_w,
                                     clamp=(mode != "sgd"))
        saved = X[rows]  # the slot's rollback
        pairs = _apply_slot(X, chunks, replace(step, mu=mu), mode)
        if pairs is None or (mode == "sgd" and
                             np.linalg.norm(X - X.mean(axis=0)) > blowup):
            X[rows] = saved
            status = "diverged"
            break
        del saved

        s, sn = evaluator.stress(X[rows] if streaming else X)
        wall = (time.perf_counter() - t0) * 1e3
        records.append(_record(t, s, sn, mu, wall, pairs))
        if record_embeddings:
            embeds.append(X.copy())

    return RunTrace(records, X, seed, status=status, config=config_echo,
                    embeddings=np.array(embeds) if embeds is not None else None,
                    evaluated_pairs=None if streaming else len(evaluator))


def run_averaged_oracle(
    source,
    init: np.ndarray,
    mu: float,
    slots: int,
    sampler: SamplerConfig | None = None,
    *,
    mode: str = "empirical",
    averaging_samples: int = 100,
    expected_deltas: np.ndarray | None = None,
    cluster_size: int | None = None,
    step: StepConfig | None = None,
    noise_sigma: float = 0.0,
    eval_pairs: int = 100_000,
    record_embeddings: bool = False,
    seed: int | None = None,
    config_echo: dict | None = None,
) -> RunTrace:
    """Deterministic companion recursion driven by expected update directions.

    ``empirical`` mode estimates the expected one-step map at the current
    configuration by averaging the incremental update over
    ``averaging_samples`` fresh measurement draws, each sampled and applied
    chunk by chunk by the slot kernel of ``run_stochastic``. ``closed_form``
    mode requires ``expected_deltas`` (an N x N matrix of mean
    dissimilarities) and a ``cluster_size`` that divides N, and applies the
    i.i.d.-weight expected update matrix directly; its recorded mean stress
    is non-increasing.
    Non-finite ``expected_deltas`` and, in ``empirical`` mode,
    ``averaging_samples`` < 1 raise ``ValueError``.

    The caller supplies an origin-centered ``init``; the recursion preserves
    the center. A non-finite iterate stops the run with status ``diverged``
    and keeps the last finite embedding.
    """
    step = step or StepConfig()
    if mode not in ("empirical", "closed_form"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_noise_sigma(noise_sigma)
    X = np.array(init, dtype=np.float64, copy=True)
    n = X.shape[0]

    if mode == "closed_form":
        if expected_deltas is None:
            raise ValueError("closed_form mode requires expected_deltas")
        if not np.all(np.isfinite(expected_deltas)):
            raise ValueError("expected_deltas must be finite for every pair")
        p = cluster_size
        if p is None:
            raise ValueError("closed_form mode requires a cluster size")
        _check_cluster_size(n, p)  # before the first slot, at any count
        ups = upsilon(n, p)
        provider = MatrixProvider(expected_deltas)
        if seed is None:
            seed = 0
    else:
        if sampler is None:
            raise ValueError("empirical mode requires a sampler")
        if averaging_samples < 1:
            raise ValueError(
                f"averaging_samples must be >= 1, got {averaging_samples}")
        provider = source
        plan = _slot_plan(n, sampler)
        if seed is None:
            seed = sampler.seed

    evaluator = _EvalSet(_usable_pairs(provider, eval_pairs, seed, "eval"))
    s0, sn0 = evaluator.stress(X)
    records = [_record(0, s0, sn0, 0.0, 0.0, 0)]
    embeds = [X.copy()] if record_embeddings else None
    status = "ok"

    for t in range(1, slots + 1):
        t0 = time.perf_counter()
        if mode == "closed_form":
            B = closed_form_b_average(X, expected_deltas, step.eps_x, p)
            Xn = averaged_step(X, B, mu, ups)
            pairs = 0
        else:
            acc = np.zeros_like(X)
            pairs = 0
            cfg = replace(step, mu=mu)
            for s_ix in range(averaging_samples):
                Xs = X.copy()
                rng = substream(seed, "oracle", t, s_ix)
                chunks = _sampled_chunks(provider, _shuffled_nodes(n, rng),
                                         plan, sampler, rng, noise_sigma,
                                         step.eps_w, clamp=True)
                # a sample stopped at a non-finite chunk (None) wrote it
                pairs += _apply_slot(Xs, chunks, cfg, "stochastic") or 0
                acc += Xs
            Xn = acc / averaging_samples
        if not _all_finite(Xn):
            status = "diverged"
            break
        X = Xn
        s, sn = evaluator.stress(X)
        wall = (time.perf_counter() - t0) * 1e3
        records.append(_record(t, s, sn, mu, wall, pairs))
        if record_embeddings:
            embeds.append(X.copy())

    return RunTrace(records, X, seed, status=status, config=config_echo,
                    embeddings=np.array(embeds) if embeds is not None else None,
                    evaluated_pairs=len(evaluator))


def hovering_deviation(embeds_a: np.ndarray, embeds_b: np.ndarray,
                       horizon: int) -> float:
    """Largest Frobenius deviation between two embedding sequences over
    slots 1..horizon. Both sequences must share shape and initial slot."""
    a = np.asarray(embeds_a)
    b = np.asarray(embeds_b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[1:] != b.shape[1:]:
        raise ValueError("trajectories have mismatched shapes")
    if not np.array_equal(a[0], b[0]):
        raise ValueError("trajectories do not share the initial configuration")
    if horizon < 1 or horizon > min(len(a), len(b)) - 1:
        raise ValueError("horizon exceeds trajectory length")
    devs = np.linalg.norm(
        (a[1:horizon + 1] - b[1:horizon + 1]).reshape(horizon, -1), axis=1)
    return float(devs.max())


def steady_state_stats(trace, window) -> tuple:
    """(min, mean, max) of stress over records with t inside ``window``.

    ``window`` is an inclusive (lo, hi) range of slot indices. ``trace`` may
    be a RunTrace or a list of record dicts.
    """
    records = trace.records if hasattr(trace, "records") else trace
    lo, hi = int(window[0]), int(window[1])
    vals = [r["stress"] for r in records if lo <= r["t"] <= hi]
    if not vals:
        raise ValueError(f"window [{lo}, {hi}] selects no trace records")
    arr = np.array(vals)
    return float(arr.min()), float(arr.mean()), float(arr.max())
