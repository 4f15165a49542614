"""Command-line surface: embed, localize, oracle, stats, bench.

Configuration comes from an optional JSON file plus flag overrides (flags
win). Unknown config keys are rejected, and every value is checked for the
type its flag has and for its range. Every randomized behavior derives
from the single --seed, and the effective config is echoed into the trace
header so runs can be reproduced bit-for-bit. ``--threads`` (config key
``threads``) is accepted for config compatibility and has no effect.

Exit codes: 0 success, 2 usage, 3 config validation, 4 input/data error,
5 execution failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import data_io
from .data_io import write_embedding
from .embedder import (
    MuSchedule,
    estimate_scale,
    hovering_deviation,
    random_init,
    run_averaged_oracle,
    run_batch_smacof,
    run_stochastic,
    steady_state_stats,
)
from .localization import MobilityConfig, ProtocolConfig, run_localization
from .observations import StepConfig
from .rng import substream
from .sampling import SamplerConfig

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_INPUT = 4
EXIT_RUNTIME = 5


class ConfigError(Exception):
    pass


EMBED_DEFAULTS = {
    "mode": "stochastic",
    "input": None,
    "input_kind": "edges",
    "metric": "euclidean",
    "n": None,
    "dim": 2,
    "seed": 0,
    "threads": 1,
    "mu": 0.1,
    "schedule": None,
    "eps_x": 1e-8,
    "eps_w": 1e-3,
    "p": 10,
    "q": None,
    "fraction": None,
    "scheme": "unity",
    "slots": 1000,
    "iters": 500,
    "tol": 1e-6,
    "noise_sigma": 0.0,
    "eval_pairs": 100_000,
    "init_scale": None,
    "out": None,
    "trace": None,
    "record_embeddings": False,
    "embeddings_out": None,
}

LOCALIZE_DEFAULTS = {
    "n": 50,
    "anchors": 5,
    "alpha": 0.9,
    "sigma_v": 0.01,
    "noise_sigma": 0.1,
    "mu": 0.5,
    "rounds": 700,
    "seed": 0,
    "threads": 1,
    "align_every": 10,
    "mean_cluster_size": 11,
    "min_neighbors": 5,
    "max_members": 10,
    "timeout_prob": 0.0,
    "eps_x": 1e-8,
    "eps_w": 1e-3,
    "competitor_every": None,
    "trace": None,
    "snapshots": None,
}

ORACLE_DEFAULTS = {
    "input": None,
    "input_kind": "edges",
    "metric": "euclidean",
    "n": None,
    "dim": 2,
    "seed": 0,
    "mode": "empirical",
    "mu": 0.1,
    "slots": 100,
    "samples": 100,
    "p": 10,
    "q": None,
    "fraction": None,
    "scheme": "unity",
    "eps_x": 1e-8,
    "eps_w": 1e-3,
    "noise_sigma": 0.0,
    "eval_pairs": 100_000,
    "init_scale": None,
    "out": None,
    "trace": None,
    "record_embeddings": False,
    "embeddings_out": None,
}

BENCH_DEFAULTS = {
    "sizes": [10_000, 20_000, 40_000],
    "p": 100,
    "q": 50,
    "slots": 3,
    "dim": 2,
    "seed": 0,
    "threads": 1,
    "out": None,
}

_RANGES = {
    "mu": (0.0, 1.0),
    "eps_x": (0.0, float("inf")),
    "eps_w": (1e-300, 1.0),
    "fraction": (1e-300, 1.0),
    "alpha": (0.0, 1.0),
    "sigma_v": (0.0, float("inf")),
    "noise_sigma": (0.0, float("inf")),
    "timeout_prob": (0.0, 1.0),
    "tol": (0.0, float("inf")),
    "dim": (1, float("inf")),
    "samples": (1, float("inf")),
    "eval_pairs": (0, float("inf")),
    "slots": (0, float("inf")),
    "iters": (0, float("inf")),
    # a localize run reports its last round, so it needs one
    "rounds": (1, float("inf")),
    "mean_cluster_size": (1, float("inf")),
    "max_members": (1, float("inf")),
    "min_neighbors": (0, float("inf")),
}


# config-file values must have the types argparse gives the flags
_COUNTS = {"n", "dim", "seed", "threads", "p", "q", "slots", "iters",
           "samples", "eval_pairs", "anchors", "rounds", "align_every",
           "competitor_every", "min_neighbors", "max_members"}
_REALS = {"mu", "eps_x", "eps_w", "fraction", "tol", "noise_sigma",
          "init_scale", "alpha", "sigma_v", "timeout_prob",
          "mean_cluster_size"}

# batch mode materializes all N(N-1)/2 pairs and the closed-form oracle an
# N x N matrix plus N x N x P temporaries per slot: memory grows as N^2
MATERIALIZE_MAX_NODES = 3000


def _check_type(key: str, val, default) -> None:
    if val is None:
        if default is not None:
            raise ConfigError(f"config field '{key}' must not be null")
    elif key in _COUNTS and (isinstance(val, bool)
                             or not isinstance(val, int)):
        raise ConfigError(f"config field '{key}'={val!r} must be an integer")
    elif key in _REALS and (isinstance(val, bool)
                            or not isinstance(val, (int, float))):
        raise ConfigError(f"config field '{key}'={val!r} must be a number")


def load_config(defaults: dict, path: str | None, overrides: dict) -> dict:
    """Merge defaults, config file, and flag overrides (strict keys), then
    check each value's type and range."""
    cfg = dict(defaults)
    if path:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in config file: {exc}") from None
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        cfg.update(file_cfg)
    for key, val in overrides.items():
        if val is not None:
            if key not in defaults:
                raise ConfigError(f"unknown config key: {key}")
            cfg[key] = val
    for key, val in cfg.items():
        _check_type(key, val, defaults[key])
    for key, (lo, hi) in _RANGES.items():
        if key in cfg and cfg[key] is not None:
            v = cfg[key]
            if not lo <= v <= hi:
                raise ConfigError(f"config field '{key}'={v} outside [{lo}, {hi}]")
    return cfg


def _load_provider(cfg: dict):
    kind = cfg["input_kind"]
    path = cfg["input"]
    if path is None:
        raise ConfigError("an input file is required")
    if kind == "edges":
        batch = data_io.parse_edge_list(path, node_count=cfg["n"])
        n = cfg["n"] or (int(max(batch.m.max(), batch.n.max())) + 1 if len(batch) else 0)
        return data_io.EdgeListProvider(batch, n), batch, n
    if kind == "matrix":
        prov = data_io.open_dense_matrix(path)
        return prov, None, prov.node_count
    if kind == "vectors":
        _, feats = data_io.load_vectors(path)
        prov = data_io.FeatureProvider(feats, metric=cfg["metric"])
        return prov, None, prov.node_count
    if kind == "coords":
        _, feats = data_io.load_vectors(path)
        prov = data_io.FeatureProvider(feats, metric="euclidean")
        return prov, None, prov.node_count
    if kind == "fingerprints":
        _, bits = data_io.load_fingerprints(path)
        prov = data_io.FingerprintProvider(bits)
        return prov, None, prov.node_count
    raise ConfigError(f"unknown input kind {kind!r}")


def _check_materializable(what: str, n: int) -> None:
    if n > MATERIALIZE_MAX_NODES:
        raise ConfigError(
            f"{what} materializes all pairs; use a sampled mode for "
            f"N={n} > {MATERIALIZE_MAX_NODES}")


def _full_batch(provider, n: int):
    """Materialize all pairs from a provider (small-N batch mode only)."""
    _check_materializable("batch mode", n)
    iu, ju = np.triu_indices(n, k=1)
    delta = provider.pairs(iu, ju)
    keep = np.isfinite(delta) & (delta > 0)
    from .observations import ObservationBatch

    return ObservationBatch(iu[keep], ju[keep], delta[keep],
                            np.ones(int(keep.sum())))


def _sampler_from_config(cfg: dict) -> SamplerConfig:
    q = cfg["q"]
    fraction = cfg["fraction"] if q is None else None
    if q is None and fraction is None:
        fraction = 1.0  # documented default: all intra-cluster pairs
    try:
        return SamplerConfig(p=cfg["p"], q=q, fraction=fraction,
                             scheme=cfg["scheme"], seed=cfg["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _schedule_from_config(cfg: dict) -> MuSchedule:
    spec = cfg.get("schedule")
    if spec is None:
        return MuSchedule.constant(cfg["mu"])
    try:
        kind = spec["kind"]
        if kind == "constant":
            return MuSchedule.constant(spec["value"])
        if kind == "piecewise":
            return MuSchedule.piecewise(spec["breakpoints"], spec["values"])
        if kind == "reciprocal":
            return MuSchedule.reciprocal(spec["c"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid schedule spec: {exc}") from None
    raise ConfigError(f"unknown schedule kind {spec.get('kind')!r}")


def _init_embedding(cfg, provider, batch, n):
    scale = cfg["init_scale"]
    if scale is None:
        if provider is not None:
            scale = estimate_scale(provider, cfg["seed"])
        elif batch is not None and len(batch):
            scale = float(batch.delta.max())
        else:
            scale = 1.0
    return random_init(n, cfg["dim"], substream(cfg["seed"], "init"), scale)


def cmd_embed(args) -> int:
    cfg = load_config(EMBED_DEFAULTS, args.config, _overrides(args, EMBED_DEFAULTS))
    if cfg["mode"] not in ("batch", "stochastic", "spe", "sgd"):
        raise ConfigError(f"unknown embed mode {cfg['mode']!r}")
    provider, batch, n = _load_provider(cfg)
    if n < 2:
        raise ConfigError("need at least 2 nodes")
    init = _init_embedding(cfg, provider, batch, n)
    step = StepConfig(mu=cfg["mu"], eps_x=cfg["eps_x"], eps_w=cfg["eps_w"])

    if cfg["mode"] == "batch":
        if batch is None:
            batch = _full_batch(provider, n)
        trace = run_batch_smacof(batch, init, tol=cfg["tol"],
                                 max_iters=cfg["iters"], config_echo=cfg,
                                 seed=cfg["seed"])
    else:
        sampler = _sampler_from_config(cfg)
        trace = run_stochastic(
            provider, init, _schedule_from_config(cfg), sampler,
            cfg["slots"], step=step, noise_sigma=cfg["noise_sigma"],
            mode=cfg["mode"], eval_pairs=cfg["eval_pairs"],
            record_embeddings=cfg["record_embeddings"], config_echo=cfg)
    return _finish("embed", trace, cfg)


def _finish(command: str, trace, cfg) -> int:
    """Write a run's outputs and report it; exit 5 if it diverged."""
    if cfg.get("out"):
        write_embedding(trace.final, cfg["out"])
    if cfg.get("trace"):
        trace.write_jsonl(cfg["trace"])
    if cfg.get("embeddings_out") and trace.embeddings is not None:
        np.save(cfg["embeddings_out"], trace.embeddings)
    print(f"{command}: status={trace.status} slots={len(trace.records) - 1} "
          f"final_stress={trace.records[-1]['stress']:.6g}")
    if trace.status == "diverged":
        print("error: the run diverged (non-finite or unbounded iterate)",
              file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_localize(args) -> int:
    cfg = load_config(LOCALIZE_DEFAULTS, args.config,
                      _overrides(args, LOCALIZE_DEFAULTS))
    mobility = MobilityConfig(alpha=cfg["alpha"], sigma_v=cfg["sigma_v"])
    protocol = ProtocolConfig(
        mu=cfg["mu"], mean_cluster_size=cfg["mean_cluster_size"],
        min_neighbors=cfg["min_neighbors"], max_members=cfg["max_members"],
        noise_sigma=cfg["noise_sigma"], timeout_prob=cfg["timeout_prob"],
        eps_x=cfg["eps_x"], eps_w=cfg["eps_w"])
    result = run_localization(
        cfg["n"], cfg["rounds"], cfg["seed"], mobility, protocol,
        anchor_count=cfg["anchors"], align_every=cfg["align_every"],
        competitor_every=cfg["competitor_every"],
        record_positions=bool(cfg["snapshots"]), config_echo=cfg)
    if cfg["trace"]:
        with open(cfg["trace"], "w") as fh:
            fh.write(json.dumps({"config": cfg, "seed": cfg["seed"]},
                                sort_keys=True) + "\n")
            for rec in result["records"]:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    if cfg["snapshots"]:
        est = result["estimates"]
        tru = result["truth"]
        with open(cfg["snapshots"], "w") as fh:
            fh.write("t,node,est_x,est_y,true_x,true_y\n")
            for t in range(len(est)):
                for node in range(est.shape[1]):
                    row = (float(est[t, node, 0]), float(est[t, node, 1]),
                           float(tru[t, node, 0]), float(tru[t, node, 1]))
                    fh.write(f"{t + 1},{node}," +
                             ",".join(repr(v) for v in row) + "\n")
    last = result["records"][-1]
    print(f"localize: rounds={cfg['rounds']} final_e_loc={last['e_loc']:.6g}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = load_config(ORACLE_DEFAULTS, args.config,
                      _overrides(args, ORACLE_DEFAULTS))
    if cfg["mode"] not in ("empirical", "closed_form"):
        raise ConfigError(f"unknown oracle mode {cfg['mode']!r}")
    provider, batch, n = _load_provider(cfg)
    if cfg["mode"] == "closed_form":
        _check_materializable("the closed-form oracle", n)
    init = _init_embedding(cfg, provider, batch, n)
    step = StepConfig(mu=cfg["mu"], eps_x=cfg["eps_x"], eps_w=cfg["eps_w"])
    if cfg["mode"] == "closed_form":
        iu, ju = np.triu_indices(n, k=1)
        deltas = np.zeros((n, n))
        vals = provider.pairs(iu, ju)
        deltas[iu, ju] = vals
        deltas[ju, iu] = vals
        trace = run_averaged_oracle(
            provider, init, cfg["mu"], cfg["slots"], mode="closed_form",
            expected_deltas=deltas, cluster_size=cfg["p"], step=step,
            eval_pairs=cfg["eval_pairs"], seed=cfg["seed"],
            record_embeddings=cfg["record_embeddings"], config_echo=cfg)
    else:
        sampler = _sampler_from_config(cfg)
        trace = run_averaged_oracle(
            provider, init, cfg["mu"], cfg["slots"], sampler,
            mode="empirical", averaging_samples=cfg["samples"], step=step,
            noise_sigma=cfg["noise_sigma"], eval_pairs=cfg["eval_pairs"],
            record_embeddings=cfg["record_embeddings"], config_echo=cfg)
    return _finish("oracle", trace, cfg)


def cmd_stats(args) -> int:
    if args.hovering:
        a = np.load(args.hovering[0])
        b = np.load(args.hovering[1])
        horizon = args.horizon or min(len(a), len(b)) - 1
        dev = hovering_deviation(a, b, horizon)
        print(json.dumps({"hovering_deviation": dev, "horizon": horizon}))
        return EXIT_OK
    if not args.trace_file:
        raise ConfigError("stats requires --trace-file or --hovering")
    records = []
    with open(args.trace_file) as fh:
        for line in fh:
            rec = json.loads(line)
            if "t" in rec and "stress" in rec:
                records.append(rec)
    if not records:
        raise ValueError(f"{args.trace_file} has no stress records")
    if args.window:
        lo, hi = (int(v) for v in args.window.split(":"))
    else:
        lo, hi = records[0]["t"], records[-1]["t"]
    eta_min, eta_mean, eta_max = steady_state_stats(records, (lo, hi))
    print(json.dumps({"eta_min": eta_min, "eta_mean": eta_mean,
                      "eta_max": eta_max, "window": [lo, hi]}))
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = load_config(BENCH_DEFAULTS, args.config, _overrides(args, BENCH_DEFAULTS))
    sizes = cfg["sizes"]
    if isinstance(sizes, str):
        sizes = [int(s) for s in sizes.split(",")]
    rows = bench_scaling(sizes, cfg["p"], cfg["q"], cfg["slots"],
                         cfg["dim"], cfg["seed"], cfg["threads"])
    print(f"{'N':>10} {'p':>6} {'q':>6} {'ms/slot':>12} {'factor':>8} "
          f"{'peak_MiB':>10}")
    for row in rows:
        print(f"{row['n']:>10} {row['p']:>6} {row['q']:>6} "
              f"{row['ms_per_slot']:>12.2f} {row['factor']:>8.2f} "
              f"{row['peak_mib']:>10.2f}")
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
    return EXIT_OK


def bench_scaling(sizes, p, q, slots, dim, seed, threads=1):
    """Per-slot wall time and peak working memory across problem sizes.

    Uses an on-demand synthetic provider (planar points, Euclidean
    dissimilarities) so no N x N structure ever exists. Each size gets one
    untimed warm-up slot, then ``ms_per_slot`` is the fastest of three timed
    runs of ``slots`` slots. ``threads`` is accepted for config compatibility
    and has no effect: the library runs single-threaded.
    """
    import tracemalloc

    from .data_io import FeatureProvider

    rows = []
    prev_ms = None
    for n in sizes:
        rng = substream(seed, "init", n)
        coords = rng.random((n, 2)) * np.sqrt(n)
        provider = FeatureProvider(coords, metric="euclidean")
        sampler = SamplerConfig(p=p, q=q, seed=seed)
        init = random_init(n, dim, substream(seed, "init", n, 1),
                           float(np.sqrt(n)))
        baseline = init.nbytes

        def run(slot_count):
            return run_stochastic(provider, init, MuSchedule.constant(0.1),
                                  sampler, slot_count, eval_pairs=0)

        # warm-up, timing passes (untraced), then a short traced pass for
        # peak memory
        run(1)
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            trace = run(slots)
            elapsed.append((time.perf_counter() - t0) * 1e3)

        tracemalloc.start()
        run(1)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        ms = min(elapsed) / max(slots, 1)
        factor = ms / prev_ms if prev_ms else 1.0
        prev_ms = ms
        rows.append({
            "n": int(n), "p": int(p), "q": int(q),
            "ms_per_slot": float(ms), "factor": float(factor),
            "peak_mib": float(peak / 2**20),
            "peak_over_embedding": float(peak / baseline),
            "status": trace.status,
        })
    return rows


def _overrides(args, defaults: dict) -> dict:
    out = {}
    for key in defaults:
        flag = key.replace("-", "_")
        if hasattr(args, flag):
            out[key] = getattr(args, flag)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochmds",
        description="Incremental stress-minimization embedding engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--threads", type=int,
                        help="accepted for config compatibility; no effect")

    pe = sub.add_parser("embed", help="embed a dissimilarity dataset")
    common(pe)
    pe.add_argument("--mode", choices=["batch", "stochastic", "spe", "sgd"])
    pe.add_argument("--input")
    pe.add_argument("--input-kind", dest="input_kind",
                    choices=["edges", "matrix", "vectors", "coords",
                             "fingerprints"])
    pe.add_argument("--metric", choices=["euclidean", "cosine"])
    pe.add_argument("--n", type=int)
    pe.add_argument("--dim", type=int)
    pe.add_argument("--mu", type=float)
    pe.add_argument("--eps-x", dest="eps_x", type=float)
    pe.add_argument("--eps-w", dest="eps_w", type=float)
    pe.add_argument("--p", type=int)
    pe.add_argument("--q", type=int)
    pe.add_argument("--fraction", type=float)
    pe.add_argument("--scheme", choices=["unity", "sammon"])
    pe.add_argument("--slots", type=int)
    pe.add_argument("--iters", type=int)
    pe.add_argument("--tol", type=float)
    pe.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    pe.add_argument("--eval-pairs", dest="eval_pairs", type=int)
    pe.add_argument("--init-scale", dest="init_scale", type=float)
    pe.add_argument("--out")
    pe.add_argument("--trace")
    pe.add_argument("--record-embeddings", dest="record_embeddings",
                    action="store_const", const=True)
    pe.add_argument("--embeddings-out", dest="embeddings_out")
    pe.set_defaults(func=cmd_embed)

    pl = sub.add_parser("localize", help="mobile-network localization simulator")
    common(pl)
    pl.add_argument("--n", type=int)
    pl.add_argument("--anchors", type=int)
    pl.add_argument("--alpha", type=float)
    pl.add_argument("--sigma-v", dest="sigma_v", type=float)
    pl.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    pl.add_argument("--mu", type=float)
    pl.add_argument("--rounds", type=int)
    pl.add_argument("--align-every", dest="align_every", type=int)
    pl.add_argument("--timeout-prob", dest="timeout_prob", type=float)
    pl.add_argument("--competitor-every", dest="competitor_every", type=int)
    pl.add_argument("--trace")
    pl.add_argument("--snapshots")
    pl.set_defaults(func=cmd_localize)

    po = sub.add_parser("oracle", help="averaged companion recursion")
    common(po)
    po.add_argument("--mode", choices=["empirical", "closed_form"])
    po.add_argument("--input")
    po.add_argument("--input-kind", dest="input_kind",
                    choices=["edges", "matrix", "vectors", "coords",
                             "fingerprints"])
    po.add_argument("--n", type=int)
    po.add_argument("--dim", type=int)
    po.add_argument("--mu", type=float)
    po.add_argument("--slots", type=int)
    po.add_argument("--samples", type=int)
    po.add_argument("--p", type=int)
    po.add_argument("--q", type=int)
    po.add_argument("--fraction", type=float)
    po.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    po.add_argument("--out")
    po.add_argument("--trace")
    po.add_argument("--record-embeddings", dest="record_embeddings",
                    action="store_const", const=True)
    po.add_argument("--embeddings-out", dest="embeddings_out")
    po.set_defaults(func=cmd_oracle)

    ps = sub.add_parser("stats", help="steady-state and deviation metrics")
    ps.add_argument("--trace-file", dest="trace_file")
    ps.add_argument("--window", help="inclusive slot range lo:hi")
    ps.add_argument("--hovering", nargs=2,
                    metavar=("A.npy", "B.npy"),
                    help="two recorded embedding sequences")
    ps.add_argument("--horizon", type=int)
    ps.set_defaults(func=cmd_stats)

    pb = sub.add_parser("bench", help="per-slot scaling sweep")
    common(pb)
    pb.add_argument("--sizes", help="comma-separated node counts")
    pb.add_argument("--p", type=int)
    pb.add_argument("--q", type=int)
    pb.add_argument("--slots", type=int)
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
