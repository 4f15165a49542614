"""Command-line surface: embed, localize, oracle, stats, bench.

Configuration comes from an optional JSON file plus flag overrides (flags
win). ``CONFIG_KEYS`` gives every config key its type and its range or
allowed strings: the typed flags are built from it, unknown keys are
rejected, and every merged value is checked against it. Every randomized
behavior derives from the single --seed, and the effective config is echoed
into the trace header so runs can be reproduced bit-for-bit. SPE, the
paper's p = 2 case, is ``embed --mode stochastic --p 2``.

Exit codes: 0 success, 2 usage, 3 config validation, 4 input/data error,
5 execution failure.
"""

from __future__ import annotations

import argparse
import json
import math
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
    _usable_pairs,
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


EMBED_MODES = ("batch", "stochastic", "sgd")
ORACLE_MODES = ("empirical", "closed_form")

_INF = float("inf")

# Every config key once: its type, then either its inclusive range or its
# allowed strings (None leaves the value open). Reals must also be finite.
# The typed flags are built from the same entries.
CONFIG_KEYS = {
    "mode": (str, None),  # allowed modes depend on the command
    "input": (str, None),
    "input_kind": (str, ("edges", "matrix", "vectors", "fingerprints")),
    "metric": (str, ("euclidean", "cosine")),
    "scheme": (str, ("unity", "sammon")),
    "out": (str, None),
    "trace": (str, None),
    "snapshots": (str, None),
    "embeddings_out": (str, None),
    "schedule": (dict, None),
    "sizes": (list, None),  # node counts
    "n": (int, (2, _INF)),
    "seed": (int, None),
    "p": (int, (2, _INF)),
    "q": (int, (1, _INF)),
    "anchors": (int, (0, _INF)),
    "dim": (int, (1, _INF)),
    "samples": (int, (1, _INF)),
    "eval_pairs": (int, (0, _INF)),
    "slots": (int, (0, _INF)),
    "iters": (int, (0, _INF)),
    # a localize run reports its last round, so it needs one
    "rounds": (int, (1, _INF)),
    "max_members": (int, (1, _INF)),
    "min_neighbors": (int, (0, _INF)),
    # cadences in rounds; 0 turns them off
    "align_every": (int, (0, _INF)),
    "competitor_every": (int, (0, _INF)),
    "mu": (float, (0.0, 1.0)),
    "eps_x": (float, (0.0, _INF)),
    "eps_w": (float, (1e-300, 1.0)),
    "fraction": (float, (1e-300, 1.0)),
    "tol": (float, (0.0, _INF)),
    "noise_sigma": (float, (0.0, _INF)),
    "init_scale": (float, (1e-300, _INF)),
    "alpha": (float, (0.0, 1.0)),
    "sigma_v": (float, (0.0, _INF)),
    "timeout_prob": (float, (0.0, 1.0)),
    "mean_cluster_size": (float, (1.0, _INF)),
}

_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               dict: "an object", list: "a list of integers"}

# keys and defaults that embed and oracle share
_SAMPLED_DEFAULTS = {
    "input": None,
    "input_kind": "edges",
    "metric": "euclidean",
    "n": None,
    "dim": 2,
    "seed": 0,
    "mu": 0.1,
    "eps_x": 1e-8,
    "eps_w": 1e-3,
    "p": 10,
    "q": None,
    "fraction": None,
    "scheme": "unity",
    "noise_sigma": 0.0,
    "eval_pairs": 100_000,
    "init_scale": None,
    "out": None,
    "trace": None,
    "embeddings_out": None,
}

EMBED_DEFAULTS = {**_SAMPLED_DEFAULTS, "mode": "stochastic", "schedule": None,
                  "slots": 1000, "iters": 500, "tol": 1e-6}

ORACLE_DEFAULTS = {**_SAMPLED_DEFAULTS, "mode": "empirical", "slots": 100,
                   "samples": 100}

LOCALIZE_DEFAULTS = {
    "n": 50,
    "anchors": 5,
    "alpha": 0.9,
    "sigma_v": 0.01,
    "noise_sigma": 0.1,
    "mu": 0.5,
    "rounds": 700,
    "seed": 0,
    "align_every": 10,
    "mean_cluster_size": 11,
    "min_neighbors": 5,
    "max_members": 10,
    "timeout_prob": 0.0,
    "eps_x": 1e-8,
    "competitor_every": None,
    "trace": None,
    "snapshots": None,
}

BENCH_DEFAULTS = {
    "sizes": [10_000, 20_000, 40_000],
    "p": 100,
    "q": 50,
    "slots": 3,
    "dim": 2,
    "seed": 0,
    "out": None,
}

# batch mode materializes all N(N-1)/2 pairs and the closed-form oracle an
# N x N matrix plus N x N x P temporaries per slot: memory grows as N^2
MATERIALIZE_MAX_NODES = 3000


def _has_type(val, kind) -> bool:
    if kind is list:
        return isinstance(val, list) and all(_has_type(v, int) for v in val)
    if isinstance(val, bool):
        return False
    if kind is float:
        return isinstance(val, int) or (isinstance(val, float)
                                        and math.isfinite(val))
    return isinstance(val, kind)


def _check_value(key: str, val, nullable: bool) -> None:
    """Reject a value whose type, range or string ``CONFIG_KEYS`` does not
    allow for ``key``."""
    if val is None:
        if not nullable:
            raise ConfigError(f"config field '{key}' must not be null")
        return
    kind, limits = CONFIG_KEYS[key]
    if not _has_type(val, kind):
        raise ConfigError(
            f"config field '{key}'={val!r} must be {_TYPE_NAMES[kind]}")
    if limits is None:
        return
    if kind is str:
        if val not in limits:
            raise ConfigError(f"config field '{key}'={val!r} must be one of "
                              f"{', '.join(limits)}")
        return
    lo, hi = limits
    if not lo <= val <= hi:
        raise ConfigError(f"config field '{key}'={val} outside [{lo}, {hi}]")


def load_config(defaults: dict, path: str | None, overrides: dict) -> dict:
    """Merge defaults, config file, and flag overrides (strict keys), then
    check every value against ``CONFIG_KEYS``."""
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
        _check_value(key, val, nullable=defaults[key] is None)
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
    _, bits = data_io.load_fingerprints(path)  # fingerprints
    prov = data_io.FingerprintProvider(bits)
    return prov, None, prov.node_count


def _check_materializable(what: str, n: int) -> None:
    if n > MATERIALIZE_MAX_NODES:
        raise ConfigError(
            f"{what} materializes all pairs; use a sampled mode for "
            f"N={n} > {MATERIALIZE_MAX_NODES}")


def _sampler_from_config(cfg: dict) -> SamplerConfig:
    q, fraction = cfg["q"], cfg["fraction"]
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
        try:
            return MuSchedule.constant(cfg["mu"])
        except ValueError as exc:
            raise ConfigError(f"config field 'mu': {exc}") from None
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


def _init_embedding(cfg, provider, n):
    scale = cfg["init_scale"]
    if scale is None:
        scale = estimate_scale(provider, cfg["seed"])
    return random_init(n, cfg["dim"], substream(cfg["seed"], "init"), scale)


def cmd_embed(args) -> int:
    cfg = load_config(EMBED_DEFAULTS, args.config, _overrides(args, EMBED_DEFAULTS))
    if cfg["mode"] not in EMBED_MODES:
        raise ConfigError(f"unknown embed mode {cfg['mode']!r}")
    if cfg["mode"] == "batch" and cfg["embeddings_out"]:
        raise ConfigError("config field 'embeddings_out' needs a sampled "
                          "mode: batch mode records no embedding sequence")
    provider, batch, n = _load_provider(cfg)
    if n < 2:
        raise ConfigError("need at least 2 nodes")
    init = _init_embedding(cfg, provider, n)
    step = StepConfig(mu=cfg["mu"], eps_x=cfg["eps_x"], eps_w=cfg["eps_w"])

    if cfg["mode"] == "batch":
        if batch is None:
            _check_materializable("batch mode", n)
            batch = _usable_pairs(provider, n * (n - 1) // 2, cfg["seed"],
                                  "eval")
        trace = run_batch_smacof(batch, init, tol=cfg["tol"],
                                 max_iters=cfg["iters"], config_echo=cfg,
                                 seed=cfg["seed"])
    else:
        sampler = _sampler_from_config(cfg)
        trace = run_stochastic(
            provider, init, _schedule_from_config(cfg), sampler,
            cfg["slots"], step=step, noise_sigma=cfg["noise_sigma"],
            mode=cfg["mode"], eval_pairs=cfg["eval_pairs"],
            record_embeddings=bool(cfg["embeddings_out"]), config_echo=cfg)
    return _finish("embed", trace, cfg)


def _finish(command: str, trace, cfg) -> int:
    """Write a run's outputs and report it; exit 5 if it diverged."""
    if cfg.get("out"):
        write_embedding(trace.final, cfg["out"])
    if cfg.get("trace"):
        trace.write_jsonl(cfg["trace"])
    if cfg.get("embeddings_out"):
        np.save(cfg["embeddings_out"], trace.embeddings)
    print(f"{command}: status={trace.status} slots={len(trace.records) - 1} "
          f"final_stress={trace.records[-1]['stress']:.6g}")
    return _diverged() if trace.status == "diverged" else EXIT_OK


def _diverged() -> int:
    print("error: the run diverged (non-finite or unbounded iterate)",
          file=sys.stderr)
    return EXIT_RUNTIME


def cmd_localize(args) -> int:
    cfg = load_config(LOCALIZE_DEFAULTS, args.config,
                      _overrides(args, LOCALIZE_DEFAULTS))
    mobility = MobilityConfig(alpha=cfg["alpha"], sigma_v=cfg["sigma_v"])
    protocol = ProtocolConfig(
        mu=cfg["mu"], mean_cluster_size=cfg["mean_cluster_size"],
        min_neighbors=cfg["min_neighbors"], max_members=cfg["max_members"],
        noise_sigma=cfg["noise_sigma"], timeout_prob=cfg["timeout_prob"],
        eps_x=cfg["eps_x"])
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
    return EXIT_OK if np.isfinite(last["e_loc"]) else _diverged()


def cmd_oracle(args) -> int:
    cfg = load_config(ORACLE_DEFAULTS, args.config,
                      _overrides(args, ORACLE_DEFAULTS))
    if cfg["mode"] not in ORACLE_MODES:
        raise ConfigError(f"unknown oracle mode {cfg['mode']!r}")
    provider, batch, n = _load_provider(cfg)
    if cfg["mode"] == "closed_form":
        _check_materializable("the closed-form oracle", n)
    init = _init_embedding(cfg, provider, n)
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
            record_embeddings=bool(cfg["embeddings_out"]), config_echo=cfg)
    else:
        sampler = _sampler_from_config(cfg)
        trace = run_averaged_oracle(
            provider, init, cfg["mu"], cfg["slots"], sampler,
            mode="empirical", averaging_samples=cfg["samples"], step=step,
            noise_sigma=cfg["noise_sigma"], eval_pairs=cfg["eval_pairs"],
            record_embeddings=bool(cfg["embeddings_out"]), config_echo=cfg)
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
    lo, hi = args.window or (records[0]["t"], records[-1]["t"])
    eta_min, eta_mean, eta_max = steady_state_stats(records, (lo, hi))
    print(json.dumps({"eta_min": eta_min, "eta_mean": eta_mean,
                      "eta_max": eta_max, "window": [lo, hi]}))
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = load_config(BENCH_DEFAULTS, args.config, _overrides(args, BENCH_DEFAULTS))
    rows = bench_scaling(cfg["sizes"], cfg["p"], cfg["q"], cfg["slots"],
                         cfg["dim"], cfg["seed"])
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


def bench_scaling(sizes, p, q, slots, dim, seed):
    """Per-slot wall time and peak working memory across problem sizes.

    Uses an on-demand synthetic provider (planar points, Euclidean
    dissimilarities) so no N x N structure ever exists. Each size gets one
    untimed warm-up slot, then ``ms_per_slot`` is the fastest of three timed
    runs of ``slots`` slots.
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
    return {key: getattr(args, key) for key in defaults if hasattr(args, key)}


def _node_counts(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _slot_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an inclusive slot range lo:hi, got {text!r}") from None
    return lo, hi


def _horizon(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return int(text)


_FLAG_HELP = {"sizes": "comma-separated node counts"}


def _add_flags(sp, keys, modes=()) -> None:
    """``--config`` plus one flag per config key, typed by ``CONFIG_KEYS``;
    ``--mode`` takes the command's ``modes``."""
    sp.add_argument("--config", help="JSON config file")
    for key in ("seed", *keys):
        kind, limits = CONFIG_KEYS[key]
        flag = "--" + key.replace("_", "-")
        if kind is str:
            sp.add_argument(flag, choices=modes if key == "mode" else limits)
        else:
            sp.add_argument(flag, type=_node_counts if kind is list else kind,
                            help=_FLAG_HELP.get(key))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochmds",
        description="Incremental stress-minimization embedding engine")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("embed", help="embed a dissimilarity dataset")
    _add_flags(pe, ("mode", "input", "input_kind", "metric", "n", "dim", "mu",
                    "eps_x", "eps_w", "p", "q", "fraction", "scheme", "slots",
                    "iters", "tol", "noise_sigma", "eval_pairs", "init_scale",
                    "out", "trace", "embeddings_out"),
               EMBED_MODES)
    pe.set_defaults(func=cmd_embed)

    pl = sub.add_parser("localize", help="mobile-network localization simulator")
    _add_flags(pl, ("n", "anchors", "alpha", "sigma_v", "noise_sigma", "mu",
                    "rounds", "align_every", "timeout_prob",
                    "competitor_every", "trace", "snapshots"))
    pl.set_defaults(func=cmd_localize)

    po = sub.add_parser("oracle", help="averaged companion recursion")
    _add_flags(po, ("mode", "input", "input_kind", "n", "dim", "mu", "slots",
                    "samples", "p", "q", "fraction", "noise_sigma", "out",
                    "trace", "embeddings_out"),
               ORACLE_MODES)
    po.set_defaults(func=cmd_oracle)

    ps = sub.add_parser("stats", help="steady-state and deviation metrics")
    ps.add_argument("--trace-file", dest="trace_file")
    ps.add_argument("--window", type=_slot_window,
                    help="inclusive slot range lo:hi")
    ps.add_argument("--hovering", nargs=2,
                    metavar=("A.npy", "B.npy"),
                    help="two recorded embedding sequences")
    ps.add_argument("--horizon", type=_horizon)
    ps.set_defaults(func=cmd_stats)

    pb = sub.add_parser("bench", help="per-slot scaling sweep")
    _add_flags(pb, ("sizes", "p", "q", "slots", "out"))
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
