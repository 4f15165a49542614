"""Benchmark of stochmds: four workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 benchmark/run.py --workload ref100 --seed 1 --seconds 15 --trace 0

``--workload`` is one of ref100, stream40k, localize200, batch600, or
``all`` to run the four in turn. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
episodes on the same inputs and reports the per-layer metrics and the
tracing overhead. Every run checks the library's outputs. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--out FILE`` also merges the full record,
with the machine description, into FILE. See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# metric name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "unit_ms_p50": "ms",
    "unit_ms_tail": "ms",
    "pairs_per_s": "1/s",
    "time_to_target_s": "s",
    "stress_norm_end": "1",
    "peak_mem_ratio": "1",
}


def machine_record() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _episode(wl, e, cal, tracer=None):
    """One episode with the library's warnings recorded, not printed."""
    from calibration import UnitClock

    clock = UnitClock(cal, wl.tick_every, wl.speed_exponent)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is None:
            ep = wl.episode(e, clock)
        else:
            with tracer.installed():
                ep = wl.episode(e, clock)
    return ep, caught


def run_workload(cls, seed: int, seconds: float, traced: bool) -> dict:
    # the benchmark's modules import numpy and stochmds, so they load only
    # after main() has pinned BLAS and put src/ on the path
    from collections import Counter

    from calibration import Calibration
    from tracer import Tracer, count_warnings, warning_summary
    from workloads import median, percentile, scratch_dir

    setup_warnings, warn_counts = Counter(), Counter()
    cal = Calibration()
    with scratch_dir(ROOT) as tmp:
        wl = cls(seed, tmp)
        setup_tracer = Tracer() if traced else None
        setups, raw_setups = [], []
        before = cal.measure()
        for _ in range(wl.setup_reps):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if traced:
                    with setup_tracer.installed():
                        raw_setups.append(wl.setup_once())
                else:
                    raw_setups.append(wl.setup_once())
            count_warnings(caught, setup_warnings)
            after = cal.measure()
            setups.append(raw_setups[-1] * cal.scale(before, after,
                                                     wl.speed_exponent))
            before = after
        mem = None if traced else wl.memory_ratio()

        tracer = Tracer() if traced else None
        plain, with_spans, exact = [], [], None
        start = time.perf_counter()
        e = 0
        while e < wl.quality_episodes or \
                time.perf_counter() - start < seconds:
            ep, caught = _episode(wl, e, cal)
            count_warnings(caught, warn_counts)
            plain.append(ep)
            if traced:
                tep, caught = _episode(wl, e, cal, tracer)
                count_warnings(caught, tracer.counts)
                tracer.counts["data_io.lookups"] += tep.extra.get("lookups", 0)
                if tep.digest != ep.digest:
                    tep.checks.append("traced outputs differ from untraced")
                    tep.failed = len(tep.unit_ms)
                with_spans.append(tep)
                if e + 1 == wl.quality_episodes:
                    exact = tracer.snapshot()
            e += 1
        measured = time.perf_counter() - start

    episodes = plain + with_spans
    attempted = sum(len(ep.unit_ms) for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    raw_units = [ms for ep in plain for ms in ep.raw_ms]
    units = [ms for ep in plain for ms in ep.unit_ms]
    quality = plain[:wl.quality_episodes]
    result = {
        "workload": wl.name, "unit": wl.unit, "seed": seed,
        "trace": int(traced), "episodes": len(plain),
        "units": len(units), "measured_s": measured,
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "checks": sorted({c for ep in episodes for c in ep.checks}),
        "tail_pct": wl.tail_pct,
        "calibration_ms": median(cal.readings),
    }
    if traced:
        counts, calls = exact
        counts.update(setup_warnings)
        t_units = [ms for ep in with_spans for ms in ep.raw_ms]
        result["metrics"] = layer_metrics(
            tracer, counts, calls, len(t_units), setup_tracer,
            overhead=median(t_units) - median(raw_units))
        result["warnings"] = warning_summary(counts, traced=True)
    else:
        values = {
            "setup_s": median(setups),
            "unit_ms_p50": median(units),
            "unit_ms_tail": median([percentile(ep.unit_ms, wl.tail_pct)
                                    for ep in plain]),
            "pairs_per_s": median([ep.pairs / sum(ep.unit_ms) * 1e3
                                   for ep in plain]),
            "time_to_target_s": time_to_target_s(plain),
            "stress_norm_end": median([ep.quality for ep in quality]),
            "peak_mem_ratio": mem,
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]}
                             for k, v in values.items()}
        result["raw"] = {
            "setup_s": median(raw_setups),
            "unit_ms_p50": median(raw_units),
            "unit_ms_tail": median([percentile(ep.raw_ms, wl.tail_pct)
                                    for ep in plain]),
            "pairs_per_s": median([ep.pairs / sum(ep.raw_ms) * 1e3
                                   for ep in plain]),
        }
        result["quality"] = {
            k: median([ep.extra[k] for ep in quality])
            for k in ("e_loc_window_max", "e_loc_batch_window_max")
            if k in quality[0].extra}
        result["warnings"] = warning_summary(setup_warnings + warn_counts,
                                             traced=False)
    return result


def time_to_target_s(episodes) -> float:
    """Median over solves of the time to the target: the solve's first unit
    at its own time, which carries any one-off cost of the solve, and the
    remaining units at the median time of all the run's later solve units,
    so that a stall of the machine inside the few units before the target
    does not set it."""
    from workloads import median

    rest = median([ms for ep in episodes for ms in ep.solve_ms])
    return median([units * first if units <= 1 else first + (units - 1) * rest
                   for ep in episodes for first, units in ep.to_target]) / 1e3


# per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "rng.substream_calls": "count",
    "rng.substream_ms": "ms/unit",
    "sampling.partition_ms": "ms/unit",
    "sampling.draw_ms": "ms/unit",
    "sampling.draws": "count",
    "sampling.q_clamped": "count",
    "sampling.resample_giveups": "count",
    "data_io.lookups": "count",
    "data_io.fetch_ms": "ms/unit",
    "data_io.usable_ratio": "ratio",
    "data_io.ingest_ms": "ms",
    "data_io.ingest_lines": "count",
    "data_io.duplicate_pairs": "count",
    "observations.weights_clamped": "count",
    "graph_linalg.label_calls": "count",
    "graph_linalg.label_ms": "ms/unit",
    "graph_linalg.label_csgraph_fallbacks": "count",
    "graph_linalg.dense_solves": "count",
    "graph_linalg.dense_solve_ms": "ms/unit",
    "graph_linalg.dense_flops": "count",
    "graph_linalg.dense_bytes": "count",
    "graph_linalg.cg_solves": "count",
    "graph_linalg.cg_ms": "ms/unit",
    "graph_linalg.cg_iters": "count",
    "graph_linalg.cg_flops": "count",
    "graph_linalg.cg_bytes": "count",
    "graph_linalg.cg_dense_fallbacks": "count",
    "stress_core.step_calls": "count",
    "stress_core.step_ms": "ms/unit",
    "stress_core.step_self_ms": "ms/unit",
    "stress_core.components": "count",
    "stress_core.stacked_calls": "count",
    "stress_core.stacked_ms": "ms/unit",
    "stress_core.stacked_components": "count",
    "stress_core.stacked_flops": "count",
    "stress_core.stacked_bytes": "count",
    "stress_core.generic_components": "count",
    "stress_core.smacof_iters": "count",
    "stress_core.smacof_ms": "ms/unit",
    "embedder.eval_ms": "ms/unit",
    "embedder.loop_self_ms": "ms/unit",
    "embedder.eval_pairs": "count",
    "embedder.eval_setup_ms": "ms",
    "localization.round_ms": "ms/unit",
    "localization.round_self_ms": "ms/unit",
    "localization.measure_ms": "ms/unit",
    "localization.align_ms": "ms/unit",
    "localization.mobility_ms": "ms/unit",
    "localization.competitor_ms": "ms/unit",
    "localization.competitor_iters": "count",
    "localization.heads": "count",
    "localization.clusters_completed": "count",
    "localization.completion_ratio": "ratio",
    "localization.messages": "count",
    "trace.overhead_ms": "ms/unit",
}


def layer_metrics(tracer, counts, calls, units, setup_tracer, overhead):
    """Per-layer figures: times per unit over every traced episode, counts
    over the first ``quality_episodes`` traced episodes (which repeat
    exactly for a seed), set-up spans per call."""

    def per_unit(span):
        return tracer.total_ms(span) / units

    def self_per_unit(span):
        return tracer.self_ms(span) / units

    def per_call(span):
        n = setup_tracer.calls(span)
        return setup_tracer.total_ms(span) / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "rng.substream_calls": calls["rng.substream"],
        "rng.substream_ms": per_unit("rng.substream"),
        "sampling.partition_ms": per_unit("sampling.partition"),
        "sampling.draw_ms": per_unit("sampling.draw"),
        "sampling.draws": calls["sampling.draw"],
        "sampling.q_clamped": counts["sampling.q_clamped"],
        "sampling.resample_giveups": counts["sampling.resample_giveups"],
        "data_io.lookups": counts["data_io.lookups"],
        "data_io.fetch_ms": per_unit("data_io.fetch"),
        "data_io.usable_ratio": ratio(counts["data_io.usable"],
                                      counts["data_io.returned"]),
        "data_io.ingest_ms": per_call("data_io.ingest"),
        "data_io.ingest_lines": ratio(setup_tracer.counts["data_io.ingest_lines"],
                                      setup_tracer.calls("data_io.ingest")),
        "data_io.duplicate_pairs": counts["data_io.duplicate_pairs"],
        "observations.weights_clamped": counts["observations.weights_clamped"],
        "graph_linalg.label_calls": calls["graph_linalg.label"],
        "graph_linalg.label_ms": per_unit("graph_linalg.label"),
        "graph_linalg.label_csgraph_fallbacks": calls["graph_linalg.label_csgraph"],
        "graph_linalg.dense_solves": calls["graph_linalg.dense"],
        "graph_linalg.dense_solve_ms": per_unit("graph_linalg.dense"),
        "graph_linalg.dense_flops": counts["graph_linalg.dense_flops"],
        "graph_linalg.dense_bytes": counts["graph_linalg.dense_bytes"],
        "graph_linalg.cg_solves": calls["graph_linalg.cg"],
        "graph_linalg.cg_ms": per_unit("graph_linalg.cg"),
        "graph_linalg.cg_iters": counts["graph_linalg.cg_iters"],
        "graph_linalg.cg_flops": counts["graph_linalg.cg_flops"],
        "graph_linalg.cg_bytes": counts["graph_linalg.cg_bytes"],
        "graph_linalg.cg_dense_fallbacks": counts["graph_linalg.cg_dense_fallbacks"],
        "stress_core.step_calls": calls["stress_core.step"],
        "stress_core.step_ms": per_unit("stress_core.step"),
        "stress_core.step_self_ms": self_per_unit("stress_core.step"),
        "stress_core.components": counts["stress_core.components"],
        "stress_core.stacked_calls": calls["stress_core.stacked"],
        "stress_core.stacked_ms": per_unit("stress_core.stacked"),
        "stress_core.stacked_components": counts["stress_core.stacked_components"],
        "stress_core.stacked_flops": counts["stress_core.stacked_flops"],
        "stress_core.stacked_bytes": counts["stress_core.stacked_bytes"],
        "stress_core.generic_components": calls["stress_core.generic"],
        "stress_core.smacof_iters": calls["stress_core.smacof"],
        "stress_core.smacof_ms": per_unit("stress_core.smacof"),
        "embedder.eval_ms": per_unit("embedder.eval"),
        "embedder.loop_self_ms": self_per_unit("embedder.run"),
        "embedder.eval_pairs": ratio(counts["embedder.eval_pairs"],
                                     calls["embedder.eval_setup"]),
        "embedder.eval_setup_ms": per_call("embedder.eval_setup"),
        "localization.round_ms": per_unit("localization.round"),
        "localization.round_self_ms": self_per_unit("localization.round"),
        "localization.measure_ms": per_unit("localization.measure"),
        "localization.align_ms": per_unit("localization.align"),
        "localization.mobility_ms": per_unit("localization.mobility"),
        "localization.competitor_ms": per_unit("localization.competitor"),
        "localization.competitor_iters": counts["localization.competitor_iters"],
        "localization.heads": counts["localization.heads"],
        "localization.clusters_completed": counts["localization.clusters_completed"],
        "localization.completion_ratio": ratio(
            counts["localization.clusters_completed"], counts["localization.heads"]),
        "localization.messages": counts["localization.messages"],
        "trace.overhead_ms": overhead,
    }
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def report(result: dict) -> None:
    """Human-readable lines, then the JSON line."""
    print(f"workload {result['workload']}: seed {result['seed']}, "
          f"trace {result['trace']}, {result['units']} {result['unit']}s in "
          f"{result['episodes']} episodes, measured {result['measured_s']:.1f} s, "
          f"calibration kernel {result['calibration_ms']:.3f} ms")
    raw = result.get("raw", {})
    for name, m in result["metrics"].items():
        note = f"  (raw {raw[name]:.6g})" if name in raw else ""
        if name == "unit_ms_tail":
            note += (f"  (median over {result['episodes']} episodes of each "
                     f"episode's p{result['tail_pct']:g})")
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}{note}")
    for name, value in result.get("quality", {}).items():
        print(f"  {name:<40} {value:.6g} 1")
    print(f"  {'failed_share':<40} {result['failed_share']:.6g} 1  "
          f"({result['failed']} of {result['attempted']} units)")
    for check in result["checks"]:
        print(f"  check failed: {check}")
    print(result["warnings"])
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), flush=True)


def merge_out(path: str, machine: dict, result: dict) -> None:
    doc = {"machine": machine, "results": {}}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
        doc["machine"] = machine
    key = f"trace{result['trace']}"
    doc["results"].setdefault(result["workload"], {})[key] = result
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ref100", "stream40k", "localize200",
                                 "batch600", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="merge the full record into this JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # a terminated run still removes its temporary files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isdir(os.path.join(ROOT, "src", "stochmds")):
        print(f"benchmark: no library sources under {ROOT}/src", file=sys.stderr)
        return 2
    # pin BLAS to one thread before numpy loads: the per-cluster solves are
    # too small to share, and one thread leaves the second core of a
    # 2-core machine to everything else
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from workloads import WORKLOADS

    machine = machine_record()
    print("machine: " + json.dumps(machine, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace))
        report(result)
        if args.out:
            merge_out(args.out, machine, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
