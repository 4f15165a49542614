"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 benchmark/spread.py --workload ref100 --seeds 1-10 --seconds 15

Runs ``benchmark/run.py`` once per seed, one run at a time, and prints per
metric the median, the quartiles (``statistics.quantiles(values, n=4)``),
the spread (quartile distance over median) and, from BENCHMARK.json, the
metric's bound. ``--out FILE`` merges the figures into FILE under
``spread``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / abs(med) if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                         "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound} ({share / bound:.2f} of it)"
        print(f"{name:<40} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {share:.4f}{flag}")
    print(f"all correct: {all(r['correct'] for r in runs)}")

    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc.setdefault("spread", {})[args.workload] = {
            "seeds": args.seeds, "seconds": args.seconds, "metrics": summary}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
