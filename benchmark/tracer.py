"""Spans and counters recorded from outside the library.

A ``Tracer`` replaces selected module attributes of ``stochmds`` (functions
and methods that one layer calls in another) with wrappers that time each
call. Spans nest: a span's self time is its duration minus the time of the
spans opened inside it, and each span knows the span that caused it, which
is how a CG solve that falls back to the dense solver is told apart from a
plain dense solve. Spans are aggregated in memory per name (calls, total
and self seconds), so tracing a long run costs no memory.

Only ``installed()`` changes the library, and it restores every attribute
on exit, so untraced and traced episodes can alternate in one process.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from contextlib import contextmanager

import calibration
from stochmds import data_io, embedder, graph_linalg, localization, sampling, \
    stress_core

# per-cluster warnings of the library, turned into counters:
# (counter name, message pattern, group holding the count or None for 1)
WARNING_COUNTERS = (
    ("sampling.q_clamped", re.compile(r"requested q=\d+ clamped"), None),
    ("sampling.resample_giveups",
     re.compile(r"could not draw a connecting edge set"), None),
    ("observations.weights_clamped",
     re.compile(r"(\d+) weight\(s\) below eps_w"), 1),
    ("data_io.duplicate_pairs", re.compile(r"(\d+) duplicate pair\(s\)"), 1),
)


def count_warnings(caught, counts: Counter) -> None:
    """Add warnings recorded by ``warnings.catch_warnings(record=True)``."""
    for w in caught:
        text = str(w.message)
        for name, pattern, group in WARNING_COUNTERS:
            match = pattern.search(text)
            if match:
                counts[name] += int(match.group(group)) if group else 1
                break
        else:
            counts["warnings.other"] += 1


def warning_summary(counts: Counter, traced: bool) -> str:
    names = [name for name, _, _ in WARNING_COUNTERS]
    parts = [f"{n.split('.', 1)[1]}={counts[n]}" for n in names]
    if traced:
        parts.append(f"cg_dense_fallbacks={counts['graph_linalg.cg_dense_fallbacks']}")
    parts.append(f"other={counts['warnings.other']}")
    return "warnings: " + " ".join(parts)


def dense_solve_cost(p: int, k: int):
    """Computed flops and bytes of an LU solve of a p x p system with k
    right-hand sides (matrix, right-hand sides and solution moved once)."""
    return 2 * p**3 // 3 + 2 * p * p * k, 8 * (p * p + 2 * p * k)


def cg_iteration_cost(nodes: int, edges: int):
    """Computed flops and bytes of one preconditioned CG iteration on a
    Laplacian with ``edges`` unordered pairs: a CSR matvec over
    2*edges + nodes entries (8-byte value, 4-byte index), the rank-one
    shift, the diagonal preconditioner, two dot products and three axpys."""
    stored = 2 * edges + nodes
    return 2 * stored + 13 * nodes, 12 * stored + 80 * nodes


class Tracer:
    """Aggregated spans and event counters for one traced run."""

    def __init__(self):
        self.spans: dict = {}          # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list = []         # open spans: [name, child_s]
        self._patches: list = []
        self._cg_iters_open = 0

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total_ms(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1] * 1e3

    def self_ms(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2] * 1e3

    def snapshot(self):
        """Copy of the counts and span call counts at this point."""
        calls = Counter({name: s[0] for name, s in self.spans.items()})
        return Counter(self.counts), calls

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                span = tracer.spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += 1
                span[1] += dt
                span[2] += dt - frame[1]
            if after is not None:
                after(args, result, parent)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _counting_cg(self, original):
        """scipy's ``cg`` with an iteration-counting callback added."""
        tracer = self

        def cg(A, b, *args, callback=None, **kwargs):
            def count(xk):
                tracer.counts["graph_linalg.cg_iters"] += 1
                tracer._cg_iters_open += 1
                if callback is not None:
                    callback(xk)
            return original(A, b, *args, callback=count, **kwargs)

        return cg

    @contextmanager
    def installed(self):
        """Patch the library for the duration of the block."""
        c = self.counts
        gl, sc, emb, loc = graph_linalg, stress_core, embedder, localization

        def after_fetch(args, result, parent):
            c["data_io.returned"] += len(result)
            c["data_io.usable"] += int(((result > 0) & (result < float("inf"))).sum())

        def after_dense(args, result, parent):
            lap, rhs = args[0], args[1]
            flops, nbytes = dense_solve_cost(lap.size, rhs.shape[1])
            c["graph_linalg.dense_flops"] += flops
            c["graph_linalg.dense_bytes"] += nbytes
            if parent == "graph_linalg.cg":
                c["graph_linalg.cg_dense_fallbacks"] += 1

        def after_cg(args, result, parent):
            flops, nbytes = cg_iteration_cost(args[0].size, args[0].nnz)
            c["graph_linalg.cg_flops"] += flops * self._cg_iters_open
            c["graph_linalg.cg_bytes"] += nbytes * self._cg_iters_open
            self._cg_iters_open = 0

        def after_groups(args, result, parent):
            c["stress_core.components"] += len(result)

        def after_stacked(args, result, parent):
            Xn, groups, size = args[0], args[1], args[2]
            flops, nbytes = dense_solve_cost(size, Xn.shape[1])
            c["stress_core.stacked_components"] += len(groups)
            c["stress_core.stacked_flops"] += flops * len(groups)
            c["stress_core.stacked_bytes"] += nbytes * len(groups)

        def after_eval_setup(args, result, parent):
            c["embedder.eval_pairs"] += len(args[0])

        def after_ingest(args, result, parent):
            c["data_io.ingest_lines"] += len(result)

        def after_round(args, result, parent):
            log = result[2]
            c["localization.heads"] += log.solicitations
            c["localization.clusters_completed"] += log.clusters_completed
            c["localization.messages"] += log.messages

        def after_competitor(args, result, parent):
            c["localization.competitor_iters"] += len(result.records) - 1

        plan = (
            (emb, "substream", "rng.substream", None),
            (loc, "substream", "rng.substream", None),
            (emb, "partition_nodes", "sampling.partition", None),
            (emb, "_sample_local_pairs", "sampling.draw", None),
            (sampling, "_sample_local_pairs", "sampling.draw", None),
            (data_io.FeatureProvider, "pairs", "data_io.fetch", after_fetch),
            (data_io.EdgeListProvider, "pairs", "data_io.fetch", after_fetch),
            (data_io, "parse_edge_list", "data_io.ingest", after_ingest),
            (sc, "_component_labels", "graph_linalg.label", None),
            (gl, "_component_labels", "graph_linalg.label", None),
            (gl, "_cs_components", "graph_linalg.label_csgraph", None),
            (sc, "_solve_dense", "graph_linalg.dense", after_dense),
            (gl, "_solve_dense", "graph_linalg.dense", after_dense),
            (sc, "_solve_cg", "graph_linalg.cg", after_cg),
            (gl, "_solve_cg", "graph_linalg.cg", after_cg),
            (sc, "_component_edge_groups", "stress_core.group", after_groups),
            (sc, "_stacked_step", "stress_core.stacked", after_stacked),
            (sc, "_solve_component", "stress_core.generic", None),
            (emb, "stochastic_step", "stress_core.step", None),
            (loc, "stochastic_step", "stress_core.step", None),
            (emb, "smacof_iterate", "stress_core.smacof", None),
            (emb, "run_stochastic", "embedder.run", None),
            (emb, "run_batch_smacof", "embedder.run", None),
            (emb, "stress", "embedder.eval", None),
            (emb._EvalSet, "stress", "embedder.eval", None),
            (emb._EvalSet, "__init__", "embedder.eval_setup", after_eval_setup),
            (loc, "protocol_round", "localization.round", after_round),
            (loc, "step_mobility", "localization.mobility", None),
            (loc, "measure_distances", "localization.measure", None),
            (loc, "anchor_align", "localization.align", None),
            (loc, "run_batch_smacof", "localization.competitor",
             after_competitor),
            # readings taken inside a library loop are not the loop's time
            (calibration.Calibration, "measure", "benchmark.calibration", None),
        )
        try:
            if hasattr(gl, "_cg"):
                self._patches.append((gl, "_cg", gl._cg))
                gl._cg = self._counting_cg(gl._cg)
            for owner, attr, name, after in plan:
                if hasattr(owner, attr):
                    self._wrap(owner, attr, name, after)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)
