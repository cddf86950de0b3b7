"""Perf-regression harness: calibrated engine and sweep throughput.

The engine hot path (:func:`repro.core.engine.run_local`) and the sweep
runner (:func:`repro.analysis.experiments.run_sweep`) carry every
quantitative experiment in this repository, so their throughput gets a
tracked trajectory: :func:`run_perf_suite` measures a small set of
metrics, normalizes them against a per-machine calibration loop, and
:func:`compare_to_baseline` checks a run against the committed
``benchmarks/BENCH_baseline.json`` within a tolerance.  ``repro bench``
is the CLI front end; the perf-smoke CI job runs it warn-only.

Workloads:

- **sleep-heavy engine micro-benchmark** — a class-sweep algorithm in
  the style of the Δ⁵⁵ phase algorithms: vertex class c wakes exactly
  once, at round c, and halts.  Almost every vertex is asleep in every
  round, which is the regime the paper's shattering analysis predicts;
  the O(n)-per-round reference engine rescans everyone while the
  production engine's wake buckets touch only the awake class.
- **sweep macro-benchmark** — a scaled-down E3 separation sweep
  (randomized tree coloring over a size grid × seeds), timed serially
  and through the ``workers=N`` process pool.

Normalization: raw throughput is divided by the machine's calibration
score (a fixed pure-Python spin loop), making committed baselines
comparable across hosts to first order.  Ratios (speedups) need no
normalization.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from .experiments import run_sweep
from ..core.algorithm import Inbox, SyncAlgorithm
from ..core.atomicio import atomic_write_text
from ..core.context import Model, NodeContext
from ..core.engine import run_local, run_local_reference

#: Schema version stamped into baseline files.
BASELINE_VERSION = 1

#: Default relative slack for `repro bench --compare` (35%): perf-smoke
#: should flag real cliffs, not CI noise.
DEFAULT_TOLERANCE = 0.35

#: Spin-loop size for one calibration sample.
_CALIBRATION_OPS = 200_000


class ClassSweepSleeper(SyncAlgorithm):
    """Sleep-heavy synthetic workload: class c steps once, at round c.

    Node input:
        ``klass``: this vertex's wake round (0 .. classes-1).

    Every vertex publishes a token during setup, sleeps until its class
    round, counts its neighbors' tokens and halts — so each vertex does
    O(1) work while the run spans ``classes`` rounds.  With n vertices
    and k classes only n/k vertices are awake per round, mirroring the
    paper's phase algorithms (Δ⁵⁵ peeling, class-by-class reductions).
    """

    name = "class-sweep-sleeper"

    def setup(self, ctx: NodeContext) -> None:
        ctx.publish(("token", ctx.input["klass"]))
        ctx.sleep_until(ctx.input["klass"])

    def step(self, ctx: NodeContext, inbox: Inbox) -> None:
        ctx.halt(sum(1 for msg in inbox if msg is not None))


def calibrate_ops_per_sec(samples: int = 3) -> float:
    """Machine speed proxy: fixed spin-loop iterations per second.

    Best of ``samples`` runs, so transient scheduler noise lowers the
    score (and with it every normalized metric) as little as possible.
    """
    best = 0.0
    for _ in range(samples):
        start = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_OPS):
            acc += i & 7
        elapsed = time.perf_counter() - start
        best = max(best, _CALIBRATION_OPS / elapsed)
    return best


def _time_best(fn: Callable[[], Any], repeats: int = 2) -> float:
    """Shortest wall-clock of ``repeats`` calls to ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sleepheavy_inputs(n: int, classes: int) -> List[Dict[str, Any]]:
    return [{"klass": v % classes} for v in range(n)]


def engine_sleepheavy_metrics(
    n: int = 10_000,
    classes: int = 400,
    include_reference: bool = True,
    repeats: int = 2,
) -> Dict[str, float]:
    """Rounds/sec of the production engine on the sleep-heavy workload,
    plus its speedup over :func:`run_local_reference`."""
    from ..graphs.generators import cycle_graph

    graph = cycle_graph(n)
    inputs = _sleepheavy_inputs(n, classes)

    def fast() -> None:
        result = run_local(
            graph,
            ClassSweepSleeper(),
            Model.DET,
            node_inputs=inputs,
        )
        assert result.rounds == classes

    fast_seconds = _time_best(fast, repeats)
    metrics = {
        "n": float(n),
        "rounds": float(classes),
        "fast_seconds": fast_seconds,
        "rounds_per_sec": classes / fast_seconds,
    }
    if include_reference:
        def reference() -> None:
            run_local_reference(
                graph,
                ClassSweepSleeper(),
                Model.DET,
                node_inputs=inputs,
            )

        ref_seconds = _time_best(reference, repeats)
        metrics["reference_seconds"] = ref_seconds
        metrics["speedup_vs_reference"] = ref_seconds / fast_seconds
    return metrics


def tracing_overhead_metrics(
    n: int = 10_000,
    classes: int = 400,
    repeats: int = 2,
) -> Dict[str, float]:
    """Cost of observation: the sleep-heavy workload bare, with a
    :class:`~repro.obs.MetricsObserver`, and with a
    :class:`~repro.obs.JsonlTraceObserver` streaming to the null
    device.  The overhead *ratios* (traced time / bare time) are
    recorded, not gated — the acceptance bar is that the bare run,
    whose hot loop carries only a ``hub is not None`` test, does not
    regress.
    """
    import os as _os

    from ..graphs.generators import cycle_graph
    from ..obs import JsonlTraceObserver, MetricsObserver

    graph = cycle_graph(n)
    inputs = _sleepheavy_inputs(n, classes)

    def run(observers: Any) -> None:
        run_local(
            graph,
            ClassSweepSleeper(),
            Model.DET,
            node_inputs=inputs,
            observers=observers,
        )

    bare_seconds = _time_best(lambda: run(None), repeats)
    metrics_seconds = _time_best(
        lambda: run([MetricsObserver()]), repeats
    )
    devnull = open(_os.devnull, "w", encoding="utf-8")
    try:
        def traced() -> None:
            run([JsonlTraceObserver(devnull, topology=False)])

        traced_seconds = _time_best(traced, repeats)
    finally:
        devnull.close()
    return {
        "n": float(n),
        "rounds": float(classes),
        "bare_seconds": bare_seconds,
        "metrics_seconds": metrics_seconds,
        "traced_seconds": traced_seconds,
        "metrics_overhead_ratio": metrics_seconds / bare_seconds,
        "tracing_overhead_ratio": traced_seconds / bare_seconds,
        "traced_rounds_per_sec": classes / traced_seconds,
    }


def _color_bidding_workload(n: int, delta: int, seed: int):
    """Graph + run_local kwargs of the E5-style ColorBidding workload
    (Theorem 10 Phase 1) every backend is timed on."""
    import random

    from ..algorithms.rand_tree_coloring import (
        ColorBiddingAlgorithm,
        ColorBiddingConfig,
        reserved_colors,
    )
    from ..graphs.generators import random_tree_bounded_degree

    graph = random_tree_bounded_degree(
        n, delta, random.Random(1000 * seed + n)
    )
    kwargs = {
        "seed": seed,
        "global_params": {
            "config": ColorBiddingConfig(),
            "main_palette": delta - reserved_colors(delta),
        },
    }
    return graph, ColorBiddingAlgorithm(), kwargs


def backend_engine_metrics(
    n: int = 20_000,
    delta: int = 9,
    seed: int = 0,
    repeats: int = 2,
) -> Dict[str, Dict[str, float]]:
    """Per-backend timing of the ColorBidding workload.

    One sub-dict per *available* backend: wall seconds, rounds·nodes/sec
    throughput, and speedup over the fast engine.  Asserts the backend
    contract en passant — every backend must produce the fast engine's
    exact outputs on this workload.
    """
    from ..core.backend import available_backend_names, use_backend

    graph, algorithm, kwargs = _color_bidding_workload(n, delta, seed)
    results: Dict[str, Any] = {}
    timings: Dict[str, Dict[str, float]] = {}
    for name in available_backend_names():
        def run() -> None:
            with use_backend(name):
                results[name] = run_local(
                    graph, algorithm, Model.RAND, **kwargs
                )

        seconds = _time_best(run, repeats)
        timings[name] = {
            "n": float(n),
            "seconds": seconds,
            "rounds_nodes_per_sec": results[name].rounds * n / seconds,
        }
    fast = results["fast"]
    for name, result in results.items():
        if result.outputs != fast.outputs or result.rounds != fast.rounds:
            raise AssertionError(
                f"backend {name!r} diverged from the fast engine on "
                "the ColorBidding workload — the bit-identity "
                "contract is broken"
            )
        timings[name]["speedup_vs_fast"] = (
            timings["fast"]["seconds"] / timings[name]["seconds"]
        )
    return timings


def traced_backend_metrics(
    n: int = 20_000,
    delta: int = 9,
    seed: int = 0,
    repeats: int = 2,
) -> Dict[str, Dict[str, float]]:
    """Per-backend timing of the ColorBidding workload **observed**:
    a :class:`~repro.obs.MetricsObserver` plus a
    :class:`~repro.obs.JsonlTraceObserver` streaming to the null device
    are attached for every timed run.

    This is the plane-1 scale contract made a number: since the
    vectorized backend feeds observers its round batches natively (no
    per-node fallback), its traced throughput must stay
    vectorized-class, not collapse to the fast engine's.  Asserts en passant that every
    backend's metrics summary is identical — the byte-identity contract
    with observers attached.
    """
    import os as _os

    from ..core.backend import available_backend_names, use_backend
    from ..obs import JsonlTraceObserver, MetricsObserver

    graph, algorithm, kwargs = _color_bidding_workload(n, delta, seed)
    timings: Dict[str, Dict[str, float]] = {}
    summaries: Dict[str, Any] = {}
    rounds: Dict[str, int] = {}
    devnull = open(_os.devnull, "w", encoding="utf-8")
    try:
        for name in available_backend_names():
            def traced() -> None:
                metrics = MetricsObserver()
                trace = JsonlTraceObserver(devnull, topology=False)
                with use_backend(name):
                    result = run_local(
                        graph,
                        algorithm,
                        Model.RAND,
                        observers=[metrics, trace],
                        **kwargs,
                    )
                summaries[name] = metrics.summary()
                rounds[name] = result.rounds

            seconds = _time_best(traced, repeats)
            timings[name] = {
                "n": float(n),
                "seconds": seconds,
                "traced_rounds_nodes_per_sec": rounds[name] * n / seconds,
            }
    finally:
        devnull.close()
    for name, summary in summaries.items():
        if summary != summaries["fast"]:
            raise AssertionError(
                f"backend {name!r} produced a different metrics summary "
                "than the fast engine with observers attached — the "
                "observed byte-identity contract is broken"
            )
        timings[name]["traced_speedup_vs_fast"] = (
            timings["fast"]["seconds"] / timings[name]["seconds"]
        )
    return timings


def e5_vectorized_metrics(
    n: int = 1_000_000,
    delta: int = 9,
    seed: int = 0,
) -> Optional[Dict[str, float]]:
    """The tentpole measurement: E5 shattering at n = 10⁶, vectorized
    vs fast, single run each (the fast engine alone takes minutes) —
    bare first, then **traced** (MetricsObserver + JsonlTraceObserver
    to the null device) to pin the observed-at-scale contract: a traced
    vectorized run must stay well clear of the traced fast engine.

    Returns None when the vectorized backend is unavailable.  Gated
    behind ``repro bench --full`` — this is the number the committed
    baseline records, not a per-CI-run workload.
    """
    import os as _os

    from ..core.backend import available_backend_names
    from ..obs import JsonlTraceObserver, MetricsObserver

    if "vectorized" not in available_backend_names():
        return None
    graph, algorithm, kwargs = _color_bidding_workload(n, delta, seed)

    start = time.perf_counter()
    vec = run_local(
        graph, algorithm, Model.RAND, backend="vectorized", **kwargs
    )
    vec_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast = run_local(graph, algorithm, Model.RAND, **kwargs)
    fast_seconds = time.perf_counter() - start

    if fast.outputs != vec.outputs:
        raise AssertionError(
            "vectorized E5 outputs diverged from the fast engine at "
            f"n={n} — the bit-identity contract is broken"
        )

    devnull = open(_os.devnull, "w", encoding="utf-8")
    try:
        summaries: Dict[str, Any] = {}

        def traced(backend: str) -> float:
            metrics = MetricsObserver()
            trace = JsonlTraceObserver(devnull, topology=False)
            start = time.perf_counter()
            run_local(
                graph,
                algorithm,
                Model.RAND,
                backend=backend,
                observers=[metrics, trace],
                **kwargs,
            )
            seconds = time.perf_counter() - start
            summaries[backend] = metrics.summary()
            return seconds

        traced_vec_seconds = traced("vectorized")
        traced_fast_seconds = traced("fast")
    finally:
        devnull.close()
    if summaries["vectorized"] != summaries["fast"]:
        raise AssertionError(
            "vectorized E5 metrics summary diverged from the fast "
            f"engine at n={n} — the observed byte-identity contract "
            "is broken"
        )
    return {
        "n": float(n),
        "rounds": float(vec.rounds),
        "fast_seconds": fast_seconds,
        "vectorized_seconds": vec_seconds,
        "fast_rounds_nodes_per_sec": fast.rounds * n / fast_seconds,
        "vectorized_rounds_nodes_per_sec": vec.rounds * n / vec_seconds,
        "speedup_vs_fast": fast_seconds / vec_seconds,
        "traced_fast_seconds": traced_fast_seconds,
        "traced_vectorized_seconds": traced_vec_seconds,
        "traced_vectorized_rounds_nodes_per_sec": (
            vec.rounds * n / traced_vec_seconds
        ),
        "traced_speedup_vs_fast": traced_fast_seconds / traced_vec_seconds,
    }


def _sweep_measure(n: float, seed: int) -> float:
    """One E3-style sweep cell: randomized Δ=9 tree coloring rounds."""
    from ..algorithms import pettie_su_tree_coloring
    from ..graphs.generators import complete_regular_tree_with_size

    tree = complete_regular_tree_with_size(9, int(n))
    return float(pettie_su_tree_coloring(tree, seed=seed).rounds)


def sweep_metrics(
    workers: int = 4,
    sizes: tuple = (100, 400, 1600),
    seeds: tuple = (0, 1, 2, 3),
) -> Dict[str, float]:
    """Cells/sec of a scaled-down separation sweep, serial vs pooled.

    Also asserts the determinism contract en passant: the parallel
    Series must be bit-identical to the serial one.
    """
    cells = len(sizes) * len(seeds)

    serial_start = time.perf_counter()
    serial = run_sweep("perf-serial", sizes, _sweep_measure, seeds=seeds)
    serial_seconds = time.perf_counter() - serial_start

    parallel_start = time.perf_counter()
    parallel = run_sweep(
        "perf-parallel",
        sizes,
        _sweep_measure,
        seeds=seeds,
        workers=workers,
    )
    parallel_seconds = time.perf_counter() - parallel_start

    if [p.values for p in serial.points] != [
        p.values for p in parallel.points
    ]:
        raise AssertionError(
            "workers sweep diverged from serial order — the per-cell "
            "determinism contract is broken"
        )
    return {
        "cells": float(cells),
        "workers": float(workers),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "serial_cells_per_sec": cells / serial_seconds,
        "parallel_cells_per_sec": cells / parallel_seconds,
        "parallel_speedup": serial_seconds / parallel_seconds,
    }


def run_perf_suite(
    workers: int = 4,
    include_reference: bool = True,
    full: bool = False,
) -> Dict[str, Any]:
    """Run every perf workload and package a baseline-shaped report.

    ``metrics`` maps name -> ``{"value": raw, "normalized": raw /
    calibration}`` for throughputs; ratios carry ``"normalized": None``
    (they are machine-independent already).  ``full`` adds the
    n = 10⁶ E5 vectorized-vs-fast measurement (minutes of wall clock;
    baselines committed to the repo should be recorded with it).
    """
    ops_per_sec = calibrate_ops_per_sec()
    engine = engine_sleepheavy_metrics(include_reference=include_reference)
    tracing = tracing_overhead_metrics()
    sweep = sweep_metrics(workers=workers)
    backends = backend_engine_metrics()
    traced_backends = traced_backend_metrics()
    e5_full = e5_vectorized_metrics() if full else None

    def throughput(value: float) -> Dict[str, Optional[float]]:
        return {"value": value, "normalized": value / ops_per_sec * 1e6}

    def ratio(value: float) -> Dict[str, Optional[float]]:
        return {"value": value, "normalized": None}

    metrics: Dict[str, Dict[str, Optional[float]]] = {
        "engine_sleepheavy_rounds_per_sec": throughput(
            engine["rounds_per_sec"]
        ),
        # Throughput with a JSONL trace attached: gated like any other
        # metric once a refreshed baseline records it.  The overhead
        # *ratios* live in raw["tracing_overhead"] only — they are
        # lower-is-better and must not enter this higher-is-better
        # comparison.
        "engine_traced_rounds_per_sec": throughput(
            tracing["traced_rounds_per_sec"]
        ),
        "sweep_serial_cells_per_sec": throughput(
            sweep["serial_cells_per_sec"]
        ),
        "sweep_parallel_cells_per_sec": throughput(
            sweep["parallel_cells_per_sec"]
        ),
        "sweep_parallel_speedup": ratio(sweep["parallel_speedup"]),
    }
    if "speedup_vs_reference" in engine:
        metrics["engine_sleepheavy_speedup_vs_reference"] = ratio(
            engine["speedup_vs_reference"]
        )
    # One comparison row per registered-and-available backend; a
    # baseline recorded with the [perf] extra keeps its vectorized rows
    # when compared on a numpy-less host (absent metrics never gate).
    for name, timing in sorted(backends.items()):
        metrics[f"backend_{name}_rounds_nodes_per_sec"] = throughput(
            timing["rounds_nodes_per_sec"]
        )
        if name != "fast":
            metrics[f"backend_{name}_speedup_vs_fast"] = ratio(
                timing["speedup_vs_fast"]
            )
    # Observed (metrics + trace attached) per-backend throughput: the
    # plane-1 scale contract.  The vectorized row is the number the
    # perf-smoke CI job tracks — if batched emission ever regresses to
    # the scalar fallback, this metric collapses by an order of
    # magnitude and the comparison flags it.
    for name, timing in sorted(traced_backends.items()):
        metrics[f"engine_{name}_traced_rounds_per_sec"] = throughput(
            timing["traced_rounds_nodes_per_sec"]
        )
        if name != "fast":
            metrics[f"engine_{name}_traced_speedup_vs_fast"] = ratio(
                timing["traced_speedup_vs_fast"]
            )
    if e5_full is not None:
        metrics["e5_1e6_vectorized_rounds_nodes_per_sec"] = throughput(
            e5_full["vectorized_rounds_nodes_per_sec"]
        )
        metrics["e5_1e6_vectorized_speedup_vs_fast"] = ratio(
            e5_full["speedup_vs_fast"]
        )
        metrics["e5_1e6_traced_vectorized_rounds_nodes_per_sec"] = (
            throughput(e5_full["traced_vectorized_rounds_nodes_per_sec"])
        )
        metrics["e5_1e6_traced_vectorized_speedup_vs_fast"] = ratio(
            e5_full["traced_speedup_vs_fast"]
        )
    raw = {
        "engine_sleepheavy": engine,
        "tracing_overhead": tracing,
        "sweep": sweep,
        "backends": backends,
        "traced_backends": traced_backends,
    }
    if e5_full is not None:
        raw["e5_1e6_vectorized"] = e5_full
    return {
        "version": BASELINE_VERSION,
        "recorded": {
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": sys.platform,
        },
        "calibration_ops_per_sec": ops_per_sec,
        "metrics": metrics,
        "raw": raw,
    }


def save_baseline(report: Dict[str, Any], path: str) -> None:
    atomic_write_text(
        path, json.dumps(report, indent=2, sort_keys=True) + "\n"
    )


def load_baseline(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        baseline = json.load(fh)
    if baseline.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path} has version {baseline.get('version')!r}; "
            f"this tool writes version {BASELINE_VERSION} — refresh it "
            "with `repro bench --update`"
        )
    return baseline


def compare_to_baseline(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Dict[str, Any]]:
    """Compare a perf report to a baseline, metric by metric.

    Normalized values are compared when both sides carry them (so a
    faster or slower machine does not read as a perf change); raw values
    otherwise.  Higher is better for every metric.  A metric regresses
    when ``current < baseline * (1 - tolerance)``.  Metrics present on
    only one side are reported but never regress (they appear when the
    suite gains workloads).
    """
    rows: List[Dict[str, Any]] = []
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for name in sorted(set(base_metrics) | set(cur_metrics)):
        base = base_metrics.get(name)
        cur = cur_metrics.get(name)
        row: Dict[str, Any] = {"metric": name, "regressed": False}
        if base is None or cur is None:
            row["note"] = (
                "only in current run" if base is None else "only in baseline"
            )
            rows.append(row)
            continue
        use_normalized = (
            base.get("normalized") is not None
            and cur.get("normalized") is not None
        )
        key = "normalized" if use_normalized else "value"
        base_value = float(base[key])
        cur_value = float(cur[key])
        row.update(
            {
                "baseline": base_value,
                "current": cur_value,
                "ratio": (cur_value / base_value) if base_value else None,
                "normalized": use_normalized,
                "regressed": cur_value < base_value * (1.0 - tolerance),
            }
        )
        rows.append(row)
    return rows


def render_comparison(rows: List[Dict[str, Any]], tolerance: float) -> str:
    """Human-readable verdict table for ``repro bench --compare``."""
    from .tables import render_table

    table_rows = []
    regressions = 0
    for row in rows:
        if "baseline" not in row:
            table_rows.append(
                [row["metric"], "-", "-", "-", row.get("note", "")]
            )
            continue
        regressions += int(row["regressed"])
        table_rows.append(
            [
                row["metric"],
                f"{row['baseline']:.3f}",
                f"{row['current']:.3f}",
                f"{row['ratio']:.2f}x" if row["ratio"] else "-",
                "REGRESSED" if row["regressed"] else "ok",
            ]
        )
    lines = [
        render_table(
            ["metric", "baseline", "current", "ratio", "verdict"],
            table_rows,
        ),
        f"tolerance: -{tolerance:.0%} on "
        "machine-normalized throughput (raw for ratios)",
        (
            f"{regressions} metric(s) regressed"
            if regressions
            else "no perf regressions"
        ),
    ]
    return "\n".join(lines)


def has_regression(rows: List[Dict[str, Any]]) -> bool:
    return any(row.get("regressed") for row in rows)
