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
- **backend timings** — the E5-style ColorBidding workload on every
  available backend, bare and observed (metrics + JSONL trace).
- **sweep macro-benchmark** — a scaled-down E3 separation sweep
  (randomized tree coloring over a size grid × seeds), timed serially
  and through the ``workers=N`` process pool.

Every engine timing goes through :func:`time_backends`, which also
checks the byte-identity contract on each workload it times.

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
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from .experiments import run_sweep
from ..core.algorithm import Inbox, SyncAlgorithm
from ..core.atomicio import atomic_write_text
from ..core.backend import available_backend_names, use_backend
from ..core.context import Model, NodeContext
from ..core.engine import RunResult, run_local

#: Schema version stamped into baseline files.
BASELINE_VERSION = 1

#: Relative slack for `repro bench --compare` (35%): perf-smoke should
#: flag real cliffs, not CI noise.
TOLERANCE = 0.35

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


def _no_observers(sink: TextIO) -> Sequence[Any]:
    return ()


def _metrics_and_trace(sink: TextIO) -> Sequence[Any]:
    """The observed-run pair: metrics plus a JSONL trace to ``sink``."""
    from ..obs import JsonlTraceObserver, MetricsObserver

    return [MetricsObserver(), JsonlTraceObserver(sink, topology=False)]


def time_backends(
    backends: Sequence[str],
    workload: Dict[str, Any],
    repeats: int = 2,
    observers: Callable[[TextIO], Sequence[Any]] = _no_observers,
) -> Dict[str, Tuple[float, RunResult]]:
    """Best-of-``repeats`` wall seconds of ``run_local(**workload)`` on
    each backend in ``backends``, with that backend's result.

    Every call gets fresh observers from ``observers(sink)``, ``sink``
    being a text stream to the null device.  Raises
    :class:`AssertionError` naming the backend whose outputs, rounds or
    :class:`~repro.obs.MetricsObserver` summary differ from the first
    backend's: the byte-identity contract, checked on every workload.
    """
    from ..obs import MetricsObserver

    timed: Dict[str, Tuple[float, RunResult]] = {}
    first: Optional[Tuple[Any, ...]] = None
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for name in backends:
            best = float("inf")
            for _ in range(repeats):
                attached = observers(sink)
                with use_backend(name):
                    start = time.perf_counter()
                    result = run_local(**workload, observers=attached)
                    best = min(best, time.perf_counter() - start)
            summaries = [
                obs.summary()
                for obs in attached
                if isinstance(obs, MetricsObserver)
            ]
            fingerprint = (result.outputs, result.rounds, summaries)
            if first is None:
                first = fingerprint
            elif fingerprint != first:
                raise AssertionError(
                    f"backend {name!r} diverged from {backends[0]!r}: "
                    "outputs, rounds or metrics summary differ — the "
                    "byte-identity contract is broken"
                )
            timed[name] = (best, result)
    return timed


def _sleepheavy_workload(n: int, classes: int) -> Dict[str, Any]:
    from ..graphs.generators import cycle_graph

    return {
        "graph": cycle_graph(n),
        "algorithm": ClassSweepSleeper(),
        "model": Model.DET,
        "node_inputs": [{"klass": v % classes} for v in range(n)],
    }


def engine_sleepheavy_metrics(
    n: int = 10_000,
    classes: int = 400,
    repeats: int = 2,
) -> Dict[str, float]:
    """Rounds/sec of the fast engine on the sleep-heavy workload, plus
    its speedup over the reference engine."""
    timed = time_backends(
        ("fast", "reference"), _sleepheavy_workload(n, classes), repeats
    )
    fast_seconds, result = timed["fast"]
    reference_seconds = timed["reference"][0]
    return {
        "n": float(n),
        "rounds": float(result.rounds),
        "fast_seconds": fast_seconds,
        "rounds_per_sec": result.rounds / fast_seconds,
        "reference_seconds": reference_seconds,
        "speedup_vs_reference": reference_seconds / fast_seconds,
    }


def tracing_overhead_metrics(
    n: int = 10_000,
    classes: int = 400,
    repeats: int = 2,
) -> Dict[str, float]:
    """Cost of observation: the sleep-heavy workload on the fast engine
    bare, with a :class:`~repro.obs.MetricsObserver`, and with a
    :class:`~repro.obs.JsonlTraceObserver` streaming to the null
    device.  The overhead *ratios* (traced time / bare time) are
    recorded, not gated — the acceptance bar is that the bare run,
    whose hot loop carries only a ``hub is not None`` test, does not
    regress.
    """
    from ..obs import JsonlTraceObserver, MetricsObserver

    workload = _sleepheavy_workload(n, classes)
    bare_seconds, result = time_backends(("fast",), workload, repeats)["fast"]
    metrics_seconds = time_backends(
        ("fast",), workload, repeats, lambda sink: [MetricsObserver()]
    )["fast"][0]
    traced_seconds = time_backends(
        ("fast",),
        workload,
        repeats,
        lambda sink: [JsonlTraceObserver(sink, topology=False)],
    )["fast"][0]
    return {
        "n": float(n),
        "rounds": float(result.rounds),
        "bare_seconds": bare_seconds,
        "metrics_seconds": metrics_seconds,
        "traced_seconds": traced_seconds,
        "metrics_overhead_ratio": metrics_seconds / bare_seconds,
        "tracing_overhead_ratio": traced_seconds / bare_seconds,
        "traced_rounds_per_sec": result.rounds / traced_seconds,
    }


def color_bidding_workload(n: int, delta: int, seed: int) -> Dict[str, Any]:
    """``run_local`` arguments of the E5-style ColorBidding workload
    (Theorem 10 Phase 1) every backend is timed on."""
    import random

    from ..algorithms.rand_tree_coloring import (
        ColorBiddingAlgorithm,
        ColorBiddingConfig,
        reserved_colors,
    )
    from ..graphs.generators import random_tree_bounded_degree

    return {
        "graph": random_tree_bounded_degree(
            n, delta, random.Random(1000 * seed + n)
        ),
        "algorithm": ColorBiddingAlgorithm(),
        "model": Model.RAND,
        "seed": seed,
        "global_params": {
            "config": ColorBiddingConfig(),
            "main_palette": delta - reserved_colors(delta),
        },
    }


def _per_backend_metrics(
    n: int,
    delta: int,
    seed: int,
    repeats: int,
    observers: Callable[[TextIO], Sequence[Any]],
    prefix: str,
) -> Dict[str, Dict[str, float]]:
    timed = time_backends(
        available_backend_names(),
        color_bidding_workload(n, delta, seed),
        repeats,
        observers,
    )
    fast_seconds = timed["fast"][0]
    return {
        name: {
            "n": float(n),
            "seconds": seconds,
            f"{prefix}rounds_nodes_per_sec": result.rounds * n / seconds,
            f"{prefix}speedup_vs_fast": fast_seconds / seconds,
        }
        for name, (seconds, result) in timed.items()
    }


def backend_engine_metrics(
    n: int = 20_000,
    delta: int = 9,
    seed: int = 0,
    repeats: int = 2,
) -> Dict[str, Dict[str, float]]:
    """Per-backend timing of the ColorBidding workload.

    One sub-dict per *available* backend: wall seconds, rounds·nodes/sec
    throughput, and speedup over the fast engine.  Raises when a
    backend's outputs or rounds diverge from the fast engine's.
    """
    return _per_backend_metrics(n, delta, seed, repeats, _no_observers, "")


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
    vectorized-class, not collapse to the fast engine's.  Raises when a
    backend's metrics summary diverges from the fast engine's — the
    byte-identity contract with observers attached.
    """
    return _per_backend_metrics(
        n, delta, seed, repeats, _metrics_and_trace, "traced_"
    )


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
    if "vectorized" not in available_backend_names():
        return None
    workload = color_bidding_workload(n, delta, seed)
    backends = ("vectorized", "fast")
    bare = time_backends(backends, workload, 1)
    traced = time_backends(backends, workload, 1, _metrics_and_trace)
    vec_seconds, vec = bare["vectorized"]
    fast_seconds, fast = bare["fast"]
    traced_vec_seconds = traced["vectorized"][0]
    traced_fast_seconds = traced["fast"][0]
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


def run_perf_suite(full: bool = False) -> Dict[str, Any]:
    """Run every perf workload and package a baseline-shaped report.

    ``metrics`` maps name -> ``{"value": raw, "normalized": raw /
    calibration}`` for throughputs; ratios carry ``"normalized": None``
    (they are machine-independent already).  ``full`` adds the
    n = 10⁶ E5 vectorized-vs-fast measurement (minutes of wall clock;
    baselines committed to the repo should be recorded with it).
    """
    ops_per_sec = calibrate_ops_per_sec()
    engine = engine_sleepheavy_metrics()
    tracing = tracing_overhead_metrics()
    sweep = sweep_metrics()
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
        "engine_sleepheavy_speedup_vs_reference": ratio(
            engine["speedup_vs_reference"]
        ),
    }
    # One comparison row per registered-and-available backend, bare
    # and observed (metrics + trace attached); a baseline recorded with
    # the [perf] extra keeps its vectorized rows when compared on a
    # numpy-less host (absent metrics never gate).  The observed
    # vectorized row is the plane-1 scale contract the perf-smoke CI
    # job tracks — if batched emission ever regresses to the scalar
    # fallback, it collapses by an order of magnitude and the
    # comparison flags it.
    for name in backends:
        bare, traced = backends[name], traced_backends[name]
        metrics[f"backend_{name}_rounds_nodes_per_sec"] = throughput(
            bare["rounds_nodes_per_sec"]
        )
        metrics[f"engine_{name}_traced_rounds_per_sec"] = throughput(
            traced["traced_rounds_nodes_per_sec"]
        )
        if name != "fast":
            metrics[f"backend_{name}_speedup_vs_fast"] = ratio(
                bare["speedup_vs_fast"]
            )
            metrics[f"engine_{name}_traced_speedup_vs_fast"] = ratio(
                traced["traced_speedup_vs_fast"]
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
            f"with `repro bench --full --output {path}`"
        )
    return baseline


def compare_to_baseline(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
) -> List[Dict[str, Any]]:
    """Compare a perf report to a baseline, metric by metric.

    Normalized values are compared when both sides carry them (so a
    faster or slower machine does not read as a perf change); raw values
    otherwise.  Higher is better for every metric.  A metric regresses
    when ``current < baseline * (1 - TOLERANCE)``.  Metrics present on
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
                "regressed": cur_value < base_value * (1.0 - TOLERANCE),
            }
        )
        rows.append(row)
    return rows


def render_comparison(rows: List[Dict[str, Any]]) -> str:
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
        f"tolerance: -{TOLERANCE:.0%} on "
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
