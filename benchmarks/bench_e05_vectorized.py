"""E5V — shattering at the paper's asymptotic scale (n = 10^6).

The E5 sweep (``bench_e05_shattering.py``) stops at n = 16000 because
the per-node engines step one Python call per vertex per round.  This
variant runs the same Theorem 10 Phase 1 workload through the
``vectorized`` backend at n = 10^6 — the regime where the
O(Δ⁴ log n) component bound actually separates from n — and checks
the shattering bound there.

The fast-engine comparison leg runs at a smaller size (minutes of wall
clock at 10^6; the committed ``BENCH_baseline.json`` records the full
n = 10^6 speedup via ``repro bench --full``), and the backend contract
makes the small-size output equality transfer: both sizes go through
the same kernel.

The observed-mode variant (**E5VO**, ``run_observed_experiment``)
repeats the n = 10^6 run with a ``MetricsObserver`` and a
``JsonlTraceObserver`` attached — exercising plane-1 batched emission
at scale — and asserts the Δ⁴ · ln n surviving-component bound from
the recorded trace via the streaming shattering profiler, a check that
previously only ran at n = 10^4.

Scale via ``REPRO_E5V_N`` (e.g. 10^7 on a large-memory host).  Without
the ``[perf]`` extra the record documents the skip instead of failing.
"""

import os
import time

from repro.algorithms.rand_tree_coloring import BAD
from repro.analysis import ExperimentRecord, Series
from repro.analysis.perf import color_bidding_workload, time_backends
from repro.core import available_backend_names, run_local
from repro.transforms import component_size_threshold, shatter

N = int(os.environ.get("REPRO_E5V_N", "1000000"))
COMPARE_N = min(N, 100_000)
DELTA = 9
SEED = 0


def run_experiment() -> ExperimentRecord:
    record = ExperimentRecord(
        "E5V",
        f"Shattering at scale: vectorized Theorem 10 at n = {N}",
    )
    if "vectorized" not in available_backend_names():
        record.note(
            "vectorized backend unavailable ([perf] extra not "
            "installed) — experiment skipped"
        )
        record.check("vectorized backend ran (or was skipped)", True)
        return record

    workload = color_bidding_workload(N, DELTA, SEED)
    seconds, result = time_backends(("vectorized",), workload, 1)["vectorized"]
    outcome = shatter(workload["graph"], result.outputs, BAD)
    throughput = result.rounds * N / seconds

    series = Series(f"max bad component (Δ={DELTA})")
    series.add(N, [outcome.max_component])
    record.add_series(series)
    rate = Series("vectorized rounds*nodes/sec")
    rate.add(N, [throughput])
    record.add_series(rate)

    record.check(
        f"components within Δ⁴·log n at n={N}",
        outcome.max_component <= component_size_threshold(N, DELTA),
    )
    record.check(
        "bad set is sublinear at scale",
        len(outcome.residual) <= 0.25 * N,
    )

    # time_backends raises when fast's outputs or rounds diverge from
    # vectorized's, so reaching the check line proves bit-identity.
    compare = time_backends(
        ("vectorized", "fast"),
        color_bidding_workload(COMPARE_N, DELTA, SEED),
        1,
    )
    vec_seconds = compare["vectorized"][0]
    fast_seconds = compare["fast"][0]
    record.check(f"vectorized bit-identical to fast at n={COMPARE_N}", True)
    record.check(
        f"vectorized >= 3x over fast at n={COMPARE_N}",
        fast_seconds / vec_seconds >= 3.0,
    )
    record.note(
        f"n={N}: {seconds:.1f}s vectorized, {result.rounds} rounds, "
        f"{throughput:,.0f} rounds*nodes/sec, "
        f"max component {outcome.max_component}, "
        f"{len(outcome.residual)} bad"
    )
    record.note(
        f"n={COMPARE_N} comparison: fast {fast_seconds:.1f}s vs "
        f"vectorized {vec_seconds:.1f}s "
        f"({fast_seconds / vec_seconds:.1f}x); the committed "
        "BENCH_baseline.json records the full n=10^6 speedup"
    )
    return record


def run_observed_experiment() -> ExperimentRecord:
    """E5VO — the same n = 10⁶ workload, **observed**: metrics + JSONL
    trace attached for the whole run (plane-1 batched emission, no
    scalar fallback), the Δ⁴·ln n shattering bound asserted from the
    recorded trace by the streaming profiler — the check that
    previously only ran at n = 10⁴ scales."""
    import tempfile

    from repro.obs import (
        JsonlTraceObserver,
        MetricsObserver,
        aggregate_trace,
        iter_trace,
        profile_trace,
    )

    record = ExperimentRecord(
        "E5VO",
        f"Observed shattering at scale: traced vectorized Theorem 10 "
        f"at n = {N}",
    )
    if "vectorized" not in available_backend_names():
        record.note(
            "vectorized backend unavailable ([perf] extra not "
            "installed) — experiment skipped"
        )
        record.check("observed vectorized ran (or was skipped)", True)
        return record

    workload = color_bidding_workload(N, DELTA, SEED)
    metrics = MetricsObserver()
    fd, trace_path = tempfile.mkstemp(prefix="repro-e5vo-", suffix=".jsonl")
    os.close(fd)
    try:
        start = time.perf_counter()
        with JsonlTraceObserver(trace_path) as trace:
            result = run_local(
                **workload,
                observers=[metrics, trace],
                backend="vectorized",
            )
        seconds = time.perf_counter() - start
        throughput = result.rounds * N / seconds

        profile = profile_trace(trace_path, unresolved=BAD)
        agg = aggregate_trace(iter_trace(trace_path))
    finally:
        trace_size = os.path.getsize(trace_path)
        os.unlink(trace_path)

    rate = Series("traced vectorized rounds*nodes/sec")
    rate.add(N, [throughput])
    record.add_series(rate)
    comp = Series(f"max surviving component (Δ={DELTA})")
    comp.add(N, [profile.max_surviving_component])
    record.add_series(comp)

    record.check(
        f"profiled components within Δ⁴·ln n at n={N} "
        f"({profile.max_surviving_component} vs "
        f"{profile.paper_bound:.1f})",
        profile.max_surviving_component <= profile.paper_bound,
    )
    record.check(
        "shattering profile shape ok (halt fraction, shattered round)",
        profile.ok(),
    )
    summary = metrics.summary()
    halted = summary["metrics"]["halted_total"]["value"]
    record.check(
        "metrics observer accounted for every vertex",
        halted == N
        and summary["metrics"]["runs_succeeded_total"]["value"] == 1,
    )
    record.check(
        "trace aggregate agrees with the run",
        agg["runs"] == 1 and agg["halted_total"] == N,
    )
    record.note(
        f"n={N}: {seconds:.1f}s traced vectorized "
        f"({throughput:,.0f} rounds*nodes/sec), "
        f"{trace_size / 1e6:.0f} MB trace, "
        f"shattering round {profile.shattering_round}, "
        f"max surviving component {profile.max_surviving_component} "
        f"(bound {profile.paper_bound:.1f})"
    )
    return record


def test_e05_vectorized(benchmark, record_experiment):
    record = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    record_experiment(record)


def test_e05_vectorized_observed(benchmark, record_experiment):
    record = benchmark.pedantic(
        run_observed_experiment, rounds=1, iterations=1
    )
    record_experiment(record)
