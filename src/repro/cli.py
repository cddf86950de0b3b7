"""Command-line front door: run the paper's experiments from a shell.

``python -m repro.cli list`` shows the available demos;
``python -m repro.cli separation --delta 9 --sizes 100,2000,20000``
runs the headline experiment and prints its table.  Everything the CLI
does is a thin wrapper over the library — the same calls the examples
and benchmarks make.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional

from .algorithms import (
    barenboim_elkin_coloring,
    delta_plus_one_coloring,
    deterministic_mis,
    luby_mis,
    pettie_su_tree_coloring,
)
from .algorithms.delta55 import chang_kopelowitz_pettie_coloring
from .analysis import render_table
from .core.errors import ReproError
from .graphs.generators import (
    complete_regular_tree_with_size,
    random_regular_graph,
    random_tree_bounded_degree,
    random_tree_preferential,
)
from .lcl import KColoring, MaximalIndependentSet
from .lowerbounds import corollary2_rounds, theorem5_rounds


def _sizes(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x]


def _rand_delta_coloring(tree, delta, seed):
    """Theorem 10 for Δ >= 9, the Theorem 11 machinery below that."""
    if delta >= 9:
        return pettie_su_tree_coloring(tree, seed=seed)
    return chang_kopelowitz_pettie_coloring(
        tree, seed=seed, min_delta=delta
    )


def cmd_separation(args: argparse.Namespace) -> int:
    delta = args.delta
    rows = []
    checker = KColoring(delta)
    for target in _sizes(args.sizes):
        tree = complete_regular_tree_with_size(delta, target)
        n = tree.num_vertices
        det = barenboim_elkin_coloring(tree, delta)
        rand = _rand_delta_coloring(tree, delta, args.seed)
        checker.check(tree, det.labeling)
        checker.check(tree, rand.labeling)
        rows.append(
            [
                n,
                det.rounds,
                rand.rounds,
                f"{theorem5_rounds(n, delta):.1f}",
                f"{corollary2_rounds(n, delta):.1f}",
            ]
        )
    print(f"Δ-coloring complete Δ-regular trees, Δ = {delta}")
    print(
        render_table(
            ["n", "det", "rand", "det LB", "rand LB"], rows
        )
    )
    return 0


def cmd_coloring(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    tree = random_tree_preferential(
        args.n, args.delta, rng, seed_hub=True
    )
    delta = tree.max_degree
    rand = _rand_delta_coloring(tree, delta, args.seed)
    KColoring(delta).check(tree, rand.labeling)
    stats = rand.log.stats
    print(
        render_table(
            ["metric", "value"],
            [
                ["n", tree.num_vertices],
                ["Δ", delta],
                ["rounds", rand.rounds],
                ["bad vertices after phase 1", stats.bad_vertices],
                ["largest shattered component", stats.max_component],
            ],
        )
    )
    return 0


def cmd_mis(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    g = random_regular_graph(args.n, args.delta, rng)
    problem = MaximalIndependentSet()
    a = luby_mis(g, seed=args.seed)
    b = deterministic_mis(g)
    problem.check(g, a.labeling)
    problem.check(g, b.labeling)
    print(
        render_table(
            ["algorithm", "rounds"],
            [["Luby (RandLOCAL)", a.rounds], ["coloring-based (DetLOCAL)", b.rounds]],
        )
    )
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    g = random_regular_graph(args.n, args.delta, rng)
    report = delta_plus_one_coloring(g)
    KColoring(args.delta + 1).check(g, report.labeling)
    print(
        render_table(
            ["phase", "rounds"],
            sorted(report.breakdown.items()),
        )
    )
    print(f"total: {report.rounds} rounds")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import perf

    report = perf.run_perf_suite(full=args.full)
    rows = []
    for name, metric in sorted(report["metrics"].items()):
        normalized = metric["normalized"]
        rows.append(
            [
                name,
                f"{metric['value']:.3f}",
                f"{normalized:.3f}" if normalized is not None else "-",
            ]
        )
    print(
        render_table(["metric", "value", "normalized/Mops"], rows)
    )
    print(
        f"calibration: {report['calibration_ops_per_sec']:.0f} ops/s, "
        f"{report['recorded']['cpu_count']} cpu(s)"
    )
    tracing = report["raw"]["tracing_overhead"]
    print(
        "tracing overhead (recorded, not gated): "
        f"jsonl {tracing['tracing_overhead_ratio']:.2f}x, "
        f"metrics {tracing['metrics_overhead_ratio']:.2f}x "
        "vs bare engine"
    )
    backends = report["raw"]["backends"]
    others = ", ".join(
        f"{name} {timing['speedup_vs_fast']:.2f}x"
        for name, timing in sorted(backends.items())
        if name != "fast"
    )
    print(
        "backend speedups vs fast (ColorBidding, "
        f"n={int(backends['fast']['n'])}): {others}"
    )
    e5_full = report["raw"].get("e5_1e6_vectorized")
    if e5_full:
        print(
            f"E5 n={int(e5_full['n'])}: vectorized "
            f"{e5_full['vectorized_seconds']:.1f}s vs fast "
            f"{e5_full['fast_seconds']:.1f}s "
            f"({e5_full['speedup_vs_fast']:.1f}x)"
        )
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        perf.save_baseline(report, args.output)
        print(f"report written to {args.output}")
    if args.compare:
        if not Path(args.compare).exists():
            print(
                f"repro bench: baseline does not exist: {args.compare}",
                file=sys.stderr,
            )
            return 2
        baseline = perf.load_baseline(args.compare)
        rows_cmp = perf.compare_to_baseline(report, baseline)
        print(perf.render_comparison(rows_cmp))
        if perf.has_regression(rows_cmp):
            return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from .obs import iter_trace
    from .obs.query import (
        aggregate_trace,
        dump_jsonl,
        filter_events,
        merge_aggregates,
        render_aggregate,
        render_timeline,
        round_timeline,
        vertex_history,
    )

    paths = args.traces
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        for p in missing:
            print(
                f"repro trace query: trace does not exist: {p}",
                file=sys.stderr,
            )
        return 2
    if args.op != "aggregate" and len(paths) > 1:
        print(
            f"repro trace query: --op {args.op} takes exactly one "
            "trace (cross-trace merge is aggregate-only)",
            file=sys.stderr,
        )
        return 2
    out = sys.stdout
    out_file = None
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        out_file = open(args.output, "w", encoding="utf-8")
        out = out_file
    try:
        if args.op == "aggregate":
            # One streaming pass per trace; never loads a trace whole.
            aggregates = [
                aggregate_trace(iter_trace(p), run=args.run)
                for p in paths
            ]
            merged = (
                merge_aggregates(aggregates)
                if len(aggregates) > 1
                else aggregates[0]
            )
            if args.format == "json":
                out.write(_json.dumps(merged, sort_keys=True))
                out.write("\n")
            else:
                out.write(render_aggregate(merged))
                out.write("\n")
        elif args.op == "timeline":
            rows = round_timeline(
                iter_trace(paths[0]),
                run=args.run if args.run is not None else 0,
            )
            if args.format == "json":
                out.write(_json.dumps(rows))
                out.write("\n")
            else:
                out.write(render_timeline(rows))
                out.write("\n")
        elif args.op == "vertex":
            if args.vertex is None:
                print(
                    "repro trace query: --op vertex needs --vertex V",
                    file=sys.stderr,
                )
                return 2
            history = vertex_history(
                iter_trace(paths[0]),
                args.vertex,
                run=args.run if args.run is not None else 0,
            )
            dump_jsonl(history, out)
        else:  # filter
            kinds = args.kind or None
            count = dump_jsonl(
                filter_events(
                    iter_trace(paths[0], kinds=kinds),
                    run=args.run,
                    kinds=kinds,
                    vertex=args.vertex,
                    round_min=args.round_min,
                    round_max=args.round_max,
                ),
                out,
            )
            if out_file is not None:
                print(f"{count} matching event(s)")
    except ValueError as exc:
        print(f"repro trace query: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: that is a normal way
        # to end a streaming query, not an error.  Point stdout at
        # /dev/null so interpreter-exit flushing cannot raise again.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        if out_file is not None:
            out_file.close()
    if out_file is not None:
        print(f"query output written to {args.output}")
    return 0


def _supervised(args: argparse.Namespace) -> bool:
    return (
        args.retries > 0
        or args.deadline is not None
        or args.watchdog is not None
        or args.max_rss is not None
    )


def _check_run_flags(args: argparse.Namespace) -> Optional[str]:
    """The one check of the workload flags ``run`` and ``profile``'s
    driver mode share: the usage error, or None.

    On success a fresh run also empties its timing sidecar here, once;
    every writer after that (the run, a supervised child, the
    supervising parent) appends, so a resumed run keeps the rows of
    the attempt it continues.
    """
    if args.n < 2 or args.delta < 2:
        return (
            f"need n >= 2 and delta >= 2, got "
            f"n={args.n} delta={args.delta}"
        )
    if args.resume and not args.checkpoint_dir:
        return "--resume needs --checkpoint-dir"
    if args.command == "profile":
        if args.delta < 9:
            return (
                "driver mode needs --delta >= 9 (Theorem 10's "
                "color-bidding phase); use --trace to profile any "
                "recorded run"
            )
        if args.checkpoint_dir and not args.keep_trace:
            return (
                "driver mode's --checkpoint-dir needs --keep-trace: "
                "snapshots point into the trace bytes, which must "
                "outlive the process"
            )
    elif _supervised(args) and not args.checkpoint_dir:
        return (
            "supervision flags (--retries/--deadline/--watchdog/"
            "--max-rss) need --checkpoint-dir"
        )
    if args.timing_sidecar:
        Path(args.timing_sidecar).parent.mkdir(parents=True, exist_ok=True)
        if not args.resume:
            open(args.timing_sidecar, "w", encoding="utf-8").close()
    return None


def _run_workload(
    args: argparse.Namespace,
    build: Callable[..., Any],
    solve: Callable[..., Any],
    *,
    trace: Optional[str] = None,
    supervised: bool = False,
    **trace_format: bool,
) -> Any:
    """Build ``args``' graph and return ``solve(graph, seed=...)``,
    run under the per-run observers — the JSONL trace at ``trace``
    (``trace_format`` goes to :class:`~repro.obs.JsonlTraceObserver`),
    the timing sidecar, the progress line — and the checkpoint scope.

    A supervised child takes its checkpoint scope from the supervisor,
    and every attempt resumes its trace.  The observers are created
    here so whichever process runs the workload owns them — a forked
    file handle shared with the parent would interleave writes.
    """
    from .core import observe_runs
    from .core.checkpoint import checkpointing
    from .obs import (
        JsonlTraceObserver,
        ProgressReporter,
        TimingSidecarObserver,
    )

    with contextlib.ExitStack() as stack:
        observers: List[Any] = []
        if trace is not None:
            Path(trace).parent.mkdir(parents=True, exist_ok=True)
            observers.append(
                stack.enter_context(
                    JsonlTraceObserver(
                        trace,
                        resume=args.resume or supervised,
                        **trace_format,
                    )
                )
            )
        if args.timing_sidecar:
            stream = stack.enter_context(
                open(args.timing_sidecar, "a", encoding="utf-8")
            )
            observers.append(
                stack.enter_context(TimingSidecarObserver(stream))
            )
        if args.progress:
            observers.append(ProgressReporter(label=args.command))
        if args.checkpoint_dir and not supervised:
            stack.enter_context(
                checkpointing(
                    args.checkpoint_dir,
                    every_rounds=args.checkpoint_every,
                    resume=args.resume,
                )
            )
        graph = build(args.n, args.delta, random.Random(args.seed))
        with observe_runs(*observers):
            return solve(graph, seed=args.seed)


def cmd_profile(args: argparse.Namespace) -> int:
    import tempfile

    from .algorithms.rand_tree_coloring import BAD
    from .obs import profile_trace, render_profile_report

    with contextlib.ExitStack() as stack:
        if args.trace is not None:
            trace_path, unresolved = args.trace, args.unresolved
            if not Path(trace_path).exists():
                print(
                    f"repro profile: trace does not exist: {trace_path}",
                    file=sys.stderr,
                )
                return 2
        else:
            error = _check_run_flags(args)
            if error is not None:
                print(f"repro profile: {error}", file=sys.stderr)
                return 2
            trace_path = args.keep_trace or os.path.join(
                stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-profile-")
                ),
                "trace.jsonl",
            )
            # Driver mode: the Theorem 10 randomized Δ-coloring run
            # whose Phase 1 the profiler measures (BAD = unresolved
            # sentinel).
            _run_workload(
                args,
                random_tree_bounded_degree,
                pettie_su_tree_coloring,
                trace=trace_path,
            )
            unresolved = BAD
        try:
            profile = profile_trace(
                trace_path,
                run=args.run,
                threshold=args.threshold,
                **(
                    {"unresolved": unresolved}
                    if unresolved is not None
                    else {}
                ),
            )
        except ValueError as exc:
            print(f"repro profile: {exc}", file=sys.stderr)
            return 2
    report = render_profile_report(profile)
    print(report)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
            fh.write("\n")
        print(f"report written to {args.output}")
    return 0 if profile.ok() else 1


def cmd_faults(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .faults.experiment import failure_rate_experiment

    try:
        rates = [float(x) for x in args.rates.split(",") if x]
    except ValueError:
        print(
            f"repro faults: --rates must be comma-separated floats, "
            f"got {args.rates!r}",
            file=sys.stderr,
        )
        return 2
    progress = None
    if args.progress:
        from .obs.timing import sweep_progress_printer

        progress = sweep_progress_printer(label="repro faults")
    try:
        record = failure_rate_experiment(
            n=args.n,
            delta=args.delta,
            rates=rates,
            trials=args.trials,
            kind=args.kind,
            round_budget=args.budget if args.budget > 0 else None,
            workers=args.workers,
            retries=args.retries,
            journal=args.journal,
            progress=progress,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
    except ValueError as exc:
        print(f"repro faults: {exc}", file=sys.stderr)
        return 2
    text = record.render()
    print(text)
    _warn_skipped_cells(record)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        print(f"report written to {args.output}")
    if args.export_metrics:
        from .obs.export import write_metrics_export

        summary = next(iter(record.telemetry.values()), None)
        if summary is None:
            print(
                "repro faults: no telemetry to export",
                file=sys.stderr,
            )
        else:
            Path(args.export_metrics).parent.mkdir(
                parents=True, exist_ok=True
            )
            fmt = write_metrics_export(summary, args.export_metrics)
            print(
                f"metrics exported to {args.export_metrics} ({fmt})"
            )
    return 0 if record.all_checks_pass else 1


def _warn_skipped_cells(record) -> None:
    """Surface cells a sweep excluded from its aggregates on stderr —
    silent sample shrinkage invalidates probability estimates."""
    for series in record.series:
        skipped = series.skipped
        if skipped:
            print(
                f"repro: warning: {len(skipped)} cell(s) skipped in "
                f"series {series.name!r}: "
                + "; ".join(
                    f"x={o.x} seed={o.seed} [{o.status}] {o.error}"
                    for o in skipped
                ),
                file=sys.stderr,
            )


#: ``repro run --workload``: the graph family and the driver run on it.
_WORKLOADS = {
    "coloring": (
        random_tree_bounded_degree,
        lambda tree, seed: _rand_delta_coloring(
            tree, tree.max_degree, seed
        ),
    ),
    "mis": (random_regular_graph, luby_mis),
}


def cmd_run(args: argparse.Namespace) -> int:
    """One checkpointed workload run, optionally supervised.

    Three modes, chosen by flags:

    - plain: no ``--checkpoint-dir`` — just run the workload;
    - checkpointed: ``--checkpoint-dir`` without supervision flags —
      run in-process under an ambient checkpointing scope (pair with
      ``--resume`` to continue a killed run byte-identically);
    - supervised: any of ``--retries/--deadline/--watchdog/--max-rss``
      — run in a watched child process via :mod:`repro.supervise`,
      retrying from the newest snapshot after a crash, a hang or an
      RSS-ceiling kill.
    """
    import json as _json

    error = _check_run_flags(args)
    if error is not None:
        print(f"repro run: {error}", file=sys.stderr)
        return 2
    supervised = _supervised(args)

    def execute() -> dict:
        """Runs in-process or inside the supervised child."""
        report = _run_workload(
            args,
            *_WORKLOADS[args.workload],
            trace=args.trace,
            supervised=supervised,
            payload_values=args.values,
            topology=not args.no_topology,
            node_steps=args.steps,
        )
        # A summary, not the report: the labeling is n entries and a
        # supervised child ships this value up a pipe.
        return {
            "workload": args.workload,
            "n": args.n,
            "delta": args.delta,
            "seed": args.seed,
            "rounds": report.rounds,
            "breakdown": report.breakdown,
        }

    if not supervised:
        print(_json.dumps(execute(), sort_keys=True))
        return 0

    from .obs import TimingSidecarObserver
    from .supervise import supervise_run

    Path(args.checkpoint_dir).mkdir(parents=True, exist_ok=True)
    if not args.resume:
        # A fresh supervised run must not resurrect an older run's
        # snapshots; the supervisor itself always resumes between its
        # own retries, so stale slots are cleared up front instead.
        for name in sorted(os.listdir(args.checkpoint_dir)):
            if name.endswith((".ckpt", ".done")):
                os.unlink(os.path.join(args.checkpoint_dir, name))
    with contextlib.ExitStack() as stack:
        sidecar = None
        if args.timing_sidecar:
            stream = stack.enter_context(
                open(args.timing_sidecar, "a", encoding="utf-8")
            )
            sidecar = stack.enter_context(TimingSidecarObserver(stream))
        outcome = supervise_run(
            execute,
            checkpoint_dir=args.checkpoint_dir,
            every_rounds=args.checkpoint_every,
            retries=args.retries,
            deadline=args.deadline,
            watchdog=args.watchdog,
            max_rss_kb=(
                args.max_rss * 1024
                if args.max_rss is not None
                else None
            ),
            sidecar=sidecar,
        )
    if args.audit:
        from .core.atomicio import atomic_write_text

        Path(args.audit).parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            args.audit,
            _json.dumps(outcome.to_dict(), sort_keys=True, indent=2)
            + "\n",
        )
        print(f"audit record written to {args.audit}")
    if outcome.ok:
        print(
            _json.dumps(
                {**outcome.result, "attempts": outcome.attempts},
                sort_keys=True,
            )
        )
        return 0
    print(
        f"repro run: {outcome.error} "
        f"(after {outcome.attempts} attempt(s))",
        file=sys.stderr,
    )
    return 1


def cmd_report(args: argparse.Namespace) -> int:
    from .analysis.reporting import main as report_main

    return report_main([args.results_dir])


def cmd_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .verify import run_verification, write_counterexamples
    from .verify.relations import standard_relations

    if args.list_relations:
        for relation in standard_relations():
            print(f"{relation.name:<20}  {relation.description}")
        return 0
    try:
        report = run_verification(
            drivers=args.driver or None,
            relation_names=args.relation or None,
            trials=args.trials,
            master_seed=args.seed,
            quick=args.quick,
            shrink=not args.no_shrink,
        )
    except KeyError as exc:
        print(
            f"repro verify: unknown driver or relation: {exc}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"repro verify: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        written = write_counterexamples(report, args.report)
        print(
            f"counterexample report: {args.report} "
            f"({written} entries)"
        )
    if not report.ok:
        for example in report.counterexamples():
            print(
                f"repro verify: [{example.relation}] {example.driver}: "
                f"{example.message} (instance {example.instance}, "
                f"shrunk from n={example.shrunk_from_n})",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .staticcheck import analyze_paths, default_target
    from .staticcheck.modules import discover_files

    paths = args.paths or [str(default_target())]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        # A typo'd path must not read as a clean gate.
        for p in missing:
            print(f"repro lint: path does not exist: {p}", file=sys.stderr)
        return 2
    empty = [p for p in paths if not discover_files([Path(p)])]
    if empty:
        # Nor must a path that holds no Python file.
        print(
            f"repro lint: no Python files under: {', '.join(empty)}",
            file=sys.stderr,
        )
        return 2
    result = analyze_paths(paths)
    if args.format == "json":
        print(result.to_json())
    else:
        print(result.render_text())
    if args.sarif_output:
        from .staticcheck.sarif import render_sarif

        Path(args.sarif_output).parent.mkdir(
            parents=True, exist_ok=True
        )
        with open(args.sarif_output, "w", encoding="utf-8") as fh:
            fh.write(render_sarif(result, Path.cwd()))
            fh.write("\n")
    if not result.ok:
        return 1
    if args.strict and not result.clean:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .core.backend import backend_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "LOCAL-model separation laboratory (Chang-Kopelowitz-"
            "Pettie 2016 reproduction)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help="engine backend every run_local call in this command "
        "uses (default: the REPRO_BACKEND env var, else 'fast')",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="worker count for '--backend sharded' (exported as "
        "REPRO_SHARDS so spawned children inherit it; default: the "
        "env var, else 2)",
    )
    # The workload flags ``run`` and ``profile``'s driver mode share,
    # checked once by _check_run_flags.
    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument("--n", type=int, default=10_000)
    workload.add_argument("--delta", type=int, default=9)
    workload.add_argument("--seed", type=int, default=1)
    workload.add_argument(
        "--timing-sidecar",
        metavar="PATH",
        help="write the plane-2 timing/resource JSONL sidecar here "
        "(a resumed run appends to it; a supervised run's lifecycle "
        "rows land here too)",
    )
    workload.add_argument(
        "--progress",
        action="store_true",
        help="render live round progress on stderr",
    )
    workload.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="write round-boundary engine snapshots here",
    )
    workload.add_argument(
        "--checkpoint-every",
        type=int,
        default=256,
        metavar="ROUNDS",
        help="snapshot cadence in rounds (default: 256)",
    )
    workload.add_argument(
        "--resume",
        action="store_true",
        help="resume from the newest snapshot in --checkpoint-dir; "
        "the continued run (and its trace bytes) is identical to an "
        "uninterrupted one",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser(
        "separation", help="the headline det-vs-rand Δ-coloring sweep"
    )
    p.add_argument("--delta", type=int, default=9)
    p.add_argument("--sizes", default="100,1000,10000")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_separation)

    p = sub.add_parser(
        "coloring", help="run Theorem 10 on one random tree"
    )
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--delta", type=int, default=16)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_coloring)

    p = sub.add_parser("mis", help="Luby vs deterministic MIS")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--delta", type=int, default=6)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_mis)

    p = sub.add_parser(
        "baseline", help="the (Δ+1)-coloring pipeline with phase breakdown"
    )
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--delta", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser(
        "report", help="pass/fail matrix over recorded experiment results"
    )
    p.add_argument("results_dir", nargs="?", default="benchmarks/results")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench",
        help=(
            "engine/sweep perf suite; --compare gates against a "
            "committed baseline (exit 1 on regression)"
        ),
    )
    p.add_argument(
        "--compare",
        metavar="BASELINE",
        help="baseline JSON to compare against "
        "(e.g. benchmarks/BENCH_baseline.json)",
    )
    p.add_argument(
        "--output",
        metavar="PATH",
        help="also write the report JSON here (benchmarks/results/ for "
        "CI artifacts; benchmarks/BENCH_baseline.json, with --full, "
        "to refresh the baseline)",
    )
    p.add_argument(
        "--full",
        action="store_true",
        help="also run the n=10^6 E5 vectorized-vs-fast measurement "
        "(minutes of wall clock; used when refreshing the committed "
        "baseline)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "trace",
        help=(
            "query recorded JSONL traces ('repro trace query ...'); "
            "'repro run --trace PATH' records one"
        ),
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    q = trace_sub.add_parser(
        "query",
        help=(
            "streaming analytics over recorded traces: filter, "
            "aggregate, per-round timeline, per-vertex history "
            "(never loads a trace fully into memory)"
        ),
    )
    q.add_argument(
        "traces",
        nargs="+",
        metavar="TRACE",
        help="JSONL trace file(s); several are merged (aggregate op "
        "only)",
    )
    q.add_argument(
        "--op",
        choices=("aggregate", "timeline", "vertex", "filter"),
        default="aggregate",
        help="aggregate = whole-trace totals (default); timeline = "
        "one row per round; vertex = one vertex's event history; "
        "filter = re-emit matching events as JSONL",
    )
    q.add_argument(
        "--run",
        type=int,
        default=None,
        help="restrict to this run index (default: all runs for "
        "aggregate/filter, run 0 for timeline/vertex)",
    )
    q.add_argument(
        "--vertex",
        type=int,
        default=None,
        help="vertex id (required for --op vertex; optional filter "
        "predicate otherwise)",
    )
    q.add_argument(
        "--kind",
        action="append",
        metavar="EVENT",
        help="filter op: keep only this event kind (repeatable)",
    )
    q.add_argument("--round-min", type=int, default=None)
    q.add_argument("--round-max", type=int, default=None)
    q.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="aggregate/timeline output format (default: text); "
        "vertex/filter always emit JSONL",
    )
    q.add_argument(
        "--output",
        metavar="PATH",
        help="write the query result here instead of stdout",
    )
    q.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "profile",
        parents=[workload],
        help=(
            "shattering profiler: halt-fraction curve F(t) and "
            "surviving-component sizes vs Theorem 3's predictions "
            "(exit 1 when the measured shape fails the checks)"
        ),
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="profile an existing JSONL trace instead of running the "
        "randomized Δ-coloring driver",
    )
    p.add_argument(
        "--run",
        type=int,
        default=0,
        help="which run of a multi-run trace to profile (default: 0, "
        "the driver's Phase 1)",
    )
    p.add_argument(
        "--unresolved",
        type=int,
        default=None,
        help="halt output marking an abandoned vertex (trace mode "
        "only; driver mode always uses the BAD sentinel)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.9,
        help="halt fraction defining the shattering round "
        "(default: 0.9)",
    )
    p.add_argument(
        "--output",
        metavar="PATH",
        help="also write the text report here",
    )
    p.add_argument(
        "--keep-trace",
        metavar="PATH",
        help="driver mode: keep the intermediate JSONL trace at PATH "
        "instead of a deleted tempfile (needed with --checkpoint-dir: "
        "snapshots point into the trace)",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "faults",
        help=(
            "E6F: empirical Theorem 10 failure rate under injected "
            "fault rates (exit 1 when the record's checks fail)"
        ),
    )
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--delta", type=int, default=9)
    p.add_argument(
        "--rates",
        default="0,0.001,0.01,0.05",
        help="comma-separated fault rates; must start with the "
        "fault-free control 0 (default: 0,0.001,0.01,0.05)",
    )
    p.add_argument(
        "--trials",
        type=int,
        default=10,
        help="runs per rate (default: 10)",
    )
    p.add_argument(
        "--kind",
        choices=("drop", "crash", "corrupt"),
        default="drop",
        help="fault family to inject (default: drop)",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=4096,
        help="round budget injected into every run; 0 disables "
        "(default: 4096)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for the sweep (default: serial)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="bounded per-cell retries with derived seeds (default: 0)",
    )
    p.add_argument(
        "--journal",
        metavar="PATH",
        help="JSONL checkpoint journal; re-running with the same "
        "journal resumes an interrupted sweep",
    )
    p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="in-run round-boundary snapshots per cell; with "
        "--journal, a relaunched sweep resumes its in-flight cell "
        "mid-run instead of from round 0",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=256,
        metavar="ROUNDS",
        help="snapshot cadence inside each cell (default: 256)",
    )
    p.add_argument(
        "--output",
        metavar="PATH",
        help="also write the rendered record here",
    )
    p.add_argument(
        "--export-metrics",
        metavar="PATH",
        help="export the merged sweep telemetry here (.prom/.txt = "
        "Prometheus text exposition, anything else = canonical JSON)",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="render a live cells-done ticker on stderr",
    )
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "run",
        parents=[workload],
        help=(
            "one checkpointed demo workload run; supervision flags "
            "(--retries/--deadline/--watchdog/--max-rss) move it into "
            "a watched child process that retries from the newest "
            "snapshot"
        ),
    )
    p.add_argument(
        "--workload",
        choices=sorted(_WORKLOADS),
        default="coloring",
        help="coloring = the randomized Δ-coloring driver, "
        "mis = Luby's MIS (default: coloring)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="supervised: bounded retries with exponential backoff, "
        "each resuming from the newest snapshot (default: 0)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="supervised: wall-clock budget across all attempts",
    )
    p.add_argument(
        "--watchdog",
        type=float,
        default=None,
        metavar="SECONDS",
        help="supervised: kill and retry a child silent longer than "
        "this (heartbeats ride the checkpoint cadence)",
    )
    p.add_argument(
        "--max-rss",
        type=int,
        default=None,
        metavar="MIB",
        help="supervised: RSS ceiling; a child crossing it is killed "
        "and, like a crash, retried from the newest snapshot",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="record the deterministic JSONL trace here",
    )
    p.add_argument(
        "--values",
        action="store_true",
        help="with --trace: include published payload values on "
        "publish events",
    )
    p.add_argument(
        "--no-topology",
        action="store_true",
        help="with --trace: omit the edge list from run_start events "
        "(smaller traces; disables component profiling)",
    )
    p.add_argument(
        "--steps",
        action="store_true",
        help="with --trace: emit one event per vertex step (large "
        "traces)",
    )
    p.add_argument(
        "--audit",
        metavar="PATH",
        help="supervised: write the RunOutcome audit record here "
        "(JSON)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "verify",
        help=(
            "property-based verification sweep: certify every shipped "
            "driver's labelings ball-by-ball and check the metamorphic "
            "relation catalogue (exit 1 on any counterexample)"
        ),
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="tier-1 profile: one trial per cell at each driver's "
        "quick size",
    )
    p.add_argument(
        "--trials",
        type=int,
        default=None,
        help="seeded trials per (driver, relation) cell "
        "(default: 3, or 1 with --quick)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0xC0FFEE,
        help="master seed; the whole sweep is a pure function of it",
    )
    p.add_argument(
        "--driver",
        action="append",
        metavar="NAME",
        help="restrict to this driver (repeatable; default: all "
        "registered drivers)",
    )
    p.add_argument(
        "--relation",
        action="append",
        metavar="NAME",
        help="restrict to this relation (repeatable; see "
        "--list-relations)",
    )
    p.add_argument(
        "--report",
        metavar="PATH",
        help="write shrunk counterexamples as JSONL here (file is "
        "created even when empty)",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="report the originally-failing instance without "
        "halve-and-retest minimization",
    )
    p.add_argument(
        "--list-relations",
        action="store_true",
        help="print the relation catalogue and exit",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "lint",
        help=(
            "static LOCAL-model conformance analysis: pattern rules "
            "LM001-LM009 plus the dataflow radius/determinism proofs "
            "LM010/LM011; exit 1 on error-severity findings"
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the installed "
        "repro package)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    p.add_argument(
        "--sarif-output",
        metavar="PATH",
        help="also write a SARIF 2.1.0 log here, for code-scanning "
        "upload",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="also exit 1 on warning-severity findings",
    )
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    if args.shards is not None:
        if args.shards < 1:
            parser.error("--shards must be a positive integer")
        from .backends.sharded import SHARDS_ENV_VAR

        os.environ[SHARDS_ENV_VAR] = str(args.shards)
    try:
        if args.backend is not None:
            from .core.backend import use_backend

            with use_backend(args.backend):
                return args.func(args)
        return args.func(args)
    except ReproError as exc:
        # Structured rendering: the error context (node, round, run
        # metadata) the taxonomy carries beats a raw traceback for
        # "which vertex broke in which round of which run".
        print(
            f"repro {args.command}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        for line in exc.context_lines():
            print(f"  {line}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
