"""Experiment harness: parameter sweeps with seeds and aggregation.

Benchmarks and examples share this machinery: a :class:`Sweep` runs a
measurement function over a parameter grid with several seeds, collects
:class:`Series` of (x, mean, min, max), and renders them through
:mod:`repro.analysis.tables`.  Keeping it here (rather than in each
bench file) makes every experiment's shape identical: generate → run →
verify → record.

Telemetry: ``run_sweep(observer_factory=...)`` attaches a fresh
observer (see :mod:`repro.obs`) around each cell's measurement and
collects its ``summary()`` dict.  Summaries ride back from forked pool
workers as pickled plain dicts and are reassembled in grid order, so
the per-cell telemetry — like the values themselves — is bit-identical
to a serial run.  A summary that cannot be pickled raises
:class:`~repro.core.errors.TelemetryError` inside the worker with a
clear message instead of a bare pool crash.

Resilience: sweeps survive flaky cells and flaky infrastructure (see
:mod:`repro.analysis.resilience` and ``docs/robustness.md``).
``retries=k`` re-runs a cell that raises
:class:`~repro.core.errors.AlgorithmFailure` — or whose worker hangs or
dies — up to ``k`` extra times under :func:`retry_seed`-derived seeds;
``timeout=s`` kills pooled workers that exceed a per-cell wall-clock
deadline; ``journal=path`` checkpoints completed cells to JSONL so an
interrupted sweep resumes where it left off, byte-identically.  Every
cell's fate — including cells the historical harness dropped silently
under ``skip_failures`` — is recorded in ``Series.cell_outcomes``.
"""

from __future__ import annotations

import pickle
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.backend import current_backend_name, get_backend, use_backend
from ..core.errors import AlgorithmFailure, TelemetryError
from .resilience import CellOutcome, SweepJournal, retry_seed


@dataclass
class Point:
    """One aggregated measurement."""

    x: float
    values: List[float]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.values)

    @property
    def minimum(self) -> float:
        return min(self.values)

    @property
    def maximum(self) -> float:
        return max(self.values)


@dataclass
class Series:
    """A named sequence of aggregated measurements."""

    name: str
    points: List[Point] = field(default_factory=list)
    #: Per-cell metric summaries in grid order (x-major, then seed),
    #: populated when ``run_sweep`` ran with an ``observer_factory``.
    #: Each entry is ``{"x": ..., "seed": ..., "summary": {...}}``.
    cell_telemetry: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-cell audit records in grid order, populated by ``run_sweep``
    #: — including skipped cells, which earlier harness versions
    #: dropped without a trace.
    cell_outcomes: List[CellOutcome] = field(default_factory=list)

    def add(self, x: float, values: Iterable[float]) -> None:
        values = list(values)
        if not values:
            raise ValueError(f"series {self.name!r}: empty sample at x={x}")
        self.points.append(Point(x, values))

    def telemetry(self) -> Optional[Dict[str, Any]]:
        """All cell summaries merged deterministically (None if the
        sweep ran without an observer factory).  Skipped cells carry no
        summary and are excluded from the merge."""
        summaries = [
            cell["summary"]
            for cell in self.cell_telemetry
            if cell["summary"] is not None
        ]
        if not summaries:
            return None
        from ..obs.metrics import merge_summaries

        return merge_summaries(summaries)

    @property
    def skipped(self) -> List[CellOutcome]:
        """Cells that produced no measurement (declared failure under
        ``skip_failures``, worker timeout, or worker crash)."""
        return [o for o in self.cell_outcomes if not o.ok]

    @property
    def xs(self) -> List[float]:
        return [p.x for p in self.points]

    @property
    def means(self) -> List[float]:
        return [p.mean for p in self.points]

    def as_rows(self) -> List[Sequence[Any]]:
        return [
            (p.x, round(p.mean, 2), p.minimum, p.maximum)
            for p in self.points
        ]

    def as_dict(self) -> Dict[str, Any]:
        """Canonical JSON-able form — the byte-identity contract for
        journal resume (``json.dumps`` of this is byte-identical for a
        resumed vs uninterrupted sweep)."""
        return {
            "name": self.name,
            "points": [
                {"x": p.x, "values": p.values} for p in self.points
            ],
            "cell_telemetry": self.cell_telemetry,
            "cell_outcomes": [o.as_dict() for o in self.cell_outcomes],
        }


#: True while cells run on a process pool — summaries must pickle.
#: Set in the parent before forking so children inherit the flag and
#: pickle-check their summaries at the source (a clear error there
#: beats an opaque pipe crash on the way back).
_POOLED = False


def _check_observer(observer: Any) -> None:
    """Fail fast on factories producing unusable observers."""
    if not callable(getattr(observer, "summary", None)):
        raise TelemetryError(
            f"observer_factory produced {type(observer).__name__}, "
            "which has no summary() method — run_sweep telemetry "
            "needs MetricsObserver-style summaries"
        )
    if not callable(getattr(observer, "on_round_batch", None)):
        raise TelemetryError(
            f"observer_factory produced {type(observer).__name__}, "
            "which lacks the RunObserver callbacks — subclass "
            "repro.obs.RunObserver"
        )


def _cell_summary(observer: Any) -> Dict[str, Any]:
    """Extract and (when pooled) pickle-check an observer's summary."""
    summary = observer.summary()
    if _POOLED:
        try:
            pickle.dumps(summary)
        except Exception as exc:
            raise TelemetryError(
                f"cell telemetry summary from "
                f"{type(observer).__name__} is not picklable and "
                "cannot be merged back from a pool worker: "
                f"{exc}.  Keep summaries plain dicts of JSON-safe "
                "values, or run the sweep with workers=None."
            ) from exc
    return summary


def _attempt(
    x: float,
    effective_seed: int,
    measure: Callable[[float, int], float],
    observer_factory: Optional[Callable[[], Any]],
    backend: str,
) -> Tuple[float, Any]:
    """One measurement attempt; returns ``(value, observer)``.

    ``AlgorithmFailure`` and genuine bugs propagate to the caller —
    retry policy is the caller's business, not the attempt's.

    ``backend`` is the sweep's resolved engine backend, re-attached
    ambiently around the measurement so every ``run_local`` call it
    makes — serial or inside a forked pool worker — uses the same
    engine (the name travels to children as a plain string, never as
    inherited mutable scope state).
    """
    observer = observer_factory() if observer_factory is not None else None
    if observer is not None:
        _check_observer(observer)
    if observer is None:
        with use_backend(backend):
            return float(measure(x, effective_seed)), None
    from ..core.engine import observe_runs

    with use_backend(backend), observe_runs(observer):
        value = float(measure(x, effective_seed))
    return value, observer


def run_sweep(
    name: str,
    xs: Sequence[float],
    measure: Callable[[float, int], float],
    seeds: Sequence[int] = (0, 1, 2),
    skip_failures: bool = False,
    workers: Optional[int] = None,
    observer_factory: Optional[Callable[[], Any]] = None,
    retries: int = 0,
    timeout: Optional[float] = None,
    journal: Optional[str] = None,
    backend: Optional[str] = None,
    progress: Optional[Callable[[int, int, Any], None]] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 256,
) -> Series:
    """Measure ``measure(x, seed)`` over a grid × seeds.

    ``progress`` is an optional callback fired in the *parent* process
    after every settled cell — ``progress(done, total, outcome)`` with
    the running completed-cell count, the grid size, and the cell's
    :class:`CellOutcome` (``None`` for the batch of journal-replayed
    cells reported once up front).  It is plane-2 telemetry: purely
    informational, never part of the Series, and exceptions it raises
    propagate like any observer's.

    ``backend`` pins the engine backend every cell runs under
    (default: the ambient selection at call time, resolved once so
    pooled workers cannot drift from the parent).  The resolved name is
    part of the journal fingerprint — resuming a journaled sweep under
    a different backend is refused rather than silently mixing engines.

    With ``skip_failures`` (for randomized algorithms with a declared
    failure mode), runs that raise :class:`AlgorithmFailure` are
    excluded from the aggregates — but no longer silently: every
    skipped cell is recorded (x, seed, attempts, exception repr) in
    ``Series.cell_outcomes``.  A point with *no* surviving run still
    raises.  Any other exception (``TypeError``,
    ``ModelViolationError``, ...) is a genuine bug and always
    propagates.

    With ``retries=k``, a cell whose attempt raises
    :class:`AlgorithmFailure` — or, under a pool, whose worker hangs
    past ``timeout`` or dies outright — is re-run up to ``k`` more
    times, each attempt under the deterministic
    :func:`~repro.analysis.resilience.retry_seed` derived from
    ``(seed, attempt)`` (attempt 0 is ``seed`` itself, so ``retries=0``
    reproduces the historical harness bit-for-bit).

    With ``workers=N`` (N > 1), the grid × seed cells are fanned out to
    a fork-based process-per-cell pool.  Determinism contract:
    ``measure`` must be a pure function of ``(x, seed)`` — every cell
    seeds its own RNGs — so the returned :class:`Series` is
    bit-identical to a serial run; cells are reassembled in serial
    order regardless of completion order.  Where ``fork`` is
    unavailable the sweep silently runs serially.  A worker that dies
    without reporting (OOM-kill, hard interpreter abort) fails its own
    cell — recorded as a ``crashed`` outcome after retries — instead of
    taking the sweep down.  ``timeout`` (seconds, pool mode only: a
    serial sweep has no one to kill a hung cell) bounds each cell's
    wall clock; a worker past its deadline is killed and the cell
    requeued or recorded as ``timeout``.

    With ``observer_factory``, each cell runs under a fresh observer
    (attached ambiently via :func:`repro.core.observe_runs`, so every
    ``run_local`` call the measurement makes is covered) and the
    returned Series carries ``cell_telemetry`` in grid order —
    bit-identical whether the cells ran serially or pooled.  On a
    retried cell, the telemetry is the final attempt's.

    With ``journal=path``, completed cells are checkpointed to a JSONL
    file as they finish; re-running the same sweep with the same
    journal replays completed cells from disk and measures only the
    rest, producing a :class:`Series` byte-identical to an
    uninterrupted run (journaled summaries must be JSON-safe).  A
    journal written by a different sweep configuration is refused.

    With ``checkpoint_dir``, each cell additionally snapshots *inside*
    its runs at round boundaries (``checkpoint_every``; see
    :mod:`repro.core.checkpoint`), one ``cell-NNNN`` directory per
    cell.  The two recovery layers compose: re-launching a killed
    sweep with the same ``journal`` and ``checkpoint_dir`` replays
    finished cells from the journal and resumes the cell that was
    in flight from its last round-boundary snapshot instead of round
    0.  The checkpoint configuration is part of the journal
    fingerprint, so a journal cannot be resumed under a different
    snapshot cadence.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    effective_backend = (
        backend if backend is not None else current_backend_name()
    )
    get_backend(effective_backend)  # fail fast on unknown names
    cells = [(x, seed) for x in xs for seed in seeds]
    sweep_journal = None
    if journal is not None:
        sweep_journal = SweepJournal(
            journal,
            {
                "name": name,
                "xs": list(xs),
                "seeds": list(seeds),
                "retries": retries,
                "timeout": timeout,
                "skip_failures": skip_failures,
                "telemetry": observer_factory is not None,
                "cells": len(cells),
                "backend": effective_backend,
                # In-run snapshot cadence (the directory path itself is
                # machine-local and deliberately excluded).
                "checkpoint": checkpoint_dir is not None,
                "checkpoint_every": (
                    checkpoint_every if checkpoint_dir is not None else None
                ),
            },
        )
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    summaries: List[Any] = [None] * len(cells)
    done: Dict[int, Any] = {}
    settled = [0]
    ticker: Optional[Callable[[Any], None]] = None
    if progress is not None:
        total = len(cells)

        def ticker(outcome: Any) -> None:
            settled[0] += 1
            progress(settled[0], total, outcome)

    try:
        if sweep_journal is not None:
            done = dict(sweep_journal.completed)
            for index, (outcome, summary) in done.items():
                outcomes[index] = outcome
                summaries[index] = summary
            if done and progress is not None:
                settled[0] = len(done)
                progress(settled[0], len(cells), None)
        pool_ctx = None
        if workers is not None and workers > 1 and len(cells) > 1:
            import multiprocessing

            try:
                pool_ctx = multiprocessing.get_context("fork")
            except ValueError:  # platform without fork: degrade to serial
                pool_ctx = None
        if pool_ctx is None:
            _run_serial(
                cells,
                measure,
                observer_factory,
                skip_failures,
                retries,
                sweep_journal,
                done,
                outcomes,
                summaries,
                effective_backend,
                ticker,
                checkpoint_dir,
                checkpoint_every,
            )
        else:
            assert workers is not None
            _run_pooled(
                cells,
                measure,
                observer_factory,
                skip_failures,
                retries,
                timeout,
                min(workers, len(cells)),
                pool_ctx,
                sweep_journal,
                done,
                outcomes,
                summaries,
                effective_backend,
                ticker,
                checkpoint_dir,
                checkpoint_every,
            )
    finally:
        if sweep_journal is not None:
            sweep_journal.close()
    series = Series(name)
    series.cell_outcomes = [o for o in outcomes if o is not None]
    per_x = len(seeds)
    for i, x in enumerate(xs):
        chunk = [o for o in outcomes[i * per_x:(i + 1) * per_x] if o]
        values = [o.value for o in chunk if o.ok]
        if not values and chunk:
            detail = "; ".join(
                f"seed={o.seed} [{o.status}] {o.error}" for o in chunk
            )
            raise ValueError(
                f"series {name!r}: every cell at x={x} was skipped "
                f"— {detail}"
            )
        series.add(x, values)
    if observer_factory is not None:
        series.cell_telemetry = [
            {"x": x, "seed": seed, "summary": summaries[index]}
            for index, (x, seed) in enumerate(cells)
        ]
    return series


def _run_serial(
    cells: List[Tuple[float, int]],
    measure: Callable[[float, int], float],
    observer_factory: Optional[Callable[[], Any]],
    skip_failures: bool,
    retries: int,
    sweep_journal: Optional[SweepJournal],
    done: Dict[int, Any],
    outcomes: List[Optional[CellOutcome]],
    summaries: List[Any],
    backend: str,
    ticker: Optional[Callable[[Any], None]] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 256,
) -> None:
    """Evaluate cells inline, in grid order, with bounded retries."""
    from .resilience import _run_cell

    for index, (x, seed) in enumerate(cells):
        if index in done:
            continue
        attempt = 0
        while True:
            effective = retry_seed(seed, attempt)
            try:
                value, observer = _run_cell(
                    lambda i, a: _attempt(
                        x, effective, measure, observer_factory, backend
                    ),
                    index,
                    attempt,
                    checkpoint_dir,
                    checkpoint_every,
                )
            except AlgorithmFailure as exc:
                if attempt < retries:
                    attempt += 1
                    continue
                if not skip_failures:
                    raise
                outcomes[index] = CellOutcome(
                    x, seed, "failed", None, attempt + 1, effective,
                    repr(exc),
                )
                break
            summaries[index] = (
                _cell_summary(observer) if observer is not None else None
            )
            outcomes[index] = CellOutcome(
                x, seed, "ok", value, attempt + 1, effective
            )
            break
        if sweep_journal is not None:
            assert outcomes[index] is not None
            sweep_journal.record(index, outcomes[index], summaries[index])
        if ticker is not None:
            ticker(outcomes[index])


def _run_pooled(
    cells: List[Tuple[float, int]],
    measure: Callable[[float, int], float],
    observer_factory: Optional[Callable[[], Any]],
    skip_failures: bool,
    retries: int,
    timeout: Optional[float],
    workers: int,
    pool_ctx: Any,
    sweep_journal: Optional[SweepJournal],
    done: Dict[int, Any],
    outcomes: List[Optional[CellOutcome]],
    summaries: List[Any],
    backend: str,
    ticker: Optional[Callable[[Any], None]] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 256,
) -> None:
    """Fan cells out to the resilient process-per-cell fork pool."""
    from .resilience import run_cells_resilient

    def child_payload(index: int, attempt: int) -> Tuple[Any, ...]:
        # Runs in a forked child; ships a picklable verdict, never an
        # uncaught exception (an unreported death is a "crashed" cell).
        x, seed = cells[index]
        try:
            try:
                value, observer = _attempt(
                    x,
                    retry_seed(seed, attempt),
                    measure,
                    observer_factory,
                    backend,
                )
            except AlgorithmFailure as exc:
                # Declared failures cross the pipe as strings — fault
                # plans and run metadata hanging off the exception may
                # not pickle, and the parent only needs the message.
                return ("failed", str(exc), repr(exc))
            summary = (
                _cell_summary(observer) if observer is not None else None
            )
            return ("ok", value, summary)
        except Exception as exc:  # genuine bug: propagate to the parent
            try:
                pickle.dumps(exc)
                return ("error", exc)
            except Exception:
                return ("error_repr", repr(exc))

    def classify(status: str, payload: Any) -> bool:
        if status != "done":  # hung (timeout) or dead (crashed) worker
            return True
        kind = payload[0]
        if kind == "ok":
            return False
        if kind == "failed":
            return True
        if kind == "error":
            raise payload[1]
        raise RuntimeError(
            "sweep worker raised an exception that could not cross "
            f"the process boundary: {payload[1]}"
        )

    def on_result(
        index: int, status: str, payload: Any, attempts: int
    ) -> None:
        x, seed = cells[index]
        effective = retry_seed(seed, attempts - 1)
        summary = None
        if status == "timeout":
            outcome = CellOutcome(
                x, seed, "timeout", None, attempts, effective,
                f"worker killed after exceeding the {timeout}s "
                "per-cell deadline",
            )
        elif status == "crashed":
            outcome = CellOutcome(
                x, seed, "crashed", None, attempts, effective,
                "worker process died without reporting a result",
            )
        elif payload[0] == "ok":
            outcome = CellOutcome(
                x, seed, "ok", payload[1], attempts, effective
            )
            summary = payload[2]
        else:  # ("failed", message, repr)
            if not skip_failures:
                raise AlgorithmFailure(payload[1])
            outcome = CellOutcome(
                x, seed, "failed", None, attempts, effective, payload[2]
            )
        outcomes[index] = outcome
        summaries[index] = summary
        if sweep_journal is not None:
            sweep_journal.record(index, outcome, summary)
        if ticker is not None:
            ticker(outcome)

    global _POOLED
    previous_pooled = _POOLED
    _POOLED = True
    try:
        run_cells_resilient(
            pool_ctx,
            len(cells),
            child_payload,
            classify,
            workers=workers,
            retries=retries,
            timeout=timeout,
            skip=done,
            on_result=on_result,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )
    finally:
        _POOLED = previous_pooled


@dataclass
class ExperimentRecord:
    """A finished experiment: series plus free-form annotations.

    ``checks`` holds named boolean outcomes (e.g. "all outputs verified
    by the LCL checker", "every measurement respects the Theorem 4
    bound") so bench output states its own validity.
    """

    experiment_id: str
    title: str
    series: List[Series] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Named metric summaries (``MetricsObserver.summary()`` shape),
    #: e.g. one merged summary per sweep; rendered as its own section.
    telemetry: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def add_series(self, series: Series) -> None:
        self.series.append(series)
        merged = series.telemetry()
        if merged is not None:
            self.add_telemetry(series.name, merged)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def add_telemetry(self, name: str, summary: Dict[str, Any]) -> None:
        self.telemetry[name] = summary

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def as_dict(self) -> Dict[str, Any]:
        """Canonical JSON-able form (see :meth:`Series.as_dict`)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "series": [s.as_dict() for s in self.series],
            "checks": self.checks,
            "notes": self.notes,
            "telemetry": self.telemetry,
        }

    def render(self) -> str:
        from .tables import render_table

        lines = [f"== {self.experiment_id}: {self.title} =="]
        for series in self.series:
            lines.append(f"-- {series.name}")
            lines.append(
                render_table(
                    ["x", "mean", "min", "max"], series.as_rows()
                )
            )
            skipped = series.skipped
            if skipped:
                lines.append(
                    f"warning: {len(skipped)} cell(s) excluded from "
                    f"{series.name!r} aggregates:"
                )
                for outcome in skipped:
                    lines.append(
                        f"  x={outcome.x} seed={outcome.seed} "
                        f"[{outcome.status}] after "
                        f"{outcome.attempts} attempt(s): {outcome.error}"
                    )
        for name, summary in self.telemetry.items():
            lines.append(f"-- telemetry: {name}")
            rows = []
            for metric, snap in summary.get("metrics", {}).items():
                if snap["type"] in ("counter", "gauge"):
                    rows.append([metric, snap["type"], snap["value"]])
                else:
                    mean = snap["mean"]
                    rows.append(
                        [
                            metric,
                            "histogram",
                            f"mean={mean:.3g} max={snap['max']}"
                            if mean is not None
                            else "empty",
                        ]
                    )
            lines.append(
                render_table(["metric", "type", "value"], rows)
            )
        for name, ok in self.checks.items():
            lines.append(f"check {name}: {'PASS' if ok else 'FAIL'}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
