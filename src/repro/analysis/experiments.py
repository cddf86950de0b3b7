"""Experiment harness: parameter sweeps with seeds and aggregation.

Benchmarks and examples share this machinery: a :class:`Sweep` runs a
measurement function over a parameter grid with several seeds, collects
:class:`Series` of (x, mean, min, max), and renders them through
:mod:`repro.analysis.tables`.  Keeping it here (rather than in each
bench file) makes every experiment's shape identical: generate → run →
verify → record.

One cell loop: inside :func:`run_sweep`, one function measures an
attempt of a cell (at its :func:`retry_seed`, under the backend
resolved once, a fresh observer and, with ``checkpoint_dir``, the
cell's in-run checkpoint scope) and one function settles a cell (its
:class:`CellOutcome`, its journal line, one progress tick).  A serial
sweep calls both in process, in grid order, retrying
:class:`~repro.core.errors.AlgorithmFailure`; a pooled sweep
(``workers=N``) calls the same two from a process-per-cell fork pool,
where a child measures and the parent settles.

Telemetry: ``run_sweep(observer_factory=...)`` attaches a fresh
observer (see :mod:`repro.obs`) around each cell's measurement and
collects its ``summary()`` dict.  Summaries ride back from forked pool
workers as pickled plain dicts and are reassembled in grid order, so
the per-cell telemetry — like the values themselves — is bit-identical
to a serial run.  A forked child pickle-checks its summary before
sending it: one that cannot be pickled raises
:class:`~repro.core.errors.TelemetryError` naming the observer class,
instead of a bare pool crash.

Resilience: sweeps survive flaky cells and flaky infrastructure (see
:mod:`repro.analysis.resilience` and ``docs/robustness.md``).
``retries=k`` re-runs a cell that raises
:class:`~repro.core.errors.AlgorithmFailure` — or whose pooled worker
dies — up to ``k`` extra times under :func:`retry_seed`-derived seeds;
``journal=path`` checkpoints completed cells to JSONL so an
interrupted sweep resumes where it left off, byte-identically.  Every
cell's fate, a crashed worker's included, is recorded in
``Series.cell_outcomes``.
"""

from __future__ import annotations

import os
import pickle
import statistics
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.backend import current_backend_name, get_backend, use_backend
from ..core.checkpoint import checkpointing
from ..core.engine import observe_runs
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
    #: — crashed cells included.
    cell_outcomes: List[CellOutcome] = field(default_factory=list)

    def add(self, x: float, values: Iterable[float]) -> None:
        values = list(values)
        if not values:
            raise ValueError(f"series {self.name!r}: empty sample at x={x}")
        self.points.append(Point(x, values))

    def telemetry(self) -> Optional[Dict[str, Any]]:
        """All cell summaries merged deterministically (None if the
        sweep ran without an observer factory).  Crashed cells carry no
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
        """Cells that produced no measurement: pooled workers that
        died without reporting, after their retries."""
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


def run_sweep(
    name: str,
    xs: Sequence[float],
    measure: Callable[[float, int], float],
    seeds: Sequence[int] = (0, 1, 2),
    workers: Optional[int] = None,
    observer_factory: Optional[Callable[[], Any]] = None,
    retries: int = 0,
    journal: Optional[str] = None,
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

    Every cell runs under the engine backend selected at call time
    (pick one with :func:`repro.core.use_backend` or
    ``REPRO_BACKEND``), resolved once so pooled workers cannot drift
    from the parent.  The resolved name is part of the journal
    fingerprint — resuming a journaled sweep under a different backend
    is refused rather than silently mixing engines.

    A cell whose measurement raises :class:`AlgorithmFailure` is
    re-run up to ``retries`` more times — as is, under a pool, a cell
    whose worker dies outright — each attempt under the deterministic
    :func:`~repro.analysis.resilience.retry_seed` derived from
    ``(seed, attempt)`` (attempt 0 is ``seed`` itself, so ``retries=0``
    measures every cell at its own seed).  A declared failure that
    outlives its retries aborts the sweep with that
    :class:`AlgorithmFailure`; any other exception (``TypeError``,
    ``ModelViolationError``, ...) is a genuine bug and propagates at
    once.

    With ``workers=N`` (N > 1), the grid × seed cells are fanned out to
    a fork-based process-per-cell pool.  Determinism contract:
    ``measure`` must be a pure function of ``(x, seed)`` — every cell
    seeds its own RNGs — so the returned :class:`Series` is
    bit-identical to a serial run; cells are reassembled in serial
    order regardless of completion order.  Where ``fork`` is
    unavailable the sweep silently runs serially.  A worker that dies
    without reporting (OOM-kill, hard interpreter abort) fails its own
    cell — recorded as a ``crashed`` outcome after retries — instead of
    taking the sweep down; a point whose every cell crashed raises.

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
    backend = current_backend_name()
    get_backend(backend)  # fail fast on unknown names
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
                "telemetry": observer_factory is not None,
                "cells": len(cells),
                "backend": backend,
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
    settled = 0

    def measure_attempt(index: int, attempt: int) -> Tuple[float, Any]:
        """Attempt ``attempt`` of cell ``index``: ``(value, observer)``.

        The measurement runs at the attempt's :func:`retry_seed`, under
        the backend resolved above (re-attached by name, so a forked
        child uses it too), a fresh observer from ``observer_factory``
        and, with ``checkpoint_dir``, the cell's own in-run checkpoint
        scope.  ``resume=True`` is safe on a first attempt: an empty
        cell directory starts fresh, and snapshots of another run
        identity (a retry's derived seed) are rejected by fingerprint.
        ``AlgorithmFailure`` and genuine bugs propagate to the caller.
        """
        x, seed = cells[index]
        observer = None
        if observer_factory is not None:
            observer = observer_factory()
            _check_observer(observer)
        with ExitStack() as scopes:
            scopes.enter_context(use_backend(backend))
            if observer is not None:
                scopes.enter_context(observe_runs(observer))
            if checkpoint_dir is not None:
                scopes.enter_context(
                    checkpointing(
                        os.path.join(checkpoint_dir, f"cell-{index:04d}"),
                        every_rounds=checkpoint_every,
                        resume=True,
                    )
                )
            value = float(measure(x, retry_seed(seed, attempt)))
        return value, observer

    def settle(
        index: int,
        attempts: int,
        status: str,
        value: Optional[float] = None,
        summary: Any = None,
        error: str = "",
    ) -> None:
        """Record cell ``index`` after its final attempt: its outcome,
        its journal line and one progress tick."""
        nonlocal settled
        x, seed = cells[index]
        outcome = CellOutcome(
            x, seed, status, value, attempts,
            retry_seed(seed, attempts - 1), error,
        )
        outcomes[index] = outcome
        summaries[index] = summary
        if sweep_journal is not None:
            sweep_journal.record(index, outcome, summary)
        settled += 1
        if progress is not None:
            progress(settled, len(cells), outcome)

    try:
        if sweep_journal is not None:
            for index, (outcome, summary) in sweep_journal.completed.items():
                outcomes[index] = outcome
                summaries[index] = summary
            settled = len(sweep_journal.completed)
            if settled and progress is not None:
                progress(settled, len(cells), None)
        pending = [i for i, o in enumerate(outcomes) if o is None]
        pool = None
        if workers is not None and workers > 1 and len(cells) > 1:
            import multiprocessing

            try:
                pool = multiprocessing.get_context("fork")
            except ValueError:  # platform without fork: degrade to serial
                pool = None
        if pool is None:
            # In process, never forked: a caller that records what its
            # runs do (a profiler, a benchmark's digests) sees every run.
            for index in pending:
                attempt = 0
                while True:
                    try:
                        value, observer = measure_attempt(index, attempt)
                        break
                    except AlgorithmFailure:
                        if attempt == retries:
                            raise
                        attempt += 1
                summary = observer.summary() if observer is not None else None
                settle(index, attempt + 1, "ok", value, summary)
        else:
            assert workers is not None
            _run_forked(
                pool,
                min(workers, len(cells)),
                retries,
                pending,
                measure_attempt,
                settle,
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


def _run_forked(
    pool: Any,
    workers: int,
    retries: int,
    pending: List[int],
    measure_attempt: Callable[[int, int], Tuple[float, Any]],
    settle: Callable[..., None],
) -> None:
    """Run the ``pending`` cells of a sweep on a process-per-cell fork
    pool.

    Cells launch in index order, at most ``workers`` children at once,
    and the parent blocks on the result pipes with
    :func:`multiprocessing.connection.wait` — no polling interval.  A
    child that dies without reporting (SIGKILL, OOM kill, hard
    interpreter abort) fails its own cell: like a declared failure it
    is re-run at the next attempt while ``retries`` last, and then
    settles as ``crashed``.  A declared failure past its retries, or
    any other exception, aborts the sweep once every live child is
    killed.  Retried cells rejoin the back of the queue, so cells
    settle in completion order; ``run_sweep`` reassembles them in grid
    order.
    """
    import multiprocessing.connection as mp_connection

    queue = deque((index, 0) for index in pending)
    # result pipe -> (index, attempt, process)
    active: Dict[Any, Tuple[int, int, Any]] = {}
    try:
        while queue or active:
            while queue and len(active) < workers:
                index, attempt = queue.popleft()
                recv_end, send_end = pool.Pipe(duplex=False)
                proc = pool.Process(
                    target=_forked_attempt,
                    args=(send_end, measure_attempt, index, attempt),
                )
                proc.start()
                # Close the parent's copy of the write end: a child
                # that dies without sending then yields EOF instead of
                # a pipe that never becomes ready.
                send_end.close()
                active[recv_end] = (index, attempt, proc)
            for conn in mp_connection.wait(list(active)):
                index, attempt, proc = active.pop(conn)
                try:
                    verdict = conn.recv()
                except EOFError:
                    verdict = (
                        "crashed",
                        "worker process died without reporting a result",
                    )
                conn.close()
                proc.join()
                kind = verdict[0]
                if kind == "ok":
                    settle(index, attempt + 1, "ok", verdict[1], verdict[2])
                elif kind in ("failed", "crashed") and attempt < retries:
                    queue.append((index, attempt + 1))
                elif kind == "crashed":
                    settle(index, attempt + 1, "crashed", error=verdict[1])
                elif kind == "failed":
                    raise AlgorithmFailure(verdict[1])
                elif kind == "error":
                    raise verdict[1]
                else:
                    raise RuntimeError(
                        "sweep worker raised an exception that could not "
                        f"cross the process boundary: {verdict[1]}"
                    )
    finally:
        for conn, (_, _, proc) in active.items():
            proc.kill()
            proc.join()
            conn.close()


def _forked_attempt(
    conn: Any,
    measure_attempt: Callable[[int, int], Tuple[float, Any]],
    index: int,
    attempt: int,
) -> None:
    """Forked child: measure one attempt and send the parent a
    picklable verdict — ``("ok", value, summary)``, ``("failed",
    message)``, ``("error", exception)`` or ``("error_repr", repr)`` —
    so that only a child that dies outright leaves its pipe empty."""
    verdict: Tuple[Any, ...]
    try:
        value, observer = measure_attempt(index, attempt)
        summary = observer.summary() if observer is not None else None
        try:
            pickle.dumps(summary)
        except Exception as exc:
            # A clear error here beats an opaque pipe failure later.
            raise TelemetryError(
                f"cell telemetry summary from "
                f"{type(observer).__name__} is not picklable and "
                "cannot be merged back from a pool worker: "
                f"{exc}.  Keep summaries plain dicts of JSON-safe "
                "values, or run the sweep with workers=None."
            ) from exc
        verdict = ("ok", value, summary)
    except AlgorithmFailure as exc:
        # Declared failures cross the pipe as strings — fault plans and
        # run metadata hanging off the exception may not pickle, and
        # the parent only needs the message.
        verdict = ("failed", str(exc))
    except Exception as exc:  # a genuine bug: the parent re-raises it
        try:
            pickle.dumps(exc)
            verdict = ("error", exc)
        except Exception:
            verdict = ("error_repr", repr(exc))
    except BaseException as exc:
        # KeyboardInterrupt, SystemExit, ...: the child exits right
        # after reporting, and the parent raises in its place.
        verdict = ("error_repr", repr(exc))
    try:
        conn.send(verdict)
    finally:
        conn.close()


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
