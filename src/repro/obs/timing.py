"""Plane 2: the nondeterministic timing/resource sidecar.

The deterministic plane (:class:`~repro.obs.metrics.MetricsObserver`,
:class:`~repro.obs.trace.JsonlTraceObserver`) is held to byte-identity
across engines, backends, and repeated runs of the same seed.  Wall
clock, memory, and GC activity can never meet that bar — so they live
here, in a **separate sidecar stream** that is *excluded from the
byte-identity contract by design*:

- :class:`TimingSidecarObserver` writes its own JSONL file
  (``schema repro.obs.timing``), never interleaved with the
  deterministic trace.  Two runs of the same seed produce identical
  traces and *different* sidecars; that is correct, not a bug.
- :class:`ProgressReporter` renders live progress (round counter,
  rounds/sec) to a terminal stream; it writes nothing durable.

Both implement only the batch callbacks, which every engine calls.
``on_backend_info`` attributes each run to the engine (and vectorized
kernel) that executed it.

Nothing in this module imports numpy: the sidecar must work in the
no-numpy environment exactly as in the accelerated one.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from typing import Any, Dict, Optional, TextIO, Union

from ..core.engine import RunMeta, RunResult, SETUP_ROUND
from ..core.errors import FaultEvent
from .observer import RoundBatch, RunObserver

#: Stamped on every ``timing_run_start`` line.  The sidecar schema is
#: versioned independently of the deterministic trace schema — readers
#: of one must never assume anything about the other.
TIMING_SCHEMA = "repro.obs.timing"
TIMING_VERSION = 1


def _rss_kb() -> Optional[int]:
    """Peak resident set size in KiB, or ``None`` where unavailable."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    rss = usage.ru_maxrss
    if sys.platform == "darwin":
        rss //= 1024
    return int(rss)


def _gc_collections() -> int:
    """Total collections across all GC generations."""
    return sum(stat.get("collections", 0) for stat in gc.get_stats())


class TimingSidecarObserver(RunObserver):
    """Wall-clock/resource telemetry as a JSONL sidecar stream.

    Parameters
    ----------
    sink:
        Path or writable text stream for the sidecar JSONL.
    sample_every:
        Emit a ``timing_round`` line every this-many rounds (default
        64; per-round lines for million-round runs would dwarf the data
        they annotate).  Round 0 and the final round always sample.

    Run start, end and abort lines carry ``rss_kb`` and
    ``gc_collections`` readings.  ``run_local`` pauses the cyclic
    garbage collector for the length of a run, so the readings on
    ``timing_run_start`` and ``timing_run_end`` bracket a paused
    collector: the count moves only between runs.

    Every line carries ``t`` — seconds since the observer was attached
    (``time.perf_counter`` deltas, monotonic) — never absolute wall
    dates, so sidecars diff cleanly even though they are not
    byte-stable.

    The sidecar survives dying runs: ``on_run_abort`` writes a final
    ``timing_run_abort`` line and flushes, so a run killed by a
    failure, an injected fault budget, or ``KeyboardInterrupt`` keeps
    its timing plane up to the fatal round.  Supervisor layers (see
    :mod:`repro.supervise`) append their own lifecycle rows — retry,
    degradation, resume — through :meth:`record_event`.

    Being plane-2, the sidecar is excluded from the resume
    byte-identity contract: it is ``checkpoint_capable`` with a trivial
    (``None``) resumable position, and a resumed run simply *appends*
    to the sidecar — the interrupted rows remain, annotated by the
    supervisor's ``resume`` event, rather than being rewound.
    """

    #: Plane-2: participates in checkpointed runs without rewinding
    #: (see class docstring).
    checkpoint_capable = True

    def __init__(
        self,
        sink: Union[str, TextIO],
        *,
        sample_every: int = 64,
    ) -> None:
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        if isinstance(sink, str):
            self._stream: TextIO = open(sink, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = sink
            self._owns_stream = False
        self.sample_every = sample_every
        self.lines_written = 0
        self._t0 = time.perf_counter()
        self._run = -1
        self._run_t0 = 0.0
        self._last_sample_t = 0.0
        self._rounds = 0
        self._backend: Optional[str] = None
        self._kernel: Optional[str] = None

    # -- plumbing ---------------------------------------------------

    def _emit(self, obj: Dict[str, Any]) -> None:
        self._stream.write(
            json.dumps(obj, sort_keys=True, separators=(",", ":"))
        )
        self._stream.write("\n")
        self.lines_written += 1

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _resource_fields(self) -> Dict[str, Any]:
        return {"rss_kb": _rss_kb(), "gc_collections": _gc_collections()}

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()
        else:
            self._stream.flush()

    def __enter__(self) -> "TimingSidecarObserver":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- batch-plane callbacks --------------------------------------

    def on_run_start(self, meta: RunMeta) -> None:
        self._run += 1
        self._run_t0 = self._now()
        self._last_sample_t = self._run_t0
        self._rounds = 0
        self._backend = None
        self._kernel = None
        line = {
            "event": "timing_run_start",
            "schema": TIMING_SCHEMA,
            "version": TIMING_VERSION,
            "run": self._run,
            "algorithm": meta.algorithm,
            "n": meta.n,
            "t": round(self._run_t0, 6),
        }
        line.update(self._resource_fields())
        self._emit(line)

    def on_backend_info(
        self, backend: str, kernel: Optional[str]
    ) -> None:
        self._backend = backend
        self._kernel = kernel

    def on_round_batch(self, batch: RoundBatch) -> None:
        if batch.round_index == SETUP_ROUND:
            return
        self._rounds = batch.round_index + 1
        if (
            batch.round_index % self.sample_every != 0
            and batch.round_index != 0
        ):
            return
        now = self._now()
        dt = now - self._last_sample_t
        self._last_sample_t = now
        self._emit(
            {
                "event": "timing_round",
                "run": self._run,
                "round": batch.round_index,
                "active": batch.active,
                "t": round(now, 6),
                "dt": round(dt, 6),
            }
        )

    def on_run_fault(self, round_index: int, fault: FaultEvent) -> None:
        self._emit(
            {
                "event": "timing_run_fault",
                "run": self._run,
                "round": round_index,
                "kind": getattr(fault, "kind", None),
                "t": round(self._now(), 6),
            }
        )

    def on_run_abort(
        self, round_index: int, error: BaseException
    ) -> None:
        """Finalize the sidecar for a dying run: one terminal line with
        the fatal round and error type, then a flush so the bytes
        survive the process (the engine re-raises right after)."""
        line = {
            "event": "timing_run_abort",
            "run": self._run,
            "round": round_index,
            "error": type(error).__name__,
            "t": round(self._now(), 6),
        }
        line.update(self._resource_fields())
        self._emit(line)
        self._stream.flush()

    def record_event(self, kind: str, **fields: Any) -> None:
        """Append a supervisor lifecycle row (retry, degradation,
        resume, outcome) and flush.  ``kind`` lands in the ``event``
        column prefixed ``supervisor_``; extra fields pass through."""
        line: Dict[str, Any] = dict(fields)
        line["event"] = f"supervisor_{kind}"
        line["t"] = round(self._now(), 6)
        self._emit(line)
        self._stream.flush()

    def on_run_end(self, result: RunResult) -> None:
        now = self._now()
        wall = now - self._run_t0
        line = {
            "event": "timing_run_end",
            "run": self._run,
            "rounds": result.rounds,
            "failures": len(result.failures),
            "backend": self._backend,
            "kernel": self._kernel,
            "t": round(now, 6),
            "wall_seconds": round(wall, 6),
            "rounds_per_sec": (
                round(result.rounds / wall, 3) if wall > 0 else None
            ),
        }
        line.update(self._resource_fields())
        self._emit(line)
        self._stream.flush()


def read_timing_sidecar(path: str):
    """Stream a timing sidecar's JSONL lines as dicts.

    Rejects files whose first line declares a foreign schema — a
    deterministic trace fed here by mistake should error loudly, not
    be half-parsed.
    """
    with open(path, "r", encoding="utf-8") as stream:
        first = True
        for raw in stream:
            raw = raw.strip()
            if not raw:
                continue
            line = json.loads(raw)
            if first:
                first = False
                schema = line.get("schema")
                if schema != TIMING_SCHEMA:
                    raise ValueError(
                        f"{path!r} declares schema {schema!r}; "
                        f"expected {TIMING_SCHEMA!r} — deterministic "
                        "traces belong to repro.obs.trace.read_trace"
                    )
                version = line.get("version")
                if version is not None and version > TIMING_VERSION:
                    raise ValueError(
                        f"{path!r} declares timing schema version "
                        f"{version!r}; this reader understands "
                        f"<= {TIMING_VERSION}"
                    )
            yield line


class ProgressReporter(RunObserver):
    """Live run progress on a terminal stream (default stderr).

    Prints a throttled carriage-return status line per sampled round —
    run index, round counter, active vertices, rounds/sec — and a final
    newline-terminated summary per run.  Purely cosmetic: nothing it
    writes is machine-read, and it never touches the deterministic
    plane.
    """

    #: Nothing durable to rewind — a checkpointed run may keep its
    #: progress ticker attached.
    checkpoint_capable = True

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        *,
        min_interval: float = 0.2,
        label: str = "",
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.label = label
        self._run = -1
        self._run_t0 = 0.0
        self._last_print = 0.0
        self._algorithm = ""
        self._dirty = False

    def _write(self, text: str) -> None:
        try:
            self._stream.write(text)
            self._stream.flush()
        except (OSError, ValueError):  # closed/broken terminal: go mute
            pass

    def on_run_start(self, meta: RunMeta) -> None:
        self._run += 1
        self._algorithm = meta.algorithm
        self._run_t0 = time.perf_counter()
        self._last_print = 0.0

    def on_round_batch(self, batch: RoundBatch) -> None:
        if batch.round_index == SETUP_ROUND:
            return
        now = time.perf_counter()
        if now - self._last_print < self.min_interval:
            return
        self._last_print = now
        elapsed = now - self._run_t0
        rps = (batch.round_index + 1) / elapsed if elapsed > 0 else 0.0
        prefix = f"{self.label}: " if self.label else ""
        self._write(
            f"\r{prefix}{self._algorithm} run {self._run} "
            f"round {batch.round_index} active {batch.active} "
            f"({rps:.1f} rounds/s)   "
        )
        self._dirty = True

    def on_run_end(self, result: RunResult) -> None:
        elapsed = time.perf_counter() - self._run_t0
        prefix = f"{self.label}: " if self.label else ""
        lead = "\r" if self._dirty else ""
        self._write(
            f"{lead}{prefix}{self._algorithm} run {self._run} done: "
            f"{result.rounds} rounds in {elapsed:.2f}s"
            f"{', ' + str(len(result.failures)) + ' failures' if result.failures else ''}"
            "          \n"
        )
        self._dirty = False


def sweep_progress_printer(
    stream: Optional[TextIO] = None, *, label: str = "sweep"
):
    """A ``run_sweep(progress=...)`` callback rendering cells-done
    counts as a carriage-return ticker on ``stream`` (default stderr)."""
    out = stream if stream is not None else sys.stderr

    def tick(done: int, total: int, outcome: Any) -> None:
        status = getattr(outcome, "status", None)
        tail = f" last={status}" if status else ""
        end = "\n" if done >= total else ""
        try:
            out.write(f"\r{label}: {done}/{total} cells{tail}   {end}")
            out.flush()
        except (OSError, ValueError):
            pass

    return tick


__all__ = [
    "TIMING_SCHEMA",
    "TIMING_VERSION",
    "ProgressReporter",
    "TimingSidecarObserver",
    "read_timing_sidecar",
    "sweep_progress_printer",
]
