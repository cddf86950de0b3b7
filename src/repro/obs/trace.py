"""JSONL trace streaming with a versioned, deterministic schema.

:class:`JsonlTraceObserver` writes one JSON object per engine event,
one per line.  Determinism is a hard contract (an acceptance criterion
of the telemetry layer): the bytes are identical across repeated runs
of the same seed and across every engine and backend, because

- keys are sorted and separators are fixed (no whitespace variance);
- no wall-clock timestamps and no engine-identifying fields appear;
- values are canonicalized by :func:`_json_safe` — sets are sorted,
  tuples become lists, and objects whose ``repr`` would embed a memory
  address are replaced by a stable type marker.

Schema (``schema``/``version`` stamped on the ``run_start`` line):

- ``run_start``: algorithm, model, n, m, max_degree, max_rounds, seed,
  and (unless ``topology=False``) the edge list — everything the
  shattering profiler needs to work from the trace alone.
- ``round_start`` / ``round_end``: round boundaries with activity
  counts; bulk-skipped sleeping rounds appear like any other round.
- ``publish`` (with estimated ``bytes``; the value itself only under
  ``payload_values=True``), ``halt`` (always carries the output value
  — profilers key on it), ``failure``.
- ``fault`` (v2): an injected fault from :mod:`repro.faults` — carries
  the fault ``kind`` (``crash``/``drop``/``duplicate``/``corrupt``/
  ``budget``) plus ``port``/``detail`` when set; ``v`` is ``null`` for
  run-level faults (budget exhaustion).
- ``run_end``: rounds, messages, failure count.

Per-vertex ``step`` events are off by default (``node_steps=True`` to
enable) — they dominate trace size without serving the built-in
profilers.

Version history: v1 had no ``fault`` events; v2 added them (and
nothing else), so every v1 trace is also a valid v2 trace.  v3 added
the constant ``emission_modes`` header field on ``run_start``,
declaring that the trace may have been produced by per-event *or*
batched (columnar) emission — deliberately **not** recording which,
so the bytes cannot betray the backend; event bodies are unchanged.
The reader accepts v1–v3 and rejects versions newer than it
understands.
"""

from __future__ import annotations

import json
import os
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Union,
)

from ..core.engine import RunMeta, RunResult, SETUP_ROUND
from ..core.errors import FaultEvent
from .observer import RoundBatch, RunObserver, iter_scalar_events

TRACE_SCHEMA = "repro.obs.trace"
TRACE_VERSION = 3

#: Schema versions :func:`read_trace` / :func:`iter_trace` understand.
SUPPORTED_TRACE_VERSIONS = (1, 2, 3)

#: v3 header metadata: the emission strategies a writer of this version
#: may use.  A constant kept for format stability — the header cannot
#: depend on which engine actually ran (design invariant; timing and
#: backend attribution live in the nondeterministic sidecar,
#: :mod:`repro.obs.timing`).
EMISSION_MODES = ("per-event", "batched")

#: Every ``event`` kind the schema above defines.
_EVENT_KINDS = (
    "run_start",
    "round_start",
    "step",
    "publish",
    "halt",
    "failure",
    "fault",
    "round_end",
    "run_end",
)


def _json_safe(value: Any) -> Any:
    """Canonical JSON form of an arbitrary published/output value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [_json_safe(item) for item in value]
        return sorted(
            items,
            key=lambda x: json.dumps(x, sort_keys=True, default=str),
        )
    if isinstance(value, dict):
        return {
            _key_str(k): _json_safe(v) for k, v in value.items()
        }
    if type(value).__repr__ is object.__repr__:
        # Default repr embeds a memory address — never let one reach
        # the stream, it would break byte-identity across runs.
        return {"__opaque__": type(value).__name__}
    return {"__repr__": repr(value)}


def _key_str(key: Any) -> str:
    if isinstance(key, str):
        return key
    return json.dumps(_json_safe(key), sort_keys=True, default=str)


def _dumps(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _value_json(value: Any) -> str:
    """Serialized form of one value field, byte-identical to how
    :func:`_dumps` renders it nested (same sort/separators)."""
    if type(value) is int:  # the hot case: halt outputs, publish ints
        return repr(value)
    return json.dumps(
        _json_safe(value), sort_keys=True, separators=(",", ":")
    )


class JsonlTraceObserver(RunObserver):
    """Stream engine events to a JSONL file (or open text stream).

    Every engine delivers whole rounds through :meth:`on_round_batch`,
    and every backend's batches serialize to the same bytes (pinned by
    the observer-neutrality relation).  The backend identity announced
    via ``on_backend_info`` is deliberately *not* written — trace bytes
    must not betray the backend.

    Parameters
    ----------
    target:
        Path to (over)write, or an already-open text stream (not
        closed by :meth:`close` in that case).
    payload_values:
        Include published values on ``publish`` lines (off by default;
        halt outputs are always included).
    topology:
        Include the edge list on ``run_start`` lines so profiles can
        be computed from the trace alone.
    node_steps:
        Emit a ``step`` line per vertex step (off by default; traces
        grow by n × rounds lines when enabled).
    resume:
        Open an existing ``target`` path without truncating it, so a
        checkpointed run (see :mod:`repro.core.checkpoint`) can rewind
        the stream to its snapshot position and continue — the resumed
        trace is byte-identical to an uninterrupted run's.  Ignored for
        stream targets (the caller owns their position).

    The observer is checkpoint-capable: its resumable position is the
    (run counter, event counter, stream offset) triple, and restoring
    it truncates everything the killed process wrote past the
    snapshot.  ``restore_checkpoint(None)`` rewinds to a brand-new
    trace (offset 0).
    """

    checkpoint_capable = True

    def __init__(
        self,
        target: Union[str, TextIO],
        *,
        payload_values: bool = False,
        topology: bool = True,
        node_steps: bool = False,
        resume: bool = False,
    ) -> None:
        if isinstance(target, str):
            mode = "r+" if resume and os.path.exists(target) else "w"
            self._stream: TextIO = open(target, mode, encoding="utf-8")
            if mode == "r+":
                self._stream.seek(0, os.SEEK_END)
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.payload_values = payload_values
        self.topology = topology
        self.node_steps = node_steps
        self.events_written = 0
        self._run = -1

    # -- plumbing -------------------------------------------------------
    def _emit(self, obj: Dict[str, Any]) -> None:
        self._stream.write(_dumps(obj))
        self._stream.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._owns_stream and not self._stream.closed:
            self._stream.close()

    # -- checkpoint protocol -------------------------------------------
    def checkpoint_state(self) -> Any:
        """Resumable position: everything needed to continue the
        stream byte-identically from this round boundary."""
        self._stream.flush()
        return {
            "run": self._run,
            "events": self.events_written,
            "pos": self._stream.tell(),
        }

    def restore_checkpoint(self, state: Any) -> None:
        """Rewind to a snapshot position (``None``: rewind to a brand
        new, empty trace).

        A positional restore seeks without truncating: any bytes the
        killed process wrote past the snapshot are — by the determinism
        contract — a byte-identical prefix of what the resumed run will
        rewrite in place, and a multi-slot resume restores *forward*
        (done slot after done slot, then the in-flight snapshot), so
        truncating here would chop positions a later slot still needs.
        Only the fresh-start reset truncates."""
        self._stream.flush()
        if state is None:
            self._run = -1
            self.events_written = 0
            self._stream.seek(0)
            self._stream.truncate()
        else:
            self._run = state["run"]
            self.events_written = state["events"]
            self._stream.seek(state["pos"])

    def __enter__(self) -> "JsonlTraceObserver":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- engine callbacks ----------------------------------------------
    def on_run_start(self, meta: RunMeta) -> None:
        self._run += 1
        line: Dict[str, Any] = {
            "event": "run_start",
            "schema": TRACE_SCHEMA,
            "version": TRACE_VERSION,
            "emission_modes": list(EMISSION_MODES),
            "run": self._run,
            "algorithm": meta.algorithm,
            "model": meta.model.name,
            "n": meta.n,
            "m": meta.num_edges,
            "max_degree": meta.max_degree,
            "max_rounds": meta.max_rounds,
            "seed": meta.seed,
        }
        if self.topology and meta.graph is not None:
            # json writes the (u, v) tuples as arrays: no copy needed.
            line["edges"] = list(meta.graph.edges())
        self._emit(line)

    def on_run_fault(self, round_index: int, fault: FaultEvent) -> None:
        self._emit(self._fault_line(round_index, None, fault))

    def on_run_end(self, result: RunResult) -> None:
        self._emit(
            {
                "event": "run_end",
                "run": self._run,
                "rounds": result.rounds,
                "messages": result.messages,
                "failures": len(result.failures),
            }
        )
        self._stream.flush()

    def on_round_batch(self, batch: RoundBatch) -> None:
        """Serialize one round batch.

        Publish/halt-only rounds (the n = 10^6 regime) take a direct
        string-building path: every such line has only integer fields
        in a fixed sorted-key order, so the JSON is assembled with
        f-strings and written in one call instead of one
        ``json.dumps`` per event.  Rounds with faults, failures, or
        step lines are written line by line in
        :func:`iter_scalar_events` order.
        """
        r = batch.round_index
        run = self._run
        if r != SETUP_ROUND:
            self._stream.write(
                f'{{"active":{batch.active},"event":"round_start",'
                f'"round":{r},"run":{run}}}\n'
            )
            self.events_written += 1
        if (
            batch.faults
            or len(batch.failed)
            or (self.node_steps and len(batch.stepped))
        ):
            self._write_event_order(batch)
        else:
            self._write_publish_halt(batch, r, run)
        if r != SETUP_ROUND:
            self._stream.write(
                f'{{"awake":{batch.awake},"event":"round_end",'
                f'"halted":{batch.halted},"messages":{batch.messages},'
                f'"round":{r},"run":{run}}}\n'
            )
            self.events_written += 1

    # -- line writers ---------------------------------------------------
    def _fault_line(
        self, r: int, vertex: Optional[int], fault: FaultEvent
    ) -> Dict[str, Any]:
        line: Dict[str, Any] = {
            "event": "fault",
            "run": self._run,
            "round": r,
            "v": vertex,
        }
        line.update(fault.as_record())
        return line

    def _write_event_order(self, batch: RoundBatch) -> None:
        """One ``json.dumps`` line per event, in the order of
        :func:`iter_scalar_events`."""
        run = self._run
        sizes = dict(
            zip(_plain(batch.published), _plain(batch.publish_bytes()))
        )
        for event in iter_scalar_events(batch):
            kind, r, vertex = event[:3]
            line: Dict[str, Any]
            if kind == "step":
                if not self.node_steps:
                    continue
                line = {
                    "event": "step",
                    "run": run,
                    "round": r,
                    "v": vertex,
                }
            elif kind == "publish":
                line = {
                    "event": "publish",
                    "run": run,
                    "round": r,
                    "v": vertex,
                    "bytes": sizes[vertex],
                }
                if self.payload_values:
                    line["value"] = _json_safe(event[3])
            elif kind == "halt":
                line = {
                    "event": "halt",
                    "run": run,
                    "round": r,
                    "v": vertex,
                    "value": _json_safe(event[3]),
                }
            elif kind == "failure":
                line = {
                    "event": "failure",
                    "run": run,
                    "round": r,
                    "v": vertex,
                    "reason": event[3],
                }
            else:
                line = self._fault_line(r, vertex, event[3])
            self._emit(line)

    def _write_publish_halt(
        self, batch: RoundBatch, r: int, run: int
    ) -> None:
        pverts = _plain(batch.published)
        lines: List[str] = []
        if pverts:
            pbytes = _plain(batch.publish_bytes())
            values = (
                batch.publish_values() if self.payload_values else None
            )
            if values is None:
                pub_lines = [
                    f'{{"bytes":{b},"event":"publish","round":{r},'
                    f'"run":{run},"v":{v}}}'
                    for v, b in zip(pverts, pbytes)
                ]
            else:
                pub_lines = [
                    f'{{"bytes":{b},"event":"publish","round":{r},'
                    f'"run":{run},"v":{v},"value":{_value_json(val)}}}'
                    for v, b, val in zip(pverts, pbytes, values)
                ]
        else:
            pub_lines = []
        if len(batch.halted_verts):
            hverts = _plain(batch.halted_verts)
            hvals = batch.halt_values
            halt_lines = [
                f'{{"event":"halt","round":{r},"run":{run},"v":{v},'
                f'"value":{_value_json(out)}}}'
                for v, out in zip(hverts, hvals)
            ]
            # Interleave in per-vertex ascending order, a vertex's
            # publish before its halt — the iter_scalar_events order.
            i = j = 0
            np_, nh = len(pub_lines), len(halt_lines)
            while i < np_ or j < nh:
                if j >= nh or (i < np_ and pverts[i] <= hverts[j]):
                    lines.append(pub_lines[i])
                    i += 1
                else:
                    lines.append(halt_lines[j])
                    j += 1
        else:
            lines = pub_lines
        if lines:
            self._stream.write("\n".join(lines))
            self._stream.write("\n")
            self.events_written += len(lines)


def _plain(column: Any) -> List[Any]:
    """A batch column as a list of plain Python values."""
    return column.tolist() if hasattr(column, "tolist") else list(column)


def read_trace(
    path: str, run: Optional[int] = None
) -> List[Dict[str, Any]]:
    """Load a JSONL trace back into a list of event dicts.

    With ``run`` given, only that run's events are returned; raises
    ``ValueError`` if the trace contains no such run.
    """
    events = list(iter_trace(path))
    if run is None:
        return events
    selected = [e for e in events if e.get("run") == run]
    if not selected:
        raise ValueError(f"trace {path!r} has no events for run {run}")
    return selected


def iter_trace(
    path: str, kinds: Optional[Sequence[str]] = None
) -> Iterator[Dict[str, Any]]:
    """Stream a JSONL trace without loading it whole.

    Accepts every schema version in :data:`SUPPORTED_TRACE_VERSIONS`
    (v1 traces from before fault events read fine); a ``run_start``
    declaring an unknown or future version raises ``ValueError``
    instead of silently misreading events this reader predates.

    ``kinds`` restricts the stream to those event kinds (an unknown
    kind raises ``ValueError``).  Kinds are matched as ``json.dumps``
    writes them: a line holding none of them as a quoted string
    (``"halt"``) is skipped without being decoded, so lines that were
    not asked for are not validated — except ``run_start`` lines,
    which are always decoded for the version check, and a final line
    without its newline (a torn write), which is always decoded so a
    killed writer's trace still fails loudly.
    """
    wanted = None if kinds is None else _kind_set(kinds)
    needles = (
        ()
        if wanted is None
        else tuple(json.dumps(k) for k in wanted | {"run_start"})
    )
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            if needles:
                for needle in needles:
                    if needle in line:
                        break
                else:
                    # Not asked for; a torn final line (no newline) is
                    # decoded anyway, so that it fails loudly.
                    if line.endswith("\n"):
                        continue
            line = line.strip()
            if not line:
                continue
            event = _decode(line)
            kind = event.get("event")
            if kind == "run_start":
                _check_readable(event, path)
            if wanted is None or kind in wanted:
                yield event


_raw_decode = json.JSONDecoder().raw_decode


def _decode(line: str) -> Dict[str, Any]:
    """One stripped trace line as an event dict.  ``raw_decode`` skips
    ``json.loads``' whitespace scans; a line it does not parse whole
    goes through ``json.loads`` to raise exactly its error."""
    try:
        event, end = _raw_decode(line)
        if end == len(line):
            return event
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def _kind_set(kinds: Sequence[str]) -> FrozenSet[str]:
    """``kinds`` as a set, rejecting names the schema does not define
    — a typo'd ``--kind pubish`` must not read as "no matches"."""
    unknown = [k for k in kinds if k not in _EVENT_KINDS]
    if unknown:
        raise ValueError(
            f"unknown event kind(s) {unknown}; "
            f"expected one of {list(_EVENT_KINDS)}"
        )
    return frozenset(kinds)


def _check_readable(run_start: Dict[str, Any], path: str) -> None:
    # Hand-built or pre-versioning traces omit the schema/version keys
    # entirely and stay readable; a *declared* foreign schema or an
    # unknown version is rejected rather than misparsed.
    schema = run_start.get("schema")
    if schema is not None and schema != TRACE_SCHEMA:
        raise ValueError(
            f"trace {path!r} declares schema {schema!r}; "
            f"expected {TRACE_SCHEMA!r}"
        )
    version = run_start.get("version")
    if version is not None and version not in SUPPORTED_TRACE_VERSIONS:
        raise ValueError(
            f"trace {path!r} declares schema version {version!r}; this "
            f"reader understands versions {SUPPORTED_TRACE_VERSIONS}"
        )


__all__ = [
    "EMISSION_MODES",
    "JsonlTraceObserver",
    "SUPPORTED_TRACE_VERSIONS",
    "TRACE_SCHEMA",
    "TRACE_VERSION",
    "iter_trace",
    "read_trace",
]
