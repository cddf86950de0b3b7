"""Streaming trace analytics: query JSONL traces without loading them.

A deterministic trace (:mod:`repro.obs.trace`, schema versions 1–3)
from a large run easily outgrows memory — a million-vertex Theorem 10
run emits tens of millions of events.  Everything here therefore works
as a **single forward pass** over :func:`~repro.obs.trace.iter_trace`:

- :func:`filter_events` — a generator applying run/kind/vertex/round
  predicates; O(1) memory.
- :func:`aggregate_trace` — whole-trace totals (events per kind,
  rounds, messages, payload bytes, halts/failures/faults per run);
  O(runs) memory.
- :func:`round_timeline` — one row per round (active/awake/halted,
  publish count and bytes, failures, faults); O(rounds) memory.
- :func:`vertex_history` — every event touching one vertex, in stream
  order; O(matching events) memory.
- :func:`merge_aggregates` — combine per-cell aggregates from a sweep
  into one, order-insensitively (the cross-cell analogue of
  :func:`repro.obs.metrics.merge_summaries`).

The same pass shape backs the ``repro trace query`` CLI, so querying a
10 GB trace needs the memory of its answer, not of the trace.
"""

from __future__ import annotations

import json
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from .trace import _EVENT_KINDS, _kind_set

#: Stamped on aggregate dicts so merged artifacts self-identify.
AGGREGATE_SCHEMA = "repro.obs.query.aggregate"
AGGREGATE_VERSION = 1


def filter_events(
    events: Iterable[Dict[str, Any]],
    *,
    run: Optional[int] = None,
    kinds: Optional[Sequence[str]] = None,
    vertex: Optional[int] = None,
    round_min: Optional[int] = None,
    round_max: Optional[int] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield events matching every given predicate, preserving order.

    ``kinds`` naming an unknown event kind raises ``ValueError`` — a
    typo'd ``--kind pubish`` must not read as "no matches".
    """
    kind_set = None if kinds is None else _kind_set(kinds)
    for event in events:
        if run is not None and event.get("run") != run:
            continue
        if kind_set is not None and event.get("event") not in kind_set:
            continue
        if vertex is not None and event.get("v") != vertex:
            continue
        r = event.get("round")
        if round_min is not None and (r is None or r < round_min):
            continue
        if round_max is not None and (r is None or r > round_max):
            continue
        yield event


def aggregate_trace(
    events: Iterable[Dict[str, Any]], *, run: Optional[int] = None
) -> Dict[str, Any]:
    """Whole-trace totals in one streaming pass.

    Returns a plain JSON-safe dict::

        {"schema": ..., "version": 1,
         "runs": <runs seen>, "events": <total>,
         "events_by_kind": {"publish": ..., ...},
         "rounds_total": ..., "messages_total": ...,
         "payload_bytes_total": ..., "halted_total": ...,
         "failed_total": ..., "faults_total": ...,
         "per_run": [{"run": k, "algorithm": ..., "n": ...,
                      "rounds": ..., "events": ...}, ...]}

    ``rounds_total`` sums each run's final ``round_end`` index + 1, so
    bulk-skipped sleeping rounds count exactly once like any other.
    """
    by_kind = {kind: 0 for kind in _EVENT_KINDS}
    total = 0
    messages = 0
    payload_bytes = 0
    halted = 0
    failed = 0
    faults = 0
    per_run: Dict[int, Dict[str, Any]] = {}
    for event in events:
        k = event.get("run")
        if run is not None and k != run:
            continue
        kind = event.get("event")
        total += 1
        if kind in by_kind:
            by_kind[kind] += 1
        if k is not None:
            stats = per_run.get(k)
            if stats is None:
                stats = per_run[k] = {
                    "run": k,
                    "algorithm": None,
                    "n": None,
                    "rounds": 0,
                    "events": 0,
                }
            stats["events"] += 1
        else:
            stats = None
        if kind == "run_start":
            if stats is not None:
                stats["algorithm"] = event.get("algorithm")
                stats["n"] = event.get("n")
        elif kind == "round_end":
            messages += event.get("messages", 0)
            if stats is not None:
                stats["rounds"] = max(
                    stats["rounds"], event.get("round", -1) + 1
                )
        elif kind == "publish":
            payload_bytes += event.get("bytes", 0)
        elif kind == "halt":
            halted += 1
        elif kind == "failure":
            failed += 1
        elif kind == "fault":
            faults += 1
    return {
        "schema": AGGREGATE_SCHEMA,
        "version": AGGREGATE_VERSION,
        "runs": len(per_run),
        "events": total,
        "events_by_kind": by_kind,
        "rounds_total": sum(s["rounds"] for s in per_run.values()),
        "messages_total": messages,
        "payload_bytes_total": payload_bytes,
        "halted_total": halted,
        "failed_total": failed,
        "faults_total": faults,
        "per_run": [per_run[k] for k in sorted(per_run)],
    }


def merge_aggregates(
    aggregates: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Combine :func:`aggregate_trace` dicts from several traces.

    Order-insensitive over the scalar totals (sums commute); the
    ``per_run`` sections are concatenated in argument order with run
    indices left untouched, since runs from different cells are
    distinct runs even when their indices collide.  Refuses foreign
    schemas and versions newer than this reader.
    """
    if not aggregates:
        raise ValueError("merge_aggregates needs at least one aggregate")
    for agg in aggregates:
        schema = agg.get("schema")
        if schema != AGGREGATE_SCHEMA:
            raise ValueError(
                f"cannot merge aggregate with schema {schema!r}; "
                f"expected {AGGREGATE_SCHEMA!r}"
            )
        version = agg.get("version")
        if not isinstance(version, int) or version > AGGREGATE_VERSION:
            raise ValueError(
                f"cannot merge aggregate version {version!r}; this "
                f"reader understands <= {AGGREGATE_VERSION}"
            )
    merged = {
        "schema": AGGREGATE_SCHEMA,
        "version": AGGREGATE_VERSION,
        "runs": sum(a["runs"] for a in aggregates),
        "events": sum(a["events"] for a in aggregates),
        "events_by_kind": {
            kind: sum(
                a.get("events_by_kind", {}).get(kind, 0)
                for a in aggregates
            )
            for kind in _EVENT_KINDS
        },
        "rounds_total": sum(a["rounds_total"] for a in aggregates),
        "messages_total": sum(a["messages_total"] for a in aggregates),
        "payload_bytes_total": sum(
            a["payload_bytes_total"] for a in aggregates
        ),
        "halted_total": sum(a["halted_total"] for a in aggregates),
        "failed_total": sum(a["failed_total"] for a in aggregates),
        "faults_total": sum(a["faults_total"] for a in aggregates),
        "per_run": [r for a in aggregates for r in a.get("per_run", [])],
    }
    return merged


def round_timeline(
    events: Iterable[Dict[str, Any]], *, run: int = 0
) -> List[Dict[str, Any]]:
    """One row per round of ``run``, in round order.

    Each row: ``{"round", "active", "awake", "halted", "publishes",
    "payload_bytes", "steps", "failures", "faults"}``.  The setup
    phase (round ``-1``) gets a row only when it emitted events.
    Streaming: memory is O(rounds), not O(events).
    """
    rows: Dict[int, Dict[str, Any]] = {}
    saw_run = False

    def row(r: int) -> Dict[str, Any]:
        entry = rows.get(r)
        if entry is None:
            entry = rows[r] = {
                "round": r,
                "active": 0,
                "awake": 0,
                "halted": 0,
                "publishes": 0,
                "payload_bytes": 0,
                "steps": 0,
                "failures": 0,
                "faults": 0,
            }
        return entry

    for event in events:
        if event.get("run") != run:
            continue
        saw_run = True
        kind = event.get("event")
        r = event.get("round")
        if r is None:
            continue
        if kind == "round_start":
            row(r)["active"] = event.get("active", 0)
        elif kind == "round_end":
            entry = row(r)
            entry["awake"] = event.get("awake", 0)
            entry["halted"] = event.get("halted", 0)
        elif kind == "publish":
            entry = row(r)
            entry["publishes"] += 1
            entry["payload_bytes"] += event.get("bytes", 0)
        elif kind == "step":
            row(r)["steps"] += 1
        elif kind == "halt":
            # halted comes from round_end (authoritative even for
            # rounds whose halt events were bulk-elided); setup halts
            # have no round_end, so count them directly.
            if r < 0:
                row(r)["halted"] += 1
        elif kind == "failure":
            row(r)["failures"] += 1
        elif kind == "fault":
            row(r)["faults"] += 1
    if not saw_run:
        raise ValueError(f"trace has no events for run {run}")
    return [rows[r] for r in sorted(rows)]


def vertex_history(
    events: Iterable[Dict[str, Any]],
    vertex: int,
    *,
    run: int = 0,
) -> List[Dict[str, Any]]:
    """Every event touching ``vertex`` in ``run``, in stream order.

    Covers ``step``/``publish``/``halt``/``failure``/``fault`` events;
    run- and round-boundary events carry no vertex and are skipped.
    """
    history: List[Dict[str, Any]] = []
    saw_run = False
    for event in events:
        if event.get("run") != run:
            continue
        saw_run = True
        if event.get("v") == vertex:
            history.append(event)
    if not saw_run:
        raise ValueError(f"trace has no events for run {run}")
    return history


def render_aggregate(aggregate: Dict[str, Any]) -> str:
    """Plain-text report for :func:`aggregate_trace` output."""
    from ..analysis.tables import render_kv, render_table

    head = render_kv(
        "trace aggregate",
        [
            ["runs", aggregate["runs"]],
            ["events", aggregate["events"]],
            ["rounds", aggregate["rounds_total"]],
            ["messages", aggregate["messages_total"]],
            ["payload bytes", aggregate["payload_bytes_total"]],
            ["halts", aggregate["halted_total"]],
            ["failures", aggregate["failed_total"]],
            ["faults", aggregate["faults_total"]],
        ],
    )
    kinds = render_table(
        ["event", "count"],
        [
            [kind, count]
            for kind, count in aggregate["events_by_kind"].items()
            if count
        ],
    )
    runs = render_table(
        ["run", "algorithm", "n", "rounds", "events"],
        [
            [r["run"], r["algorithm"], r["n"], r["rounds"], r["events"]]
            for r in aggregate["per_run"]
        ],
    )
    return "\n\n".join([head, kinds, runs])


def render_timeline(rows: Sequence[Dict[str, Any]]) -> str:
    """Plain-text table for :func:`round_timeline` output."""
    from ..analysis.tables import render_table

    return render_table(
        [
            "round",
            "active",
            "awake",
            "halted",
            "publishes",
            "bytes",
            "failures",
            "faults",
        ],
        [
            [
                r["round"],
                r["active"],
                r["awake"],
                r["halted"],
                r["publishes"],
                r["payload_bytes"],
                r["failures"],
                r["faults"],
            ]
            for r in rows
        ],
    )


def dump_jsonl(events: Iterable[Dict[str, Any]], stream) -> int:
    """Write events back out as canonical JSONL; returns the count."""
    count = 0
    for event in events:
        stream.write(
            json.dumps(event, sort_keys=True, separators=(",", ":"))
        )
        stream.write("\n")
        count += 1
    return count


__all__ = [
    "AGGREGATE_SCHEMA",
    "AGGREGATE_VERSION",
    "aggregate_trace",
    "dump_jsonl",
    "filter_events",
    "merge_aggregates",
    "render_aggregate",
    "render_timeline",
    "round_timeline",
    "vertex_history",
]
