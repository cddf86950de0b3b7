"""Resilience records for :func:`repro.analysis.run_sweep`.

Two pieces live here, both deliberately independent of what a sweep
cell *measures* and of how the sweep runs its cells (the one cell loop,
serial or forked, is in :mod:`repro.analysis.experiments`):

- :func:`retry_seed` — deterministic re-seeding for bounded retries.
  Attempt 0 uses the cell's own seed (so a sweep with ``retries=0`` is
  bit-identical to the historical harness); attempt ``k > 0`` derives a
  fresh 63-bit seed from ``(seed, k)`` through the same splitmix64-style
  mix the fault adversaries use, so a retried cell re-runs with an
  independent random stream instead of deterministically re-failing.

- :class:`SweepJournal` — a JSONL checkpoint of completed cells.  The
  first line is a fingerprint header (dumped with ``sort_keys`` so it is
  canonical); each subsequent line records one completed cell, dumped
  *without* ``sort_keys`` so dict insertion order survives the
  round-trip and a resumed sweep can rebuild byte-identical outcome and
  telemetry dicts.  A partially written trailing line (the process died
  mid-``write``) is ignored on replay.  Journaled summaries must be
  JSON-safe (string keys, no tuples) — the journal refuses values that
  do not survive a JSON round-trip rather than silently corrupting the
  resume contract.

:class:`CellOutcome` is the per-cell audit record the sweep attaches to
its :class:`~repro.analysis.experiments.Series` — crashed cells
included.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.atomicio import fsync_stream
from ..core.errors import TelemetryError

__all__ = [
    "CellOutcome",
    "JOURNAL_SCHEMA",
    "JOURNAL_VERSION",
    "SweepJournal",
    "retry_seed",
]

_RETRY_STREAM = 0xA5EED5EED5EED5EE


def retry_seed(seed: int, attempt: int) -> int:
    """The seed for retry ``attempt`` of a cell seeded with ``seed``.

    Attempt 0 is the cell's own seed — a ``retries=0`` sweep measures
    every cell at the seed it was given.  Later
    attempts hash ``(seed, attempt)`` into an independent 63-bit seed
    (non-negative, so it is valid for ``random.Random`` and JSON-safe),
    recorded in the cell's outcome for replay.
    """
    if attempt == 0:
        return seed
    from ..faults.runtime import mix64

    return mix64(_RETRY_STREAM, seed, attempt) >> 1


#: Terminal cell statuses.  ``ok`` carries a value; ``crashed`` is a
#: skipped cell (visible through ``Series.skipped``).
CELL_STATUSES = ("ok", "crashed")


@dataclass
class CellOutcome:
    """The audit record for one sweep cell (final attempt).

    ``status`` is one of :data:`CELL_STATUSES`: ``ok`` (measured) or
    ``crashed`` (the pooled worker died without reporting — e.g.
    SIGKILL or a hard interpreter abort — on every attempt).
    ``attempts`` counts attempts actually made; ``effective_seed`` is
    :func:`retry_seed` of the final attempt.  ``error`` holds the
    scheduler's message for a crashed cell.
    """

    x: float
    seed: int
    status: str
    value: Optional[float] = None
    attempts: int = 1
    effective_seed: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "x": self.x,
            "seed": self.seed,
            "status": self.status,
            "value": self.value,
            "attempts": self.attempts,
            "effective_seed": self.effective_seed,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellOutcome":
        return cls(
            x=data["x"],
            seed=data["seed"],
            # Interned so a journal-replayed outcome is
            # indistinguishable — down to pickle bytes — from the
            # freshly computed one it replaces.
            status=sys.intern(data["status"]),
            value=data["value"],
            attempts=data["attempts"],
            effective_seed=data["effective_seed"],
            error=data["error"],
        )


JOURNAL_SCHEMA = "repro.analysis.journal"
JOURNAL_VERSION = 1


class SweepJournal:
    """JSONL checkpoint journal for one sweep invocation.

    Line 1 is the header: schema, version, and the sweep fingerprint
    (name, grid, seeds, retry policy, backend, cell count), dumped with
    ``sort_keys`` so the header is canonical.  Every completed cell
    appends ``{"cell": index, "outcome": {...}, "summary": ...}``
    dumped *without* ``sort_keys`` — JSON objects preserve insertion
    order, Python floats round-trip exactly, so a resumed sweep
    reassembles dicts byte-identical (under pickle) to the uninterrupted
    run's.  Reopening with a different fingerprint is an error, not a
    silent partial replay.
    """

    def __init__(self, path: str, fingerprint: Dict[str, Any]):
        self.path = str(path)
        self.fingerprint = json.loads(
            json.dumps(fingerprint, sort_keys=True)
        )
        #: Completed cells replayed from disk: index -> (outcome, summary).
        self.completed: Dict[int, Tuple[CellOutcome, Any]] = {}
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            self._replay()
            self._file = open(self.path, "a", encoding="utf-8")
        else:
            self._file = open(self.path, "w", encoding="utf-8")
            header = {
                "schema": JOURNAL_SCHEMA,
                "version": JOURNAL_VERSION,
                "fingerprint": self.fingerprint,
            }
            self._file.write(json.dumps(header, sort_keys=True) + "\n")
            fsync_stream(self._file)

    def _replay(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return
        try:
            header = json.loads(lines[0])
        except ValueError as exc:
            raise ValueError(
                f"sweep journal {self.path!r} has an unreadable header "
                f"line: {exc}"
            ) from exc
        if (
            header.get("schema") != JOURNAL_SCHEMA
            or header.get("version") != JOURNAL_VERSION
        ):
            raise ValueError(
                f"sweep journal {self.path!r} is not a "
                f"{JOURNAL_SCHEMA} v{JOURNAL_VERSION} file "
                f"(header: {lines[0][:120]})"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"sweep journal {self.path!r} was written by a "
                "different sweep configuration — refusing to resume "
                f"(journal fingerprint {header.get('fingerprint')!r} "
                f"!= current {self.fingerprint!r})"
            )
        for line in lines[1:]:
            try:
                entry = json.loads(line)
            except ValueError:
                # Torn trailing write from an interrupted run: that
                # cell simply re-runs.
                continue
            self.completed[int(entry["cell"])] = (
                CellOutcome.from_dict(entry["outcome"]),
                entry["summary"],
            )

    def record(
        self, index: int, outcome: CellOutcome, summary: Any
    ) -> None:
        """Append one completed cell and flush it to disk."""
        entry = {
            "cell": index,
            "outcome": outcome.as_dict(),
            "summary": summary,
        }
        try:
            line = json.dumps(entry)
        except (TypeError, ValueError) as exc:
            raise TelemetryError(
                f"cell {index} cannot be journaled: {exc}.  Journaled "
                "sweeps need JSON-safe telemetry summaries (string "
                "keys, no tuples/sets) — or drop the journal."
            ) from exc
        if json.loads(line)["summary"] != summary:
            raise TelemetryError(
                f"cell {index} telemetry does not survive a JSON "
                "round-trip (non-string keys?) — a resumed sweep could "
                "not rebuild it byte-identically.  Keep journaled "
                "summaries JSON-safe, or drop the journal."
            )
        self._file.write(line + "\n")
        # Through the OS cache, not just the libc buffer: a SIGKILL'd
        # sweep may then tear at most the trailing line, which _replay
        # already tolerates.
        fsync_stream(self._file)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
