"""Exception hierarchy for the LOCAL simulation engine.

Every error can carry *structured context* — the failing vertex, the
round it failed in, and the :class:`~repro.core.engine.RunMeta` of the
run — so harnesses and the CLI can report "vertex 17 failed in round 4
of 'color-bidding' on n=10000" instead of a bare message.  The context
fields are keyword-only and optional; errors raised without them behave
exactly as before.

The **fault taxonomy** (:class:`FaultEvent` and its subclasses) models
*injected* failures from :mod:`repro.faults`: the RandLOCAL model is
defined by tolerating a local failure probability of 1/n (Section I),
and the fault layer lets experiments measure that claim instead of
merely avoiding it.  Fault events are structured objects first and
exceptions second — drop/duplicate/corrupt/crash events are *recorded*
(observers see them as trace events) while :class:`BudgetExceededError`
is *raised* when a run exhausts its injected round budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> errors)
    from .engine import RunMeta


class ReproError(Exception):
    """Base class for all errors raised by this library.

    Parameters
    ----------
    message:
        Human-readable description (the usual ``Exception`` payload).
    node:
        Engine vertex index the error is attributed to, when known.
    round:
        0-based round index (``-1`` = setup), when known.
    run_meta:
        The :class:`~repro.core.engine.RunMeta` of the run that raised,
        when known — gives CLI error output the algorithm name, model,
        and instance size for free.
    """

    def __init__(
        self,
        message: str = "",
        *,
        node: Optional[int] = None,
        round: Optional[int] = None,
        run_meta: Optional["RunMeta"] = None,
    ) -> None:
        super().__init__(message)
        self.node = node
        self.round = round
        self.run_meta = run_meta

    def context(self) -> Dict[str, Any]:
        """The structured context fields that are actually set."""
        ctx: Dict[str, Any] = {}
        if self.node is not None:
            ctx["node"] = self.node
        if self.round is not None:
            ctx["round"] = self.round
        meta = self.run_meta
        if meta is not None:
            ctx["algorithm"] = meta.algorithm
            ctx["model"] = meta.model.name
            ctx["n"] = meta.n
            ctx["max_degree"] = meta.max_degree
            if meta.seed is not None:
                ctx["seed"] = meta.seed
        return ctx

    def context_lines(self) -> List[str]:
        """``key: value`` lines for CLI error rendering (may be empty)."""
        return [f"{key}: {value}" for key, value in self.context().items()]


class SimulationError(ReproError):
    """The engine could not run the algorithm (bad configuration,
    round-limit exceeded, malformed messages)."""


class ModelViolationError(SimulationError):
    """An algorithm accessed state its model forbids — e.g. reading
    ``ctx.id`` in RandLOCAL (vertices are undifferentiated) or
    ``ctx.random`` in DetLOCAL (no random bits)."""


class DuplicateIDError(SimulationError):
    """A DetLOCAL run was configured with non-unique vertex IDs."""


class AlgorithmFailure(ReproError):
    """A randomized algorithm declared failure.

    RandLOCAL algorithms run for a specified number of rounds and may
    fail with some probability (Section I).  Algorithms in this library
    *detect and declare* failure rather than silently emitting an invalid
    labeling; experiment harnesses catch this and count the failure.
    Raisers should attach ``node=``/``round=`` where the failing vertex
    is known (``RunResult.failures`` + ``NodeContext.failure_round``
    carry both).
    """


class VerificationError(ReproError):
    """An output labeling failed its LCL verifier."""


class TelemetryError(ReproError):
    """The observability layer was misconfigured — e.g. a per-cell
    metric summary produced under ``run_sweep(workers=N)`` is not
    picklable and therefore cannot be merged back from a forked
    worker deterministically."""


# ---------------------------------------------------------------------------
# Injected-fault taxonomy (repro.faults)
# ---------------------------------------------------------------------------


class FaultEvent(ReproError):
    """Base class of every *injected* fault (see :mod:`repro.faults`).

    Instances double as structured event records: the engine hands them
    to observers in a round batch's ``faults`` column (or via
    ``on_run_fault``) and the JSONL trace serializes the
    ``kind``/``port``/``detail`` fields (trace schema v2).  Node
    algorithm code must never swallow these (static-analysis rule
    LM009): faults surface to the engine and the harness, which is
    where the paper's failure-probability accounting happens.
    """

    #: Stable identifier of the fault class in traces and metrics.
    kind = "fault"

    def __init__(
        self,
        message: str = "",
        *,
        node: Optional[int] = None,
        round: Optional[int] = None,
        run_meta: Optional["RunMeta"] = None,
        port: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> None:
        super().__init__(message, node=node, round=round, run_meta=run_meta)
        self.port = port
        self.detail = detail

    def as_record(self) -> Dict[str, Any]:
        """JSON-safe event payload (stable keys, no addresses)."""
        record: Dict[str, Any] = {"kind": self.kind}
        if self.port is not None:
            record["port"] = self.port
        if self.detail is not None:
            record["detail"] = self.detail
        return record


class CrashStopFault(FaultEvent):
    """A vertex crash-stopped: from its crash round on it executes no
    steps and publishes nothing new (its last published value stays
    visible, exactly like a halted processor's)."""

    kind = "crash"


class MessageDropFault(FaultEvent):
    """A message on one edge-port was lost for one round; the receiver
    sees ``None`` in that inbox slot."""

    kind = "drop"


class MessageDuplicateFault(FaultEvent):
    """A stale duplicate won the race: the receiver got the *previous*
    delivery on that edge-port again instead of the current value."""

    kind = "duplicate"


class PayloadCorruptionFault(FaultEvent):
    """A delivered payload was rewritten by the plan's corruption hook
    before the receiving vertex stepped."""

    kind = "corrupt"


class BudgetExceededError(FaultEvent, SimulationError):
    """An injected round budget was exhausted before every vertex
    halted.

    Models the RandLOCAL convention that an algorithm "runs for a
    specified number of rounds" and fails otherwise (Section I).  Both
    a :class:`FaultEvent` (it is injected, observers see it) and a
    :class:`SimulationError` (callers treating engine limits uniformly
    catch it like the ``max_rounds`` guard).
    """

    kind = "budget"
