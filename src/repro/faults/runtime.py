"""Per-run fault-injection state machine.

A :class:`~repro.faults.plan.FaultPlan` is a frozen description; the
engine calls ``plan.activate(meta)`` once per run to obtain a
:class:`FaultRuntime`, which owns the mutable bookkeeping (the stale
payload buffer for duplicate delivery) and answers the engine's three
questions — *is this vertex crashed?*, *what does this inbox actually
contain?*, *is the round budget exhausted?*.

Determinism contract
--------------------
Every probabilistic decision is a pure function of
``(plan.seed, round, vertex, port, stream)`` through a splitmix64-style
integer mix — **never** a sequential draw from a shared RNG.  The fast
engine steps only awake vertices (in runnable order when unobserved)
while the reference engine scans every vertex in ascending order; with
sequential draws the two engines would consume the stream differently
and inject different faults.  Hash-derived decisions are independent of
visit order, so an identical plan perturbs both engines identically —
the property the fault equivalence suite pins down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.errors import (
    BudgetExceededError,
    CrashStopFault,
    FaultEvent,
    MessageDropFault,
    MessageDuplicateFault,
    PayloadCorruptionFault,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import RunMeta
    from .plan import FaultPlan

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15

#: Independent decision streams; a drop decision at (round, v, port)
#: never correlates with the duplicate/corrupt decision at the same
#: coordinates.
_STREAM_DROP = 1
_STREAM_DUPLICATE = 2
_STREAM_CORRUPT = 3
_STREAM_CRASH_SELECT = 4


def mix64(seed: int, *parts: int) -> int:
    """Splitmix64-style avalanche of ``seed`` and ``parts`` to 64 bits.

    Order-sensitive in its arguments, order-independent in when it is
    called — the whole point (see module docstring).
    """
    z = seed & _MASK
    for part in parts:
        z = (z + _GAMMA + (part & _MASK)) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z = z ^ (z >> 31)
    return z


def unit_uniform(seed: int, *parts: int) -> float:
    """Deterministic uniform float in ``[0, 1)`` keyed by the parts."""
    return mix64(seed, *parts) / 2.0**64


class FaultRuntime:
    """One run's activated adversary (see module docstring).

    The engines interact with exactly these attributes/methods:
    ``crashed``/``crash_reason``/``crash_event`` for crash-stop,
    ``touches_messages``/``deliver`` for per-port delivery faults, and
    ``budget``/``budget_error`` for round-budget exhaustion.
    """

    __slots__ = (
        "plan",
        "seed",
        "run_meta",
        "crashes",
        "drop_rate",
        "duplicate_rate",
        "corrupt_rate",
        "corrupt_hook",
        "budget",
        "touches_messages",
        "_last",
    )

    def __init__(self, plan: "FaultPlan", meta: "RunMeta") -> None:
        self.plan = plan
        self.seed = plan.seed
        self.run_meta = meta
        crashes: Dict[int, int] = dict(plan.crashes)
        if plan.crash_rate > 0.0:
            # Seeded Bernoulli selection over the vertex set, keyed per
            # vertex (round-independent): the same plan crashes the
            # same vertices at the same round in every engine.
            for v in range(meta.n):
                if v in crashes:
                    continue
                if (
                    unit_uniform(plan.seed, _STREAM_CRASH_SELECT, v)
                    < plan.crash_rate
                ):
                    crashes[v] = plan.crash_round
        self.crashes = crashes
        self.drop_rate = plan.drop_rate
        self.duplicate_rate = plan.duplicate_rate
        self.corrupt_rate = plan.corrupt_rate
        self.corrupt_hook = plan.corrupt
        self.budget = plan.round_budget
        self.touches_messages = (
            plan.drop_rate > 0.0
            or plan.duplicate_rate > 0.0
            or plan.corrupt_rate > 0.0
        )
        #: (vertex, port) -> last pre-fault payload delivered on that
        #: port; the stale value a duplicate redelivers.  Only tracked
        #: when duplication is on (it is O(messages) state).
        self._last: Optional[Dict[Tuple[int, int], Any]] = (
            {} if plan.duplicate_rate > 0.0 else None
        )

    # ------------------------------------------------------------------
    # Crash-stop
    # ------------------------------------------------------------------
    def crashed(self, round_index: int, v: int) -> bool:
        """Whether ``v`` crash-stops instead of stepping this round."""
        crash_at = self.crashes.get(v)
        return crash_at is not None and round_index >= crash_at

    def crash_reason(self, round_index: int) -> str:
        """The ``RunResult.failures`` entry for a crashed vertex —
        identical in both engines (part of RunResult bit-identity)."""
        return f"crash-stop fault injected at round {round_index}"

    def crash_event(self, round_index: int, v: int) -> CrashStopFault:
        return CrashStopFault(
            self.crash_reason(round_index),
            node=v,
            round=round_index,
            run_meta=self.run_meta,
        )

    # ------------------------------------------------------------------
    # Message delivery
    # ------------------------------------------------------------------
    def deliver(
        self,
        round_index: int,
        v: int,
        inbox: List[Any],
        record: bool,
    ) -> Optional[List[FaultEvent]]:
        """Apply drop/duplicate/corrupt faults to ``inbox`` in place.

        ``inbox[port]`` holds the payload ``v`` would receive on that
        port.  Precedence per port: **drop** (receiver sees ``None``)
        beats **duplicate** (receiver sees the previous delivery on the
        port again — its own first delivery when there was none); the
        **corruption hook** then rewrites whatever non-dropped payload
        remains.  Returns the injected-fault events (for the round's
        batch) when ``record`` is true, else ``None`` — decisions are
        hash-derived, so skipping event construction cannot skew them.
        """
        events: Optional[List[FaultEvent]] = [] if record else None
        seed = self.seed
        drop = self.drop_rate
        duplicate = self.duplicate_rate
        corrupt = self.corrupt_rate
        last = self._last
        for port in range(len(inbox)):
            value = inbox[port]
            if last is not None:
                # The sender did send: remember the in-channel payload
                # even when this delivery is then dropped.
                key = (v, port)
                previous = last.get(key, value)
                last[key] = value
            if drop and (
                unit_uniform(seed, round_index, v, port, _STREAM_DROP)
                < drop
            ):
                inbox[port] = None
                if events is not None:
                    events.append(
                        MessageDropFault(
                            f"message to vertex {v} port {port} dropped",
                            node=v,
                            round=round_index,
                            port=port,
                        )
                    )
                continue
            delivered = value
            if duplicate and (
                unit_uniform(
                    seed, round_index, v, port, _STREAM_DUPLICATE
                )
                < duplicate
            ):
                delivered = previous
                if events is not None:
                    events.append(
                        MessageDuplicateFault(
                            f"stale duplicate delivered to vertex {v} "
                            f"port {port}",
                            node=v,
                            round=round_index,
                            port=port,
                        )
                    )
            if corrupt and (
                unit_uniform(
                    seed, round_index, v, port, _STREAM_CORRUPT
                )
                < corrupt
            ):
                assert self.corrupt_hook is not None
                delivered = self.corrupt_hook(delivered)
                if events is not None:
                    events.append(
                        PayloadCorruptionFault(
                            f"payload to vertex {v} port {port} "
                            "corrupted",
                            node=v,
                            round=round_index,
                            port=port,
                        )
                    )
            inbox[port] = delivered
        return events

    # ------------------------------------------------------------------
    # Round budget
    # ------------------------------------------------------------------
    def budget_error(self, round_index: int) -> BudgetExceededError:
        meta = self.run_meta
        return BudgetExceededError(
            f"{meta.algorithm!r} exhausted injected round budget "
            f"{self.budget} on n={meta.n}",
            round=round_index,
            run_meta=meta,
            detail=f"budget={self.budget}",
        )
