"""Declarative, seeded fault plans.

A :class:`FaultPlan` is the frozen description of an adversary: which
vertices crash-stop and when, the per-port Bernoulli rates for message
drop/duplication/corruption, and an optional round budget.  Plans are
value objects — reusable across runs, engines, and sweep cells — and a
plan plus its seed fully determines every injected fault (see
:mod:`repro.faults.runtime` for the determinism contract).

Attach a plan to a single run with ``run_local(..., fault_plan=plan)``
or to a whole driver execution ambiently::

    with inject_faults(FaultPlan(seed=3, drop_rate=0.01)):
        pettie_su_tree_coloring(tree, seed=1)

The RandLOCAL model is *defined* by tolerating failure — local failure
probability 1/n (Section I) — and these adversaries exist to measure
that tolerance (experiment E6F) rather than merely avoid it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional

from .runtime import FaultRuntime

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import RunMeta


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic fault-injection adversary.

    Parameters
    ----------
    seed:
        Master seed for every probabilistic fault decision.  Identical
        plans (same seed, same rates) inject identical faults in both
        engines and across repeated runs.
    crashes:
        Explicit ``{vertex: round}`` crash-stop schedule: the vertex
        executes no step at any round ``>=`` its crash round (it fails
        the round it would next be awake, exactly like a processor
        dying between rounds).
    crash_rate / crash_round:
        Seeded Bernoulli crash selection: each vertex independently
        crash-stops at ``crash_round`` with probability ``crash_rate``.
        Explicit ``crashes`` entries take precedence.
    drop_rate:
        Per-(round, receiver, port) probability that a delivery is
        lost; the receiver sees ``None`` in that inbox slot.
    duplicate_rate:
        Per-(round, receiver, port) probability that a *stale*
        duplicate wins: the receiver gets the previous delivery on that
        port again instead of the current payload.
    corrupt_rate / corrupt:
        Per-(round, receiver, port) probability that the delivered
        payload is rewritten by the ``corrupt`` hook (required when the
        rate is positive).  The hook must be deterministic for the
        byte-identical trace contract to hold.
    round_budget:
        Hard cap on executed rounds: the run raises
        :class:`~repro.core.errors.BudgetExceededError` when the budget
        is exhausted before every vertex halted — the paper's "runs for
        a specified number of rounds, may fail" convention made
        literal.
    """

    seed: int = 0
    crashes: Mapping[int, int] = field(default_factory=dict)
    crash_rate: float = 0.0
    crash_round: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    corrupt: Optional[Callable[[Any], Any]] = None
    round_budget: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("crash_rate", "drop_rate", "duplicate_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"FaultPlan.{name} must be in [0, 1], got {rate!r}"
                )
        for v, crash_at in self.crashes.items():
            if crash_at < 0:
                raise ValueError(
                    f"FaultPlan.crashes[{v}] must be a round >= 0, "
                    f"got {crash_at!r}"
                )
        if self.crash_round < 0:
            raise ValueError(
                f"FaultPlan.crash_round must be >= 0, got {self.crash_round!r}"
            )
        if self.corrupt_rate > 0.0 and self.corrupt is None:
            raise ValueError(
                "FaultPlan.corrupt_rate > 0 needs a corrupt= payload hook"
            )
        if self.round_budget is not None and self.round_budget < 0:
            raise ValueError(
                f"FaultPlan.round_budget must be >= 0 or None, "
                f"got {self.round_budget!r}"
            )

    @property
    def is_noop(self) -> bool:
        """Whether this plan can never inject anything."""
        return (
            not self.crashes
            and self.crash_rate == 0.0
            and self.drop_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.corrupt_rate == 0.0
            and self.round_budget is None
        )

    def fingerprint(self) -> Dict[str, Any]:
        """This plan's stable, process-independent identity, which
        checkpoint headers record so a resume never reuses a snapshot
        taken under another adversary.  Every field but the ``corrupt``
        hook (never its repr: a callable's repr embeds a memory
        address); the crash schedule is a list of ``[vertex, round]``
        pairs, the shape it keeps through the JSON header."""
        return {
            "seed": self.seed,
            "crashes": [
                [v, at] for v, at in sorted(dict(self.crashes).items())
            ],
            "crash_rate": self.crash_rate,
            "crash_round": self.crash_round,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "corrupt_rate": self.corrupt_rate,
            "round_budget": self.round_budget,
        }

    def activate(self, meta: "RunMeta") -> FaultRuntime:
        """Engine hook: build this run's mutable fault state."""
        return FaultRuntime(self, meta)
