"""Per-node execution context with model enforcement.

The engine hands each vertex a :class:`NodeContext`.  The context is the
*only* window an algorithm has onto the simulation, and it enforces the
model split of Section I:

- **DetLOCAL** contexts expose :attr:`NodeContext.id` (a unique
  Θ(log n)-bit identifier) and raise on :attr:`NodeContext.random`.
- **RandLOCAL** contexts expose :attr:`NodeContext.random` (a private
  stream of independent random bits) and raise on :attr:`NodeContext.id`
  — vertices are undifferentiated.

Both models expose the degree, the port count, per-port input labels
(e.g. an input edge coloring) and the global parameters (n, Δ, and any
experiment-specific extras) that Section I assumes are common knowledge.
"""

from __future__ import annotations

import enum
import random
from typing import Any, Dict, Mapping, Optional

from .errors import ModelViolationError


class Model(enum.Enum):
    """Which of the two LOCAL models a run executes under."""

    DET = "DetLOCAL"
    RAND = "RandLOCAL"


class NodeContext:
    """State and capabilities of one vertex during a run.

    Algorithms interact with the context through:

    - :meth:`publish` — set the value neighbors will see next round;
    - :attr:`state` — a private scratch dictionary;
    - :meth:`halt` — fix the output and stop participating;
    - :meth:`fail` — declare a (randomized) failure;
    - read-only attributes ``degree``, ``n``, ``max_degree``,
      ``globals``, ``input``, and model-gated ``id`` / ``random``.
    """

    __slots__ = (
        "_index",
        "degree",
        "n",
        "max_degree",
        "globals",
        "input",
        "state",
        "model",
        "_id",
        "_rng",
        "_pub",
        "_next_pub",
        "_pub_dirty",
        "_clock",
        "_wake_round",
        "halted",
        "output",
        "failure",
        "failure_round",
    )

    def __init__(
        self,
        index: int,
        degree: int,
        n: int,
        max_degree: int,
        model: Model,
        node_id: Optional[int],
        rng: Optional[random.Random],
        node_input: Optional[Dict[str, Any]] = None,
        global_params: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self._index = index
        self.degree = degree
        self.n = n
        self.max_degree = max_degree
        self.model = model
        self._id = node_id
        self._rng = rng
        self.input: Dict[str, Any] = node_input or {}
        # Common knowledge by definition (Section I): every vertex sees
        # the same read-only mapping; the engine shares one instance
        # across all n contexts.
        self.globals: Mapping[str, Any] = (
            global_params if global_params is not None else {}
        )
        self.state: Dict[str, Any] = {}
        self._pub: Any = None
        self._next_pub: Any = None
        self._pub_dirty = False
        self._clock: Any = None
        self._wake_round: Optional[int] = None
        self.halted = False
        self.output: Any = None
        self.failure: Optional[str] = None
        self.failure_round: Optional[int] = None

    # ------------------------------------------------------------------
    # Model-gated capabilities
    # ------------------------------------------------------------------
    @property
    def id(self) -> int:
        """This vertex's unique identifier (DetLOCAL only)."""
        if self.model is not Model.DET:
            raise ModelViolationError(
                "ctx.id accessed under RandLOCAL: vertices are "
                "undifferentiated; generate a random ID instead"
            )
        assert self._id is not None
        return self._id

    @property
    def random(self) -> random.Random:
        """This vertex's private random stream (RandLOCAL only)."""
        if self.model is not Model.RAND:
            raise ModelViolationError(
                "ctx.random accessed under DetLOCAL: deterministic "
                "algorithms get no random bits"
            )
        assert self._rng is not None
        return self._rng

    @property
    def ports(self) -> range:
        """Port numbers ``0 .. degree-1``."""
        return range(self.degree)

    # ------------------------------------------------------------------
    # Communication and lifecycle
    # ------------------------------------------------------------------
    def publish(self, value: Any) -> None:
        """Set the value every neighbor will receive next round.

        Publishing is idempotent within a round; the last call wins.
        A vertex that does not publish keeps its previous value visible
        (links are reliable; silence just repeats the old state).
        """
        self._next_pub = value
        self._pub_dirty = True

    @property
    def published(self) -> Any:
        """The value currently visible to neighbors."""
        return self._pub

    @property
    def pending_publish(self) -> Any:
        """The value :meth:`publish` staged this round, or the visible
        value if nothing was staged.

        During a round, ``published`` is still last round's value
        (double buffering); this is what will become visible at the
        round boundary.
        """
        if self._pub_dirty:
            return self._next_pub
        return self._pub

    @property
    def now(self) -> int:
        """Index of the round currently executing (0-based; the first
        :meth:`~repro.core.algorithm.SyncAlgorithm.step` call is round 0).
        Reads -1 inside ``setup``.

        Contract: the round index is common knowledge (the model is
        synchronous), intended for *local scheduling* — phase
        arithmetic, :meth:`sleep_until`, turn-taking.  Publishing a
        value derived from it is flagged by the static analyzer (rule
        LM006) and must be explicitly acknowledged with
        ``# repro: ignore[LM006]`` where the round number is a
        documented part of the algorithm's output (e.g. an H-partition
        layer number equals the peel round by definition)."""
        if self._clock is None:
            return -1
        return self._clock.now

    def sleep_until(self, wake_round: int) -> None:
        """Skip rounds before ``wake_round`` (0-based engine rounds).

        A sleeping vertex performs no computation and sends nothing new
        (its published value stays visible, like a halted vertex's).
        This is purely a simulation fast path — an idle-waiting vertex in
        the real model behaves identically; round accounting is
        unchanged.
        """
        self._wake_round = wake_round

    def halt(self, output: Any = None) -> None:
        """Fix this vertex's output and stop executing steps.

        The last published value remains visible to neighbors forever
        (a halted processor keeps answering with its final state).
        """
        if output is not None:
            self.output = output
        self.halted = True

    def fail(self, reason: str) -> None:
        """Declare failure (RandLOCAL algorithms may fail; Section I).

        The vertex halts with no output; the run result records the
        reason and the round it was declared in (``failure_round``), so
        errors built from it carry full node/round attribution.
        Deterministic algorithms should never call this.
        """
        self.failure = reason
        self.failure_round = self.now
        self.halted = True

    def _commit(self) -> None:
        """Engine hook: make this round's published value visible."""
        if self._pub_dirty:
            self._pub = self._next_pub
            self._pub_dirty = False
