"""The observer protocol: one round batch per round.

:class:`RunObserver` is the base class engine observers derive from:
subclass it, override the callbacks you care about, and pass instances
to ``run_local(observers=[...])`` or attach them ambiently with
:func:`repro.core.observe_runs` (covers every ``run_local`` call a
multi-phase driver makes).

Every engine — the reference loop and every backend — calls exactly
six methods, in this order (the equivalence suite and the
observer-neutrality relation pin it):

1. ``on_run_start(meta)`` — once, after ``setup`` succeeded; then
   ``on_backend_info(backend, kernel)`` naming the engine that runs.
2. ``on_round_batch(batch)`` — the setup pass as one
   :class:`RoundBatch` at round index :data:`repro.core.SETUP_ROUND`
   (-1), then one batch per round, bulk-skipped sleeping rounds
   included (empty columns, ``awake = halted = 0``).
3. ``on_run_fault(round, fault)`` — round-budget exhaustion, delivered
   at once right before the run raises
   :class:`~repro.core.errors.BudgetExceededError`.
4. ``on_run_end(result)`` — once, unless the run raised, in which case
   ``on_run_abort(round, error)`` fires instead and the stream stops
   at the last completed round; a run raising in ``setup`` delivers
   only ``on_run_abort``.  Flush-style observers finalize there so
   partial runs keep their telemetry.

An observer that wants individual events walks a batch with
:func:`iter_scalar_events`, which yields them in the one order the
JSONL trace records too.  Per vertex, ascending: delivery faults
(drop/duplicate/corrupt, ports ascending), then the step, then its
publish, then its failure *or* halt; a crash-stop vertex has a fault
and a failure and no step.

Observers are **read-only spectators**.  The columns of a
:class:`RoundBatch` and the graph in ``meta`` may be shared with the
emitting engine: reading is fine, assigning attributes or writing into
them is not (rule LM008).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.engine import RunMeta, RunResult
from ..core.errors import FaultEvent

#: Sentinel batch payload meaning "no value recorded".
_UNSET = object()


class RunObserver:
    """Base class for engine observers; override what you need.

    The engines call the six ``on_*`` methods (see the module
    docstring), each with an empty default, and the checkpoint hooks
    when a run is checkpointed.  One observer instance may watch
    several runs in sequence (e.g. each phase of a multi-phase driver
    under :func:`repro.core.observe_runs`); ``on_run_start`` marks each
    new run's boundary.
    """

    #: Whether this observer participates in in-run checkpointing (see
    #: :mod:`repro.core.checkpoint`).  A capable observer implements
    #: :meth:`checkpoint_state` / :meth:`restore_checkpoint` so a
    #: resumed run reproduces its output stream byte-for-byte;
    #: attaching a non-capable observer to a checkpointed run fails
    #: fast with a ``CheckpointError``.
    checkpoint_capable = False

    def checkpoint_state(self) -> Any:
        """This observer's resumable position, captured at a round
        boundary.  Must be picklable; ``None`` is a valid state for
        observers with nothing to rewind (e.g. plane-2 sidecars)."""
        return None

    def restore_checkpoint(self, state: Any) -> None:
        """Rewind to a position captured by :meth:`checkpoint_state`.

        Called with ``state=None`` when a resume finds no usable
        snapshot and the run restarts from the top: the observer must
        reset to its just-constructed state (truncating any partial
        output the killed process left) so the fresh run's stream is
        reproduced from the first byte."""

    # -- what the engines call -----------------------------------------
    def on_run_start(self, meta: RunMeta) -> None:
        """A run is starting (its setup pass succeeded); ``meta`` holds
        its static facts."""

    def on_backend_info(
        self, backend: str, kernel: Optional[str]
    ) -> None:
        """The executing engine identified itself, right after
        ``on_run_start``: ``"reference"``, ``"fast"`` (also when
        another backend ran the per-node engine instead),
        ``"vectorized"`` or ``"sharded"``.  ``kernel`` names the
        vectorized round kernel, or is ``None``.  Plane-2 information:
        deterministic output must not record it."""

    def on_round_batch(self, batch: RoundBatch) -> None:
        """One completed round (or the setup pass) as a batch; walk
        it with :func:`iter_scalar_events` for individual events."""

    def on_run_fault(self, round_index: int, fault: FaultEvent) -> None:
        """A run-level fault (round-budget exhaustion) fired; the run
        raises right after, so it is never part of a batch.  ``fault``
        is the structured :class:`~repro.core.errors.FaultEvent`
        record — read its ``kind`` / ``detail``; do not raise it."""

    def on_run_end(self, result: RunResult) -> None:
        """The run completed with ``result``."""

    def on_run_abort(
        self, round_index: int, error: BaseException
    ) -> None:
        """The run is dying at round ``round_index`` with ``error``
        (algorithm exception, injected budget, ``KeyboardInterrupt``)
        before ``on_run_end`` could fire.  Observers that buffer
        output flush here so partial runs keep their telemetry; the
        exception propagates as soon as every observer returns."""


class RoundBatch:
    """Columnar snapshot of one round's events (or of the setup pass).

    Round facts: ``round_index``, ``active`` (live vertices at the
    round start, sleepers included), ``awake`` (vertices scheduled this
    round), ``halted`` (vertices that halted or failed in it) and
    ``messages``.  Vertex columns, each ascending: ``stepped``,
    ``published``, ``halted_verts`` and ``failed``, with the payload
    columns ``halt_values`` and ``fail_reasons`` aligned to their
    vertex column, the lazy :meth:`publish_values` and
    :meth:`publish_bytes` aligned to ``published``, and ``faults`` as
    ``(vertex, fault)`` pairs.  Vertex columns are numpy int64 arrays
    when the vectorized backend emits them and plain lists otherwise;
    consume them duck-typed (``len``, iteration, and integer indexing
    work on both).  All columns may be backend-owned storage — treat
    them as read-only (rule LM008).

    ``round_index`` is :data:`repro.core.SETUP_ROUND` for the setup
    batch, in which case ``stepped`` is empty and the round facts are
    zero.
    """

    __slots__ = (
        "round_index",
        "active",
        "awake",
        "halted",
        "messages",
        "stepped",
        "published",
        "halted_verts",
        "halt_values",
        "failed",
        "fail_reasons",
        "faults",
        "_publish_values",
        "_publish_values_fn",
        "_publish_bytes",
    )

    def __init__(
        self,
        round_index: int,
        *,
        active: int = 0,
        awake: int = 0,
        halted: int = 0,
        messages: int = 0,
        stepped: Sequence[int] = (),
        published: Sequence[int] = (),
        publish_values: Any = _UNSET,
        publish_values_fn: Optional[Callable[[], Sequence[Any]]] = None,
        publish_bytes: Optional[Sequence[int]] = None,
        halted_verts: Sequence[int] = (),
        halt_values: Sequence[Any] = (),
        failed: Sequence[int] = (),
        fail_reasons: Sequence[str] = (),
        faults: Sequence[Tuple[Optional[int], FaultEvent]] = (),
    ) -> None:
        self.round_index = round_index
        self.active = active
        self.awake = awake
        self.halted = halted
        self.messages = messages
        self.stepped = stepped
        self.published = published
        self.halted_verts = halted_verts
        self.halt_values = halt_values
        self.failed = failed
        self.fail_reasons = fail_reasons
        self.faults = list(faults)
        self._publish_values = publish_values
        self._publish_values_fn = publish_values_fn
        self._publish_bytes = publish_bytes

    def publish_values(self) -> Sequence[Any]:
        """Published values aligned with :attr:`published`.

        Materialized lazily (and cached): backends that can account
        payload sizes columnar-ly only pay for building the actual
        Python values when an observer asks for them (payload-value
        traces, generic event reconstruction).
        """
        if self._publish_values is _UNSET:
            fn = self._publish_values_fn
            self._publish_values = (
                list(fn()) if fn is not None else []
            )
        return self._publish_values

    def publish_bytes(self) -> Sequence[int]:
        """Estimated payload bytes aligned with :attr:`published`
        (:func:`repro.obs.estimate_payload_bytes` of each value).

        Computed lazily from :meth:`publish_values` unless the emitting
        backend supplied the column directly (the vectorized kernels
        compute it as array arithmetic without materializing values).
        """
        if self._publish_bytes is None:
            from .metrics import estimate_payload_bytes

            self._publish_bytes = [
                estimate_payload_bytes(value)
                for value in self.publish_values()
            ]
        return self._publish_bytes


def iter_scalar_events(
    batch: RoundBatch,
) -> Iterator[Tuple[Any, ...]]:
    """A batch's events, one tuple each, in the JSONL trace's order.

    Yields tuples keyed by event name, per vertex ascending::

        ("fault", round, vertex, fault_event)
        ("step", round, vertex)
        ("publish", round, vertex, value)
        ("failure", round, vertex, reason)
        ("halt", round, vertex, output)

    Per vertex: faults first, then the step (crash-stop vertices never
    step), then its publish, then failure *or* halt.  Round boundaries
    are not yielded: the batch's own ``round_index``, ``active``,
    ``awake``, ``halted`` and ``messages`` describe them.  Setup
    batches yield publishes/failures/halts only.
    """
    r = batch.round_index
    events: List[Tuple[int, int, Tuple[Any, ...]]] = []
    for vertex, fault in batch.faults:
        events.append((int(vertex), 0, ("fault", r, int(vertex), fault)))
    for vertex in batch.stepped:
        events.append((int(vertex), 1, ("step", r, int(vertex))))
    if len(batch.published):
        values = batch.publish_values()
        for i, vertex in enumerate(batch.published):
            events.append(
                (int(vertex), 2, ("publish", r, int(vertex), values[i]))
            )
    for i, vertex in enumerate(batch.failed):
        events.append(
            (
                int(vertex),
                3,
                ("failure", r, int(vertex), batch.fail_reasons[i]),
            )
        )
    for i, vertex in enumerate(batch.halted_verts):
        events.append(
            (int(vertex), 3, ("halt", r, int(vertex), batch.halt_values[i]))
        )
    events.sort(key=lambda item: (item[0], item[1]))
    for _, _, event in events:
        yield event
