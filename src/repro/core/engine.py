"""The synchronous round engine for DetLOCAL and RandLOCAL.

:func:`run_local` executes a :class:`~repro.core.algorithm.SyncAlgorithm`
on a port-numbered graph under a chosen model, and returns a
:class:`RunResult` whose ``rounds`` field is the paper's only cost
measure — the number of synchronized communication rounds until every
vertex has halted.

Faithfulness guarantees:

- a vertex only ever reads values published by its graph neighbors in
  the *previous* round (double buffering — no same-round information
  leaks);
- local computation is free and messages are unbounded, as in the model;
- DetLOCAL vertices receive unique IDs and no randomness; RandLOCAL
  vertices receive private random streams and no IDs
  (:class:`~repro.core.context.NodeContext` enforces this);
- a run that exceeds ``max_rounds`` raises instead of under-reporting.

:func:`run_local` dispatches to a pluggable *backend* (see
:mod:`repro.core.backend`).  Three of the four share one round loop,
:func:`run_rounds`, which owns resume-or-setup, the checkpoint, budget
and ``max_rounds`` guards, bulk-skipping of rounds in which every live
vertex sleeps, the observer lifecycle and the :class:`RunResult`; each
plugs in a :class:`Stepper` that executes one whole round:

- ``"fast"`` (:func:`_run_local_fast`, the default) — the per-node
  stepper (:class:`NodeStepper`).  It keeps a persistent ``visible``
  list and commits only the publishes that actually changed, delivers
  inboxes through a flat CSR adjacency built once per run, and parks
  ``sleep_until`` vertices in round-keyed wake buckets so sleeping
  vertices are never scanned.  Per-round cost is O(awake + changed),
  which is what the paper's shattering analysis predicts the workload
  looks like: after a few rounds almost every vertex has halted.
- ``"vectorized"`` (:mod:`repro.backends.vectorized`, optional) — a
  numpy-kernel stepper for the paper's asymptotic regime (n = 10^6 and
  up).  Requires the ``[perf]`` extra.
- ``"sharded"`` (:mod:`repro.backends.sharded`) — a shard-exchange
  stepper: N forked workers each run the per-node stepper over the
  vertices they own and exchange boundary messages at round barriers;
  see ``docs/sharding.md``.

A backend that cannot build its stepper for a run (no kernel, an
unsupported fault plan, no ``fork``) runs :func:`_run_local_fast`
instead.  ``"reference"`` (:func:`run_local_reference`) keeps its own
straight-line loop, deliberately: it is the oracle the equivalence
suite compares every other backend against (see
``docs/performance.md``).

Every engine accepts *observers* (``observers=[...]`` or ambiently via
:func:`observe_runs`): read-only :class:`repro.obs.RunObserver`
spectators.  Every engine, the reference loop included, delivers a run
to them the same way — ``on_run_start`` and ``on_backend_info`` once
setup succeeded, one ``RoundBatch`` per round (bulk-skipped sleeping
rounds included), ``on_run_fault`` for a spent round budget, then
``on_run_end`` or ``on_run_abort`` — and all engines deliver
**identical batches** for the same run, their columns in ascending
vertex order.  The per-vertex engines record a round's columns behind
a single ``events is not None`` test, so runs without observers pay
nothing.  See ``docs/observability.md``.

Every engine also accepts a *fault plan* (``fault_plan=...`` or
ambiently via :func:`inject_faults`): a seeded, deterministic adversary
(see :mod:`repro.faults`) that crash-stops chosen vertices, perturbs
message delivery per edge-port, and enforces a round budget.  Like
observers, the middleware is guarded by ``is not None`` tests so the
no-fault path stays on the perf baseline, and fault decisions are
hash-derived from ``(plan seed, round, vertex, port)`` — never from
sequential RNG draws — so every engine injects the *same* faults and
stays bit-identical under any plan.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .algorithm import SyncAlgorithm
from .backend import (
    Runner,
    current_backend_name,
    get_backend,
    register_backend,
)
from .checkpoint import (
    CheckpointError,
    CheckpointSession,
    current_checkpoint_scope,
)
from .context import Model, NodeContext
from .errors import DuplicateIDError, ReproError, SimulationError
from .ids import check_unique_ids, sequential_ids
from ..graphs.graph import Graph

#: Default safety cap on rounds; generously above any algorithm here.
DEFAULT_MAX_ROUNDS = 100_000

#: Round index observers see for events fired during ``setup`` (before
#: any communication round; matches ``ctx.now`` inside ``setup``).
SETUP_ROUND = -1


class _Clock:
    """Shared round counter visible to contexts via ``ctx.now``."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0


@dataclass
class RunResult:
    """Outcome of one engine run.

    Per-round activity (active, awake and halted counts) is not kept
    here: observers read it from each round's
    :class:`~repro.obs.RoundBatch`.
    """

    #: Per-vertex outputs (``None`` where a vertex failed or never halted).
    outputs: List[Any]
    #: Number of communication rounds executed (setup is round-free).
    rounds: int
    #: Total point-to-point messages delivered (2m per executed round).
    messages: int
    #: Vertices that declared failure, as ``{vertex: reason}``.
    failures: Dict[int, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether no vertex declared failure."""
        return not self.failures


@dataclass(frozen=True)
class RunMeta:
    """Static facts about one engine run, handed to observers at
    ``on_run_start``.

    Every field except ``graph`` is a plain scalar so trace writers can
    serialize the metadata verbatim; ``graph`` is the in-process handle
    that graph-aware observers (locality accounting, shattering
    profiles) may *read* — observers are spectators and must never
    mutate it (static-analysis rule LM008).  The metadata is identical
    between :func:`run_local` and :func:`run_local_reference` so that
    traces stay byte-identical across engines.
    """

    algorithm: str
    model: Model
    n: int
    num_edges: int
    max_degree: int
    max_rounds: int
    seed: Optional[int] = None
    graph: Optional[Graph] = None


class _Events:
    """One round's observed events (or the setup pass's), appended in
    scan order to plain-list :class:`~repro.obs.RoundBatch` columns.

    The engines hold ``events = None`` when nothing is attached, so the
    hot loop pays exactly one ``is not None`` test per vertex-step; all
    per-event work lives behind that guard.
    """

    __slots__ = (
        "stepped",
        "published",
        "values",
        "halted",
        "outputs",
        "failed",
        "reasons",
        "faults",
    )

    def __init__(self) -> None:
        self.stepped: List[int] = []
        self.published: List[int] = []
        self.values: List[Any] = []
        self.halted: List[int] = []
        self.outputs: List[Any] = []
        self.failed: List[int] = []
        self.reasons: List[str] = []
        self.faults: List[Tuple[int, Any]] = []

    def settle(self, v: int, ctx: NodeContext) -> None:
        """Append ``v``'s publish (uncommitted yet), then its failure or
        halt."""
        if ctx._pub_dirty:
            self.published.append(v)
            self.values.append(ctx._next_pub)
        if ctx.failure is not None:
            self.failed.append(v)
            self.reasons.append(ctx.failure)
        elif ctx.halted:
            self.halted.append(v)
            self.outputs.append(ctx.output)

    def crash(self, v: int, fault: Any, reason: str) -> None:
        """Append a crash-stop: its fault, then its failure."""
        self.faults.append((v, fault))
        self.failed.append(v)
        self.reasons.append(reason)

    def batch(
        self,
        round_index: int,
        active: int,
        awake: int,
        halted: int,
        messages: int,
    ) -> Any:
        """The columns as a :class:`~repro.obs.RoundBatch`."""
        from ..obs.observer import RoundBatch

        return RoundBatch(
            round_index,
            active=active,
            awake=awake,
            halted=halted,
            messages=messages,
            stepped=self.stepped,
            published=self.published,
            publish_values=self.values,
            halted_verts=self.halted,
            halt_values=self.outputs,
            failed=self.failed,
            fail_reasons=self.reasons,
            faults=self.faults,
        )


#: Ambiently attached observers (see :func:`observe_runs`).
_GLOBAL_OBSERVERS: Tuple[Any, ...] = ()

#: Ambiently attached fault plan (see :func:`inject_faults`).
_ACTIVE_FAULT_PLAN: Optional[Any] = None


@contextmanager
def inject_faults(plan: Any) -> Iterator[None]:
    """Attach a :class:`repro.faults.FaultPlan` to every engine run in
    scope.

    The fault counterpart of :func:`observe_runs`: multi-phase drivers
    call ``run_local`` internally and take no ``fault_plan`` argument,
    so an adversary for a whole driver execution is attached
    ambiently::

        with inject_faults(FaultPlan(seed=7, drop_rate=0.01)):
            pettie_su_tree_coloring(tree, seed=1)

    An explicit ``run_local(..., fault_plan=...)`` argument takes
    precedence over the ambient plan.  The previous plan is restored on
    exit even when the run raises; scopes nest (innermost wins).
    """
    global _ACTIVE_FAULT_PLAN
    previous = _ACTIVE_FAULT_PLAN
    _ACTIVE_FAULT_PLAN = plan
    try:
        yield
    finally:
        _ACTIVE_FAULT_PLAN = previous


def active_fault_plan() -> Optional[Any]:
    """The ambient fault plan installed by :func:`inject_faults` (or
    ``None`` outside any scope)."""
    return _ACTIVE_FAULT_PLAN


@contextmanager
def observe_runs(*observers: Any) -> Iterator[None]:
    """Attach ``observers`` to every ``run_local`` call in scope.

    The counterpart of :func:`~repro.core.backend.use_backend`: multi-phase
    drivers call ``run_local`` internally and take no ``observers``
    argument, so telemetry for a whole driver execution is attached
    ambiently::

        trace = JsonlTraceObserver("run.jsonl")
        with observe_runs(trace):
            pettie_su_tree_coloring(tree, seed=1)

    Nested scopes compose (inner observers are appended); the previous
    set is restored on exit even when the run raises.  Explicit
    ``run_local(..., observers=[...])`` observers are dispatched before
    ambient ones.
    """
    global _GLOBAL_OBSERVERS
    previous = _GLOBAL_OBSERVERS
    _GLOBAL_OBSERVERS = previous + tuple(observers)
    try:
        yield
    finally:
        _GLOBAL_OBSERVERS = previous


def _attached_observers(
    observers: Optional[Sequence[Any]],
) -> Tuple[Any, ...]:
    """Explicit observers first, then the ambient ``observe_runs`` set.

    Engines deliver round batches only, so an object without
    ``on_round_batch`` is refused here, before the run starts, rather
    than dying mid-run.
    """
    attached = _GLOBAL_OBSERVERS
    if observers:
        attached = tuple(observers) + attached
    for obs in attached:
        if not callable(getattr(obs, "on_round_batch", None)):
            raise TypeError(
                f"{type(obs).__name__} cannot observe runs: it has no "
                "on_round_batch — subclass repro.obs.RunObserver"
            )
    return attached


def _open_run(
    observers: Tuple[Any, ...],
    meta: RunMeta,
    backend_info: Tuple[str, Optional[str]],
    setup_batch: Any,
) -> None:
    """Open a run on every observer once its setup pass succeeded: the
    run start, the engine's name, then the setup batch."""
    for obs in observers:
        obs.on_run_start(meta)
    for obs in observers:
        obs.on_backend_info(*backend_info)
    for obs in observers:
        obs.on_round_batch(setup_batch)


def _run_setup(
    contexts: List[NodeContext],
    algorithm: SyncAlgorithm,
    clock: _Clock,
    events: Optional[_Events],
) -> None:
    """Round-free setup pass, shared verbatim by every per-node engine.

    Its events (publishes and halts before the first communication
    round) go to ``events``, the setup batch at :data:`SETUP_ROUND`.
    """
    for v, ctx in enumerate(contexts):
        ctx._clock = clock
        algorithm.setup(ctx)
        if events is not None:
            events.settle(v, ctx)
        ctx._commit()


def make_node_rngs(n: int, seed: Optional[int]) -> List[random.Random]:
    """Independent per-vertex random streams derived from a master seed.

    The derivation uses the engine-internal vertex index, which is never
    visible to the algorithm — RandLOCAL vertices stay undifferentiated.
    """
    master = random.Random(seed)
    return [random.Random(master.getrandbits(64)) for _ in range(n)]


def checked_ids(
    n: int,
    model: Model,
    ids: Optional[Sequence[int]],
    allow_duplicate_ids: bool,
) -> Optional[Sequence[int]]:
    """The run's vertex IDs, validated for the model.

    DetLOCAL gets ``ids`` (default ``0..n-1``), checked for length and,
    unless ``allow_duplicate_ids``, for uniqueness; RandLOCAL gets None
    and refuses explicit IDs.  Every engine calls this, so
    configuration errors are backend-identical.
    """
    if model is Model.DET:
        if ids is None:
            ids = sequential_ids(n)
        if len(ids) != n:
            raise DuplicateIDError(f"need {n} IDs, got {len(ids)}")
        if not allow_duplicate_ids:
            check_unique_ids(ids)
        return ids
    if ids is not None:
        raise SimulationError(
            "RandLOCAL vertices are undifferentiated; do not pass IDs"
        )
    return None


def build_contexts(
    graph: Graph,
    model: Model,
    *,
    ids: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    node_inputs: Optional[Sequence[Dict[str, Any]]] = None,
    global_params: Optional[Dict[str, Any]] = None,
    rng_factory: Optional[Any] = None,
    allow_duplicate_ids: bool = False,
) -> List[NodeContext]:
    """Construct one context per vertex, validated for the model.

    ``rng_factory(v)`` (RandLOCAL only) overrides the per-vertex random
    stream — the hook used by the Theorem 3 derandomizer, which replaces
    true randomness with ``Random(φ(ID(v)))`` for a fixed seed function φ
    (making the whole execution a deterministic algorithm).

    ``allow_duplicate_ids`` waives the global-uniqueness configuration
    check: Theorems 5 and 6 deliberately run algorithms under IDs that
    are unique only within the algorithm's horizon.  The caller asserts
    that the algorithm never compares IDs of farther-apart vertices.

    The global parameters are *common knowledge by definition* (Section
    I), so all ``n`` contexts share one read-only mapping — a mutation
    attempt raises ``TypeError`` instead of silently diverging per node.
    """
    n = graph.num_vertices
    max_degree = graph.max_degree
    ids = checked_ids(n, model, ids, allow_duplicate_ids)
    if ids is not None:
        rngs: List[Optional[random.Random]] = [None] * n
    else:
        ids = [None] * n  # type: ignore[list-item]
        if rng_factory is not None:
            rngs = [rng_factory(v) for v in range(n)]
        else:
            rngs = list(make_node_rngs(n, seed))
    shared_globals = MappingProxyType(dict(global_params or {}))
    contexts = []
    for v in range(n):
        node_input: Dict[str, Any] = dict(node_inputs[v]) if node_inputs else {}
        node_input["reverse_ports"] = graph.reverse_ports(v)
        contexts.append(
            NodeContext(
                index=v,
                degree=graph.degree(v),
                n=n,
                max_degree=max_degree,
                model=model,
                node_id=ids[v],
                rng=rngs[v],
                node_input=node_input,
                global_params=shared_globals,
            )
        )
    return contexts


def flat_adjacency(graph: Graph) -> Tuple[List[int], List[int]]:
    """The graph's adjacency as flat CSR arrays ``(offsets, targets)``.

    ``targets[offsets[v]:offsets[v + 1]]`` lists ``v``'s neighbors in
    port order.  Built once per run; the hot loop then delivers inboxes
    with plain list indexing instead of per-step method dispatch.
    """
    n = graph.num_vertices
    offsets = [0] * (n + 1)
    targets: List[int] = []
    extend = targets.extend
    for v in range(n):
        extend(graph.neighbors(v))
        offsets[v + 1] = len(targets)
    return offsets, targets


def run_local(
    graph: Graph,
    algorithm: SyncAlgorithm,
    model: Model,
    *,
    ids: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    node_inputs: Optional[Sequence[Dict[str, Any]]] = None,
    global_params: Optional[Dict[str, Any]] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    rng_factory: Optional[Any] = None,
    allow_duplicate_ids: bool = False,
    observers: Optional[Sequence[Any]] = None,
    fault_plan: Optional[Any] = None,
    backend: Optional[str] = None,
) -> RunResult:
    """Run ``algorithm`` on ``graph`` under ``model``.

    Inside an ambient :func:`~repro.core.checkpoint.checkpointing`
    scope the run snapshots its resumable state at round boundaries
    and, when the scope resumes, restores from its slot's snapshot.

    Parameters
    ----------
    ids:
        DetLOCAL only — unique vertex IDs (defaults to ``0..n-1``).
    seed:
        RandLOCAL only — master seed for the per-vertex random streams.
    node_inputs:
        Optional per-vertex input labels, e.g.
        ``{"edge_colors": [c_port0, c_port1, ...]}`` for the sinkless
        problems.
    global_params:
        Extra common-knowledge parameters, available as ``ctx.globals``
        (one shared read-only mapping).
    max_rounds:
        Safety cap; exceeding it raises :class:`SimulationError`.
    observers:
        Read-only :class:`repro.obs.RunObserver` spectators (combined
        with any ambient :func:`observe_runs` observers); an object
        without ``on_round_batch`` raises ``TypeError``.  Attaching
        observers never changes the :class:`RunResult`; with none
        attached the recording costs one pointer test per vertex-step.
    fault_plan:
        A :class:`repro.faults.FaultPlan` adversary (overrides any
        ambient :func:`inject_faults` plan).  Fault decisions are a
        deterministic function of the plan seed and the (round, vertex,
        port) coordinates, so a plan perturbs every backend
        identically; with no plan attached the middleware costs one
        pointer test per vertex-step.
    backend:
        Engine backend name (see :mod:`repro.core.backend`).  Overrides
        the ambient :func:`~repro.core.backend.use_backend` scope and
        the ``REPRO_BACKEND`` environment variable; defaults to
        ``"fast"``.  Every backend returns the identical
        :class:`RunResult` — selection is a performance choice, never a
        semantic one.

    Returns
    -------
    RunResult
        Outputs, exact round count, message count, declared failures.
    """
    name = backend if backend is not None else current_backend_name()
    # Resolve every name — including the default — through the
    # registry, so register_backend("fast", ...) replacements are
    # honored exactly as the registry API documents.
    be = get_backend(name)
    runner: Runner = be.load()
    options: Dict[str, Any] = {
        "ids": ids,
        "seed": seed,
        "node_inputs": node_inputs,
        "global_params": global_params,
        "max_rounds": max_rounds,
        "rng_factory": rng_factory,
        "allow_duplicate_ids": allow_duplicate_ids,
        "observers": observers,
        "fault_plan": fault_plan,
    }
    scope = current_checkpoint_scope()
    if scope is None:
        # No checkpointing in scope: custom-registered backends need
        # not know the ``checkpoint`` keyword exists.
        return runner(graph, algorithm, model, **options)
    session = scope.next_session()
    plan = fault_plan if fault_plan is not None else _ACTIVE_FAULT_PLAN
    session.bind(
        be,
        _attached_observers(observers),
        {
            "algorithm": algorithm.name,
            "model": model.value,
            "n": graph.num_vertices,
            "num_edges": graph.num_edges,
            "seed": seed,
            "max_rounds": max_rounds,
            "backend": name,
            "slot": session.slot,
            "faults": plan.fingerprint() if plan is not None else None,
        },
    )
    if session.begin():
        # The slot already finished in the interrupted process: replay
        # its recorded result without re-running the engine (observers
        # were restored to their end-of-slot positions by begin()).
        result: RunResult = session.done_result()
        return result
    result = runner(graph, algorithm, model, checkpoint=session, **options)
    session.record_done(result)
    return result


class _ScalarState:
    """A view over per-node run state in the ``"scalar"`` snapshot
    format.

    The reference engine uses it as its checkpoint handle, and the
    capture/restore functions below are the ``"reference"`` backend's
    registered checkpoint capability.  The per-node stepper (and each
    shard worker, over the vertices it owns) builds one at capture or
    restore time, so every scalar-format snapshot is written and read
    by the same two functions.
    """

    __slots__ = ("contexts", "faults", "rounds", "messages")

    def __init__(
        self,
        contexts: List[NodeContext],
        faults: Optional[Any],
        rounds: int = 0,
        messages: int = 0,
    ) -> None:
        self.contexts = contexts
        self.faults = faults
        self.rounds = rounds
        self.messages = messages


def _capture_scalar_state(state: _ScalarState) -> Dict[str, Any]:
    """Serialize a round-boundary scalar snapshot (format ``"scalar"``).

    Taken strictly at round boundaries, where the dirty-commit pass has
    already run: every context has ``_pub_dirty == False`` and the fast
    engine's ``visible`` list equals ``[ctx._pub ...]``, so published
    values alone reconstruct the visible plane.  Wake buckets are not
    stored — they are an index over ``ctx._wake_round``, rebuilt on
    restore.
    """
    nodes: List[Tuple[Any, ...]] = []
    for ctx in state.contexts:
        nodes.append(
            (
                ctx.state,
                ctx.input,
                ctx._pub,
                ctx._wake_round,
                ctx.halted,
                ctx.output,
                ctx.failure,
                ctx.failure_round,
                ctx._rng.getstate() if ctx._rng is not None else None,
            )
        )
    faults = state.faults
    fault_last = (
        dict(faults._last)
        if faults is not None and faults._last is not None
        else None
    )
    return {
        "format": "scalar",
        "rounds": state.rounds,
        "messages": state.messages,
        "nodes": nodes,
        "fault_last": fault_last,
    }


def _restore_scalar_state(
    state: _ScalarState, payload: Dict[str, Any]
) -> None:
    """Apply a ``"scalar"`` snapshot onto freshly built contexts."""
    state.rounds = payload["rounds"]
    state.messages = payload["messages"]
    nodes = payload["nodes"]
    if len(nodes) != len(state.contexts):
        raise CheckpointError(
            f"snapshot holds {len(nodes)} vertices but the run has "
            f"{len(state.contexts)} — resume on the same graph"
        )
    for ctx, snap in zip(state.contexts, nodes):
        (
            ctx.state,
            ctx.input,
            pub,
            ctx._wake_round,
            ctx.halted,
            ctx.output,
            ctx.failure,
            ctx.failure_round,
            rng_state,
        ) = snap
        ctx._pub = pub
        ctx._next_pub = pub
        ctx._pub_dirty = False
        if rng_state is not None:
            assert ctx._rng is not None
            ctx._rng.setstate(rng_state)
    faults = state.faults
    if faults is not None and faults._last is not None:
        faults._last.clear()
        last = payload.get("fault_last")
        if last:
            faults._last.update(last)


class Stepper:
    """How one backend executes a round; :func:`run_rounds` does the rest.

    The loop calls ``setup()`` on a fresh run — False declines the run
    before anything observable happened, and the backend runs the
    per-node engine instead — or ``restore(payload)`` on a resumed one.
    ``schedule(rounds)`` then indexes the live vertices at that
    boundary: a strictly later wake round parks a vertex, anything else
    makes it runnable.  At each round boundary ``active()`` counts the
    live vertices (0 ends the run) and ``wake(rounds)`` admits those
    due, answering None when some vertex steps this round and else the
    round the next sleeper wakes; ``step(rounds)`` executes one whole
    round and returns ``(awake, halted)``.  ``capture`` may run at any
    boundary, ``round_batch`` (the setup pass's or the last round's
    RoundBatch) only when observers are attached, ``finish()`` returns
    ``(outputs, failures)``, and ``close()`` runs last whatever
    happened.
    """

    #: Snapshot format this stepper captures and restores.
    format = "scalar"
    #: ``on_backend_info`` arguments: the backend and kernel that ran.
    backend_info: Tuple[str, Optional[str]] = ("", None)

    def setup(self) -> bool:
        raise NotImplementedError

    def restore(self, payload: Dict[str, Any]) -> None:
        raise NotImplementedError

    def capture(self, rounds: int, messages: int) -> Dict[str, Any]:
        raise NotImplementedError

    def schedule(self, rounds: int) -> None:
        raise NotImplementedError

    def active(self) -> int:
        raise NotImplementedError

    def wake(self, rounds: int) -> Optional[int]:
        raise NotImplementedError

    def step(self, rounds: int) -> Tuple[int, int]:
        raise NotImplementedError

    def round_batch(
        self,
        round_index: int,
        active: int,
        awake: int,
        halted: int,
        messages: int,
    ) -> Any:
        raise NotImplementedError

    def finish(self) -> Tuple[List[Any], Dict[int, str]]:
        raise NotImplementedError

    def close(self) -> None:
        pass


@dataclass
class RunState:
    """The shared loop's checkpoint handle: the stepper plus the
    counters the loop owns.  Its :meth:`capture` and :meth:`restore`
    are the checkpoint capability of every backend that runs on
    :func:`run_rounds`."""

    stepper: Stepper
    rounds: int = 0
    messages: int = 0

    def capture(self) -> Dict[str, Any]:
        return self.stepper.capture(self.rounds, self.messages)

    def restore(self, payload: Dict[str, Any]) -> None:
        self.rounds = int(payload["rounds"])
        self.messages = int(payload["messages"])
        self.stepper.restore(payload)


def start_run(
    graph: Graph,
    algorithm: SyncAlgorithm,
    model: Model,
    max_rounds: int,
    seed: Optional[int],
    fault_plan: Optional[Any],
) -> Tuple[RunMeta, Optional[Any]]:
    """The run's static facts and its activated fault plan (the
    explicit ``fault_plan``, else the ambient one, else None)."""
    meta = RunMeta(
        algorithm=algorithm.name,
        model=model,
        n=graph.num_vertices,
        num_edges=graph.num_edges,
        max_degree=graph.max_degree,
        max_rounds=max_rounds,
        seed=seed,
        graph=graph,
    )
    plan = fault_plan if fault_plan is not None else _ACTIVE_FAULT_PLAN
    return meta, plan.activate(meta) if plan is not None else None


def run_rounds(
    stepper: Stepper,
    meta: RunMeta,
    faults: Any,
    observers: Tuple[Any, ...],
    *,
    checkpoint: Optional[CheckpointSession],
) -> Optional[RunResult]:
    """The round loop of the fast, vectorized and sharded backends.

    Per round boundary, in this order: take a due checkpoint, raise on
    an exhausted fault budget, raise past ``max_rounds``, then either
    bulk-account a span in which every live vertex sleeps (up to the
    next wake, clamped at the cap and the budget, so both guards fire
    at exactly the round the reference engine reaches them) or let the
    stepper execute one round.  Skipped rounds still get an empty
    round batch with the counts the reference engine reports for them:
    every parked vertex active, nobody awake, nobody halting.

    Observers get one ``RoundBatch`` per round.  A run opens — only
    once setup succeeded — with ``on_run_start``, ``on_backend_info``
    and the setup batch, and closes with ``on_run_end``, or with
    ``on_run_abort`` when it raises (setup included).

    Returns None only when the stepper declined the run in ``setup``.
    """
    if observers:
        from ..obs.observer import RoundBatch
    state = RunState(stepper)
    resumed = (
        checkpoint.engine_payload(stepper.format)
        if checkpoint is not None
        else None
    )
    budget = faults.budget if faults is not None else None
    max_rounds = meta.max_rounds
    messages_per_round = 2 * meta.num_edges
    rounds = 0
    try:
        if checkpoint is not None and resumed is not None:
            # Resume: the snapshot replaces run_start + setup — the
            # restored observers already received those in the
            # interrupted process, and the restored state already
            # carries its post-setup values.
            checkpoint.restore_engine(state, resumed)
        else:
            if not stepper.setup():
                return None
            if observers:
                _open_run(
                    observers,
                    meta,
                    stepper.backend_info,
                    stepper.round_batch(SETUP_ROUND, 0, 0, 0, 0),
                )
        rounds = state.rounds
        messages = state.messages
        stepper.schedule(rounds)
        while True:
            active = stepper.active()
            if not active:
                break
            if checkpoint is not None and checkpoint.due(rounds):
                state.rounds = rounds
                state.messages = messages
                checkpoint.save(state, rounds)
            if budget is not None and rounds >= budget:
                budget_error = faults.budget_error(rounds)
                for obs in observers:
                    # Run-level fault: delivered at once, never part of
                    # a batch — the round it interrupts never ends.
                    obs.on_run_fault(rounds, budget_error)
                raise budget_error
            if rounds >= max_rounds:
                raise SimulationError(
                    f"{meta.algorithm!r} exceeded {max_rounds} rounds on "
                    f"n={meta.n} (likely non-terminating)",
                    round=rounds,
                    run_meta=meta,
                )
            skip_to = stepper.wake(rounds)
            if skip_to is not None:
                skip_to = min(skip_to, max_rounds)
                if budget is not None and budget < skip_to:
                    skip_to = budget
                if observers:
                    for r in range(rounds, skip_to):
                        empty = RoundBatch(
                            r, active=active, messages=messages_per_round
                        )
                        for obs in observers:
                            obs.on_round_batch(empty)
                messages += (skip_to - rounds) * messages_per_round
                rounds = skip_to
                continue
            awake, halted = stepper.step(rounds)
            if observers:
                batch = stepper.round_batch(
                    rounds, active, awake, halted, messages_per_round
                )
                for obs in observers:
                    obs.on_round_batch(batch)
            rounds += 1
            messages += messages_per_round
        outputs, failures = stepper.finish()
    except BaseException as exc:
        # The run died mid-flight (algorithm exception, injected
        # budget, a killed worker, a kill signal surfacing as
        # KeyboardInterrupt): give buffering observers one flush so
        # partial runs keep their telemetry, then keep propagating.
        for obs in observers:
            obs.on_run_abort(rounds, exc)
        raise
    finally:
        stepper.close()
    result = RunResult(
        outputs=outputs,
        rounds=rounds,
        messages=messages,
        failures=failures,
    )
    for obs in observers:
        obs.on_run_end(result)
    return result


class NodeStepper(Stepper):
    """The per-node stepper: one ``algorithm.step`` call per awake
    vertex.

    Engine invariants (identical to :func:`run_local_reference`; the
    equivalence suite enforces this):

    - **dirty-commit**: a publish becomes visible only after every step
      of the publishing round returned — commits are deferred to a
      separate pass over the (few) dirty vertices, so double buffering
      is preserved while costing O(changed), not O(n);
    - **wake buckets**: a vertex sleeping until round ``w`` is parked in
      ``buckets[w]`` and touched exactly once, when round ``w`` starts.

    The sharded backend's workers run this stepper over the vertices
    their shard owns and ship its batch columns to the parent.
    """

    backend_info = ("fast", None)

    def __init__(
        self,
        graph: Graph,
        algorithm: SyncAlgorithm,
        contexts: List[NodeContext],
        faults: Optional[Any],
        observing: bool,
    ) -> None:
        self.algorithm = algorithm
        self.contexts = contexts
        self.faults = faults
        #: The current round's batch columns; None when unobserved.
        self.events: Optional[_Events] = _Events() if observing else None
        self.deliver = (
            faults.deliver
            if faults is not None and faults.touches_messages
            else None
        )
        self.clock = _Clock()
        self.offsets, self.targets = flat_adjacency(graph)
        #: Persistent per-vertex visible values; updated in place by the
        #: dirty-commit pass instead of being rebuilt every round.
        self.visible: List[Any] = []
        #: wake round -> vertices parked until that round.
        self.buckets: Dict[int, List[int]] = {}
        self.runnable: List[int] = []
        self.parked = 0
        #: Vertices whose publish the last round committed.
        self.dirty: List[int] = []
        #: The vertex whose step raised, if one did.
        self.failed_vertex: Optional[int] = None

    def setup(self) -> bool:
        _run_setup(self.contexts, self.algorithm, self.clock, self.events)
        self.visible = [ctx._pub for ctx in self.contexts]
        return True

    def restore(self, payload: Dict[str, Any]) -> None:
        _restore_scalar_state(
            _ScalarState(self.contexts, self.faults), payload
        )
        for ctx in self.contexts:
            ctx._clock = self.clock
        self.clock.now = payload["rounds"]
        self.visible = [ctx._pub for ctx in self.contexts]

    def capture(self, rounds: int, messages: int) -> Dict[str, Any]:
        return _capture_scalar_state(
            _ScalarState(self.contexts, self.faults, rounds, messages)
        )

    def schedule(
        self, rounds: int, vertices: Optional[Sequence[int]] = None
    ) -> None:
        """See :meth:`Stepper.schedule`; ``vertices`` restricts the
        index to the vertices one shard owns."""
        contexts = self.contexts
        buckets: Dict[int, List[int]] = {}
        parked = 0
        runnable: List[int] = []
        for v in range(len(contexts)) if vertices is None else vertices:
            ctx = contexts[v]
            if ctx.halted:
                continue
            wake = ctx._wake_round
            if wake is not None and wake > rounds:
                buckets.setdefault(wake, []).append(v)
                parked += 1
            else:
                runnable.append(v)
        self.buckets = buckets
        self.parked = parked
        self.runnable = runnable

    def active(self) -> int:
        return len(self.runnable) + self.parked

    def wake(self, rounds: int) -> Optional[int]:
        if self.parked:
            due = self.buckets.pop(rounds, None)
            if due:
                self.parked -= len(due)
                self.runnable.extend(due)
            if not self.runnable:
                return min(self.buckets)
        return None

    def step(self, rounds: int) -> Tuple[int, int]:
        self.clock.now = rounds
        events = self.events
        runnable = self.runnable
        if events is not None:
            # Canonical column order: the reference engine scans
            # vertices ascending, so the observed fast engine does too
            # (per-round vertex steps are order-independent under
            # double buffering — RunResult is unchanged).
            runnable.sort()
        contexts = self.contexts
        visible = self.visible
        offsets = self.offsets
        targets = self.targets
        buckets = self.buckets
        faults = self.faults
        deliver = self.deliver
        step = self.algorithm.step
        parked = self.parked
        halted_this_round = 0
        dirty: List[int] = []
        next_runnable: List[int] = []
        try:
            for v in runnable:
                ctx = contexts[v]
                ctx._wake_round = None
                if faults is not None and faults.crashed(rounds, v):
                    # Crash-stop: the vertex never steps this round (or
                    # again).  It counts as awake (it was scheduled) and
                    # halted; its last published value stays visible,
                    # like a halted processor's.  No delivery happens,
                    # so the stale-duplicate bookkeeping stays
                    # engine-identical.
                    reason = faults.crash_reason(rounds)
                    ctx.fail(reason)
                    halted_this_round += 1
                    if events is not None:
                        events.crash(v, faults.crash_event(rounds, v), reason)
                    continue
                lo = offsets[v]
                hi = offsets[v + 1]
                inbox = [visible[u] for u in targets[lo:hi]]
                if deliver is not None:
                    injected = deliver(rounds, v, inbox, events is not None)
                    if events is not None and injected:
                        events.faults.extend((v, fault) for fault in injected)
                step(ctx, inbox)
                if ctx._pub_dirty:
                    dirty.append(v)
                if ctx.halted:
                    halted_this_round += 1
                else:
                    wake = ctx._wake_round
                    if wake is not None and wake > rounds + 1:
                        buckets.setdefault(wake, []).append(v)
                        parked += 1
                    else:
                        next_runnable.append(v)
                if events is not None:
                    events.stepped.append(v)
                    events.settle(v, ctx)
        except BaseException:
            # Name the failing vertex: the sharded backend raises the
            # error of the lowest one across its shards, as a serial
            # ascending scan would.
            self.failed_vertex = v
            raise
        # Deferred dirty-commit pass: no publish became visible before
        # every step of this round finished (double buffering).
        for v in dirty:
            ctx = contexts[v]
            ctx._pub = ctx._next_pub
            ctx._pub_dirty = False
            visible[v] = ctx._pub
        self.runnable = next_runnable
        self.parked = parked
        self.dirty = dirty
        return len(runnable), halted_this_round

    def drain(self) -> _Events:
        """Hand over the batch columns recorded since the last drain."""
        events = self.events
        assert events is not None  # only called on observed runs
        self.events = _Events()
        return events

    def round_batch(
        self,
        round_index: int,
        active: int,
        awake: int,
        halted: int,
        messages: int,
    ) -> Any:
        return self.drain().batch(round_index, active, awake, halted, messages)

    def finish(self) -> Tuple[List[Any], Dict[int, str]]:
        contexts = self.contexts
        failures = {
            v: ctx.failure for v, ctx in enumerate(contexts) if ctx.failure
        }
        return [ctx.output for ctx in contexts], failures


def _run_local_fast(
    graph: Graph,
    algorithm: SyncAlgorithm,
    model: Model,
    *,
    ids: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    node_inputs: Optional[Sequence[Dict[str, Any]]] = None,
    global_params: Optional[Dict[str, Any]] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    rng_factory: Optional[Any] = None,
    allow_duplicate_ids: bool = False,
    observers: Optional[Sequence[Any]] = None,
    fault_plan: Optional[Any] = None,
    checkpoint: Optional[CheckpointSession] = None,
) -> RunResult:
    """The ``"fast"`` backend: the per-node stepper on the shared
    round loop.  The other backends call it directly when they cannot
    build their own stepper."""
    contexts = build_contexts(
        graph,
        model,
        ids=ids,
        seed=seed,
        node_inputs=node_inputs,
        global_params=global_params,
        rng_factory=rng_factory,
        allow_duplicate_ids=allow_duplicate_ids,
    )
    meta, faults = start_run(
        graph, algorithm, model, max_rounds, seed, fault_plan
    )
    attached = _attached_observers(observers)
    result = run_rounds(
        NodeStepper(graph, algorithm, contexts, faults, bool(attached)),
        meta,
        faults,
        attached,
        checkpoint=checkpoint,
    )
    assert result is not None  # the per-node stepper never declines
    return result


def _load_vectorized_backend() -> Runner:
    """Resolve the numpy whole-round backend (the ``[perf]`` extra).

    Imported lazily and by name so that neither :mod:`repro.core` nor
    the type-checked layer ever depends on numpy being installed.
    """
    import importlib

    try:
        module = importlib.import_module("repro.backends.vectorized")
    except ImportError as exc:
        raise ReproError(
            "the 'vectorized' backend requires numpy, which is not "
            "installed; install the perf extra: "
            "pip install 'repro[perf]'"
        ) from exc
    runner: Runner = module.run_local_vectorized
    return runner


def run_local_reference(
    graph: Graph,
    algorithm: SyncAlgorithm,
    model: Model,
    *,
    ids: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    node_inputs: Optional[Sequence[Dict[str, Any]]] = None,
    global_params: Optional[Dict[str, Any]] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    rng_factory: Optional[Any] = None,
    allow_duplicate_ids: bool = False,
    observers: Optional[Sequence[Any]] = None,
    fault_plan: Optional[Any] = None,
    checkpoint: Optional[CheckpointSession] = None,
) -> RunResult:
    """The kept-simple engine: full snapshot and full scan every round.

    Semantically identical to :func:`run_local` (same signature, same
    :class:`RunResult`), but O(n) per round regardless
    of how many vertices are awake.  It exists as the oracle for the
    equivalence suite and as the baseline the perf harness measures
    speedups against; it must stay a direct transcription of the model.

    Observers attached here receive the exact same round batches as
    under the fast engine — the telemetry determinism contract the
    equivalence suite pins down.  Fault plans likewise inject the exact
    same faults: decisions are hash-derived per (round, vertex, port),
    never drawn sequentially, so vertex scan order cannot skew them.
    """
    contexts = build_contexts(
        graph,
        model,
        ids=ids,
        seed=seed,
        node_inputs=node_inputs,
        global_params=global_params,
        rng_factory=rng_factory,
        allow_duplicate_ids=allow_duplicate_ids,
    )
    n = graph.num_vertices
    meta, faults = start_run(
        graph, algorithm, model, max_rounds, seed, fault_plan
    )
    attached = _attached_observers(observers)
    events = _Events() if attached else None
    clock = _Clock()
    state = _ScalarState(contexts, faults)
    resumed = (
        checkpoint.engine_payload("scalar")
        if checkpoint is not None
        else None
    )
    rounds = 0
    messages = 0
    try:
        if resumed is not None:
            # Resume: the snapshot replaces run_start + setup (see the
            # fast engine); the active list below is an index over the
            # restored halt flags, so it needs no stored counterpart.
            checkpoint.restore_engine(state, resumed)
            for ctx in contexts:
                ctx._clock = clock
            clock.now = state.rounds
        else:
            _run_setup(contexts, algorithm, clock, events)
            if events is not None:
                _open_run(
                    attached,
                    meta,
                    ("reference", None),
                    events.batch(SETUP_ROUND, 0, 0, 0, 0),
                )
                events = _Events()

        rounds = state.rounds
        messages = state.messages
        messages_per_round = 2 * graph.num_edges
        active = [v for v in range(n) if not contexts[v].halted]
        budget = faults.budget if faults is not None else None
        deliver = (
            faults.deliver
            if faults is not None and faults.touches_messages
            else None
        )
        while active:
            if checkpoint is not None and checkpoint.due(rounds):
                state.rounds = rounds
                state.messages = messages
                checkpoint.save(state, rounds)
            if budget is not None and rounds >= budget:
                budget_error = faults.budget_error(rounds)
                for obs in attached:
                    obs.on_run_fault(rounds, budget_error)
                raise budget_error
            if rounds >= max_rounds:
                raise SimulationError(
                    f"{algorithm.name!r} exceeded {max_rounds} rounds on "
                    f"n={n} (likely non-terminating)",
                    round=rounds,
                    run_meta=meta,
                )
            clock.now = rounds
            snapshot = [ctx._pub for ctx in contexts]
            dirty = False
            awake = 0
            halted_this_round = 0
            for v in active:
                ctx = contexts[v]
                wake = ctx._wake_round
                if wake is not None and wake > rounds:
                    continue
                ctx._wake_round = None
                awake += 1
                if faults is not None and faults.crashed(rounds, v):
                    # Mirror of the fast engine's crash-stop block: counts
                    # as awake + halted, never steps, delivery skipped.
                    reason = faults.crash_reason(rounds)
                    ctx.fail(reason)
                    dirty = True
                    halted_this_round += 1
                    if events is not None:
                        events.crash(v, faults.crash_event(rounds, v), reason)
                    continue
                inbox = [snapshot[u] for u in graph.neighbors(v)]
                if deliver is not None:
                    injected = deliver(rounds, v, inbox, events is not None)
                    if events is not None and injected:
                        events.faults.extend((v, fault) for fault in injected)
                algorithm.step(ctx, inbox)
                if ctx.halted:
                    dirty = True
                    halted_this_round += 1
                if events is not None:
                    events.stepped.append(v)
                    events.settle(v, ctx)
            for v in active:
                contexts[v]._commit()
            if events is not None:
                batch = events.batch(
                    rounds,
                    len(active),
                    awake,
                    halted_this_round,
                    messages_per_round,
                )
                events = _Events()
                for obs in attached:
                    obs.on_round_batch(batch)
            if dirty:
                active = [v for v in active if not contexts[v].halted]
            rounds += 1
            messages += messages_per_round
    except BaseException as exc:
        for obs in attached:
            obs.on_run_abort(rounds, exc)
        raise

    failures = {
        v: ctx.failure for v, ctx in enumerate(contexts) if ctx.failure
    }
    outputs = [ctx.output for ctx in contexts]
    result = RunResult(
        outputs=outputs,
        rounds=rounds,
        messages=messages,
        failures=failures,
    )
    for obs in attached:
        obs.on_run_end(result)
    return result


def _load_sharded_backend() -> Runner:
    """Resolve the multi-process sharded backend.

    Pure Python (no optional dependency), but imported lazily like the
    vectorized backend so :mod:`repro.core` never imports
    :mod:`multiprocessing` machinery it might not use.
    """
    import importlib

    module = importlib.import_module("repro.backends.sharded")
    runner: Runner = module.run_local_sharded
    return runner


register_backend(
    "fast",
    lambda: _run_local_fast,
    description="production per-node loop (dirty-commit, wake buckets)",
    capture_state=RunState.capture,
    restore_state=RunState.restore,
)
register_backend(
    "reference",
    lambda: run_local_reference,
    description="kept-simple oracle loop (full snapshot, full scan)",
    capture_state=_capture_scalar_state,
    restore_state=_restore_scalar_state,
)
register_backend(
    "vectorized",
    _load_vectorized_backend,
    description="numpy whole-round kernels over the CSR adjacency "
    "(requires the [perf] extra; per-node fallback for drivers "
    "without a kernel)",
    capture_state=RunState.capture,
    restore_state=RunState.restore,
)
register_backend(
    "sharded",
    _load_sharded_backend,
    description="multi-process shard workers over a deterministic "
    "vertex partition (boundary messages at round barriers; "
    "REPRO_SHARDS / --shards selects the shard count)",
    capture_state=RunState.capture,
    restore_state=RunState.restore,
)
