"""The sharded backend's parent side: fork, route, barrier, merge.

:func:`run_local_sharded` is the entry point registered as the
``"sharded"`` backend (same signature and same :class:`RunResult` as
every other backend): :func:`repro.core.engine.run_stepped` with the
stepper factory :func:`_shard_stepper`, which declines only without
``fork`` or in a daemonic process.  The shared round loop,
:func:`repro.core.engine.run_rounds` — which owns the checkpoint,
budget and max-rounds guards, bulk skips and observer lifecycle for
every backend — then runs a shard-exchange stepper that adds only
what a round barrier needs:

1. the parent runs setup (or restores a checkpoint) on the per-node
   stepper the runner built, exactly as the fast engine does, then
   forks one worker per shard — the workers inherit that stepper
   through the copied address space;
2. each round, the parent sends ``("step", r, ghosts)`` where
   ``ghosts`` are the boundary publishes committed at the previous
   barrier, routed through the partition's ghost-consumer map;
3. each worker runs the per-node stepper over its owned vertices
   (crash/drop/duplicate/corrupt decisions recomputed shard-locally
   from the placement-independent splitmix64 hashes) and replies with
   its activity counts, its next wake round, its boundary publishes,
   and (when observing) the stepper's batch columns;
4. the parent sums the counts, takes the next wake round as the
   minimum over shards, merges the per-shard batch columns into one
   :class:`~repro.obs.RoundBatch` in canonical vertex order, and
   routes the boundary values for the next barrier.

Determinism contract: the RunResult *and* the JSONL trace bytes equal
the serial fast engine's for every driver, every shard count, and
every fault plan — pinned by the ``PartitionInvariance`` relation in
:mod:`repro.verify` and the sharded equivalence suite.

Checkpoint snapshots are written in the ``"scalar"`` format (the
parent gathers each worker's owned-vertex state and merges it in
vertex order), so a snapshot taken at one shard count resumes at any
other — or on the fast engine — byte-identically.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

from ...core.engine import (
    NodeStepper,
    RunResult,
    Stepper,
    _Events,
    run_stepped,
)
from ...core.errors import ReproError
from ...graphs.graph import Graph
from .partition import (
    CONTIGUOUS,
    Partition,
    check_partition,
    partition_graph,
)
from .worker import CRASH_MARKER, shard_worker

#: Shard-count environment variable (the CLI's ``--shards`` writes it).
SHARDS_ENV_VAR = "REPRO_SHARDS"

#: Shard count used when neither :func:`use_shards` nor the
#: environment says otherwise.
DEFAULT_SHARD_COUNT = 2


class WorkerCrashError(ReproError):
    """A shard worker died mid-run (SIGKILL, OOM, hard crash).

    The run fails loudly instead of returning partial results; with
    in-run checkpointing enabled, resuming from the latest snapshot
    reproduces the uninterrupted execution byte-for-byte (the recovery
    path ``repro.supervise`` drives automatically).
    """


@dataclass(frozen=True)
class ShardConfig:
    """Resolved sharding parameters for one run."""

    n_shards: int
    mode: str
    seed: int

    def __post_init__(self) -> None:
        check_partition(self.n_shards, self.mode)


_AMBIENT_CONFIG: Optional[ShardConfig] = None


@contextmanager
def use_shards(
    n_shards: int, *, mode: str = CONTIGUOUS, seed: int = 0
) -> Iterator[None]:
    """Pin the sharded backend's partition for every run in scope.

    The only way to choose the placement ``mode`` and ``seed``; takes
    precedence over the ``REPRO_SHARDS`` environment variable.  Scopes
    nest (innermost wins) and the previous configuration is restored
    on exit even when the run raises.
    """
    config = ShardConfig(n_shards=n_shards, mode=mode, seed=seed)
    global _AMBIENT_CONFIG
    previous = _AMBIENT_CONFIG
    _AMBIENT_CONFIG = config
    try:
        yield
    finally:
        _AMBIENT_CONFIG = previous


def current_shard_config() -> ShardConfig:
    """The sharding parameters the next sharded run will use.

    Precedence: the innermost :func:`use_shards` scope, then a
    contiguous partition into ``REPRO_SHARDS`` shards, then
    ``DEFAULT_SHARD_COUNT`` contiguous shards.
    """
    if _AMBIENT_CONFIG is not None:
        return _AMBIENT_CONFIG
    raw = os.environ.get(SHARDS_ENV_VAR)
    if raw is None:
        n_shards = DEFAULT_SHARD_COUNT
    else:
        try:
            n_shards = int(raw)
        except ValueError:
            raise ReproError(
                f"{SHARDS_ENV_VAR} must be a positive integer, "
                f"got {raw!r}"
            ) from None
    return ShardConfig(n_shards=n_shards, mode=CONTIGUOUS, seed=0)


class _ShardStepper(Stepper):
    """The shard-exchange stepper: one round is one barrier (steps 1-4
    of the module docstring).  ``node`` is the parent's per-node
    stepper; :meth:`schedule` forks the workers once a vertex is live."""

    backend_info = ("sharded", None)

    def __init__(self, node: NodeStepper, part: Partition) -> None:
        self.node = node
        self.part = part
        self.conns: List[Any] = []
        self.procs: List[Any] = []
        self.runnable = 0
        self.parked = 0
        self.next_wake: Optional[int] = None
        #: Round boundary reached by the last barrier.
        self.rounds = 0
        self.ghosts: List[List[Tuple[int, Any]]] = [
            [] for _ in range(part.n_shards)
        ]
        #: Batch columns of the setup pass or of the last round, one
        #: per shard, each ascending over the vertices it owns.
        self.segments: List[_Events] = []

    # -- the workers and the barrier -------------------------------------
    def _fork(self, start_round: int) -> None:
        part = self.part
        mp = multiprocessing.get_context("fork")
        # All pipes are created before any worker starts, so every
        # worker can close every inherited end that is not its own —
        # the fd hygiene that turns a SIGKILLed sibling into a clean
        # EOF at the parent instead of a hang.
        pairs = [mp.Pipe(duplex=True) for _ in range(part.n_shards)]
        self.conns = [parent_end for parent_end, _ in pairs]
        child_ends = [child_end for _, child_end in pairs]
        for s in range(part.n_shards):
            siblings = [
                end for t, end in enumerate(child_ends) if t != s
            ] + list(self.conns)
            proc = mp.Process(
                target=shard_worker,
                args=(
                    child_ends[s],
                    siblings,
                    s,
                    part.shards[s],
                    part.consumers,
                    self.node,
                    start_round,
                ),
                daemon=True,
                name=f"repro-shard-{s}",
            )
            proc.start()
            self.procs.append(proc)
        for child_end in child_ends:
            child_end.close()

    def _exchange(self, rounds: int, requests: Sequence[Any]) -> List[Any]:
        """Send each shard its request, then read every reply.

        When shards fail, every reply is still read, and the error of
        the lowest failing vertex is raised: the one the serial
        engines' ascending scan reaches first.
        """
        for s, request in enumerate(requests):
            try:
                self.conns[s].send(request)
            except (BrokenPipeError, OSError) as exc:
                self._death(s, rounds, exc)
        replies = []
        failed = []
        for s, conn in enumerate(self.conns):
            try:
                message = conn.recv()
            except (EOFError, OSError) as exc:
                self._death(s, rounds, exc)
            if message[0] == "error":
                vertex = message[2]
                failed.append(
                    (len(self.part.owner) if vertex is None else vertex, s)
                )
            replies.append(message[1])
        if failed:
            raise replies[min(failed)[1]]
        return replies

    def _gather(
        self, rounds: int, command: str
    ) -> Tuple[List[Any], List[Any]]:
        """Ask every shard for its per-vertex items: returns them in
        vertex order, and each shard's extra reply value."""
        part = self.part
        items: List[Any] = [None] * len(part.owner)
        replies = self._exchange(rounds, [(command,)] * part.n_shards)
        for s, (shard_items, _) in enumerate(replies):
            for v, item in zip(part.shards[s], shard_items):
                items[v] = item
        return items, [extra for _, extra in replies]

    def _death(self, s: int, rounds: int, exc: BaseException) -> NoReturn:
        proc = self.procs[s]
        proc.join(timeout=1.0)
        raise WorkerCrashError(
            f"shard worker {s} (pid {proc.pid}) died mid-run at round "
            f"{rounds} (exit code {proc.exitcode}); the run cannot "
            f"continue — resume from the latest checkpoint to recover"
        ) from exc

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("exit",))
            except Exception:
                pass
        for proc in self.procs:
            proc.join(timeout=2.0)
        for proc in self.procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self.conns:
            try:
                conn.close()
            except Exception:  # pragma: no cover
                pass
        self.conns = []
        self.procs = []

    # -- the stepper -----------------------------------------------------
    def setup(self) -> None:
        self.node.setup()
        if self.node.events is not None:
            # The setup pass's columns, recorded in the parent.
            self.segments = [self.node.drain()]

    def restore(self, payload: Dict[str, Any]) -> None:
        self.node.restore(payload)

    def capture(self, rounds: int, messages: int) -> Dict[str, Any]:
        """A ``"scalar"``-format snapshot gathered from the workers.

        Each worker owns its vertices' authoritative contexts (and the
        receiver-keyed slice of the duplicate-delivery buffer), so the
        merge in vertex order reproduces exactly what the serial
        engines record — which is why a sharded snapshot resumes at any
        shard count, or on any other backend.
        """
        nodes, shard_lasts = self._gather(rounds, "capture")
        merged_last: Optional[Dict[Tuple[int, int], Any]] = None
        for s, fault_last in enumerate(shard_lasts):
            if fault_last is not None:
                # Every worker inherited the full (restored) buffer;
                # only the entries keyed by a vertex this shard owns
                # are authoritative.
                if merged_last is None:
                    merged_last = {}
                for key, value in fault_last.items():
                    if self.part.owner[key[0]] == s:
                        merged_last[key] = value
        return {
            "format": "scalar",
            "rounds": rounds,
            "messages": messages,
            "nodes": nodes,
            "fault_last": merged_last,
        }

    def schedule(self, rounds: int) -> None:
        node = self.node
        node.schedule(rounds)
        self.runnable = len(node.runnable)
        self.parked = node.parked
        self.next_wake = min(node.buckets, default=None)
        self.rounds = rounds
        if self.runnable or self.parked:
            self._fork(rounds)

    def active(self) -> int:
        return self.runnable + self.parked

    def wake(self, rounds: int) -> Optional[int]:
        next_wake = self.next_wake
        if not self.runnable and next_wake is not None and next_wake > rounds:
            return next_wake
        return None

    def step(self, rounds: int) -> Tuple[int, int]:
        consumers = self.part.consumers
        replies = self._exchange(
            rounds, [("step", rounds, ghosts) for ghosts in self.ghosts]
        )
        self.ghosts = [[] for _ in range(self.part.n_shards)]
        awake = halted = runnable = parked = 0
        wakes: List[int] = []
        for reply in replies:
            awake += reply["awake"]
            halted += reply["halted"]
            runnable += reply["runnable"]
            parked += reply["parked"]
            if reply["next_wake"] is not None:
                wakes.append(reply["next_wake"])
            for v, value in reply["boundary"]:
                for s in consumers[v]:
                    self.ghosts[s].append((v, value))
        self.runnable = runnable
        self.parked = parked
        self.next_wake = min(wakes, default=None)
        self.rounds = rounds + 1
        if self.node.events is not None:
            self.segments = [reply["events"] for reply in replies]
        return awake, halted

    def round_batch(
        self,
        round_index: int,
        active: int,
        awake: int,
        halted: int,
        messages: int,
    ) -> Any:
        """Merge the shards' batch columns in canonical vertex order.

        Each shard's columns are ascending over a disjoint vertex set,
        so a stable sort by vertex interleaves the shards and keeps
        every vertex's own order (a vertex's delivery faults, in port
        order, all come from one shard).  Crash markers are
        materialized here into the parent's own
        :class:`~repro.core.errors.CrashStopFault` events — the parent
        activated the identical plan, and the event's ``run_meta``
        carries the graph handle, which never crosses a pipe.
        """
        segments = self.segments
        merged = _Events()
        merged.stepped = sorted(chain(*(s.stepped for s in segments)))
        merged.published, merged.values = _merge(
            zip(s.published, s.values) for s in segments
        )
        merged.halted, merged.outputs = _merge(
            zip(s.halted, s.outputs) for s in segments
        )
        merged.failed, merged.reasons = _merge(
            zip(s.failed, s.reasons) for s in segments
        )
        faults = self.node.faults
        merged.faults = [
            (v, faults.crash_event(round_index, v))
            if fault is CRASH_MARKER
            else (v, fault)
            for v, fault in sorted(
                chain(*(s.faults for s in segments)), key=itemgetter(0)
            )
        ]
        return merged.batch(round_index, active, awake, halted, messages)

    def finish(self) -> Tuple[List[Any], Dict[int, str]]:
        if not self.procs:
            # Zero live vertices after setup/restore: nothing was ever
            # forked; the parent contexts are authoritative.
            return self.node.finish()
        pairs, _ = self._gather(self.rounds, "finish")
        failures = {
            v: failure for v, (_, failure) in enumerate(pairs) if failure
        }
        return [output for output, _ in pairs], failures


def _shard_stepper(
    graph: Graph,
    algorithm: Any,
    model: Any,
    faults: Optional[Any],
    observing: bool,
    node_stepper: Callable[[], NodeStepper],
    inputs: Dict[str, Any],
) -> Optional[Stepper]:
    """The backend's stepper factory: the shard-exchange stepper around
    the per-node stepper, or None when the ``fork`` start method is
    unavailable, or inside a daemonic pool worker (resilient sweeps),
    which may not fork children of its own."""
    config = current_shard_config()
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return None
    return _ShardStepper(
        node_stepper(),
        partition_graph(
            graph, config.n_shards, mode=config.mode, seed=config.seed
        ),
    )


def run_local_sharded(
    graph: Graph, algorithm: Any, model: Any, **options: Any
) -> RunResult:
    """Entry point of the ``"sharded"`` backend: the shared runner with
    :func:`_shard_stepper` (same signature and same RunResult as every
    other backend)."""
    return run_stepped(_shard_stepper, graph, algorithm, model, **options)


def _merge(
    columns: Iterator[Iterator[Tuple[int, Any]]],
) -> Tuple[List[int], List[Any]]:
    """Merge per-shard ascending ``(vertex, value)`` columns into one
    vertex column and its aligned value column."""
    pairs = sorted(chain(*columns), key=itemgetter(0))
    return [v for v, _ in pairs], [value for _, value in pairs]
