"""In-run checkpointing: round-boundary engine snapshots with exact resume.

Sweeps are resilient at *cell* granularity — a killed worker throws
away its whole run.  This module adds the finest recovery granularity:
every ``run_local`` call inside an ambient :func:`checkpointing` scope
snapshots its complete resumable state every ``every_rounds`` round
boundaries, and a resumed run
reproduces the uninterrupted run's :class:`~repro.core.engine.RunResult`
and JSONL trace **byte-identically** — same engines, same injected
faults, same observer streams.  The ``checkpoint_resume`` relation in
:mod:`repro.verify` pins that contract across every registered backend.

What a snapshot holds is backend-shaped (see the
``Backend.capture_state`` / ``restore_state`` capability in
:mod:`repro.core.backend`): the scalar engines record per-node ``state``
/ published values / wake rounds / halt and failure flags plus each
node's ``random.Random.getstate()``; the vectorized backend records the
kernel's columnar arrays and the :class:`~repro.backends.mt19937.VectorMT`
limb counts and draw cursors.  Both formats also carry the
:class:`~repro.faults.runtime.FaultRuntime`'s mutable duplicate buffer
and one resumable position per attached observer.

File format (one file per run "slot", atomically replaced on every
save): a single JSON header line — schema, version, slot, round,
fingerprint of the run's identity, and the SHA-256 + length of the
payload — followed by the pickled payload bytes.  Truncation or
corruption surfaces as a loud :class:`CheckpointError`; a fingerprint
that does not match the current run (different seed, size, or
algorithm) makes the run start fresh instead of resuming into the wrong
state.

Multi-phase drivers make several ``run_local`` calls; each call takes
the next **slot** of the scope.
Completed slots persist a ``.done`` snapshot (the pickled result plus
observer end positions), so a resume replays finished phases without
re-running their engines and restores observers to exactly where the
interrupted process left them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .atomicio import atomic_write_bytes
from .errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .backend import Backend

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointPolicy",
    "CheckpointScope",
    "CheckpointSession",
    "checkpointing",
    "current_checkpoint_scope",
    "load_checkpoint",
    "save_checkpoint",
]

CHECKPOINT_SCHEMA = "repro.core.checkpoint"
CHECKPOINT_VERSION = 1

_PathLike = Union[str, "os.PathLike[str]"]


class CheckpointError(ReproError):
    """A checkpoint could not be taken, read, or applied.

    Raised loudly for corruption (bad hash, truncated payload, foreign
    schema), for engine state that cannot be pickled (see staticcheck
    rule LM012), and for resume attempts whose backend or observer set
    no longer matches the snapshot.  A merely *mismatched fingerprint*
    (same directory, different run identity) is not an error — the run
    starts fresh and overwrites the stale files.
    """


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where to snapshot a run.

    ``path`` is a directory; each ``run_local`` call (slot) keeps one
    in-flight file ``slot-NNNN.ckpt`` and, once finished, one
    ``slot-NNNN.done`` snapshot there.  A snapshot is taken every
    ``every_rounds`` round boundaries.

    ``resume`` makes runs under this policy restore from existing
    snapshots instead of overwriting them.  ``heartbeat`` is a plane-2
    hook the supervisor uses: called with ``{"slot": s, "rounds": r}``
    at most every ``heartbeat_seconds``, never on the no-checkpoint hot
    path.
    """

    path: str
    every_rounds: int
    resume: bool = False
    heartbeat: Optional[Callable[[Dict[str, Any]], None]] = None
    heartbeat_seconds: float = 0.5

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("CheckpointPolicy.path must be a directory path")
        if self.every_rounds < 1:
            raise ValueError(
                f"every_rounds must be >= 1, got {self.every_rounds}"
            )


def save_checkpoint(
    path: _PathLike, header: Dict[str, Any], payload: bytes
) -> None:
    """Atomically write one checkpoint file (header line + payload).

    ``header`` is completed with the schema marker and the payload's
    SHA-256 and length, serialized canonically (sorted keys), and
    followed by the raw payload bytes.  The file is replaced atomically
    so a reader sees the previous snapshot or this one, never a tear.
    """
    record = dict(header)
    record["schema"] = CHECKPOINT_SCHEMA
    record["version"] = CHECKPOINT_VERSION
    record["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    record["payload_len"] = len(payload)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    atomic_write_bytes(path, line.encode("utf-8") + b"\n" + payload)


def load_checkpoint(path: _PathLike) -> Tuple[Dict[str, Any], Any]:
    """Read and verify one checkpoint file; returns (header, payload).

    Raises :class:`CheckpointError` on any integrity failure: missing
    header, foreign schema, newer version, truncated payload, or a
    SHA-256 mismatch.  Corruption never resumes silently.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {os.fspath(path)!r}: {exc}"
        ) from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError(
            f"checkpoint {os.fspath(path)!r} is truncated: no header line"
        )
    try:
        header = json.loads(raw[:newline])
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {os.fspath(path)!r} has an unreadable header: {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {os.fspath(path)!r} is not a "
            f"{CHECKPOINT_SCHEMA} file"
        )
    version = header.get("version")
    if not isinstance(version, int) or version > CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {os.fspath(path)!r} has version {version!r}; "
            f"this build understands <= {CHECKPOINT_VERSION}"
        )
    payload = raw[newline + 1 :]
    expected_len = header.get("payload_len")
    if len(payload) != expected_len:
        raise CheckpointError(
            f"checkpoint {os.fspath(path)!r} is truncated: payload is "
            f"{len(payload)} bytes, header promises {expected_len!r}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointError(
            f"checkpoint {os.fspath(path)!r} failed its integrity hash "
            f"(stored {header.get('payload_sha256')!r}, computed {digest!r})"
        )
    try:
        value = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {os.fspath(path)!r} payload does not unpickle: "
            f"{exc}"
        ) from exc
    return header, value


@dataclass
class CheckpointScope:
    """Per-process bookkeeping shared by every slot of one scope.

    ``restored_any`` flips once any slot restored observer state — a
    later slot with no snapshot then runs fresh *without* resetting the
    observers (they are positioned at the previous slot's end).
    ``fresh_tail`` flips once any slot ran fresh: every later slot must
    then ignore (and overwrite) whatever stale files it finds, because
    snapshots past a fresh slot describe a run that no longer exists.
    ``heartbeat_last`` is when the last heartbeat went out: the
    throttle spans slots, so a driver made of many short phases still
    beats every ``heartbeat_seconds``.
    """

    policy: CheckpointPolicy
    resume: bool
    next_slot: int = 0
    restored_any: bool = False
    fresh_tail: bool = False
    events: List[Dict[str, Any]] = field(default_factory=list)
    heartbeat_last: float = field(default_factory=time.monotonic)

    def next_session(self) -> "CheckpointSession":
        slot = self.next_slot
        self.next_slot += 1
        return CheckpointSession(self, slot)


_SCOPES: List[CheckpointScope] = []


def current_checkpoint_scope() -> Optional[CheckpointScope]:
    """The innermost ambient :func:`checkpointing` scope, if any."""
    return _SCOPES[-1] if _SCOPES else None


@contextmanager
def checkpointing(
    policy: Union[CheckpointPolicy, _PathLike],
    *,
    every_rounds: int = 256,
    resume: Optional[bool] = None,
) -> Iterator[CheckpointScope]:
    """Ambient scope: every ``run_local`` call inside checkpoints.

    ``policy`` is a :class:`CheckpointPolicy` or a bare directory path
    (then snapshotted every ``every_rounds`` rounds).  ``resume``
    overrides the policy's flag.  Yields the scope, whose ``events``
    list records what each slot did (``restored``/``replayed``/
    ``fresh``) for audit.
    """
    if not isinstance(policy, CheckpointPolicy):
        policy = CheckpointPolicy(
            path=os.fspath(policy), every_rounds=every_rounds
        )
    os.makedirs(policy.path, exist_ok=True)
    scope = CheckpointScope(
        policy=policy,
        resume=policy.resume if resume is None else resume,
    )
    _SCOPES.append(scope)
    try:
        yield scope
    finally:
        _SCOPES.pop()



class CheckpointSession:
    """One slot's checkpoint lifecycle, driven by ``run_local``.

    The engine only ever calls two methods on the hot path —
    :meth:`due` (cheap: an int compare, plus a clock read when a
    heartbeat hook is set) and :meth:`save` — both strictly at round
    boundaries.  Everything else (binding, restore, done-memoization)
    happens once per run in ``run_local``.
    """

    def __init__(self, scope: CheckpointScope, slot: int) -> None:
        self.scope = scope
        self.policy = scope.policy
        self.slot = slot
        self._backend: Optional["Backend"] = None
        self._observers: Tuple[Any, ...] = ()
        self._fingerprint: Dict[str, Any] = {}
        self._engine_payload: Optional[Dict[str, Any]] = None
        self._done_result: Any = None
        self._have_done = False
        self._last_saved = 0

    # -- paths ---------------------------------------------------------
    @property
    def ckpt_path(self) -> str:
        return os.path.join(self.policy.path, f"slot-{self.slot:04d}.ckpt")

    @property
    def done_path(self) -> str:
        return os.path.join(self.policy.path, f"slot-{self.slot:04d}.done")

    # -- run_local lifecycle -------------------------------------------
    def bind(
        self,
        backend: "Backend",
        observers: Sequence[Any],
        fingerprint: Dict[str, Any],
    ) -> None:
        """Attach the backend capability and the run's observers.

        Fails fast — before any engine work — when the backend lacks
        the ``capture_state``/``restore_state`` capability or an
        attached observer cannot participate in checkpointing.
        """
        if backend.capture_state is None or backend.restore_state is None:
            raise CheckpointError(
                f"backend {backend.name!r} does not support checkpointing "
                "(no capture_state/restore_state capability) — run outside "
                "the checkpointing scope or pick a capable backend"
            )
        for obs in observers:
            if not getattr(obs, "checkpoint_capable", False):
                raise CheckpointError(
                    f"observer {type(obs).__name__} is not checkpoint-"
                    "capable: it defines no resumable position, so a "
                    "resumed run could not reproduce its stream.  "
                    "Implement checkpoint_state()/restore_checkpoint() "
                    "and set checkpoint_capable = True, or detach it."
                )
        self._backend = backend
        self._observers = tuple(observers)
        self._fingerprint = fingerprint

    def begin(self) -> bool:
        """Restore whatever this slot has on disk.  Returns True when
        the slot is already complete (use :meth:`done_result` instead
        of running the engine)."""
        scope = self.scope
        if not scope.resume or scope.fresh_tail:
            self._begin_fresh("fresh")
            return False
        if os.path.exists(self.done_path):
            header, payload = load_checkpoint(self.done_path)
            if header.get("fingerprint") != self._fingerprint:
                self._begin_fresh("stale-done")
                return False
            self._restore_observers(payload["observers"])
            self._done_result = payload["result"]
            self._have_done = True
            scope.restored_any = True
            scope.events.append({"slot": self.slot, "action": "replayed"})
            return True
        if os.path.exists(self.ckpt_path):
            header, payload = load_checkpoint(self.ckpt_path)
            if header.get("fingerprint") != self._fingerprint:
                self._begin_fresh("stale-ckpt")
                return False
            self._restore_observers(payload["observers"])
            self._engine_payload = payload["engine"]
            self._last_saved = int(header.get("rounds", 0))
            scope.restored_any = True
            scope.events.append(
                {
                    "slot": self.slot,
                    "action": "restored",
                    "rounds": self._last_saved,
                }
            )
            return False
        self._begin_fresh("no-snapshot")
        return False

    def _begin_fresh(self, reason: str) -> None:
        scope = self.scope
        if scope.resume and not scope.restored_any and not scope.fresh_tail:
            # First slot of the scope and nothing restored: observers
            # may carry partial output from the killed process — rewind
            # them to their initial state so the fresh run reproduces
            # bytes from the top.  Later fresh slots must NOT rewind:
            # the observers are positioned at the previous slot's end
            # and a reset would discard that slot's freshly written
            # output (multi-phase drivers re-run every slot after the
            # first fresh one).
            for obs in self._observers:
                obs.restore_checkpoint(None)
        scope.fresh_tail = True
        for stale in (self.ckpt_path, self.done_path):
            try:
                os.unlink(stale)
            except OSError:
                pass
        scope.events.append(
            {"slot": self.slot, "action": "fresh", "reason": reason}
        )

    def done_result(self) -> Any:
        if not self._have_done:
            raise CheckpointError(
                f"slot {self.slot} has no completed snapshot to replay"
            )
        return self._done_result

    def _restore_observers(self, states: Sequence[Any]) -> None:
        if len(states) != len(self._observers):
            raise CheckpointError(
                f"slot {self.slot} snapshot recorded "
                f"{len(states)} observer position(s) but "
                f"{len(self._observers)} observer(s) are attached — "
                "resume with the same observers, in the same order, as "
                "the interrupted run"
            )
        for obs, state in zip(self._observers, states):
            obs.restore_checkpoint(state)

    # -- engine-facing surface -----------------------------------------
    def engine_payload(self, expected_format: str) -> Optional[Dict[str, Any]]:
        """The restored engine snapshot for this slot, or None.

        The engine names its own ``expected_format`` (``"scalar"`` or
        ``"vector"``); a mismatch means the backend decision changed
        between the killed run and the resume (different env, different
        fallback) and resuming would be wrong — raised loudly.
        """
        payload = self._engine_payload
        if payload is None:
            return None
        self._engine_payload = None
        if payload.get("format") != expected_format:
            raise CheckpointError(
                f"slot {self.slot} snapshot holds "
                f"{payload.get('format')!r} engine state but the run "
                f"resumed on a {expected_format!r} engine — resume under "
                "the same backend configuration as the interrupted run"
            )
        return payload

    def restore_engine(self, handle: Any, payload: Dict[str, Any]) -> None:
        assert self._backend is not None and self._backend.restore_state
        self._backend.restore_state(handle, payload)

    def due(self, rounds: int) -> bool:
        """Is a snapshot due at the round-``rounds`` boundary?"""
        if self.policy.heartbeat is not None:
            self._maybe_heartbeat(rounds)
        return rounds - self._last_saved >= self.policy.every_rounds

    def save(self, handle: Any, rounds: int) -> None:
        """Snapshot the engine + observers at the ``rounds`` boundary."""
        assert self._backend is not None and self._backend.capture_state
        engine = self._backend.capture_state(handle)
        payload = {
            "engine": engine,
            "observers": [
                obs.checkpoint_state() for obs in self._observers
            ],
        }
        blob = self._pickle(payload, f"round {rounds}")
        save_checkpoint(
            self.ckpt_path,
            {
                "kind": "inflight",
                "slot": self.slot,
                "rounds": rounds,
                "format": engine.get("format"),
                "fingerprint": self._fingerprint,
            },
            blob,
        )
        self._last_saved = rounds
        hb = self.policy.heartbeat
        if hb is not None:
            hb({"slot": self.slot, "rounds": rounds, "saved": True})

    def record_done(self, result: Any) -> None:
        """Persist the slot's completed result + observer end state."""
        payload = {
            "result": result,
            "observers": [
                obs.checkpoint_state() for obs in self._observers
            ],
        }
        blob = self._pickle(payload, "run result")
        save_checkpoint(
            self.done_path,
            {"kind": "done", "slot": self.slot, "fingerprint": self._fingerprint},
            blob,
        )

    def _pickle(self, payload: Any, what: str) -> bytes:
        try:
            return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                f"cannot checkpoint {what}: state is not picklable "
                f"({exc}).  Node ctx.state must hold plain data — "
                "open files, sockets, generators, locks, and lambdas "
                "cannot be snapshotted (staticcheck rule LM012 flags "
                "these)."
            ) from exc

    def _maybe_heartbeat(self, rounds: int) -> None:
        now = time.monotonic()
        if now - self.scope.heartbeat_last >= self.policy.heartbeat_seconds:
            self.scope.heartbeat_last = now
            hb = self.policy.heartbeat
            if hb is not None:
                hb({"slot": self.slot, "rounds": rounds, "saved": False})
