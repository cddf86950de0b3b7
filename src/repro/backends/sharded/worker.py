"""The shard worker loop — the child side of the barrier protocol.

Each worker is forked by the coordinator *after* the parent has built
every :class:`~repro.core.context.NodeContext` and completed the setup
pass (or restored a checkpoint), so the worker inherits the parent's
:class:`~repro.core.engine.NodeStepper` — contexts, neighbor lists,
algorithm, and the activated :class:`~repro.faults.runtime.FaultRuntime`
— through the copied address space: nothing is pickled at startup (the
shared read-only ``ctx.globals`` mapping could not be).

From then on the worker runs that same per-node stepper over the
vertices its shard owns:

- it steps only its owned vertices, reading inboxes from its private
  ``visible`` list (kept current for owned vertices by the stepper's
  dirty-commit pass, and for foreign *neighbor* vertices by the ghost
  updates the coordinator routes in with each ``step`` command);
- fault decisions are recomputed shard-locally: crash selection was
  precomputed in the inherited runtime, and drop/duplicate/corrupt
  decisions are pure splitmix64 hashes of ``(seed, round, vertex,
  port, stream)`` — placement-independent by construction.  The stale
  duplicate buffer is keyed by the *receiving* vertex and port, so it
  too is owned entirely by one shard;
- wake buckets stay local: each barrier reply reports the shard's next
  wake round so the coordinator can compute the global skip as the
  minimum over shards.

Protocol (pickled tuples over a duplex pipe; one request, one reply):

- ``("step", round, ghosts)`` -> ``("ok", reply_dict)``; on observed
  runs the reply carries the round's batch columns
- ``("capture",)`` -> ``("ok", (node_snapshots, fault_last))``
- ``("finish",)`` -> ``("ok", ([(output, failure), ...], None))``
- ``("exit",)`` -> no reply; the worker leaves its loop.

Any exception escaping a command handler is sent back as
``("error", exc, vertex)`` — ``vertex`` is the owned vertex whose step
raised, or None — falling back to a picklable
:class:`~repro.core.errors.ReproError` summary when the original
exception cannot cross the pipe, and the worker exits; the coordinator
re-raises the error of the lowest failing vertex across shards, so the
run fails exactly as the serial engines would.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ...core.engine import NodeStepper, _capture_scalar_state, _ScalarState
from ...core.errors import CrashStopFault, ReproError

#: Shipped faults column marker for a crash-stop vertex; the
#: coordinator substitutes the parent-side CrashStopFault (whose
#: ``run_meta`` carries the graph handle — never shipped over a pipe).
CRASH_MARKER = None


def shard_worker(
    conn: Any,
    sibling_conns: List[Any],
    shard_id: int,
    owned: Tuple[int, ...],
    consumers: Dict[int, Tuple[int, ...]],
    stepper: NodeStepper,
    start_round: int,
) -> None:
    """Run one shard until ``exit`` (or the parent's death)."""
    # Close every inherited pipe end that is not ours: once each fd has
    # exactly one owner, a SIGKILLed worker's death surfaces to the
    # coordinator as a clean EOF instead of a silent hang.
    for other in sibling_conns:
        other.close()

    stepper.schedule(start_round, owned)
    visible = stepper.visible
    contexts = stepper.contexts
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "step":
                rounds = message[1]
                for v, value in message[2]:
                    visible[v] = value
                # The coordinator steps this round because some shard
                # has a runnable vertex; this one may have none.
                stepper.wake(rounds)
                awake, halted = stepper.step(rounds)
                reply: Dict[str, Any] = {
                    "awake": awake,
                    "halted": halted,
                    "parked": stepper.parked,
                    "runnable": len(stepper.runnable),
                    "next_wake": min(stepper.buckets, default=None),
                    "boundary": [
                        (v, visible[v])
                        for v in stepper.dirty
                        if v in consumers
                    ],
                }
                if stepper.events is not None:
                    events = stepper.drain()
                    events.faults = [
                        (v, CRASH_MARKER)
                        if isinstance(fault, CrashStopFault)
                        else (v, fault)
                        for v, fault in events.faults
                    ]
                    reply["events"] = events
                conn.send(("ok", reply))
            elif command == "capture":
                snapshot = _capture_scalar_state(
                    _ScalarState(
                        [contexts[v] for v in owned], stepper.faults
                    )
                )
                conn.send(
                    ("ok", (snapshot["nodes"], snapshot["fault_last"]))
                )
            elif command == "finish":
                pairs = [
                    (contexts[v].output, contexts[v].failure)
                    for v in owned
                ]
                conn.send(("ok", (pairs, None)))
            elif command == "exit":
                break
            else:  # pragma: no cover - protocol misuse
                raise ReproError(
                    f"shard worker {shard_id} received unknown "
                    f"command {command!r}"
                )
    except EOFError:  # pragma: no cover - parent died first
        pass
    except BaseException as exc:
        vertex = stepper.failed_vertex
        try:
            conn.send(("error", exc, vertex))
        except Exception:
            try:
                conn.send(
                    (
                        "error",
                        ReproError(
                            f"shard worker {shard_id} failed with an "
                            f"unpicklable exception: "
                            f"{type(exc).__name__}: {exc}"
                        ),
                        vertex,
                    )
                )
            except Exception:  # pragma: no cover - pipe already gone
                pass
    finally:
        conn.close()
