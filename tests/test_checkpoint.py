"""In-run checkpointing: snapshot files, resume semantics, integrity.

The verify relation ``checkpoint-resume`` pins byte-identity across
every driver x backend x fault plan; these tests pin the mechanism
itself — file format and integrity hashing, torn-write loudness,
policy validation, slot lifecycle (fresh / restored / replayed /
fresh-tail), observer capability gating, and the LM012 unpicklable-
state diagnostic.
"""

import io
import os
import pickle
import random

import pytest

from repro.core import (
    Model,
    available_backend_names,
    observe_runs,
    run_local,
    use_backend,
)
from repro.core.algorithm import SyncAlgorithm
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointPolicy,
    checkpointing,
    load_checkpoint,
    save_checkpoint,
)
from repro.faults import FaultPlan, inject_faults
from repro.graphs.generators import random_tree_bounded_degree
from repro.obs import JsonlTraceObserver, MetricsObserver
from repro.obs.observer import RunObserver

BACKENDS = sorted(available_backend_names())


class _Kill(Exception):
    """Injected mid-run death (stands in for SIGKILL in-process)."""


class KillSwitch(RunObserver):
    """Counts delivered round batches; raises after ``kill_after``."""

    checkpoint_capable = True

    def __init__(self, kill_after=None):
        self.kill_after = kill_after
        self.seen = 0

    def checkpoint_state(self):
        return self.seen

    def restore_checkpoint(self, state):
        self.seen = 0 if state is None else int(state)

    def on_round_batch(self, batch):
        if batch.round_index < 0:
            return
        self.seen += 1
        if self.kill_after is not None and self.seen >= self.kill_after:
            raise _Kill(f"killed after {self.seen} batches")


class NoisyAccumulator(SyncAlgorithm):
    """Fixed-length RandLOCAL run whose outputs depend on every round's
    random draws and accumulated state — any resume that loses RNG
    state, ctx.state, or visible values changes the outputs."""

    name = "noisy-accumulator"

    def __init__(self, rounds=12):
        self.rounds = rounds

    def setup(self, ctx):
        ctx.state["acc"] = 0
        ctx.state["r"] = 0
        ctx.publish(ctx.random.randrange(1 << 16))

    def step(self, ctx, inbox):
        ctx.state["acc"] += sum(inbox) + ctx.random.randrange(1 << 16)
        ctx.state["r"] += 1
        if ctx.state["r"] >= self.rounds:
            ctx.halt(ctx.state["acc"] & 0xFFFFFF)
        else:
            ctx.publish(ctx.random.randrange(1 << 16))


class LambdaHoarder(SyncAlgorithm):
    """Stores a lambda in ctx.state: the LM012 anti-pattern."""

    name = "lambda-hoarder"

    def setup(self, ctx):
        ctx.state["fn"] = lambda x: x + 1
        ctx.state["r"] = 0
        ctx.publish(0)

    def step(self, ctx, inbox):
        ctx.state["r"] += 1
        if ctx.state["r"] >= 3:
            ctx.halt(0)
        else:
            ctx.publish(0)


def tree(n=60, seed=5):
    return random_tree_bounded_degree(n, 4, random.Random(seed))


def run_noisy(rounds=12, seed=9, **kwargs):
    return run_local(
        tree(),
        NoisyAccumulator(rounds=rounds),
        Model.RAND,
        seed=seed,
        **kwargs,
    )


# ----------------------------------------------------------------------
# File format and integrity
# ----------------------------------------------------------------------
class TestFileFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "slot-0000.ckpt"
        payload = pickle.dumps({"hello": [1, 2, 3]})
        save_checkpoint(path, {"kind": "inflight", "slot": 0}, payload)
        header, value = load_checkpoint(path)
        assert header["kind"] == "inflight"
        assert header["schema"] == "repro.core.checkpoint"
        assert header["payload_len"] == len(payload)
        assert value == {"hello": [1, 2, 3]}

    def test_missing_file_is_loud(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_torn_write_is_loud(self, tmp_path):
        """A torn (truncated) checkpoint must fail its length check,
        never resume silently — the point of the atomic-replace
        discipline is that this can only happen to hand-damaged
        files."""
        path = tmp_path / "slot-0000.ckpt"
        save_checkpoint(
            path, {"kind": "inflight"}, pickle.dumps(list(range(1000)))
        )
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
        # Torn before the payload even starts: no header newline.
        path.write_bytes(whole[:10])
        with pytest.raises(CheckpointError, match="no header line"):
            load_checkpoint(path)

    def test_bit_flip_fails_integrity_hash(self, tmp_path):
        path = tmp_path / "slot-0000.ckpt"
        save_checkpoint(path, {}, pickle.dumps("payload"))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="integrity hash"):
            load_checkpoint(path)

    def test_foreign_schema_rejected(self, tmp_path):
        path = tmp_path / "other.ckpt"
        path.write_bytes(b'{"schema": "something.else"}\n')
        with pytest.raises(CheckpointError, match="is not a"):
            load_checkpoint(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "slot-0000.ckpt"
        payload = pickle.dumps(1)
        save_checkpoint(path, {}, payload)
        header, _ = load_checkpoint(path)
        import json

        header["version"] = 99
        line = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(line + b"\n" + payload)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)


class TestPolicyValidation:
    def test_needs_a_cadence(self, tmp_path):
        with pytest.raises(TypeError, match="every_rounds"):
            CheckpointPolicy(path=str(tmp_path))

    def test_rejects_bad_cadences(self, tmp_path):
        with pytest.raises(ValueError, match="every_rounds"):
            CheckpointPolicy(path=str(tmp_path), every_rounds=0)

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError, match="path"):
            CheckpointPolicy(path="", every_rounds=1)


# ----------------------------------------------------------------------
# Kill + resume on every backend (the mechanism behind the relation)
# ----------------------------------------------------------------------
def _observed_run(kill, rounds=12, seed=9):
    metrics = MetricsObserver()
    sink = io.StringIO()
    trace = JsonlTraceObserver(sink)
    outcome = None
    error = None
    with observe_runs(metrics, trace, kill):
        try:
            outcome = run_noisy(rounds=rounds, seed=seed)
        except _Kill as exc:
            error = exc
    return outcome, error, sink, metrics


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("plan", [None, "crash"])
def test_kill_resume_is_byte_identical(tmp_path, backend, plan):
    fault_plan = (
        None
        if plan is None
        else FaultPlan(seed=77, crash_rate=0.08, crash_round=1)
    )
    import contextlib

    def scoped(extra=None):
        stack = contextlib.ExitStack()
        stack.enter_context(use_backend(backend))
        if fault_plan is not None:
            stack.enter_context(inject_faults(fault_plan))
        if extra is not None:
            stack.enter_context(extra)
        return stack

    with scoped():
        baseline, err, base_sink, base_metrics = _observed_run(
            KillSwitch(None)
        )
    assert err is None

    with scoped(checkpointing(str(tmp_path), every_rounds=1)):
        _, err, kill_sink, _ = _observed_run(KillSwitch(5))
    assert err is not None, "the injected kill must fire"
    assert any(
        name.endswith(".ckpt") for name in os.listdir(tmp_path)
    ), "the killed run must leave an in-flight snapshot behind"

    resume_sink = io.StringIO()
    resume_sink.write(kill_sink.getvalue())
    metrics = MetricsObserver()
    trace = JsonlTraceObserver(resume_sink)
    with scoped(
        checkpointing(str(tmp_path), every_rounds=1, resume=True)
    ), observe_runs(metrics, trace, KillSwitch(None)):
        resumed = run_noisy()

    assert resumed == baseline
    assert resume_sink.getvalue() == base_sink.getvalue()
    assert metrics.summary() == base_metrics.summary()


@pytest.mark.parametrize("backend", BACKENDS)
def test_done_slot_replays_without_rerunning(tmp_path, backend):
    with use_backend(backend):
        with checkpointing(str(tmp_path), every_rounds=4) as scope:
            first = run_noisy()
        assert scope.events[-1]["action"] == "fresh"
        assert os.path.exists(tmp_path / "slot-0000.done")
        with checkpointing(
            str(tmp_path), every_rounds=4, resume=True
        ) as scope:
            replayed = run_noisy()
        assert scope.events == [{"slot": 0, "action": "replayed"}]
    assert replayed == first


def test_multi_slot_fresh_resume_does_not_rewind_twice(tmp_path):
    """Regression: a resume that finds *no* snapshots (killed before
    the first save) runs every slot fresh; only the first fresh slot
    may rewind the observers — a second rewind would truncate the
    first slot's freshly written trace."""

    def driver():
        a = run_noisy(rounds=6, seed=1)
        b = run_noisy(rounds=6, seed=2)
        return a, b

    sink = io.StringIO()
    with observe_runs(JsonlTraceObserver(sink)):
        baseline = driver()

    resumed_sink = io.StringIO()
    resumed_sink.write("stale bytes from a killed process\n")
    with checkpointing(
        str(tmp_path), every_rounds=1000, resume=True
    ) as scope, observe_runs(JsonlTraceObserver(resumed_sink)):
        resumed = driver()
    assert resumed == baseline
    assert resumed_sink.getvalue() == sink.getvalue()
    assert [e["action"] for e in scope.events] == ["fresh", "fresh"]


def test_multi_slot_resume_replays_finished_and_restores_observers(
    tmp_path,
):
    """Kill between slot 0 and slot 1: the resume must replay slot 0
    from its .done snapshot (observers restored to its end position)
    and run only slot 1 — landing on the uninterrupted bytes."""

    def driver(kill_second=False):
        a = run_noisy(rounds=6, seed=1)
        if kill_second:
            raise _Kill("died between the slots")
        b = run_noisy(rounds=6, seed=2)
        return a, b

    sink = io.StringIO()
    with observe_runs(JsonlTraceObserver(sink)):
        baseline = driver()

    kill_sink = io.StringIO()
    with pytest.raises(_Kill):
        with checkpointing(
            str(tmp_path), every_rounds=1
        ), observe_runs(JsonlTraceObserver(kill_sink)):
            driver(kill_second=True)

    resume_sink = io.StringIO()
    resume_sink.write(kill_sink.getvalue())
    with checkpointing(
        str(tmp_path), every_rounds=1, resume=True
    ) as scope, observe_runs(JsonlTraceObserver(resume_sink)):
        resumed = driver()
    assert resumed == baseline
    assert resume_sink.getvalue() == sink.getvalue()
    assert scope.events[0] == {"slot": 0, "action": "replayed"}


def test_stale_fingerprint_starts_fresh_not_wrong(tmp_path):
    """Same directory, different run identity (the seed, or the crash
    round of the fault plan): the snapshot is rejected by fingerprint
    and the run starts fresh — it must land on the plain run's result,
    not resume into foreign state."""
    identities = [
        ("fast", 3, {"seed": 1}, {"seed": 2}),
    ]
    for backend in ("fast", "sharded"):
        # Killed after round 4: the stale snapshot already holds the
        # vertices the old plan crashed at round 2.
        identities.append(
            (
                backend,
                5,
                {"fault_plan": FaultPlan(seed=7, crash_rate=0.2, crash_round=2)},
                {"fault_plan": FaultPlan(seed=7, crash_rate=0.2, crash_round=8)},
            )
        )
    for case, (backend, kill_after, killed, fresh) in enumerate(identities):
        workdir = str(tmp_path / f"case-{case}")
        with use_backend(backend):
            with checkpointing(workdir, every_rounds=1):
                with pytest.raises(_Kill):
                    with observe_runs(KillSwitch(kill_after)):
                        run_noisy(**killed)
            plain = run_noisy(**fresh)
            with checkpointing(
                workdir, every_rounds=1, resume=True
            ) as scope, observe_runs(KillSwitch(None)):
                resumed = run_noisy(**fresh)
        assert resumed == plain, (backend, fresh)
        assert scope.events[0]["reason"] == "stale-ckpt", scope.events


def test_fault_plan_fingerprint_covers_every_field(tmp_path):
    """Snapshot headers identify the adversary by
    ``FaultPlan.fingerprint()``: a plan field missing from it would let
    a resume reuse a snapshot taken under another plan.  Only the
    ``corrupt`` hook is left out (its repr embeds a memory address)."""
    import dataclasses

    plan = FaultPlan(
        seed=3, crashes={5: 1, 2: 4}, crash_rate=0.25, round_budget=40
    )
    fields = {f.name for f in dataclasses.fields(FaultPlan)}
    assert set(plan.fingerprint()) == fields - {"corrupt"}
    assert plan.fingerprint() == {
        "seed": 3,
        "crashes": [[2, 4], [5, 1]],
        "crash_rate": 0.25,
        "crash_round": 0,
        "drop_rate": 0.0,
        "duplicate_rate": 0.0,
        "corrupt_rate": 0.0,
        "round_budget": 40,
    }
    with checkpointing(str(tmp_path), every_rounds=1):
        run_noisy(fault_plan=plan)
    header, _ = load_checkpoint(tmp_path / "slot-0000.done")
    assert header["fingerprint"]["faults"] == plan.fingerprint()


def test_corrupted_snapshot_is_loud_on_resume(tmp_path):
    with checkpointing(str(tmp_path), every_rounds=1):
        with pytest.raises(_Kill):
            with observe_runs(KillSwitch(3)):
                run_noisy()
    path = tmp_path / "slot-0000.ckpt"
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with checkpointing(str(tmp_path), every_rounds=1, resume=True):
        with pytest.raises(CheckpointError, match="truncated"):
            run_noisy()


# ----------------------------------------------------------------------
# Capability gating and diagnostics
# ----------------------------------------------------------------------
class NotCapable(RunObserver):
    """An observer with no checkpoint contract."""


def test_non_capable_observer_fails_fast(tmp_path):
    with checkpointing(str(tmp_path), every_rounds=1):
        with observe_runs(NotCapable()):
            with pytest.raises(
                CheckpointError, match="not checkpoint-capable"
            ):
                run_noisy()


def test_incapable_backend_fails_fast(tmp_path):
    class NoSnapshots:
        name = "no-snapshots"
        capture_state = None
        restore_state = None

    with checkpointing(str(tmp_path), every_rounds=1) as scope:
        session = scope.next_session()
    with pytest.raises(CheckpointError, match="does not support"):
        session.bind(NoSnapshots(), (), {})


def test_observer_arity_mismatch_is_loud(tmp_path):
    with checkpointing(str(tmp_path), every_rounds=1):
        with pytest.raises(_Kill):
            with observe_runs(MetricsObserver(), KillSwitch(3)):
                run_noisy()
    with checkpointing(str(tmp_path), every_rounds=1, resume=True):
        with observe_runs(MetricsObserver()):
            with pytest.raises(
                CheckpointError, match="observer position"
            ):
                run_noisy()


def test_engine_format_mismatch_is_loud(tmp_path):
    with checkpointing(str(tmp_path), every_rounds=1) as scope:
        session = scope.next_session()
    session._engine_payload = {"format": "vector"}
    with pytest.raises(
        CheckpointError, match="same backend configuration"
    ):
        session.engine_payload("scalar")


def test_unpicklable_ctx_state_names_lm012(tmp_path):
    with checkpointing(str(tmp_path), every_rounds=1):
        with pytest.raises(CheckpointError, match="LM012"):
            run_local(tree(), LambdaHoarder(), Model.DET)


def test_heartbeat_reports_saves(tmp_path):
    beats = []
    policy = CheckpointPolicy(
        path=str(tmp_path),
        every_rounds=2,
        heartbeat=beats.append,
        heartbeat_seconds=1e9,
    )
    with checkpointing(policy):
        run_noisy()
    saved = [b for b in beats if b.get("saved")]
    assert saved and all(b["slot"] == 0 for b in saved)
    assert [b["rounds"] for b in saved] == sorted(
        b["rounds"] for b in saved
    )
