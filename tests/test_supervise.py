"""Supervised execution: heartbeat watchdog, deadline, bounded
retries, and the RSS ceiling.

These tests fork real child processes through
:func:`repro.supervise.supervise_run` and exercise genuine
pathologies — mid-run crashes resumed from snapshots, hung children,
memory ceilings — so workloads are kept deliberately small.
"""

import json
import os
import time

import pytest

from repro.core import Model, SyncAlgorithm, observe_runs, run_local
from repro.graphs.generators import path_graph
from repro.supervise import RunOutcome, SupervisorEvent, supervise_run
from repro.supervise import _rss_kb
from tests.test_checkpoint import KillSwitch, run_noisy


class Recorder:
    """Duck-typed sidecar: collects the supervisor's lifecycle rows."""

    def __init__(self):
        self.rows = []

    def record_event(self, kind, **fields):
        self.rows.append((kind, fields))


def test_validation():
    with pytest.raises(ValueError, match="retries"):
        supervise_run(lambda: 1, checkpoint_dir="x", retries=-1)


def test_success_first_attempt(tmp_path):
    def target():
        return run_noisy().rounds

    rec = Recorder()
    outcome = supervise_run(
        target,
        checkpoint_dir=str(tmp_path / "ck"),
        every_rounds=1,
        retries=0,
        sidecar=rec,
    )
    assert outcome.ok
    assert outcome.result == run_noisy().rounds
    assert outcome.attempts == 1
    assert outcome.error is None
    kinds = [e.kind for e in outcome.events]
    assert kinds[0] == "start" and kinds[-1] == "done"
    # The child's checkpoint scope audit rides home in the done event.
    done = outcome.events[-1]
    assert [s["action"] for s in done.detail["slots"]] == ["fresh"]
    # Every event is mirrored into the sidecar, in order.
    assert [k for k, _ in rec.rows] == kinds
    # The audit record is JSON-ready.
    json.dumps(outcome.to_dict())


def test_crash_is_retried_and_resumed_from_snapshot(tmp_path):
    marker = tmp_path / "first-attempt"
    ck = str(tmp_path / "ck")

    def target():
        first = not marker.exists()
        if first:
            marker.write_text("x")
        with observe_runs(KillSwitch(4 if first else None)):
            result = run_noisy()
        return result.rounds

    outcome = supervise_run(
        target,
        checkpoint_dir=ck,
        every_rounds=1,
        retries=2,
        backoff=0.01,
    )
    assert outcome.ok
    assert outcome.result == run_noisy().rounds
    assert outcome.attempts == 2
    kinds = [e.kind for e in outcome.events]
    assert "error" in kinds and "retry" in kinds
    # Attempt 1 resumed mid-run from attempt 0's snapshot — it did not
    # start over.
    done = next(e for e in outcome.events if e.kind == "done")
    actions = [s["action"] for s in done.detail["slots"]]
    assert actions == ["restored"]


def test_retries_exhausted_reports_last_error(tmp_path):
    def target():
        raise RuntimeError("always broken")

    outcome = supervise_run(
        target,
        checkpoint_dir=str(tmp_path / "ck"),
        retries=1,
        backoff=0.01,
    )
    assert not outcome.ok
    assert outcome.attempts == 2
    assert "always broken" in outcome.error
    assert [e.kind for e in outcome.events].count("error") == 2


def test_silent_child_death_is_a_verdict_not_a_hang(tmp_path):
    def target():
        os._exit(3)

    outcome = supervise_run(
        target,
        checkpoint_dir=str(tmp_path / "ck"),
        retries=0,
    )
    assert not outcome.ok
    assert "without a result" in outcome.error
    died = next(e for e in outcome.events if e.kind == "child_died")
    assert died.detail["exitcode"] == 3


def test_watchdog_kills_hung_child(tmp_path):
    def target():
        time.sleep(60)

    start = time.monotonic()
    outcome = supervise_run(
        target,
        checkpoint_dir=str(tmp_path / "ck"),
        retries=0,
        watchdog=0.4,
    )
    assert time.monotonic() - start < 30
    assert not outcome.ok
    assert "no heartbeat" in outcome.error
    assert "watchdog_kill" in [e.kind for e in outcome.events]


class SlowRounds(SyncAlgorithm):
    """~50 ms per round for ``rounds`` rounds on any graph."""

    name = "slow-rounds"

    def __init__(self, rounds):
        self.rounds = rounds

    def setup(self, ctx):
        ctx.publish(0)

    def step(self, ctx, inbox):
        if ctx.id == 0:
            time.sleep(0.05)
        if ctx.now + 1 >= self.rounds:
            ctx.halt(ctx.now)
        else:
            ctx.publish(ctx.now)


@pytest.mark.parametrize("phases, rounds", [(1, 30), (5, 8)])
def test_watchdog_spares_a_slow_healthy_run(tmp_path, phases, rounds):
    """A healthy run of few, slow rounds (~1.5-2 s, no snapshot due)
    outlives a 1 s watchdog only if every round boundary may send a
    heartbeat on the clock — not every 64th boundary, and not only
    once a single ``run_local`` call has lasted ``HEARTBEAT_SECONDS``
    (the five-phase case has ~0.4 s phases)."""

    def target():
        return [
            run_local(path_graph(4), SlowRounds(rounds), Model.DET).rounds
            for _ in range(phases)
        ]

    outcome = supervise_run(
        target,
        checkpoint_dir=str(tmp_path / "ck"),
        retries=0,
        watchdog=1.0,
    )
    assert outcome.ok, outcome.error
    assert outcome.result == [rounds] * phases
    kinds = [e.kind for e in outcome.events]
    assert kinds[0] == "start" and kinds[-1] == "done"
    assert kinds.count("heartbeat") >= 2
    assert set(kinds) == {"start", "heartbeat", "done"}


def test_deadline_bounds_all_attempts(tmp_path):
    def target():
        time.sleep(60)

    start = time.monotonic()
    outcome = supervise_run(
        target,
        checkpoint_dir=str(tmp_path / "ck"),
        retries=5,
        backoff=0.01,
        deadline=0.6,
    )
    assert time.monotonic() - start < 30
    assert not outcome.ok
    assert "deadline" in outcome.error
    assert "deadline" in [e.kind for e in outcome.events]


def test_rss_kill_is_an_ordinary_loud_failure(tmp_path, monkeypatch):
    """Every RSS kill consumes a retry and the retry runs with
    unchanged settings: no degradation, no discarded snapshots, no
    environment overrides in the child.  The final error names the
    ceiling."""
    base = _rss_kb(os.getpid())
    if base is None:
        pytest.skip("no /proc RSS readings on this platform")
    ceiling = base + 150_000  # the 400 MiB ballast sails past this
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    seen = tmp_path / "child-env.jsonl"

    def target():
        with open(seen, "a") as fh:
            names = sorted(k for k in os.environ if k.startswith("REPRO_"))
            fh.write(json.dumps(names) + "\n")
        ballast = bytearray(400 * 1024 * 1024)
        time.sleep(60)
        return len(ballast)

    retries = 2
    outcome = supervise_run(
        target,
        checkpoint_dir=str(tmp_path / "ck"),
        retries=retries,
        backoff=0.01,
        max_rss_kb=ceiling,
    )
    assert not outcome.ok
    assert str(ceiling) in outcome.error
    kinds = [e.kind for e in outcome.events]
    assert kinds.count("rss_kill") == retries + 1
    assert "degrade" not in kinds
    assert "checkpoint_discarded" not in kinds
    attempts = [json.loads(line) for line in seen.read_text().splitlines()]
    assert attempts == [[]] * (retries + 1)


def test_event_and_outcome_dict_shapes():
    event = SupervisorEvent(
        kind="start", attempt=0, t=0.1234567, detail={"pid": 1}
    )
    data = event.to_dict()
    assert data == {"kind": "start", "attempt": 0, "t": 0.123457, "pid": 1}
    outcome = RunOutcome(
        ok=True, result=5, error=None, attempts=1, events=[event]
    )
    data = outcome.to_dict()
    assert data["ok"] and data["attempts"] == 1
    assert "result" not in data  # the caller owns the result's shape
