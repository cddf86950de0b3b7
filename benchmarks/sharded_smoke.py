"""Sharded-backend worker-failure smoke test (CI; a few seconds).

Exercises the sharded backend's recovery contract across a real
SIGKILL delivered to one *shard worker* (not the parent): a
checkpointed multi-shard Luby-MIS run loses one of its forked workers
mid-round, the coordinator surfaces a ``WorkerCrashError`` naming the
dead pid, and resuming from the latest round-boundary snapshot — at
the original shard count and at a different one, snapshots being
shard-agnostic — reproduces the uninterrupted run's JSONL trace
**byte-identically**.  See ``docs/sharding.md``.

Usage: ``python benchmarks/sharded_smoke.py [outdir]`` — exits 0 on
success and prints PASS lines; any other exit is a failure.  When
``outdir`` is given, the checkpoint slots, all traces, and a
``journal.jsonl`` of the smoke's phases are left there for artifact
upload instead of a tempdir.
"""

import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.algorithms.drivers import driver_registry  # noqa: E402
from repro.backends.sharded import use_shards  # noqa: E402
from repro.core import use_backend  # noqa: E402
from repro.core.checkpoint import checkpointing  # noqa: E402
from repro.core.engine import observe_runs  # noqa: E402
from repro.obs import JsonlTraceObserver, MetricsObserver  # noqa: E402
from repro.obs.observer import RunObserver  # noqa: E402
from repro.verify import (  # noqa: E402
    make_instance,
    run_outcome,
    subject_from_spec,
)

DRIVER = "luby-mis"
N = 400
SEED = 20160725
SHARDS = 4
RESUME_SHARDS = (4, 2)


class KillOneWorker(RunObserver):
    """SIGKILL one live shard worker after ``kill_after`` batches."""

    checkpoint_capable = True

    def __init__(self, kill_after=None):
        self.kill_after = kill_after
        self.seen = 0
        self.killed = None

    def checkpoint_state(self):
        return self.seen

    def restore_checkpoint(self, state):
        self.seen = 0 if state is None else int(state)

    def on_round_batch(self, batch):
        if batch.round_index < 0:
            return
        self.seen += 1
        if self.kill_after is not None and self.seen == self.kill_after:
            workers = [
                proc
                for proc in multiprocessing.active_children()
                if proc.name.startswith("repro-shard-")
            ]
            assert workers, "no live shard workers to kill"
            self.killed = max(workers, key=lambda proc: proc.name).pid
            os.kill(self.killed, signal.SIGKILL)


def observed(subject, instance, kill, trace_path):
    metrics = MetricsObserver()
    with open(trace_path, "w", encoding="utf-8") as sink:
        trace = JsonlTraceObserver(sink, node_steps=True)
        with observe_runs(metrics, trace, kill):
            outcome = run_outcome(subject, instance)
    return outcome, metrics.summary()


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def main(outdir):
    journal_path = os.path.join(outdir, "journal.jsonl")
    journal = open(journal_path, "w", encoding="utf-8")

    def record(phase, **detail):
        journal.write(json.dumps({"phase": phase, **detail}) + "\n")
        journal.flush()

    spec = driver_registry()[DRIVER]
    subject = subject_from_spec(spec)
    instance = make_instance(spec.make_graph, N, SEED)
    record("instance", driver=DRIVER, **instance.describe())

    counter = KillOneWorker()
    base_path = os.path.join(outdir, "baseline.trace.jsonl")
    with use_backend("sharded"), use_shards(SHARDS):
        base, base_summary = observed(
            subject, instance, counter, base_path
        )
    assert base[0] == "ok", f"baseline failed: {base}"
    assert counter.seen >= 2, "run too short to kill mid-flight"
    record("baseline", shards=SHARDS, round_batches=counter.seen)

    workdir = os.path.join(outdir, "ck")
    os.makedirs(workdir, exist_ok=True)
    kill = KillOneWorker(max(1, counter.seen // 2))
    kill_path = os.path.join(outdir, "killed.trace.jsonl")
    with use_backend("sharded"), use_shards(SHARDS), checkpointing(
        workdir, every_rounds=1
    ):
        killed, _ = observed(subject, instance, kill, kill_path)
    assert killed[0] == "error" and "WorkerCrashError" in killed[1], (
        f"SIGKILLing worker {kill.killed} did not surface a "
        f"WorkerCrashError: {killed}"
    )
    assert str(kill.killed) in killed[1], killed[1]
    record(
        "killed",
        pid=kill.killed,
        after_batches=kill.kill_after,
        error=killed[1],
    )

    partial = read(kill_path)
    for resume_shards in RESUME_SHARDS:
        tag = f"resumed-{resume_shards}"
        # Each resume leg gets a pristine copy of the interrupted
        # run's slots (a resume continues checkpointing, advancing
        # them) and the partial trace in a read-write sink: the
        # trace observer seeks to the snapshot offset and rewrites
        # the killed process's tail in place, byte-identically.
        leg_workdir = os.path.join(outdir, f"ck-{tag}")
        shutil.copytree(workdir, leg_workdir)
        resume_path = os.path.join(outdir, f"{tag}.trace.jsonl")
        with open(resume_path, "wb") as handle:
            handle.write(partial)
        metrics = MetricsObserver()
        with open(resume_path, "r+", encoding="utf-8") as sink:
            trace = JsonlTraceObserver(sink, node_steps=True)
            with use_backend("sharded"), use_shards(
                resume_shards
            ), checkpointing(
                leg_workdir, every_rounds=1, resume=True
            ), observe_runs(metrics, trace, KillOneWorker()):
                resumed = run_outcome(subject, instance)
        assert resumed == base, (
            f"{tag}: outcome diverges from baseline"
        )
        resumed_trace = read(resume_path)
        assert resumed_trace == read(base_path), (
            f"{tag}: trace bytes differ from the uninterrupted run's"
        )
        assert metrics.summary() == base_summary, (
            f"{tag}: metrics summary differs"
        )
        record(
            "resumed",
            shards=resume_shards,
            trace_bytes=len(resumed_trace),
        )
        print(
            f"PASS sharded smoke: resume at {resume_shards} shards "
            f"after SIGKILLing worker {kill.killed} is byte-identical "
            f"({len(resumed_trace)} trace bytes)"
        )
    journal.close()
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        os.makedirs(sys.argv[1], exist_ok=True)
        sys.exit(main(os.path.abspath(sys.argv[1])))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(main(tmp))
