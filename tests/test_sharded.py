"""The sharded multi-process backend: partitioner properties, shard
configuration, bit-identity against the serial fast engine, and
worker-failure recovery.

The partitioner tests are seeded property checks over
:mod:`repro.verify.gen` instances — every failing instance is shrunk
with :func:`repro.verify.shrink_instance` before being reported, so a
red run prints minimal reproduction coordinates.

The runtime tests pin the determinism contract from
``docs/sharding.md``: for every (driver, instance, seed, fault plan),
the sharded backend at any shard count must reproduce the fast
engine's outcome, JSONL trace bytes, and metrics summary — raising
runs included.  Tier-1 runs a two-driver smoke; the full
registry × plans × shard-counts matrix is marked ``slow`` and runs in
the CI ``sharded`` job.
"""

import contextlib
import io
import multiprocessing
import os
import signal

import pytest

from repro.algorithms.drivers import driver_registry
from repro.backends.sharded import (
    CONTIGUOUS,
    DEFAULT_SHARD_COUNT,
    PARTITION_MODES,
    RANDOM,
    SHARDS_ENV_VAR,
    boundary_edges,
    current_shard_config,
    partition_graph,
    use_shards,
)
from repro.core import Model, SyncAlgorithm, run_local, use_backend
from repro.core.checkpoint import checkpointing
from repro.core.engine import inject_faults, observe_runs
from repro.core.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.faults.runtime import mix64
from repro.graphs.generators import cycle_graph, random_tree_bounded_degree
from repro.obs import JsonlTraceObserver, MetricsObserver
from repro.obs.observer import RunObserver, iter_scalar_events
from repro.verify import (
    make_instance,
    run_outcome,
    shrink_instance,
    standard_relations,
    subject_from_spec,
)
from repro.verify.relations import PartitionInvariance

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded backend needs the fork start method",
)


# ----------------------------------------------------------------------
# Partitioner properties (pure functions; no processes involved)
# ----------------------------------------------------------------------
def _tree_family(n, rng):
    return random_tree_bounded_degree(max(n, 3), 6, rng)


MIN_N = 4
SHARD_COUNTS = (1, 2, 3, 5)
SEEDS = (11, 23, 47)


def _check_property(prop, requested_n, seed):
    """Assert ``prop(instance) is None``, shrinking on failure."""
    instance = make_instance(_tree_family, requested_n, seed)
    failure = prop(instance)
    if failure is None:
        return
    shrunk = shrink_instance(
        instance, lambda inst: prop(inst) is not None, _tree_family, MIN_N
    )
    pytest.fail(
        f"{prop(shrunk) or failure} (instance {shrunk.describe()})"
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("mode", PARTITION_MODES)
def test_every_vertex_in_exactly_one_shard(seed, n_shards, mode):
    def prop(instance):
        part = partition_graph(
            instance.graph, n_shards, mode=mode, seed=seed
        )
        seen = [v for block in part.shards for v in block]
        if sorted(seen) != list(range(instance.n)):
            return (
                f"shard blocks are not a partition of the vertex set: "
                f"{part.shards!r}"
            )
        for s, block in enumerate(part.shards):
            if list(block) != sorted(block):
                return f"shard {s} block not ascending: {block!r}"
            for v in block:
                if part.owner[v] != s:
                    return (
                        f"owner[{v}] == {part.owner[v]} but vertex "
                        f"sits in shard {s}"
                    )
        return None

    _check_property(prop, 40, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("mode", PARTITION_MODES)
def test_boundary_edges_symmetric_across_shard_pairs(seed, n_shards, mode):
    def prop(instance):
        part = partition_graph(
            instance.graph, n_shards, mode=mode, seed=seed
        )
        for a in range(n_shards):
            for b in range(a + 1, n_shards):
                ab = boundary_edges(instance.graph, part, a, b)
                ba = boundary_edges(instance.graph, part, b, a)
                if ab != ba:
                    return (
                        f"boundary({a},{b}) != boundary({b},{a}): "
                        f"{sorted(ab)} vs {sorted(ba)}"
                    )
        return None

    _check_property(prop, 40, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", PARTITION_MODES)
def test_partition_is_a_pure_function(seed, mode):
    def prop(instance):
        first = partition_graph(instance.graph, 3, mode=mode, seed=seed)
        second = partition_graph(instance.graph, 3, mode=mode, seed=seed)
        if first != second:
            return "repeated partition_graph calls disagree"
        return None

    _check_property(prop, 40, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("mode", PARTITION_MODES)
def test_consumers_are_exactly_the_foreign_neighbor_shards(
    seed, n_shards, mode
):
    def prop(instance):
        graph = instance.graph
        part = partition_graph(graph, n_shards, mode=mode, seed=seed)
        for v in range(instance.n):
            foreign = sorted(
                {part.owner[u] for u in graph.neighbors(v)}
                - {part.owner[v]}
            )
            recorded = list(part.consumers.get(v, ()))
            if recorded != foreign:
                return (
                    f"consumers[{v}] == {recorded} but foreign "
                    f"neighbor shards are {foreign}"
                )
        return None

    _check_property(prop, 40, seed)


@pytest.mark.parametrize("mode", PARTITION_MODES)
def test_empty_and_singleton_shards_are_tolerated(mode):
    instance = make_instance(_tree_family, 5, 7)
    part = partition_graph(
        instance.graph, instance.n * 3, mode=mode, seed=7
    )
    assert sum(len(block) for block in part.shards) == instance.n
    assert any(not block for block in part.shards)
    sizes = {len(block) for block in part.shards}
    assert sizes <= {0, 1} or mode == RANDOM


def test_partition_rejects_bad_arguments():
    instance = make_instance(_tree_family, 10, 1)
    with pytest.raises(ReproError, match="positive"):
        partition_graph(instance.graph, 0)
    with pytest.raises(ReproError, match="unknown partition mode"):
        partition_graph(instance.graph, 2, mode="striped")


def test_boundary_edges_of_a_shard_with_itself_is_empty():
    instance = make_instance(_tree_family, 20, 3)
    part = partition_graph(instance.graph, 2)
    assert boundary_edges(instance.graph, part, 0, 0) == frozenset()
    assert boundary_edges(instance.graph, part, 1, 1) == frozenset()


# ----------------------------------------------------------------------
# Shard configuration resolution
# ----------------------------------------------------------------------
def test_shard_config_defaults_and_env(monkeypatch):
    monkeypatch.delenv(SHARDS_ENV_VAR, raising=False)
    assert current_shard_config().n_shards == DEFAULT_SHARD_COUNT
    monkeypatch.setenv(SHARDS_ENV_VAR, "6")
    config = current_shard_config()
    assert config.n_shards == 6
    # The environment picks the count only; placement is use_shards'.
    assert (config.mode, config.seed) == (CONTIGUOUS, 0)


def test_ambient_use_shards_beats_the_environment(monkeypatch):
    monkeypatch.setenv(SHARDS_ENV_VAR, "8")
    with use_shards(3, mode=RANDOM, seed=9):
        config = current_shard_config()
        assert config.n_shards == 3
        assert config.mode == RANDOM
        assert config.seed == 9
    assert current_shard_config().n_shards == 8


@pytest.mark.parametrize(
    "bad, match",
    [("0", "positive"), ("-2", "positive"), ("many", SHARDS_ENV_VAR)],
)
def test_invalid_shard_environment_fails_loudly(monkeypatch, bad, match):
    monkeypatch.setenv(SHARDS_ENV_VAR, bad)
    with pytest.raises(ReproError, match=match):
        current_shard_config()


def test_use_shards_validates_eagerly():
    with pytest.raises(ReproError, match="positive"):
        use_shards(0).__enter__()
    with pytest.raises(ReproError, match="unknown partition mode"):
        use_shards(2, mode="striped").__enter__()


# ----------------------------------------------------------------------
# Bit-identity against the serial fast engine
# ----------------------------------------------------------------------
SEED = 12345


def _crash_plan(seed):
    return FaultPlan(
        seed=mix64(seed, 0xFA02),
        crash_rate=0.05,
        crash_round=1,
        round_budget=512,
    )


def _noise_plan(seed):
    return FaultPlan(
        seed=mix64(seed, 0xFA01),
        drop_rate=0.02,
        corrupt_rate=0.01,
        corrupt=lambda payload: ("corrupted", payload),
        round_budget=512,
    )


def _observed(subject, instance):
    metrics = MetricsObserver()
    sink = io.StringIO()
    trace = JsonlTraceObserver(sink, node_steps=True)
    with observe_runs(metrics, trace):
        outcome = run_outcome(subject, instance)
    return outcome, sink.getvalue(), metrics.summary()


def _assert_identical(spec, plan, legs, label):
    """``legs`` is a list of (label, zero-arg use_shards factory) —
    factories because a contextmanager instance is single-use."""
    subject = subject_from_spec(spec)
    instance = make_instance(spec.make_graph, spec.quick_n, SEED)
    scope = (
        contextlib.nullcontext() if plan is None else inject_faults(plan)
    )
    with scope, use_backend("fast"):
        base, base_trace, base_summary = _observed(subject, instance)
    for leg_label, shards in legs:
        scope = (
            contextlib.nullcontext()
            if plan is None
            else inject_faults(plan)
        )
        with scope, use_backend("sharded"), shards():
            got, got_trace, got_summary = _observed(subject, instance)
        where = f"{spec.name} {label} {leg_label}"
        assert got == base, f"{where}: outcome diverges"
        assert got_trace == base_trace, f"{where}: trace bytes diverge"
        assert got_summary == base_summary, (
            f"{where}: metrics summary diverges"
        )


@requires_fork
@pytest.mark.parametrize("name", ["luby-mis", "linial-coloring"])
def test_trace_identity_smoke(name):
    spec = driver_registry()[name]
    legs = [
        (f"shards={k}", lambda k=k: use_shards(k)) for k in (2, 4)
    ]
    _assert_identical(spec, None, legs, "bare")


@requires_fork
def test_faulted_trace_identity_smoke():
    """A crash plan that the run survives: the faulted byte-identity
    path (shard-local crash-stop, parent-side fault reconstruction)."""
    spec = driver_registry()["luby-mis"]
    legs = [
        ("shards=2", lambda: use_shards(2)),
        ("random2", lambda: use_shards(2, mode=RANDOM, seed=77)),
    ]
    _assert_identical(spec, _crash_plan(SEED), legs, "crash")


@requires_fork
@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(driver_registry()))
def test_full_matrix_is_bit_identical(name):
    """The deep matrix: every registry driver, bare plus both fault
    adversaries, at shard counts {1, 2, 4} and one random-placement
    leg.  Runs in the CI ``sharded`` job (`-m slow`)."""
    spec = driver_registry()[name]
    legs = [
        (f"shards={k}", lambda k=k: use_shards(k)) for k in (1, 2, 4)
    ]
    legs.append(
        ("random2", lambda: use_shards(2, mode=RANDOM, seed=77))
    )
    for label, plan in (
        ("bare", None),
        ("noise", _noise_plan(SEED)),
        ("crash", _crash_plan(SEED)),
    ):
        _assert_identical(spec, plan, legs, label)


@requires_fork
def test_partition_invariance_relation_passes_on_a_driver():
    spec = driver_registry()["linial-coloring"]
    relation = PartitionInvariance()
    subject = subject_from_spec(spec)
    instance = make_instance(spec.make_graph, spec.quick_n, 4242)
    assert relation.applies_to(subject)
    assert relation.check(subject, instance) is None


def test_partition_invariance_ships_in_the_standard_catalogue():
    assert any(
        isinstance(relation, PartitionInvariance)
        for relation in standard_relations()
    )


class _RaiseEverywhere(SyncAlgorithm):
    """Every vertex raises in round 0, naming itself."""

    name = "raise-everywhere"

    def setup(self, ctx):
        ctx.publish(0)

    def step(self, ctx, inbox):
        raise ValueError(f"id {ctx.id}")


@requires_fork
def test_simultaneous_shard_errors_raise_the_lowest_vertex():
    """When several shards raise in one round, the sharded backend
    raises the error of the lowest failing vertex — the one the fast
    engine's ascending scan reaches first.  Placement seed 0 puts
    vertex 0 on shard 1, so re-raising shard 0's error would name a
    different vertex."""
    graph = cycle_graph(12)
    assert partition_graph(graph, 2, mode=RANDOM, seed=0).owner[0] == 1
    with pytest.raises(ValueError) as fast:
        run_local(graph, _RaiseEverywhere(), Model.DET, backend="fast")
    with use_shards(2, mode=RANDOM, seed=0):
        with pytest.raises(ValueError) as sharded:
            run_local(
                graph, _RaiseEverywhere(), Model.DET, backend="sharded"
            )
    assert str(fast.value) == "id 0"
    assert str(sharded.value) == str(fast.value)


class _ScalarRecorder(RunObserver):
    """Counts the per-vertex step events of every round batch."""

    def __init__(self):
        self.steps = 0

    def on_round_batch(self, batch):
        self.steps += sum(
            1 for event in iter_scalar_events(batch) if event[0] == "step"
        )


@requires_fork
def test_scalar_observer_stays_sharded_with_identical_results(monkeypatch):
    import repro.backends.sharded.coordinator as coordinator

    # luby-mis steps for several rounds; linial-coloring at quick_n
    # halts in setup, which would compare zero steps with zero.
    spec = driver_registry()["luby-mis"]
    subject = subject_from_spec(spec)
    instance = make_instance(spec.make_graph, spec.quick_n, SEED)
    recorder_fast = _ScalarRecorder()
    with use_backend("fast"), observe_runs(recorder_fast):
        base = run_outcome(subject, instance)

    def boom(*args, **kwargs):
        raise AssertionError("sharded backend fell back to the fast engine")

    monkeypatch.setattr(coordinator, "_run_local_fast", boom)
    recorder_sharded = _ScalarRecorder()
    with use_backend("sharded"), use_shards(2), observe_runs(
        recorder_sharded
    ):
        got = run_outcome(subject, instance)
    assert got == base
    assert recorder_sharded.steps == recorder_fast.steps > 0


# ----------------------------------------------------------------------
# Worker failure and recovery
# ----------------------------------------------------------------------
class _KillOneWorker(RunObserver):
    """Checkpoint-capable batch observer that SIGKILLs one live shard
    worker after ``kill_after`` delivered round batches."""

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


def _kill_observed(subject, instance, kill, sink):
    metrics = MetricsObserver()
    trace = JsonlTraceObserver(sink, node_steps=True)
    with observe_runs(metrics, trace, kill):
        outcome = run_outcome(subject, instance)
    return outcome, metrics.summary()


@requires_fork
@pytest.mark.parametrize("resume_shards", [4, 2])
def test_sigkill_worker_then_resume_is_byte_identical(
    tmp_path, resume_shards
):
    """Killing one shard worker mid-run surfaces a WorkerCrashError;
    resuming from the latest checkpoint — at the original *or* a
    different shard count, checkpoints being shard-agnostic — must
    reproduce the uninterrupted trace bytes exactly."""
    spec = driver_registry()["luby-mis"]
    subject = subject_from_spec(spec)
    instance = make_instance(spec.make_graph, spec.quick_n, SEED)

    counter = _KillOneWorker()
    base_sink = io.StringIO()
    with use_backend("sharded"), use_shards(4):
        base, base_summary = _kill_observed(
            subject, instance, counter, base_sink
        )
    assert base[0] == "ok"
    assert counter.seen >= 2, "run too short to kill mid-flight"

    workdir = str(tmp_path / f"ckpt-{resume_shards}")
    kill = _KillOneWorker(max(1, counter.seen // 2))
    kill_sink = io.StringIO()
    with use_backend("sharded"), use_shards(4), checkpointing(
        workdir, every_rounds=1
    ):
        killed, _ = _kill_observed(subject, instance, kill, kill_sink)
    assert killed[0] == "error" and "WorkerCrashError" in killed[1]
    assert str(kill.killed) in killed[1]

    resume_sink = io.StringIO()
    resume_sink.write(kill_sink.getvalue())
    metrics = MetricsObserver()
    trace = JsonlTraceObserver(resume_sink, node_steps=True)
    with use_backend("sharded"), use_shards(resume_shards), checkpointing(
        workdir, every_rounds=1, resume=True
    ), observe_runs(metrics, trace, _KillOneWorker()):
        resumed = run_outcome(subject, instance)
    assert resumed == base
    assert resume_sink.getvalue() == base_sink.getvalue()
    assert metrics.summary() == base_summary


@requires_fork
def test_worker_crash_error_names_the_shard_and_remedy(tmp_path):
    spec = driver_registry()["luby-mis"]
    subject = subject_from_spec(spec)
    instance = make_instance(spec.make_graph, spec.quick_n, SEED)
    kill = _KillOneWorker(1)
    with use_backend("sharded"), use_shards(2):
        outcome, _ = _kill_observed(
            subject, instance, kill, io.StringIO()
        )
    assert outcome[0] == "error"
    assert "WorkerCrashError" in outcome[1]
    assert "resume from the latest checkpoint" in outcome[1]
