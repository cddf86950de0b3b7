"""Engine backends vs reference engine: observable equivalence.

Every registered backend of :func:`repro.core.run_local` — the fast
per-node engine (incremental snapshots, CSR inbox delivery, wake
buckets) and the numpy ``vectorized`` engine (whole-round kernels) —
must be indistinguishable from the kept-simple
:func:`repro.core.run_local_reference` (full snapshot and full scan
every round).  This suite pins that down two ways:

- direct ``run_local`` calls on synthetic algorithms exercising the
  optimized paths (sleep buckets, partial publishes, failures,
  max_rounds), asserting full ``RunResult`` equality — outputs,
  rounds, messages, failures — and identical observer event streams,
  whose round boundaries carry each round's active, awake and halted
  counts;
- driver-level comparisons running every shipped algorithm family
  (coloring, MIS, matching, sinkless, Δ⁵⁵, decomposition) on fixed
  seeds, once per registered backend and once under
  ``use_backend("reference")``, asserting identical labelings, round
  counts, and phase logs.

Both legs parameterize over the backend registry: registering a new
backend automatically subjects it to the whole suite.  Backends whose
extras are missing (``vectorized`` without numpy) are *skipped*, never
failed — the core suite stays green on a bare install.
"""

import multiprocessing
import random

import pytest

from repro.algorithms import (
    AlgorithmReport,
    barenboim_elkin_coloring,
    chang_kopelowitz_pettie_coloring,
    delta_plus_one_coloring,
    deterministic_matching,
    deterministic_mis,
    deterministic_sinkless_orientation,
    luby_mis,
    mpx_decomposition,
    pettie_su_tree_coloring,
    random_sinkless_orientation,
    randomized_matching,
)
from repro.algorithms.drivers import driver_registry
from repro.core import (
    BudgetExceededError,
    Model,
    SyncAlgorithm,
    available_backend_names,
    backend_names,
    run_local,
    run_local_reference,
    use_backend,
)
from repro.faults import FaultPlan
from repro.graphs.generators import (
    complete_regular_tree_with_size,
    cycle_graph,
    random_regular_graph,
    random_tree_prufer,
    ring_of_cycles,
)
from tests.test_obs import Recorder


def backend_params():
    """Every registered non-reference backend, with unavailable ones
    (missing extras, e.g. numpy) marked skip rather than fail."""
    available = set(available_backend_names())
    return [
        name
        if name in available
        else pytest.param(
            name,
            marks=pytest.mark.skip(
                reason=f"backend {name!r} unavailable "
                f"(optional extra not installed)"
            ),
        )
        for name in backend_names()
        if name != "reference"
    ]


CANDIDATE_BACKENDS = backend_params()


def assert_results_identical(fast, reference):
    """Full RunResult equality: outputs, rounds, messages, failures."""
    assert fast.outputs == reference.outputs
    assert fast.rounds == reference.rounds
    assert fast.messages == reference.messages
    assert fast.failures == reference.failures


class _EventRecorder(Recorder):
    """The full per-vertex event stream as comparable tuples — steps,
    publishes, halts, failures, faults, round boundaries and run
    faults — extending the equivalence contract to the telemetry
    stream.  A real ``RunObserver``, so it rides every backend
    natively."""

    def on_run_start(self, meta):
        self.events.append(("run_start", meta.algorithm, meta.n))

    def on_run_end(self, result):
        self.events.append(("run_end", result.rounds))

    def on_run_abort(self, round_index, error):
        self.events.append(("run_abort", round_index, str(error)))


def run_both(graph, algorithm_factory, model, backend="fast", **kwargs):
    """Run once on ``backend`` and once on the reference engine,
    asserting full result *and* observer-event-stream equality."""
    fast_rec, ref_rec = _EventRecorder(), _EventRecorder()
    fast = run_local(
        graph, algorithm_factory(), model,
        observers=[fast_rec], backend=backend, **kwargs
    )
    reference = run_local_reference(
        graph, algorithm_factory(), model,
        observers=[ref_rec], **kwargs
    )
    assert_results_identical(fast, reference)
    assert fast_rec.events == ref_rec.events
    return fast


# ----------------------------------------------------------------------
# Synthetic algorithms targeting the optimized code paths
# ----------------------------------------------------------------------
class StaggeredSleeper(SyncAlgorithm):
    """Classes wake at different rounds — exercises wake buckets and
    the bulk round-skip (some rounds have zero awake vertices)."""

    name = "staggered-sleeper"

    def setup(self, ctx):
        ctx.publish(("t", ctx.input["klass"]))
        ctx.sleep_until(ctx.input["klass"])

    def step(self, ctx, inbox):
        ctx.halt(sum(1 for m in inbox if m is not None))


class RepeatSleeper(SyncAlgorithm):
    """Re-parks itself from inside step — a vertex passes through the
    wake buckets several times before halting."""

    name = "repeat-sleeper"

    def setup(self, ctx):
        ctx.publish(0)
        ctx.sleep_until(ctx.input["klass"])

    def step(self, ctx, inbox):
        count = ctx.input.get("hops", 0) + ctx.now
        ctx.publish(ctx.now)
        if ctx.now < 3 * (ctx.input["klass"] + 1):
            ctx.sleep_until(ctx.now + ctx.input["klass"] + 2)
        else:
            ctx.halt(("done", count, tuple(inbox)))


class PartialPublisher(SyncAlgorithm):
    """Only even vertices republish each round — exercises the dirty
    commit pass (most visible values are stale-but-valid)."""

    name = "partial-publisher"

    def setup(self, ctx):
        ctx.publish(("init", ctx.id))

    def step(self, ctx, inbox):
        if ctx.id % 2 == 0:
            ctx.publish(("round", ctx.now, ctx.id))
        if ctx.now >= 4:
            ctx.halt(tuple(inbox))


class FlakyHalter(SyncAlgorithm):
    """Some vertices fail, some halt, at staggered rounds — exercises
    the failure bookkeeping and per-round halted counts."""

    name = "flaky-halter"

    def setup(self, ctx):
        ctx.publish(ctx.id)

    def step(self, ctx, inbox):
        if ctx.id % 5 == 3 and ctx.now == 1 + ctx.id % 3:
            ctx.fail(f"planned failure at {ctx.now}")
        elif ctx.now >= 2 + ctx.id % 4:
            ctx.halt(len([m for m in inbox if m is not None]))
        else:
            ctx.publish((ctx.id, ctx.now))


class NeverHalts(SyncAlgorithm):
    """Runs into the max_rounds guard."""

    name = "never-halts"

    def setup(self, ctx):
        ctx.publish(0)

    def step(self, ctx, inbox):
        ctx.publish(ctx.now)


class RandomTalker(SyncAlgorithm):
    """RandLOCAL: per-vertex RNG streams must line up across engines."""

    name = "random-talker"

    def setup(self, ctx):
        ctx.publish(ctx.random.random())

    def step(self, ctx, inbox):
        draw = ctx.random.random()
        if draw < 0.3:
            ctx.halt((round(draw, 6), ctx.now))
        else:
            ctx.publish(draw)


def _budget_in_skip_setup():
    """The pinned bulk-skip setup: odd vertices of an 8-cycle sleep
    until round 5, so rounds 1-4 are one bulk-skipped span."""
    graph = cycle_graph(8)
    return graph, [{"klass": 0 if v % 2 == 0 else 5} for v in range(8)]


@pytest.mark.parametrize("backend", CANDIDATE_BACKENDS)
class TestSyntheticEquivalence:
    def test_staggered_sleep_with_bulk_skips(self, backend):
        graph = cycle_graph(60)
        inputs = [{"klass": (v * 7) % 23 + (v % 3) * 40} for v in range(60)]
        result = run_both(
            graph, StaggeredSleeper, Model.DET, backend=backend,
            node_inputs=inputs,
        )
        assert result.rounds == max(i["klass"] for i in inputs) + 1

    def test_bulk_skipped_span_trace_pinned(self, backend):
        """Explicit expected per-round activity for a run with a
        bulk-skipped span: the fast engine must synthesize round events
        identical to the reference engine's full scan."""
        graph, inputs = _budget_in_skip_setup()
        rec = _EventRecorder()
        run_local(
            graph, StaggeredSleeper(), Model.DET, backend=backend,
            node_inputs=inputs, observers=[rec],
        )
        active = {e[1]: e[2] for e in rec.events if e[0] == "round_start"}
        activity = [
            (active[e[1]], e[2], e[3])
            for e in rec.events
            if e[0] == "round_end"
        ]
        assert activity == [(8, 4, 4)] + [(4, 0, 0)] * 4 + [(4, 4, 4)]

        # The skipped span: parked vertices counted active, nothing
        # stepping.
        m = 2 * graph.num_edges
        for r in range(1, 5):
            assert ("round_start", r, 4) in rec.events
            assert ("round_end", r, 0, 0, m) in rec.events
        assert not any(
            e[0] == "step" and 1 <= e[1] <= 4 for e in rec.events
        )
        # And the reference engine agrees event-for-event.
        run_both(
            graph, StaggeredSleeper, Model.DET, backend=backend,
            node_inputs=inputs,
        )

    def test_budget_clamps_a_bulk_skipped_span(self, backend):
        """An injected round budget inside a bulk-skipped span: the skip
        stops at the budget, so BudgetExceededError fires at round 3 —
        where the reference engine's full scan meets it — and not at
        the next wake (round 5)."""
        graph, inputs = _budget_in_skip_setup()
        events = []
        for run in (run_local, run_local_reference):
            rec = _EventRecorder()
            kwargs = {"backend": backend} if run is run_local else {}
            with pytest.raises(BudgetExceededError) as exc:
                run(
                    graph, StaggeredSleeper(), Model.DET,
                    node_inputs=inputs, observers=[rec],
                    fault_plan=FaultPlan(round_budget=3), **kwargs
                )
            assert exc.value.round == 3
            events.append(rec.events)
        assert events[0] == events[1]
        assert ("round_end", 2, 0, 0, 2 * graph.num_edges) in events[0]

    def test_injected_faults_match_event_for_event(self, backend):
        """Drops, stale duplicates and crash-stops: every fault event
        and the failure it causes sit at the same place in the stream
        as on the reference engine."""
        graph = cycle_graph(60)
        inputs = [{"klass": (v * 7) % 23} for v in range(60)]
        plan = FaultPlan(
            seed=4, drop_rate=0.2, duplicate_rate=0.2, crashes={3: 0, 11: 5}
        )
        streams = []
        for run in (run_local, run_local_reference):
            rec = _EventRecorder()
            kwargs = {"backend": backend} if run is run_local else {}
            result = run(
                graph, StaggeredSleeper(), Model.DET, node_inputs=inputs,
                fault_plan=plan, observers=[rec], **kwargs
            )
            streams.append(rec.events)
        assert streams[0] == streams[1]
        faults = " ".join(e[3] for e in streams[0] if e[0] == "fault")
        assert "dropped" in faults and "stale duplicate" in faults
        assert sorted(result.failures) == [3, 11]

    def test_repeated_sleep_cycles(self, backend):
        graph = ring_of_cycles(4, 5)
        inputs = [
            {"klass": v % 6, "hops": v} for v in range(graph.num_vertices)
        ]
        run_both(
            graph, RepeatSleeper, Model.DET, backend=backend,
            node_inputs=inputs,
        )

    def test_partial_publish_dirty_commit(self, backend):
        run_both(
            cycle_graph(31), PartialPublisher, Model.DET, backend=backend
        )

    def test_failures_and_staggered_halts(self, backend):
        result = run_both(
            cycle_graph(40), FlakyHalter, Model.DET, backend=backend
        )
        assert result.failures  # the scenario really exercises failures

    def test_max_rounds_guard(self, backend):
        from repro.core import SimulationError

        graph = cycle_graph(10)
        with pytest.raises(SimulationError, match="exceeded 12"):
            run_local(
                graph, NeverHalts(), Model.DET, max_rounds=12,
                backend=backend,
            )
        with pytest.raises(SimulationError, match="exceeded 12"):
            run_local_reference(
                graph, NeverHalts(), Model.DET, max_rounds=12
            )

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_randomized_streams_match(self, seed, backend):
        run_both(
            cycle_graph(50), RandomTalker, Model.RAND, backend=backend,
            seed=seed,
        )

    def test_sleep_past_max_rounds_still_raises(self, backend):
        class FarSleeper(SyncAlgorithm):
            name = "far-sleeper"

            def setup(self, ctx):
                ctx.publish(0)
                ctx.sleep_until(10_000)

            def step(self, ctx, inbox):
                ctx.halt(0)

        from repro.core import SimulationError

        with pytest.raises(SimulationError, match="exceeded 50"):
            run_local(
                cycle_graph(6),
                FarSleeper(),
                Model.DET,
                max_rounds=50,
                backend=backend,
            )
        with pytest.raises(SimulationError, match="exceeded 50"):
            run_local_reference(
                cycle_graph(6),
                FarSleeper(),
                Model.DET,
                max_rounds=50,
            )


# ----------------------------------------------------------------------
# Every shipped algorithm family, fast vs reference, fixed seeds
# ----------------------------------------------------------------------
def _phases(report: AlgorithmReport):
    return [(p.name, p.rounds, p.messages) for p in report.log.phases]


def assert_reports_identical(fast, reference):
    assert fast.labeling == reference.labeling
    assert fast.rounds == reference.rounds
    assert _phases(fast) == _phases(reference)


def _sinkless_graph():
    from repro.graphs.generators import circulant_graph

    # Connected, min degree 3: every component has a cycle and the
    # deterministic driver's diameter-based radius is defined.
    return circulant_graph(18, [1, 2])


DRIVERS = {
    "delta55-coloring": lambda: chang_kopelowitz_pettie_coloring(
        complete_regular_tree_with_size(7, 120), seed=3, min_delta=7
    ),
    "pettie-su-tree-coloring": lambda: pettie_su_tree_coloring(
        complete_regular_tree_with_size(9, 200), seed=1
    ),
    "barenboim-elkin-coloring": lambda: barenboim_elkin_coloring(
        random_tree_prufer(90, random.Random(5)), 6
    ),
    "delta-plus-one-coloring": lambda: delta_plus_one_coloring(
        random_regular_graph(48, 4, random.Random(2))
    ),
    "luby-mis": lambda: luby_mis(
        random_regular_graph(60, 4, random.Random(3)), seed=7
    ),
    "deterministic-mis": lambda: deterministic_mis(
        random_regular_graph(60, 4, random.Random(3))
    ),
    "randomized-matching": lambda: randomized_matching(
        random_regular_graph(40, 3, random.Random(4)), seed=11
    ),
    "deterministic-matching": lambda: deterministic_matching(
        random_regular_graph(40, 3, random.Random(4))
    ),
    "random-sinkless": lambda: random_sinkless_orientation(
        _sinkless_graph(), seed=5
    )[0],
    "deterministic-sinkless": lambda: deterministic_sinkless_orientation(
        _sinkless_graph()
    ),
}


#: Reference-engine reports are the (slow) shared oracle — computed
#: once per driver, compared against every candidate backend.
_REFERENCE_REPORTS = {}


def _reference_report(name):
    if name not in _REFERENCE_REPORTS:
        with use_backend("reference"):
            _REFERENCE_REPORTS[name] = DRIVERS[name]()
    return _REFERENCE_REPORTS[name]


@pytest.mark.parametrize("backend", CANDIDATE_BACKENDS)
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_shipped_driver_matches_reference_engine(name, backend):
    """Each driver (possibly multi-phase) must produce byte-identical
    reports whichever registered backend its internal run_local calls
    hit — including backends its phases only reach ambiently."""
    with use_backend(backend):
        candidate = DRIVERS[name]()
    assert_reports_identical(candidate, _reference_report(name))


@pytest.mark.parametrize("backend", CANDIDATE_BACKENDS)
def test_mpx_decomposition_matches_reference_engine(backend):
    graph = random_regular_graph(64, 4, random.Random(9))
    with use_backend(backend):
        candidate = mpx_decomposition(graph, beta=0.4, seed=6)
    with use_backend("reference"):
        reference = mpx_decomposition(graph, beta=0.4, seed=6)
    assert candidate.assignment == reference.assignment
    assert candidate.distances == reference.distances
    assert candidate.rounds == reference.rounds


# ----------------------------------------------------------------------
# The sharded round loop at other shard counts
# ----------------------------------------------------------------------
requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded backend needs the fork start method",
)


@requires_fork
@pytest.mark.parametrize("count", [1, 3])
class TestShardedSyntheticEquivalence:
    """The synthetic path-coverage algorithms again, on the sharded
    backend at a degenerate and a boundary-heavy shard count: full
    RunResult and event-stream equality against the reference
    engine."""

    def run_sharded(self, graph, factory, model, count, **kwargs):
        from repro.backends.sharded import use_shards

        with use_shards(count):
            return run_both(
                graph, factory, model, backend="sharded", **kwargs
            )

    def test_staggered_sleep_with_bulk_skips(self, count):
        graph = cycle_graph(60)
        inputs = [{"klass": (v * 7) % 23 + (v % 3) * 40} for v in range(60)]
        self.run_sharded(
            graph, StaggeredSleeper, Model.DET, count, node_inputs=inputs
        )

    def test_repeated_sleep_cycles(self, count):
        graph = ring_of_cycles(4, 5)
        inputs = [
            {"klass": v % 6, "hops": v} for v in range(graph.num_vertices)
        ]
        self.run_sharded(
            graph, RepeatSleeper, Model.DET, count, node_inputs=inputs
        )

    def test_partial_publish_dirty_commit(self, count):
        self.run_sharded(
            cycle_graph(31), PartialPublisher, Model.DET, count
        )

    def test_failures_and_staggered_halts(self, count):
        result = self.run_sharded(
            cycle_graph(40), FlakyHalter, Model.DET, count
        )
        assert result.failures

    def test_randomized_streams_match(self, count):
        self.run_sharded(
            cycle_graph(50), RandomTalker, Model.RAND, count, seed=7
        )

    def test_budget_clamps_a_bulk_skipped_span(self, count):
        from repro.backends.sharded import use_shards

        graph, inputs = _budget_in_skip_setup()
        with use_shards(count):
            with pytest.raises(BudgetExceededError) as exc:
                run_local(
                    graph, StaggeredSleeper(), Model.DET,
                    node_inputs=inputs, backend="sharded",
                    fault_plan=FaultPlan(round_budget=3),
                )
        assert exc.value.round == 3

    def test_max_rounds_guard(self, count):
        from repro.backends.sharded import use_shards
        from repro.core import SimulationError

        with use_shards(count):
            with pytest.raises(SimulationError, match="exceeded 12"):
                run_local(
                    cycle_graph(10), NeverHalts(), Model.DET,
                    max_rounds=12, backend="sharded",
                )


# ----------------------------------------------------------------------
# Equivalence under an active adversary (repro.verify relation)
# ----------------------------------------------------------------------
class TestFaultedEquivalence:
    """The equivalence contract must also hold under a nonzero
    ``FaultPlan``: the fault-determinism relation runs each subject
    twice on the fast engine and once on the reference engine under the
    identical plan (drops + corruption + round budget) and demands
    bit-identical outcomes — including identical failures when the
    adversary wins.  ``test_faults.py`` pins hand-picked plans; this
    sweeps every shipped driver through the shared relation."""

    @pytest.mark.parametrize("name", sorted(driver_registry()))
    def test_shipped_driver_fault_plan_determinism(self, name):
        from repro.algorithms.drivers import get_driver
        from repro.verify import (
            FaultPlanDeterminism,
            make_instance,
            subject_from_spec,
        )

        spec = get_driver(name)
        relation = FaultPlanDeterminism()
        subject = subject_from_spec(spec)
        for seed in (0, 1):
            instance = make_instance(
                spec.make_graph, spec.quick_n, seed
            )
            assert not relation.plan_for(instance).is_noop
            assert relation.check(subject, instance) is None

    def test_bare_randomized_subject_under_faults(self):
        from repro.verify import (
            FaultPlanDeterminism,
            make_instance,
            subject_from_algorithm,
        )

        subject = subject_from_algorithm(
            RandomTalker,
            name="random-talker",
            model=Model.RAND,
            max_rounds=600,
        )
        relation = FaultPlanDeterminism()
        for seed in (0, 1, 2):
            instance = make_instance(
                lambda n, rng: cycle_graph(max(3, n)), 30, seed
            )
            assert relation.check(subject, instance) is None
