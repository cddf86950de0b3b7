"""Two-plane telemetry: batched observers, trace analytics, sidecars.

Plane 1 (deterministic): every engine delivers round batches, the
vectorized backend feeds attached observers natively — no fallback,
per-event recorders included — and the summaries/trace bytes it
produces must be byte-identical to the per-node engines'.  Covers the
batch event order, the crash/budget fault paths, raising runs,
zero-round runs, summary v2 merge fail-loudness, trace schema v1–v3
fixtures, and the streaming query layer.

Plane 2 (nondeterministic): the timing sidecar and progress reporters
must attach without perturbing plane 1, attribute backends/kernels,
and keep their bytes out of the deterministic stream.

Everything runs on a numpy-less install too: vectorized-specific cases
skip (never fail) when the ``[perf]`` extra is absent.
"""

import io
import json
import random
from pathlib import Path

import pytest

from repro.algorithms.rand_tree_coloring import (
    ColorBiddingAlgorithm,
    ColorBiddingConfig,
)
from repro.core import (
    Model,
    available_backend_names,
    run_local,
)
from repro.core.algorithm import SyncAlgorithm
from repro.core.engine import SETUP_ROUND, observe_runs, run_local_reference
from repro.core.errors import BudgetExceededError
from repro.faults import FaultPlan
from repro.graphs.generators import cycle_graph, random_tree_bounded_degree
from repro.obs import (
    SUMMARY_VERSION,
    SUPPORTED_TRACE_VERSIONS,
    TRACE_VERSION,
    JsonlTraceObserver,
    MetricsObserver,
    RoundBatch,
    RunObserver,
    iter_scalar_events,
    iter_trace,
    merge_summaries,
    read_trace,
)
from repro.obs.query import (
    aggregate_trace,
    filter_events,
    merge_aggregates,
    round_timeline,
    vertex_history,
)
from repro.obs.timing import (
    TIMING_SCHEMA,
    ProgressReporter,
    TimingSidecarObserver,
    read_timing_sidecar,
)
from tests.test_obs import Recorder

NUMPY_AVAILABLE = "vectorized" in available_backend_names()

needs_vectorized = pytest.mark.skipif(
    not NUMPY_AVAILABLE,
    reason="vectorized backend unavailable ([perf] extra not installed)",
)

FIXTURES = Path(__file__).parent / "fixtures" / "traces"


def _color_bidding_tree(n=200, seed=1):
    graph = random_tree_bounded_degree(n, 9, random.Random(seed))
    return graph, {"config": ColorBiddingConfig(), "main_palette": 6}


def _capture(backend, *, fault_plan=None, n=200, node_steps=True):
    """(summary, trace bytes, result) for ColorBidding on ``backend``."""
    graph, params = _color_bidding_tree(n=n)
    metrics = MetricsObserver()
    sink = io.StringIO()
    trace = JsonlTraceObserver(
        sink, node_steps=node_steps, payload_values=True
    )
    result = run_local(
        graph,
        ColorBiddingAlgorithm(),
        Model.RAND,
        seed=7,
        global_params=params,
        fault_plan=fault_plan,
        observers=[metrics, trace],
        backend=backend,
    )
    return metrics.summary(), sink.getvalue(), result


@pytest.fixture
def no_fallback(monkeypatch):
    """Make any vectorized->scalar fallback an immediate test failure."""
    import repro.backends.vectorized as vec

    factory = vec._kernel_stepper

    def kernel_stepper(*args):
        stepper = factory(*args)
        if stepper is None:
            raise AssertionError(
                "vectorized backend fell back to the scalar engine"
            )
        return stepper

    monkeypatch.setattr(vec, "_kernel_stepper", kernel_stepper)


class Sleeper(SyncAlgorithm):
    """Halts in setup: a zero-round run (setup batch only)."""

    name = "sleeper"

    def setup(self, ctx):
        ctx.publish("z")
        ctx.halt(0)

    def step(self, ctx, inbox):  # pragma: no cover - never runs
        raise AssertionError("stepped a halted vertex")


# ----------------------------------------------------------------------
# Plane 1: native batched emission on the vectorized backend
# ----------------------------------------------------------------------
@needs_vectorized
class TestVectorizedBatchedObservers:
    def test_no_fallback_with_observers_attached(self, no_fallback):
        summary, trace_bytes, result = _capture("vectorized")
        assert summary["metrics"]["halted_total"]["value"] > 0
        assert trace_bytes

    def test_summary_and_trace_bytes_match_fast(self, no_fallback):
        fast = _capture("fast")
        vec = _capture("vectorized")
        assert vec[0] == fast[0]
        assert vec[1] == fast[1]
        assert vec[2].outputs == fast[2].outputs

    def test_crash_plan_batches_match_fast(self, no_fallback):
        plan = FaultPlan(seed=5, crashes={3: 0, 11: 0})
        fast = _capture("fast", fault_plan=plan)
        vec = _capture("vectorized", fault_plan=plan)
        assert vec[0] == fast[0]
        assert vec[1] == fast[1]
        assert fast[2].failures  # the crashes actually landed

    def test_budget_exhaustion_reaches_on_run_fault(self, no_fallback):
        class FaultLog(RunObserver):
            def __init__(self):
                self.run_faults = []

            def on_run_fault(self, round_index, fault):
                self.run_faults.append((round_index, fault.kind))

        graph, params = _color_bidding_tree()
        plan = FaultPlan(seed=5, round_budget=2)
        log = FaultLog()
        with pytest.raises(BudgetExceededError):
            run_local(
                graph,
                ColorBiddingAlgorithm(),
                Model.RAND,
                seed=7,
                global_params=params,
                fault_plan=plan,
                observers=[log],
                backend="vectorized",
            )
        assert log.run_faults == [(2, "budget")]

    def test_backend_info_reported(self, no_fallback):
        class Attribution(RunObserver):
            def __init__(self):
                self.seen = []

            def on_backend_info(self, backend, kernel):
                self.seen.append((backend, kernel))

        graph, params = _color_bidding_tree(n=60)
        obs = Attribution()
        run_local(
            graph,
            ColorBiddingAlgorithm(),
            Model.RAND,
            seed=7,
            global_params=params,
            observers=[obs],
            backend="vectorized",
        )
        assert obs.seen == [("vectorized", "ColorBiddingKernel")]

    def test_per_event_observer_stays_vectorized(self, no_fallback):
        # The fast legs run the registry's own "fast" runner, which
        # no_fallback leaves alone.
        fast = _capture("fast")
        graph, params = _color_bidding_tree()
        streams = []
        for backend in ("fast", "vectorized"):
            metrics = MetricsObserver()
            recorder = Recorder()
            run_local(
                graph,
                ColorBiddingAlgorithm(),
                Model.RAND,
                seed=7,
                global_params=params,
                observers=[metrics, recorder],
                backend=backend,
            )
            assert metrics.summary() == fast[0]
            streams.append(recorder.events)
        assert streams[0] == streams[1]
        assert ("step", 0, 0) in streams[1]

    def test_zero_round_run_emits_setup_batch(self):
        # Sleeper has no vectorized kernel, so the backend legitimately
        # falls back — the per-node engine still batches the setup pass.
        rounds_seen = []

        class SetupWatcher(RunObserver):
            def on_round_batch(self, batch):
                rounds_seen.append(
                    (batch.round_index, list(batch.published))
                )

        sink_fast, sink_vec = io.StringIO(), io.StringIO()
        g = cycle_graph(6)
        run_local(
            g,
            Sleeper(),
            Model.DET,
            observers=[SetupWatcher(), JsonlTraceObserver(sink_vec)],
            backend="vectorized",
        )
        run_local(
            g,
            Sleeper(),
            Model.DET,
            observers=[JsonlTraceObserver(sink_fast)],
            backend="fast",
        )
        assert sink_vec.getvalue() == sink_fast.getvalue()
        assert rounds_seen and rounds_seen[0][0] == SETUP_ROUND
        assert rounds_seen[0][1] == list(range(6))


# ----------------------------------------------------------------------
# Plane 1: the per-node engines' batches and their event order
# ----------------------------------------------------------------------
class TestScalarShim:
    def test_shim_batches_match_scalar_events(self):
        batches = []

        class Collect(RunObserver):
            def on_round_batch(self, batch):
                batches.append(batch)

        graph, params = _color_bidding_tree(n=60)
        run_local_reference(
            graph,
            ColorBiddingAlgorithm(),
            Model.RAND,
            seed=7,
            global_params=params,
            observers=[Collect()],
        )
        assert batches[0].round_index == SETUP_ROUND
        # Round batches carry consistent per-round facts.
        for batch in batches[1:]:
            assert batch.round_index >= 0
            assert len(batch.halted_verts) == len(batch.halt_values)
            assert batch.messages == 2 * graph.num_edges
        total_halts = sum(len(b.halted_verts) for b in batches)
        assert total_halts == graph.num_vertices

    def test_iter_scalar_events_orders_publish_before_halt(self):
        batch = RoundBatch(
            3,
            stepped=[1, 2],
            published=[2, 1],
            publish_values=["b", "a"],
            halted_verts=[2],
            halt_values=["out"],
        )
        events = list(iter_scalar_events(batch))
        kinds = [(kind, v) for kind, _, v, *rest in events]
        assert kinds == [
            ("step", 1),
            ("publish", 1),
            ("step", 2),
            ("publish", 2),
            ("halt", 2),
        ]

    def test_run_fault_follows_the_last_round_batch(self):
        graph, params = _color_bidding_tree(n=60)
        recorder = Recorder()
        with pytest.raises(BudgetExceededError):
            run_local(
                graph,
                ColorBiddingAlgorithm(),
                Model.RAND,
                seed=7,
                global_params=params,
                fault_plan=FaultPlan(seed=5, round_budget=2),
                observers=[recorder],
            )
        assert recorder.events[-2][:2] == ("round_end", 1)
        kind, round_index, vertex, fault = recorder.events[-1]
        assert (kind, round_index, vertex) == ("fault", 2, None)
        assert "budget" in fault

    def test_shim_and_metrics_agree_across_engines(self):
        graph, params = _color_bidding_tree(n=60)

        def run(runner):
            metrics = MetricsObserver()
            runner(
                graph,
                ColorBiddingAlgorithm(),
                Model.RAND,
                seed=7,
                global_params=params,
                observers=[metrics],
            )
            return metrics.summary()

        assert run(run_local) == run(run_local_reference)


# ----------------------------------------------------------------------
# Plane 1: one protocol on every engine
# ----------------------------------------------------------------------
class RaiseMidRound(SyncAlgorithm):
    """Vertex 5 raises in round 1, after vertices 0-4 stepped."""

    name = "raise-mid-round"

    def setup(self, ctx):
        ctx.publish(ctx.id)

    def step(self, ctx, inbox):
        if ctx.now == 1 and ctx.id == 5:
            raise ValueError("vertex 5 gives up in round 1")
        ctx.publish(sum(inbox))


class RaiseInSetup(SyncAlgorithm):
    """Vertex 3 raises in setup, after vertices 0-3 published."""

    name = "raise-in-setup"

    def setup(self, ctx):
        ctx.publish(ctx.id)
        if ctx.id == 3:
            raise ValueError("vertex 3 gives up in setup")

    def step(self, ctx, inbox):  # pragma: no cover - never runs
        ctx.halt(0)


@pytest.mark.parametrize("algorithm", [RaiseMidRound, RaiseInSetup])
def test_raising_runs_are_byte_identical_on_every_engine(algorithm):
    """A raising run delivers complete rounds only, so its summary and
    trace bytes are the same on every backend and on the reference
    engine: no partial round after a mid-round raise, and nothing at
    all (not even ``run_start``) after a raise in setup."""
    captured = {}
    for backend in available_backend_names():
        metrics = MetricsObserver()
        sink = io.StringIO()
        trace = JsonlTraceObserver(sink, node_steps=True)
        with pytest.raises(ValueError) as raised:
            run_local(
                cycle_graph(8),
                algorithm(),
                Model.DET,
                observers=[metrics, trace],
                backend=backend,
            )
        captured[backend] = (
            str(raised.value),
            metrics.summary(),
            sink.getvalue(),
        )
    reference = captured.pop("reference")
    for backend, got in captured.items():
        assert got == reference, backend
    lines = [json.loads(line) for line in reference[2].splitlines()]
    if algorithm is RaiseInSetup:
        assert lines == []
    else:
        assert [e["round"] for e in lines if e["event"] == "round_end"] == [
            0
        ]
        assert lines[-1]["event"] == "round_end"


@pytest.mark.parametrize("backend", available_backend_names())
def test_observer_without_round_batch_is_refused(backend):
    class StepsOnly:
        def on_node_step(self, round_index, vertex, ctx):
            pass

    with pytest.raises(TypeError, match="StepsOnly"):
        run_local(
            cycle_graph(6),
            Sleeper(),
            Model.DET,
            observers=[StepsOnly()],
            backend=backend,
        )
    with observe_runs(StepsOnly()), pytest.raises(
        TypeError, match="StepsOnly"
    ):
        run_local(cycle_graph(6), Sleeper(), Model.DET, backend=backend)


# ----------------------------------------------------------------------
# Summary v2: merge fail-loudness and new counters
# ----------------------------------------------------------------------
class TestSummaryMerge:
    def _summary(self, n=20):
        metrics = MetricsObserver()
        run_local(
            cycle_graph(n),
            Sleeper(),
            Model.DET,
            observers=[metrics],
        )
        return metrics.summary()

    def test_summary_is_version_2_with_derived_block(self):
        summary = self._summary()
        assert summary["version"] == SUMMARY_VERSION == 2
        derived = summary["derived"]
        assert derived["runs_observed"] == 1
        assert derived["empirical_failure_rate"] == 0.0
        metrics = summary["metrics"]
        assert metrics["runs_succeeded_total"]["value"] == 1
        assert metrics["runs_vertices_total"]["value"] == 20

    def test_merge_is_order_insensitive(self):
        a, b = self._summary(10), self._summary(30)
        assert merge_summaries([a, b]) == merge_summaries([b, a])
        merged = merge_summaries([a, b])
        assert merged["metrics"]["runs_vertices_total"]["value"] == 40
        assert merged["derived"]["runs_observed"] == 2

    def test_merge_rejects_unknown_top_level_section(self):
        bad = self._summary()
        bad["zstd_frames"] = [1, 2]
        with pytest.raises(ValueError, match="unknown section"):
            merge_summaries([self._summary(), bad])

    def test_merge_rejects_newer_version(self):
        newer = self._summary()
        newer["version"] = SUMMARY_VERSION + 1
        with pytest.raises(ValueError, match="upgrade before merging"):
            merge_summaries([newer])

    def test_merge_rejects_foreign_schema_and_metric_type(self):
        foreign = self._summary()
        foreign["schema"] = "someone.else"
        with pytest.raises(ValueError, match="foreign summary schema"):
            merge_summaries([foreign])
        odd = self._summary()
        odd["metrics"]["halted_total"] = {"type": "tdigest", "value": 1}
        with pytest.raises(ValueError, match="unknown type"):
            merge_summaries([odd])


# ----------------------------------------------------------------------
# Trace schema versions v1-v3
# ----------------------------------------------------------------------
class TestTraceVersions:
    @pytest.mark.parametrize("version", SUPPORTED_TRACE_VERSIONS)
    def test_fixture_traces_read(self, version):
        events = read_trace(str(FIXTURES / f"trace_v{version}.jsonl"))
        start = events[0]
        assert start["version"] == version
        if version >= 3:
            assert start["emission_modes"] == ["per-event", "batched"]
        else:
            assert "emission_modes" not in start
        assert events[-1]["event"] == "run_end"

    def test_bodies_identical_across_fixture_versions(self):
        # v3 changed only the run_start header; event bodies must be
        # byte-identical across the three fixtures.
        def bodies(version):
            path = FIXTURES / f"trace_v{version}.jsonl"
            return [
                line
                for line in path.read_text().splitlines()
                if '"event":"run_start"' not in line
            ]

        assert bodies(1) == bodies(2) == bodies(3)

    def test_future_version_rejected_with_explicit_error(self, tmp_path):
        future = TRACE_VERSION + 1
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps(
                {
                    "event": "run_start",
                    "schema": "repro.obs.trace",
                    "version": future,
                    "run": 0,
                }
            )
            + "\n"
        )
        with pytest.raises(ValueError, match=str(future)):
            list(iter_trace(str(path)))

    def test_current_writer_stamps_v3(self):
        sink = io.StringIO()
        run_local(
            cycle_graph(4),
            Sleeper(),
            Model.DET,
            observers=[JsonlTraceObserver(sink)],
        )
        start = json.loads(sink.getvalue().splitlines()[0])
        assert start["version"] == TRACE_VERSION == 3


class SaysHalt(SyncAlgorithm):
    """Publishes the strings the kind filter matches on, then halts."""

    name = "says-halt"

    def setup(self, ctx):
        ctx.publish("halt")

    def step(self, ctx, inbox):
        if ctx.now == 0:
            ctx.publish({"round_end": ["run_end", ctx.id]})
        else:
            ctx.halt("run_start")


class TestTraceKindFilter:
    """``iter_trace(kinds=...)`` skips lines without decoding them; it
    must still yield exactly the asked-for events and fail as loudly."""

    PROFILED = ("run_start", "halt", "round_end", "run_end")

    @pytest.fixture(scope="class")
    def values_trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("kinds") / "trace.jsonl"
        with JsonlTraceObserver(str(path), payload_values=True) as obs:
            for n in (5, 7):
                run_local(
                    cycle_graph(n), SaysHalt(), Model.DET, observers=[obs]
                )
        return str(path)

    @pytest.mark.parametrize("kinds", [PROFILED, ("publish",)])
    def test_filtered_stream_equals_filtering_afterwards(
        self, values_trace, kinds
    ):
        everything = list(iter_trace(values_trace))
        assert {e["run"] for e in everything} == {0, 1}
        assert any(e.get("value") == "halt" for e in everything)
        expected = [e for e in everything if e["event"] in kinds]
        assert expected
        assert list(iter_trace(values_trace, kinds=kinds)) == expected

    def test_unknown_kind_rejected_like_filter_events(self, values_trace):
        with pytest.raises(ValueError, match="unknown event kind.*pubish"):
            list(iter_trace(values_trace, kinds=["pubish"]))

    def test_version_checked_when_run_start_not_asked_for(self, tmp_path):
        path = tmp_path / "future.jsonl"
        lines = [
            {"event": "run_start", "schema": "repro.obs.trace",
             "version": 99, "run": 0},
            {"event": "halt", "run": 0, "round": 0, "v": 0, "value": 1},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in lines))
        with pytest.raises(ValueError, match="99"):
            list(iter_trace(str(path), kinds=("halt",)))

    def test_profile_of_a_torn_driver_trace_raises(self, tmp_path):
        from repro.algorithms import pettie_su_tree_coloring
        from repro.algorithms.rand_tree_coloring import BAD
        from repro.obs import profile_trace

        path = tmp_path / "phase1.jsonl"
        tree = random_tree_bounded_degree(300, 9, random.Random(1))
        with JsonlTraceObserver(str(path)) as obs:
            with observe_runs(obs):
                pettie_su_tree_coloring(tree, seed=1)
        data = path.read_bytes()
        end_of_run_0 = data.index(b'"event":"run_end"')
        publish = data.rindex(b'"event":"publish"', 0, end_of_run_0)
        # The writer died inside run 0's last publish line.
        path.write_bytes(data[:publish])
        with pytest.raises(ValueError):
            profile_trace(str(path), unresolved=BAD)


# ----------------------------------------------------------------------
# Streaming query layer
# ----------------------------------------------------------------------
class TestTraceQuery:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("q") / "trace.jsonl"
        graph, params = _color_bidding_tree(n=80)
        with JsonlTraceObserver(str(path), node_steps=True) as obs:
            run_local(
                graph,
                ColorBiddingAlgorithm(),
                Model.RAND,
                seed=7,
                global_params=params,
                observers=[obs],
            )
        return str(path)

    def test_aggregate_streams_and_counts(self, trace_path):
        agg = aggregate_trace(iter_trace(trace_path))
        assert agg["runs"] == 1
        assert agg["halted_total"] == 80
        assert agg["events"] == sum(agg["events_by_kind"].values())
        assert agg["per_run"][0]["algorithm"] == "color-bidding"

    def test_aggregate_accepts_generator_not_list(self, trace_path):
        # A generator can only be consumed once: this proves single-pass.
        gen = iter_trace(trace_path)
        agg = aggregate_trace(gen)
        assert agg["events"] > 0
        assert list(gen) == []  # fully drained in the single pass

    def test_merge_aggregates_sums_and_rejects_foreign(self, trace_path):
        a = aggregate_trace(iter_trace(trace_path))
        merged = merge_aggregates([a, a])
        assert merged["events"] == 2 * a["events"]
        assert merged["runs"] == 2
        with pytest.raises(ValueError, match="schema"):
            merge_aggregates([a, {"schema": "other", "version": 1}])

    def test_round_timeline_rows(self, trace_path):
        rows = round_timeline(iter_trace(trace_path), run=0)
        by_round = {r["round"]: r for r in rows}
        assert by_round[SETUP_ROUND]["publishes"] == 80
        assert by_round[0]["active"] == 80
        assert sum(r["halted"] for r in rows) == 80

    def test_vertex_history_and_filter(self, trace_path):
        history = vertex_history(iter_trace(trace_path), 3, run=0)
        assert history, "vertex 3 must have events"
        assert all(e["v"] == 3 for e in history)
        assert history[-1]["event"] in ("halt", "failure")
        pubs = list(
            filter_events(
                iter_trace(trace_path), kinds=["publish"], vertex=3
            )
        )
        assert pubs == [e for e in history if e["event"] == "publish"]

    def test_filter_rejects_unknown_kind(self, trace_path):
        with pytest.raises(ValueError, match="pubish"):
            list(
                filter_events(iter_trace(trace_path), kinds=["pubish"])
            )

    def test_query_missing_run_raises(self, trace_path):
        with pytest.raises(ValueError, match="run 9"):
            round_timeline(iter_trace(trace_path), run=9)


# ----------------------------------------------------------------------
# Plane 2: timing sidecar and progress
# ----------------------------------------------------------------------
class TestTimingSidecar:
    def _run_traced(self, backend, sidecar_sink):
        graph, params = _color_bidding_tree(n=60)
        sink = io.StringIO()
        trace = JsonlTraceObserver(sink)
        timing = TimingSidecarObserver(sidecar_sink, sample_every=1)
        run_local(
            graph,
            ColorBiddingAlgorithm(),
            Model.RAND,
            seed=7,
            global_params=params,
            observers=[trace, timing],
            backend=backend,
        )
        return sink.getvalue()

    def test_sidecar_lines_and_trace_unperturbed(self):
        side = io.StringIO()
        graph, params = _color_bidding_tree(n=60)
        bare_sink = io.StringIO()
        run_local(
            graph,
            ColorBiddingAlgorithm(),
            Model.RAND,
            seed=7,
            global_params=params,
            observers=[JsonlTraceObserver(bare_sink)],
            backend="fast",
        )
        traced = self._run_traced("fast", side)
        # Sidecar attachment changes no deterministic-plane bytes.
        assert traced == bare_sink.getvalue()
        lines = [json.loads(x) for x in side.getvalue().splitlines()]
        assert lines[0]["event"] == "timing_run_start"
        assert lines[0]["schema"] == TIMING_SCHEMA
        assert lines[-1]["event"] == "timing_run_end"
        assert lines[-1]["wall_seconds"] >= 0
        rounds = [x for x in lines if x["event"] == "timing_round"]
        assert rounds and all(x["dt"] >= 0 for x in rounds)

    @needs_vectorized
    def test_sidecar_attributes_vectorized_kernel(self, no_fallback):
        side = io.StringIO()
        self._run_traced("vectorized", side)
        end = [
            json.loads(x) for x in side.getvalue().splitlines()
        ][-1]
        assert end["backend"] == "vectorized"
        assert end["kernel"] == "ColorBiddingKernel"

    @pytest.mark.parametrize(
        "backend, engine",
        [
            ("fast", "fast"),
            ("reference", "reference"),
            # Sleeper has no kernel: the per-node engine runs instead.
            pytest.param("vectorized", "fast", marks=needs_vectorized),
        ],
    )
    def test_sidecar_names_the_engine_that_ran(self, backend, engine):
        side = io.StringIO()
        run_local(
            cycle_graph(8),
            Sleeper(),
            Model.DET,
            observers=[TimingSidecarObserver(side)],
            backend=backend,
        )
        end = json.loads(side.getvalue().splitlines()[-1])
        assert end["event"] == "timing_run_end"
        assert (end["backend"], end["kernel"]) == (engine, None)

    def test_reader_roundtrip_and_schema_guard(self, tmp_path):
        path = tmp_path / "timing.jsonl"
        with TimingSidecarObserver(str(path)) as timing:
            run_local(
                cycle_graph(8),
                Sleeper(),
                Model.DET,
                observers=[timing],
            )
        lines = list(read_timing_sidecar(str(path)))
        assert lines[0]["event"] == "timing_run_start"
        trace_file = tmp_path / "det.jsonl"
        with JsonlTraceObserver(str(trace_file)) as trace:
            run_local(
                cycle_graph(8),
                Sleeper(),
                Model.DET,
                observers=[trace],
            )
        with pytest.raises(ValueError, match="repro.obs.trace"):
            list(read_timing_sidecar(str(trace_file)))

    def test_progress_reporter_writes_summary_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream, min_interval=0.0)
        graph, params = _color_bidding_tree(n=60)
        run_local(
            graph,
            ColorBiddingAlgorithm(),
            Model.RAND,
            seed=7,
            global_params=params,
            observers=[reporter],
        )
        text = stream.getvalue()
        assert "color-bidding" in text
        assert "done" in text

    @pytest.mark.parametrize("workers", [None, 2])
    def test_sweep_progress_callback_fires_per_cell(self, workers):
        from repro.analysis.experiments import run_sweep

        ticks = []
        run_sweep(
            "progress",
            [2.0, 3.0],
            lambda x, seed: x,
            seeds=(0, 1),
            workers=workers,
            progress=lambda done, total, outcome: ticks.append(
                (done, total, outcome.status)
            ),
        )
        # The count rises once per settled cell, whatever order a pool
        # settles them in.
        assert [(d, t) for d, t, _ in ticks] == [
            (1, 4),
            (2, 4),
            (3, 4),
            (4, 4),
        ]
        assert all(status == "ok" for _, _, status in ticks)


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
class TestExports:
    def _summary(self):
        metrics = MetricsObserver()
        run_local(
            cycle_graph(12),
            Sleeper(),
            Model.DET,
            observers=[metrics],
        )
        return metrics.summary()

    def test_prometheus_text_stable_and_typed(self):
        from repro.obs import to_prometheus

        text = to_prometheus(self._summary())
        assert text == to_prometheus(self._summary())  # byte-stable
        assert "# TYPE repro_halted_total counter" in text
        assert "repro_halted_total 12" in text
        assert "repro_halt_round_count 12" in text
        assert "repro_derived_runs_observed 1" in text

    def test_json_snapshot_roundtrip(self):
        from repro.obs import to_json_snapshot

        snap = json.loads(to_json_snapshot(self._summary()))
        assert snap["schema"] == "repro.obs.export"
        assert snap["summary"]["version"] == SUMMARY_VERSION

    def test_export_rejects_foreign_summary(self):
        from repro.obs import to_prometheus

        with pytest.raises(ValueError, match="schema"):
            to_prometheus({"schema": "nope", "version": 1})

    def test_write_infers_format_from_extension(self, tmp_path):
        from repro.obs import write_metrics_export

        summary = self._summary()
        prom = tmp_path / "m.prom"
        js = tmp_path / "m.json"
        assert write_metrics_export(summary, str(prom)) == "prometheus"
        assert write_metrics_export(summary, str(js)) == "json"
        assert prom.read_text().startswith("# TYPE")
        assert json.loads(js.read_text())["schema"] == "repro.obs.export"
