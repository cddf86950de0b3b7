"""Telemetry layer: observer hooks, metrics, JSONL traces.

Pins the tentpole contracts of the observability subsystem:

- event ordering and content, identical across the fast and reference
  engines (the determinism contract extended to telemetry);
- zero interference: attaching observers never changes the RunResult;
- MetricsObserver counters/histograms and ball-growth locality
  accounting;
- JSONL traces byte-identical across repeated runs and engines, with a
  versioned schema that round-trips through read_trace;
- run_sweep per-cell summaries bit-identical serial vs pooled, with
  clear TelemetryError failures for unusable observers.
"""

import io
import json

import pytest

from repro.algorithms import luby_mis
from repro.analysis.experiments import ExperimentRecord, run_sweep
from repro.core import (
    Model,
    SETUP_ROUND,
    SyncAlgorithm,
    TelemetryError,
    observe_runs,
    run_local,
    run_local_reference,
)
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.obs import (
    JsonlTraceObserver,
    MetricsObserver,
    MetricsRegistry,
    RunObserver,
    estimate_payload_bytes,
    iter_scalar_events,
    merge_summaries,
    read_trace,
)


class Recorder(RunObserver):
    """Append every event as a comparable tuple: run and round
    boundaries, and each batch's events as :func:`iter_scalar_events`
    yields them (a fault by its string form, a run-level fault with
    vertex ``None``)."""

    def __init__(self):
        self.events = []

    def on_run_start(self, meta):
        self.events.append(
            (
                "run_start",
                meta.algorithm,
                meta.model.name,
                meta.n,
                meta.num_edges,
                meta.max_degree,
                meta.max_rounds,
                meta.seed,
            )
        )

    def on_round_batch(self, batch):
        r = batch.round_index
        if r != SETUP_ROUND:
            self.events.append(("round_start", r, batch.active))
        for event in iter_scalar_events(batch):
            if event[0] == "fault":
                event = event[:3] + (str(event[3]),)
            self.events.append(event)
        if r != SETUP_ROUND:
            self.events.append(
                ("round_end", r, batch.awake, batch.halted, batch.messages)
            )

    def on_run_fault(self, round_index, fault):
        self.events.append(("fault", round_index, None, str(fault)))

    def on_run_end(self, result):
        self.events.append(
            ("run_end", result.rounds, result.messages)
        )


class TwoRound(SyncAlgorithm):
    """Publish in setup, count neighbors in round 0, halt in round 1."""

    name = "two-round"

    def setup(self, ctx):
        ctx.publish(1)

    def step(self, ctx, inbox):
        if ctx.now == 0:
            ctx.publish(sum(m for m in inbox if m))
        else:
            ctx.halt(("done", ctx.now))


class SleepyHalter(SyncAlgorithm):
    """Sleeps through a span of rounds (bulk-skipped by the fast
    engine), then halts — some vertices fail instead."""

    name = "sleepy-halter"

    def setup(self, ctx):
        ctx.publish(("t", ctx.input["wake"]))
        ctx.sleep_until(ctx.input["wake"])

    def step(self, ctx, inbox):
        if ctx.input["wake"] % 7 == 3:
            ctx.fail("planned")
        else:
            ctx.halt(ctx.input["wake"])


def record_events(engine, graph, algorithm, model, **kwargs):
    rec = Recorder()
    result = engine(
        graph, algorithm, model, observers=[rec], **kwargs
    )
    return rec.events, result


class TestEventStream:
    def test_exact_sequence_on_tiny_graph(self):
        graph = path_graph(2)
        events, result = record_events(
            run_local, graph, TwoRound(), Model.DET
        )
        m = 2 * graph.num_edges
        assert events == [
            ("run_start", "two-round", "DET", 2, 1, 1, 100_000, None),
            ("publish", SETUP_ROUND, 0, 1),
            ("publish", SETUP_ROUND, 1, 1),
            ("round_start", 0, 2),
            ("step", 0, 0),
            ("publish", 0, 0, 1),
            ("step", 0, 1),
            ("publish", 0, 1, 1),
            ("round_end", 0, 2, 0, m),
            ("round_start", 1, 2),
            ("step", 1, 0),
            ("halt", 1, 0, ("done", 1)),
            ("step", 1, 1),
            ("halt", 1, 1, ("done", 1)),
            ("round_end", 1, 2, 2, m),
            ("run_end", result.rounds, result.messages),
        ]

    @pytest.mark.parametrize("n", [12, 30])
    def test_fast_and_reference_streams_identical(self, n):
        graph = cycle_graph(n)
        inputs = [{"wake": (v * 5) % 17 + (v % 2) * 30} for v in range(n)]
        fast_events, fast = record_events(
            run_local, graph, SleepyHalter(), Model.DET,
            node_inputs=inputs,
        )
        ref_events, ref = record_events(
            run_local_reference, graph, SleepyHalter(), Model.DET,
            node_inputs=inputs,
        )
        assert fast_events == ref_events
        assert fast.outputs == ref.outputs

    def test_bulk_skipped_rounds_emit_synthesized_events(self):
        n = 10
        graph = cycle_graph(n)
        inputs = [{"wake": 20} for _ in range(n)]
        events, _ = record_events(
            run_local, graph, SleepyHalter(), Model.DET,
            node_inputs=inputs,
        )
        m = 2 * graph.num_edges
        # Rounds 0..19 are bulk-skipped: every vertex parked, no steps.
        for r in range(20):
            assert ("round_start", r, n) in events
            assert ("round_end", r, 0, 0, m) in events
        assert not any(
            e[0] == "step" and e[1] < 20 for e in events
        )

    def test_observers_do_not_change_result(self):
        graph = cycle_graph(24)
        inputs = [{"wake": v % 9} for v in range(24)]
        plain = run_local(
            graph, SleepyHalter(), Model.DET, node_inputs=inputs,
        )
        _, observed = record_events(
            run_local, graph, SleepyHalter(), Model.DET,
            node_inputs=inputs,
        )
        assert plain == observed

    def test_observe_runs_is_ambient_and_restores(self):
        rec = Recorder()
        graph = path_graph(3)
        with observe_runs(rec):
            run_local(graph, TwoRound(), Model.DET)
            first = len(rec.events)
            assert first > 0
            run_local(graph, TwoRound(), Model.DET)
            assert len(rec.events) == 2 * first
        run_local(graph, TwoRound(), Model.DET)
        assert len(rec.events) == 2 * first  # detached again

    def test_observe_runs_nests(self):
        outer, inner = Recorder(), Recorder()
        graph = path_graph(2)
        with observe_runs(outer):
            with observe_runs(inner):
                run_local(graph, TwoRound(), Model.DET)
        assert outer.events == inner.events
        assert outer.events

    def test_max_rounds_raise_stops_stream_without_run_end(self):
        class Forever(SyncAlgorithm):
            name = "forever"

            def setup(self, ctx):
                ctx.publish(0)

            def step(self, ctx, inbox):
                ctx.publish(ctx.now)

        from repro.core import SimulationError

        streams = []
        for engine in (run_local, run_local_reference):
            rec = Recorder()
            with pytest.raises(SimulationError):
                engine(
                    cycle_graph(6), Forever(), Model.DET,
                    max_rounds=5, observers=[rec],
                )
            streams.append(rec.events)
            assert not any(e[0] == "run_end" for e in rec.events)
            assert max(
                e[1] for e in rec.events if e[0] == "round_end"
            ) == 4
        assert streams[0] == streams[1]


class TestMetrics:
    def test_registry_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(2.5)
        hist = reg.histogram("h")
        for v in (1.0, 3.0):
            hist.observe(v)
        snap = reg.snapshot()
        assert snap["c"] == {"type": "counter", "value": 3}
        assert snap["g"] == {"type": "gauge", "value": 2.5}
        assert snap["h"]["count"] == 2
        assert snap["h"]["mean"] == 2.0
        with pytest.raises(TypeError):
            reg.gauge("c")

    def test_observer_counts_match_run(self):
        graph = cycle_graph(20)
        obs = MetricsObserver()
        result = run_local(graph, TwoRound(), Model.DET, observers=[obs])
        metrics = obs.summary()["metrics"]
        assert metrics["rounds_total"]["value"] == result.rounds
        assert metrics["messages_total"]["value"] == result.messages
        assert metrics["halted_total"]["value"] == 20
        # setup + round-0 publishes: 2 per vertex
        assert metrics["publishes_total"]["value"] == 40
        assert obs.round_curves[0][0]["awake"] == 20

    def test_locality_radius_ball_growth(self):
        # TwoRound reads neighbors twice: info radius 2 at halt.
        graph = path_graph(8)
        obs = MetricsObserver()
        run_local(graph, TwoRound(), Model.DET, observers=[obs])
        radius = obs.summary()["metrics"]["locality_radius"]
        assert radius["max"] == 2
        assert radius["count"] == 8

    def test_locality_radius_on_star(self):
        # The hub hears all leaves each round; radius still grows by
        # one hop per round of listening.
        graph = star_graph(5)
        obs = MetricsObserver()
        run_local(graph, TwoRound(), Model.DET, observers=[obs])
        assert obs.summary()["metrics"]["locality_radius"]["max"] == 2

    def test_estimate_payload_bytes_deterministic(self):
        class Opaque:
            pass

        value = {"k": [1, 2.5, "abc", (True, None)], "s": {3, 1}}
        assert estimate_payload_bytes(value) == estimate_payload_bytes(
            value
        )
        # Opaque objects cost a flat size — never their repr (which
        # embeds a memory address).
        assert estimate_payload_bytes(Opaque()) == estimate_payload_bytes(
            Opaque()
        )
        assert estimate_payload_bytes(255) == 1
        assert estimate_payload_bytes(256) == 2

    def test_merge_summaries_is_order_insensitive(self):
        graph = cycle_graph(16)
        summaries = []
        for seed in (0, 1, 2):
            obs = MetricsObserver()
            with observe_runs(obs):
                luby_mis(graph, seed=seed)
            summaries.append(obs.summary())
        forward = merge_summaries(summaries)
        backward = merge_summaries(list(reversed(summaries)))
        assert forward == backward
        assert forward["runs"] == sum(s["runs"] for s in summaries)
        assert forward["metrics"]["halted_total"]["value"] == sum(
            s["metrics"]["halted_total"]["value"] for s in summaries
        )


class TestJsonlTrace:
    def run_traced(self, engine, **trace_kwargs):
        graph = cycle_graph(18)
        inputs = [{"wake": v % 6} for v in range(18)]
        buf = io.StringIO()
        obs = JsonlTraceObserver(buf, **trace_kwargs)
        engine(
            graph, SleepyHalter(), Model.DET,
            node_inputs=inputs, observers=[obs],
        )
        return buf.getvalue()

    def test_byte_identical_across_repeats_and_engines(self):
        first = self.run_traced(run_local, payload_values=True)
        second = self.run_traced(run_local, payload_values=True)
        reference = self.run_traced(
            run_local_reference, payload_values=True
        )
        assert first == second == reference

    def test_schema_and_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        graph = cycle_graph(10)
        obs = JsonlTraceObserver(path, payload_values=True)
        run_local(graph, TwoRound(), Model.DET, observers=[obs])
        obs.close()
        events = read_trace(path)
        start = events[0]
        assert start["event"] == "run_start"
        assert start["schema"] == "repro.obs.trace"
        assert start["version"] == 3
        assert start["emission_modes"] == ["per-event", "batched"]
        assert start["n"] == 10
        assert len(start["edges"]) == graph.num_edges
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "run_end"
        assert "round_start" in kinds and "halt" in kinds
        # Every line is standalone JSON with sorted keys.
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                assert list(obj) == sorted(obj)

    def test_values_canonicalized(self, tmp_path):
        class Odd:
            pass

        class Loud(SyncAlgorithm):
            name = "loud"

            def setup(self, ctx):
                ctx.publish({(1, 2): {3, 1}, "o": Odd()})

            def step(self, ctx, inbox):
                ctx.halt(0)

        path = str(tmp_path / "t.jsonl")
        obs = JsonlTraceObserver(path, payload_values=True)
        run_local(path_graph(2), Loud(), Model.DET, observers=[obs])
        obs.close()
        publish = next(
            e for e in read_trace(path) if e["event"] == "publish"
        )
        assert publish["value"]["[1, 2]"] == [1, 3]
        assert publish["value"]["o"] == {"__opaque__": "Odd"}

    def test_read_trace_run_filter(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        graph = path_graph(3)
        obs = JsonlTraceObserver(path)
        with observe_runs(obs):
            run_local(graph, TwoRound(), Model.DET)
            run_local(graph, TwoRound(), Model.DET)
        obs.close()
        all_events = read_trace(path)
        assert {e["run"] for e in all_events} == {0, 1}
        only_second = read_trace(path, run=1)
        assert all(e["run"] == 1 for e in only_second)
        with pytest.raises(ValueError, match="no events for run 7"):
            read_trace(path, run=7)


def _sweep_measure(x, seed):
    return float(luby_mis(cycle_graph(int(x)), seed=seed).rounds)


class TestSweepTelemetry:
    def test_pooled_summaries_bit_identical_to_serial(self):
        kwargs = dict(
            xs=[16, 24],
            measure=_sweep_measure,
            seeds=(0, 1),
            observer_factory=MetricsObserver,
        )
        serial = run_sweep("obs-sweep", **kwargs)
        pooled = run_sweep("obs-sweep", workers=2, **kwargs)
        assert [p.values for p in serial.points] == [
            p.values for p in pooled.points
        ]
        assert serial.cell_telemetry == pooled.cell_telemetry
        assert serial.telemetry() == pooled.telemetry()
        assert len(serial.cell_telemetry) == 4
        # Grid order: x-major, then seed.
        assert [
            (c["x"], c["seed"]) for c in serial.cell_telemetry
        ] == [(16, 0), (16, 1), (24, 0), (24, 1)]

    def test_no_factory_means_no_telemetry(self):
        series = run_sweep(
            "plain", [16], _sweep_measure, seeds=(0,)
        )
        assert series.cell_telemetry == []
        assert series.telemetry() is None

    def test_unpicklable_summary_raises_clear_error(self):
        class BadSummary(RunObserver):
            def summary(self):
                return {"closure": lambda: 1}

        with pytest.raises(TelemetryError, match="not picklable"):
            run_sweep(
                "bad",
                [16, 24],
                _sweep_measure,
                seeds=(0, 1),
                workers=2,
                observer_factory=BadSummary,
            )

    def test_observer_without_summary_raises(self):
        class NoSummary(RunObserver):
            pass

        with pytest.raises(TelemetryError, match="no summary"):
            run_sweep(
                "bad",
                [16],
                _sweep_measure,
                seeds=(0,),
                observer_factory=NoSummary,
            )

    def test_duck_typed_observer_raises(self):
        class DuckTyped:
            def summary(self):
                return {}

            def on_run_start(self, meta):
                pass

        with pytest.raises(
            TelemetryError, match="subclass repro.obs.RunObserver"
        ):
            run_sweep(
                "bad",
                [16],
                _sweep_measure,
                seeds=(0,),
                observer_factory=DuckTyped,
            )

    def test_experiment_record_renders_telemetry(self):
        series = run_sweep(
            "obs-sweep",
            [16],
            _sweep_measure,
            seeds=(0,),
            observer_factory=MetricsObserver,
        )
        record = ExperimentRecord("EX", "telemetry demo")
        record.add_series(series)
        rendered = record.render()
        assert "telemetry: obs-sweep" in rendered
        assert "halted_total" in rendered
