"""The pluggable backend registry and the vectorized engine backend.

Covers the selection machinery itself (precedence chain, env var,
unknown names, unavailable extras), the vectorized backend's fallback
rules and the documented engine of every driver phase, and the
byte-level artifacts the backend contract promises: identical JSONL
trace streams and backend-pinned sweep journals.

Everything here runs on a numpy-less install too: vectorized-specific
cases skip (never fail) when the ``[perf]`` extra is absent.
"""

import io
import random
from pathlib import Path

import pytest

from repro.algorithms.drivers import DRIVER_REGISTRY
from repro.algorithms.linial import LinialColoring
from repro.algorithms.rand_tree_coloring import (
    ColorBiddingAlgorithm,
    ColorBiddingConfig,
)
from repro.core import (
    BACKEND_ENV_VAR,
    Model,
    ReproError,
    available_backend_names,
    backend_names,
    current_backend_name,
    get_backend,
    observe_runs,
    register_backend,
    run_local,
    use_backend,
)
from repro.core.backend import _REGISTRY
from repro.faults import FaultPlan
from repro.graphs.generators import cycle_graph, random_tree_bounded_degree
from repro.obs import RunObserver
from tests.test_io_tracing import ActivityLog, run_with_activity

PERFORMANCE_DOC = (
    Path(__file__).resolve().parent.parent / "docs" / "performance.md"
)
ENGINE_TABLE_HEADER = "| Driver | Phase | Engine | Kernel |"

NUMPY_AVAILABLE = "vectorized" in available_backend_names()

needs_vectorized = pytest.mark.skipif(
    not NUMPY_AVAILABLE,
    reason="vectorized backend unavailable ([perf] extra not installed)",
)


@pytest.fixture
def scratch_backend():
    """Register a temporary backend; restore the registry afterwards."""
    registered = []

    def add(name, loader, description=""):
        assert name not in _REGISTRY
        register_backend(name, loader, description=description)
        registered.append(name)
        return get_backend(name)

    yield add
    for name in registered:
        del _REGISTRY[name]


def _color_bidding_tree(n=200, seed=1):
    graph = random_tree_bounded_degree(n, 9, random.Random(seed))
    return graph, {"config": ColorBiddingConfig(), "main_palette": 6}


# ----------------------------------------------------------------------
# Registry and selection precedence
# ----------------------------------------------------------------------
class TestRegistry:
    def test_shipped_backends_registered(self):
        names = backend_names()
        assert "fast" in names
        assert "reference" in names
        assert "vectorized" in names
        assert "sharded" in names

    def test_sharded_backend_needs_no_extras(self):
        # Pure stdlib multiprocessing: available on every install.
        assert "sharded" in available_backend_names()

    def test_fast_and_reference_always_available(self):
        available = available_backend_names()
        assert "fast" in available
        assert "reference" in available

    def test_unknown_backend_name_raises_with_known_set(self):
        with pytest.raises(ReproError, match="unknown engine backend"):
            get_backend("warp-drive")
        with pytest.raises(ReproError, match="fast"):
            get_backend("warp-drive")

    def test_run_local_rejects_unknown_backend(self):
        with pytest.raises(ReproError, match="unknown engine backend"):
            run_local(
                cycle_graph(4),
                LinialColoring(),
                Model.DET,
                backend="warp-drive",
            )

    def test_use_backend_rejects_unknown_name_eagerly(self):
        with pytest.raises(ReproError, match="unknown engine backend"):
            with use_backend("warp-drive"):
                pass  # pragma: no cover — must not be reached

    def test_unavailable_backend_skipped_not_failed(self, scratch_backend):
        def loader():
            raise ReproError(
                "the 'phantom' backend requires a missing extra"
            )

        backend = scratch_backend("phantom", loader)
        assert not backend.available()
        assert "phantom" in backend_names()
        assert "phantom" not in available_backend_names()
        # Selecting it is allowed; the run itself raises the guidance.
        with use_backend("phantom"):
            with pytest.raises(ReproError, match="missing extra"):
                run_local(cycle_graph(4), LinialColoring(), Model.DET)

    def test_replacing_the_default_backend_is_honored(self):
        """register_backend("fast", ...) replaces the default: every
        selection route (default, explicit, ambient) must route through
        the registry entry, not a hardwired engine."""
        calls = []
        original = _REGISTRY["fast"]

        def probe_runner(*args, **kwargs):
            calls.append("probe")
            return original.load()(*args, **kwargs)

        register_backend(
            "fast", lambda: probe_runner, description="probe override"
        )
        try:
            graph = cycle_graph(4)
            run_local(graph, LinialColoring(), Model.DET)
            run_local(
                graph, LinialColoring(), Model.DET, backend="fast"
            )
            with use_backend("fast"):
                run_local(graph, LinialColoring(), Model.DET)
        finally:
            _REGISTRY["fast"] = original
        assert calls == ["probe", "probe", "probe"]

    def test_vectorized_loader_guidance_without_numpy(self, monkeypatch):
        """The loader's ImportError branch names the install command."""
        import importlib

        from repro.core import engine

        def refuse(name):
            raise ImportError("No module named 'numpy'")

        monkeypatch.setattr(importlib, "import_module", refuse)
        with pytest.raises(ReproError, match=r"repro\[perf\]"):
            engine._load_vectorized_backend()


class TestSelectionPrecedence:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert current_backend_name() == "fast"

    def test_env_var_beats_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert current_backend_name() == "reference"

    def test_ambient_scope_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        with use_backend("fast"):
            assert current_backend_name() == "fast"
        assert current_backend_name() == "reference"

    def test_scopes_nest_innermost_wins(self):
        with use_backend("reference"):
            with use_backend("fast"):
                assert current_backend_name() == "fast"
            assert current_backend_name() == "reference"

    def test_scope_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_backend("reference"):
                raise RuntimeError("boom")
        assert current_backend_name() == "fast"

    def test_explicit_argument_beats_ambient(self, scratch_backend):
        calls = []

        def probe_runner(*args, **kwargs):
            calls.append("probe")
            from repro.core.engine import _run_local_fast

            return _run_local_fast(*args, **kwargs)

        scratch_backend("probe", lambda: probe_runner)
        with use_backend("reference"):
            run_local(
                cycle_graph(4),
                LinialColoring(),
                Model.DET,
                backend="probe",
            )
        assert calls == ["probe"]

    def test_env_var_selects_run_local_backend(
        self, monkeypatch, scratch_backend
    ):
        calls = []

        def probe_runner(*args, **kwargs):
            calls.append("probe")
            from repro.core.engine import _run_local_fast

            return _run_local_fast(*args, **kwargs)

        scratch_backend("probe", lambda: probe_runner)
        monkeypatch.setenv(BACKEND_ENV_VAR, "probe")
        run_local(cycle_graph(4), LinialColoring(), Model.DET)
        assert calls == ["probe"]


# ----------------------------------------------------------------------
# Vectorized backend: kernel path and fallback rules
# ----------------------------------------------------------------------
@needs_vectorized
class TestVectorizedBackend:
    def test_kernel_registered_for_color_bidding(self):
        from repro.backends.vectorized import kernel_for

        assert kernel_for(ColorBiddingAlgorithm()) is not None

    def test_supports_veto_large_palette(self):
        """Palettes beyond the int64 bitmask width fall back — and the
        fallback result still matches the fast engine bit-for-bit."""
        from repro.backends.vectorized import run_local_vectorized

        graph, params = _color_bidding_tree()
        params = dict(params, main_palette=70)
        fast, fast_rows = run_with_activity(
            graph, ColorBiddingAlgorithm(), Model.RAND, seed=3,
            global_params=params,
        )
        log = ActivityLog()
        vec = run_local_vectorized(
            graph, ColorBiddingAlgorithm(), Model.RAND, seed=3,
            global_params=params, observers=[log],
        )
        assert fast.outputs == vec.outputs
        assert fast_rows == log.rows

    def test_crash_faults_identical_on_kernel_path(self):
        graph, params = _color_bidding_tree()
        plan = FaultPlan(
            seed=5, crashes={3: 1}, crash_rate=0.05, crash_round=2
        )
        fast, fast_rows = run_with_activity(
            graph, ColorBiddingAlgorithm(), Model.RAND, seed=9,
            global_params=params, fault_plan=plan,
        )
        vec, vec_rows = run_with_activity(
            graph, ColorBiddingAlgorithm(), Model.RAND, seed=9,
            global_params=params, fault_plan=plan,
            backend="vectorized",
        )
        assert fast.outputs == vec.outputs
        assert fast.failures == vec.failures
        assert fast_rows == vec_rows
        assert fast.failures  # the plan really crashed someone

    def _linial_sparse_ids(self, n=30):
        """Sparse IDs in a 2^20 space: a 3-stage schedule, so a color
        frozen by an early crash can be out of range for later stages."""
        graph = cycle_graph(n)
        ids = [(v * 34567 + 11) % (1 << 20) for v in range(n)]
        assert len(set(ids)) == n
        return graph, ids, {"id_space": 1 << 20}

    def _forbid_fallback(self, monkeypatch):
        from repro.backends import vectorized

        def boom(*args, **kwargs):  # pragma: no cover — must not run
            raise AssertionError("unexpected fallback to fast engine")

        monkeypatch.setattr(vectorized, "_run_local_fast", boom)

    def test_linial_crash_faults_identical_on_kernel_path(
        self, monkeypatch
    ):
        """A vertex crashed mid-schedule keeps publishing its frozen
        color; neighbors must recolor against it exactly as the scalar
        engines do — on the kernel path, not via fallback."""
        graph, ids, params = self._linial_sparse_ids()
        plan = FaultPlan(seed=5, crashes={3: 1, 11: 1})
        fast, fast_rows = run_with_activity(
            graph, LinialColoring(), Model.DET, ids=ids,
            global_params=params, fault_plan=plan,
        )
        self._forbid_fallback(monkeypatch)
        vec, vec_rows = run_with_activity(
            graph, LinialColoring(), Model.DET, ids=ids,
            global_params=params, fault_plan=plan,
            backend="vectorized",
        )
        assert fast.outputs == vec.outputs
        assert fast.failures == vec.failures
        assert fast_rows == vec_rows
        assert fast.failures  # the plan really crashed someone

    def test_linial_stale_crash_color_raises_identically(self):
        """A round-0 crash freezes the published ID, which is out of
        range for the stage-1 cover-free family — the scalar path
        raises ValueError from cover_free_set, and the kernel must
        raise the identical error."""
        graph, ids, params = self._linial_sparse_ids()
        plan = FaultPlan(seed=5, crashes={3: 0})
        outcomes = []
        for backend in ("fast", "vectorized", "reference"):
            with pytest.raises(ValueError, match="out of range") as exc:
                run_local(
                    graph, LinialColoring(), Model.DET, ids=ids,
                    global_params=params, fault_plan=plan,
                    backend=backend,
                )
            outcomes.append(str(exc.value))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_oriented_linial_crash_faults_identical(self, monkeypatch):
        from repro.algorithms.linial import OrientedLinialColoring
        from repro.graphs.generators import random_tree_prufer

        graph = random_tree_prufer(40, random.Random(3))
        parent = {0: None}
        order, seen, head = [0], {0}, 0
        while head < len(order):
            v = order[head]
            head += 1
            for u in graph.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    parent[u] = v
                    order.append(u)
        inputs = [
            {
                "out_ports": (
                    [graph.port_of(v, parent[v])]
                    if parent[v] is not None
                    else []
                )
            }
            for v in graph.vertices()
        ]
        ids = [(v * 9176 + 5) % (1 << 18) for v in range(40)]
        params = {"out_degree": 1, "id_space": 1 << 18}
        plan = FaultPlan(seed=1, crashes={0: 0, 9: 2})
        fast, fast_rows = run_with_activity(
            graph, OrientedLinialColoring(), Model.DET, ids=ids,
            node_inputs=inputs, global_params=params, fault_plan=plan,
        )
        self._forbid_fallback(monkeypatch)
        vec, vec_rows = run_with_activity(
            graph, OrientedLinialColoring(), Model.DET, ids=ids,
            node_inputs=inputs, global_params=params,
            fault_plan=plan, backend="vectorized",
        )
        assert fast.outputs == vec.outputs
        assert fast.failures == vec.failures
        assert fast_rows == vec_rows

    def test_message_faults_fall_back_and_match(self):
        graph, params = _color_bidding_tree(n=80)
        plan = FaultPlan(seed=2, drop_rate=0.05, round_budget=256)
        outcomes = []
        for backend in ("fast", "vectorized"):
            try:
                result = run_local(
                    graph, ColorBiddingAlgorithm(), Model.RAND,
                    seed=4, global_params=params, fault_plan=plan,
                    backend=backend,
                )
                outcomes.append(("ok", result.outputs, result.rounds))
            except Exception as exc:  # noqa: BLE001 — outcome folding
                outcomes.append(("error", f"{type(exc).__name__}: {exc}"))
        assert outcomes[0] == outcomes[1]


class _EngineLog(RunObserver):
    """``(algorithm, backend, kernel)`` of every run it watches."""

    def __init__(self):
        self.runs = []

    def on_run_start(self, meta):
        self._algorithm = meta.algorithm

    def on_backend_info(self, backend, kernel):
        self.runs.append((self._algorithm, backend, kernel))


def _documented_engine_table():
    """docs/performance.md's "driver × phase → engine" table as
    ``{driver: [(phase, engine, kernel), ...]}`` in row order; a blank
    driver cell continues the driver above it."""
    lines = PERFORMANCE_DOC.read_text(encoding="utf-8").splitlines()
    table, driver = {}, None
    for line in lines[lines.index(ENGINE_TABLE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        driver = cells[0] or driver
        kernel = None if cells[3] == "—" else cells[3]
        table.setdefault(driver, []).append((cells[1], cells[2], kernel))
    return table


@needs_vectorized
class TestEngineCoverageTable:
    def test_driver_phases_run_on_the_documented_engine(self):
        observed = {}
        for name, spec in DRIVER_REGISTRY.items():
            graph = spec.make_graph(spec.quick_n, random.Random(0))
            log = _EngineLog()
            with use_backend("vectorized"), observe_runs(log):
                spec.run(graph)
            observed[name] = log.runs
        assert observed == _documented_engine_table()


# ----------------------------------------------------------------------
# popcount: numpy>=2 fast path and the SWAR fallback for numpy 1.x
# ----------------------------------------------------------------------
@needs_vectorized
class TestPopcount:
    def _reference(self, masks):
        return [bin(m).count("1") for m in masks]

    def test_swar_fallback_matches_python(self):
        import numpy as np

        from repro.backends.vectorized import _popcount_swar, popcount

        rng = random.Random(99)
        masks = [0, 1, 2, 3, (1 << 62) - 1, 2**63 - 1]
        masks += [rng.getrandbits(62) for _ in range(500)]
        arr = np.asarray(masks, dtype=np.int64)
        expected = self._reference(masks)
        # Both the numpy 1.x fallback and whatever ``popcount`` resolved
        # to on this install must agree with pure-python counting.
        assert _popcount_swar(arr).tolist() == expected
        assert popcount(arr).tolist() == expected
        assert _popcount_swar(arr).dtype == np.int64


# ----------------------------------------------------------------------
# VectorMT: the vectorized per-vertex random streams
# ----------------------------------------------------------------------
@needs_vectorized
class TestVectorMT:
    """Word-exact parity with ``[random.Random(s) for s in seeds]`` —
    the property that lets kernels replay scalar draw sequences."""

    def _pair(self, seeds):
        import numpy as np

        from repro.backends.mt19937 import VectorMT

        arr = np.array(seeds, dtype=np.uint64)
        return VectorMT(arr), [random.Random(int(s)) for s in seeds]

    def test_interleaved_draws_match_across_block_boundary(self):
        import numpy as np

        master = random.Random(2024)
        seeds = [master.getrandbits(64) for _ in range(23)]
        vmt, scalars = self._pair(seeds)
        verts = np.arange(len(seeds))
        script = random.Random(7)
        for _ in range(420):  # > 624 words consumed: crosses a refill
            kind = script.randrange(3)
            if kind == 0:
                assert (
                    vmt.random(verts)
                    == np.array([r.random() for r in scalars])
                ).all()
            elif kind == 1:
                sizes = np.array(
                    [script.randrange(1, 40) for _ in scalars]
                )
                assert (
                    vmt.randrange(verts, sizes)
                    == np.array(
                        [
                            r.randrange(int(k))
                            for r, k in zip(scalars, sizes)
                        ]
                    )
                ).all()
            else:
                counts = np.array(
                    [script.randrange(0, 5) for _ in scalars]
                )
                expected = [
                    r.random()
                    for r, c in zip(scalars, counts)
                    for _ in range(int(c))
                ]
                got = vmt.random_runs(verts, counts)
                assert got.tolist() == expected

    def test_subset_draws_desynchronize_positions_safely(self):
        import numpy as np

        vmt, scalars = self._pair([10**18 + v for v in range(9)])
        verts = np.arange(9)
        subset = np.array([0, 3, 8])
        for _ in range(400):  # subset streams refill before the rest
            assert (
                vmt.random(subset)
                == np.array([scalars[int(v)].random() for v in subset])
            ).all()
        assert (
            vmt.random(verts)
            == np.array([r.random() for r in scalars])
        ).all()

    def test_edge_seeds_use_scalar_seeding_path(self):
        """Seeds below 2³² have a different init_by_array key length."""
        import numpy as np

        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        vmt, scalars = self._pair(seeds)
        verts = np.arange(len(seeds))
        for _ in range(700):
            assert (
                vmt.random(verts)
                == np.array([r.random() for r in scalars])
            ).all()

    def test_randrange_one_still_consumes_a_word(self):
        import numpy as np

        vmt, scalars = self._pair([42, 43])
        verts = np.arange(2)
        ones = np.array([1, 1])
        assert (
            vmt.randrange(verts, ones)
            == np.array([r.randrange(1) for r in scalars])
        ).all()
        assert (
            vmt.random(verts)
            == np.array([r.random() for r in scalars])
        ).all()

    def test_randrange_empty_matches_stdlib_error(self):
        import numpy as np

        vmt, _ = self._pair([5])
        with pytest.raises(ValueError, match="empty range"):
            vmt.randrange(np.array([0]), np.array([0]))


# ----------------------------------------------------------------------
# Byte-level artifacts: JSONL traces and sweep journals
# ----------------------------------------------------------------------
class TestTraceBytes:
    def _trace_bytes(self, backend):
        from repro.obs import JsonlTraceObserver

        graph, params = _color_bidding_tree(n=60)
        sink = io.StringIO()
        observer = JsonlTraceObserver(sink, node_steps=True)
        run_local(
            graph, ColorBiddingAlgorithm(), Model.RAND, seed=7,
            global_params=params, observers=[observer],
            backend=backend,
        )
        return sink.getvalue()

    def test_jsonl_trace_bytes_identical_across_backends(self):
        streams = {
            name: self._trace_bytes(name)
            for name in available_backend_names()
        }
        baseline = streams["fast"]
        assert baseline  # the observer really wrote events
        for name, stream in streams.items():
            assert stream == baseline, f"backend {name!r} trace differs"


class TestSweepBackendThreading:
    def _measure(self, x, seed):
        graph = cycle_graph(int(x))
        result = run_local(
            graph, LinialColoring(), Model.DET,
            ids=list(range(int(x))),
        )
        return result.rounds + seed

    def test_backend_pinned_results_match_default(self):
        from repro.analysis.experiments import run_sweep

        base = run_sweep(
            "s", [8.0, 12.0], self._measure, seeds=(0, 1)
        )
        with use_backend("reference"):
            pinned = run_sweep(
                "s", [8.0, 12.0], self._measure, seeds=(0, 1)
            )
        assert base.as_dict() == pinned.as_dict()

    def test_unknown_backend_rejected_before_any_cell_runs(
        self, monkeypatch
    ):
        from repro.analysis.experiments import run_sweep

        def measure(x, seed):
            raise AssertionError("a cell ran under an unknown backend")

        monkeypatch.setenv(BACKEND_ENV_VAR, "warp-drive")
        with pytest.raises(ReproError, match="unknown engine backend"):
            run_sweep("s", [6.0], measure)

    def test_journal_fingerprint_pins_backend(self, tmp_path):
        """Resuming a journaled sweep under a different backend must be
        refused — never silently mixed."""
        from repro.analysis.experiments import run_sweep

        journal = str(tmp_path / "sweep.jsonl")
        with use_backend("fast"):
            run_sweep(
                "s", [6.0], self._measure, seeds=(0,), journal=journal
            )
        with use_backend("reference"), pytest.raises(
            ValueError, match="fingerprint"
        ):
            run_sweep(
                "s", [6.0], self._measure, seeds=(0,), journal=journal
            )

    def test_ambient_scope_is_captured_in_fingerprint(self, tmp_path):
        from repro.analysis.experiments import run_sweep

        journal = str(tmp_path / "sweep.jsonl")
        with use_backend("reference"):
            run_sweep(
                "s", [6.0], self._measure, seeds=(0,), journal=journal
            )
        # Same ambient backend resumes cleanly …
        with use_backend("reference"):
            run_sweep(
                "s", [6.0], self._measure, seeds=(0,), journal=journal
            )
        # … the default (fast) does not.
        with pytest.raises(ValueError, match="fingerprint"):
            run_sweep(
                "s", [6.0], self._measure, seeds=(0,), journal=journal
            )

    @needs_vectorized
    def test_pooled_sweep_threads_vectorized_backend(self):
        """Fork-pool children must run under the parent's backend; with
        the deterministic contract the pooled vectorized sweep equals
        the serial fast sweep bit-for-bit."""
        from repro.analysis.experiments import run_sweep

        def measure(x, seed):
            graph = random_tree_bounded_degree(
                int(x), 9, random.Random(seed)
            )
            result = run_local(
                graph,
                ColorBiddingAlgorithm(),
                Model.RAND,
                seed=seed,
                global_params={
                    "config": ColorBiddingConfig(),
                    "main_palette": 6,
                },
            )
            return sum(1 for out in result.outputs if out == -1)

        serial = run_sweep("bad", [60.0, 90.0], measure, seeds=(0, 1))
        with use_backend("vectorized"):
            pooled = run_sweep(
                "bad", [60.0, 90.0], measure, seeds=(0, 1), workers=2
            )
        assert serial.as_dict() == pooled.as_dict()


# ----------------------------------------------------------------------
# Backend-surface drift: every registered backend on every surface
# ----------------------------------------------------------------------
class TestBackendSurfaces:
    """The meta-test for backend-surface drift: registering a backend
    must make it appear on every user-facing surface that names
    backends — the CLI choices, the bench rows (whose timings also hold
    it to the fast engine's results), the sweep journal fingerprint and
    checkpoint capture.  A backend missing from any of these fails
    here, not in production."""

    def test_cli_backend_choices_track_the_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        action = next(
            a
            for a in parser._actions
            if "--backend" in getattr(a, "option_strings", ())
        )
        assert tuple(action.choices) == tuple(backend_names())

    def test_cli_shards_flag_exports_the_env_var(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro import cli
        from repro.backends.sharded import SHARDS_ENV_VAR

        monkeypatch.delenv(SHARDS_ENV_VAR, raising=False)
        cli.main(["--shards", "3", "report", str(tmp_path)])
        assert os.environ.get(SHARDS_ENV_VAR) == "3"
        monkeypatch.delenv(SHARDS_ENV_VAR, raising=False)

    def test_cli_rejects_nonpositive_shards(self, tmp_path):
        from repro import cli

        with pytest.raises(SystemExit):
            cli.main(["--shards", "0", "report", str(tmp_path)])

    def test_bench_rows_cover_every_available_backend(self):
        from repro.analysis.perf import backend_engine_metrics

        timings = backend_engine_metrics(n=240, repeats=1)
        assert set(timings) == set(available_backend_names())

    def test_bench_timings_name_a_diverging_backend(self, scratch_backend):
        """`repro bench` fails on a backend whose outputs, or whose
        metrics summary with observers attached, differ from fast's."""
        from repro.analysis.perf import (
            backend_engine_metrics,
            traced_backend_metrics,
        )
        from repro.core.engine import _run_local_fast

        def wrong_output(*args, **kwargs):
            result = _run_local_fast(*args, **kwargs)
            result.outputs[0] = "wrong"
            return result

        def unobserved(*args, observers=None, **kwargs):
            return _run_local_fast(*args, **kwargs)

        scratch_backend("unobserved", lambda: unobserved)
        # Outputs and rounds agree, so only the traced timing fails.
        backend_engine_metrics(n=240, repeats=1)
        with pytest.raises(AssertionError, match="'unobserved'"):
            traced_backend_metrics(n=240, repeats=1)
        scratch_backend("wrong-output", lambda: wrong_output)
        with pytest.raises(AssertionError, match="'wrong-output'"):
            backend_engine_metrics(n=240, repeats=1)

    @needs_vectorized
    def test_e5_leg_returns_the_fields_of_its_bench_keys(self):
        """The `--full` leg, at a size tier-1 can afford: the four
        `e5_1e6_*` bench keys read these fields."""
        from repro.analysis.perf import e5_vectorized_metrics

        e5 = e5_vectorized_metrics(n=400)
        assert e5["n"] == 400 and e5["rounds"] > 0
        for field in (
            "vectorized_rounds_nodes_per_sec",
            "speedup_vs_fast",
            "traced_vectorized_rounds_nodes_per_sec",
            "traced_speedup_vs_fast",
        ):
            assert e5[field] > 0, field

    def test_sweep_journal_fingerprint_accepts_every_backend(
        self, tmp_path
    ):
        """The journal fingerprint must round-trip every registered
        backend name: same backend resumes cleanly, a different one is
        refused."""
        from repro.analysis.experiments import run_sweep

        def measure(x, seed):
            graph = cycle_graph(int(x))
            result = run_local(
                graph, LinialColoring(), Model.DET,
                ids=list(range(int(x))),
            )
            return result.rounds + seed

        for name in available_backend_names():
            journal = str(tmp_path / f"sweep-{name}.jsonl")
            with use_backend(name):
                run_sweep(
                    "s", [6.0], measure, seeds=(0,), journal=journal
                )
                run_sweep(  # same backend: clean resume
                    "s", [6.0], measure, seeds=(0,), journal=journal
                )
            other = next(
                n for n in available_backend_names() if n != name
            )
            with use_backend(other), pytest.raises(
                ValueError, match="fingerprint"
            ):
                run_sweep(
                    "s", [6.0], measure, seeds=(0,), journal=journal
                )

    def test_every_backend_supports_checkpoint_capture(self):
        """The checkpoint/supervise stack requires capture/restore
        from every registered backend (PR 9's capability contract)."""
        for name in backend_names():
            backend = get_backend(name)
            assert backend.capture_state is not None, name
            assert backend.restore_state is not None, name
