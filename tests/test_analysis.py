"""Tests for the analysis utilities: math helpers, fitting, sweeps,
tables."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ExperimentRecord,
    Series,
    best_shape,
    ceil_log2,
    classify_growth,
    growth_exponent_ratio,
    log_base,
    log_delta,
    log_log,
    log_star,
    render_kv,
    render_table,
    run_sweep,
    separation_factor,
)
from repro.core import AlgorithmFailure


class TestMathHelpers:
    def test_log_star_values(self):
        assert log_star(1) == 0
        assert log_star(2) == 1
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4
        assert log_star(2 ** 65536 if False else 10 ** 80) == 5

    def test_log_base_clamps(self):
        assert log_base(8, 2) == pytest.approx(3)
        assert log_base(8, 1) == pytest.approx(3)  # clamped to 2
        assert log_base(0.5, 2) == 0.0

    def test_log_delta(self):
        assert log_delta(81, 3) == pytest.approx(4)

    def test_log_log(self):
        assert log_log(2) == 0.0
        assert log_log(2 ** 16) == pytest.approx(4)

    def test_ceil_log2(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(1000) == 10


class TestFitting:
    def _series(self, fn, xs=(2 ** 6, 2 ** 8, 2 ** 10, 2 ** 13, 2 ** 16)):
        return list(xs), [fn(x) for x in xs]

    def test_identifies_log(self):
        xs, ys = self._series(lambda n: 3 * math.log2(n) + 5)
        assert best_shape(xs, ys) == "log"

    def test_identifies_loglog(self):
        xs, ys = self._series(lambda n: 4 * math.log2(math.log2(n)) + 2)
        assert best_shape(xs, ys) == "loglog"

    def test_identifies_constant(self):
        xs, ys = self._series(lambda n: 7.0)
        fits = classify_growth(xs, ys)
        assert fits[0].rmse == pytest.approx(0.0, abs=1e-9)

    def test_identifies_linear(self):
        xs, ys = self._series(lambda n: 0.5 * n)
        assert best_shape(xs, ys) == "linear"

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            classify_growth([1, 2], [1, 2])

    def test_growth_exponent_ratio(self):
        xs, ys = self._series(lambda n: 2 * math.log2(n))
        assert growth_exponent_ratio(xs, ys) == pytest.approx(2.0)

    def test_separation_factor(self):
        slow = [10, 20, 40]  # 4x growth
        fast = [10, 11, 12]  # 1.2x growth
        assert separation_factor(slow, fast) > 3

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.5, 10.0), st.floats(0.0, 50.0))
    def test_log_fit_recovers_parameters(self, a, b):
        xs = [2 ** 6, 2 ** 9, 2 ** 12, 2 ** 15]
        ys = [a * math.log2(x) + b for x in xs]
        fits = classify_growth(xs, ys, shapes=("log",))
        assert fits[0].scale == pytest.approx(a, rel=1e-6)
        assert fits[0].offset == pytest.approx(b, abs=1e-6)


class TestSweep:
    def test_run_sweep_aggregates(self):
        series = run_sweep(
            "demo", [1, 2, 3], lambda x, seed: x * 10 + seed, seeds=(0, 1)
        )
        assert series.xs == [1, 2, 3]
        assert series.points[0].values == [10.0, 11.0]
        assert series.points[0].mean == 10.5
        assert series.points[2].minimum == 30.0

    def test_genuine_bugs_propagate(self):
        """A genuine bug (TypeError, ModelViolationError, ...) surfaces
        as itself, never retried as a declared failure."""
        calls = []

        def measure(x, seed):
            calls.append(seed)
            raise TypeError("genuine bug")

        with pytest.raises(TypeError):
            run_sweep("buggy", [1], measure, seeds=(0,), retries=2)
        assert calls == [0]

    def test_declared_failure_raises_without_skip(self):
        def measure(x, seed):
            raise AlgorithmFailure("declared failure")

        with pytest.raises(AlgorithmFailure):
            run_sweep("dead", [1], measure, seeds=(0,))

    def test_all_failures_raise(self):
        def measure(x, seed):
            raise AlgorithmFailure("boom")

        for workers in (None, 2):
            with pytest.raises(AlgorithmFailure, match="boom"):
                run_sweep(
                    "dead", [1, 2], measure, seeds=(0, 1), workers=workers
                )

    def test_workers_bit_identical_to_serial(self):
        """The determinism contract: a 4-worker sweep returns the same
        Series (xs, per-point value lists, order) as the serial run."""

        def measure(x, seed):
            rng = random.Random(int(x) * 1000003 + seed)
            return x * 1000 + seed + rng.random()

        serial = run_sweep("s", [1, 2, 3], measure, seeds=(0, 1, 2))
        parallel = run_sweep(
            "s", [1, 2, 3], measure, seeds=(0, 1, 2), workers=4
        )
        assert serial.xs == parallel.xs
        for a, b in zip(serial.points, parallel.points):
            assert a.values == b.values

    def test_workers_raise_declared_failures(self):
        """One declared failure aborts the sweep, serial or pooled,
        with the failure's own message."""

        def measure(x, seed):
            if seed == 1:
                raise AlgorithmFailure("declared failure")
            return x + seed

        for workers in (None, 3):
            with pytest.raises(AlgorithmFailure, match="declared failure"):
                run_sweep(
                    "f", [7, 8], measure, seeds=(0, 1, 2), workers=workers
                )

    def test_workers_propagate_genuine_bugs(self):
        def measure(x, seed):
            raise ValueError("genuine bug in a worker")

        with pytest.raises(ValueError):
            run_sweep("b", [1, 2], measure, seeds=(0, 1), workers=2)

    def test_series_empty_sample_rejected(self):
        series = Series("s")
        with pytest.raises(ValueError):
            series.add(1, [])


class TestRendering:
    def test_render_table_aligned(self):
        text = render_table(["a", "bb"], [[1, 2.5], [30, "x"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_render_kv(self):
        text = render_kv("title", [["k", 1]])
        assert text.startswith("title")

    def test_experiment_record_render(self):
        record = ExperimentRecord("E0", "demo experiment")
        series = Series("s")
        series.add(10, [1.0, 2.0])
        record.add_series(series)
        record.check("verified", True)
        record.note("hello")
        text = record.render()
        assert "E0" in text
        assert "PASS" in text
        assert "hello" in text
        assert record.all_checks_pass

    def test_experiment_record_fail(self):
        record = ExperimentRecord("E0", "demo")
        record.check("broken", False)
        assert not record.all_checks_pass
        assert "FAIL" in record.render()
