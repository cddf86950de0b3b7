"""Resilient sweep harness tests: retries, worker death, and the
checkpoint journal's byte-identical resume contract.

The pooled tests fork real worker processes and exercise the genuine
pathologies the scheduler absorbs — ``os._exit`` mid-cell, exceptions
that cannot cross the pipe — so they are kept deliberately small (a
handful of cells each).
"""

import json
import os
import pickle

import pytest

from repro.analysis import (
    CellOutcome,
    ExperimentRecord,
    SweepJournal,
    retry_seed,
    run_sweep,
)
from repro.analysis.resilience import (
    CELL_STATUSES,
    JOURNAL_SCHEMA,
    JOURNAL_VERSION,
)
from repro.core.errors import AlgorithmFailure, TelemetryError


def well_behaved(x, seed):
    return x * 100 + seed


class TestRetrySeed:
    def test_attempt_zero_is_the_identity(self):
        for seed in (0, 1, 7, 2**40):
            assert retry_seed(seed, 0) == seed

    def test_attempts_get_independent_seeds(self):
        seeds = {retry_seed(3, attempt) for attempt in range(6)}
        assert len(seeds) == 6

    def test_seeds_are_json_safe_63_bit(self):
        for seed in (0, 5, 2**62):
            for attempt in (1, 2, 9):
                derived = retry_seed(seed, attempt)
                assert 0 <= derived < 2**63

    def test_deterministic(self):
        assert retry_seed(42, 3) == retry_seed(42, 3)


class TestCellOutcome:
    def test_statuses_enumerated(self):
        assert CELL_STATUSES == ("ok", "crashed")

    def test_dict_round_trip(self):
        outcome = CellOutcome(2.0, 1, "crashed", None, 3, 17, "boom")
        rebuilt = CellOutcome.from_dict(
            json.loads(json.dumps(outcome.as_dict()))
        )
        assert rebuilt == outcome
        assert not rebuilt.ok

    def test_round_trip_is_pickle_byte_identical(self):
        # The resume contract: a journal-replayed outcome must be
        # indistinguishable from the freshly computed one it replaces,
        # down to pickle bytes (interned status strings).
        fresh = [CellOutcome(1.0, s, "ok", 1.5, 1, s) for s in range(3)]
        replayed = [
            CellOutcome.from_dict(json.loads(json.dumps(o.as_dict())))
            for o in fresh
        ]
        assert pickle.dumps(fresh) == pickle.dumps(replayed)


class TestRunSweepValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            run_sweep("s", [1.0], well_behaved, retries=-1)


def fails_on_first_attempt(x, seed):
    # retry_seed(seed, 0) == seed, so the first attempt of every cell
    # declares failure; any retried attempt (seed >= 2**32) succeeds.
    if seed < 2**32:
        raise AlgorithmFailure(f"unlucky seed {seed}")
    return x


def always_fails(x, seed):
    raise AlgorithmFailure("doomed")


class TestSerialRetries:
    """Retry policy, and how a cell left unmeasured is reported.  Only
    a dead pooled worker leaves a cell unmeasured, so those cases fork
    (workers=2)."""

    def test_retry_reruns_with_derived_seed(self):
        series = run_sweep(
            "retry", [1.0, 2.0], fails_on_first_attempt,
            seeds=(0, 1), retries=1,
        )
        assert series.means == [1.0, 2.0]
        assert series.skipped == []
        for outcome in series.cell_outcomes:
            assert outcome.attempts == 2
            assert outcome.effective_seed == retry_seed(outcome.seed, 1)

    def test_exhausted_retries_raise_without_skip_failures(self):
        with pytest.raises(AlgorithmFailure, match="doomed"):
            run_sweep("r", [1.0], always_fails, seeds=(0,), retries=2)

    def test_every_cell_skipped_is_an_error(self):
        with pytest.raises(ValueError, match="every cell at x=1.0"):
            run_sweep(
                "dead", [1.0], crash_always, seeds=(0, 1), workers=2,
            )

    def test_skipped_cells_render_as_warnings(self):
        series = run_sweep(
            "crashpool", [1.0], crash_on_seed_two,
            seeds=(0, 1, 2), workers=2,
        )
        record = ExperimentRecord("T0", "skip rendering")
        record.add_series(series)
        rendered = record.render()
        assert "warning: 1 cell(s) excluded" in rendered
        assert "[crashed]" in rendered


def crash_on_seed_two(x, seed):
    if seed == 2:
        os._exit(42)  # simulate an OOM-kill / hard interpreter abort
    return x + seed


def crash_always(x, seed):
    os._exit(42)


def raise_keyboard_interrupt(x, seed):
    raise KeyboardInterrupt


class Unpicklable(Exception):
    def __init__(self):
        super().__init__("cannot cross the pipe")
        self.payload = lambda: None


def raise_unpicklable(x, seed):
    raise Unpicklable()


def raise_zero_division(x, seed):
    return x / 0


class TestPooledPathologies:
    def test_pooled_matches_serial(self):
        serial = run_sweep("p", [1.0, 2.0, 3.0], well_behaved, seeds=(0, 1))
        pooled = run_sweep(
            "p", [1.0, 2.0, 3.0], well_behaved, seeds=(0, 1), workers=3
        )
        assert pickle.dumps(serial) == pickle.dumps(pooled)

    def test_dead_worker_fails_its_cell_not_the_sweep(self):
        series = run_sweep(
            "crashpool", [1.0], crash_on_seed_two,
            seeds=(0, 1, 2), workers=2,
        )
        assert series.points[0].values == [1.0, 2.0]
        assert [o.status for o in series.skipped] == ["crashed"]
        assert "died without reporting" in series.skipped[0].error


    def test_worker_base_exception_aborts_the_sweep(self):
        with pytest.raises(RuntimeError, match="process boundary"):
            run_sweep(
                "kbd", [1.0], raise_keyboard_interrupt,
                seeds=(0, 1), workers=2,
            )

    def test_unpicklable_worker_exception_still_reports(self):
        with pytest.raises(RuntimeError, match="process boundary"):
            run_sweep(
                "unpicklable", [1.0], raise_unpicklable,
                seeds=(0, 1), workers=2,
            )

    def test_picklable_bugs_propagate_as_themselves(self):
        with pytest.raises(ZeroDivisionError):
            run_sweep(
                "bug", [1.0], raise_zero_division,
                seeds=(0, 1), workers=2,
            )

    def test_pooled_retries_match_serial(self):
        serial = run_sweep(
            "retrypool", [1.0, 2.0], fails_on_first_attempt,
            seeds=(0, 1), retries=1,
        )
        pooled = run_sweep(
            "retrypool", [1.0, 2.0], fails_on_first_attempt,
            seeds=(0, 1), retries=1, workers=2,
        )
        assert pickle.dumps(serial) == pickle.dumps(pooled)


def abort_late(x, seed):
    # Deterministically dies on the last grid cell: everything before
    # it lands in the journal, simulating an interrupted sweep.
    if (x, seed) == (3.0, 1):
        raise RuntimeError("simulated power loss")
    return x * 100 + seed


class TestJournal:
    XS = [1.0, 2.0, 3.0]
    SEEDS = (0, 1)

    def test_header_is_canonical(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with SweepJournal(path, {"b": 2, "a": 1}) as journal:
            journal.record(0, CellOutcome(1.0, 0, "ok", 1.0, 1, 0), None)
        header = json.loads(open(path).read().splitlines()[0])
        assert header["schema"] == JOURNAL_SCHEMA
        assert header["version"] == JOURNAL_VERSION
        assert header["fingerprint"] == {"a": 1, "b": 2}

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        with pytest.raises(RuntimeError, match="power loss"):
            run_sweep(
                "resume", self.XS, abort_late,
                seeds=self.SEEDS, journal=journal,
            )
        completed_lines = len(open(journal).read().splitlines())
        assert completed_lines == 1 + 5  # header + all cells before the abort
        resumed = run_sweep(
            "resume", self.XS, well_behaved,
            seeds=self.SEEDS, journal=journal,
        )
        uninterrupted = run_sweep(
            "resume", self.XS, well_behaved, seeds=self.SEEDS
        )
        assert pickle.dumps(resumed) == pickle.dumps(uninterrupted)

    def test_pooled_run_resumes_serially(self, tmp_path):
        journal = str(tmp_path / "pooled.jsonl")
        with pytest.raises(RuntimeError, match="power loss"):
            run_sweep(
                "resume", self.XS, abort_late,
                seeds=self.SEEDS, journal=journal, workers=2,
            )
        resumed = run_sweep(
            "resume", self.XS, well_behaved,
            seeds=self.SEEDS, journal=journal,
        )
        uninterrupted = run_sweep(
            "resume", self.XS, well_behaved, seeds=self.SEEDS
        )
        assert pickle.dumps(resumed) == pickle.dumps(uninterrupted)

    def test_complete_journal_replays_without_measuring(self, tmp_path):
        journal = str(tmp_path / "done.jsonl")
        first = run_sweep(
            "full", self.XS, well_behaved,
            seeds=self.SEEDS, journal=journal,
        )
        replayed = run_sweep(
            "full", self.XS, raise_zero_division,  # must never be called
            seeds=self.SEEDS, journal=journal,
        )
        assert pickle.dumps(first) == pickle.dumps(replayed)

    def test_foreign_fingerprint_is_refused(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        run_sweep(
            "fp", self.XS, well_behaved, seeds=self.SEEDS, journal=journal
        )
        with pytest.raises(ValueError, match="different sweep configuration"):
            run_sweep(
                "fp", [9.0], well_behaved, seeds=self.SEEDS, journal=journal
            )

    def test_torn_trailing_line_reruns_that_cell(self, tmp_path):
        journal = str(tmp_path / "torn.jsonl")
        run_sweep(
            "torn", self.XS, well_behaved, seeds=self.SEEDS, journal=journal
        )
        lines = open(journal).read().splitlines()
        with open(journal, "w") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
            handle.write(lines[-1][: len(lines[-1]) // 2])  # torn write
        resumed = run_sweep(
            "torn", self.XS, well_behaved, seeds=self.SEEDS, journal=journal
        )
        uninterrupted = run_sweep(
            "torn", self.XS, well_behaved, seeds=self.SEEDS
        )
        assert pickle.dumps(resumed) == pickle.dumps(uninterrupted)

    def test_foreign_schema_is_refused(self, tmp_path):
        path = str(tmp_path / "alien.jsonl")
        with open(path, "w") as handle:
            handle.write('{"schema": "other.format", "version": 1}\n')
        with pytest.raises(ValueError, match="is not a"):
            SweepJournal(path, {"name": "x"})

    def test_unreadable_header_is_refused(self, tmp_path):
        path = str(tmp_path / "garbage.jsonl")
        with open(path, "w") as handle:
            handle.write("not json at all\n")
        with pytest.raises(ValueError, match="unreadable header"):
            SweepJournal(path, {"name": "x"})

    def test_non_json_safe_summary_is_refused(self, tmp_path):
        path = str(tmp_path / "sets.jsonl")
        with SweepJournal(path, {"name": "x"}) as journal:
            outcome = CellOutcome(1.0, 0, "ok", 1.0, 1, 0)
            with pytest.raises(TelemetryError, match="cannot be journaled"):
                journal.record(0, outcome, {"bad": {1, 2}})

    def test_lossy_json_round_trip_is_refused(self, tmp_path):
        path = str(tmp_path / "intkeys.jsonl")
        with SweepJournal(path, {"name": "x"}) as journal:
            outcome = CellOutcome(1.0, 0, "ok", 1.0, 1, 0)
            with pytest.raises(TelemetryError, match="round-trip"):
                # int keys become strings in JSON: silently different
                # on resume, so the journal must refuse them.
                journal.record(0, outcome, {1: "x"})


def crash_on_first_attempt(x, seed):
    # retry_seed(seed, 0) == seed, so the worker of attempt 0 of every
    # cell dies; the retried attempt (seed >= 2**32) succeeds.
    if seed < 2**32:
        os._exit(42)
    return x * 10


def run_under_checkpoint(x, seed):
    # A real engine run, so the in-run checkpoint scope has something
    # to snapshot.
    import random

    from repro.algorithms import luby_mis
    from repro.graphs.generators import random_regular_graph

    g = random_regular_graph(40, 3, random.Random(seed))
    return float(luby_mis(g, seed=seed).rounds) + x


class TestCrashRetry:
    """A cell whose worker dies on attempt 0 and succeeds on attempt 1:
    the settled outcome records both attempts, and the journal resumes
    byte-identically."""

    def test_crash_then_success_records_both_attempts(self, tmp_path):
        journal = str(tmp_path / "flaky.jsonl")
        series = run_sweep(
            "flaky", [1.0, 2.0], crash_on_first_attempt,
            seeds=(0,), workers=2, retries=1, journal=journal,
        )
        assert series.skipped == []
        for outcome in series.cell_outcomes:
            assert outcome.status == "ok"
            assert outcome.attempts == 2
            assert outcome.effective_seed == retry_seed(outcome.seed, 1)
        assert [p.values for p in series.points] == [[10.0], [20.0]]
        # Re-running with the same journal replays the settled cells —
        # the measure must never be called again — byte-identically.
        replayed = run_sweep(
            "flaky", [1.0, 2.0], raise_zero_division,
            seeds=(0,), workers=2, retries=1, journal=journal,
        )
        assert pickle.dumps(series) == pickle.dumps(replayed)


class TestSweepCheckpointComposition:
    """checkpoint_dir adds in-run recovery beneath the journal's
    cell-level recovery without changing any aggregate."""

    def test_checkpointed_sweep_matches_plain(self, tmp_path):
        plain = run_sweep(
            "ck", [1.0, 2.0], run_under_checkpoint, seeds=(0, 1)
        )
        checked = run_sweep(
            "ck", [1.0, 2.0], run_under_checkpoint, seeds=(0, 1),
            checkpoint_dir=str(tmp_path / "cells"),
        )
        assert pickle.dumps(plain) == pickle.dumps(checked)
        assert (tmp_path / "cells" / "cell-0000").is_dir()
        assert any(
            name.endswith(".done")
            for name in os.listdir(tmp_path / "cells" / "cell-0000")
        )

    def test_pooled_checkpointed_sweep_matches_plain(self, tmp_path):
        plain = run_sweep(
            "ckp", [1.0, 2.0], run_under_checkpoint, seeds=(0, 1)
        )
        checked = run_sweep(
            "ckp", [1.0, 2.0], run_under_checkpoint, seeds=(0, 1),
            workers=2, checkpoint_dir=str(tmp_path / "cells"),
        )
        assert pickle.dumps(plain) == pickle.dumps(checked)

    def test_checkpoint_config_is_part_of_the_fingerprint(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        run_sweep(
            "fpck", [1.0], well_behaved, seeds=(0,), journal=journal,
            checkpoint_dir=str(tmp_path / "cells"),
        )
        with pytest.raises(
            ValueError, match="different sweep configuration"
        ):
            run_sweep(
                "fpck", [1.0], well_behaved, seeds=(0,), journal=journal
            )
