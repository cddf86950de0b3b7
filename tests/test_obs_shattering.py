"""Shattering profiler: halt-fraction curve, surviving components, and
the Theorem 3 acceptance run.

The tier-1 acceptance test traces the Theorem 10 randomized Δ-coloring
driver on a random bounded-degree tree with n = 10^4 and asserts the
paper's predicted shape: Phase 1 resolves >= 90% of vertices and the
surviving components stay under the Δ⁴ ln n bound.
"""

import random

import pytest

from repro.algorithms import pettie_su_tree_coloring
from repro.algorithms.rand_tree_coloring import BAD
from repro.cli import main
from repro.core import observe_runs
from repro.graphs.generators import random_tree_bounded_degree
from repro.obs import (
    JsonlTraceObserver,
    profile_events,
    profile_trace,
    render_profile_report,
)


def _golden():
    with open("tests/fixtures/profile_golden.txt", encoding="utf-8") as fh:
        return fh.read()


def _synthetic_events():
    """A hand-built trace: path 0-1-2-3, halts spread over rounds.

    Round 0: vertex 0 halts (resolved). Round 1: vertex 1 halts with
    the sentinel -1 (survivor), vertex 3 halts resolved.  Vertex 2
    never halts.
    """
    return [
        {
            "event": "run_start",
            "run": 0,
            "algorithm": "synthetic",
            "model": "RAND",
            "n": 4,
            "m": 3,
            "max_degree": 2,
            "max_rounds": 100,
            "seed": 0,
            "edges": [[0, 1], [1, 2], [2, 3]],
        },
        {"event": "round_start", "run": 0, "round": 0, "active": 4},
        {"event": "halt", "run": 0, "round": 0, "v": 0, "value": 5},
        {
            "event": "round_end",
            "run": 0,
            "round": 0,
            "awake": 4,
            "halted": 1,
            "messages": 6,
        },
        {"event": "round_start", "run": 0, "round": 1, "active": 3},
        {"event": "halt", "run": 0, "round": 1, "v": 1, "value": -1},
        {"event": "halt", "run": 0, "round": 1, "v": 3, "value": 7},
        {
            "event": "round_end",
            "run": 0,
            "round": 1,
            "awake": 3,
            "halted": 2,
            "messages": 6,
        },
        {"event": "run_end", "run": 0, "rounds": 2, "messages": 12},
    ]


class TestProfileEvents:
    def test_curve_without_sentinel(self):
        profile = profile_events(_synthetic_events(), threshold=0.7)
        assert [s.resolved for s in profile.curve] == [1, 3]
        assert profile.curve[0].halt_fraction == 0.25
        assert profile.curve[0].survivors == 3
        # Survivors 1-2-3 form one path component of size 3.
        assert profile.curve[0].num_components == 1
        assert profile.curve[0].max_component == 3
        # After round 1 only vertex 2 survives.
        assert profile.curve[1].max_component == 1
        assert profile.final_fraction == 0.75
        assert profile.shattering_round == 1
        assert profile.rounds == 2

    def test_sentinel_counts_as_survivor(self):
        profile = profile_events(
            _synthetic_events(), threshold=0.7, unresolved=-1
        )
        # Vertex 1 halted with -1: still a survivor.
        assert [s.resolved for s in profile.curve] == [1, 2]
        assert profile.final_fraction == 0.5
        assert profile.shattering_round is None
        # Survivors 1 and 2 stay one connected component of size 2.
        assert profile.curve[1].num_components == 1
        assert profile.curve[1].max_component == 2
        assert not profile.ok()

    def test_components_rescanned_only_when_resolved_set_changes(
        self, monkeypatch
    ):
        import repro.obs.shattering as shattering

        events = _synthetic_events()
        # Round 2 resolves nobody, so its row must repeat round 1's.
        events[-1:-1] = [
            {"event": "round_start", "run": 0, "round": 2, "active": 1},
            {
                "event": "round_end",
                "run": 0,
                "round": 2,
                "awake": 1,
                "halted": 0,
                "messages": 0,
            },
        ]
        scans = []
        components = shattering._components

        def counting(survivors, adjacency):
            scans.append(sum(survivors))
            return components(survivors, adjacency)

        monkeypatch.setattr(shattering, "_components", counting)
        profile = profile_events(events, threshold=0.7)
        assert scans == [3, 1]
        assert [
            (s.round, s.survivors, s.num_components, s.max_component)
            for s in profile.curve
        ] == [(0, 3, 1, 3), (1, 1, 1, 1), (2, 1, 1, 1)]

    def test_paper_bound_formula(self):
        import math

        profile = profile_events(_synthetic_events())
        assert profile.paper_bound == pytest.approx(
            2 ** 4 * math.log(4)
        )

    def test_missing_run_raises(self):
        with pytest.raises(ValueError, match="no run_start"):
            profile_events(_synthetic_events(), run=3)

    def test_missing_topology_raises(self):
        events = _synthetic_events()
        del events[0]["edges"]
        with pytest.raises(ValueError, match="without topology"):
            profile_events(events)

    def test_report_mentions_verdicts(self):
        report = render_profile_report(
            profile_events(_synthetic_events(), threshold=0.7)
        )
        assert "[ok] halt_fraction" in report
        assert "component bound" in report
        assert "Theorem 3" in report


class TestAcceptanceRun:
    """Theorem 3 measured on the real driver at n = 10^4 (tier 1)."""

    def test_phase1_shatters_at_ten_thousand(self, tmp_path):
        n, delta, seed = 10_000, 9, 1
        tree = random_tree_bounded_degree(
            n, delta, random.Random(seed)
        )
        path = str(tmp_path / "phase1.jsonl")
        obs = JsonlTraceObserver(path)
        try:
            with observe_runs(obs):
                report = pettie_su_tree_coloring(tree, seed=seed)
        finally:
            obs.close()
        assert len(report.labeling) == n

        # Run 0 of the driver is Phase 1 (color bidding).
        profile = profile_trace(path, run=0, unresolved=BAD)
        assert profile.n == n
        assert profile.final_fraction >= 0.9
        assert profile.shattering_round is not None
        assert profile.max_surviving_component <= profile.paper_bound
        assert profile.ok()

        # Surviving components stay poly(log n): the paper bound is
        # Δ⁴ ln n ≈ 6.0e4, the observed components are far smaller.
        assert profile.max_surviving_component < n // 10


class TestProfileCli:
    def test_trace_then_profile_roundtrip(self, tmp_path, capsys):
        """``repro run --trace`` records the driver-mode trace: its
        profile reproduces the golden report."""
        path = str(tmp_path / "t.jsonl")
        assert (
            main(
                [
                    "run",
                    "--workload",
                    "coloring",
                    "--n",
                    "300",
                    "--delta",
                    "9",
                    "--seed",
                    "1",
                    "--trace",
                    path,
                ]
            )
            == 0
        )
        report = tmp_path / "report.txt"
        capsys.readouterr()
        assert (
            main(
                [
                    "profile",
                    "--trace",
                    path,
                    "--unresolved",
                    "-1",
                    "--output",
                    str(report),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert report.read_text(encoding="utf-8") == _golden()

    def test_profile_missing_trace_is_usage_error(self, capsys):
        assert main(["profile", "--trace", "/no/such/file.jsonl"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_profile_driver_rejects_small_delta(self, capsys):
        assert main(["profile", "--n", "100", "--delta", "5"]) == 2
        assert "delta >= 9" in capsys.readouterr().err

    def test_profile_missing_run_is_usage_error(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        assert (
            main(
                [
                    "run",
                    "--workload",
                    "mis",
                    "--n",
                    "60",
                    "--delta",
                    "3",
                    "--trace",
                    path,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["profile", "--trace", path, "--run", "9"]) == 2
        assert "no run_start event for run 9" in capsys.readouterr().err

    def test_failing_profile_exits_one(self, tmp_path, capsys):
        import json

        # Hand-built trace where only 1 of 4 vertices resolves.
        events = _synthetic_events()
        path = tmp_path / "weak.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in events)
        )
        assert (
            main(
                [
                    "profile",
                    "--trace",
                    str(path),
                    "--unresolved",
                    "-1",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "[FAIL] halt_fraction" in out

    def test_profile_golden_report(self, tmp_path, capsys):
        """The report for a fixed seed is pinned byte-for-byte; a
        diff means either the driver or the profiler changed."""
        report_path = str(tmp_path / "report.txt")
        assert (
            main(
                [
                    "profile",
                    "--n",
                    "300",
                    "--seed",
                    "1",
                    "--output",
                    report_path,
                ]
            )
            == 0
        )
        capsys.readouterr()
        with open(report_path, encoding="utf-8") as fh:
            assert fh.read() == _golden()

    def test_resume_needs_checkpoint_dir(self, capsys):
        assert main(["profile", "--n", "300", "--resume"]) == 2
        assert "--resume needs --checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_dir_needs_keep_trace(self, tmp_path, capsys):
        argv = ["profile", "--n", "300", "--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "needs --keep-trace" in capsys.readouterr().err

    def _checkpointed(self, tmp_path, *extra):
        return [
            "profile",
            "--n",
            "300",
            "--seed",
            "1",
            "--checkpoint-dir",
            str(tmp_path / "ck"),
            "--keep-trace",
            str(tmp_path / "t.jsonl"),
            *extra,
        ]

    def test_resume_appends_to_timing_sidecar(self, tmp_path, capsys):
        sidecar = tmp_path / "side.jsonl"
        argv = self._checkpointed(
            tmp_path, "--timing-sidecar", str(sidecar)
        )
        assert main(argv) == 0
        first = sidecar.read_text(encoding="utf-8")
        assert first
        assert main(argv + ["--resume"]) == 0
        capsys.readouterr()
        assert sidecar.read_text(encoding="utf-8").startswith(first)

    def test_resumed_profile_reproduces_golden(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        argv = self._checkpointed(tmp_path, "--output", str(report))
        assert main(argv) == 0
        report.unlink()
        assert main(argv + ["--resume"]) == 0
        capsys.readouterr()
        assert report.read_text(encoding="utf-8") == _golden()
