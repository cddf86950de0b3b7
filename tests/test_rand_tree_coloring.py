"""Tests for the paper's Theorem 10 algorithm (ColorBidding +
Filtering + shattering)."""

import pytest

from repro.algorithms.rand_tree_coloring import (
    BAD,
    ColorBiddingAlgorithm,
    ColorBiddingConfig,
    ShatteringStats,
    pettie_su_tree_coloring,
    reserved_colors,
)
from repro.core import Model, run_local
from repro.graphs.generators import (
    complete_tree_with_max_degree,
    random_tree_bounded_degree,
)
from repro.lcl import KColoring


class TestConfig:
    def test_escalation_schedule_shape(self):
        config = ColorBiddingConfig()
        schedule = config.escalation_schedule(1000)
        assert schedule[0] == 1.0
        assert all(b >= a for a, b in zip(schedule, schedule[1:]))
        assert schedule[-1] == pytest.approx(1000 ** 0.1)

    def test_schedule_length_loglike(self):
        config = ColorBiddingConfig()
        short = len(config.escalation_schedule(16))
        long = len(config.escalation_schedule(10 ** 9))
        assert long <= short + 40  # log*-ish, certainly not polynomial

    def test_paper_constants_would_stall(self):
        """With the paper's literal constants the escalation is so slow
        the schedule would be astronomically long — documenting why we
        default to practical equivalents."""
        import math

        paper = ColorBiddingConfig(
            palette_guard=200.0,
            growth_denominator=3 * 200 * math.exp(200),
        )
        # One step barely moves: c_2 = exp(1/g) ~ 1 + 1e-89.
        c2 = 1.0 * math.exp(1.0 / paper.growth_denominator)
        assert c2 - 1.0 < 1e-80

    def test_reserved_colors(self):
        assert reserved_colors(9) == 3
        assert reserved_colors(16) == 4
        assert reserved_colors(17) == 5
        assert reserved_colors(55) == 8


class TestPhase1:
    def test_partial_coloring_proper(self, rng):
        g = random_tree_bounded_degree(400, 12, rng)
        r = reserved_colors(12)
        result = run_local(
            g,
            ColorBiddingAlgorithm(),
            Model.RAND,
            seed=3,
            global_params={
                "config": ColorBiddingConfig(),
                "main_palette": 12 - r,
            },
        )
        outputs = result.outputs
        # Colored vertices must be properly colored within the main
        # palette; BAD vertices are unconstrained.
        for v in g.vertices():
            if outputs[v] == BAD:
                continue
            assert 0 <= outputs[v] < 12 - r
            for u in g.neighbors(v):
                assert outputs[u] == BAD or outputs[u] != outputs[v]

    def test_most_vertices_colored(self, rng):
        g = random_tree_bounded_degree(1000, 16, rng)
        result = run_local(
            g,
            ColorBiddingAlgorithm(),
            Model.RAND,
            seed=5,
            global_params={
                "config": ColorBiddingConfig(),
                "main_palette": 16 - reserved_colors(16),
            },
        )
        bad = sum(1 for out in result.outputs if out == BAD)
        assert bad < 0.2 * 1000


class TestFullAlgorithm:
    @pytest.mark.parametrize("delta", [9, 12, 16, 25])
    def test_valid_delta_coloring(self, delta, rng):
        g = random_tree_bounded_degree(600, delta, rng)
        report = pettie_su_tree_coloring(g, seed=7)
        assert KColoring(g.max_degree).is_solution(g, report.labeling)

    def test_complete_tree(self):
        g = complete_tree_with_max_degree(10, 1000)
        report = pettie_su_tree_coloring(g, seed=2)
        assert KColoring(10).is_solution(g, report.labeling)

    def test_small_delta_rejected(self, rng):
        g = random_tree_bounded_degree(50, 4, rng)
        with pytest.raises(ValueError):
            pettie_su_tree_coloring(g, seed=1)

    def test_stats_attached(self, rng):
        g = random_tree_bounded_degree(800, 16, rng)
        report = pettie_su_tree_coloring(g, seed=9)
        stats = report.log.stats
        assert isinstance(stats, ShatteringStats)
        assert stats.bad_vertices >= 0
        if stats.bad_vertices:
            assert stats.max_component >= 1
            assert sum(stats.component_sizes) == stats.bad_vertices

    def test_components_within_paper_bound(self, rng):
        g = random_tree_bounded_degree(2000, 16, rng)
        report = pettie_su_tree_coloring(g, seed=11)
        stats = report.log.stats
        bound = ShatteringStats.paper_bound(2000, 16)
        assert stats.max_component <= bound

    def test_rounds_nearly_size_free(self, rng):
        small = random_tree_bounded_degree(500, 16, rng)
        large = random_tree_bounded_degree(8000, 16, rng)
        r_small = pettie_su_tree_coloring(small, seed=3).rounds
        r_large = pettie_su_tree_coloring(large, seed=3).rounds
        # log log n growth: 16x size increase buys only a few rounds.
        assert r_large <= r_small + 25

    def test_seed_reproducibility(self, rng):
        g = random_tree_bounded_degree(500, 16, rng)
        a = pettie_su_tree_coloring(g, seed=13)
        b = pettie_su_tree_coloring(g, seed=13)
        assert a.labeling == b.labeling
        assert a.rounds == b.rounds
