"""Failure-injection tests: the library must *detect and report*
broken configurations and unlucky randomness, never silently emit
invalid output."""

import pytest

from repro.algorithms import ColorBiddingAlgorithm, ColorBiddingConfig
from repro.algorithms.delta55 import _random_ids
from repro.algorithms.rand_tree_coloring import (
    BAD,
    pettie_su_tree_coloring,
    reserved_colors,
)
from repro.core import (
    DuplicateIDError,
    Model,
    SimulationError,
    SyncAlgorithm,
    run_local,
)
from repro.core.errors import VerificationError
from repro.graphs import Graph, GraphError
from repro.graphs.generators import (
    cycle_graph,
    path_graph,
    random_tree_bounded_degree,
)
from repro.lcl import KColoring
from repro.transforms import find_good_seed_function
from repro.lcl import MaximalIndependentSet


class AlwaysFailing(SyncAlgorithm):
    def setup(self, ctx):
        ctx.publish(None)

    def step(self, ctx, inbox):
        ctx.fail("injected")


class NeverTerminating(SyncAlgorithm):
    def setup(self, ctx):
        ctx.publish(0)

    def step(self, ctx, inbox):
        ctx.publish(ctx.now)


class TestEngineGuards:
    def test_failure_reported_not_raised(self, ring):
        result = run_local(ring, AlwaysFailing(), Model.RAND, seed=0)
        assert not result.ok
        assert all(r == "injected" for r in result.failures.values())
        assert all(out is None for out in result.outputs)

    def test_nontermination_detected(self, ring):
        with pytest.raises(SimulationError):
            run_local(ring, NeverTerminating(), Model.DET, max_rounds=25)

    def test_duplicate_ids_blocked(self, ring):
        with pytest.raises(DuplicateIDError):
            run_local(ring, AlwaysFailing(), Model.DET, ids=[1] * 48)


class TestVerifierHonesty:
    def test_checker_rejects_corrupted_output(self, rng):
        from repro.graphs.generators import random_tree_preferential

        g = random_tree_preferential(300, 12, rng, seed_hub=True)
        report = pettie_su_tree_coloring(g, seed=1)
        corrupted = list(report.labeling)
        # Copy a neighbor's color onto a vertex.
        victim = next(
            v for v in g.vertices() if g.degree(v) >= 1
        )
        corrupted[victim] = corrupted[g.neighbors(victim)[0]]
        with pytest.raises(VerificationError):
            KColoring(g.max_degree).check(g, corrupted)


class TestRandomizedFailurePaths:
    def test_phase1_with_hostile_config_marks_bad_not_wrong(self, rng):
        """A palette guard so strict that many vertices go bad must
        never produce an improper partial coloring."""
        g = random_tree_bounded_degree(300, 12, rng)
        config = ColorBiddingConfig(palette_guard=1.05)
        result = run_local(
            g,
            ColorBiddingAlgorithm(),
            Model.RAND,
            seed=4,
            global_params={
                "config": config,
                "main_palette": 12 - reserved_colors(12),
            },
        )
        outputs = result.outputs
        assert any(out == BAD for out in outputs)  # hostile config bites
        for v in g.vertices():
            if outputs[v] == BAD:
                continue
            for u in g.neighbors(v):
                assert outputs[u] == BAD or outputs[u] != outputs[v]

    def test_random_id_collision_detected(self):
        g = path_graph(40)

        class TinyIdSpace:
            """Masquerades as a graph with a huge vertex count so the
            helper draws too-few bits?  Simpler: call the helper with a
            seed known to collide by monkeypatching bits."""

        # Directly exercise the collision check: 40 IDs from 2 bits
        # must collide.
        import random as _random

        master = _random.Random(0)
        ids = [master.getrandbits(2) for _ in range(40)]
        assert len(set(ids)) < 40
        from repro.core.ids import check_unique_ids

        with pytest.raises(DuplicateIDError):
            check_unique_ids(ids)
        del TinyIdSpace, g

    def test_derandomization_gives_up_gracefully(self):
        """An algorithm with huge failure probability cannot pass the
        union bound; the search must raise, not loop forever."""

        class CoinFlipMIS(SyncAlgorithm):
            name = "coin-flip"

            def setup(self, ctx):
                # Nonsense labeling: in the MIS iff a fair coin lands
                # heads.  Fails on most graphs for most seeds.
                ctx.halt(1 if ctx.random.random() < 0.5 else 0)

            def step(self, ctx, inbox):
                pass

        with pytest.raises(LookupError):
            find_good_seed_function(
                lambda: CoinFlipMIS(),
                MaximalIndependentSet(),
                4,
                3,
                max_candidates=8,
            )


class TestPhase3FailurePath:
    def test_greedy_recolor_reports_palette_exhaustion(self):
        """If the Phase-3 invariant were false, the vertex must declare
        failure — never emit an improper color."""
        from repro.algorithms.delta55 import GreedyRecolorByClass
        from repro.graphs.generators import star_graph

        g = star_graph(3)
        # Palette of size 1; the center (class 0, uncolored) faces a
        # neighbor already holding the only color.
        inputs = [
            {"color": None, "klass": 0},
            {"color": 0, "klass": None},
            {"color": None, "klass": None},
            {"color": None, "klass": None},
        ]
        result = run_local(
            g,
            GreedyRecolorByClass(),
            Model.RAND,
            seed=0,
            node_inputs=inputs,
            global_params={"palette": 1},
        )
        assert 0 in result.failures
        assert "invariant" in result.failures[0]


class TestStructuralGuards:
    def test_sinkless_on_tree_rejected(self):
        from repro.algorithms import canonical_sinkless_orientation

        with pytest.raises(GraphError):
            canonical_sinkless_orientation(4, [(0, 1), (1, 2), (2, 3)])

    def test_theorem10_needs_big_delta(self):
        g = cycle_graph(30)
        with pytest.raises(ValueError):
            pettie_su_tree_coloring(g, seed=0)

    def test_random_ids_helper_unique(self):
        g = path_graph(500)
        ids = _random_ids(g, 7)
        assert len(set(ids)) == 500

    def test_graph_rejects_corrupt_edges(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (0, 1)])
