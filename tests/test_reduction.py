"""Tests for the color-reduction subroutines."""

import pytest

from repro.algorithms.linial import LinialColoring
from repro.algorithms.reduction import (
    ClassByClassReduction,
    KuhnWattenhoferReduction,
    _kw_stage_plan,
)
from repro.core import Model, run_local
from repro.graphs.generators import (
    cycle_graph,
    random_regular_graph,
    random_tree_bounded_degree,
    star_graph,
)
from repro.lcl import KColoring


def _initial_coloring(graph):
    result = run_local(graph, LinialColoring(), Model.DET)
    colors = result.outputs
    return colors, max(colors) + 1


@pytest.mark.parametrize(
    "algorithm_cls", [ClassByClassReduction, KuhnWattenhoferReduction]
)
class TestReductions:
    def test_reduces_to_delta_plus_one(self, algorithm_cls, rng):
        g = random_regular_graph(150, 5, rng)
        colors, palette = _initial_coloring(g)
        target = g.max_degree + 1
        result = run_local(
            g,
            algorithm_cls(),
            Model.DET,
            node_inputs=[{"color": c} for c in colors],
            global_params={"palette": palette, "target": target},
        )
        assert KColoring(target).is_solution(g, result.outputs)

    def test_on_tree(self, algorithm_cls, rng):
        g = random_tree_bounded_degree(200, 6, rng)
        colors, palette = _initial_coloring(g)
        target = g.max_degree + 1
        result = run_local(
            g,
            algorithm_cls(),
            Model.DET,
            node_inputs=[{"color": c} for c in colors],
            global_params={"palette": palette, "target": target},
        )
        assert KColoring(target).is_solution(g, result.outputs)

    def test_noop_when_already_small(self, algorithm_cls):
        g = cycle_graph(6)
        colors = [0, 1, 0, 1, 0, 1]
        result = run_local(
            g,
            algorithm_cls(),
            Model.DET,
            node_inputs=[{"color": c} for c in colors],
            global_params={"palette": 2, "target": 3},
        )
        assert result.outputs == colors
        assert result.rounds == 0

    def test_active_ports_restriction(self, algorithm_cls):
        # Star with center colored 5, leaves colored 3 and 4; with
        # active_ports = [] everywhere, each vertex reduces in
        # isolation and may reuse colors — legal within the declared
        # subgraph (no edges).
        g = star_graph(2)
        result = run_local(
            g,
            algorithm_cls(),
            Model.DET,
            node_inputs=[
                {"color": 5, "active_ports": []},
                {"color": 3, "active_ports": []},
                {"color": 4, "active_ports": []},
            ],
            global_params={"palette": 6, "target": 2},
        )
        assert all(c < 2 for c in result.outputs)


class TestRoundCounts:
    def test_class_by_class_rounds(self, rng):
        g = random_regular_graph(100, 4, rng)
        colors, palette = _initial_coloring(g)
        target = 5
        result = run_local(
            g,
            ClassByClassReduction(),
            Model.DET,
            node_inputs=[{"color": c} for c in colors],
            global_params={"palette": palette, "target": target},
        )
        assert result.rounds <= palette - target

    def test_kw_beats_class_by_class_on_wide_palettes(self, rng):
        g = random_regular_graph(100, 4, rng)
        colors, palette = _initial_coloring(g)
        target = 5
        classic = run_local(
            g,
            ClassByClassReduction(),
            Model.DET,
            node_inputs=[{"color": c} for c in colors],
            global_params={"palette": palette, "target": target},
        )
        kw = run_local(
            g,
            KuhnWattenhoferReduction(),
            Model.DET,
            node_inputs=[{"color": c} for c in colors],
            global_params={"palette": palette, "target": target},
        )
        assert kw.rounds < classic.rounds
        assert KColoring(target).is_solution(g, kw.outputs)

    def test_kw_stage_plan_shrinks(self):
        plan = _kw_stage_plan(1000, 7)
        assert plan[0] == 1000
        assert all(a > b for a, b in zip(plan, plan[1:]))

    def test_kw_stage_plan_trivial(self):
        assert _kw_stage_plan(5, 7) == ()

    def test_kw_stage_plan_invalid_target(self):
        with pytest.raises(ValueError):
            _kw_stage_plan(10, 0)
