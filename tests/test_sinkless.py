"""Tests for sinkless orientation algorithms."""

import pytest

from repro.algorithms.sinkless import (
    canonical_sinkless_orientation,
    deterministic_sinkless_orientation,
    random_sinkless_orientation,
)
from repro.core.errors import AlgorithmFailure
from repro.graphs import GraphError
from repro.graphs.generators import (
    cycle_graph,
    high_girth_regular_graph,
    hypercube_graph,
    random_regular_graph,
)
from repro.lcl import SinklessOrientation, count_sinks

PROBLEM = SinklessOrientation()


class TestCanonicalRule:
    def test_cycle(self):
        g = cycle_graph(5)
        orientation = canonical_sinkless_orientation(5, list(g.edges()))
        out = [0] * 5
        for tail, _head in orientation.values():
            out[tail] += 1
        assert all(d >= 1 for d in out)

    def test_cycle_with_tail(self):
        # Triangle 0-1-2 with a path 2-3-4 hanging off.
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
        orientation = canonical_sinkless_orientation(5, edges)
        out = [0] * 5
        for tail, _head in orientation.values():
            out[tail] += 1
        assert all(d >= 1 for d in out)
        # The hanging path must point toward the triangle.
        assert orientation[(3, 4)] == (4, 3)
        assert orientation[(2, 3)] == (3, 2)

    def test_forest_rejected(self):
        with pytest.raises(GraphError):
            canonical_sinkless_orientation(3, [(0, 1), (1, 2)])

    def test_mixed_components_rejected(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4)]
        with pytest.raises(GraphError):
            canonical_sinkless_orientation(5, edges)

    def test_isolated_vertices_fine(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        orientation = canonical_sinkless_orientation(5, edges)
        assert len(orientation) == 3

    @pytest.mark.parametrize("degree", [3, 4, 6])
    def test_regular_graphs(self, degree, rng):
        g = random_regular_graph(60, degree, rng)
        orientation = canonical_sinkless_orientation(
            g.num_vertices, list(g.edges())
        )
        out = [0] * g.num_vertices
        for tail, _head in orientation.values():
            out[tail] += 1
        assert all(d >= 1 for d in out)
        assert len(orientation) == g.num_edges


class TestRandomized:
    @pytest.mark.parametrize("degree", [3, 5])
    def test_valid_orientation(self, degree, rng):
        g = random_regular_graph(200, degree, rng)
        report, stabilized = random_sinkless_orientation(g, seed=5)
        assert PROBLEM.is_solution(g, report.labeling)
        assert count_sinks(g, report.labeling) == 0
        assert 1 <= stabilized <= report.rounds

    def test_hypercube(self):
        g = hypercube_graph(4)
        report, _ = random_sinkless_orientation(g, seed=1)
        assert PROBLEM.is_solution(g, report.labeling)

    def test_budget_failure_raised(self, rng):
        # Budget 1 leaves no fixing rounds; some vertex is almost
        # surely a sink on a 3-regular graph (prob 1/8 each).
        g = random_regular_graph(200, 3, rng)
        with pytest.raises(AlgorithmFailure):
            random_sinkless_orientation(g, seed=2, budget=1)

    def test_stabilization_grows_slowly(self, rng):
        stabilization = []
        for n in (64, 512, 4096):
            g = random_regular_graph(n, 3, rng)
            _, stab = random_sinkless_orientation(g, seed=7)
            stabilization.append(stab)
        assert stabilization[-1] <= stabilization[0] + 16


class TestDeterministic:
    def test_valid_on_high_girth(self, rng):
        g = high_girth_regular_graph(128, 3, 7, rng)
        report = deterministic_sinkless_orientation(g)
        assert PROBLEM.is_solution(g, report.labeling)

    def test_rounds_are_diameter_plus_two(self, rng):
        # diameter+1 collection rounds plus the neighbor-ID exchange.
        g = random_regular_graph(64, 3, rng)
        report = deterministic_sinkless_orientation(g)
        assert report.rounds == g.diameter() + 2

    def test_consistent_between_endpoints(self, rng):
        g = random_regular_graph(48, 4, rng)
        report = deterministic_sinkless_orientation(g)
        for v in g.vertices():
            for p in range(g.degree(v)):
                u = g.endpoint(v, p)
                q = g.reverse_port(v, p)
                assert report.labeling[v][p] != report.labeling[u][q]

    def test_custom_ids(self, rng):
        g = random_regular_graph(32, 3, rng)
        ids = [100 + v * 7 for v in range(32)]
        report = deterministic_sinkless_orientation(g, ids=ids)
        assert PROBLEM.is_solution(g, report.labeling)
