"""Tests for graph serialization and per-round engine activity."""

import pytest

from repro.algorithms import LubyMIS, MISFromColoring
from repro.core import Model, run_local
from repro.obs import RunObserver
from repro.graphs import Graph, is_proper_edge_coloring
from repro.graphs.generators import (
    cycle_graph,
    random_regular_bipartite_graph,
    random_tree_bounded_degree,
)
from repro.graphs.io import (
    edge_coloring_from_dict,
    graph_from_dict,
    graph_to_dict,
    labeling_from_dict,
    load_graph,
    save_graph,
)


class TestSerialization:
    def test_round_trip_structure(self, rng):
        g = random_tree_bounded_degree(80, 5, rng)
        payload = graph_to_dict(g)
        g2 = graph_from_dict(payload)
        assert g2 == g

    def test_ports_preserved(self, rng):
        g = random_tree_bounded_degree(40, 4, rng)
        g2 = graph_from_dict(graph_to_dict(g))
        for v in g.vertices():
            assert list(g.neighbors(v)) == list(g2.neighbors(v))

    def test_edge_coloring_round_trip(self, rng):
        g, coloring = random_regular_bipartite_graph(20, 3, rng)
        payload = graph_to_dict(g, edge_coloring=coloring)
        g2 = graph_from_dict(payload)
        coloring2 = edge_coloring_from_dict(payload)
        assert coloring2 == coloring
        assert is_proper_edge_coloring(g2, coloring2)

    def test_labeling_round_trip_with_tuples(self):
        g = cycle_graph(4)
        labeling = [(True, False), 3, None, (1, 2)]
        payload = graph_to_dict(g, labeling=labeling)
        assert labeling_from_dict(payload) == labeling

    def test_missing_labeling_is_none(self):
        payload = graph_to_dict(cycle_graph(3))
        assert labeling_from_dict(payload) is None

    def test_file_round_trip(self, tmp_path, rng):
        g = random_tree_bounded_degree(30, 4, rng)
        path = tmp_path / "tree.json"
        save_graph(path, g, metadata={"family": "tree"})
        payload = load_graph(path)
        assert graph_from_dict(payload) == g
        assert payload["metadata"] == {"family": "tree"}

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            graph_from_dict({"format": "something-else"})


class ActivityLog(RunObserver):
    """Per-round ``(round, active, awake, halted)`` counts, read from
    the round batches (the setup batch included, as round -1)."""

    def __init__(self):
        self.rows = []

    def on_round_batch(self, batch):
        self.rows.append(
            (batch.round_index, batch.active, batch.awake, batch.halted)
        )


def run_with_activity(*args, **kwargs):
    """``run_local`` plus the run's per-round activity rows."""
    log = ActivityLog()
    result = run_local(*args, observers=[log], **kwargs)
    return result, log.rows


def _rounds(rows):
    """The communication rounds' rows, without the setup batch."""
    return [row for row in rows if row[0] >= 0]


class TestTracing:
    def test_trace_disabled_by_default(self, ring):
        """Without observers a run records no per-round activity: the
        result holds exactly the paper's totals."""
        result = run_local(ring, LubyMIS(), Model.RAND, seed=0)
        assert list(vars(result)) == [
            "outputs", "rounds", "messages", "failures"
        ]

    def test_trace_length_is_rounds(self, ring):
        result, rows = run_with_activity(ring, LubyMIS(), Model.RAND, seed=0)
        assert [r for r, *_ in _rounds(rows)] == list(range(result.rounds))

    def test_active_counts_monotone(self, ring):
        _, rows = run_with_activity(ring, LubyMIS(), Model.RAND, seed=0)
        actives = [active for _, active, _, _ in _rounds(rows)]
        assert all(a >= b for a, b in zip(actives, actives[1:]))
        assert actives[0] == ring.num_vertices

    def test_sleeping_visible_in_awake_counts(self):
        # MISFromColoring puts every vertex to sleep until its color's
        # round: awake counts per round = size of that color class.
        g = cycle_graph(9)
        colors = [v % 3 for v in range(9)]
        _, rows = run_with_activity(
            g,
            MISFromColoring(),
            Model.DET,
            node_inputs=[{"color": c} for c in colors],
            global_params={"palette": 3},
        )
        assert [awake for _, _, awake, _ in _rounds(rows)] == [3, 3, 3]

    def test_halted_sum_matches(self, ring):
        _, rows = run_with_activity(ring, LubyMIS(), Model.RAND, seed=0)
        halted = sum(h for _, _, _, h in _rounds(rows))
        assert halted == ring.num_vertices
