"""Randomized Δ-coloring of trees for constant Δ >= 55 — Theorem 11.

The paper's three-phase algorithm (Section VI.B), designed so that its
analysis needs only polynomial dependence on Δ and works for small
constant Δ (the Theorem 10 machinery needs Δ large):

**Phase 1** (:class:`PeelByMISAlgorithm`): for color i = Δ-1 down to 3
(0-based), every still-uncolored vertex draws x(v) uniformly at random;
the local minima K join an MIS I ⊇ K of the uncolored subgraph, and all
of I takes color i.  Maximality guarantees every surviving vertex gains
one distinctly-colored neighbor per iteration, so at the end each
uncolored vertex has at most 3 uncolored neighbors.  The MIS is
completed from K by a class sweep over a proper (Δ+1)-base-coloring
computed once up front (Linial + reduction; in RandLOCAL the IDs feeding
Linial are drawn at random, as in the proof of Theorem 5).

**Phase 2**: S = uncolored vertices with exactly 3 uncolored neighbors
form, with high probability, connected components of size O(log n)
(shattering, by the local-minima randomness); each component is 3-colored
with the low colors {0, 1, 2} by Theorem 9 in O(log log n) rounds.

**Phase 3** (:class:`GreedyRecolorByClass`): the remaining uncolored
vertices induce a subgraph of maximum degree <= 2; two MIS sweeps split
them into three independent classes, and the classes greedily pick any
available color in three final rounds.  The palette invariant
(#available colors > #uncolored neighbors, maintained by construction
and re-checked at runtime) makes the greedy choice always possible.

Total: O(log_Δ log n + log* n) rounds for any Δ >= 55 — together with
Theorem 10 this covers all constant Δ >= 55, matching the randomized
lower bound of Theorem 4 up to the additive log* n.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .drivers import AlgorithmReport, PhaseLog
from .linial import LinialColoring, linial_schedule
from .mis import MISFromColoring
from .rand_tree_coloring import ShatteringStats
from .reduction import KuhnWattenhoferReduction
from .tree_coloring import barenboim_elkin_coloring
from ..core.algorithm import Inbox, SyncAlgorithm
from ..core.context import Model, NodeContext
from ..core.engine import run_local
from ..core.errors import AlgorithmFailure
from ..core.ids import check_unique_ids
from ..graphs.graph import Graph

#: Phase-1 output label for vertices that remain uncolored.
UNCOLORED = -1

#: Smallest Δ the theorem covers.
MIN_DELTA = 55


class PeelByMISAlgorithm(SyncAlgorithm):
    """Phase 1: iterated seeded-MIS peeling.

    Node input:
        ``base_color``: this vertex's color in a proper base coloring.
    Globals:
        ``colors``: the descending list of colors to hand out
        (``[Δ-1, .., 3]``);
        ``base_palette``: size of the base coloring.

    Iteration k occupies ``L = base_palette + 2`` rounds:

    - round ``kL``: uncolored vertices publish ``("x", x_v)``;
    - round ``kL+1``: local minima join the MIS and take the color;
    - round ``kL+2+c``: base-color-class c joins unless a neighbor
      already joined this iteration.

    Colored vertices halt with their color (their publication remains
    readable); survivors output :data:`UNCOLORED`.
    """

    name = "peel-by-mis"

    def setup(self, ctx: NodeContext) -> None:
        ctx.state["iteration"] = 0
        ctx.publish(("u",))
        # Wake at the first bidding round (round 0).
        ctx.sleep_until(0)

    def _block_length(self, ctx: NodeContext) -> int:
        return ctx.globals["base_palette"] + 2

    def step(self, ctx: NodeContext, inbox: Inbox) -> None:
        colors: Sequence[int] = ctx.globals["colors"]
        L = self._block_length(ctx)
        k = ctx.state["iteration"]
        if k >= len(colors):
            ctx.halt(UNCOLORED)
            return
        offset = ctx.now - k * L
        color = colors[k]
        if offset == 0:
            x = ctx.random.getrandbits(64)
            ctx.state["x"] = x
            ctx.publish(("x", x))
        elif offset == 1:
            neighbor_x = [
                msg[1]
                for msg in inbox
                if isinstance(msg, tuple) and msg[0] == "x"
            ]
            if not neighbor_x or ctx.state["x"] < min(neighbor_x):
                ctx.publish(("colored", color))
                ctx.halt(color)
                return
            ctx.sleep_until(k * L + 2 + ctx.input["base_color"])
        else:
            joined = any(
                isinstance(msg, tuple)
                and msg[0] == "colored"
                and msg[1] == color
                for msg in inbox
            )
            if not joined:
                ctx.publish(("colored", color))
                ctx.halt(color)
                return
            ctx.state["iteration"] = k + 1
            if k + 1 >= len(colors):
                ctx.halt(UNCOLORED)
            else:
                ctx.sleep_until((k + 1) * L)


class GreedyRecolorByClass(SyncAlgorithm):
    """Phase 3 finish: three independent classes pick available colors.

    Node input:
        ``color``: current color, or ``None`` if uncolored;
        ``klass``: 0, 1 or 2 for uncolored vertices (their independent
        class from the two MIS sweeps), ``None`` for colored ones.
    Globals:
        ``palette``: the full palette size Δ.

    Round k recolors class k: the vertex picks the smallest color not
    used by any neighbor.  Classes are independent sets, so simultaneous
    choices never clash; the phase-invariant guarantees availability
    (violations raise as failures — they would falsify Theorem 11).
    """

    name = "greedy-recolor-by-class"

    def setup(self, ctx: NodeContext) -> None:
        color = ctx.input["color"]
        ctx.publish(("color", color))
        if ctx.input["klass"] is None:
            ctx.halt(color)
        else:
            ctx.sleep_until(ctx.input["klass"])

    def step(self, ctx: NodeContext, inbox: Inbox) -> None:
        palette = ctx.globals["palette"]
        taken = {
            msg[1]
            for msg in inbox
            if isinstance(msg, tuple) and msg[0] == "color"
            and msg[1] is not None
        }
        for c in range(palette):
            if c not in taken:
                ctx.publish(("color", c))
                ctx.halt(c)
                return
        ctx.fail(
            "no available color — the Phase 3 palette invariant failed"
        )


def _random_ids(graph: Graph, rng_seed: Optional[int]) -> List[int]:
    """RandLOCAL ID generation: every vertex draws O(log n) random bits.

    Distinct with probability 1 - 1/poly(n); a collision makes the whole
    algorithm fail (counted into its failure probability, exactly as in
    the paper's Theorem 5 argument).
    """
    import random as _random

    master = _random.Random(rng_seed)
    n = graph.num_vertices
    bits = max(8, 4 * max(1, (max(n, 2) - 1).bit_length()))
    ids = [master.getrandbits(bits) for _ in range(n)]
    if len(set(ids)) != n:
        raise AlgorithmFailure("random IDs collided (probability 1/poly(n))")
    return ids


def chang_kopelowitz_pettie_coloring(
    graph: Graph,
    seed: Optional[int] = None,
    min_delta: int = MIN_DELTA,
    max_rounds: int = 1_000_000,
) -> AlgorithmReport:
    """Theorem 11 driver: RandLOCAL Δ-coloring of a tree, Δ >= 55.

    Set ``min_delta`` lower to *experimentally* probe smaller Δ (the
    paper remarks the problem changes character for very small Δ; the
    theorem's guarantee starts at 55).

    Returns an :class:`AlgorithmReport` whose log carries
    :class:`~repro.algorithms.rand_tree_coloring.ShatteringStats` for
    the Phase 2 set S.
    """
    delta = graph.max_degree
    if delta < min_delta:
        raise ValueError(
            f"Theorem 11 needs Δ >= {min_delta}, got Δ = {delta}"
        )
    n = graph.num_vertices
    log = PhaseLog()
    ids = _random_ids(graph, seed)
    check_unique_ids(ids)
    id_space = 1 << max(1, max(ids).bit_length())

    # Base (Δ+1)-coloring: Linial + Kuhn-Wattenhofer reduction.
    linial_run = log.add(
        "base-linial",
        run_local(
            graph,
            LinialColoring(),
            Model.DET,
            ids=ids,
            global_params={"id_space": id_space},
            max_rounds=max_rounds,
        ),
    )
    linial_palette = linial_schedule(id_space, max(1, delta))[-1]
    base_run = log.add(
        "base-reduction",
        run_local(
            graph,
            KuhnWattenhoferReduction(),
            Model.DET,
            ids=ids,
            node_inputs=[{"color": c} for c in linial_run.outputs],
            global_params={"palette": linial_palette, "target": delta + 1},
            max_rounds=max_rounds,
        ),
    )
    base_colors: List[int] = base_run.outputs

    # Phase 1: iterated seeded-MIS peeling over colors Δ-1 .. 3.
    phase1 = log.add(
        "phase1-peel-by-mis",
        run_local(
            graph,
            PeelByMISAlgorithm(),
            Model.RAND,
            seed=seed,
            node_inputs=[{"base_color": c} for c in base_colors],
            global_params={
                "colors": list(range(delta - 1, 2, -1)),
                "base_palette": delta + 1,
            },
            max_rounds=max_rounds,
        ),
    )
    labeling: List[Optional[int]] = [
        None if c == UNCOLORED else c for c in phase1.outputs
    ]
    log.add_rounds("phase-boundary", 1, messages=2 * graph.num_edges)

    uncolored = {v for v in graph.vertices() if labeling[v] is None}
    u_degree = {
        v: sum(1 for u in graph.neighbors(v) if u in uncolored)
        for v in uncolored
    }
    if any(d > 3 for d in u_degree.values()):
        raise AssertionError(
            "Phase 1 invariant violated: an uncolored vertex has more "
            "than 3 uncolored neighbors"
        )

    # Phase 2: 3-color the exactly-degree-3 set S with colors {0, 1, 2}.
    s_set = sorted(v for v in uncolored if u_degree[v] == 3)
    stats = ShatteringStats(
        bad_vertices=len(s_set), num_components=0, max_component=0
    )
    if s_set:
        s_graph, originals = graph.induced_subgraph(s_set)
        components = s_graph.connected_components()
        stats.num_components = len(components)
        stats.component_sizes = sorted(len(c) for c in components)
        stats.max_component = stats.component_sizes[-1]
        s_report = barenboim_elkin_coloring(s_graph, 3, max_rounds=max_rounds)
        for local_index, color in enumerate(s_report.labeling):
            labeling[originals[local_index]] = color
        for phase in s_report.log.phases:
            log.add_rounds(f"phase2-{phase.name}", phase.rounds, phase.messages)
        uncolored -= set(s_set)

    # Phase 3: remaining uncolored vertices induce max degree <= 2.
    klass: Dict[int, int] = {}
    if uncolored:
        klass = _three_classes(graph, sorted(uncolored), base_colors, log,
                               delta, max_rounds)
    finish = log.add(
        "phase3-greedy-recolor",
        run_local(
            graph,
            GreedyRecolorByClass(),
            Model.RAND,
            seed=None if seed is None else seed + 1,
            node_inputs=[
                {"color": labeling[v], "klass": klass.get(v)}
                for v in graph.vertices()
            ],
            global_params={"palette": delta},
            max_rounds=max_rounds,
        ),
    )
    if finish.failures:
        first = min(finish.failures)
        raise AlgorithmFailure(
            f"Phase 3 failed at {len(finish.failures)} vertices "
            f"(first: vertex {first}: {finish.failures[first]})",
            node=first,
            round=finish.rounds,
        )
    report = AlgorithmReport(finish.outputs, log.total_rounds, log)
    report.log.stats = stats  # type: ignore[attr-defined]
    return report


def _three_classes(
    graph: Graph,
    uncolored: List[int],
    base_colors: Sequence[int],
    log: PhaseLog,
    delta: int,
    max_rounds: int,
) -> Dict[int, int]:
    """Split the residual (max degree <= 2) uncolored subgraph into three
    independent classes via two deterministic MIS sweeps."""
    sub, originals = graph.induced_subgraph(uncolored)
    sub_colors = [base_colors[v] for v in originals]
    mis1 = log.add(
        "phase3-mis-1",
        run_local(
            sub,
            MISFromColoring(),
            Model.DET,
            node_inputs=[{"color": c} for c in sub_colors],
            global_params={"palette": delta + 1},
            max_rounds=max_rounds,
        ),
    )
    klass: Dict[int, int] = {}
    second = [i for i, label in enumerate(mis1.outputs) if label == 0]
    for i, label in enumerate(mis1.outputs):
        if label == 1:
            klass[originals[i]] = 0
    if second:
        sub2, originals2 = sub.induced_subgraph(second)
        mis2 = log.add(
            "phase3-mis-2",
            run_local(
                sub2,
                MISFromColoring(),
                Model.DET,
                node_inputs=[{"color": sub_colors[i]} for i in originals2],
                global_params={"palette": delta + 1},
                max_rounds=max_rounds,
            ),
        )
        for j, label in enumerate(mis2.outputs):
            klass[originals[originals2[j]]] = 1 if label == 1 else 2
    # Sanity: class 2 must be independent (max degree <= 2 argument).
    class2 = {v for v, c in klass.items() if c == 2}
    for v in class2:
        for u in graph.neighbors(v):
            if u in class2:
                raise AssertionError(
                    "Phase 3 residual class was not independent — the "
                    "degree <= 2 invariant failed"
                )
    return klass
