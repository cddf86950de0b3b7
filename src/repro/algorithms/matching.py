"""Maximal matching algorithms (survey problems of Section I).

- :class:`RandomizedMatching` — Israeli–Itai-style RandLOCAL algorithm:
  every iteration, vertices flip proposer/acceptor coins, proposers pick
  a random still-active neighbor, acceptors accept one proposal; matched
  pairs retire.  A constant fraction of active edges disappears per
  iteration in expectation, so O(log n) iterations suffice whp.
- :class:`MatchingFromColoring` — DetLOCAL: classes of a proper coloring
  take turns; in its turn a vertex proposes to each still-unmatched
  neighbor port by port, and proposees always accept somebody, so after
  a class's turn all its members are matched or fully blocked.  Combined
  with Linial + reduction this is O(Δ²)-round-ish deterministic maximal
  matching — the O(Δ + log* n) of [12] is fancier but has the same
  n-dependence, which is what the experiments compare.

Labels follow :class:`repro.lcl.matching.MaximalMatching`: the matched
port, or ``None``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .drivers import AlgorithmReport, PhaseLog
from .linial import LinialColoring, linial_schedule
from .reduction import KuhnWattenhoferReduction
from ..core.algorithm import Inbox, SyncAlgorithm
from ..core.context import Model, NodeContext
from ..core.engine import run_local
from ..graphs.graph import Graph


class RandomizedMatching(SyncAlgorithm):
    """RandLOCAL maximal matching by random proposals.

    Three rounds per iteration: coin+propose / accept / confirm.
    Messages use the receiver-port addressing helper pattern: a proposal
    to the neighbor on port p is published as ``("propose", q)`` where
    ``q`` is the reverse port, so the receiver recognizes proposals
    aimed at itself.
    """

    name = "randomized-matching"

    def setup(self, ctx: NodeContext) -> None:
        ctx.state["phase"] = "propose"
        ctx.state["active_ports"] = set(ctx.ports)
        ctx.publish(("idle",))
        if ctx.degree == 0:
            ctx.halt(None)

    def step(self, ctx: NodeContext, inbox: Inbox) -> None:
        phase = ctx.state["phase"]
        if phase == "propose":
            self._propose(ctx, inbox)
        elif phase == "accept":
            self._accept(ctx, inbox)
        else:
            self._confirm(ctx, inbox)

    def _prune(self, ctx: NodeContext, inbox: Inbox) -> None:
        active = ctx.state["active_ports"]
        for p in list(active):
            msg = inbox[p]
            if isinstance(msg, tuple) and msg[0] == "matched":
                active.discard(p)

    def _propose(self, ctx: NodeContext, inbox: Inbox) -> None:
        self._prune(ctx, inbox)
        active = ctx.state["active_ports"]
        if not active:
            ctx.publish(("matched",))  # nothing left: retire unmatched
            ctx.halt(None)
            return
        if ctx.random.random() < 0.5:
            ports = sorted(active)
            p = ports[ctx.random.randrange(len(ports))]
            ctx.state["proposal_port"] = p
            ctx.publish(("propose", p))
        else:
            ctx.state["proposal_port"] = None
            ctx.publish(("idle",))
        ctx.state["phase"] = "accept"

    def _accept(self, ctx: NodeContext, inbox: Inbox) -> None:
        ctx.state["phase"] = "confirm"
        if ctx.state["proposal_port"] is not None:
            # Proposers wait for the verdict next round.
            ctx.publish(("idle",))
            return
        reverse_ports = ctx.input["reverse_ports"]
        proposers = [
            p
            for p in ctx.state["active_ports"]
            if isinstance(inbox[p], tuple)
            and inbox[p][0] == "propose"
            and inbox[p][1] == reverse_ports[p]
        ]
        if proposers:
            chosen = min(proposers)
            ctx.state["accepted_port"] = chosen
            ctx.publish(("accept", chosen))
        else:
            ctx.publish(("idle",))

    def _confirm(self, ctx: NodeContext, inbox: Inbox) -> None:
        ctx.state["phase"] = "propose"
        accepted = ctx.state.pop("accepted_port", None)
        if accepted is not None:
            # We accepted a proposal: matched.
            ctx.publish(("matched",))
            ctx.halt(accepted)
            return
        p = ctx.state.get("proposal_port")
        if p is not None:
            msg = inbox[p]
            if (
                isinstance(msg, tuple)
                and msg[0] == "accept"
                and msg[1] == ctx.input["reverse_ports"][p]
            ):
                ctx.publish(("matched",))
                ctx.halt(p)
                return
        ctx.publish(("idle",))


class MatchingFromColoring(SyncAlgorithm):
    """DetLOCAL maximal matching by color-class turns.

    Node input:
        ``color``: color in a proper ``m``-coloring.
    Globals:
        ``palette``: m.

    Class c owns the 2Δ rounds ``[c·2Δ, (c+1)·2Δ)``; in sub-slot k its
    unmatched members propose to the neighbor on port k if that neighbor
    looks unmatched, and any unmatched vertex accepts its lowest
    proposing port.  Unlike the randomized variant, acceptance is
    immediate: the proposer reads the verdict in the following round.
    """

    name = "matching-from-coloring"

    def setup(self, ctx: NodeContext) -> None:
        ctx.state["matched"] = None
        ctx.publish(("free",))
        if ctx.degree == 0:
            ctx.halt(None)

    def _slot(self, ctx: NodeContext) -> tuple:
        width = 2 * max(1, ctx.max_degree)
        color = ctx.input["color"]
        block_start = color * width
        return width, color, block_start

    def step(self, ctx: NodeContext, inbox: Inbox) -> None:
        width, color, block_start = self._slot(ctx)
        now = ctx.now
        my_turn = block_start <= now < block_start + width
        # --- verdict on our outstanding proposal comes first: if it was
        # accepted we are already matched and must not accept others.
        # The verdict lands two rounds after the proposal (propose at r,
        # the acceptor reads and answers at r+1, we read it at r+2). ---
        pending = ctx.state.get("pending_port")
        if pending is not None and now >= ctx.state["pending_round"]:
            ctx.state.pop("pending_port")
            msg = inbox[pending]
            if (
                isinstance(msg, tuple)
                and msg[0] == "accept"
                and msg[1] == ctx.input["reverse_ports"][pending]
            ):
                ctx.publish(("matched",))
                ctx.halt(pending)
                return
            pending = None
        # --- acceptance duty happens every round, regardless of turn ---
        reverse_ports = ctx.input["reverse_ports"]
        proposers = [
            p
            for p in ctx.ports
            if isinstance(inbox[p], tuple)
            and inbox[p][0] == "propose"
            and inbox[p][1] == reverse_ports[p]
        ]
        if proposers:
            chosen = min(proposers)
            ctx.publish(("accept", chosen))
            ctx.halt(chosen)
            return
        # --- our class's proposing slots ---
        if my_turn:
            offset = now - block_start
            slot, phase = divmod(offset, 2)
            if phase == 0 and slot < ctx.degree:
                msg = inbox[slot]
                neighbor_free = not (
                    isinstance(msg, tuple)
                    and msg[0] in ("matched", "accept")
                )
                if neighbor_free:
                    ctx.state["pending_port"] = slot
                    ctx.state["pending_round"] = now + 2
                    # The proposal slot is round arithmetic over the
                    # color-block schedule, which every vertex computes
                    # identically from common knowledge (palette, Δ).
                    ctx.publish(("propose", slot))  # repro: ignore[LM006]
                    return
            ctx.publish(("free",))
            return
        if now >= ctx.globals["palette"] * width:
            ctx.halt(None)
            return
        ctx.publish(("free",))


def randomized_matching(
    graph: Graph, seed: Optional[int] = None, max_rounds: int = 100_000
) -> AlgorithmReport:
    """Run the RandLOCAL matching; labeling follows the matching LCL."""
    log = PhaseLog()
    run = log.add(
        "randomized-matching",
        run_local(
            graph,
            RandomizedMatching(),
            Model.RAND,
            seed=seed,
            max_rounds=max_rounds,
        ),
    )
    return AlgorithmReport(run.outputs, log.total_rounds, log)


def deterministic_matching(
    graph: Graph,
    ids: Optional[Sequence[int]] = None,
    id_space: Optional[int] = None,
    max_rounds: int = 100_000,
) -> AlgorithmReport:
    """DetLOCAL maximal matching: Linial -> (Δ+1)-reduction -> turns."""
    n = graph.num_vertices
    if id_space is None:
        id_space = 1 << max(1, (max(n, 2) - 1).bit_length())
    log = PhaseLog()
    linial_run = log.add(
        "linial-coloring",
        run_local(
            graph,
            LinialColoring(),
            Model.DET,
            ids=ids,
            global_params={"id_space": id_space},
            max_rounds=max_rounds,
        ),
    )
    delta = graph.max_degree
    palette = linial_schedule(id_space, max(1, delta))[-1]
    target = delta + 1
    reduced = log.add(
        "palette-reduction",
        run_local(
            graph,
            KuhnWattenhoferReduction(),
            Model.DET,
            ids=ids,
            node_inputs=[{"color": c} for c in linial_run.outputs],
            global_params={"palette": palette, "target": target},
            max_rounds=max_rounds,
        ),
    )
    match_run = log.add(
        "class-turns",
        run_local(
            graph,
            MatchingFromColoring(),
            Model.DET,
            ids=ids,
            node_inputs=[{"color": c} for c in reduced.outputs],
            global_params={"palette": target},
            max_rounds=max_rounds,
        ),
    )
    return AlgorithmReport(match_run.outputs, log.total_rounds, log)