"""Randomized Δ-coloring of trees — Theorem 10 (Section VI.A).

The paper's two-phase RandLOCAL algorithm:

**Phase 1** (:class:`ColorBiddingAlgorithm`, O(log* Δ) iterations): the
palette is split into a main part ``{0 .. Δ-r-1}`` and ``r = ⌈√Δ⌉``
reserved colors.  Each iteration runs the paper's ``ColorBidding(i)`` —
every participating vertex samples a random color subset ``S_v`` of its
remaining palette ``Ψ_i(v)`` (one uniform color when ``c_i = 1``, else
each color independently with probability ``c_i / |Ψ_i(v)|``) and keeps
a color of ``S_v`` not bid by any participating neighbor — followed by
``Filtering(i)``, which marks vertices *bad* when the paper's invariants

- P1 (large palette): ``|Ψ_i(v)| >= Δ / K``
- P2 (small degree):  ``|N_i(v)| <= Δ / c_i``

are endangered.  Bad vertices stop participating.  The escalation
sequence ``c_1 = 1,  c_i = min(Δ^0.1, c_{i-1}·exp(c_{i-1}/g))`` matches
the paper's recursion with configurable constants: the printed constants
(K = 200, g = 3·200·e^200) are proof artifacts — with them the sequence
needs astronomically many iterations to move, so no finite experiment
could run them.  We default to K = 4, g = 8, keep the exact recursion
*shape* (hence t = O(log* Δ) iterations), and verify P1/P2 at runtime.

**Phase 2** (shattering): with high probability the *bad* vertices form
connected components of size O(Δ⁴ log n); each component is q-colored
with the reserved colors by the deterministic algorithm of Theorem 9 —
O(log_Δ log n + log* n) rounds.  This is the graph-shattering pattern
Theorem 3 proves unavoidable.

Total: O(log_Δ log n + log* n) rounds, exponentially faster than the
deterministic Θ(log_Δ n) bound (Theorem 5) — the headline separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Set, Tuple

from .drivers import AlgorithmReport, PhaseLog
from .tree_coloring import barenboim_elkin_coloring
from ..core.algorithm import Inbox, SyncAlgorithm
from ..core.context import Model, NodeContext
from ..core.engine import run_local
from ..core.errors import AlgorithmFailure
from ..graphs.graph import Graph

#: Phase-1 output label of a vertex that was marked bad.
BAD = -1


@dataclass(frozen=True)
class ColorBiddingConfig:
    """Tunable constants of the Phase-1 analysis.

    ``palette_guard`` is the paper's 200 (invariant P1 reads
    ``|Ψ| >= Δ / palette_guard``); ``growth_denominator`` is the paper's
    ``3 · 200 · e^200`` (the escalation ``c_i = c_{i-1} ·
    exp(c_{i-1} / g)``); ``cap_exponent`` is the paper's 0.1 in the cap
    ``c_i <= Δ^0.1``.  Defaults are practical equivalents with the same
    asymptotic shape (see module docstring).
    """

    palette_guard: float = 4.0
    growth_denominator: float = 8.0
    cap_exponent: float = 0.1

    @lru_cache(maxsize=4096)
    def escalation_schedule(self, delta: int) -> Tuple[float, ...]:
        """The sequence ``c_1 .. c_t`` (t = first index hitting the cap
        ``Δ^cap_exponent``); its length is the number of Phase-1
        iterations, O(log* Δ).  Common knowledge: computed once per
        ``(config, Δ)`` and shared read-only by every vertex."""
        cap = max(1.0, float(delta) ** self.cap_exponent)
        schedule = [1.0]
        while schedule[-1] < cap:
            c = schedule[-1]
            nxt = min(cap, c * math.exp(c / self.growth_denominator))
            if nxt <= c:
                break
            schedule.append(nxt)
            if len(schedule) > 10_000:
                raise AssertionError("escalation schedule did not converge")
        return tuple(schedule)


def reserved_colors(delta: int) -> int:
    """Number of reserved colors r = max(3, ⌈√Δ⌉) (Phase 2 needs a
    palette of at least 3 for Theorem 9)."""
    return max(3, math.isqrt(delta - 1) + 1)


class ColorBiddingAlgorithm(SyncAlgorithm):
    """Phase 1 of Theorem 10: iterated ColorBidding + Filtering.

    Globals:
        ``config``: a :class:`ColorBiddingConfig`;
        ``main_palette``: size of the non-reserved palette Δ - r.

    Output: a color in ``0 .. main_palette-1``, or :data:`BAD`.

    Each iteration costs two rounds: a *bid* round (publish ``S_v``) and
    a *resolve* round (publish the chosen color, or continued
    participation).  Filtering decisions happen while preparing the next
    bid, exactly as in the paper (they depend only on information within
    distance 1 of the previous iteration's outcome).
    """

    name = "color-bidding"

    def setup(self, ctx: NodeContext) -> None:
        config: ColorBiddingConfig = ctx.globals["config"]
        delta = ctx.max_degree
        ctx.state["schedule"] = config.escalation_schedule(delta)
        ctx.state["iteration"] = 0
        ctx.state["palette"] = set(range(ctx.globals["main_palette"]))
        ctx.state["participating_ports"] = set(ctx.ports)
        ctx.state["phase"] = "bid"
        self._publish_bid(ctx)

    def _publish_bid(self, ctx: NodeContext) -> None:
        config: ColorBiddingConfig = ctx.globals["config"]
        schedule: Tuple[float, ...] = ctx.state["schedule"]
        i = ctx.state["iteration"]
        if i >= len(schedule):
            # Filtering(t): every still-uncolored vertex is bad.
            ctx.publish(("bad",))
            ctx.halt(BAD)
            return
        delta = ctx.max_degree
        palette: Set[int] = ctx.state["palette"]
        guard = delta / config.palette_guard
        if len(palette) < guard:
            # Invariant P1 violated — the paper's analysis marks such
            # vertices bad at filtering; catching it here is equivalent
            # and protects against degenerate configurations.
            ctx.publish(("bad",))
            ctx.halt(BAD)
            return
        c_i = schedule[i]
        rng = ctx.random
        if c_i <= 1.0:
            choices = sorted(palette)
            bid = {choices[rng.randrange(len(choices))]}
        else:
            p = min(1.0, c_i / len(palette))
            # Ascending color order pins the per-vertex draw sequence —
            # the vectorized kernel replays these exact draws.
            bid = {
                color for color in sorted(palette) if rng.random() < p
            }
        ctx.state["bid"] = bid
        ctx.state["phase"] = "resolve"
        ctx.publish(("bid", bid))

    def step(self, ctx: NodeContext, inbox: Inbox) -> None:
        if ctx.state["phase"] == "resolve":
            self._resolve(ctx, inbox)
        else:
            self._filter_and_rebid(ctx, inbox)

    def _resolve(self, ctx: NodeContext, inbox: Inbox) -> None:
        participating: Set[int] = ctx.state["participating_ports"]
        neighbor_bids: Set[int] = set()
        for port in participating:
            msg = inbox[port]
            if isinstance(msg, tuple) and msg[0] == "bid":
                neighbor_bids |= msg[1]
        free = ctx.state["bid"] - neighbor_bids
        ctx.state["phase"] = "bid"
        if free:
            color = min(free)
            ctx.publish(("colored", color))
            ctx.halt(color)
        else:
            ctx.publish(("still",))

    def _filter_and_rebid(self, ctx: NodeContext, inbox: Inbox) -> None:
        config: ColorBiddingConfig = ctx.globals["config"]
        schedule: Tuple[float, ...] = ctx.state["schedule"]
        delta = ctx.max_degree
        participating: Set[int] = ctx.state["participating_ports"]
        palette: Set[int] = ctx.state["palette"]
        still_ports = set()
        for port in list(participating):
            msg = inbox[port]
            if isinstance(msg, tuple) and msg[0] == "colored":
                palette.discard(msg[1])
                participating.discard(port)
            elif isinstance(msg, tuple) and msg[0] == "bad":
                participating.discard(port)
            elif isinstance(msg, tuple) and msg[0] == "still":
                still_ports.add(port)
        ctx.state["participating_ports"] = still_ports
        i = ctx.state["iteration"]  # the iteration just resolved
        ctx.state["iteration"] = i + 1
        # Filtering(i), with i counted 0-based (paper is 1-based):
        if i == 0:
            guard = delta / config.palette_guard
            if len(palette) - len(still_ports) < guard:
                ctx.publish(("bad",))
                ctx.halt(BAD)
                return
        elif i + 1 < len(schedule):
            if len(still_ports) > delta / schedule[i + 1]:
                ctx.publish(("bad",))
                ctx.halt(BAD)
                return
        self._publish_bid(ctx)


@dataclass
class ShatteringStats:
    """What Phase 1 left behind, for experiment E5."""

    bad_vertices: int
    num_components: int
    max_component: int
    component_sizes: List[int] = field(default_factory=list)

    @staticmethod
    def paper_bound(n: int, delta: int) -> float:
        """The whp component-size bound Δ⁴ · log n from the Theorem 10
        analysis (:func:`repro.transforms.component_size_threshold`)."""
        from ..transforms.shattering import component_size_threshold

        return component_size_threshold(n, delta)


def pettie_su_tree_coloring(
    graph: Graph,
    seed: Optional[int] = None,
    config: Optional[ColorBiddingConfig] = None,
    max_rounds: int = 100_000,
) -> AlgorithmReport:
    """Theorem 10 driver: RandLOCAL Δ-coloring of a tree in
    O(log_Δ log n + log* n) rounds.

    The input must have Δ >= 9 so that ⌈√Δ⌉ >= 3 reserved colors are
    available for Phase 2 (the paper's Theorem 11 covers the small-Δ
    regime with a different algorithm).

    The returned report's ``log`` carries a ``stats`` attribute
    (:class:`ShatteringStats`) describing the shattering outcome.
    """
    delta = graph.max_degree
    if delta < 9:
        raise ValueError(
            f"Theorem 10 needs Δ >= 9 (got Δ = {delta}); "
            "use the Theorem 11 algorithm or Theorem 9 for smaller Δ"
        )
    if config is None:
        config = ColorBiddingConfig()
    r = reserved_colors(delta)
    main_palette = delta - r
    log = PhaseLog()

    phase1 = log.add(
        "phase1-color-bidding",
        run_local(
            graph,
            ColorBiddingAlgorithm(),
            Model.RAND,
            seed=seed,
            global_params={"config": config, "main_palette": main_palette},
            max_rounds=max_rounds,
        ),
    )
    if phase1.failures:
        # Unreachable in the fault-free model (the algorithm never
        # calls ctx.fail); crash-stop fault injection lands here.
        first = min(phase1.failures)
        raise AlgorithmFailure(
            f"phase 1 failed at {len(phase1.failures)} vertices "
            f"(first: vertex {first}: {phase1.failures[first]})",
            node=first,
            round=phase1.rounds,
        )
    labeling: List[int] = list(phase1.outputs)

    # One round for everyone to learn which neighbors ended bad (their
    # final "bad" publications are already in flight; accounting only).
    log.add_rounds("phase-boundary", 1, messages=2 * graph.num_edges)

    bad = [v for v in graph.vertices() if labeling[v] == BAD]
    stats = ShatteringStats(
        bad_vertices=len(bad), num_components=0, max_component=0
    )
    if bad:
        subgraph, originals = graph.induced_subgraph(bad)
        components = subgraph.connected_components()
        stats.num_components = len(components)
        stats.component_sizes = sorted(len(c) for c in components)
        stats.max_component = stats.component_sizes[-1]
        # Phase 2: deterministically q-color the bad subgraph with the
        # reserved colors.  Vertices have no IDs in RandLOCAL; as in the
        # proof of Theorem 5 they draw random ones (collision probability
        # 1/poly(n) folds into the algorithm's failure probability).
        phase2 = barenboim_elkin_coloring(subgraph, r, max_rounds=max_rounds)
        for local_index, color in enumerate(phase2.labeling):
            labeling[originals[local_index]] = main_palette + color
        for phase in phase2.log.phases:
            log.add_rounds(f"phase2-{phase.name}", phase.rounds, phase.messages)

    report = AlgorithmReport(labeling, log.total_rounds, log)
    report.log.stats = stats  # type: ignore[attr-defined]
    return report
