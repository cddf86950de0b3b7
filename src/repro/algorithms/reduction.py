"""Color-reduction subroutines.

Standard toolbox results the paper's algorithms lean on:

- :class:`ClassByClassReduction` — from a proper ``m``-coloring to a
  proper ``target``-coloring in ``m - target`` rounds, provided every
  vertex always has a free color (``target >= Δ + 1``, or a stronger
  structural guarantee supplied by the caller).  One color class
  recolors per round, so simultaneous recolorers are never adjacent.
- :class:`KuhnWattenhoferReduction` — the divide-and-conquer variant:
  split the palette into blocks of ``2 * target`` colors, reduce every
  block to ``target`` colors *in parallel* (blocks map to disjoint
  target ranges, so cross-block edges stay proper), roughly halving the
  palette every ``target`` rounds; total ``O(target · log(m / target))``
  rounds.  Used as the fast path and as an ablation against the classic
  reduction (bench E2/E3 ablations).

Both run in DetLOCAL or RandLOCAL alike (they use no IDs and no
randomness — the input coloring carries all the symmetry breaking), and
both support restricting attention to a subset of ports
(``active_ports`` node input) so a caller can reduce a coloring *within
a subgraph* — e.g. within one layer of Theorem 9's H-partition — while
running on the full communication graph.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ..core.algorithm import Inbox, SyncAlgorithm
from ..core.context import NodeContext


def _relevant(ctx: NodeContext, inbox: Inbox) -> List:
    """Inbox entries on the vertex's active ports (all by default)."""
    ports: Optional[Sequence[int]] = ctx.input.get("active_ports")
    if ports is None:
        return list(inbox)
    return [inbox[p] for p in ports]


class ClassByClassReduction(SyncAlgorithm):
    """Reduce a proper coloring to ``target`` colors, one class per round.

    Node input:
        ``color``: this vertex's current color in ``0 .. m-1``;
        ``active_ports`` (optional): ports whose edges constrain the
        recoloring (defaults to all — required if the guarantee
        ``target >= degree + 1`` only holds on a subgraph).
    Globals:
        ``palette``: m, the input palette size (common knowledge);
        ``target``: the output palette size.

    Round ``j`` processes color class ``m - 1 - j``; a processed vertex
    picks the smallest color in ``0 .. target-1`` unused by any relevant
    neighbor and halts.  Vertices whose input color is already below
    ``target`` halt immediately.
    """

    name = "class-by-class-reduction"

    def setup(self, ctx: NodeContext) -> None:
        color = ctx.input["color"]
        m = ctx.globals["palette"]
        target = ctx.globals["target"]
        ctx.state["color"] = color
        ctx.publish(color)
        if color < target:
            ctx.halt(color)
        else:
            ctx.sleep_until(m - 1 - color)

    def step(self, ctx: NodeContext, inbox: Inbox) -> None:
        target = ctx.globals["target"]
        taken = set(_relevant(ctx, inbox))
        new_color = _smallest_free(taken, target)
        ctx.state["color"] = new_color
        ctx.publish(new_color)
        ctx.halt(new_color)


class KuhnWattenhoferReduction(SyncAlgorithm):
    """Palette-halving reduction: ``m -> target`` colors in
    ``O(target · log(m / target))`` rounds.

    Same inputs/globals as :class:`ClassByClassReduction` (the free-color
    guarantee is ``target >= (relevant degree) + 1``).  Colors are worked
    on as ``(block, offset)`` pairs with ``block = color // (2·target)``;
    within a block, offsets ``2·target-1 .. target`` recolor greedily one
    per round into ``0 .. target-1`` (cross-block edges can never clash
    because final stage colors are ``block · target + offset``).  Each
    stage takes ``target`` rounds and shrinks the palette from ``m`` to
    ``ceil(m / 2·target) · target``.
    """

    name = "kuhn-wattenhofer-reduction"

    def setup(self, ctx: NodeContext) -> None:
        color = ctx.input["color"]
        target = ctx.globals["target"]
        ctx.state["stages"] = _kw_stage_plan(ctx.globals["palette"], target)
        ctx.state["stage_index"] = 0
        if not ctx.state["stages"]:
            ctx.state["color"] = color
            ctx.publish(color)
            ctx.halt(color)
            return
        block, offset = divmod(color, 2 * target)
        ctx.state["pair"] = (block, offset)
        ctx.publish(ctx.state["pair"])
        ctx.sleep_until(self._next_wake(ctx))

    def _next_wake(self, ctx: NodeContext) -> int:
        """First round at which this vertex must act in its stage:
        its recolor round (offset >= target only) or the stage-end
        round, whichever comes first."""
        target = ctx.globals["target"]
        si = ctx.state["stage_index"]
        start = si * target
        end = start + target - 1
        __, offset = ctx.state["pair"]
        if offset >= target:
            return min(start + (2 * target - 1 - offset), end)
        return end

    def step(self, ctx: NodeContext, inbox: Inbox) -> None:
        target = ctx.globals["target"]
        stages: Tuple[int, ...] = ctx.state["stages"]
        si = ctx.state["stage_index"]
        start = si * target
        block, offset = ctx.state["pair"]
        if offset >= target and ctx.now == start + (2 * target - 1 - offset):
            taken = {
                pair[1]
                for pair in _relevant(ctx, inbox)
                if isinstance(pair, tuple) and pair[0] == block
            }
            offset = _smallest_free(taken, target)
            ctx.state["pair"] = (block, offset)
            ctx.publish(ctx.state["pair"])
        if ctx.now == start + target - 1:
            # Stage complete: collapse the pair into the halved palette
            # and either halt or re-split for the next stage.
            color = block * target + offset
            if si + 1 >= len(stages):
                ctx.state["color"] = color
                ctx.publish(color)
                ctx.halt(color)
                return
            ctx.state["stage_index"] = si + 1
            block, offset = divmod(color, 2 * target)
            ctx.state["pair"] = (block, offset)
            ctx.publish(ctx.state["pair"])
        ctx.sleep_until(self._next_wake(ctx))


@lru_cache(maxsize=4096)
def _kw_stage_plan(palette: int, target: int) -> Tuple[int, ...]:
    """Palette size at the start of each stage, until <= target.

    Common knowledge: computed once per ``(palette, target)`` and shared
    read-only by every vertex of a run."""
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    stages = []
    m = palette
    while m > target:
        stages.append(m)
        blocks = (m + 2 * target - 1) // (2 * target)
        m = blocks * target
        if stages and len(stages) > 1 and m >= stages[-2]:
            raise AssertionError(
                f"palette not shrinking ({stages[-2]} -> {m}); "
                f"target {target} too close to palette"
            )
        if len(stages) > 10_000:
            raise AssertionError("stage plan did not converge")
    return tuple(stages)


def _smallest_free(taken: set, end: int, start: int = 0) -> int:
    """Smallest color in ``[start, end)`` not in ``taken``."""
    for c in range(start, end):
        if c not in taken:
            return c
    raise AssertionError(
        "no free color — caller violated the palette/degree precondition"
    )