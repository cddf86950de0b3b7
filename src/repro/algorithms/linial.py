"""Linial's coloring algorithm (Theorems 1 and 2 of the paper).

Theorem 1 (Linial): a ``k``-colored graph can be re-colored with
``O(Δ² log k)`` colors in **one** round.  The engine of the proof is a
*Δ-cover-free family*: sets ``S_1, .., S_k`` over a ground set ``[m]``
such that no ``S_i`` is covered by the union of any Δ others.  Each
vertex picks, as its new color, an element of ``S_{old(v)}`` not in
``∪_{u ∈ N(v)} S_{old(u)}`` — distinct across every edge because the
neighbor's new color lies inside its own set.

Theorem 2: iterating Theorem 1 reaches ``β·Δ²`` colors in
``O(log* n − log* Δ + 1)`` rounds.

Our constructive family uses polynomials over a prime field F_q: color
``i`` encodes a polynomial ``p_i`` of degree ≤ d, and
``S_i = {(x, p_i(x)) : x ∈ F_q} ⊆ F_q × F_q``.  Distinct polynomials
agree on ≤ d points, so for ``q > Δ·d`` the union of Δ foreign sets
misses some element of ``S_i``.  The palette has size ``q²``; with the
parameter search in :func:`choose_cover_free_params` this is
``O(Δ² log² k)`` in the worst case — a polylog factor above Theorem 1's
``5Δ² log k``, which changes no asymptotic used anywhere in the paper
(the iterated fixed point is still ``O(Δ²)``; see DESIGN.md).

A recoloring step builds no set.  The elements ``x·q + p_i(x)`` of
``S_i`` ascend with ``x``, and ``S_j`` contains ``x·q + p_i(x)`` exactly
when ``p_j(x) = p_i(x)``; so the smallest element of ``S_i`` outside the
neighbors' sets sits at the smallest evaluation point ``x`` where no
neighbor's polynomial agrees with ``p_i``.  :func:`linial_recolor` scans
``x = 0, 1, ..`` and usually stops at the first point — the same rule
the vectorized Linial kernel applies to all vertices at once.
:func:`cover_free_set` still builds whole sets for callers that index
them (the randomized-from-deterministic transform, the tests).

The module also provides the *oriented* variant used on forests: if every
vertex avoids only its **out**-neighbors along a given orientation with
out-degree ≤ d, the same argument colors with a palette depending on d
rather than Δ.  This powers Theorem 9's tree coloring.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

from ..core.algorithm import Inbox, SyncAlgorithm
from ..core.context import NodeContext


def is_prime(x: int) -> bool:
    """Deterministic primality for the small moduli used here."""
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def next_prime(x: int) -> int:
    """Smallest prime >= x."""
    candidate = max(2, x)
    while not is_prime(candidate):
        candidate += 1
    return candidate


@lru_cache(maxsize=4096)
def choose_cover_free_params(k: int, degree: int) -> Tuple[int, int]:
    """Pick ``(d, q)`` for a ``degree``-cover-free family of ``k`` sets.

    Requirements: ``q`` prime, ``q > degree * d``, ``q^(d+1) >= k``.
    Returns the pair minimizing the palette size ``q²``.
    """
    if k < 1:
        raise ValueError(f"family size must be >= 1, got {k}")
    degree = max(1, degree)
    best: Optional[Tuple[int, int]] = None
    max_d = max(1, int(math.log2(max(k, 2))) + 1)
    for d in range(1, max_d + 1):
        # Smallest q with q^(d+1) >= k, bumping for float error.
        base = int(math.ceil(k ** (1.0 / (d + 1))))
        while base ** (d + 1) < k:
            base += 1
        q = next_prime(max(base, degree * d + 1))
        if best is None or q * q < best[1] ** 2:
            best = (d, q)
    assert best is not None
    return best


def cover_free_palette_size(k: int, degree: int) -> int:
    """Palette size of one recoloring step from ``k`` colors."""
    _, q = choose_cover_free_params(k, degree)
    return q * q


def _coefficients(color: int, d: int, q: int) -> List[int]:
    """The ``d + 1`` base-``q`` digits of ``color``: the coefficients of
    the polynomial ``p_color`` over F_q, highest degree first."""
    coeffs = []
    rest = color
    for _ in range(d + 1):
        coeffs.append(rest % q)
        rest //= q
    if rest:
        raise ValueError(f"color {color} out of range for q={q}, d={d}")
    coeffs.reverse()
    return coeffs


def _evaluate(coeffs: List[int], x: int, q: int) -> int:
    """Horner evaluation of ``p(x) mod q``."""
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % q
    return acc


@lru_cache(maxsize=65536)
def cover_free_set(color: int, d: int, q: int) -> frozenset:
    """The set ``S_color``: the graph of the polynomial encoded by
    ``color`` in base ``q``, as elements ``x * q + p(x)``."""
    coeffs = _coefficients(color, d, q)
    return frozenset(x * q + _evaluate(coeffs, x, q) for x in range(q))


def linial_recolor(
    color: int, neighbor_colors: Iterable[int], k: int, degree: int
) -> int:
    """One Theorem-1 step for a single vertex.

    ``neighbor_colors`` are the colors this vertex must escape from: all
    neighbors for the classic algorithm, out-neighbors only for the
    oriented variant.  Returns a color in ``0 .. q²-1``: the smallest
    element of ``S_color`` outside every escaped neighbor's set.

    No set is built.  The elements ``x·q + p(x)`` of a set ascend with
    ``x`` (``0 <= p(x) < q``), and ``x·q + p_color(x)`` lies in
    ``S_c`` exactly when ``p_c(x) = p_color(x)``.  So the answer is
    ``x·q + p_color(x)`` at the smallest ``x`` where no escaped
    neighbor's polynomial agrees with this vertex's.  Digits are read
    own color first, then neighbors in order, so an out-of-range color
    raises the same ``ValueError`` as :func:`cover_free_set` would.
    """
    d, q = choose_cover_free_params(k, degree)
    own = _coefficients(color, d, q)
    others = [_coefficients(c, d, q) for c in neighbor_colors]
    for x in range(q):
        value = _evaluate(own, x, q)
        for coeffs in others:
            if _evaluate(coeffs, x, q) == value:
                break
        else:
            return x * q + value
    raise AssertionError(
        "cover-free property violated — more neighbors than the family "
        "parameter supports"
    )


@lru_cache(maxsize=4096)
def linial_schedule(
    k0: int, degree: int, floor: Optional[int] = None
) -> Tuple[int, ...]:
    """Palette sizes ``(k0, k1, ..)`` of iterated recoloring, stopping
    when the palette stops shrinking (or drops to ``floor``).

    Every vertex can compute this schedule locally from the public
    parameters, so all vertices agree on the number of rounds — that is
    how the distributed algorithm knows when to stop.  It depends on
    common knowledge only, so it is computed once per argument tuple and
    shared (read-only) by every vertex.
    """
    schedule = [k0]
    while True:
        k = schedule[-1]
        nxt = cover_free_palette_size(k, degree)
        if nxt >= k:
            break
        schedule.append(nxt)
        if floor is not None and nxt <= floor:
            break
        if len(schedule) > 10_000:
            raise AssertionError("schedule did not converge")
    return tuple(schedule)


def linial_fixed_point(degree: int) -> int:
    """The palette size at which iterated recoloring stalls — the
    ``β·Δ²`` of Theorem 2 for this construction."""
    k = 1 << 62  # effectively "huge": the fixed point is Δ-determined
    schedule = linial_schedule(k, degree)
    return schedule[-1]


class LinialColoring(SyncAlgorithm):
    """DetLOCAL: iterated Theorem-1 recoloring from unique IDs down to
    the O(Δ²) fixed point (Theorem 2).

    Globals:
        ``id_space`` (optional): size of the ID space; defaults to the
        smallest power of two holding ``n`` distinct IDs.  IDs must be
        smaller than ``id_space``.

    Output: the final color.  Round count is ``len(schedule) - 1``.
    """

    name = "linial-coloring"

    def setup(self, ctx: NodeContext) -> None:
        k0 = ctx.globals.get("id_space")
        if k0 is None:
            k0 = 1 << max(1, (ctx.n - 1).bit_length())
        degree = max(1, ctx.max_degree)
        ctx.state["schedule"] = linial_schedule(k0, degree)
        ctx.state["round"] = 0
        ctx.state["color"] = ctx.id
        ctx.state["degree_param"] = degree
        ctx.publish(ctx.id)
        if len(ctx.state["schedule"]) == 1:
            # A schedule of length 1 means id_space is already at (or
            # below) the Theorem-2 fixed point, so the distinct IDs
            # *are* a proper coloring with the declared palette; the
            # guard is invisible to the radius lattice, which sees only
            # an unconditional radius-0 halt on ctx.id.
            ctx.halt(ctx.id)  # repro: ignore[LM010]

    def step(self, ctx: NodeContext, inbox: Inbox) -> None:
        schedule = ctx.state["schedule"]
        i = ctx.state["round"]
        k = schedule[i]
        new_color = linial_recolor(
            ctx.state["color"], list(inbox), k, ctx.state["degree_param"]
        )
        ctx.state["color"] = new_color
        ctx.state["round"] = i + 1
        ctx.publish(new_color)
        if i + 1 >= len(schedule) - 1:
            ctx.halt(new_color)


class OrientedLinialColoring(SyncAlgorithm):
    """DetLOCAL: iterated recoloring where each vertex escapes only its
    **out**-neighbors along an input orientation of out-degree ≤ d.

    Node input:
        ``out_ports``: list of this vertex's ports that are oriented
        outward.
    Globals:
        ``out_degree``: the bound d (common knowledge);
        ``id_space`` (optional): as in :class:`LinialColoring`.

    Correctness: across every oriented edge the tail's new color avoids
    the head's whole set while the head's new color stays inside it, so
    the coloring is proper on *all* edges even though each vertex looks
    at only d of its neighbors.
    """

    name = "oriented-linial-coloring"

    def setup(self, ctx: NodeContext) -> None:
        k0 = ctx.globals.get("id_space")
        if k0 is None:
            k0 = 1 << max(1, (ctx.n - 1).bit_length())
        d = max(1, ctx.globals["out_degree"])
        ctx.state["schedule"] = linial_schedule(k0, d)
        ctx.state["round"] = 0
        ctx.state["color"] = ctx.id
        ctx.state["degree_param"] = d
        ctx.publish(ctx.id)
        if len(ctx.state["schedule"]) == 1:
            # Same waiver as LinialColoring.setup: length-1 schedule ⇒
            # the ID space is already within the fixed-point palette, so
            # halting on the (distinct) IDs is a valid coloring.
            ctx.halt(ctx.id)  # repro: ignore[LM010]

    def step(self, ctx: NodeContext, inbox: Inbox) -> None:
        schedule = ctx.state["schedule"]
        i = ctx.state["round"]
        k = schedule[i]
        out_colors = [inbox[p] for p in ctx.input["out_ports"]]
        new_color = linial_recolor(
            ctx.state["color"], out_colors, k, ctx.state["degree_param"]
        )
        ctx.state["color"] = new_color
        ctx.state["round"] = i + 1
        ctx.publish(new_color)
        if i + 1 >= len(schedule) - 1:
            ctx.halt(new_color)
