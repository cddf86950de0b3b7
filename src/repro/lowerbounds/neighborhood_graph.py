"""Linial's neighborhood graph: ring lower bounds by exact computation.

Linial's Ω(log* n) lower bound for coloring rings (the ancestor of
every bound in the paper, and the one Naor extended to RandLOCAL) has a
completely finite core: a t-round algorithm on a consistently oriented
ring with IDs from ``[m]`` is *exactly* a proper coloring of the
**neighborhood graph** ``B_t(m)`` —

- vertices: the possible views, i.e. (2t+1)-tuples of distinct IDs;
- edges: pairs of views that can occur at adjacent ring positions,
  ``(u_1, .., u_{2t+1}) ~ (u_2, .., u_{2t+2})``.

A t-round k-coloring algorithm exists **iff** ``χ(B_t(m)) <= k``; the
chain ``χ(B_t(m)) >= log^(2t) m`` then yields Ω(log* n).  For small m
and t the chromatic number is computable outright, so the lower bound
becomes a *certificate* rather than an argument:

>>> linial_ring_certificate(m=6, t=0, colors=3)   # doctest: +SKIP
True   # no 0-round algorithm 3-colors rings with IDs from [6]

Experiment usage: find the smallest ID space ``m`` for which no t-round
3-coloring algorithm exists, and cross-check that the library's
Cole–Vishkin implementation run with that ID space indeed uses more
than t rounds.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..graphs.graph import Graph


def neighborhood_graph(m: int, t: int) -> Graph:
    """``B_t(m)`` as a :class:`Graph` (views canonically indexed).

    The number of vertices is m·(m-1)·...·(m-2t); keep ``m`` and ``t``
    small (m <= 8, t <= 1 is plenty for the certificates used here).
    """
    if m < 2 * t + 2:
        raise ValueError(
            f"need m >= 2t+2 distinct IDs for (2t+1)-views, got m={m}, t={t}"
        )
    width = 2 * t + 1
    views: List[Tuple[int, ...]] = list(
        itertools.permutations(range(m), width)
    )
    index: Dict[Tuple[int, ...], int] = {v: i for i, v in enumerate(views)}
    edges = []
    for view in views:
        suffix = view[1:]
        for nxt in range(m):
            if nxt in view:
                continue
            other = suffix + (nxt,)
            a, b = index[view], index[other]
            if a < b:
                edges.append((a, b))
            elif b < a:
                edges.append((b, a))
    # Deduplicate (u ~ v can arise from both directions for t = 0).
    return Graph(len(views), sorted(set(edges)))


def is_k_colorable(
    graph: Graph, k: int, node_limit: int = 2_000_000
) -> Optional[bool]:
    """Exact k-colorability by backtracking (DSATUR-ordered).

    Returns True/False, or ``None`` if the search exceeds
    ``node_limit`` decisions (undecided).
    """
    n = graph.num_vertices
    if n == 0:
        return True
    colors: List[Optional[int]] = [None] * n
    budget = [node_limit]

    def saturation(v: int) -> int:
        return len(
            {colors[u] for u in graph.neighbors(v) if colors[u] is not None}
        )

    def pick() -> Optional[int]:
        best, best_key = None, None
        for v in range(n):
            if colors[v] is not None:
                continue
            key = (saturation(v), graph.degree(v))
            if best_key is None or key > best_key:
                best, best_key = v, key
        return best

    def backtrack() -> Optional[bool]:
        v = pick()
        if v is None:
            return True
        forbidden = {
            colors[u] for u in graph.neighbors(v) if colors[u] is not None
        }
        for c in range(k):
            if c in forbidden:
                continue
            budget[0] -= 1
            if budget[0] <= 0:
                return None
            colors[v] = c
            result = backtrack()
            if result:
                return True
            if result is None:
                colors[v] = None
                return None
            colors[v] = None
            # Symmetry breaking: trying a color never used before is
            # equivalent for all such colors.
            if c not in set(x for x in colors if x is not None):
                break
        return False

    return backtrack()


def ring_chromatic_lower_bound(m: int, t: int, colors: int) -> Optional[bool]:
    """Whether **no** t-round algorithm ``colors``-colors oriented rings
    whose IDs come from ``[m]`` — i.e. whether χ(B_t(m)) > colors.

    True = certified impossible; False = an algorithm exists (the
    coloring of B_t *is* the algorithm); None = search inconclusive.
    """
    graph = neighborhood_graph(m, t)
    colorable = is_k_colorable(graph, colors)
    if colorable is None:
        return None
    return not colorable


def linial_ring_certificate(
    m: int, t: int, colors: int
) -> Optional[bool]:
    """Alias of :func:`ring_chromatic_lower_bound` with the customary
    name, for discoverability."""
    return ring_chromatic_lower_bound(m, t, colors)


def smallest_hard_id_space(
    t: int, colors: int, m_max: int = 9
) -> Optional[int]:
    """The smallest m <= m_max for which no t-round ``colors``-coloring
    algorithm exists (None if every m <= m_max admits one)."""
    for m in range(2 * t + 2, m_max + 1):
        verdict = ring_chromatic_lower_bound(m, t, colors)
        if verdict:
            return m
    return None
