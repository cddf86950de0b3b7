"""Seeded instance generation and shrinking for the verification suite.

Everything here is a pure function of a 64-bit seed: the graph drawn
from a driver's instance family, the ID assignment, and the per-run
seed all come from independent splitmix64 streams (:func:`mix64` from
:mod:`repro.faults.runtime` — the same order-independent hash the fault
adversary uses), so a counterexample is reproduced from its
``(seed, n)`` pair alone and never depends on generator call order.

Shrinking is halve-and-retest on the vertex count: given a failing
instance, repeatedly rebuild the instance at ``n // 2`` (then ``n - 1``
when halving overshoots) *from the same seed* and keep the smaller
instance whenever the failure predicate still holds.  Instance families
may round ``n`` up to their structural constraints (parity, complete
trees), so progress is measured on the *realized* vertex count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, List, Tuple

from ..faults.runtime import mix64
from ..graphs.graph import Graph

#: Independent derivation streams (never reuse a constant across
#: purposes — a graph coin flip must not correlate with an ID swap).
_STREAM_GRAPH = 0x67656E
_STREAM_IDS = 0x696473
_STREAM_RUN = 0x72756E

#: A graph family: seeded builder taking a *requested* size (the family
#: may round up to its structural minimum / parity).
GraphFamily = Callable[[int, random.Random], Graph]


def derive_rng(seed: int, *parts: int) -> random.Random:
    """A :class:`random.Random` keyed by ``(seed, *parts)``."""
    return random.Random(mix64(seed, *parts))


def shuffled_ids(n: int, seed: int, *parts: int) -> List[int]:
    """A seeded permutation of ``0 .. n-1`` used as an ID assignment.

    Dense permutations (rather than sparse random IDs) keep every
    driver's internally derived ID-space assumptions valid while still
    exercising arbitrary ID placement.
    """
    ids = list(range(n))
    derive_rng(seed, _STREAM_IDS, *parts).shuffle(ids)
    return ids


@dataclass(frozen=True)
class Instance:
    """One reproducible test instance.

    ``graph``/``ids``/``run_seed`` are all derived from ``seed`` and the
    requested size; ``n`` records the *realized* vertex count (families
    may round the request up).
    """

    seed: int
    requested_n: int
    graph: Graph
    ids: Tuple[int, ...]
    run_seed: int

    @property
    def n(self) -> int:
        return self.graph.num_vertices

    def describe(self) -> dict:
        """JSON-safe reproduction coordinates."""
        return {
            "seed": self.seed,
            "requested_n": self.requested_n,
            "n": self.n,
            "m": self.graph.num_edges,
            "max_degree": self.graph.max_degree,
            "run_seed": self.run_seed,
        }


def make_instance(
    family: GraphFamily, requested_n: int, seed: int
) -> Instance:
    """Build the instance determined by ``(family, requested_n, seed)``."""
    graph = family(requested_n, derive_rng(seed, _STREAM_GRAPH, requested_n))
    return Instance(
        seed=seed,
        requested_n=requested_n,
        graph=graph,
        ids=tuple(shuffled_ids(graph.num_vertices, seed, requested_n)),
        run_seed=mix64(seed, _STREAM_RUN, requested_n),
    )


def reshuffled(instance: Instance, salt: int) -> Instance:
    """The same instance under an independently shuffled ID assignment
    (the lever of the ID-relabeling relation)."""
    fresh = shuffled_ids(
        instance.n, instance.seed, instance.requested_n, salt
    )
    return replace(instance, ids=tuple(fresh))


def shrink_instance(
    instance: Instance,
    still_fails: Callable[[Instance], bool],
    family: GraphFamily,
    min_n: int,
    max_steps: int = 64,
) -> Instance:
    """Minimize a failing instance by halve-and-retest on vertices.

    ``still_fails`` must be the exact failure predicate that flagged
    ``instance`` (it is re-run on every candidate, so a flaky predicate
    would shrink to noise — all predicates in this package are seeded
    and deterministic).  Returns the smallest failing instance found;
    at worst the input itself.
    """
    current = instance
    for _ in range(max_steps):
        n = current.requested_n
        candidates = []
        half = max(min_n, n // 2)
        if half < n:
            candidates.append(half)
        if n - 1 >= min_n and n - 1 != half:
            candidates.append(n - 1)
        for candidate_n in candidates:
            candidate = make_instance(family, candidate_n, instance.seed)
            if candidate.n >= current.n:
                # The family rounded back up; no real progress.
                continue
            if still_fails(candidate):
                break
        else:
            return current
        current = candidate
    return current


# ----------------------------------------------------------------------
# Structure-preserving graph transforms (the metamorphic levers)
# ----------------------------------------------------------------------
def permute_ports(graph: Graph, seed: int) -> Graph:
    """The same abstract graph under a fresh port numbering.

    Per-vertex port order is exactly edge-insertion order, so shuffling
    the edge list realizes a (correlated-at-random) port renumbering at
    every vertex without touching the underlying adjacency.
    """
    rng = derive_rng(seed, 0x706F7274)
    edges = list(graph.edges())
    rng.shuffle(edges)
    return Graph(graph.num_vertices, edges)


def permute_vertices(
    graph: Graph, perm: List[int]
) -> Graph:
    """The image of ``graph`` under the vertex permutation ``perm``
    (vertex ``v`` becomes ``perm[v]``), with port structure preserved.

    Edge-insertion order is kept, so port ``p`` of ``perm[v]`` in the
    image leads to ``perm[graph.endpoint(v, p)]`` — each vertex's local
    view is bitwise identical, only the simulation handles move.
    """
    edges = [(perm[u], perm[v]) for (u, v) in graph.edges()]
    return Graph(graph.num_vertices, edges)


def random_permutation(n: int, seed: int, *parts: int) -> List[int]:
    """A seeded permutation of ``0 .. n-1`` (as a mapping list)."""
    perm = list(range(n))
    derive_rng(seed, 0x7065726D, *parts).shuffle(perm)
    return perm


def apply_inverse(perm: List[int]) -> List[int]:
    """The inverse mapping of ``perm``."""
    inverse = [0] * len(perm)
    for v, image in enumerate(perm):
        inverse[image] = v
    return inverse


__all__ = [
    "GraphFamily",
    "Instance",
    "apply_inverse",
    "derive_rng",
    "make_instance",
    "permute_ports",
    "permute_vertices",
    "random_permutation",
    "reshuffled",
    "shrink_instance",
    "shuffled_ids",
]
