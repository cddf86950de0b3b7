"""Theorems 6 and 8, executable: the deterministic speedup transform.

Theorem 6: if a DetLOCAL algorithm A solves an LCL P (radius r) on a
hereditary graph class in ``f(Δ) + ε·log_Δ n`` rounds, then A can be
transformed, *black box*, into A' running in
``O((1 + f(Δ)) · (log* n − log* Δ + 1))`` rounds.  Theorem 8 is the same
engine with the parametrization ``O(log^k Δ + log^{k/(k+1)} n)`` →
``O(log^k Δ · (log* n − log* Δ + 1))``.

The mechanism (Section V): A's n-dependence can only enter through the
length ℓ of the IDs.  So A' first computes *short* IDs of length
ℓ' = O((f(Δ) + τ + r)·log Δ) that are distinct within distance
``D = 4f(Δ) + 2τ + 2r`` — one run of Linial's algorithm on the power
graph G^D, simulated in G at a factor-D slowdown — and then runs A
as-is, lying to it that the graph has 2^(ℓ') vertices.  Because the
class is hereditary and A is correct on all graphs of that size, and
because A can only ever see one ball of radius 2f+τ+r (in which the
short IDs *are* unique), the output labeling is legal.

:func:`speedup_transform` implements exactly this pipeline for any
driver with the signature ``driver(graph, ids, id_space) ->``
:class:`~repro.algorithms.drivers.AlgorithmReport`.  The round count it
reports is ``D · (rounds of Linial on G^D) + rounds of A under short
IDs`` — the theorem's accounting.  Experiment E7 shows the transform
collapsing an ε·log_Δ n-round algorithm to O(log* n)-type growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..algorithms.drivers import AlgorithmReport, PhaseLog
from ..algorithms.linial import LinialColoring, linial_schedule
from ..core.context import Model
from ..core.engine import run_local
from ..core.ids import sequential_ids
from ..graphs.graph import Graph

#: A driver eligible for the transform: solves its LCL for any unique
#: IDs drawn from the announced space, on the (hereditary) input class.
Driver = Callable[[Graph, Sequence[int], int], AlgorithmReport]


@dataclass
class SpeedupResult:
    """Outcome of the transform, with the cost split the theorem uses."""

    report: AlgorithmReport
    collection_radius: int
    short_id_bits: int
    shortening_rounds: int
    base_rounds: int


def shortened_ids(
    graph: Graph,
    ids: Sequence[int],
    id_space: int,
    distance: int,
    max_rounds: int = 100_000,
) -> tuple:
    """IDs distinct within ``distance``, via Linial on the power graph.

    Returns ``(short_ids, id_space', rounds_in_G)`` where rounds_in_G
    already includes the factor-``distance`` simulation slowdown (each
    G^D round = D rounds of G plus one initial collection).
    """
    power = graph.power_graph(distance)
    run = run_local(
        power,
        LinialColoring(),
        Model.DET,
        ids=list(ids),
        global_params={"id_space": id_space},
        max_rounds=max_rounds,
    )
    degree_param = max(1, power.max_degree)
    palette = linial_schedule(id_space, degree_param)[-1]
    bits = max(1, (palette - 1).bit_length())
    rounds_in_g = distance * max(1, run.rounds)
    return run.outputs, 1 << bits, rounds_in_g


def speedup_transform(
    driver: Driver,
    graph: Graph,
    f_delta: int,
    problem_radius: int = 1,
    tau: int = 2,
    ids: Optional[Sequence[int]] = None,
    id_space: Optional[int] = None,
    max_rounds: int = 100_000,
) -> SpeedupResult:
    """Apply the Theorem 6 transform to ``driver`` on ``graph``.

    Parameters
    ----------
    driver:
        The algorithm A, as ``driver(graph, ids, id_space)``.  Its
        correctness must not assume globally unique IDs beyond radius
        ``2·f_delta + tau + problem_radius`` — true for any algorithm
        that honestly runs in ``f(Δ) + ε·log_Δ n`` rounds.
    f_delta:
        The Δ-dependent part of A's running time (the theorem's f(Δ)).
    problem_radius:
        The LCL's checking radius r.
    tau:
        The theorem's constant τ = 1 + log β (2 matches our Linial
        construction's β for small Δ).
    """
    n = graph.num_vertices
    if ids is None:
        ids = sequential_ids(n)
    if id_space is None:
        id_space = 1 << max(1, (max(n, 2) - 1).bit_length())
    distance = 4 * f_delta + 2 * tau + 2 * problem_radius
    log = PhaseLog()
    short_ids, short_space, shortening_rounds = shortened_ids(
        graph, ids, id_space, distance, max_rounds=max_rounds
    )
    log.add_rounds("id-shortening", shortening_rounds)
    base_report = driver(graph, short_ids, short_space)
    for phase in base_report.log.phases:
        log.add_rounds(f"base-{phase.name}", phase.rounds, phase.messages)
    return SpeedupResult(
        report=AlgorithmReport(base_report.labeling, log.total_rounds, log),
        collection_radius=distance,
        short_id_bits=max(1, (short_space - 1).bit_length()),
        shortening_rounds=shortening_rounds,
        base_rounds=base_report.rounds,
    )


def theorem8_budget(k: int, delta: int, n: int) -> float:
    """The Theorem 8 target ``O(log^k Δ · (log* n − log* Δ + 1))``,
    with unit constants — used by tests/benches as a growth yardstick,
    not as an exact bound."""
    from ..analysis.mathx import log_star

    log_delta = math.log2(max(2, delta))
    return (log_delta ** k) * max(1, log_star(n) - log_star(delta) + 1)
