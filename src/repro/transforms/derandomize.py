"""Theorem 3, executable: ``Det_P(n, Δ) <= Rand_P(2^(n²), Δ)``.

The proof converts any RandLOCAL algorithm A_rand with failure
probability 1/N (N = 2^(n²) >= |𝒢_{n,Δ}|) into a DetLOCAL algorithm: fix
a *seed function* φ mapping IDs to random strings; run A_rand with
vertex v's randomness replaced by φ(ID(v)).  A union bound over the
(finite!) family 𝒢_{n,Δ} shows a random φ is *good* — correct on every
member simultaneously — with positive probability, so a good φ exists,
and the deterministic algorithm hard-codes the lexicographically first
one.

The construction is doubly exponential by design; this module executes
it at toy scale:

- :func:`enumerate_family` — all graphs on vertex set {0..n-1} with max
  degree <= Δ (vertex labels double as the IDs, which is exactly the
  family 𝒢 with ID space {0..n-1});
- :func:`find_good_seed_function` — search candidate seed functions
  φ_s(id) = H(s, id) (indexed by a master seed s) until one passes
  *every* graph in the family, verifying with the problem's LCL checker.

The returned :class:`Derandomization` is a genuinely deterministic
algorithm: :meth:`Derandomization.run` replays A_rand with the fixed φ
on any member of the family, and never errs (that is what the search
certified).  Experiment E6 measures family sizes and the number of
candidate seeds needed as the per-graph failure probability varies.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from ..core.algorithm import SyncAlgorithm
from ..core.context import Model
from ..core.engine import RunResult, run_local
from ..graphs.graph import Graph
from ..lcl.problem import LCLProblem


def enumerate_family(n: int, max_degree: int) -> Iterator[Graph]:
    """All graphs on vertex set {0..n-1} with maximum degree <= Δ.

    The family 𝒢_{n,Δ} of Theorem 3 with the ID space scaled down to
    exactly {0..n-1}: enumerating labeled graphs covers every
    (topology, ID assignment) pair over that space.  Size grows as
    2^(n choose 2); keep n <= 5 or so.
    """
    if n > 7:
        raise ValueError(
            f"family for n={n} has up to 2^{n * (n - 1) // 2} members — "
            "enumerate_family is a toy-scale tool (n <= 7)"
        )
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        degree = [0] * n
        ok = True
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
            if degree[u] > max_degree or degree[v] > max_degree:
                ok = False
                break
        if ok:
            yield Graph(n, edges)


def family_size(n: int, max_degree: int) -> int:
    """|𝒢_{n,Δ}| under the scaled-down ID convention."""
    return sum(1 for _ in enumerate_family(n, max_degree))


def _seed_function(master: int) -> Callable[[int], int]:
    """φ_s: ID -> 64-bit seed, via a splitmix-style hash of (s, ID)."""

    def phi(vertex_id: int) -> int:
        x = (master * 0x9E3779B97F4A7C15 + vertex_id + 1) & (2 ** 64 - 1)
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & (2 ** 64 - 1)
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & (2 ** 64 - 1)
        x ^= x >> 31
        return x

    return phi


@dataclass
class Derandomization:
    """A certified-good seed function for one algorithm on one family."""

    n: int
    max_degree: int
    master_seed: int
    candidates_tried: int
    family_checked: int
    algorithm_factory: Callable[[], SyncAlgorithm]
    problem: LCLProblem
    max_rounds: int = 10_000

    def run(self, graph: Graph, **run_kwargs) -> RunResult:
        """Execute the derived *deterministic* algorithm A_Det[φ]:
        A_rand with vertex randomness fixed to Random(φ(ID(v)))."""
        phi = _seed_function(self.master_seed)
        return run_local(
            graph,
            self.algorithm_factory(),
            Model.RAND,
            rng_factory=lambda v: random.Random(phi(v)),
            max_rounds=self.max_rounds,
            **run_kwargs,
        )


def find_good_seed_function(
    algorithm_factory: Callable[[], SyncAlgorithm],
    problem: LCLProblem,
    n: int,
    max_degree: int,
    max_candidates: int = 512,
    max_rounds: int = 10_000,
    inputs_for: Optional[Callable[[Graph], Optional[Sequence[dict]]]] = None,
) -> Derandomization:
    """Search for a seed function good for *every* graph in 𝒢_{n,Δ}.

    Mirrors the probabilistic existence argument operationally: each
    candidate φ_s is checked against the whole family; the first
    all-correct candidate is returned.  If A_rand's per-run failure
    probability is below 1/|family|, a handful of candidates suffices
    in expectation.

    Raises
    ------
    LookupError
        If no candidate passes within ``max_candidates`` (the
        algorithm's failure probability is too high for this family —
        exactly the quantitative condition of Theorem 3).
    """
    family = list(enumerate_family(n, max_degree))
    for master in range(max_candidates):
        phi = _seed_function(master)
        good = True
        for graph in family:
            node_inputs = inputs_for(graph) if inputs_for else None
            try:
                result = run_local(
                    graph,
                    algorithm_factory(),
                    Model.RAND,
                    rng_factory=lambda v: random.Random(phi(v)),
                    node_inputs=node_inputs,
                    max_rounds=max_rounds,
                )
            except Exception:
                # Non-termination under this seed function (e.g. bid
                # ties forever) counts as a failure of the candidate.
                good = False
                break
            if result.failures or not problem.is_solution(
                graph, result.outputs
            ):
                good = False
                break
        if good:
            return Derandomization(
                n=n,
                max_degree=max_degree,
                master_seed=master,
                candidates_tried=master + 1,
                family_checked=len(family),
                algorithm_factory=algorithm_factory,
                problem=problem,
                max_rounds=max_rounds,
            )
    raise LookupError(
        f"no good seed function among {max_candidates} candidates for "
        f"n={n}, Δ={max_degree} (family size {len(family)}); the "
        "algorithm's failure probability exceeds what the union bound "
        "tolerates"
    )
