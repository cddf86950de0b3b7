"""The base case of Theorem 4's round elimination, verified exactly.

The paper's argument bottoms out at: *any 0-round RandLOCAL algorithm
for Δ-sinkless coloring on a Δ-regular edge-colored graph produces a
forbidden configuration (monochromatic edge) with probability at least
1/Δ².*  A 0-round algorithm sees only the vertex's own ports and their
edge colors, and all vertices are undifferentiated, so it is exactly a
probability distribution over colors (one distribution per observable
port-coloring, but on the vertex-transitive hard instances every vertex
observes the same multiset {0..Δ-1}).

Here we make that statement checkable:

- :func:`monochromatic_probability` — exact failure probability of a
  given color distribution on an edge of each color;
- :func:`optimal_zero_round_failure` — the minimax value
  min over distributions of max over edge colors, computed both in
  closed form (uniform is optimal, value 1/Δ²) and numerically with
  scipy, so the claim is verified rather than asserted;
- :func:`port_aware_failure` — the refinement where the algorithm may
  condition on the port *order* of the colors: on edge-transitive
  instances the adversary can permute ports, and the guarantee again
  collapses to 1/Δ² (verified by randomized search in the tests).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence


def monochromatic_probability(
    distribution: Sequence[float], edge_color: int
) -> float:
    """Probability that both endpoints of an edge of color ``edge_color``
    pick that color, under independent draws from ``distribution``."""
    p = distribution[edge_color]
    return p * p


def worst_edge_failure(distribution: Sequence[float]) -> float:
    """The adversary picks the worst edge color:
    ``max_c distribution[c]²``."""
    _validate(distribution)
    return max(p * p for p in distribution)


def closed_form_optimum(delta: int) -> float:
    """The paper's bound: the minimax failure is exactly 1/Δ²
    (uniform distribution; pigeonhole gives max_c p_c >= 1/Δ)."""
    if delta < 1:
        raise ValueError("Δ must be >= 1")
    return 1.0 / (delta * delta)


def optimal_zero_round_failure(
    delta: int, use_scipy: bool = True
) -> float:
    """Minimize ``max_c p_c²`` over the probability simplex.

    With scipy available the optimization is run numerically (SLSQP
    from several starts) and cross-checked against the closed form;
    without it the closed form is returned.
    """
    closed = closed_form_optimum(delta)
    if not use_scipy:
        return closed
    try:
        import numpy as np
        from scipy.optimize import minimize
    except ImportError:  # pragma: no cover - scipy is an install extra
        return closed

    def objective(p: "np.ndarray") -> float:
        return float(np.max(p * p))

    best = math.inf
    rng = np.random.default_rng(0)
    for attempt in range(5):
        if attempt == 0:
            start = np.full(delta, 1.0 / delta)
        else:
            start = rng.dirichlet(np.ones(delta))
        result = minimize(
            objective,
            start,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * delta,
            constraints=[{"type": "eq", "fun": lambda p: p.sum() - 1.0}],
        )
        if result.success:
            best = min(best, float(result.fun))
    if not math.isfinite(best):
        return closed
    # The optimizer can only confirm the closed form (up to tolerance).
    if best < closed - 1e-6:
        raise AssertionError(
            f"numerical optimum {best} beat the closed form {closed} — "
            "the 1/Δ² base case would be falsified"
        )
    return min(best, closed + 1e-9)


def port_aware_failure(
    strategy: Callable[[Sequence[int]], Sequence[float]],
    delta: int,
    trials: Optional[int] = None,
) -> float:
    """Worst-case failure of a *port-aware* 0-round algorithm.

    ``strategy(port_colors)`` maps the observed port-color order to a
    color distribution.  The adversary chooses, independently for each
    endpoint, the port order and the edge's position in it — we check
    all (or ``trials`` random) pairs of orders and all edge colors and
    return the maximum monochromatic probability.  Theorem 4's base
    case says this is >= 1/Δ² for every strategy; the tests probe a
    family of strategies against this floor.
    """
    colors = list(range(delta))
    orders = list(itertools.permutations(colors)) if delta <= 5 else None
    if orders is None:
        import random as _random

        rng = _random.Random(12345)
        count = trials or 200
        orders = [
            tuple(rng.sample(colors, delta)) for _ in range(count)
        ]
    worst = 0.0
    for edge_color in colors:
        for order_u in orders:
            pu = strategy(list(order_u))
            _validate(pu)
            for order_v in orders:
                pv = strategy(list(order_v))
                prob = pu[edge_color] * pv[edge_color]
                worst = max(worst, prob)
    return worst


def _validate(distribution: Sequence[float]) -> None:
    if any(p < -1e-12 for p in distribution):
        raise ValueError("negative probability")
    total = sum(distribution)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"distribution sums to {total}, not 1")
