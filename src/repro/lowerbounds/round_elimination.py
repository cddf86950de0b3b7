"""Lemmas 1–2 (Brandt et al.) as error-amplification arithmetic.

The Theorem 4 proof pipeline: a t-round Δ-sinkless-coloring algorithm
with per-edge failure p yields, via Lemma 1 then Lemma 2, a (t−1)-round
sinkless-coloring algorithm with failure < 7·p^{1/(3(Δ+1))}; iterating t
times yields a 0-round algorithm whose failure must still beat the 1/Δ²
base case (:mod:`repro.lowerbounds.zero_round`) — contradiction unless
t is large.

These are statements about *all* algorithms, so they cannot be run; but
their arithmetic can, and it is exactly what fixes the constants in
:func:`repro.lowerbounds.bounds.theorem4_rounds`.  This module exposes
the amplification chain so tests and benches can recompute the theorem's
round bound from first principles and compare it against the closed
form.
"""

from __future__ import annotations

from typing import List


def lemma1_failure(p: float, delta: int) -> float:
    """Lemma 1: coloring failure p → orientation failure 2Δ·p^(1/3)."""
    _check_probability(p)
    return min(1.0, 2.0 * delta * p ** (1.0 / 3.0))


def lemma2_failure(p: float, delta: int) -> float:
    """Lemma 2: orientation failure p → coloring failure
    4·p^(1/(Δ+1)) (and one round cheaper)."""
    _check_probability(p)
    return min(1.0, 4.0 * p ** (1.0 / (delta + 1.0)))


def one_round_elimination(p: float, delta: int) -> float:
    """One full elimination step (Lemma 1 then Lemma 2):
    failure p → 4·(2Δ)^{1/(Δ+1)}·p^{1/(3(Δ+1))} < 7·p^{1/(3(Δ+1))}."""
    return lemma2_failure(lemma1_failure(p, delta), delta)


def amplification_chain(p: float, delta: int, t: int) -> List[float]:
    """Failure probabilities along t elimination steps, starting at p."""
    chain = [p]
    for _ in range(t):
        chain.append(one_round_elimination(chain[-1], delta))
    return chain


def paper_amplified_failure(p: float, delta: int, t: int) -> float:
    """The closed form the paper uses for the end of the chain:
    p^{(1/(3(Δ+1)))^t}, constants absorbed (valid once
    ε·log_{3(Δ+1)} ln(1/p) >= 1)."""
    _check_probability(p)
    exponent = (1.0 / (3.0 * (delta + 1.0))) ** t
    return p ** exponent


def max_eliminable_rounds(p: float, delta: int) -> int:
    """The largest t for which the amplified 0-round failure stays
    below the 1/Δ² base case — i.e. the round lower bound the chain
    certifies for failure probability p.

    Computed by walking the *actual* chain (with the lemmas' constants),
    not the simplified closed form, so the returned t is the honest
    consequence of Lemmas 1–2.
    """
    _check_probability(p)
    base_case = 1.0 / (delta * delta)
    t = 0
    failure = p
    while failure < base_case and t < 10_000:
        failure = one_round_elimination(failure, delta)
        t += 1
    return max(0, t - 1)


def girth_requirement(t: int) -> int:
    """Lemmas 1–2 need t < (g−1)/2: the smallest girth supporting t
    elimination steps."""
    return 2 * t + 2


def _check_probability(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"probability must be in (0, 1], got {p}")
