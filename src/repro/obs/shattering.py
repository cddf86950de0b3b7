"""The shattering profiler: Theorem 3, measured per run.

The paper's Theorem 3 (graph shattering) says optimal RandLOCAL
algorithms behave like Phase 1 of the tree-coloring algorithm: after
``O(log_Δ log n)`` rounds *most* vertices have fixed their output, and
the vertices still undecided induce components of size
``poly(Δ) · log n`` — small enough to finish with a deterministic
algorithm.  This module makes that measurable from a JSONL trace
(:mod:`repro.obs.trace`):

- the **halt-fraction curve** F(t) — the fraction of vertices resolved
  by the end of each round;
- the **surviving-subgraph component-size distribution** after each
  round (the trace's ``run_start`` line carries the topology);
- a **shattering-round estimate** — the first round where F(t) crosses
  the threshold (default 0.9);
- pass/fail **checks** against the paper's predicted shape, rendered
  by :func:`render_profile_report` and exposed through the
  ``repro profile`` CLI.

Vertices that halt with the *unresolved sentinel* (e.g. the ``BAD``
marker Phase 1 of :func:`repro.algorithms.pettie_su_tree_coloring`
assigns to vertices it abandons) count as **survivors**, not as
resolved — the engine-level halt just hands them to the next phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..analysis.tables import render_kv, render_table
from ..transforms.shattering import component_size_threshold

#: Default F(t) threshold for the shattering-round estimate.
DEFAULT_THRESHOLD = 0.9

#: "No sentinel": with this default every halt counts as resolved.
_NO_SENTINEL = object()

#: The trace event kinds :func:`profile_events` reads.
_PROFILED_KINDS = ("run_start", "halt", "round_end", "run_end")


@dataclass
class RoundShatterStats:
    """One point of the halt-fraction curve."""

    #: Round index (0-based engine rounds).
    round: int
    #: Vertices resolved by the end of this round (cumulative).
    resolved: int
    #: ``resolved / n`` — the curve value F(t).
    halt_fraction: float
    #: Vertices still unresolved.
    survivors: int
    #: Connected components induced by the survivors.
    num_components: int
    #: Largest surviving component (0 when none survive).
    max_component: int


@dataclass
class ShatteringProfile:
    """Everything the profiler measured for one engine run."""

    algorithm: str
    n: int
    num_edges: int
    max_degree: int
    rounds: int
    threshold: float
    #: Vertices resolved during ``setup`` (before round 0).
    setup_resolved: int
    curve: List[RoundShatterStats] = field(default_factory=list)
    #: First round where F(t) >= threshold (None if never crossed).
    shattering_round: Optional[int] = None
    #: The whp component bound Δ⁴ · ln n from the Theorem 10 analysis
    #: (:func:`repro.transforms.component_size_threshold`).
    paper_bound: float = 0.0

    @property
    def final(self) -> Optional[RoundShatterStats]:
        return self.curve[-1] if self.curve else None

    @property
    def final_fraction(self) -> float:
        final = self.final
        if final is not None:
            return final.halt_fraction
        return self.setup_resolved / self.n if self.n else 0.0

    @property
    def max_surviving_component(self) -> int:
        """Largest surviving component at the shattering round (or at
        the final round if the threshold was never crossed)."""
        if self.shattering_round is not None:
            for stats in self.curve:
                if stats.round == self.shattering_round:
                    return stats.max_component
        final = self.final
        return final.max_component if final is not None else self.n

    def checks(self) -> List[Tuple[str, bool, str]]:
        """Pass/fail verdicts against Theorem 3's predicted shape."""
        frac = self.final_fraction
        comp = self.max_surviving_component
        return [
            (
                "halt_fraction",
                frac >= self.threshold,
                f"F(final) = {frac:.4f} vs threshold {self.threshold}",
            ),
            (
                "component_bound",
                comp <= self.paper_bound,
                f"max surviving component {comp} vs "
                f"poly(log n) bound {self.paper_bound:.1f}",
            ),
            (
                "shattered",
                self.shattering_round is not None,
                f"shattering round = {self.shattering_round}",
            ),
        ]

    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks())


def _components(
    survivors: List[bool], adjacency: List[List[int]]
) -> Tuple[int, int]:
    """(count, max size) of components induced by surviving vertices."""
    seen = [False] * len(survivors)
    count = 0
    largest = 0
    for start, alive in enumerate(survivors):
        if not alive or seen[start]:
            continue
        count += 1
        size = 0
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            size += 1
            for u in adjacency[v]:
                if survivors[u] and not seen[u]:
                    seen[u] = True
                    stack.append(u)
        largest = max(largest, size)
    return count, largest


def profile_events(
    events: Iterable[Dict[str, Any]],
    *,
    run: int = 0,
    threshold: float = DEFAULT_THRESHOLD,
    unresolved: Any = _NO_SENTINEL,
) -> ShatteringProfile:
    """Compute a :class:`ShatteringProfile` from trace event dicts.

    ``events`` may be any iterable — including the generator
    :func:`repro.obs.trace.iter_trace` yields — and is consumed in a
    **single forward pass**, so a million-vertex trace profiles in the
    memory of its topology, not of its event stream.

    ``unresolved`` is the halt-output sentinel marking vertices an
    algorithm abandoned rather than resolved (``BAD`` = -1 for the
    tree-coloring Phase 1); pass nothing to count every halt.
    Requires the trace's ``run_start`` line to carry topology
    (``edges``), i.e. written without ``topology=False``.
    """
    stream = iter(events)
    start = None
    for event in stream:
        if event.get("event") == "run_start" and event.get("run") == run:
            start = event
            break
    if start is None:
        raise ValueError(f"trace has no run_start event for run {run}")
    if "edges" not in start:
        raise ValueError(
            "trace was written without topology; rerun the trace "
            "without --no-topology to profile components"
        )
    n = start["n"]
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for u, v in start["edges"]:
        adjacency[u].append(v)
        adjacency[v].append(u)

    resolved = [False] * n
    done = 0
    setup_resolved = 0
    curve: List[RoundShatterStats] = []
    shattering_round: Optional[int] = None
    rounds = 0
    # Resolved vertices only accumulate, so an unchanged count means an
    # unchanged survivor set and the previous row's components.
    scanned_done = -1
    num_components = largest = 0
    for event in stream:
        if event.get("run") != run:
            continue
        kind = event["event"]
        if kind == "halt":
            value = event.get("value")
            if unresolved is _NO_SENTINEL or value != unresolved:
                v = event["v"]
                if not resolved[v]:
                    resolved[v] = True
                    done += 1
                if event["round"] < 0:
                    setup_resolved += 1
        elif kind == "round_end":
            rounds = event["round"] + 1
            fraction = done / n if n else 1.0
            if done != scanned_done:
                num_components, largest = _components(
                    [not r for r in resolved], adjacency
                )
                scanned_done = done
            curve.append(
                RoundShatterStats(
                    round=event["round"],
                    resolved=done,
                    halt_fraction=fraction,
                    survivors=n - done,
                    num_components=num_components,
                    max_component=largest,
                )
            )
            if shattering_round is None and fraction >= threshold:
                shattering_round = event["round"]
        elif kind == "run_end":
            break

    return ShatteringProfile(
        algorithm=start["algorithm"],
        n=n,
        num_edges=start["m"],
        max_degree=start["max_degree"],
        rounds=rounds,
        threshold=threshold,
        setup_resolved=setup_resolved,
        curve=curve,
        shattering_round=shattering_round,
        paper_bound=component_size_threshold(n, start["max_degree"]),
    )


def profile_trace(
    path: str,
    *,
    run: int = 0,
    threshold: float = DEFAULT_THRESHOLD,
    unresolved: Any = _NO_SENTINEL,
) -> ShatteringProfile:
    """Profile a JSONL trace file, streaming (see
    :func:`profile_events` — the file is never loaded whole).  Only the
    lines of the kinds the profiler reads are decoded."""
    from .trace import iter_trace

    return profile_events(
        iter_trace(path, kinds=_PROFILED_KINDS),
        run=run,
        threshold=threshold,
        unresolved=unresolved,
    )


def render_profile_report(profile: ShatteringProfile) -> str:
    """Plain-text report tying the measured curve to Theorem 3."""
    expected_rounds = (
        math.log(math.log(max(profile.n, 3)))
        / math.log(max(profile.max_degree, 2))
        if profile.n > 2
        else 0.0
    )
    header = render_kv(
        f"shattering profile: {profile.algorithm}",
        [
            ["n", profile.n],
            ["edges", profile.num_edges],
            ["max degree", profile.max_degree],
            ["rounds", profile.rounds],
            ["resolved in setup", profile.setup_resolved],
            ["threshold", profile.threshold],
            ["shattering round", profile.shattering_round],
            ["O(log_d log n) scale", f"{expected_rounds:.2f}"],
            [
                "component bound d^4 ln n",
                f"{profile.paper_bound:.1f}",
            ],
        ],
    )
    table = render_table(
        ["round", "resolved", "F(t)", "survivors", "comps", "max comp"],
        [
            [
                s.round,
                s.resolved,
                f"{s.halt_fraction:.4f}",
                s.survivors,
                s.num_components,
                s.max_component,
            ]
            for s in profile.curve
        ],
    )
    verdicts = "\n".join(
        f"[{'ok' if passed else 'FAIL'}] {name}: {detail}"
        for name, passed, detail in profile.checks()
    )
    interpretation = (
        "Theorem 3 (graph shattering): an optimal RandLOCAL algorithm "
        "resolves most vertices within O(log_d log n) rounds; the "
        "unresolved survivors induce components of size poly(d) log n, "
        "finished by a deterministic algorithm.  The F(t) curve above "
        "should rise past the threshold within a few rounds and the "
        "surviving max component should stay under the bound."
    )
    return "\n\n".join([header, table, verdicts, interpretation])


__all__ = [
    "DEFAULT_THRESHOLD",
    "RoundShatterStats",
    "ShatteringProfile",
    "profile_events",
    "profile_trace",
    "render_profile_report",
]
