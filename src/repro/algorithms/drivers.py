"""Multi-phase driver utilities and the shipped-driver registry.

The paper's algorithms are pipelines: "compute a coloring, then reduce
it, then shatter, then finish on the components".  Each stage is an
honest engine run; a :class:`PhaseLog` accumulates the exact round
counts so a pipeline reports the *sum* of its stages — the round
complexity a single monolithic LOCAL algorithm would incur, since every
stage's length is computable from common knowledge (all vertices switch
phases in lockstep).

The second half of this module is the **driver registry**: one
:class:`DriverSpec` per shipped end-to-end driver, carrying the
machine-checkable metadata the verification subsystem
(:mod:`repro.verify`) consumes — the LCL problem the driver claims to
solve, a declared round-complexity bound (audited on every certified
run), an instance generator for its natural graph family, and the
model/knob flags that decide which metamorphic relations apply.  A new
driver ships by adding a spec here; :func:`validate_registry` (wired
into the meta-tests and ``repro verify``) fails loudly on entries with
missing metadata.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.context import Model
from ..core.engine import RunResult
from ..core.errors import VerificationError
from ..graphs.graph import Graph
from ..lcl import (
    KColoring,
    LCLProblem,
    MaximalIndependentSet,
    MaximalMatching,
    SinklessOrientation,
)


@dataclass
class Phase:
    """One completed stage of a pipeline."""

    name: str
    rounds: int
    messages: int = 0


@dataclass
class PhaseLog:
    """Accumulates stages; ``total_rounds`` is the pipeline's cost."""

    phases: List[Phase] = field(default_factory=list)

    def add(self, name: str, result: RunResult) -> RunResult:
        """Record an engine run as a stage and pass the result through."""
        self.phases.append(Phase(name, result.rounds, result.messages))
        return result

    def add_rounds(self, name: str, rounds: int, messages: int = 0) -> None:
        """Record a stage whose cost is known without an engine run
        (e.g. a single information-exchange round)."""
        self.phases.append(Phase(name, rounds, messages))

    @property
    def total_rounds(self) -> int:
        return sum(p.rounds for p in self.phases)

    @property
    def total_messages(self) -> int:
        return sum(p.messages for p in self.phases)

    def breakdown(self) -> Dict[str, int]:
        """Phase-name -> rounds mapping (later same-named phases merge)."""
        out: Dict[str, int] = {}
        for p in self.phases:
            out[p.name] = out.get(p.name, 0) + p.rounds
        return out


@dataclass
class AlgorithmReport:
    """Uniform return type for pipeline drivers: the labeling plus the
    exact cost accounting."""

    labeling: List[Any]
    rounds: int
    log: PhaseLog

    @property
    def breakdown(self) -> Dict[str, int]:
        return self.log.breakdown()


# ----------------------------------------------------------------------
# The shipped-driver registry
# ----------------------------------------------------------------------
def _log2(x: float) -> float:
    return math.log2(max(2.0, float(x)))


def log_star(x: float) -> int:
    """Iterated logarithm (base 2), the paper's log* (>= 1)."""
    count = 0
    value = max(1.0, float(x))
    while value > 1.0:
        value = math.log2(value)
        count += 1
    return max(1, count)


@dataclass(frozen=True)
class DriverSpec:
    """Verification metadata for one shipped end-to-end driver.

    Attributes
    ----------
    name:
        Registry key, also the label in reports and counterexamples.
    model:
        :attr:`Model.DET` drivers are pure functions of ``(graph,
        ids)``; :attr:`Model.RAND` drivers consume a seed (possibly
        for internally generated IDs too, like the Theorem 11 driver).
    invoke:
        ``invoke(graph, ids, seed) -> AlgorithmReport`` — the
        normalized entry point.  Implementations import their driver
        lazily so the registry can live next to :class:`PhaseLog`
        without an import cycle.
    problem:
        ``problem(graph) -> LCLProblem`` — the LCL the driver's
        labeling is certified against (instance-dependent, e.g.
        ``KColoring(Δ)``).
    bound:
        ``bound(n, delta) -> float`` — declared round-complexity bound
        *with slack*: the asymptotic shape from the paper times a
        generous constant, audited by the certificate checker so an
        accidental complexity regression (not a constant-factor
        wiggle) fails the audit.
    bound_label:
        Human-readable form of the declared bound, for reports/docs.
    radius:
        ``radius(n, delta) -> float`` — declared *information radius*:
        the largest ball any published output may depend on.  In the
        LOCAL model a t-round algorithm is exactly a function of the
        radius-t ball (PAPER.md §2), so this defaults to ``bound`` when
        omitted; override it only for drivers whose outputs provably
        depend on a smaller ball than their round count (e.g. pipelines
        whose later stages reuse earlier outputs without new probes).
        Read through :meth:`declared_radius`.
    radius_label:
        Human-readable form of the declared radius.  The static
        dataflow pass (rule LM010) quotes it when a node program's
        inferred radius contradicts the declaration; empty means
        "same as bound_label".
    make_graph:
        ``make_graph(n, rng) -> Graph`` — seeded generator for the
        driver's natural instance family.  May round ``n`` to the
        family's constraints (parity, minimum size); the returned
        graph's true size is what instances record.
    min_n:
        Smallest ``n`` ``make_graph`` accepts — the shrinker's floor.
    quick_n / sizes:
        Instance sizes for the ``--quick`` tier-1 profile and the full
        verification sweep.
    accepts_ids / accepts_seed:
        Which knobs ``invoke`` honours; relations that need to re-run
        under fresh IDs (or reseed) consult these.
    """

    name: str
    model: Model
    invoke: Callable[
        [Graph, Optional[Sequence[int]], Optional[int]], AlgorithmReport
    ]
    problem: Callable[[Graph], LCLProblem]
    bound: Callable[[int, int], float]
    bound_label: str
    make_graph: Callable[[int, random.Random], Graph]
    min_n: int
    quick_n: int = 24
    sizes: Tuple[int, ...] = (24, 48)
    accepts_ids: bool = False
    accepts_seed: bool = False
    description: str = ""
    radius: Optional[Callable[[int, int], float]] = None
    radius_label: str = ""

    def declared_radius(self, n: int, delta: int) -> float:
        """The declared information radius at instance size ``(n, Δ)``:
        the explicit ``radius`` formula when one is declared, else the
        round bound (a t-round LOCAL algorithm sees a radius-t ball)."""
        if self.radius is not None:
            return self.radius(n, delta)
        return self.bound(n, delta)

    def run(
        self,
        graph: Graph,
        *,
        ids: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
    ) -> AlgorithmReport:
        """Run the driver with the normalized knobs."""
        if ids is not None and not self.accepts_ids:
            raise VerificationError(
                f"driver {self.name!r} does not accept an ID assignment"
            )
        if seed is not None and not self.accepts_seed:
            raise VerificationError(
                f"driver {self.name!r} does not accept a seed"
            )
        return self.invoke(graph, ids, seed)


def _tree_family(delta: int) -> Callable[[int, random.Random], Graph]:
    def make(n: int, rng: random.Random) -> Graph:
        from ..graphs.generators import complete_regular_tree_with_size

        return complete_regular_tree_with_size(delta, max(n, delta + 1))

    return make


def _prufer_tree(n: int, rng: random.Random) -> Graph:
    from ..graphs.generators import random_tree_prufer

    return random_tree_prufer(max(n, 4), rng)


def _regular_family(d: int) -> Callable[[int, random.Random], Graph]:
    def make(n: int, rng: random.Random) -> Graph:
        from ..graphs.generators import random_regular_graph

        n = max(n, d + 2)
        if (n * d) % 2:
            n += 1
        return random_regular_graph(n, d, rng)

    return make


def _circulant(n: int, rng: random.Random) -> Graph:
    from ..graphs.generators import circulant_graph

    return circulant_graph(max(n, 5), [1, 2])


def _build_registry() -> Dict[str, DriverSpec]:
    """All shipped drivers.  Invoke closures import lazily (the driver
    modules themselves import :class:`PhaseLog` from here)."""

    def ckp(graph: Graph, ids: Any, seed: Any) -> AlgorithmReport:
        from .delta55 import chang_kopelowitz_pettie_coloring

        return chang_kopelowitz_pettie_coloring(
            graph, seed=seed, min_delta=7
        )

    def pettie_su(graph: Graph, ids: Any, seed: Any) -> AlgorithmReport:
        from .rand_tree_coloring import pettie_su_tree_coloring

        return pettie_su_tree_coloring(graph, seed=seed)

    def barenboim_elkin(
        graph: Graph, ids: Any, seed: Any
    ) -> AlgorithmReport:
        from .tree_coloring import barenboim_elkin_coloring

        return barenboim_elkin_coloring(graph, 6, ids=ids)

    def delta_plus_one(
        graph: Graph, ids: Any, seed: Any
    ) -> AlgorithmReport:
        from .vertex_coloring import delta_plus_one_coloring

        return delta_plus_one_coloring(graph, ids=ids)

    def luby(graph: Graph, ids: Any, seed: Any) -> AlgorithmReport:
        from .mis import luby_mis

        return luby_mis(graph, seed=seed)

    def det_mis(graph: Graph, ids: Any, seed: Any) -> AlgorithmReport:
        from .mis import deterministic_mis

        return deterministic_mis(graph, ids=ids)

    def rand_matching(
        graph: Graph, ids: Any, seed: Any
    ) -> AlgorithmReport:
        from .matching import randomized_matching

        return randomized_matching(graph, seed=seed)

    def det_matching(
        graph: Graph, ids: Any, seed: Any
    ) -> AlgorithmReport:
        from .matching import deterministic_matching

        return deterministic_matching(graph, ids=ids)

    def rand_sinkless(
        graph: Graph, ids: Any, seed: Any
    ) -> AlgorithmReport:
        from .sinkless import random_sinkless_orientation

        return random_sinkless_orientation(graph, seed=seed)[0]

    def det_sinkless(
        graph: Graph, ids: Any, seed: Any
    ) -> AlgorithmReport:
        from .sinkless import deterministic_sinkless_orientation

        return deterministic_sinkless_orientation(graph, ids=ids)

    def linial(graph: Graph, ids: Any, seed: Any) -> AlgorithmReport:
        from .vertex_coloring import linial_fixed_point_coloring

        return linial_fixed_point_coloring(graph, ids=ids)

    def linial_palette(graph: Graph) -> int:
        # Must mirror linial_fixed_point_coloring's defaults: the
        # certified palette is the schedule's last entry for the
        # instance's default ID space and maximum degree.
        from .linial import linial_schedule

        id_space = 1 << max(
            1, (max(graph.num_vertices, 2) - 1).bit_length()
        )
        return linial_schedule(id_space, max(1, graph.max_degree))[-1]

    def coloring_bound(n: int, delta: int) -> float:
        # Linial schedule O(log* n) + KW reduction O(Δ log Δ), with a
        # wide constant; every deterministic coloring pipeline here
        # stays under this envelope.
        return 16 * (delta * _log2(delta) + log_star(n)) + 96

    def class_sweep_bound(n: int, delta: int) -> float:
        # Coloring pipeline plus a sweep over the reduced palette.
        return coloring_bound(n, delta) + 16 * delta + 64

    def shattering_bound(n: int, delta: int) -> float:
        # Theorem 10/11 shape O(log_Δ log n + log* n) plus the
        # deterministic finish on poly(log n)-size components.
        return (
            24 * (_log2(_log2(n)) + log_star(n))
            + 16 * delta * _log2(delta)
            + 128
        )

    def whp_log_bound(n: int, delta: int) -> float:
        # O(log n) w.h.p. randomized locality (Luby, proposal matching,
        # sink fixing); the constant absorbs unlucky seeds at small n.
        return 48 * _log2(n) + 64

    def diameter_bound(n: int, delta: int) -> float:
        # Full-graph collection: diameter + O(1) extra rounds.  The
        # circulant family's diameter is ~n/4; 2n covers any instance.
        return 2 * n + 16

    specs = [
        DriverSpec(
            name="delta55-coloring",
            model=Model.RAND,
            invoke=ckp,
            problem=lambda g: KColoring(g.max_degree),
            bound=shattering_bound,
            bound_label="O(log_Δ log n + log* n) + shattered finish",
            radius_label="O(log_Δ log n + log* n) ball",
            make_graph=_tree_family(7),
            min_n=8,
            accepts_seed=True,
            description="Theorem 11 Δ-coloring (run at Δ = 7)",
        ),
        DriverSpec(
            name="pettie-su-tree-coloring",
            model=Model.RAND,
            invoke=pettie_su,
            problem=lambda g: KColoring(g.max_degree),
            bound=shattering_bound,
            bound_label="O(log_Δ log n + log* n) + shattered finish",
            radius_label="O(log_Δ log n + log* n) ball",
            make_graph=_tree_family(9),
            min_n=10,
            accepts_seed=True,
            description="Theorem 10 Δ-coloring via ColorBidding (Δ = 9)",
        ),
        DriverSpec(
            name="barenboim-elkin-coloring",
            model=Model.DET,
            invoke=barenboim_elkin,
            problem=lambda g: KColoring(6),
            bound=lambda n, delta: 24 * _log2(n) + 24 * log_star(n) + 96,
            bound_label="O(log n) peeling + O(log* n) coloring stages",
            radius_label="O(log n) ball",
            make_graph=_prufer_tree,
            min_n=4,
            accepts_ids=True,
            description="Theorem 9 6-coloring of a uniform random tree",
        ),
        DriverSpec(
            name="delta-plus-one-coloring",
            model=Model.DET,
            invoke=delta_plus_one,
            problem=lambda g: KColoring(g.max_degree + 1),
            bound=coloring_bound,
            bound_label="g(Δ) + O(log* n)",
            radius_label="g(Δ) + O(log* n) ball",
            make_graph=_regular_family(4),
            min_n=6,
            accepts_ids=True,
            description="(Δ+1)-coloring pipeline on 4-regular graphs",
        ),
        DriverSpec(
            name="luby-mis",
            model=Model.RAND,
            invoke=luby,
            problem=lambda g: MaximalIndependentSet(),
            bound=whp_log_bound,
            bound_label="O(log n) w.h.p.",
            radius_label="O(log n) ball w.h.p.",
            make_graph=_regular_family(4),
            min_n=6,
            accepts_seed=True,
            description="Luby's MIS on 4-regular graphs",
        ),
        DriverSpec(
            name="deterministic-mis",
            model=Model.DET,
            invoke=det_mis,
            problem=lambda g: MaximalIndependentSet(),
            bound=class_sweep_bound,
            bound_label="Linial O(Δ²)-coloring + class sweep",
            radius_label="Linial + class-sweep ball",
            make_graph=_regular_family(4),
            min_n=6,
            accepts_ids=True,
            description="Coloring-based MIS on 4-regular graphs",
        ),
        DriverSpec(
            name="randomized-matching",
            model=Model.RAND,
            invoke=rand_matching,
            problem=lambda g: MaximalMatching(),
            bound=whp_log_bound,
            bound_label="O(log n) w.h.p.",
            radius_label="O(log n) ball w.h.p.",
            make_graph=_regular_family(3),
            min_n=4,
            accepts_seed=True,
            description="Proposal matching on cubic graphs",
        ),
        DriverSpec(
            name="deterministic-matching",
            model=Model.DET,
            invoke=det_matching,
            problem=lambda g: MaximalMatching(),
            bound=class_sweep_bound,
            bound_label="Linial + reduction + turn-taking",
            radius_label="Linial + reduction ball",
            make_graph=_regular_family(3),
            min_n=4,
            accepts_ids=True,
            description="Coloring-based matching on cubic graphs",
        ),
        DriverSpec(
            name="random-sinkless",
            model=Model.RAND,
            invoke=rand_sinkless,
            problem=lambda g: SinklessOrientation(),
            bound=whp_log_bound,
            bound_label="O(log n) sink-fixing rounds w.h.p.",
            radius_label="O(log n) ball w.h.p.",
            make_graph=_circulant,
            min_n=5,
            accepts_seed=True,
            description="Random sink fixing on circulant C_n(1,2)",
        ),
        DriverSpec(
            name="deterministic-sinkless",
            model=Model.DET,
            invoke=det_sinkless,
            problem=lambda g: SinklessOrientation(),
            bound=diameter_bound,
            bound_label="diameter + O(1) collection rounds",
            radius_label="diameter ball",
            make_graph=_circulant,
            min_n=5,
            accepts_ids=True,
            description="Canonical-rule orientation on circulant C_n(1,2)",
        ),
        DriverSpec(
            name="linial-coloring",
            model=Model.DET,
            invoke=linial,
            problem=lambda g: KColoring(linial_palette(g)),
            bound=lambda n, delta: 16 * log_star(n) + 48,
            bound_label="O(log* n) iterated cover-free recoloring",
            radius_label="O(log* n) ball",
            make_graph=_regular_family(4),
            min_n=6,
            accepts_ids=True,
            description="Theorem 2 fixed-point coloring on 4-regular "
            "graphs (no reduction stage)",
        ),
    ]
    return {spec.name: spec for spec in specs}


#: name -> spec for every shipped end-to-end driver.
DRIVER_REGISTRY: Dict[str, DriverSpec] = _build_registry()


def driver_registry() -> Dict[str, DriverSpec]:
    """The shipped-driver registry (insertion-ordered copy)."""
    return dict(DRIVER_REGISTRY)


def get_driver(name: str) -> DriverSpec:
    """Look up one spec; raises :class:`VerificationError` with the
    available names on a miss."""
    try:
        return DRIVER_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(DRIVER_REGISTRY))
        raise VerificationError(
            f"unknown driver {name!r} (registered: {known})"
        ) from None


def validate_registry(
    registry: Optional[Dict[str, DriverSpec]] = None,
) -> None:
    """Fail loudly on a spec with missing verification metadata.

    Called by the meta-tests and by ``repro verify`` before any sweep:
    a driver registered without its LCL problem, declared bound, or
    instance family cannot be machine-checked and must not ship
    silently.
    """
    registry = DRIVER_REGISTRY if registry is None else registry
    for name, spec in registry.items():
        if spec.name != name:
            raise VerificationError(
                f"registry key {name!r} does not match spec name "
                f"{spec.name!r}"
            )
        for attr in ("invoke", "problem", "bound", "make_graph"):
            if getattr(spec, attr) is None:
                raise VerificationError(
                    f"driver {name!r} is missing registry metadata "
                    f"{attr!r}"
                )
        if not spec.bound_label:
            raise VerificationError(
                f"driver {name!r} declares no bound_label"
            )
        if spec.min_n < 2:
            raise VerificationError(
                f"driver {name!r}: min_n must be >= 2, got {spec.min_n}"
            )
        if not (spec.accepts_ids or spec.accepts_seed):
            raise VerificationError(
                f"driver {name!r} accepts neither IDs nor a seed — "
                "no relation can re-run it under a transformed input"
            )
        if spec.model is Model.DET and spec.accepts_seed:
            raise VerificationError(
                f"driver {name!r}: DetLOCAL drivers must not consume "
                "a seed"
            )
        # A t-round LOCAL algorithm sees at most the radius-t ball, so
        # a declared radius above the declared round bound is a
        # contradiction in the spec itself.
        for n, delta in ((8, 3), (64, 4), (1024, 8)):
            if spec.declared_radius(n, delta) > spec.bound(n, delta):
                raise VerificationError(
                    f"driver {name!r}: declared radius exceeds the "
                    f"declared round bound at n={n}, Δ={delta}"
                )
