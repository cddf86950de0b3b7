"""The verification sweep: every driver × every relation × N trials.

For each registered driver (see
:func:`repro.algorithms.drivers.driver_registry`) the harness runs:

- a **certificate** cell — each trial's labeling is certified ball by
  ball against the driver's declared LCL and its round count audited
  against the declared complexity bound (:mod:`repro.verify.certify`);
- one cell per **applicable metamorphic relation**
  (:mod:`repro.verify.relations`).

Every cell, and :func:`find_counterexample`, runs the same trial loop
over sizes × seeds: check the instance, and on failure shrink it
(halve-and-retest, :mod:`repro.verify.gen`) and re-check, so a
counterexample names the smallest instance the harness could reproduce
it on.  A check returns why an instance fails, or ``None``.  The whole
sweep is a pure function of ``master_seed``; the JSONL counterexample
report uses sorted keys and fixed separators so reruns are
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..algorithms.drivers import (
    DriverSpec,
    driver_registry,
    validate_registry,
)
from ..faults.runtime import mix64
from .certify import certify
from .gen import GraphFamily, Instance, make_instance, shrink_instance
from .relations import (
    Relation,
    RelationViolation,
    Subject,
    run_outcome,
    standard_relations,
    subject_from_spec,
)

#: Default trial counts per cell.
DEFAULT_TRIALS = 3
QUICK_TRIALS = 1

_STREAM_DRIVER = 0x647276


def _driver_seed(master_seed: int, name: str) -> int:
    return mix64(master_seed, _STREAM_DRIVER, *name.encode("utf-8"))


@dataclass(frozen=True)
class Counterexample:
    """One shrunk failure, JSON-ready."""

    driver: str
    relation: str
    message: str
    instance: Dict[str, Any]
    shrunk_from_n: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "driver": self.driver,
            "relation": self.relation,
            "message": self.message,
            "instance": self.instance,
            "shrunk_from_n": self.shrunk_from_n,
        }


@dataclass
class CellResult:
    """One (driver, relation) cell of the sweep."""

    driver: str
    relation: str
    trials: int = 0
    failures: List[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class VerifyReport:
    """The whole sweep's outcome."""

    master_seed: int
    quick: bool
    cells: List[CellResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def counterexamples(self) -> List[Counterexample]:
        return [c for cell in self.cells for c in cell.failures]

    def summary_lines(self) -> List[str]:
        lines = []
        width = max((len(c.driver) for c in self.cells), default=10)
        rel_width = max(
            (len(c.relation) for c in self.cells), default=10
        )
        for cell in self.cells:
            status = "ok" if cell.ok else f"FAIL x{len(cell.failures)}"
            lines.append(
                f"{cell.driver:<{width}}  {cell.relation:<{rel_width}}"
                f"  trials={cell.trials}  {status}"
            )
        total = len(self.cells)
        bad = sum(1 for c in self.cells if not c.ok)
        lines.append(
            f"{total} cells, {total - bad} ok, {bad} failing, "
            f"{len(self.counterexamples())} counterexamples"
        )
        return lines


def write_counterexamples(
    report: VerifyReport, path: str
) -> int:
    """Write one canonical JSON line per counterexample (the file is
    created even when empty, so CI artifact upload always has a
    target).  Returns the number of lines written."""
    examples = report.counterexamples()
    with open(path, "w", encoding="utf-8") as handle:
        for example in examples:
            handle.write(
                json.dumps(
                    example.to_dict(),
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )
    return len(examples)


def _failing_trials(
    check: Callable[[Instance], Any],
    family: GraphFamily,
    min_n: int,
    sizes: Sequence[int],
    seeds: Sequence[int],
    shrink: bool,
) -> Iterable[Tuple[Any, Instance, int]]:
    """The one trial loop: ``check`` every instance of ``sizes × seeds``
    and yield each failure (``check``'s non-``None`` result), the
    instance it describes — shrunk when ``shrink`` and the failure
    survives the re-check — and the originally-failing vertex count.
    Lazy, so a caller that stops at the first failure runs no more
    trials."""
    for size in sizes:
        for seed in seeds:
            instance = make_instance(family, size, seed)
            failure = check(instance)
            if failure is None:
                continue
            original_n = instance.n
            if shrink:
                shrunk = shrink_instance(
                    instance,
                    lambda inst: check(inst) is not None,
                    family,
                    min_n,
                )
                final = check(shrunk)
                if final is not None:
                    failure, instance = final, shrunk
            yield failure, instance, original_n


def find_counterexample(
    subject: Subject,
    relation: Relation,
    family: GraphFamily,
    min_n: int,
    *,
    sizes: Sequence[int],
    seeds: Sequence[int],
    shrink: bool = True,
) -> Optional[Tuple[RelationViolation, int]]:
    """First shrunk relation violation over ``sizes × seeds``, with the
    originally-failing vertex count; ``None`` when every trial holds."""
    failures = _failing_trials(
        partial(relation.check, subject), family, min_n, sizes, seeds, shrink
    )
    return next(((v, n) for v, _, n in failures), None)


def _certificate_failure(
    spec: DriverSpec, subject: Subject, instance: Instance
) -> Optional[str]:
    """Why ``instance`` fails certification (``None`` when it passes)."""
    outcome = run_outcome(subject, instance)
    if outcome[0] == "error":
        return f"driver raised: {outcome[1]}"
    labeling, rounds = outcome[1]
    graph = instance.graph
    cert = certify(
        spec.problem(graph),
        graph,
        list(labeling),
        driver=spec.name,
        rounds=rounds,
        bound=spec.bound(graph.num_vertices, graph.max_degree),
        bound_label=spec.bound_label,
    )
    if cert.ok:
        return None
    if not cert.valid:
        first = cert.violations[0]
        return (
            f"labeling fails LCL {cert.problem!r} at "
            f"{cert.violation_count} of {cert.checked_balls} balls; "
            f"first: vertex {first.vertex} (ball {first.ball}): "
            f"{first.message}"
        )
    return (
        f"round count {cert.rounds} exceeds declared bound "
        f"{cert.bound:.1f} ({cert.bound_label})"
    )


def _relation_failure(
    relation: Relation, subject: Subject, instance: Instance
) -> Optional[str]:
    """Why ``instance`` breaks ``relation`` (``None`` when it holds)."""
    violation = relation.check(subject, instance)
    return None if violation is None else violation.message


def _cell(
    spec: DriverSpec,
    relation: str,
    check: Callable[[Instance], Optional[str]],
    sizes: Sequence[int],
    seeds: Sequence[int],
    shrink: bool,
) -> CellResult:
    failures = _failing_trials(
        check, spec.make_graph, spec.min_n, sizes, seeds, shrink
    )
    return CellResult(
        driver=spec.name,
        relation=relation,
        trials=len(sizes) * len(seeds),
        failures=[
            Counterexample(
                driver=spec.name,
                relation=relation,
                message=message,
                instance=instance.describe(),
                shrunk_from_n=original_n,
            )
            for message, instance, original_n in failures
        ],
    )


def run_verification(
    *,
    registry: Optional[Dict[str, DriverSpec]] = None,
    relations: Optional[Iterable[Relation]] = None,
    drivers: Optional[Sequence[str]] = None,
    relation_names: Optional[Sequence[str]] = None,
    trials: Optional[int] = None,
    master_seed: int = 0xC0FFEE,
    quick: bool = False,
    shrink: bool = True,
) -> VerifyReport:
    """Run the sweep and return the report (pure in ``master_seed``).

    ``quick`` is the tier-1 profile: one trial per cell at each
    driver's ``quick_n`` only.  ``drivers`` / ``relation_names``
    restrict the sweep; unknown names raise ``KeyError`` and a trial
    count below 1 raises ``ValueError``, so a typo in CI fails loudly
    rather than silently verifying nothing.
    """
    registry = driver_registry() if registry is None else registry
    validate_registry(registry)
    catalogue = (
        standard_relations() if relations is None else list(relations)
    )
    if relation_names is not None:
        by_name = {r.name: r for r in catalogue}
        catalogue = [by_name[name] for name in relation_names]
    if drivers is not None:
        registry = {name: registry[name] for name in drivers}
    per_cell = trials if trials is not None else (
        QUICK_TRIALS if quick else DEFAULT_TRIALS
    )
    if per_cell < 1:
        raise ValueError(
            f"trials per cell must be at least 1, got {per_cell}"
        )
    report = VerifyReport(master_seed=master_seed, quick=quick)
    for name, spec in registry.items():
        subject = subject_from_spec(spec)
        sizes = (spec.quick_n,) if quick else tuple(spec.sizes)
        seeds = [
            mix64(_driver_seed(master_seed, name), i)
            for i in range(per_cell)
        ]
        checks = [
            ("certificate", partial(_certificate_failure, spec, subject))
        ]
        checks += [
            (relation.name, partial(_relation_failure, relation, subject))
            for relation in catalogue
            if relation.applies_to(subject)
        ]
        for relation_name, check in checks:
            report.cells.append(
                _cell(spec, relation_name, check, sizes, seeds, shrink)
            )
    return report


__all__ = [
    "CellResult",
    "Counterexample",
    "DEFAULT_TRIALS",
    "QUICK_TRIALS",
    "VerifyReport",
    "find_counterexample",
    "run_verification",
    "write_counterexamples",
]
