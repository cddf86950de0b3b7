"""Flow- and interprocedurally-sensitive LOCAL-model dataflow analysis.

The pattern rules (LM001–LM009, :mod:`repro.staticcheck.rules`) prove
conformance *syntactically*: they match call names and attribute reads
inside the entry-point closure.  The passes in this subpackage prove
two semantic contracts by **dataflow** over a lowered IR:

- the **information-radius pass** (:mod:`.lattice`, rule LM010) infers,
  for every value a node program manipulates, the radius of the ball it
  can depend on — ``ctx.id``/``ctx.degree`` are radius 0, inbox payloads
  are one hop beyond their sender, joins take the maximum, and values
  routed through a channel the LOCAL model does not have (shared
  algorithm-instance attributes written from node code) are unbounded —
  then checks every published/halted value against the radius declared
  by the driver's :class:`~repro.algorithms.drivers.DriverSpec` bound;
- the **determinism effect pass** (:mod:`.effects`, rule LM011) proves
  DetLOCAL-bound programs seed- and iteration-order-free: an effect
  system tracks values drawn from laundered RNG objects (module-level
  or instance-held ``random.Random``) and values whose content depends
  on unordered-set iteration order, and rejects any that reach a
  publish/halt sink.

Both passes share one abstract interpretation (:class:`.lattice
.Interpreter`) over the IR of :mod:`.ir`, and both consume the declared
contracts recovered statically from ``DriverSpec(...)`` registry entries
and ``subject_from_algorithm(...)`` call sites by :mod:`.specs` — the
analyzer never imports the code it checks.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..callgraph import CallGraph
from ..diagnostics import Diagnostic
from .effects import check_effects
from .lattice import ClassAnalysis, Interpreter
from .specs import Contract, SYMMETRY_BREAKING_LCLS, extract_contracts

__all__ = [
    "Contract",
    "ClassAnalysis",
    "Interpreter",
    "SYMMETRY_BREAKING_LCLS",
    "analyzed_driver_names",
    "extract_contracts",
    "run_dataflow",
]


def run_dataflow(
    graph: CallGraph,
    bindings: Optional[dict] = None,
    flagged_lines: Optional[Set[Tuple[str, int]]] = None,
) -> List[Diagnostic]:
    """Run both dataflow passes over every bound algorithm class.

    ``flagged_lines`` carries ``(path, line)`` pairs already reported by
    the pattern rules (LM001/LM005); the effect pass skips findings
    whose root cause sits on one of them so each defect is reported by
    exactly one rule.
    """
    from ..bindings import bind_models
    from .lattice import check_radius

    if bindings is None:
        bindings = bind_models(graph)
    contracts = extract_contracts(graph)
    interpreter = Interpreter(graph, bindings, contracts)
    analyses = interpreter.run()
    flagged = flagged_lines or set()
    diagnostics: List[Diagnostic] = []
    for analysis in analyses:
        diagnostics.extend(check_radius(analysis))
        diagnostics.extend(check_effects(analysis, flagged))
    return diagnostics


def analyzed_driver_names(graph: CallGraph) -> Set[str]:
    """Names of registry drivers / subjects whose entry points the
    dataflow passes actually analyzed — the meta-test's ground truth
    for "no silently-skipped registry entry"."""
    from ..bindings import bind_models

    bindings = bind_models(graph)
    contracts = extract_contracts(graph)
    interpreter = Interpreter(graph, bindings, contracts)
    names: Set[str] = set()
    for analysis in interpreter.run():
        if not analysis.entry_keys:
            continue
        for contract in analysis.contracts:
            names.add(contract.driver)
    return names

