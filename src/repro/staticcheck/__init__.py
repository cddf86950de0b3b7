"""Static LOCAL-model conformance analysis (the ``repro lint`` engine).

The runtime gate (:class:`~repro.core.errors.ModelViolationError`)
catches a model violation only on executed paths; this package proves
conformance over *all* paths.  It walks the algorithm packages, binds
every :class:`~repro.core.algorithm.SyncAlgorithm` subclass to the
model(s) it is executed under (via ``run_local`` call sites), computes
the call-graph closure of each algorithm's entry points, and checks the
pattern LM rule set (LM001-LM009) over that node-level code.  On top of
the pattern rules, the :mod:`.dataflow` subpackage lowers the same code
to an IR and proves two semantic contracts by abstract interpretation:
the information radius of every published value against the declared
:class:`~repro.algorithms.drivers.DriverSpec` radius (rule LM010), and
seed/iteration-order freedom of DetLOCAL outputs (rule LM011).
:mod:`.sarif` writes a run's findings as a SARIF 2.1.0 log for
code scanning.  A run keeps no state: every run analyzes the whole
corpus from source.

Typical use::

    from repro.staticcheck import analyze_paths
    result = analyze_paths(["src/repro"])
    assert result.clean, result.render_text()

A finding is waived only inline, per line, with
``# repro: ignore[LM006]`` (trailing, or on a comment-only line
directly above).
"""

from .analyzer import (
    JSON_VERSION,
    AnalysisResult,
    analyze_modules,
    analyze_paths,
    default_target,
    load_corpus,
)
from .bindings import ENTRY_POINTS, Binding, algorithm_classes, bind_models
from .callgraph import CallGraph
from .diagnostics import (
    DIAGNOSTIC_JSON_KEYS,
    Diagnostic,
    RuleSpec,
    Severity,
    max_severity,
    render_text,
)
from .modules import ModuleInfo, load_module, parse_suppressions
from .rules import RULES, RuleEngine

# Heavier optional layers (.dataflow, .sarif) are imported lazily by
# their consumers; they re-export their own APIs.

__all__ = [
    "AnalysisResult",
    "Binding",
    "CallGraph",
    "DIAGNOSTIC_JSON_KEYS",
    "Diagnostic",
    "ENTRY_POINTS",
    "JSON_VERSION",
    "ModuleInfo",
    "RULES",
    "RuleEngine",
    "RuleSpec",
    "Severity",
    "algorithm_classes",
    "analyze_modules",
    "analyze_paths",
    "bind_models",
    "default_target",
    "load_corpus",
    "load_module",
    "max_severity",
    "parse_suppressions",
    "render_text",
]
