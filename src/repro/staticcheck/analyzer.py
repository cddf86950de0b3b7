"""Analyzer front end: load sources, run the LM rules, apply
suppressions, and package the result for the CLI and tests."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from .callgraph import CallGraph
from .diagnostics import (
    Diagnostic,
    Severity,
    max_severity,
    render_text,
)
from .modules import ModuleInfo, discover_files, load_module
from .rules import RULES, RuleEngine

PathLike = Union[str, Path]

#: Output-schema version stamped into JSON reports.
JSON_VERSION = 1


@dataclass
class AnalysisResult:
    """Findings of one analyzer run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    suppressed: List[Diagnostic] = field(default_factory=list)
    files_analyzed: int = 0

    @property
    def ok(self) -> bool:
        """True when no *error*-severity finding survived suppression."""
        return max_severity(self.diagnostics) is not Severity.ERROR

    @property
    def clean(self) -> bool:
        """True when nothing at all survived suppression."""
        return not self.diagnostics

    def errors(self) -> List[Diagnostic]:
        return [
            d for d in self.diagnostics if d.severity is Severity.ERROR
        ]

    def to_dict(self) -> dict:
        return {
            "version": JSON_VERSION,
            "files_analyzed": self.files_analyzed,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": [d.to_dict() for d in self.suppressed],
            "rules": {
                rule_id: spec.to_dict()
                for rule_id, spec in sorted(RULES.items())
            },
            "summary": {
                "errors": len(self.errors()),
                "warnings": len(self.diagnostics) - len(self.errors()),
                "suppressed": len(self.suppressed),
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_text(self) -> str:
        return render_text(self.diagnostics, len(self.suppressed))


def load_corpus(paths: Iterable[PathLike]) -> List[ModuleInfo]:
    """Parse every ``.py`` file under ``paths`` (directories recurse)."""
    modules = []
    for file in discover_files(Path(p) for p in paths):
        modules.append(load_module(file))
    return modules


#: Rule ids that may legitimately appear in ``# repro: ignore[...]``
#: comments: the LM table plus the parse-failure pseudo-rule.
_KNOWN_SUPPRESSIBLE = frozenset(RULES) | {"PARSE"}


def _unknown_suppression_warnings(
    modules: Sequence[ModuleInfo],
) -> List[Diagnostic]:
    """A suppression naming a rule id the analyzer does not know is a
    typo waiting to un-suppress itself — warn instead of silently
    accepting it (rule id ``SUPPRESS``, same pseudo-rule convention as
    ``PARSE``)."""
    warnings: List[Diagnostic] = []
    for module in modules:
        for line in sorted(module.suppressions):
            unknown = sorted(
                code
                for code in module.suppressions[line]
                if code != "*" and code not in _KNOWN_SUPPRESSIBLE
            )
            for code in unknown:
                warnings.append(
                    Diagnostic(
                        rule_id="SUPPRESS",
                        severity=Severity.WARNING,
                        path=str(module.path),
                        line=line,
                        message=(
                            f"suppression names unknown rule id "
                            f"{code!r}; it suppresses nothing"
                        ),
                        hint=(
                            "known rule ids: "
                            + ", ".join(sorted(_KNOWN_SUPPRESSIBLE))
                        ),
                    )
                )
    return warnings


def analyze_modules(modules: Sequence[ModuleInfo]) -> AnalysisResult:
    graph = CallGraph(modules)
    engine = RuleEngine(graph)
    by_path = {str(m.path): m for m in modules}
    result = AnalysisResult(files_analyzed=len(modules))
    raw = engine.run()
    # One defect, one rule: the dataflow effect pass skips findings
    # whose root cause the pattern rules already reported.
    flagged = {
        (d.path, d.line)
        for d in raw
        if d.rule_id in ("LM001", "LM005")
    }
    from .dataflow import run_dataflow

    raw = raw + run_dataflow(graph, engine.bindings, flagged)
    unique: dict = {}
    for diag in raw:
        unique.setdefault((diag.rule_id, diag.path, diag.line), diag)
    ordered = sorted(
        unique.values(), key=lambda d: (d.path, d.line, d.rule_id)
    ) + _unknown_suppression_warnings(modules)
    for diag in ordered:
        module = by_path.get(diag.path)
        if module is not None and module.is_suppressed(
            diag.line, diag.rule_id
        ):
            result.suppressed.append(diag)
        else:
            result.diagnostics.append(diag)
    return result


def analyze_paths(paths: Iterable[PathLike]) -> AnalysisResult:
    """Analyze files/directories and return structured findings.

    The whole corpus is loaded before any rule runs so that call-graph
    edges and ``run_local`` model bindings resolve across modules.
    Unparsable files are reported as error-severity ``PARSE``
    diagnostics rather than aborting the run — a gate that crashes on
    bad input is a gate that gets disabled.
    """
    files = discover_files(Path(p) for p in paths)
    modules = []
    parse_failures: List[Diagnostic] = []
    for file in files:
        try:
            modules.append(load_module(file))
        except SyntaxError as exc:
            parse_failures.append(
                Diagnostic(
                    rule_id="PARSE",
                    severity=Severity.ERROR,
                    path=str(file),
                    line=exc.lineno or 1,
                    message=f"file could not be parsed: {exc.msg}",
                    hint="fix the syntax error; the file was skipped "
                    "by every LM rule",
                )
            )
    result = analyze_modules(modules)
    result.files_analyzed = len(files)
    result.diagnostics = sorted(
        parse_failures + result.diagnostics,
        key=lambda d: (d.path, d.line, d.rule_id),
    )
    return result


def default_target() -> Path:
    """The installed ``repro`` package directory — what ``repro lint``
    checks when no path is given."""
    return Path(__file__).resolve().parent.parent
