"""Structured diagnostics for the LOCAL-model conformance analyzer.

A :class:`Diagnostic` is one finding: a rule id, a location, a severity,
a human message, and a fix hint.  Findings are plain data — the CLI
renders them as text, JSON or SARIF, and CI keys its exit status off
:func:`max_severity`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


class Severity(enum.Enum):
    """How strongly a finding gates the build."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class RuleSpec:
    """Static metadata of one LM rule."""

    rule_id: str
    severity: Severity
    summary: str
    rationale: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "summary": self.summary,
            "rationale": self.rationale,
        }


@dataclass(frozen=True)
class Diagnostic:
    """One conformance finding at one source location."""

    rule_id: str
    severity: Severity
    path: str
    line: int
    message: str
    hint: str = ""
    #: Reachability chain from the algorithm entry point to the
    #: offending code, e.g. ``("LubyMIS.step", "_helper")``.
    chain: Sequence[str] = field(default_factory=tuple)

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
            "chain": list(self.chain),
        }

    def render(self) -> str:
        parts = [
            f"{self.location()}: {self.severity.value} "
            f"[{self.rule_id}] {self.message}"
        ]
        if self.chain:
            parts.append(f"    reachable via: {' -> '.join(self.chain)}")
        if self.hint:
            parts.append(f"    hint: {self.hint}")
        return "\n".join(parts)


#: Keys every serialized diagnostic carries (the JSON output contract,
#: asserted by ``TestJsonOutput``).
DIAGNOSTIC_JSON_KEYS = (
    "rule_id",
    "severity",
    "path",
    "line",
    "message",
    "hint",
    "chain",
)


def max_severity(diagnostics: Sequence[Diagnostic]) -> Optional[Severity]:
    """The gravest severity present, or ``None`` for a clean run."""
    if any(d.severity is Severity.ERROR for d in diagnostics):
        return Severity.ERROR
    if diagnostics:
        return Severity.WARNING
    return None


def render_text(
    diagnostics: Sequence[Diagnostic], suppressed: int = 0
) -> str:
    """Human-readable report (one block per finding plus a summary)."""
    lines: List[str] = [d.render() for d in diagnostics]
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = len(diagnostics) - errors
    summary = f"{errors} error(s), {warnings} warning(s)"
    if suppressed:
        summary += f", {suppressed} suppressed"
    lines.append(summary)
    return "\n".join(lines)
