"""SARIF 2.1.0 output for the LOCAL-model conformance analyzer.

SARIF (Static Analysis Results Interchange Format) is what code-review
surfaces ingest — GitHub code scanning renders each result as an inline
annotation on the offending line.  One :func:`to_sarif` call turns an
:class:`~repro.staticcheck.analyzer.AnalysisResult` into a single-run
SARIF log:

- every LM rule (plus the ``PARSE``/``SUPPRESS`` pseudo-rules that can
  appear in results) becomes a ``reportingDescriptor`` with its summary,
  rationale, and default severity level;
- every surviving diagnostic becomes a ``result`` with a physical
  location, the reachability chain folded into the message, and a
  **partial fingerprint** that is stable under unrelated edits (it hashes
  the rule id, the repo-relative path, and the offending *source line
  text* rather than the line number), so code scanning keeps tracking
  the same alert when the code around it moves.

Paths are emitted repo-relative (POSIX separators) when ``base_dir`` is
given, which is what ``upload-sarif`` expects.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from .analyzer import AnalysisResult
from .diagnostics import Diagnostic, RuleSpec, Severity
from .rules import RULES

#: The schema/version pair stamped into every log.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Pseudo-rules that can appear in results but live outside the LM
#: table.  SARIF requires every result's ruleId to be declared.
_PSEUDO_RULES = (
    RuleSpec(
        rule_id="PARSE",
        severity=Severity.ERROR,
        summary="file could not be parsed",
        rationale=(
            "an unparsable file is skipped by every LM rule; a gate "
            "that crashes on bad input is a gate that gets disabled"
        ),
    ),
    RuleSpec(
        rule_id="SUPPRESS",
        severity=Severity.WARNING,
        summary="suppression names an unknown rule id",
        rationale=(
            "a typo'd '# repro: ignore[...]' code suppresses nothing "
            "and silently un-suppresses itself on the next rename"
        ),
    ),
)


def _level(severity: Severity) -> str:
    return "error" if severity is Severity.ERROR else "warning"


def _relative_uri(path: str, base_dir: Optional[Path]) -> str:
    p = Path(path)
    if base_dir is not None:
        try:
            p = p.resolve().relative_to(Path(base_dir).resolve())
        except ValueError:
            pass
    return p.as_posix()


def _snippet(path: str, line: int) -> str:
    """The offending source line's text, or '' when unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for number, text in enumerate(fh, start=1):
                if number == line:
                    return text.rstrip("\n")
    except OSError:
        pass
    return ""


def fingerprint(diag: Diagnostic, base_dir: Optional[Path]) -> str:
    """Stable identity of a finding: rule id + repo-relative path +
    the source text of the flagged line.  Deliberately excludes the
    line *number*, so pure code motion leaves the fingerprint (and the
    code-scanning alert matched by it) unchanged."""
    payload = "\x1f".join(
        (
            diag.rule_id,
            _relative_uri(diag.path, base_dir),
            _snippet(diag.path, diag.line).strip(),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


def _rule_descriptor(spec: RuleSpec) -> Dict[str, Any]:
    return {
        "id": spec.rule_id,
        "name": spec.rule_id,
        "shortDescription": {"text": spec.summary},
        "fullDescription": {"text": spec.rationale},
        "defaultConfiguration": {"level": _level(spec.severity)},
        "helpUri": (
            "https://github.com/local-model-repro/docs/blob/main/"
            "static_analysis.md"
        ),
    }


def _result(
    diag: Diagnostic,
    rule_index: Dict[str, int],
    base_dir: Optional[Path],
) -> Dict[str, Any]:
    message = diag.message
    if diag.chain:
        message += f" (reachable via: {' -> '.join(diag.chain)})"
    if diag.hint:
        message += f"; hint: {diag.hint}"
    return {
        "ruleId": diag.rule_id,
        "ruleIndex": rule_index[diag.rule_id],
        "level": _level(diag.severity),
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": _relative_uri(diag.path, base_dir),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": max(1, diag.line)},
                }
            }
        ],
        "partialFingerprints": {
            "reproLint/v1": fingerprint(diag, base_dir)
        },
    }


def to_sarif(
    result: AnalysisResult, base_dir: Optional[Path] = None
) -> Dict[str, Any]:
    """One SARIF 2.1.0 log for one analyzer run."""
    specs: List[RuleSpec] = [
        RULES[rule_id] for rule_id in sorted(RULES)
    ] + list(_PSEUDO_RULES)
    rule_index = {spec.rule_id: i for i, spec in enumerate(specs)}
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://github.com/local-model-repro"
                        ),
                        "rules": [
                            _rule_descriptor(spec) for spec in specs
                        ],
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {
                        "uri": (
                            Path(base_dir).resolve().as_uri() + "/"
                            if base_dir is not None
                            else "file:///"
                        )
                    }
                },
                "results": [
                    _result(diag, rule_index, base_dir)
                    for diag in result.diagnostics
                ],
            }
        ],
    }


def render_sarif(
    result: AnalysisResult, base_dir: Optional[Path] = None
) -> str:
    return json.dumps(
        to_sarif(result, base_dir), indent=2, sort_keys=True
    )
