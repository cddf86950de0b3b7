"""Tests for the static LOCAL-model conformance analyzer.

Covers: true positives for every LM rule (seeded fixtures), zero false
positives on a conformant fixture AND on the shipped algorithm suite,
suppression-comment handling, the JSON output keys, model binding
through inheritance/local variables/dual registration, and the
``repro lint`` CLI gate.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.staticcheck import (
    DIAGNOSTIC_JSON_KEYS,
    JSON_VERSION,
    RULES,
    Severity,
    analyze_paths,
    load_corpus,
    max_severity,
    parse_suppressions,
)
from repro.staticcheck.bindings import bind_models
from repro.staticcheck.callgraph import CallGraph

FIXTURES = Path(__file__).parent / "fixtures" / "staticcheck"
PACKAGE_DIR = Path(repro.__file__).resolve().parent


def analyze_fixture(name):
    return analyze_paths([FIXTURES / name])


class TestRuleTruePositives:
    """Each rule catches its seeded violation, and nothing else fires
    in that fixture (per-fixture precision)."""

    @pytest.mark.parametrize(
        "fixture, rule, count",
        [
            ("lm001_bad.py", "LM001", 2),
            ("lm001_alias.py", "LM001", 2),
            ("lm002_bad.py", "LM002", 1),
            ("lm003_bad.py", "LM003", 2),
            ("lm004_bad.py", "LM004", 4),
            ("lm005_bad.py", "LM005", 3),
            ("lm006_bad.py", "LM006", 2),
            ("lm007_bad.py", "LM007", 2),
            ("lm008_bad.py", "LM008", 6),
            ("lm009_bad.py", "LM009", 4),
            ("lm010_bad.py", "LM010", 2),
            ("lm011_bad.py", "LM011", 2),
            ("lm012_bad.py", "LM012", 6),
        ],
    )
    def test_rule_catches_seeded_violation(self, fixture, rule, count):
        result = analyze_fixture(fixture)
        assert {d.rule_id for d in result.diagnostics} == {rule}
        assert len(result.diagnostics) == count
        for diag in result.diagnostics:
            assert diag.path.endswith(fixture)
            assert diag.line > 0
            assert diag.message
            assert diag.hint
            assert diag.severity is RULES[rule].severity

    def test_violation_found_through_call_graph_not_grep(self):
        # The ctx.random read in lm001_bad.py sits in a helper two
        # calls below the entry point; the chain must say so.
        result = analyze_fixture("lm001_bad.py")
        chains = {tuple(d.chain) for d in result.diagnostics}
        assert ("SneakyDet.step", "SneakyDet._pick") in chains

    def test_inherited_entry_point_is_followed(self):
        result = analyze_fixture("inherited_bad.py")
        assert [d.rule_id for d in result.diagnostics] == ["LM001"]
        assert result.diagnostics[0].chain == ("NoisyBase.step",)

    def test_dual_bound_class_checked_under_both_models(self):
        result = analyze_fixture("dual_bound.py")
        assert {d.rule_id for d in result.diagnostics} == {
            "LM001",
            "LM002",
        }


class TestNoFalsePositives:
    def test_clean_fixture_is_clean(self):
        result = analyze_fixture("clean_algos.py")
        assert result.clean, result.render_text()
        assert not result.suppressed

    def test_shipped_algorithm_suite_is_violation_free(self):
        """The repo-wide conformance gate: every shipped algorithm,
        LCL checker, and transform passes all LM rules (documented
        exceptions are suppressed inline with justification)."""
        result = analyze_paths([PACKAGE_DIR])
        assert result.clean, result.render_text()

    def test_shipped_suppressions_are_documented_exceptions_only(self):
        result = analyze_paths([PACKAGE_DIR])
        # Only the documented exceptions are waived: the two ctx.now
        # output contracts and the two Linial degenerate-ID-space
        # halts (the schedule-length guard proves the IDs already form
        # a valid coloring, which the radius lattice cannot see).  New
        # suppressions must be added deliberately (update this test
        # alongside a justifying comment).
        assert sorted(
            (Path(d.path).name, d.rule_id) for d in result.suppressed
        ) == [
            ("linial.py", "LM010"),
            ("linial.py", "LM010"),
            ("matching.py", "LM006"),
            ("tree_coloring.py", "LM006"),
        ]


class TestSuppressions:
    def test_suppressed_findings_are_filtered_but_counted(self):
        result = analyze_fixture("suppressed.py")
        assert result.clean
        assert [d.rule_id for d in result.suppressed] == [
            "LM006",
            "LM006",
            "LM001",
        ]

    def test_parse_suppressions_forms(self):
        source = (
            "x = 1  # repro: ignore[LM001]\n"
            "y = 2  # repro: ignore[LM002, LM003]\n"
            "z = 3  # repro: ignore\n"
        )
        codes = parse_suppressions(source)
        assert codes[1] == {"LM001"}
        assert codes[2] == {"LM002", "LM003"}
        assert codes[3] == {"*"}

    def test_unrelated_rule_not_suppressed(self):
        corpus = load_corpus([FIXTURES / "suppressed.py"])
        module = corpus[0]
        line = next(iter(module.suppressions))
        assert module.is_suppressed(line, "LM006")
        assert not module.is_suppressed(line, "LM004")


class TestBindings:
    def test_models_bound_from_run_local_sites(self):
        corpus = load_corpus(
            [FIXTURES / "dual_bound.py", FIXTURES / "lm001_bad.py"]
        )
        bindings = bind_models(CallGraph(corpus))
        assert bindings["BothWays"].models == {"DET", "RAND"}
        # Bound through a local variable assignment in the driver.
        assert bindings["SneakyDet"].models == {"DET"}

    def test_shipped_suite_binds_both_models(self):
        corpus = load_corpus([PACKAGE_DIR / "algorithms"])
        bindings = bind_models(CallGraph(corpus))
        bound = {
            name: b.models for name, b in bindings.items() if b.models
        }
        assert bound["LubyMIS"] == {"RAND"}
        assert bound["LinialColoring"] == {"DET"}
        assert bound["MISFromColoring"] == {"DET"}
        # Every binding carries at least one call site for diagnostics.
        for name in bound:
            assert bindings[name].sites


class TestJsonOutput:
    def test_diagnostic_carries_the_json_keys(self):
        result = analyze_fixture("lm005_bad.py")
        assert result.diagnostics
        for diag in result.diagnostics:
            data = diag.to_dict()
            assert tuple(sorted(data)) == tuple(
                sorted(DIAGNOSTIC_JSON_KEYS)
            )

    def test_result_schema(self):
        result = analyze_fixture("lm001_bad.py")
        data = json.loads(result.to_json())
        assert data["version"] == JSON_VERSION
        assert data["files_analyzed"] == 1
        assert data["summary"]["errors"] == 2
        assert data["summary"]["warnings"] == 0
        assert set(data["rules"]) == set(RULES)
        for spec in data["rules"].values():
            assert spec["severity"] in ("error", "warning")
            assert spec["rationale"]

    def test_max_severity(self):
        errors = analyze_fixture("lm001_bad.py").diagnostics
        warnings = analyze_fixture("lm006_bad.py").diagnostics
        assert max_severity(errors) is Severity.ERROR
        assert max_severity(warnings) is Severity.WARNING
        assert max_severity([]) is None


class TestLintCLI:
    def test_lint_errors_exit_nonzero(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "lm001_bad.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "LM001" in out and "error" in out

    def test_lint_clean_exits_zero(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "clean_algos.py")])
        assert code == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_lint_warnings_gate_only_under_strict(self, capsys):
        target = str(FIXTURES / "lm006_bad.py")
        assert cli_main(["lint", target]) == 0
        assert cli_main(["lint", "--strict", target]) == 1
        capsys.readouterr()

    def test_lint_json_format(self, capsys):
        code = cli_main(
            ["lint", "--format", "json", str(FIXTURES / "lm002_bad.py")]
        )
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["errors"] == 1
        assert data["diagnostics"][0]["rule_id"] == "LM002"

    def test_lint_missing_path_is_a_usage_error(self, tmp_path, capsys):
        """A typo'd path must not read as a clean gate, and neither
        must a path that holds no Python file."""
        code = cli_main(["lint", "does/not/exist.py"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err
        readme = str(tmp_path / "README.md")
        Path(readme).write_text("# not python\n")
        empty = str(tmp_path / "empty")
        Path(empty).mkdir()
        clean = str(FIXTURES / "clean_algos.py")
        for args, named in (
            ([readme], readme),
            (["--strict", empty], empty),
            ([readme, clean], readme),
        ):
            assert cli_main(["lint", *args]) == 2
            captured = capsys.readouterr()
            assert f"no Python files under: {named}\n" in captured.err
            assert "0 error(s)" not in captured.out

    def test_unparsable_file_is_an_error_finding(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        result = analyze_paths([bad])
        assert [d.rule_id for d in result.diagnostics] == ["PARSE"]
        assert max_severity(result.diagnostics) is Severity.ERROR
        assert cli_main(["lint", str(bad)]) == 1
        capsys.readouterr()

    def test_lint_default_target_is_shipped_package(self, capsys):
        """`repro lint` with no path gates the installed package —
        and the installed package is conformant."""
        assert cli_main(["lint", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["errors"] == 0
        assert data["summary"]["warnings"] == 0
        assert data["files_analyzed"] >= 70
