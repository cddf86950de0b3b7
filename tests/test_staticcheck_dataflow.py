"""Tests for the locality dataflow engine (rules LM010/LM011).

Covers: the AbsVal lattice algebra, IR lowering, static contract
recovery from ``DriverSpec``/``subject_from_algorithm`` declarations,
the seeded radius/determinism fixtures (exact lines), the registry
coverage meta-test (no driver silently skipped), suppression interplay
with the pattern rules, SARIF 2.1.0 output (motion-stable
fingerprints), and ``repro lint --sarif-output``.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.staticcheck import RULES, Severity, analyze_paths, load_corpus
from repro.staticcheck.callgraph import CallGraph
from repro.staticcheck.dataflow import (
    SYMMETRY_BREAKING_LCLS,
    analyzed_driver_names,
    extract_contracts,
)
from repro.staticcheck.dataflow.ir import (
    Bind,
    If,
    Loop,
    Ret,
    TargetKind,
    lower_function,
)
from repro.staticcheck.dataflow.lattice import (
    BOTTOM,
    ORDER,
    R0,
    RIN,
    RTOP,
    SEED,
    AbsVal,
    join,
    join_all,
)
from repro.staticcheck.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    fingerprint,
    to_sarif,
)

FIXTURES = Path(__file__).parent / "fixtures" / "staticcheck"
PACKAGE_DIR = Path(repro.__file__).resolve().parent
BROKEN_FIXTURES = Path(__file__).parent / "test_verify_relations.py"


def seeded_lines(fixture):
    """1-based lines carrying a ``# seeded:`` marker in a fixture."""
    source = (FIXTURES / fixture).read_text()
    return {
        number
        for number, text in enumerate(source.splitlines(), start=1)
        if "# seeded:" in text
    }


def line_of(path, needle, occurrence=1):
    """1-based line of the Nth occurrence of ``needle`` in ``path``."""
    seen = 0
    for number, text in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if needle in text:
            seen += 1
            if seen == occurrence:
                return number
    raise AssertionError(f"{needle!r} (#{occurrence}) not in {path}")


@pytest.fixture(scope="module")
def package_graph():
    return CallGraph(load_corpus([PACKAGE_DIR]))


class TestLatticeAlgebra:
    def test_join_takes_max_radius(self):
        assert join(AbsVal(radius=R0), AbsVal(radius=RIN)).radius == RIN
        assert join(AbsVal(radius=RIN), AbsVal(radius=RTOP)).radius == RTOP

    def test_join_unions_effects_and_taint(self):
        a = AbsVal(effects=frozenset({SEED}), id_taint=True)
        b = AbsVal(effects=frozenset({ORDER}))
        joined = join(a, b)
        assert joined.effects == {SEED, ORDER}
        assert joined.id_taint

    def test_bottom_is_identity(self):
        value = AbsVal(radius=RTOP, id_taint=True, tag="ctx")
        assert join(BOTTOM, value) == value
        assert join(value, BOTTOM) == value

    def test_differing_tags_merge_to_untagged(self):
        assert join(AbsVal(tag="ctx"), AbsVal(tag="self")).tag == ""
        assert join(AbsVal(tag="ctx"), AbsVal(tag="ctx")).tag == "ctx"

    def test_join_all_folds(self):
        joined = join_all(
            [
                AbsVal(radius=R0),
                AbsVal(radius=RIN, effects=frozenset({ORDER})),
                AbsVal(id_taint=True),
            ]
        )
        assert joined.radius == RIN
        assert joined.effects == {ORDER}
        assert joined.id_taint


class TestIRLowering:
    @pytest.fixture()
    def lowered(self, tmp_path):
        source = (
            "class Algo:\n"
            "    def step(self, ctx, inbox):\n"
            "        total = 0\n"
            "        for msg in inbox:\n"
            "            total += msg\n"
            "        if total > 0:\n"
            "            self._acc = total\n"
            "            ctx.state['acc'] = total\n"
            "        return total\n"
        )
        path = tmp_path / "lowered.py"
        path.write_text(source)
        module = load_corpus([path])[0]
        import ast

        fn = next(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.FunctionDef) and node.name == "step"
        )
        return lower_function("lowered:Algo.step", fn, module, "Algo")

    def test_context_fields(self, lowered):
        assert lowered.key == "lowered:Algo.step"
        assert lowered.class_name == "Algo"
        assert lowered.params == ["self", "ctx", "inbox"]
        assert lowered.self_name == "self"
        assert "ctx" in lowered.ctx_names

    def test_instruction_shapes(self, lowered):
        kinds = [type(instr) for instr in lowered.instrs]
        assert kinds == [Bind, Loop, If, Ret]
        loop = lowered.instrs[1]
        assert loop.bind is not None and loop.bind.element_of
        aug = loop.body[0]
        assert isinstance(aug, Bind) and aug.augmented

    def test_self_and_state_targets(self, lowered):
        branch = lowered.instrs[2]
        targets = [instr.target for instr in branch.body]
        assert targets[0].kind is TargetKind.SELF_ATTR
        assert targets[0].name == "_acc"
        assert targets[1].kind is TargetKind.STATE_KEY
        assert targets[1].key == "acc"


class TestSeededDataflowFixtures:
    """LM010/LM011 true positives with exact line accounting: every
    ``# seeded:``-marked line fires, and nothing else does."""

    @pytest.mark.parametrize(
        "fixture, rule",
        [("lm010_bad.py", "LM010"), ("lm011_bad.py", "LM011")],
    )
    def test_fixture_lines_match_seeded_markers(self, fixture, rule):
        result = analyze_paths([FIXTURES / fixture])
        assert {d.rule_id for d in result.diagnostics} == {rule}
        assert {d.line for d in result.diagnostics} == seeded_lines(
            fixture
        )
        for diag in result.diagnostics:
            assert diag.severity is Severity.ERROR
            assert diag.hint
            assert diag.chain  # names the entry point it was proved in

    def test_self_channel_message_names_the_attribute(self):
        result = analyze_paths([FIXTURES / "lm010_bad.py"])
        by_line = {d.line: d for d in result.diagnostics}
        shared = by_line[line_of(FIXTURES / "lm010_bad.py", "self._rank)")]
        assert "unbounded" in shared.message

    def test_zero_round_violation_cites_the_contract(self):
        result = analyze_paths([FIXTURES / "lm010_bad.py"])
        zero = next(
            d
            for d in result.diagnostics
            if d.chain == ("ZeroRound.setup",)
        )
        assert "radius-0" in zero.message
        assert "ZeroRound" in zero.message

    def test_laundered_rng_and_set_order_both_fire(self):
        result = analyze_paths([FIXTURES / "lm011_bad.py"])
        messages = " / ".join(d.message for d in result.diagnostics)
        assert "LaunderedSeed" in messages
        assert "OrderLeak" in messages


class TestContractExtraction:
    def test_every_registry_driver_declares_a_contract(
        self, package_graph
    ):
        from repro.algorithms.drivers import DRIVER_REGISTRY

        contracts = extract_contracts(package_graph)
        declared = {c.driver for c in contracts if c.kind == "driver-spec"}
        assert declared >= set(DRIVER_REGISTRY)
        assert len(DRIVER_REGISTRY) >= 11

    def test_linial_contract_details(self, package_graph):
        contracts = extract_contracts(package_graph)
        linial = next(
            c for c in contracts if c.driver == "linial-coloring"
        )
        assert linial.kind == "driver-spec"
        assert linial.model == "DET"
        assert linial.problem == "KColoring"
        assert linial.problem in SYMMETRY_BREAKING_LCLS
        assert "LinialColoring" in linial.classes
        assert linial.radius_label == "O(log* n) ball"
        assert linial.module.endswith("drivers")

    def test_radius_labels_recovered_for_all_specs(self, package_graph):
        contracts = [
            c
            for c in extract_contracts(package_graph)
            if c.kind == "driver-spec"
        ]
        for contract in contracts:
            assert contract.radius_label, contract.driver


class TestRegistryCoverageMeta:
    def test_no_registry_driver_escapes_the_dataflow_passes(
        self, package_graph
    ):
        """The acceptance meta-test: every driver in the runtime
        registry maps to at least one analyzed algorithm class — a
        registry entry the dataflow passes silently skip would make
        `repro lint --strict` a partial gate."""
        from repro.algorithms.drivers import DRIVER_REGISTRY

        analyzed = analyzed_driver_names(package_graph)
        missing = set(DRIVER_REGISTRY) - analyzed
        assert not missing, f"drivers never analyzed: {sorted(missing)}"


class TestBrokenVerifyFixturesAreFlagged:
    """The metamorphic broken fixtures in tests/test_verify_relations.py
    are real model violations — the static passes must agree with the
    runtime verdict (lines computed from source so edits don't rot)."""

    def test_exact_findings(self):
        result = analyze_paths([BROKEN_FIXTURES])
        found = sorted(
            (d.rule_id, d.line) for d in result.diagnostics
        )
        assert found == sorted(
            [
                ("LM010", line_of(BROKEN_FIXTURES, "ctx.halt(ctx.id % 3)")),
                ("LM010", line_of(BROKEN_FIXTURES, "ctx.halt(self._next)", 1)),
                ("LM010", line_of(BROKEN_FIXTURES, "ctx.halt(self._next)", 2)),
                # ShardRankColoring, the partition-invariance fixture:
                # the same shared-counter channel, third occurrence.
                ("LM010", line_of(BROKEN_FIXTURES, "ctx.halt(self._next)", 3)),
                ("LM011", line_of(BROKEN_FIXTURES, "_PANIC_RNG.getrandbits")),
            ]
        )

    def test_id_leak_is_the_zero_round_form(self):
        result = analyze_paths([BROKEN_FIXTURES])
        leak = next(
            d
            for d in result.diagnostics
            if d.chain == ("IdLeakColoring.setup",)
        )
        assert leak.rule_id == "LM010"
        assert "radius-0" in leak.message


INTERPLAY_SOURCE = '''\
from repro.core.algorithm import SyncAlgorithm
from repro.core.context import Model
from repro.core.engine import run_local


class Interplay(SyncAlgorithm):
    name = "interplay"

    def __init__(self):
        self._rank = 0

    def setup(self, ctx):
        ctx.publish(0)

    def step(self, ctx, inbox):
        self._rank += 1
        ctx.publish(self._rank + ctx.now)  # repro: ignore[LM010]


class TypoSuppress(SyncAlgorithm):
    name = "typo-suppress"

    def setup(self, ctx):
        ctx.halt(0)  # repro: ignore[LM999]


def driver(graph):
    run_local(graph, Interplay(), Model.DET)
    run_local(graph, TypoSuppress(), Model.DET)
'''


class TestSuppressionInterplay:
    @pytest.fixture()
    def result(self, tmp_path):
        path = tmp_path / "interplay.py"
        path.write_text(INTERPLAY_SOURCE)
        return analyze_paths([path])

    def test_targeted_ignore_waives_only_the_named_rule(self, result):
        line = INTERPLAY_SOURCE.splitlines().index(
            "        ctx.publish(self._rank + ctx.now)"
            "  # repro: ignore[LM010]"
        ) + 1
        # Same line, two rules: LM010 is waived, LM006 still gates.
        assert [(d.rule_id, d.line) for d in result.suppressed] == [
            ("LM010", line)
        ]
        surviving = {
            (d.rule_id, d.line) for d in result.diagnostics
        }
        assert ("LM006", line) in surviving
        assert not any(r == "LM010" for r, _ in surviving)

    def test_unknown_rule_id_surfaces_as_suppress_warning(self, result):
        warn = next(
            d for d in result.diagnostics if d.rule_id == "SUPPRESS"
        )
        assert warn.severity is Severity.WARNING
        assert "LM999" in warn.message


class TestSarif:
    @pytest.fixture()
    def log(self):
        result = analyze_paths([FIXTURES / "lm010_bad.py"])
        return to_sarif(result, base_dir=FIXTURES)

    def test_schema_and_version(self, log):
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA
        assert len(log["runs"]) == 1

    def test_all_rules_declared_including_pseudo(self, log):
        rules = {
            r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]
        }
        assert rules == set(RULES) | {"PARSE", "SUPPRESS"}
        for descriptor in log["runs"][0]["tool"]["driver"]["rules"]:
            assert descriptor["shortDescription"]["text"]
            assert descriptor["defaultConfiguration"]["level"] in (
                "error",
                "warning",
            )

    def test_results_carry_location_and_fingerprint(self, log):
        results = log["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"LM010"}
        for res in results:
            location = res["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == "lm010_bad.py"
            assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"
            assert location["region"]["startLine"] > 0
            assert res["partialFingerprints"]["reproLint/v1"]
            assert res["level"] == "error"

    def test_chain_folded_into_message(self, log):
        texts = [
            r["message"]["text"] for r in log["runs"][0]["results"]
        ]
        assert any("reachable via" in t for t in texts)

    def test_fingerprint_stable_under_code_motion(self, tmp_path):
        source = (FIXTURES / "lm011_bad.py").read_text()
        path = tmp_path / "lm011_bad.py"
        path.write_text(source)
        before = {
            fingerprint(d, tmp_path)
            for d in analyze_paths([path]).diagnostics
        }
        path.write_text("# moved\n# down\n" + source)
        shifted = analyze_paths([path]).diagnostics
        assert {d.line for d in shifted} != seeded_lines("lm011_bad.py")
        assert {fingerprint(d, tmp_path) for d in shifted} == before

    def test_fingerprint_changes_when_the_line_changes(self, tmp_path):
        source = (FIXTURES / "lm011_bad.py").read_text()
        path = tmp_path / "lm011_bad.py"
        path.write_text(source)
        before = {
            fingerprint(d, tmp_path)
            for d in analyze_paths([path]).diagnostics
        }
        path.write_text(
            source.replace("getrandbits(8)", "getrandbits(16)")
        )
        after = {
            fingerprint(d, tmp_path)
            for d in analyze_paths([path]).diagnostics
        }
        assert before != after


class TestLintCLIDataflowFlags:
    def test_sarif_format_and_output_file(self, tmp_path, capsys):
        """SARIF goes to a file only; stdout keeps the text report."""
        out = tmp_path / "nested" / "lint.sarif"
        code = cli_main(
            [
                "lint",
                "--sarif-output",
                str(out),
                str(FIXTURES / "lm010_bad.py"),
            ]
        )
        assert code == 1
        printed = capsys.readouterr().out
        assert "[LM010]" in printed and "error(s)" in printed
        written = json.loads(out.read_text())
        assert written["version"] == "2.1.0"
        assert {
            r["ruleId"] for r in written["runs"][0]["results"]
        } == {"LM010"}
