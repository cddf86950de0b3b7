"""The verification subsystem itself: generators, shrinking,
certificates, the harness sweep, and the ``repro verify`` CLI."""

import json
from pathlib import Path

import pytest

from repro.algorithms.drivers import (
    AlgorithmReport,
    DriverSpec,
    PhaseLog,
    driver_registry,
    get_driver,
    validate_registry,
)
from repro.cli import main as cli_main
from repro.core.context import Model
from repro.core.errors import VerificationError
from repro.graphs.generators import cycle_graph, path_graph
from repro.lcl import KColoring, LCLProblem
from repro.lcl.problem import BallRestrictedLabeling
from repro.verify import (
    CERTIFICATE_SCHEMA,
    CERTIFICATE_VERSION,
    certify,
    make_instance,
    permute_ports,
    permute_vertices,
    run_verification,
    shrink_instance,
    shuffled_ids,
    trial_seeds,
    write_counterexamples,
)
from repro.verify.gen import random_permutation

GOLDEN = Path(__file__).parent / "fixtures"


def _cycle(n, rng):
    return cycle_graph(max(3, n))


# ----------------------------------------------------------------------
# Generators and shrinking
# ----------------------------------------------------------------------
def test_instances_are_pure_functions_of_the_seed():
    a = make_instance(_cycle, 24, 7)
    b = make_instance(_cycle, 24, 7)
    assert a.graph == b.graph
    assert a.ids == b.ids
    assert a.run_seed == b.run_seed
    different = make_instance(_cycle, 24, 8)
    assert (
        different.ids != a.ids or different.run_seed != a.run_seed
    )


def test_shuffled_ids_is_a_dense_permutation():
    ids = shuffled_ids(40, 3)
    assert sorted(ids) == list(range(40))
    assert ids != list(range(40))


def test_trial_seeds_are_distinct_and_reproducible():
    seeds = trial_seeds(99, 16)
    assert len(set(seeds)) == 16
    assert seeds == trial_seeds(99, 16)


def test_shrink_finds_the_minimal_failing_size():
    # Failure predicate "n >= 7" on a size-exact family: the halve-
    # and-retest ladder must land exactly on 7, not merely below the
    # start.
    start = make_instance(_cycle, 24, 0)
    shrunk = shrink_instance(
        start, lambda inst: inst.n >= 7, _cycle, 3
    )
    assert shrunk.n == 7


def test_shrink_respects_the_family_floor():
    start = make_instance(_cycle, 24, 0)
    shrunk = shrink_instance(
        start, lambda inst: True, _cycle, 5
    )
    assert shrunk.requested_n == 5


def test_permute_ports_preserves_adjacency_not_ports():
    g = make_instance(_cycle, 12, 1).graph
    h = permute_ports(g, 5)
    assert h.num_vertices == g.num_vertices
    for v in g.vertices():
        assert sorted(h.neighbors(v)) == sorted(g.neighbors(v))
    assert any(
        list(h.neighbors(v)) != list(g.neighbors(v))
        for v in g.vertices()
    )


def test_permute_vertices_preserves_port_structure():
    g = path_graph(9)
    perm = random_permutation(9, 11)
    h = permute_vertices(g, perm)
    for v in g.vertices():
        assert h.degree(perm[v]) == g.degree(v)
        for p in range(g.degree(v)):
            assert h.endpoint(perm[v], p) == perm[g.endpoint(v, p)]
            assert h.reverse_port(perm[v], p) == g.reverse_port(v, p)


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------
def test_certificate_accepts_a_proper_coloring():
    g = cycle_graph(6)
    cert = certify(
        KColoring(2), g, [0, 1, 0, 1, 0, 1],
        driver="demo", rounds=3, bound=10.0, bound_label="O(1)",
    )
    assert cert.valid and cert.ok
    assert cert.rounds_within_bound is True
    assert cert.checked_balls == 6 and cert.violation_count == 0


def test_certificate_names_the_violating_balls():
    g = path_graph(4)
    cert = certify(KColoring(2), g, [0, 0, 1, 0])
    assert not cert.valid
    assert [v.vertex for v in cert.violations] == [0, 1]
    assert cert.violations[0].ball == [0, 1]
    # No bound declared -> no round audit, validity alone decides.
    assert cert.rounds_within_bound is None and not cert.ok


def test_certificate_round_audit_fails_on_bound_excess():
    g = cycle_graph(4)
    cert = certify(
        KColoring(2), g, [0, 1, 0, 1], rounds=99, bound=10.0,
        bound_label="O(1)",
    )
    assert cert.valid and cert.rounds_within_bound is False
    assert not cert.ok


def test_certificate_golden_file():
    g = path_graph(4)
    cert = certify(
        KColoring(2), g, [0, 0, 1, 0],
        driver="golden-driver", rounds=7, bound=5.0,
        bound_label="O(1) demo",
    )
    expected = (
        (GOLDEN / "verify_certificate_golden.json")
        .read_text()
        .strip()
    )
    assert cert.to_json() == expected
    payload = json.loads(cert.to_json())
    assert payload["schema"] == CERTIFICATE_SCHEMA
    assert payload["version"] == CERTIFICATE_VERSION


def test_certificate_serialization_is_canonical():
    g = cycle_graph(5)
    certs = [
        certify(KColoring(3), g, [0, 1, 0, 1, 2]) for _ in range(2)
    ]
    assert certs[0].to_json() == certs[1].to_json()
    # sorted keys, compact separators
    assert '"schema":"repro.verify.certificate"' in certs[0].to_json()


class _PeekingProblem(LCLProblem):
    """A cheating checker that reads a label outside its radius-1
    ball."""

    name = "peeking"

    def check_vertex(self, graph, v, labeling, inputs=None):
        far = (v + 2) % graph.num_vertices
        labeling[far]
        return None


def test_check_ball_rejects_non_local_checkers():
    g = cycle_graph(8)
    problem = _PeekingProblem()
    # The whole-labeling convenience path cannot see the violation...
    assert problem.check_vertex(g, 0, [0] * 8) is None
    # ...but the certificate path masks the labeling to N^1(v).
    with pytest.raises(VerificationError, match="non-local read"):
        problem.check_ball(g, 0, [0] * 8)


def test_ball_restricted_labeling_allows_reads_inside_the_ball():
    g = path_graph(5)
    restricted = BallRestrictedLabeling(
        [10, 11, 12, 13, 14], g.ball(2, 1), 2, 1
    )
    assert restricted[1] == 11 and restricted[3] == 13
    assert len(restricted) == 5
    with pytest.raises(VerificationError):
        restricted[0]


# ----------------------------------------------------------------------
# Driver registry metadata
# ----------------------------------------------------------------------
def test_registry_validates_clean():
    validate_registry()


def test_registry_covers_every_driver_with_metadata():
    registry = driver_registry()
    assert len(registry) >= 10
    for spec in registry.values():
        assert spec.problem is not None
        assert spec.bound is not None and spec.bound_label
        assert spec.make_graph is not None and spec.min_n >= 2
        assert spec.accepts_ids or spec.accepts_seed


def test_registry_rejects_missing_metadata():
    good = get_driver("deterministic-mis")
    from dataclasses import replace

    with pytest.raises(VerificationError, match="bound_label"):
        validate_registry(
            {"bad": replace(good, name="bad", bound_label="")}
        )
    with pytest.raises(VerificationError, match="does not match"):
        validate_registry({"other-name": good})
    with pytest.raises(VerificationError, match="must not consume"):
        validate_registry(
            {"bad": replace(good, name="bad", accepts_seed=True)}
        )


def test_get_driver_unknown_name_lists_the_registry():
    with pytest.raises(VerificationError, match="deterministic-mis"):
        get_driver("no-such-driver")


def test_driver_spec_run_rejects_unsupported_knobs():
    spec = get_driver("luby-mis")
    g = spec.make_graph(spec.quick_n, __import__("random").Random(0))
    with pytest.raises(VerificationError, match="ID assignment"):
        spec.run(g, ids=list(range(g.num_vertices)))


# ----------------------------------------------------------------------
# Harness sweep (the tier-1 acceptance gate) and CLI
# ----------------------------------------------------------------------
def test_quick_sweep_passes_over_all_shipped_drivers():
    report = run_verification(quick=True)
    assert report.ok, "\n".join(report.summary_lines())
    drivers = {cell.driver for cell in report.cells}
    assert drivers == set(driver_registry())
    # Every driver gets a certificate cell plus >= 4 relation cells.
    for name in drivers:
        cells = [c for c in report.cells if c.driver == name]
        assert {c.relation for c in cells} >= {
            "certificate",
            "port-permutation",
            "engine-equivalence",
            "observer-neutrality",
            "fault-determinism",
        }


def _broken_registry():
    """One registered driver whose labeling never satisfies its LCL."""

    def invoke(graph, ids, seed):
        return AlgorithmReport(
            labeling=[0] * graph.num_vertices, rounds=1, log=PhaseLog()
        )

    spec = DriverSpec(
        name="always-zero",
        model=Model.DET,
        invoke=invoke,
        problem=lambda g: KColoring(2),
        bound=lambda n, delta: 10.0,
        bound_label="O(1)",
        make_graph=_cycle,
        min_n=3,
        accepts_ids=True,
    )
    return {"always-zero": spec}


def test_sweep_reports_and_shrinks_certificate_failures(tmp_path):
    report = run_verification(
        registry=_broken_registry(),
        quick=True,
        relation_names=[],
    )
    assert not report.ok
    examples = report.counterexamples()
    assert examples and examples[0].relation == "certificate"
    assert examples[0].instance["n"] == 3  # shrunk to the floor
    assert examples[0].shrunk_from_n >= examples[0].instance["n"]

    out = tmp_path / "ce.jsonl"
    written = write_counterexamples(report, str(out))
    lines = out.read_text().splitlines()
    assert written == len(examples) == len(lines)
    record = json.loads(lines[0])
    assert record["driver"] == "always-zero"
    assert record["relation"] == "certificate"
    # canonical form: keys sorted in the serialized line
    keys = list(json.loads(lines[0]).keys())
    assert keys == sorted(keys)


def test_sweep_is_reproducible():
    kwargs = dict(
        registry=_broken_registry(), quick=True, relation_names=[]
    )
    first = run_verification(**kwargs)
    second = run_verification(**kwargs)
    assert [c.to_dict() for c in first.counterexamples()] == [
        c.to_dict() for c in second.counterexamples()
    ]


def test_sweep_unknown_driver_name_raises():
    with pytest.raises(KeyError):
        run_verification(drivers=["no-such-driver"], quick=True)


def test_cli_verify_quick_exits_zero(capsys):
    assert cli_main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "cells" in out and "0 failing" in out


def test_cli_verify_list_relations(capsys):
    assert cli_main(["verify", "--list-relations"]) == 0
    out = capsys.readouterr().out
    for name in (
        "id-relabeling",
        "port-permutation",
        "vertex-order",
        "engine-equivalence",
        "observer-neutrality",
        "fault-determinism",
        "order-invariance",
    ):
        assert name in out


def test_cli_verify_unknown_driver_exits_two(capsys):
    assert cli_main(["verify", "--driver", "nope", "--quick"]) == 2
    assert "unknown driver" in capsys.readouterr().err


def test_trials_below_one_is_a_usage_error(capsys):
    """Zero trials per cell would report every cell ok after checking
    nothing."""
    for trials in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            run_verification(
                drivers=["luby-mis"], trials=trials, quick=True
            )
    code = cli_main(
        ["verify", "--quick", "--driver", "luby-mis", "--trials", "0"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "at least 1" in captured.err
    assert "cells" not in captured.out


def test_cli_verify_writes_empty_report_when_clean(tmp_path, capsys):
    out = tmp_path / "counterexamples.jsonl"
    code = cli_main(
        [
            "verify",
            "--quick",
            "--driver",
            "deterministic-sinkless",
            "--report",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists() and out.read_text() == ""
