"""Self-tests of the benchmark (not part of tier-1)::

    python3 -m pytest perfbench -q

Traced and digest tests run the workloads' ``--smoke`` sizes in fresh
processes, exactly as ``run.py`` does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import tracer
from workload import WORKLOADS

VERIFY = ["verify-quick", "verify-separation"]

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_tail_is_highest_percentile_with_ten_samples_beyond() -> None:
    assert run.tail(range(10)) is None
    assert run.tail(range(20)) == {"p": 50.0, "value": 9.5}
    assert run.tail(range(100))["p"] == 90.0
    assert run.tail(range(1000))["p"] == 99.0


def test_slowdown_uses_the_probes_of_its_own_interval() -> None:
    ref = speed.REFERENCE_S
    probes = [(0.0, ref), (1.0, 2 * ref), (2.0, 3 * ref)]
    assert speed.slowdown(probes, 0.5, 2.5) == pytest.approx(2.5)
    assert speed.slowdown(probes, 0.0, 1.0) == pytest.approx(1.0)
    # An interval no probe fell in takes the mean of all of them.
    assert speed.slowdown(probes, 5.0, 6.0) == pytest.approx(2.0)


def test_self_time_subtracts_child_spans_and_per_node_calls() -> None:
    clock = FakeClock()
    rec = tracer.Recorder(traced=True, clock=clock)

    def tick() -> None:
        clock.t += 2.0

    step = tracer.node_wrapper(rec, tick, "algorithms.step")
    # A per-node call reached through another one (super()) is timed once.
    outer_step = tracer.node_wrapper(rec, lambda: step(), "algorithms.step")

    driver = rec.open("algorithms.driver")
    clock.t += 1.0
    runner = rec.open("run_local", backend="fast", n=1)
    outer_step()
    clock.t += 0.5
    rec.close(runner)
    step()
    clock.t += 0.25
    rec.close(driver)
    step()  # outside every span

    selfs, direct, outside = tracer.self_times(rec)
    assert selfs == [1.25, 0.5]
    assert direct[1][:2] == [2.0, 1]
    assert outside[:2] == [2.0, 1]
    assert rec.acc[0] == [6.0, 3]
    assert tracer.covered_time(rec) == 7.75 == sum(selfs) + rec.acc[0][0]
    metrics = tracer.layer_metrics(rec, [])
    assert metrics["algorithms.driver_self_s"] == 1.25
    assert metrics["core.fast.self_s"] == 0.5
    assert sum(metrics[name] for name in tracer.PARTITION) == 7.75


PERTURB = """
import sys
sys.path.insert(0, "perfbench")
from repro.core import backend

fast = backend.get_backend("fast")

def load():
    runner = fast.loader()

    def perturbed(*args, **kwargs):
        result = runner(*args, **kwargs)
        result.messages += 1
        return result

    return perturbed

backend.register_backend(
    "fast", load, description=fast.description,
    capture_state=fast.capture_state, restore_state=fast.restore_state,
)
import workload
sys.exit(workload.main(sys.argv[1:]))
"""


def test_digest_check_catches_a_perturbed_output(tmp_path: Path) -> None:
    runner = run.Runner(ROOT, tmp_path, "separation", 1, smoke=True)
    good = runner.spawn()
    again = runner.spawn()
    assert run.check_operations([good, again], None)["failed"] == 0

    report = tmp_path / "perturbed.json"
    subprocess.run(
        [sys.executable, "-c", PERTURB, "--workload", "separation", "--seed", "1",
         "--smoke", "--report", str(report)],
        cwd=ROOT, env=runner.env, check=True,
    )
    perturbed = json.loads(report.read_text())
    # The colorings stay valid, only the message count moved.
    assert all(op["ok"] for op in perturbed["ops"])
    checked = run.check_operations([good, perturbed], None)
    assert checked["failed"] == len(perturbed["ops"]) > 0
    assert all("digest" in p for p in checked["problems"])
    stored = {op["name"]: op["digest"] for op in perturbed["ops"]}
    assert run.check_operations([good], stored)["failed"] == len(good["ops"])


def test_stored_digests_are_the_whole_reference() -> None:
    stored = {"a": "1", "b": "2"}
    ok = {"ops": [{"name": "a", "ok": True, "digest": "1"},
                  {"name": "b", "ok": True, "digest": "2"}]}
    assert run.check_operations([ok, ok], stored)["failed"] == 0
    # Renamed operation: the stored one is missing and the new one has
    # no stored digest, even though every process agrees with the other.
    renamed = {"ops": [{"name": "a", "ok": True, "digest": "1"},
                       {"name": "c", "ok": True, "digest": "2"}]}
    checked = run.check_operations([renamed, renamed], stored)
    assert checked["failed"] == 4 and checked["attempted"] == 6
    assert any("c has no reference digest" in p for p in checked["problems"])
    assert any("b missing" in p for p in checked["problems"])


@pytest.fixture(scope="module")
def traced(tmp_path_factory: pytest.TempPathFactory) -> dict:
    out = {}
    for workload in WORKLOADS:
        work = tmp_path_factory.mktemp(workload)
        runner = run.Runner(ROOT, work, workload, 1, smoke=True)
        untraced = runner.spawn()
        report = runner.spawn(trace=1)
        assert "error" not in report, report.get("error")
        assert run.check_operations([untraced, report], None)["failed"] == 0
        spans_path = work / f"spans-{workload}-1.jsonl"
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        out[workload] = (report, run.layers(report, untraced["wall_s"]), spans)
    return out


def test_vectorized_runner_is_timed_at_its_call(traced: dict) -> None:
    _, values, spans = traced["shatter"]
    # on_run_start fires after kernel.setup(): timing from observer
    # callbacks would miss VectorMT seeding, which sits in this span.
    setups = [s for s in spans if s["name"] == "backends.vectorized.kernel_setup"]
    assert setups and values["backends.vectorized.kernel_setup_s"] > 0
    for s in setups:
        parent = spans[s["parent"]]
        assert parent["name"] == "run_local" and parent["backend"] == "vectorized"
    runs = [s for s in spans if s["name"] == "run_local"]
    fallbacks = [s for s in runs if s["stepped_by"] == "per-node"]
    assert fallbacks and all(s["backend"] == "vectorized" for s in fallbacks)
    assert values["backends.fallbacks"] == len(fallbacks)
    assert 0 < values["backends.kernel_share"] < 1


@pytest.mark.parametrize("workload", VERIFY)
def test_verify_runs_without_ambient_observer(traced: dict, workload: str) -> None:
    report, values, _ = traced[workload]
    # checkpoint-resume raises CheckpointError under any ambient
    # observer that is not checkpoint-capable; it passes, and its
    # checkpoint traffic is still counted from the wrapped calls.
    resumed = [op["ok"] for op in report["ops"] if op["name"].endswith("/checkpoint-resume")]
    assert resumed and all(resumed)
    assert values["core.checkpoint.saves"] > 0 and values["core.checkpoint.bytes"] > 0
    assert values["core.atomicio.write_s"] > 0


@pytest.mark.parametrize("workload", VERIFY)
def test_sharded_numbers_come_from_the_runner_span(traced: dict, workload: str) -> None:
    _, values, spans = traced[workload]
    sharded = [s for s in spans if s["name"] == "run_local" and s["backend"] == "sharded"]
    native = [s for s in sharded if s["stepped_by"] == "shards"]
    assert native, "no sharded run stepped in its workers"
    # Runs stopped by a fault plan's round budget raise and count no rounds.
    assert values["backends.sharded.rounds"] == sum(s.get("rounds", 0) for s in native) > 0
    assert values["backends.sharded.run_s"] == pytest.approx(
        sum(s["end"] - s["start"] for s in native)
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_spans_are_closed_and_fit_in_the_traced_wall(traced: dict, workload: str) -> None:
    report, values, _ = traced[workload]
    # Self times plus trace.unattributed_s equal the traced wall by
    # definition; these are the conditions run.py fails a traced run on.
    assert report["negative_self"] == 0
    assert report["open_spans"] == 0
    assert values["trace.unattributed_s"] > 0


def test_traced_run_reports_every_per_layer_metric(traced: dict) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    for _, values, _ in traced.values():
        assert listed <= set(values)
    assert set(tracer.PARTITION) <= listed


def test_fails_without_a_source_tree(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shatter", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
