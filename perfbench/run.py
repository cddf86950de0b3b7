"""End-to-end benchmark of the repro simulator: one workload, one seed.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload shatter --seed 1 --seconds 40 --trace 0

Closed loop, one client: each sample is a fresh interpreter
(``perfbench/workload.py``) started after the previous one exited, until
the next sample would overrun ``--seconds``.  While a sample runs, the
parent probes the speed of the CPU it shares with it (``speed.py``), and
the sample's timings are scaled to the host's full speed.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` adds
one traced process and reports the per-layer metrics.  Every operation
checks its own output and its digest (rounds, messages and outputs of
every ``run_local`` call) against ``perfbench/digests.json`` where that
file holds the seed, else against the invocation's first good process.
The line ``digests: {...}`` holds the first good process's digests, in
the form ``digests.json`` stores them.  The last stdout line is the JSON
result; the exit code is nonzero when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import speed
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: Every workload process, and the parent that probes its speed, runs
#: on this one CPU of the benchmark's own affinity set.  The workloads
#: are single-threaded except the sharded backend's forked workers
#: (verify workloads), whose barrier exchange across CPUs of a shared
#: virtual machine made sample times swing about 2.5x as much as on one
#: CPU (README.md).
WORKLOAD_CPU = max(os.sched_getaffinity(0))
#: Hard cap on one invocation, below the 180 s a caller allows.
INVOCATION_LIMIT_S = 170.0
#: Largest share one traced process may take off ``--seconds`` before
#: the untraced loop stops; traced runs cost up to ~1.3x untraced.
TRACED_FACTOR = 1.3
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of already sorted values."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (len(sorted_values) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples beyond it
    (``None`` when there are too few samples for any)."""
    ordered = sorted(values)
    for p in reversed(PERCENTILES):
        value = percentile(ordered, p)
        if sum(1 for v in ordered if v > value) >= 10:
            return {"p": p, "value": value}
    return None


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    return {"median": statistics.median(values), "tail": tail(values), "n": len(values)}


def environment(work: Path) -> Dict[str, Any]:
    """Host facts that move the figures: cores, CPU, versions, and the
    filesystem holding the temp directory (checkpoint fsyncs land there)."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs, best = "unknown", ""
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                point = fields[1]
                if str(work).startswith(point) and len(point) > len(best):
                    best, fs = point, f"{fields[2]} on {point}"
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # numpy absent: the vectorized backend cannot run
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workload_cpu": WORKLOAD_CPU,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "tmp_filesystem": fs,
    }


class Runner:
    """Spawns workload processes and collects their reports.  Pins the
    calling process to ``WORKLOAD_CPU``; the workloads inherit that."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int, smoke: bool):
        os.sched_setaffinity(0, {WORKLOAD_CPU})
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.deadline = time.monotonic() + INVOCATION_LIMIT_S
        self.count = 0
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        # Temp files stay inside the checkout; a fixed string-hash seed
        # keeps repr()-based digests of set-valued outputs stable.
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            TMPDIR=str(tmp),
            PYTHONHASHSEED="0",
        )
        self.env.pop("REPRO_BACKEND", None)

    def spawn(self, trace: int = 0) -> Dict[str, Any]:
        """One fresh process; returns its report plus ``wall_s``,
        ``setup_s`` and ``peak_rss_mb`` (or ``error``).  The two times
        are scaled to full host speed, each by the probes of its own
        interval; ``raw_wall_s`` and ``raw_setup_s`` are as measured."""
        self.count += 1
        report_path = self.work / f"report-{self.count}.json"
        spans_path = self.work / f"spans-{self.workload}-{self.seed}.jsonl"
        cmd = [
            sys.executable,
            str(HERE / "workload.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--trace", str(trace),
            "--report", str(report_path),
        ]
        if self.smoke:
            cmd.append("--smoke")
        if trace:
            cmd += ["--spans", str(spans_path)]
        log_path = self.work / f"log-{self.count}.txt"
        with open(log_path, "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env, stdout=log, stderr=log,
                start_new_session=True,
            )
            status, usage, probes = self._wait(proc)
        result: Dict[str, Any] = {"trace": trace}
        if status != 0 or not report_path.exists():
            tail_text = log_path.read_text(errors="replace")[-2000:]
            result["error"] = f"exit status {status}: {tail_text}"
            return result
        with open(report_path, encoding="utf-8") as fh:
            result.update(json.load(fh))
        t_setup, t_result = result["t_setup"], result["t_result"]
        result["raw_setup_s"] = t_setup - start
        result["raw_wall_s"] = t_result - start
        result["slowdown"] = speed.slowdown(probes, start, t_result)
        result["setup_s"] = result["raw_setup_s"] / speed.slowdown(probes, start, t_setup)
        result["wall_s"] = result["setup_s"] + (t_result - t_setup) / speed.slowdown(
            probes, t_setup, t_result
        )
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return result

    def _wait(self, proc: subprocess.Popen) -> Any:
        """Probe the CPU's speed until ``proc`` exits; returns its exit
        code, resource usage and the probes."""
        probes: List[speed.Probe] = []
        try:
            while True:
                probes.append((time.monotonic(), speed.probe()))
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    raise TimeoutError("invocation time limit reached")
                time.sleep(speed.PERIOD_S)
        except BaseException as exc:
            # Timeout or interrupt: stop the whole process group first.
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, TimeoutError):
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:  # stragglers of the process group (e.g. orphaned workers)
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        return proc.returncode, usage, probes


def check_operations(
    runs: Sequence[Dict[str, Any]], stored: Optional[Dict[str, str]]
) -> Dict[str, Any]:
    """Count operations and failures over all processes.

    The reference is the stored digests for this seed where they exist,
    else the first good process's.  Every process must run exactly the
    reference's operations: an operation fails when its own output check
    failed, when its digest differs from the reference, when the
    reference does not name it, or when the process did not run it.  A
    process that crashed fails as many operations as the reference holds.
    """
    reference: Dict[str, str] = dict(stored or {})
    if not reference:
        for run in runs:
            if "error" not in run:
                reference = {op["name"]: op["digest"] for op in run["ops"]}
                break
    attempted = failed = 0
    problems: List[str] = []
    for i, run in enumerate(runs):
        if "error" in run:
            lost = max(1, len(reference))
            attempted += lost
            failed += lost
            problems.append(f"process {i} failed: {run['error'][-300:]}")
            continue
        seen = set()
        for op in run["ops"]:
            attempted += 1
            seen.add(op["name"])
            expected = reference.get(op["name"])
            if not op["ok"]:
                failed += 1
                problems.append(f"process {i}: {op['name']} failed its output check")
            elif expected is None:
                failed += 1
                problems.append(f"process {i}: {op['name']} has no reference digest")
            elif op["digest"] != expected:
                failed += 1
                problems.append(
                    f"process {i}: {op['name']} digest {op['digest']} != {expected}"
                )
        missing = set(reference) - seen
        attempted += len(missing)
        failed += len(missing)
        problems.extend(f"process {i}: {name} missing" for name in sorted(missing))
    return {"attempted": attempted, "failed": failed, "problems": problems}


def load_stored(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if not DIGESTS.exists():
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def end_to_end(runs: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    good = [r for r in runs if "error" not in r]
    return {
        "wall_s": summarize([r["wall_s"] for r in good]),
        "setup_s": summarize([r["setup_s"] for r in good]),
        "vertex_rounds_per_s": summarize(
            [r["counts"]["vertex_rounds"] / (r["wall_s"] - r["setup_s"]) for r in good]
        ),
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in good]),
    }


def layers(traced: Dict[str, Any], untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of the traced process.  Spans are timed as
    measured, so ``trace.wall_s`` is too; ``trace.overhead_ratio``
    compares speed-scaled walls."""
    values = dict(traced["layers"])
    wall = traced["raw_wall_s"]
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = wall - values.pop("trace.covered_s")
    values["trace.overhead_ratio"] = traced["wall_s"] / untraced_wall
    return values


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a repro source checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = root / ".perfbench"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    # Byte-compile first: users pay that once per install, not per run.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
        cwd=root, check=True, stdout=subprocess.DEVNULL,
    )
    env = environment(work)
    runner = Runner(root, work, args.workload, args.seed, args.smoke)

    began = time.monotonic()
    runs: List[Dict[str, Any]] = []
    longest = 0.0
    reserve = 0.0
    while True:
        run = runner.spawn()
        runs.append(run)
        if "error" in run:
            break
        longest = max(longest, run["raw_wall_s"])
        reserve = TRACED_FACTOR * longest if args.trace else 0.0
        if time.monotonic() - began + longest + reserve > args.seconds:
            break
    traced = runner.spawn(trace=1) if args.trace and "error" not in runs[-1] else None

    stored = None if args.smoke else load_stored(args.workload, args.seed)
    checked = check_operations(runs + ([traced] if traced else []), stored)
    correct = checked["failed"] == 0
    metrics: Dict[str, Dict[str, Any]] = {}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for problem in checked["problems"]:
        print(f"FAILED {problem}")
    good = [r for r in runs if "error" not in r]
    if good:
        digests = {op["name"]: op["digest"] for op in good[0]["ops"]}
        print(f"digests: {json.dumps(digests, sort_keys=True)}")
        summary = end_to_end(runs)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, stats in summary.items():
            t = stats["tail"]
            tail_text = f"p{t['p']:g}={t['value']:.6g}" if t else "tail=n/a (needs 20+ samples)"
            print(
                f"  {name:<22} {units.get(name, ''):<6} "
                f"median={stats['median']:.6g}  {tail_text}  n={stats['n']}"
            )
        print("  wall_s samples: " + " ".join(f"{r['wall_s']:.3f}" for r in good))
        print("  as measured:    " + " ".join(f"{r['raw_wall_s']:.3f}" for r in good))
        print("  slowdown:       " + " ".join(f"{r['slowdown']:.3f}" for r in good))
        if not args.trace:
            metrics = {
                name: {"value": summary[name]["median"], "unit": units[name]}
                for name in units
            }
    fail_ratio = checked["failed"] / checked["attempted"] if checked["attempted"] else 1.0
    print(
        f"  {'fail_ratio':<22} {'ratio':<6} {fail_ratio:.6g} = "
        f"{checked['failed']}/{checked['attempted']} operations"
    )
    if traced is not None:
        if "error" in traced:
            correct = False
        else:
            values = layers(traced, statistics.median(r["wall_s"] for r in good))
            # The self times plus trace.unattributed_s equal the traced
            # wall by construction; what can go wrong is a span that
            # claims more than its interval, a span left open, or spans
            # that cover more than the process's own wall time.
            if (
                traced["negative_self"]
                or traced["open_spans"]
                or values["trace.unattributed_s"] < 0
            ):
                correct = False
                print(
                    f"FAILED traced spans: {traced['negative_self']} negative self times, "
                    f"{traced['open_spans']} open, "
                    f"unattributed {values['trace.unattributed_s']:.6f} s"
                )
            for m in spec["per_layer"]:
                value = values.get(m["name"], 0.0)
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
                print(f"  {m['name']:<44} {m['unit']:<6} {value:.6g}")
    print(json.dumps({
        "correct": correct,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
