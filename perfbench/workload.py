"""One benchmark process: set up one workload, run it, report.

Started by ``perfbench/run.py`` as a fresh interpreter per sample, so
imports and first-touch costs count as they do for a user::

    PYTHONPATH=src python3 perfbench/workload.py --workload shatter \
        --seed 1 --trace 0 --report out.json

The report holds ``time.monotonic()`` stamps, taken where the first
engine or driver call is made (``t_setup``) and at the verified result
(``t_result``), which the parent compares with its own spawn time; on
Linux that clock is shared by all processes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, Optional, Sequence

import tracer

DELTA = 9

#: Full-size and smoke (``--smoke``, for the self-tests) parameters.
SHATTER_N = {False: 100_000, True: 4_000}
SEPARATION_SIZES = {False: (100, 2_000, 40_000), True: (100, 700)}
#: The drivers ``separation`` and ``shatter`` run (Theorems 9 and 10).
#: ``delta55-coloring`` (Theorem 11) is left out while its
#: partition-invariance cell fails at some master seeds (README.md).
SEPARATION_DRIVERS = ("barenboim-elkin-coloring", "pettie-su-tree-coloring")
#: Smoke runs of either verify workload: one driver, the two relations
#: that reach the checkpoint and sharded layers.
VERIFY_SMOKE_RELATIONS = ["checkpoint-resume", "partition-invariance"]


def shatter(seed: int, smoke: bool, rec: tracer.Recorder) -> Callable[[], None]:
    """``repro profile``'s driver mode on the vectorized backend."""
    from repro.algorithms import pettie_su_tree_coloring
    from repro.algorithms.rand_tree_coloring import BAD
    from repro.core import observe_runs, use_backend
    from repro.graphs.generators import random_tree_bounded_degree
    from repro.lcl import KColoring
    from repro.obs import JsonlTraceObserver, profile_trace

    tree = random_tree_bounded_degree(SHATTER_N[smoke], DELTA, random.Random(seed))

    def run() -> None:
        rec.begin_op("profile")
        fd, path = tempfile.mkstemp(prefix="perfbench-", suffix=".jsonl")
        os.close(fd)
        try:
            observer = JsonlTraceObserver(path)
            try:
                with use_backend("vectorized"), observe_runs(observer):
                    report = pettie_su_tree_coloring(tree, seed=seed)
            finally:
                observer.close()
            profile = profile_trace(path, unresolved=BAD)
            ok = KColoring(DELTA).is_solution(tree, report.labeling) and profile.ok()
            span = rec.open("bench.digest") if rec.traced else None
            sha = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    sha.update(block)
            if span is not None:
                rec.close(span)
        finally:
            os.unlink(path)
        rec.end_op(ok, sha.hexdigest().encode())

    return run


def separation(seed: int, smoke: bool, rec: tracer.Recorder) -> Callable[[], None]:
    """The E3 sweep: DetLOCAL vs RandLOCAL Δ-coloring of complete trees."""
    from repro.algorithms import barenboim_elkin_coloring, pettie_su_tree_coloring
    from repro.analysis import run_sweep
    from repro.graphs.generators import complete_regular_tree_with_size
    from repro.lcl import KColoring

    sizes = SEPARATION_SIZES[smoke]
    trees = {n: complete_regular_tree_with_size(DELTA, n) for n in sizes}
    seeds = [3 * seed + i for i in range(3)]
    checker = KColoring(DELTA)

    # Operations are named by the requested size, which is an input, not
    # by the vertex count the generator returns, which is an output.
    def cell(n: float, cell_seed: int) -> float:
        graph = trees[int(n)]
        rec.begin_op(f"rand-n{int(n)}-s{cell_seed}")
        report = pettie_su_tree_coloring(graph, seed=cell_seed)
        rec.end_op(checker.is_solution(graph, report.labeling))
        return float(report.rounds)

    def run() -> None:
        for n in sizes:
            graph = trees[n]
            rec.begin_op(f"det-n{n}")
            report = barenboim_elkin_coloring(graph, DELTA)
            rec.end_op(checker.is_solution(graph, report.labeling))
        run_sweep("rand", sizes, cell, seeds=seeds)

    return run


def verify(
    drivers: Optional[Sequence[str]], smoke_driver: str, masters: int
) -> Callable[[int, bool, tracer.Recorder], Callable[[], None]]:
    """``repro verify --quick`` on ``drivers`` (``None``: every driver),
    at ``masters`` master seeds: ``s`` alone for one, else ``m*s`` to
    ``m*s + m - 1``.

    The harness runs cells back to back, so an operation ends with each
    outermost ``certify`` call (certificate cells) or relation ``check``
    call (relation cells), named after its master seed, driver and
    relation.  A failing cell re-runs while it shrinks; those calls fold
    into the same operation.
    """

    def workload(seed: int, smoke: bool, rec: tracer.Recorder) -> Callable[[], None]:
        import repro.verify.relations
        from repro.verify import run_verification

        depth = [0]
        seeds = [seed] if masters == 1 else [masters * seed + i for i in range(masters)]
        prefix = [""]

        def boundary(fn: Callable[..., Any], cell: Callable[..., str]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
                    if depth[0] == 0:
                        rec.end_op(True, name=prefix[0] + cell(*args, **kwargs))
                        rec.begin_op("pending")

            return wrapper

        certify = sys.modules["repro.verify.certify"].certify
        wrapped = boundary(certify, lambda *a, **k: f"{k.get('driver')}/certificate")
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "certify", None) is certify:
                module.certify = wrapped
        for cls in tracer.subclasses(repro.verify.relations.Relation):
            if "check" in vars(cls):
                cls.check = boundary(
                    vars(cls)["check"],
                    lambda self, subject, *a, **k: f"{subject.name}/{self.name}",
                )
        kwargs: Dict[str, Any] = {}
        if smoke:
            kwargs = {"drivers": [smoke_driver], "relation_names": VERIFY_SMOKE_RELATIONS}
        elif drivers is not None:
            kwargs = {"drivers": list(drivers)}

        def run() -> None:
            cells: Dict[str, bool] = {}
            for master in seeds:
                prefix[0] = f"s{master}/"
                rec.begin_op("pending")
                report = run_verification(quick=True, master_seed=master, **kwargs)
                rec.discard_op()
                for cell in report.cells:
                    cells[f"{prefix[0]}{cell.driver}/{cell.relation}"] = (
                        cell.ok and cell.trials > 0
                    )
            ops: Dict[str, Dict[str, Any]] = {}
            for op in rec.ops:
                if op["name"] in ops:  # a shrinking re-run of the same cell
                    kept = ops[op["name"]]
                    kept["runs"] += op["runs"]
                    kept["digest"] = hashlib.sha256(
                        (kept["digest"] + op["digest"]).encode()
                    ).hexdigest()[:20]
                else:
                    ops[op["name"]] = dict(op, ok=False)
            for name, ok in cells.items():
                op = ops.setdefault(name, {"name": name, "runs": 0, "digest": "missing"})
                op["ok"] = ok
            rec.ops[:] = list(ops.values())

        return run

    return workload


WORKLOADS: Dict[str, Callable[[int, bool, tracer.Recorder], Callable[[], None]]] = {
    "shatter": shatter,
    "separation": separation,
    "verify-quick": verify(None, "luby-mis", masters=1),
    "verify-separation": verify(SEPARATION_DRIVERS, "barenboim-elkin-coloring", masters=4),
}


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", help="traced runs: write spans here (JSONL)")
    args = parser.parse_args(argv)

    rec = tracer.Recorder(traced=bool(args.trace))
    if rec.traced:
        tracer.install(rec)
    tracer.wrap_runners(rec)
    run = WORKLOADS[args.workload](args.seed, args.smoke, rec)
    report: Dict[str, Any] = {"t_setup": time.monotonic()}
    try:
        run()
    except Exception as exc:  # the operation failed; report it
        rec.discard_op()
        rec.begin_op(f"error:{type(exc).__name__}")
        rec.end_op(False)
        traceback.print_exc()
    report["t_result"] = time.monotonic()
    report["ops"] = rec.ops
    report["counts"] = rec.counts
    if rec.traced:
        from repro.verify.relations import standard_relations

        relations = [r.name for r in standard_relations()]
        report["layers"] = tracer.layer_metrics(rec, relations)
        report["negative_self"] = sum(1 for s in tracer.self_times(rec)[0] if s < -1e-6)
        report["open_spans"] = len(rec.stack)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for i, span in enumerate(rec.spans):
                    fh.write(json.dumps(span.as_dict(i)) + "\n")
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
