"""Spans and counters recorded around calls into repro's layers.

The benchmark never edits the program.  It replaces module attributes
and class methods with wrappers before a workload runs:

- every run (:func:`wrap_runners`): each registered backend's runner,
  so every ``run_local`` call feeds its operation's digest and the
  vertex-round count;
- traced runs only (:func:`install`): a span around every layer entry
  point listed in ``perfbench/README.md``.  Per-node calls
  (``SyncAlgorithm.step``/``setup``, kernel rounds, per-event observer
  callbacks) are not spans: each adds its time and one call to a
  per-category accumulator, which spans snapshot at open and close.

A span's self time is its duration minus what its child spans and the
per-node calls made directly under it cover.  Self times of all spans,
plus per-node time outside any span, add up to the time covered by
top-level spans; the rest of the wall time is unattributed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Per-node categories: aggregated as (time, calls), never one span each.
AGG = (
    "algorithms.step",
    "algorithms.setup",
    "backends.vectorized.kernel_step",
    "obs.trace",
    "obs.metrics",
)
_K = len(AGG)

#: Self-time bucket of a ``run_local`` span, by the backend it asked for.
_RUNNER_SELF = {
    "fast": "core.fast.self_s",
    "reference": "core.reference.self_s",
    "vectorized": "backends.vectorized.self_s",
    "sharded": "backends.sharded.self_s",
}

#: Self-time bucket of every other span name.
_SELF = {
    "core.fast": "core.fast.self_s",
    "graphs.gen": "graphs.gen_s",
    "core.build_contexts": "core.build_contexts_s",
    "core.flat_adjacency": "core.flat_adjacency_s",
    "algorithms.driver": "algorithms.driver_self_s",
    "backends.vectorized.construct": "backends.vectorized.construct_s",
    "backends.vectorized.kernel_setup": "backends.vectorized.kernel_setup_s",
    "core.checkpoint.save": "core.checkpoint.save_s",
    "core.checkpoint.restore": "core.checkpoint.restore_s",
    "core.atomicio.write": "core.atomicio.write_s",
    "obs.profile": "obs.profile_s",
    "lcl.check": "lcl.check_s",
    "verify.certify": "verify.self_s",
    "verify.relation": "verify.self_s",
    "analysis.sweep": "analysis.sweep_self_s",
    "bench.digest": "bench.digest_s",
}

#: Every metric that takes part in the wall-time partition.
PARTITION = sorted(
    set(_RUNNER_SELF.values())
    | set(_SELF.values())
    | {"core.run_local.self_s"}
    | {f"{name}_s" for name in AGG}
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "acc0", "acc1")

    def __init__(
        self, name: str, start: float, parent: int, op: int, acc0: Tuple[float, ...]
    ) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs: Dict[str, Any] = {}
        self.acc0 = acc0
        self.acc1 = acc0

    def as_dict(self, index: int) -> Dict[str, Any]:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            **self.attrs,
        }


class Recorder:
    """One process's spans, per-node accumulators and operations."""

    def __init__(self, traced: bool, clock: Callable[[], float] = time.monotonic):
        self.traced = traced
        self.clock = clock
        self.spans: List[Span] = []
        self.stack: List[int] = []
        #: acc[k] = [seconds, calls] for AGG[k].
        self.acc: List[List[float]] = [[0.0, 0] for _ in AGG]
        #: Nonzero while a per-node call is being timed (nested per-node
        #: calls, e.g. through ``super()``, are not timed twice).
        self.node_depth = 0
        #: (class, method) pairs already timed as per-node calls.
        self.node_methods: set = set()
        self.ops: List[Dict[str, Any]] = []
        self._op: Optional[Dict[str, Any]] = None
        self.counts = {"runs": 0, "rounds": 0, "messages": 0, "vertex_rounds": 0}
        self.checkpoint_saves = 0
        self.checkpoint_bytes = 0
        self.trace_bytes = 0

    # -- operations ----------------------------------------------------
    def begin_op(self, name: str) -> None:
        self._op = {"name": name, "hash": hashlib.sha256(), "runs": 0}

    def end_op(self, ok: bool, extra: bytes = b"", name: Optional[str] = None) -> Dict[str, Any]:
        op = self._op
        assert op is not None, "end_op without begin_op"
        op["hash"].update(extra)
        record = {
            "name": name or op["name"],
            "ok": bool(ok),
            "runs": op["runs"],
            "digest": op["hash"].hexdigest()[:20],
        }
        self.ops.append(record)
        self._op = None
        return record

    def discard_op(self) -> None:
        self._op = None

    def note_run(self, n: int, result: Any, error: Optional[BaseException]) -> None:
        """Fold one ``run_local`` outcome into the counters and digest."""
        span = self.open("bench.digest") if self.traced else None
        if error is None:
            self.counts["runs"] += 1
            self.counts["rounds"] += result.rounds
            self.counts["messages"] += result.messages
            self.counts["vertex_rounds"] += n * result.rounds
            blob = repr(
                (
                    result.rounds,
                    result.messages,
                    sorted(result.failures.items()),
                    result.outputs,
                )
            )
        else:
            blob = f"raised {type(error).__name__}"
        if self._op is not None:
            self._op["runs"] += 1
            self._op["hash"].update(blob.encode())
        if span is not None:
            self.close(span)

    # -- spans ---------------------------------------------------------
    def _snapshot(self) -> Tuple[float, ...]:
        return tuple(x for pair in self.acc for x in pair)

    def open(self, name: str, **attrs: Any) -> Span:
        span = Span(
            name,
            self.clock(),
            self.stack[-1] if self.stack else -1,
            len(self.ops),
            self._snapshot(),
        )
        if attrs:
            span.attrs.update(attrs)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        span.acc1 = self._snapshot()
        popped = self.stack.pop()
        assert self.spans[popped] is span, "spans closed out of order"


# ---------------------------------------------------------------------------
# Self times and layer metrics
# ---------------------------------------------------------------------------


def self_times(rec: Recorder) -> Tuple[List[float], List[List[float]], List[float]]:
    """Per span: self time and per-category (time, calls) made directly
    under it; plus per-category (time, calls) outside every span."""
    spans = rec.spans
    child_dur = [0.0] * len(spans)
    child_acc = [[0.0] * (2 * _K) for _ in spans]
    top_acc = [0.0] * (2 * _K)
    for s in spans:
        delta = [b - a for a, b in zip(s.acc0, s.acc1)]
        if s.parent >= 0:
            child_dur[s.parent] += s.end - s.start
            target = child_acc[s.parent]
        else:
            target = top_acc
        for j in range(2 * _K):
            target[j] += delta[j]
    selfs: List[float] = []
    direct: List[List[float]] = []
    for i, s in enumerate(spans):
        own = [(b - a) - c for a, b, c in zip(s.acc0, s.acc1, child_acc[i])]
        direct.append(own)
        selfs.append(
            s.end - s.start - child_dur[i] - sum(own[0 : 2 * _K : 2])
        )
    totals = [x for pair in rec.acc for x in pair]
    outside = [t - c for t, c in zip(totals, top_acc)]
    return selfs, direct, outside


def covered_time(rec: Recorder) -> float:
    """Time covered by top-level spans plus per-node calls outside them."""
    top = sum(s.end - s.start for s in rec.spans if s.parent < 0)
    _, _, outside = self_times(rec)
    return top + sum(outside[0 : 2 * _K : 2])


def _stepped_by(span: Span, children: Sequence[Span], own: Sequence[float]) -> str:
    """What executed a ``run_local`` span's rounds."""
    step_calls = own[2 * AGG.index("algorithms.step") + 1]
    if step_calls or any(c.name == "core.fast" for c in children):
        return "per-node"
    backend = span.attrs.get("backend")
    if backend == "vectorized":
        return "kernel"
    if backend == "sharded":
        return "shards"
    return "per-node"


def layer_metrics(rec: Recorder, relations: Sequence[str]) -> Dict[str, float]:
    """Every per-layer metric this process can compute (wall-dependent
    ones, ``trace.*``, are added by the parent)."""
    selfs, direct, _ = self_times(rec)
    out: Dict[str, float] = {name: 0.0 for name in PARTITION}
    for k, name in enumerate(AGG):
        out[f"{name}_s"] = rec.acc[k][0]
    out["algorithms.step.calls"] = rec.acc[AGG.index("algorithms.step")][1]
    out["backends.vectorized.kernel_step.calls"] = rec.acc[
        AGG.index("backends.vectorized.kernel_step")
    ][1]
    children: Dict[int, List[Span]] = {}
    for s in rec.spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    inclusive = {f"verify.{r}_s": 0.0 for r in relations}
    inclusive.update(
        {
            "core.run_local_s": 0.0,
            "verify.certify_s": 0.0,
            "backends.sharded.run_s": 0.0,
        }
    )
    counts = {
        "core.run_local.calls": 0,
        "core.build_contexts.calls": 0,
        "backends.vectorized.vertex_rounds": 0,
        "backends.fallbacks": 0,
        "backends.sharded.rounds": 0,
        "core.checkpoint.saves": rec.checkpoint_saves,
        "core.checkpoint.bytes": rec.checkpoint_bytes,
        "obs.trace_bytes": rec.trace_bytes,
        "core.rounds": rec.counts["rounds"],
        "core.messages": rec.counts["messages"],
        "core.vertex_rounds": rec.counts["vertex_rounds"],
    }
    kernel_vr = 0
    for i, s in enumerate(rec.spans):
        dur = s.end - s.start
        if s.name == "run_local":
            backend = s.attrs.get("backend")
            out[_RUNNER_SELF.get(backend, "core.run_local.self_s")] += selfs[i]
            counts["core.run_local.calls"] += 1
            if not _has_ancestor(rec.spans, s, "run_local"):
                inclusive["core.run_local_s"] += dur
            stepped = _stepped_by(s, children.get(i, ()), direct[i])
            s.attrs["stepped_by"] = stepped
            vr = s.attrs.get("n", 0) * s.attrs.get("rounds", 0)
            if backend == "vectorized":
                counts["backends.vectorized.vertex_rounds"] += vr
                if stepped == "kernel":
                    kernel_vr += vr
            if backend in ("vectorized", "sharded") and stepped == "per-node":
                counts["backends.fallbacks"] += 1
            if stepped == "shards":
                inclusive["backends.sharded.run_s"] += dur
                counts["backends.sharded.rounds"] += s.attrs.get("rounds", 0)
            continue
        out[_SELF[s.name]] += selfs[i]
        if s.name == "core.build_contexts":
            counts["core.build_contexts.calls"] += 1
        elif s.name == "verify.certify" and not _has_ancestor(
            rec.spans, s, "verify.certify"
        ):
            inclusive["verify.certify_s"] += dur
        elif s.name == "verify.relation":
            key = f"verify.{s.attrs['relation']}_s"
            if key in inclusive and not _has_ancestor(rec.spans, s, "verify.relation"):
                inclusive[key] += dur
    out.update(inclusive)
    out.update(counts)
    base = counts["backends.vectorized.vertex_rounds"]
    out["backends.kernel_share"] = kernel_vr / base if base else 0.0
    rounds = counts["backends.sharded.rounds"]
    out["backends.sharded.round_ms"] = (
        1000.0 * inclusive["backends.sharded.run_s"] / rounds if rounds else 0.0
    )
    out["trace.covered_s"] = covered_time(rec)
    return out


def _has_ancestor(spans: Sequence[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def span_wrapper(
    rec: Recorder,
    fn: Callable[..., Any],
    name: str,
    before: Optional[Callable[..., None]] = None,
) -> Callable[..., Any]:
    """``fn`` inside a span; ``before(span, *args, **kwargs)`` may tag it."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = rec.open(name)
        if before is not None:
            before(span, *args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)

    return wrapper


def node_wrapper(rec: Recorder, fn: Callable[..., Any], category: str) -> Callable[..., Any]:
    """``fn`` timed into the per-node accumulator ``category``."""
    acc = rec.acc[AGG.index(category)]
    clock = rec.clock

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if rec.node_depth:
            return fn(*args, **kwargs)
        rec.node_depth = 1
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[0] += clock() - start
            acc[1] += 1
            rec.node_depth = 0

    return wrapper


def wrap_runners(rec: Recorder) -> None:
    """Wrap every registered backend's runner (see module docstring).

    Runners are resolved lazily by the registry, so an optional
    backend's dependencies are still imported only when it is first
    selected.
    """
    from repro.core import backend as registry

    for name in registry.backend_names():
        be = registry.get_backend(name)
        registry.register_backend(
            name,
            _wrapped_loader(rec, name, be.loader),
            description=be.description,
            capture_state=be.capture_state,
            restore_state=be.restore_state,
        )


def _wrapped_loader(
    rec: Recorder, backend: str, loader: Callable[[], Any]
) -> Callable[[], Any]:
    cache: Dict[int, Callable[..., Any]] = {}

    def load() -> Callable[..., Any]:
        runner = loader()
        wrapped = cache.get(id(runner))
        if wrapped is None:
            wrapped = cache[id(runner)] = _runner_wrapper(rec, backend, runner)
        return wrapped

    return load


def _runner_wrapper(
    rec: Recorder, backend: str, runner: Callable[..., Any]
) -> Callable[..., Any]:
    @functools.wraps(runner)
    def run(graph: Any, algorithm: Any, model: Any, *args: Any, **kwargs: Any) -> Any:
        n = graph.num_vertices
        span = None
        if rec.traced:
            _wrap_node_methods(rec, type(algorithm))
            span = rec.open("run_local", backend=backend, n=n)
        try:
            result = runner(graph, algorithm, model, *args, **kwargs)
        except BaseException as exc:
            if span is not None:
                rec.close(span)
                span.attrs["raised"] = type(exc).__name__
            rec.note_run(n, None, exc)
            raise
        if span is not None:
            rec.close(span)
            span.attrs["rounds"] = result.rounds
        rec.note_run(n, result, None)
        return result

    return run


def _wrap_node_methods(rec: Recorder, cls: type) -> None:
    """Time ``setup``/``step`` of ``cls`` where its MRO defines them."""
    for attr, category in (("setup", "algorithms.setup"), ("step", "algorithms.step")):
        for owner in cls.__mro__:
            if attr in vars(owner):
                if (owner, attr) not in rec.node_methods:
                    rec.node_methods.add((owner, attr))
                    setattr(owner, attr, node_wrapper(rec, vars(owner)[attr], category))
                break


# ---------------------------------------------------------------------------
# Traced install
# ---------------------------------------------------------------------------

#: Packages whose modules are imported (and then patched) up front.
_PACKAGES = (
    "repro.graphs",
    "repro.core",
    "repro.algorithms",
    "repro.backends",
    "repro.obs",
    "repro.lcl",
    "repro.verify",
    "repro.analysis",
    "repro.faults",
    "repro.transforms",
)


def _import_all() -> None:
    for name in _PACKAGES:
        try:
            pkg = importlib.import_module(name)
        except ImportError:
            continue
        for info in pkgutil.walk_packages(pkg.__path__, prefix=name + "."):
            importlib.import_module(info.name)


def subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _functions_returning(module_prefix: str, marker: str) -> List[Callable[..., Any]]:
    """Public functions defined in modules under ``module_prefix`` whose
    return annotation mentions ``marker``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith(module_prefix) or mod is None:
            continue
        for attr, value in vars(mod).items():
            if (
                not attr.startswith("_")
                and callable(value)
                and getattr(value, "__module__", None) == mod_name
                and marker in str(getattr(value, "__annotations__", {}).get("return", ""))
            ):
                found.append(value)
    return found


def _patch_everywhere(replacements: Dict[int, Tuple[Any, Any]], skip: Sequence[str] = ()) -> None:
    """Rebind every ``repro`` module attribute that is a replaced object."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro") or mod_name in skip:
            continue
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def _wrap_method(cls: type, attr: str, make: Callable[[Any], Any]) -> None:
    original = vars(cls).get(attr)
    if original is not None:
        setattr(cls, attr, make(original))


def install(rec: Recorder) -> None:
    """Install every traced-run wrapper (imports all traced packages)."""
    _import_all()
    funcs: Dict[int, Tuple[Any, Any]] = {}

    def fn_span(fn: Any, name: str, before: Optional[Callable[..., None]] = None) -> None:
        if fn is not None and id(fn) not in funcs:
            funcs[id(fn)] = (fn, span_wrapper(rec, fn, name, before))

    mods = sys.modules
    for fn in _functions_returning("repro.graphs.generators", "Graph"):
        fn_span(fn, "graphs.gen")
    fn_span(getattr(mods.get("repro.verify.gen"), "make_instance", None), "graphs.gen")
    engine = mods["repro.core.engine"]
    fn_span(getattr(engine, "build_contexts", None), "core.build_contexts")
    fn_span(getattr(engine, "flat_adjacency", None), "core.flat_adjacency")
    for fn in _functions_returning("repro.algorithms", "AlgorithmReport"):
        fn_span(fn, "algorithms.driver")
    fn_span(getattr(mods.get("repro.obs.shattering"), "profile_trace", None), "obs.profile")
    fn_span(getattr(mods.get("repro.verify.certify"), "certify", None), "verify.certify")
    fn_span(getattr(mods.get("repro.analysis.experiments"), "run_sweep", None), "analysis.sweep")

    def count_write(span: Span, path: Any, data: bytes, *a: Any, **k: Any) -> None:
        rec.checkpoint_bytes += len(data)

    fn_span(
        getattr(mods.get("repro.core.atomicio"), "atomic_write_bytes", None),
        "core.atomicio.write",
        count_write,
    )
    _patch_everywhere(funcs)
    # The fast loop called as a fallback from inside another backend
    # (the registry's own "fast" entry is timed as its runner).
    fast = getattr(engine, "_run_local_fast", None)
    if fast is not None:
        _patch_everywhere(
            {id(fast): (fast, span_wrapper(rec, fast, "core.fast"))},
            skip=("repro.core.engine",),
        )

    vectorized = mods.get("repro.backends.vectorized")
    if vectorized is not None:
        _wrap_method(
            vectorized.VectorRun,
            "__init__",
            lambda f: span_wrapper(rec, f, "backends.vectorized.construct"),
        )
        for kernel in subclasses(vectorized.RoundKernel):
            _wrap_method(
                kernel, "setup", lambda f: span_wrapper(rec, f, "backends.vectorized.kernel_setup")
            )
            _wrap_method(
                kernel, "step", lambda f: node_wrapper(rec, f, "backends.vectorized.kernel_step")
            )

    session = mods["repro.core.checkpoint"].CheckpointSession

    def count_save(span: Span, *a: Any, **k: Any) -> None:
        rec.checkpoint_saves += 1

    for attr in ("save", "record_done"):
        _wrap_method(
            session, attr, lambda f: span_wrapper(rec, f, "core.checkpoint.save", count_save)
        )
    _wrap_method(
        session, "restore_engine", lambda f: span_wrapper(rec, f, "core.checkpoint.restore")
    )

    obs = mods["repro.obs"]
    observers = ((obs.JsonlTraceObserver, "obs.trace"), (obs.MetricsObserver, "obs.metrics"))
    for cls, category in observers:
        for attr in dir(cls):
            if attr.startswith("on_"):
                setattr(cls, attr, node_wrapper(rec, getattr(cls, attr), category))
    close = obs.JsonlTraceObserver.close

    @functools.wraps(close)
    def close_counting(self: Any) -> None:
        stream = getattr(self, "_stream", None)
        if getattr(self, "_owns_stream", False) and stream is not None and not stream.closed:
            stream.flush()
            rec.trace_bytes += os.fstat(stream.fileno()).st_size
        close(self)

    obs.JsonlTraceObserver.close = node_wrapper(rec, close_counting, "obs.trace")

    problem = mods["repro.lcl.problem"].LCLProblem
    for cls in [problem] + subclasses(problem):
        for attr in ("is_solution", "check"):
            _wrap_method(cls, attr, lambda f: span_wrapper(rec, f, "lcl.check"))

    relation = mods["repro.verify.relations"].Relation

    def tag_relation(span: Span, self: Any, *a: Any, **k: Any) -> None:
        span.attrs["relation"] = self.name

    for cls in subclasses(relation):
        _wrap_method(cls, "check", lambda f: span_wrapper(rec, f, "verify.relation", tag_relation))
