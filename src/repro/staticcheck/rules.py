"""The LM rule set: LOCAL-model conformance checks.

Each rule inspects functions *reachable from a bound algorithm's entry
points* (the call-graph closure of ``setup``/``step``), so helpers are
covered and driver-side code — which legitimately holds the
:class:`~repro.graphs.graph.Graph`, draws seeds, and assigns IDs — is
not.  See ``docs/static_analysis.md`` for the paper-grounded rationale
of every rule.

Rule inventory:

========  ========  ====================================================
LM001     error     randomness reachable from a DetLOCAL algorithm
LM002     error     ``ctx.id`` reachable from a RandLOCAL algorithm
LM003     error     node-level code referencing global topology (Graph)
LM004     error     cross-node hidden channel (module state / mutable
                    default written from node code)
LM005     warning   wall-clock / OS entropy / unordered-set iteration in
                    DetLOCAL node code
LM006     warning   publishing values derived from ``ctx.now``
LM007     warning   per-round topology-helper calls in node code the
                    engine already precomputes (adjacency, reverse ports)
LM008     warning   observer callbacks mutating the run metadata, its
                    graph or a round batch (observers must be
                    read-only spectators)
LM009     warning   node code swallowing injected faults (bare
                    ``except:`` or handlers naming Exception /
                    FaultEvent-family bases)
LM010     error     inferred information radius exceeds the declared
                    one (dataflow pass, :mod:`.dataflow.lattice`)
LM011     error     DetLOCAL output depends on a laundered seed or on
                    unordered-set iteration order (dataflow pass,
                    :mod:`.dataflow.effects`)
LM012     warning   non-serializable value stored in ``ctx.state``
                    (open files, sockets, locks, generators, lambdas
                    cannot be checkpoint-pickled)
========  ========  ====================================================

LM010/LM011 are produced by the dataflow passes in
:mod:`repro.staticcheck.dataflow`, not by :class:`RuleEngine`; their
specs live in :data:`RULES` so severity, suppression, and reporting are
uniform across all rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .bindings import DET, RAND, Binding, bind_models, entry_keys
from .callgraph import CallGraph, ClassInfo, FunctionInfo, FunctionNode
from .diagnostics import Diagnostic, RuleSpec, Severity
from .modules import ModuleInfo

RULES: Dict[str, RuleSpec] = {
    spec.rule_id: spec
    for spec in (
        RuleSpec(
            "LM001",
            Severity.ERROR,
            "randomness in DetLOCAL node code",
            "DetLOCAL vertices receive no random bits (Section I); a "
            "hidden coin flip voids deterministic round-count claims "
            "(Theorems 3-5).",
        ),
        RuleSpec(
            "LM002",
            Severity.ERROR,
            "vertex ID use in RandLOCAL node code",
            "RandLOCAL vertices are undifferentiated; reading an ID "
            "smuggles in the symmetry-breaking power the separation "
            "(Theorem 5, Corollary 2) quantifies.",
        ),
        RuleSpec(
            "LM003",
            Severity.ERROR,
            "node code references global topology",
            "a t-round algorithm is a function of the radius-t view "
            "only; holding the whole Graph breaks the "
            "indistinguishability arguments (Theorem 5, E12).",
        ),
        RuleSpec(
            "LM004",
            Severity.ERROR,
            "cross-node hidden channel",
            "vertices communicate only via published values on edges; "
            "shared module state is an out-of-band channel that "
            "invalidates message/round accounting.",
        ),
        RuleSpec(
            "LM005",
            Severity.WARNING,
            "nondeterminism source in DetLOCAL node code",
            "wall-clock time, OS entropy, or unordered-set iteration "
            "can differ across runs, so the 'deterministic' round "
            "counts stop being reproducible.",
        ),
        RuleSpec(
            "LM006",
            Severity.WARNING,
            "published value derived from ctx.now",
            "ctx.now is for local scheduling; publishing round-derived "
            "values must be an explicit, documented part of the "
            "algorithm's output contract (see NodeContext.now).",
        ),
        RuleSpec(
            "LM007",
            Severity.WARNING,
            "per-round topology recomputation in node code",
            "the engine collects every vertex's neighbor list and "
            "reverse ports once per run; node code re-deriving "
            "neighbor structure each round repeats that work "
            "O(rounds) times (see docs/performance.md).",
        ),
        RuleSpec(
            "LM008",
            Severity.WARNING,
            "observer callback mutates engine state",
            "observers are read-only spectators: a callback that "
            "mutates the run metadata, the live graph it carries, or "
            "a RoundBatch's payload arrays changes the run it claims "
            "to measure, voiding the telemetry determinism contract "
            "(docs/observability.md).",
        ),
        RuleSpec(
            "LM009",
            Severity.WARNING,
            "injected faults swallowed in node code",
            "fault events (repro.faults) must surface to the engine "
            "and the harness, where failure-probability accounting "
            "happens (the RandLOCAL 1/n contract, Section I); a broad "
            "except in step() silently converts an injected fault "
            "into wrong algorithm behavior (docs/robustness.md).",
        ),
        RuleSpec(
            "LM010",
            Severity.ERROR,
            "inferred information radius exceeds the declared bound",
            "a t-round LOCAL algorithm is exactly a function of the "
            "radius-t ball (PAPER.md §2); a value routed through a "
            "channel the model does not have (shared instance "
            "attributes written from node code), or a 0-round "
            "ID-dependent output for a symmetry-breaking LCL "
            "(Linial's lower bound), contradicts the DriverSpec-"
            "declared radius.",
        ),
        RuleSpec(
            "LM011",
            Severity.ERROR,
            "DetLOCAL output depends on seed or iteration order",
            "a DET-registered driver must compute a deterministic "
            "function of the radius-t ball; a draw from a laundered "
            "RNG object or unordered-set iteration order reaching an "
            "output makes two runs diverge, voiding the deterministic "
            "round-count claims (Theorems 3-5).",
        ),
        RuleSpec(
            "LM012",
            Severity.WARNING,
            "non-serializable value stored in ctx.state",
            "checkpoint snapshots pickle every node's ctx.state "
            "(repro.core.checkpoint); an open file, socket, lock, "
            "generator, or lambda stored there makes the first "
            "save() raise CheckpointError mid-run instead of "
            "snapshotting (docs/robustness.md).",
        ),
    )
}

#: The callbacks every engine calls on an observer (see
#: repro/obs/observer.py); a class defining any of these is treated as
#: an observer by LM008.
_OBSERVER_CALLBACKS = {
    "on_run_start",
    "on_backend_info",
    "on_round_batch",
    "on_run_fault",
    "on_run_end",
    "on_run_abort",
}

#: The engine-owned parameters of those callbacks, as ``(name, type)``:
#: the run metadata (``meta.graph`` is the live graph) and the
#: RoundBatch, whose columns may be views of the engine's buffers.
_OBSERVED_PARAMS = (("meta", "RunMeta"), ("batch", "RoundBatch"))

#: Exception names whose handlers (in node code) also catch the
#: injected-fault taxonomy — the LM009 pattern.  FaultEvent subclasses
#: are ReproError subclasses, so catching any base on this list
#: swallows faults.
_BROAD_FAULT_CATCHES = {
    "BaseException",
    "Exception",
    "ReproError",
    "SimulationError",
    "FaultEvent",
    "BudgetExceededError",
}

#: Graph-level helpers the engine precomputes per run; calling them per
#: round from node code is the LM007 pattern.
_TOPOLOGY_HELPERS = {
    "neighbors",
    "endpoint",
    "reverse_port",
    "reverse_ports",
    "port_of",
}

#: Modules whose call results are nondeterministic across runs.
_NONDET_MODULES = {
    "time": {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
    },
    "os": {"urandom", "getrandom"},
    "uuid": {"uuid1", "uuid4"},
    "datetime": {"now", "utcnow", "today"},
}

#: Constructors whose return values cannot be pickled into a
#: checkpoint snapshot (rule LM012), keyed by module; the paired string
#: names the resource class in the diagnostic.
_UNPICKLABLE_CALLS: Dict[str, Tuple[Set[str], str]] = {
    "socket": (
        {"socket", "socketpair", "create_connection", "create_server"},
        "a socket",
    ),
    "threading": (
        {
            "Lock",
            "RLock",
            "Condition",
            "Semaphore",
            "BoundedSemaphore",
            "Event",
            "Barrier",
        },
        "a lock/synchronization primitive",
    ),
    "multiprocessing": (
        {
            "Lock",
            "RLock",
            "Condition",
            "Semaphore",
            "BoundedSemaphore",
            "Event",
            "Barrier",
        },
        "a lock/synchronization primitive",
    ),
}

#: Builtin calls whose return values cannot be checkpoint-pickled.
_UNPICKLABLE_BUILTINS = {
    "open": "an open file handle",
    "iter": "an iterator",
}

#: Dotted module prefixes whose contents are randomness sources.  The
#: match is prefix-aware on the *resolved* dotted origin, so aliased
#: submodule imports (``import numpy.random as nr``) and aliased
#: from-imports (``from random import random as r``) both resolve here.
_RANDOM_MODULES = ("random", "secrets", "numpy.random")

_MUTATORS = {
    "append",
    "add",
    "update",
    "extend",
    "insert",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
}


def _params_like(fn: FunctionNode, name: str, type_name: str) -> Set[str]:
    """Parameters called ``name`` or annotated with a type whose name
    contains ``type_name`` (``ctx`` / ``NodeContext``, ``batch`` /
    ``RoundBatch``, ...)."""
    names: Set[str] = set()
    args = list(fn.args.posonlyargs) + list(fn.args.args) + list(
        fn.args.kwonlyargs
    )
    for arg in args:
        if arg.arg == name:
            names.add(arg.arg)
            continue
        ann = arg.annotation
        text = ""
        if isinstance(ann, ast.Name):
            text = ann.id
        elif isinstance(ann, ast.Attribute):
            text = ann.attr
        elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            text = ann.value
        if type_name in text:
            names.add(arg.arg)
    return names


def _walk_skipping_annotations(node: ast.AST) -> Iterator[ast.AST]:
    """Like ``ast.walk`` but does not descend into type annotations
    (annotations may legitimately mention out-of-view types)."""
    queue: List[ast.AST] = [node]
    while queue:
        current = queue.pop(0)
        yield current
        for name, value in ast.iter_fields(current):
            if name in ("annotation", "returns"):
                continue
            if isinstance(value, ast.AST):
                queue.append(value)
            elif isinstance(value, list):
                queue.extend(v for v in value if isinstance(v, ast.AST))


@dataclass
class _Site:
    """One reachable function with its context for rule matching."""

    binding: Binding
    info: FunctionInfo
    node: FunctionNode
    module: ModuleInfo
    chain: Tuple[str, ...]
    ctx_names: Set[str]


class RuleEngine:
    """Runs the LM rules over a corpus and yields raw diagnostics
    (suppressions are applied by the analyzer, not here)."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.bindings = bind_models(graph)

    # ------------------------------------------------------------------
    # Site enumeration
    # ------------------------------------------------------------------
    def _sites(self, binding: Binding) -> List[_Site]:
        chains = self.graph.reachable_from(
            entry_keys(binding, self.graph)
        )
        sites = []
        for key, chain in chains.items():
            info, node, module = self.graph.function(key)
            sites.append(
                _Site(
                    binding=binding,
                    info=info,
                    node=node,
                    module=module,
                    chain=chain,
                    ctx_names=_params_like(node, "ctx", "NodeContext"),
                )
            )
        return sites

    def _emit(
        self,
        rule_id: str,
        site: _Site,
        node: ast.AST,
        message: str,
        hint: str,
    ) -> Diagnostic:
        spec = RULES[rule_id]
        return Diagnostic(
            rule_id=rule_id,
            severity=spec.severity,
            path=str(site.module.path),
            line=getattr(node, "lineno", site.node.lineno),
            message=message,
            hint=hint,
            chain=site.chain,
        )

    def run(self) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for binding in self.bindings.values():
            sites = self._sites(binding)
            for site in sites:
                if DET in binding.models:
                    diagnostics.extend(self._check_lm001(site))
                    diagnostics.extend(self._check_lm005(site))
                if RAND in binding.models:
                    diagnostics.extend(self._check_lm002(site))
                diagnostics.extend(self._check_lm003(site))
                diagnostics.extend(self._check_lm004(site))
                diagnostics.extend(self._check_lm006(site))
                diagnostics.extend(self._check_lm007(site))
                diagnostics.extend(self._check_lm009(site))
                diagnostics.extend(self._check_lm012(site))
        # LM008 ranges over observer classes, not algorithm bindings.
        diagnostics.extend(self._check_lm008())
        # One finding per (rule, path, line): a helper shared by several
        # bound classes is reported once, with the first chain found.
        unique: Dict[Tuple[str, str, int], Diagnostic] = {}
        for diag in diagnostics:
            unique.setdefault((diag.rule_id, diag.path, diag.line), diag)
        return sorted(
            unique.values(), key=lambda d: (d.path, d.line, d.rule_id)
        )

    # ------------------------------------------------------------------
    # LM001 — randomness reachable from DetLOCAL
    # ------------------------------------------------------------------
    def _check_lm001(self, site: _Site) -> Iterator[Diagnostic]:
        algo = site.binding.name
        for node in ast.walk(site.node):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in site.ctx_names
            ):
                yield self._emit(
                    "LM001",
                    site,
                    node,
                    f"ctx.random read in code reachable from DetLOCAL "
                    f"algorithm {algo!r}",
                    "DetLOCAL node code gets no random bits; derive "
                    "choices from ctx.id or inputs, or register the "
                    "algorithm under Model.RAND",
                )
            elif isinstance(node, ast.Name) and node.id in site.ctx_names:
                continue
            elif isinstance(node, (ast.Name, ast.Attribute)):
                dotted = _resolved_dotted(node, site.module)
                origin = (
                    _matches_module(dotted, _RANDOM_MODULES)
                    if dotted is not None
                    else None
                )
                if origin is not None:
                    yield self._emit(
                        "LM001",
                        site,
                        node,
                        f"{origin!r} module used in code reachable from "
                        f"DetLOCAL algorithm {algo!r}",
                        "remove the randomness or move it to the driver "
                        "(ID/seed assignment happens outside node code)",
                    )

    # ------------------------------------------------------------------
    # LM002 — ctx.id reachable from RandLOCAL
    # ------------------------------------------------------------------
    def _check_lm002(self, site: _Site) -> Iterator[Diagnostic]:
        algo = site.binding.name
        for node in ast.walk(site.node):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "id"
                and isinstance(node.value, ast.Name)
                and node.value.id in site.ctx_names
            ):
                yield self._emit(
                    "LM002",
                    site,
                    node,
                    f"ctx.id read in code reachable from RandLOCAL "
                    f"algorithm {algo!r}",
                    "RandLOCAL vertices are undifferentiated; draw a "
                    "random identifier from ctx.random instead",
                )

    # ------------------------------------------------------------------
    # LM003 — node code referencing global topology
    # ------------------------------------------------------------------
    def _check_lm003(self, site: _Site) -> Iterator[Diagnostic]:
        algo = site.binding.name
        hint = (
            "node code sees only ctx (degree, ports, inbox, globals); "
            "pass per-vertex inputs via node_inputs instead of topology"
        )
        args = list(site.node.args.posonlyargs) + list(
            site.node.args.args
        ) + list(site.node.args.kwonlyargs)
        for arg in args:
            ann = arg.annotation
            text = ""
            if isinstance(ann, ast.Name):
                text = ann.id
            elif isinstance(ann, ast.Attribute):
                text = ann.attr
            elif isinstance(ann, ast.Constant) and isinstance(
                ann.value, str
            ):
                text = ann.value
            if text.strip("'\"") == "Graph" or text.startswith("Graph["):
                yield self._emit(
                    "LM003",
                    site,
                    ann if ann is not None else site.node,
                    f"function {site.info.display!r}, reachable from "
                    f"algorithm {algo!r}, takes the global Graph as a "
                    "parameter",
                    hint,
                )
        for node in _walk_skipping_annotations(site.node):
            if isinstance(node, ast.Name) and node.id == "Graph":
                origin = site.module.import_origin("Graph") or "Graph"
                if origin.rpartition(".")[2] == "Graph":
                    yield self._emit(
                        "LM003",
                        site,
                        node,
                        f"Graph referenced in code reachable from "
                        f"algorithm {algo!r} (out-of-view information)",
                        hint,
                    )

    # ------------------------------------------------------------------
    # LM004 — cross-node hidden channels
    # ------------------------------------------------------------------
    def _check_lm004(self, site: _Site) -> Iterator[Diagnostic]:
        algo = site.binding.name
        module_vars = set(site.module.module_vars)
        for node in ast.walk(site.node):
            if isinstance(node, ast.Global):
                shared = [n for n in node.names if n in module_vars]
                for name in shared or node.names:
                    yield self._emit(
                        "LM004",
                        site,
                        node,
                        f"algorithm {algo!r} writes module-level name "
                        f"{name!r} from node code (hidden cross-node "
                        "channel)",
                        "keep per-vertex state in ctx.state; vertices "
                        "may only communicate via publish()",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in module_vars
            ):
                yield self._emit(
                    "LM004",
                    site,
                    node,
                    f"algorithm {algo!r} mutates module-level "
                    f"{node.func.value.id!r} from node code (hidden "
                    "cross-node channel)",
                    "keep per-vertex state in ctx.state; vertices may "
                    "only communicate via publish()",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in module_vars
                    ):
                        yield self._emit(
                            "LM004",
                            site,
                            node,
                            f"algorithm {algo!r} writes into "
                            f"module-level {target.value.id!r} from "
                            "node code (hidden cross-node channel)",
                            "keep per-vertex state in ctx.state",
                        )
        for default in list(site.node.args.defaults) + [
            d for d in site.node.args.kw_defaults if d is not None
        ]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            ):
                yield self._emit(
                    "LM004",
                    site,
                    default,
                    f"mutable default argument on {site.info.display!r} "
                    f"(reachable from algorithm {algo!r}) is shared "
                    "across every vertex's calls",
                    "default to None and create the container inside "
                    "the function",
                )

    # ------------------------------------------------------------------
    # LM005 — nondeterminism sources in DetLOCAL node code
    # ------------------------------------------------------------------
    def _check_lm005(self, site: _Site) -> Iterator[Diagnostic]:
        algo = site.binding.name
        set_vars = _set_valued_locals(site.node)
        for node in ast.walk(site.node):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                # Resolve the full dotted receiver chain so aliased
                # from-imports (``from datetime import datetime as
                # dt; dt.now()``) and dotted chains (``import datetime
                # as d; d.datetime.now()``) land on the same origin as
                # the plain spelling.
                dotted = _resolved_dotted(node.func, site.module)
                if dotted is None and isinstance(
                    node.func.value, ast.Name
                ):
                    dotted = f"{node.func.value.id}.{node.func.attr}"
                if dotted is not None:
                    receiver, _, leaf = dotted.rpartition(".")
                    mod = _matches_module(receiver, _NONDET_MODULES)
                    if mod is not None and leaf in _NONDET_MODULES[mod]:
                        yield self._emit(
                            "LM005",
                            site,
                            node,
                            f"{dotted}() called in "
                            f"DetLOCAL node code of {algo!r} "
                            "(nondeterministic across runs)",
                            "deterministic node code may only depend "
                            "on ctx (id, inputs, globals, inbox)",
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ):
                origin = site.module.import_origin(node.func.id) or ""
                mod, _, attr = origin.rpartition(".")
                if attr and mod in _NONDET_MODULES and (
                    attr in _NONDET_MODULES[mod]
                ):
                    yield self._emit(
                        "LM005",
                        site,
                        node,
                        f"{origin}() called in DetLOCAL node code of "
                        f"{algo!r} (nondeterministic across runs)",
                        "deterministic node code may only depend on "
                        "ctx (id, inputs, globals, inbox)",
                    )
            elif isinstance(node, (ast.For, ast.comprehension)):
                iter_expr = node.iter
                if _is_set_expr(iter_expr, set_vars):
                    yield self._emit(
                        "LM005",
                        site,
                        iter_expr,
                        f"iteration over an unordered set in DetLOCAL "
                        f"node code of {algo!r}; the visit order can "
                        "leak into published values",
                        "iterate sorted(...) for a deterministic order",
                    )

    # ------------------------------------------------------------------
    # LM006 — publishing ctx.now-derived values
    # ------------------------------------------------------------------
    def _check_lm006(self, site: _Site) -> Iterator[Diagnostic]:
        algo = site.binding.name
        if not site.ctx_names:
            return
        tainted = _now_tainted_names(site.node, site.ctx_names)
        for node in ast.walk(site.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "publish"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in site.ctx_names
            ):
                continue
            for arg in list(node.args) + [
                kw.value for kw in node.keywords
            ]:
                if _mentions_now(arg, site.ctx_names, tainted):
                    yield self._emit(
                        "LM006",
                        site,
                        node,
                        f"algorithm {algo!r} publishes a value derived "
                        "from ctx.now",
                        "round indices are for local scheduling; if "
                        "the round number is genuinely part of the "
                        "output contract, document it and add "
                        "'# repro: ignore[LM006]'",
                    )
                    break


    # ------------------------------------------------------------------
    # LM007 — per-round topology recomputation in node code
    # ------------------------------------------------------------------
    def _check_lm007(self, site: _Site) -> Iterator[Diagnostic]:
        algo = site.binding.name
        for node in ast.walk(site.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TOPOLOGY_HELPERS
            ):
                continue
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in site.ctx_names
            ):
                continue
            yield self._emit(
                "LM007",
                site,
                node,
                f"algorithm {algo!r} calls the topology helper "
                f"{node.func.attr!r} per round in node code; the "
                "engine precomputes this per run",
                "read ctx.input['reverse_ports'] / the inbox instead "
                "of rebuilding neighbor structure every step",
            )


    # ------------------------------------------------------------------
    # LM009 — injected faults swallowed in node code
    # ------------------------------------------------------------------
    def _check_lm009(self, site: _Site) -> Iterator[Diagnostic]:
        algo = site.binding.name
        hint = (
            "catch the narrowest exception the step actually expects; "
            "injected faults (FaultEvent, BudgetExceededError) must "
            "reach the engine for failure accounting"
        )
        for node in ast.walk(site.node):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self._emit(
                    "LM009",
                    site,
                    node,
                    f"bare 'except:' in code reachable from algorithm "
                    f"{algo!r} swallows injected faults",
                    hint,
                )
                continue
            broad = sorted(
                name
                for name in _handler_exception_names(node.type)
                if name in _BROAD_FAULT_CATCHES
            )
            if broad:
                yield self._emit(
                    "LM009",
                    site,
                    node,
                    f"'except {', '.join(broad)}' in code reachable "
                    f"from algorithm {algo!r} also catches injected "
                    "faults (FaultEvent/BudgetExceededError)",
                    hint,
                )

    # ------------------------------------------------------------------
    # LM012 — non-serializable values stored in ctx.state
    # ------------------------------------------------------------------
    def _check_lm012(self, site: _Site) -> Iterator[Diagnostic]:
        if not site.ctx_names:
            return
        algo = site.binding.name
        hint = (
            "ctx.state must hold plain data (numbers, strings, "
            "tuples, lists, dicts) so checkpoint snapshots can pickle "
            "it; open resources in the driver or rebuild them in "
            "step() instead of storing the handle"
        )
        tainted = _unpicklable_locals(site.node, site.module)
        for node in ast.walk(site.node):
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                _is_ctx_state_target(t, site.ctx_names)
                for t in node.targets
            ):
                continue
            reason = _unpicklable_reason(node.value, site.module)
            if reason is None and isinstance(node.value, ast.Name):
                reason = tainted.get(node.value.id)
            if reason is not None:
                yield self._emit(
                    "LM012",
                    site,
                    node,
                    f"ctx.state receives {reason} in code reachable "
                    f"from algorithm {algo!r}; the first checkpoint "
                    "save() will fail to pickle it (CheckpointError)",
                    hint,
                )

    # ------------------------------------------------------------------
    # LM008 — observer callbacks must not mutate engine state
    # ------------------------------------------------------------------
    def _check_lm008(self) -> Iterator[Diagnostic]:
        for cls_name in sorted(self.graph.classes):
            cls = self.graph.classes[cls_name]
            for name in sorted(set(cls.methods) & _OBSERVER_CALLBACKS):
                method = cls.methods[name]
                tracked: Set[str] = set()
                for param, type_name in _OBSERVED_PARAMS:
                    tracked |= _params_like(method, param, type_name)
                if tracked:
                    yield from self._lm008_method(cls, name, method, tracked)

    def _lm008_method(
        self,
        cls: "ClassInfo",
        name: str,
        method: FunctionNode,
        tracked: Set[str],
    ) -> Iterator[Diagnostic]:
        spec = RULES["LM008"]
        where = f"{cls.name}.{name}"

        def emit(node: ast.AST, message: str) -> Diagnostic:
            return Diagnostic(
                rule_id="LM008",
                severity=spec.severity,
                path=str(cls.module.path),
                line=getattr(node, "lineno", method.lineno),
                message=message,
                hint=(
                    "observers are read-only spectators; keep mutable "
                    "state on the observer instance (self), never on "
                    "the run metadata, its graph or the round batch"
                ),
                chain=(where,),
            )

        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    root = _store_root_name(target)
                    if root is not None and root in tracked:
                        yield emit(
                            node,
                            f"observer callback {where!r} assigns "
                            f"into {root!r} (live engine state)",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                root = _expr_root_name(node.func.value)
                if root is not None and root in tracked:
                    yield emit(
                        node,
                        f"observer callback {where!r} mutates "
                        f"{root!r} via .{node.func.attr}() (live "
                        "engine state)",
                    )


def _handler_exception_names(node: ast.expr) -> List[str]:
    """Exception class names an ``except`` clause matches on:
    ``except Exception`` -> ['Exception']; ``except (ValueError,
    errors.FaultEvent)`` -> ['ValueError', 'FaultEvent']."""
    if isinstance(node, ast.Tuple):
        names: List[str] = []
        for element in node.elts:
            names.extend(_handler_exception_names(element))
        return names
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _expr_root_name(node: ast.expr) -> Optional[str]:
    """Root Name of an attribute/subscript chain (``ctx.state['x']``
    -> 'ctx'), or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _store_root_name(target: ast.expr) -> Optional[str]:
    """Root Name of an assignment *target* that writes through an
    attribute or subscript (plain ``name = ...`` rebinds a local and is
    not a mutation)."""
    if isinstance(target, (ast.Attribute, ast.Subscript)):
        return _expr_root_name(target)
    return None


def _resolved_dotted(
    node: ast.AST, module: ModuleInfo
) -> Optional[str]:
    """Full dotted path of a Name/Attribute chain with the root alias
    resolved through the module's import table: ``nr.random`` under
    ``import numpy.random as nr`` -> 'numpy.random.random'; ``r`` under
    ``from random import random as r`` -> 'random.random'.  None when
    the root is not an imported name."""
    parts: List[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    origin = module.import_origin(current.id)
    if not origin:
        return None
    return ".".join([origin] + list(reversed(parts)))


def _matches_module(
    dotted: str, modules: Iterable[str]
) -> Optional[str]:
    """The entry of ``modules`` that ``dotted`` resolves into — an
    exact match or a dotted-prefix match ('numpy.random.random' is
    inside 'numpy.random' but 'numpy.randomize' is not)."""
    for mod in modules:
        if dotted == mod or dotted.startswith(mod + "."):
            return mod
    return None


def _is_set_expr(node: ast.expr, set_vars: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    return False


def _set_valued_locals(fn: FunctionNode) -> Set[str]:
    """Local names assigned a set-valued expression anywhere in ``fn``.

    Names that are *also* assigned a non-set value somewhere are dropped
    (conservative: only flag names that are unambiguously sets)."""
    set_names: Set[str] = set()
    other_names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if _is_set_expr(node.value, set()):
                    set_names.add(target.id)
                else:
                    other_names.add(target.id)
    return set_names - other_names


def _is_ctx_state_target(
    target: ast.expr, ctx_names: Set[str]
) -> bool:
    """True for ``ctx.state[...]`` subscript-assignment targets (and
    the rarer whole-dict rebind ``ctx.state = ...``)."""
    if isinstance(target, ast.Subscript):
        target = target.value
    return (
        isinstance(target, ast.Attribute)
        and target.attr == "state"
        and isinstance(target.value, ast.Name)
        and target.value.id in ctx_names
    )


def _unpicklable_reason(
    node: ast.expr, module: ModuleInfo
) -> Optional[str]:
    """Why ``node``'s value cannot be checkpoint-pickled, or None.

    Recognizes the LM012 taxonomy: lambdas, generator expressions,
    ``open()``/``iter()`` calls, and constructor calls into the socket
    and lock modules (:data:`_UNPICKLABLE_CALLS`)."""
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, ast.GeneratorExp):
        return "a generator expression"
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        origin = module.import_origin(func.id)
        if origin is None:
            if func.id in _UNPICKLABLE_BUILTINS:
                return _UNPICKLABLE_BUILTINS[func.id]
            return None
        dotted = origin
    else:
        dotted = _resolved_dotted(func, module)
        if dotted is None:
            return None
    mod = _matches_module(dotted, _UNPICKLABLE_CALLS)
    if mod is None:
        return None
    leaves, reason = _UNPICKLABLE_CALLS[mod]
    leaf = dotted.rpartition(".")[2]
    return reason if leaf in leaves else None


def _unpicklable_locals(
    fn: FunctionNode, module: ModuleInfo
) -> Dict[str, str]:
    """Local names unambiguously bound to an unpicklable value in
    ``fn`` (conservative: a name also assigned something innocuous
    elsewhere is dropped), mapped to the reason string."""
    reasons: Dict[str, str] = {}
    clean: Set[str] = set()
    for node in ast.walk(fn):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.With):
            # `with open(...) as fh:` binds fh to the handle too.
            for item in node.items:
                if item.optional_vars is not None:
                    reason = (
                        _unpicklable_reason(item.context_expr, module)
                        if item.context_expr is not None
                        else None
                    )
                    if reason is not None and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        reasons.setdefault(
                            item.optional_vars.id, reason
                        )
            continue
        if value is None:
            continue
        reason = _unpicklable_reason(value, module)
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if reason is not None:
                reasons.setdefault(target.id, reason)
            else:
                clean.add(target.id)
    return {
        name: why for name, why in reasons.items() if name not in clean
    }


def _now_tainted_names(
    fn: FunctionNode, ctx_names: Set[str]
) -> Set[str]:
    """Fixed point of: a name is tainted if assigned an expression
    mentioning ``ctx.now`` or another tainted name."""
    tainted: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            targets: Sequence[ast.expr] = ()
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.NamedExpr):
                # Walrus bindings taint like assignments: the bound
                # name escapes the expression into the enclosing scope.
                targets, value = [node.target], node.value
            if value is None:
                continue
            if not _mentions_now(value, ctx_names, tainted):
                continue
            for target in targets:
                for name in _plain_target_names(target):
                    if name not in tainted and name not in ctx_names:
                        tainted.add(name)
                        changed = True
    return tainted


def _plain_target_names(target: ast.expr) -> List[str]:
    """Names bound by a plain/unpacking assignment target.  Subscript
    and attribute stores (``ctx.state[...] = now``) bind no local name
    and are deliberately not tracked — element-level taint would smear
    onto the whole container."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_plain_target_names(element))
        return names
    return []


_COMPREHENSIONS = (
    ast.ListComp,
    ast.SetComp,
    ast.GeneratorExp,
    ast.DictComp,
)


def _mentions_now(
    node: ast.AST, ctx_names: Set[str], tainted: Set[str]
) -> bool:
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "now"
        and isinstance(node.value, ast.Name)
        and node.value.id in ctx_names
    ):
        return True
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, _COMPREHENSIONS):
        # Comprehension targets are a fresh scope: a target shadowing
        # a tainted outer name is clean inside the comprehension (the
        # iterables themselves evaluate in the enclosing scope, so a
        # tainted iterable still taints the whole expression).
        for gen in node.generators:
            if _mentions_now(gen.iter, ctx_names, tainted):
                return True
        bound = {
            name
            for gen in node.generators
            for name in _plain_target_names(gen.target)
        }
        inner = tainted - bound
        body: List[ast.expr] = [
            cond for gen in node.generators for cond in gen.ifs
        ]
        if isinstance(node, ast.DictComp):
            body.extend([node.key, node.value])
        else:
            body.append(node.elt)
        return any(
            _mentions_now(part, ctx_names, inner) for part in body
        )
    return any(
        _mentions_now(child, ctx_names, tainted)
        for child in ast.iter_child_nodes(node)
    )
