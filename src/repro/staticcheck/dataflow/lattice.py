"""The information-radius lattice and the abstract interpreter.

Every abstract value carries an **information radius** — how far from
the executing vertex the data it summarizes can originate:

- ``R0``: radius 0.  The vertex's own view: ``ctx.id``, ``ctx.degree``,
  per-vertex inputs, globals (common knowledge, including ``n``),
  constants, and anything computed from them.
- ``RIN``: inbox-derived.  A message arrives from a neighbor, so one
  round of communication extends the radius by exactly one hop; after
  ``t`` rounds the radius is at most ``t``, and the engine's
  ``max_rounds`` (audited against the driver's declared
  :class:`~repro.algorithms.drivers.DriverSpec` bound by the runtime
  certificate) caps ``t``.  RIN values are therefore *certified to stay
  within the declared radius*.
- ``RTOP``: out-of-band.  The value travelled through a channel the
  LOCAL model does not have — in this engine, an attribute of the
  shared algorithm instance written from node code (one instance
  serves every vertex, see ``SyncAlgorithm``).  No round bound caps
  such a value's radius, so it exceeds *any* declared bound: rule
  LM010.

Joins take the maximum radius, union the effect sets (seed/order, see
:mod:`.effects`), and OR the ID-taint bit used by the zero-round check:
a driver whose contract is a symmetry-breaking LCL (Linial's lower
bound says radius 0 cannot solve it) must not halt exclusively on
radius-0 functions of ``ctx.id``.

The :class:`Interpreter` runs one abstract interpretation per bound
algorithm class over the lowered IR (:mod:`.ir`): flow-sensitive within
a function (branch arms are joined, loop bodies iterated to a bounded
fixpoint) and context-insensitive across calls (per-callee parameter
and return summaries, iterated with the per-class ``self``/``ctx.state``
maps until the whole closure stabilizes).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..bindings import Binding, entry_keys
from ..callgraph import CallGraph
from ..diagnostics import Diagnostic, RuleSpec
from ..modules import ModuleInfo
from .ir import (
    Bind,
    Eval,
    FunctionIR,
    If,
    Instr,
    Loop,
    Ret,
    TargetKind,
    lower_function,
)
from .specs import (
    SYMMETRY_BREAKING_LCLS,
    Contract,
    contracts_by_class,
)

# Radius levels.
R0 = 0
RIN = 1
RTOP = 2

#: Effects tracked by the determinism pass.
SEED = "seed"
ORDER = "order"

#: ctx method calls that emit a vertex's observable behavior — the
#: sinks both passes check.
SINK_METHODS = ("publish", "halt", "sleep_until", "fail")

#: RNG object constructors: assigning one to a module variable or an
#: instance attribute launders randomness past LM001's call matcher;
#: draws from the resulting object carry the SEED effect.
RNG_FACTORIES = frozenset(
    {
        "random.Random",
        "random.SystemRandom",
        "secrets.SystemRandom",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "numpy.random.default_rng",
    }
)

#: Builtins whose result does not depend on argument iteration order.
_ORDER_NEUTRAL = frozenset(
    {
        "sorted", "min", "max", "sum", "len", "any", "all",
        "abs", "round", "int", "float", "bool", "str", "repr",
    }
)

#: Builtins that materialize their argument in iteration order: applied
#: to a set, the result depends on the set's arbitrary order.
_SEQUENCING = frozenset(
    {"list", "tuple", "iter", "reversed", "enumerate", "zip",
     "map", "filter"}
)

_SET_MAKERS = frozenset({"set", "frozenset"})

#: Set methods returning another set (content-, not order-, defined).
_SET_PRESERVING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference",
     "copy"}
)

_INBOX_PARAM_NAMES = frozenset({"inbox", "messages", "msgs"})


@dataclass(frozen=True)
class Origin:
    """Provenance of a radius/effect fact, for diagnostics."""

    kind: str
    path: str
    line: int
    note: str


@dataclass(frozen=True)
class AbsVal:
    """One point of the product lattice."""

    radius: int = R0
    id_taint: bool = False
    effects: FrozenSet[str] = frozenset()
    is_set: bool = False
    is_rng: bool = False
    #: "ctx" / "self" / "state" / "ctxrandom" handle markers.
    tag: str = ""
    origins: FrozenSet[Origin] = frozenset()


BOTTOM = AbsVal()

_MAX_ORIGINS = 6


def _cap_origins(origins: FrozenSet[Origin]) -> FrozenSet[Origin]:
    if len(origins) <= _MAX_ORIGINS:
        return origins
    kept = sorted(origins, key=lambda o: (o.kind, o.path, o.line))
    return frozenset(kept[:_MAX_ORIGINS])


def join(a: AbsVal, b: AbsVal) -> AbsVal:
    if a is BOTTOM:
        return b
    if b is BOTTOM:
        return a
    return AbsVal(
        radius=max(a.radius, b.radius),
        id_taint=a.id_taint or b.id_taint,
        effects=a.effects | b.effects,
        is_set=a.is_set or b.is_set,
        is_rng=a.is_rng or b.is_rng,
        tag=a.tag if a.tag == b.tag else "",
        origins=_cap_origins(a.origins | b.origins),
    )


def join_all(values: Sequence[AbsVal]) -> AbsVal:
    out = BOTTOM
    for value in values:
        out = join(out, value)
    return out


def _strip(
    value: AbsVal,
    *,
    drop_set: bool = False,
    drop_order: bool = False,
    drop_rng: bool = False,
    drop_tag: bool = True,
) -> AbsVal:
    effects = value.effects
    origins = value.origins
    if drop_order and ORDER in effects:
        effects = effects - {ORDER}
        origins = frozenset(
            o for o in origins if o.kind != ORDER
        )
    return replace(
        value,
        effects=effects,
        origins=origins,
        is_set=value.is_set and not drop_set,
        is_rng=value.is_rng and not drop_rng,
        tag="" if drop_tag else value.tag,
    )


CTX = AbsVal(tag="ctx")
SELF = AbsVal(tag="self")


# ----------------------------------------------------------------------
# Facts collected for the check passes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SinkFact:
    """One publish/halt/sleep_until/fail call with its joined argument
    value."""

    kind: str
    value: AbsVal
    path: str
    line: int
    chain: Tuple[str, ...]


@dataclass(frozen=True)
class BranchFact:
    """One If/While/IfExp test value."""

    value: AbsVal
    path: str
    line: int
    chain: Tuple[str, ...]


@dataclass
class ClassAnalysis:
    """Everything the check passes need about one analyzed class."""

    binding: Binding
    #: run_local-bound models plus contract-declared ones.
    models: Set[str]
    contracts: List[Contract]
    entry_keys: List[str]
    sinks: List[SinkFact] = field(default_factory=list)
    branches: List[BranchFact] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.binding.name


# ----------------------------------------------------------------------
# The interpreter
# ----------------------------------------------------------------------
class _ClassState:
    """Mutable per-class fixpoint state."""

    def __init__(self) -> None:
        self.param_envs: Dict[str, Dict[str, AbsVal]] = {}
        self.returns: Dict[str, AbsVal] = {}
        self.self_attrs: Dict[str, AbsVal] = {}
        self.state_slots: Dict[str, AbsVal] = {}
        self.published: AbsVal = BOTTOM
        self.changed = False

    def state_join(self) -> AbsVal:
        return join_all(list(self.state_slots.values()))

    def bump_param(
        self, key: str, name: str, value: AbsVal
    ) -> None:
        env = self.param_envs.setdefault(key, {})
        old = env.get(name, BOTTOM)
        new = join(old, value)
        if new != old:
            env[name] = new
            self.changed = True

    def bump_return(self, key: str, value: AbsVal) -> None:
        old = self.returns.get(key, BOTTOM)
        new = join(old, value)
        if new != old:
            self.returns[key] = new
            self.changed = True

    def bump_self(self, attr: str, value: AbsVal) -> None:
        old = self.self_attrs.get(attr, BOTTOM)
        new = join(old, value)
        if new != old:
            self.self_attrs[attr] = new
            self.changed = True

    def bump_state(self, key: str, value: AbsVal) -> None:
        old = self.state_slots.get(key, BOTTOM)
        new = join(old, value)
        if new != old:
            self.state_slots[key] = new
            self.changed = True

    def bump_published(self, value: AbsVal) -> None:
        new = join(self.published, value)
        if new != self.published:
            self.published = new
            self.changed = True


class Interpreter:
    """One abstract interpretation per bound algorithm class."""

    def __init__(
        self,
        graph: CallGraph,
        bindings: Dict[str, Binding],
        contracts: Sequence[Contract],
    ) -> None:
        self.graph = graph
        self.bindings = bindings
        self.contracts = list(contracts)
        self._by_class = contracts_by_class(self.contracts)
        self._ir_cache: Dict[str, FunctionIR] = {}
        self._module_var_cache: Dict[Tuple[str, str], AbsVal] = {}
        self._module_var_stack: Set[Tuple[str, str]] = set()

    # -- IR ------------------------------------------------------------
    def _ir(self, key: str) -> FunctionIR:
        cached = self._ir_cache.get(key)
        if cached is None:
            info, node, module = self.graph.function(key)
            cached = lower_function(
                key, node, module, info.class_name
            )
            self._ir_cache[key] = cached
        return cached

    # -- public entry ----------------------------------------------------
    def run(self) -> List[ClassAnalysis]:
        analyses: List[ClassAnalysis] = []
        for name in sorted(self.bindings):
            binding = self.bindings[name]
            keys = entry_keys(binding, self.graph)
            contracts = self._by_class.get(name, [])
            models = set(binding.models)
            models.update(
                c.model for c in contracts if c.model is not None
            )
            analysis = ClassAnalysis(
                binding=binding,
                models=models,
                contracts=contracts,
                entry_keys=keys,
            )
            if keys:
                self._analyze_class(binding, keys, analysis)
            analyses.append(analysis)
        return analyses

    # -- per-class fixpoint ----------------------------------------------
    def _analyze_class(
        self,
        binding: Binding,
        keys: List[str],
        analysis: ClassAnalysis,
    ) -> None:
        chains = self.graph.reachable_from(keys)
        closure = sorted(chains)
        state = _ClassState()
        self._seed_init(binding, chains, state)
        for key in closure:
            self._seed_entry(key, key in keys, state)
        for _ in range(40):
            state.changed = False
            for key in closure:
                self._exec_function(key, chains[key], state, None)
            if not state.changed:
                break
        # Converged (or capped): one recording pass collects the facts.
        for key in closure:
            self._exec_function(key, chains[key], state, analysis)

    def _seed_entry(
        self, key: str, is_entry: bool, state: _ClassState
    ) -> None:
        ir = self._ir(key)
        env = state.param_envs.setdefault(key, {})
        if not is_entry:
            return
        for index, param in enumerate(ir.params):
            if param == ir.self_name:
                env[param] = SELF
            elif param in ir.ctx_names:
                env[param] = CTX
            elif param in _INBOX_PARAM_NAMES or (
                ir.node.name in ("step", "receive") and index == 2
            ):
                env[param] = AbsVal(
                    radius=RIN,
                    origins=frozenset(
                        {
                            Origin(
                                "inbox",
                                str(ir.module.path),
                                ir.node.lineno,
                                "message received from a neighbor",
                            )
                        }
                    ),
                )

    def _seed_init(
        self,
        binding: Binding,
        chains: Dict[str, Tuple[str, ...]],
        state: _ClassState,
    ) -> None:
        """Constructor-time ``self`` attributes are driver-side
        constants (radius 0) — unless ``__init__`` is itself reachable
        from node code, in which case the node-code write rule governs."""
        init_key = self.graph.resolve_method(binding.name, "__init__")
        if init_key is None or init_key in chains:
            return
        ir = self._ir(init_key)
        env: Dict[str, AbsVal] = {}
        if ir.params:
            env[ir.params[0]] = SELF
        fctx = _FunctionContext(
            self, ir, ("__init__",), state, None, in_init=True
        )
        for _ in range(4):
            state.changed = False
            fctx.exec_block(ir.instrs, dict(env))
            if not state.changed:
                break

    def _exec_function(
        self,
        key: str,
        chain: Tuple[str, ...],
        state: _ClassState,
        analysis: Optional[ClassAnalysis],
    ) -> None:
        ir = self._ir(key)
        fctx = _FunctionContext(self, ir, chain, state, analysis)
        env = dict(state.param_envs.get(key, {}))
        out = fctx.exec_block(ir.instrs, env)
        del out
        state.bump_return(key, fctx.ret)

    # -- module-level values ----------------------------------------------
    def module_var_value(
        self, module: ModuleInfo, name: str
    ) -> AbsVal:
        """Abstract value of a module-level assignment, e.g. the
        laundered ``_RNG = random.Random()`` pattern."""
        cache_key = (module.name, name)
        if cache_key in self._module_var_cache:
            return self._module_var_cache[cache_key]
        if cache_key in self._module_var_stack:
            return BOTTOM
        expr = module.module_vars.get(name)
        if expr is None:
            return BOTTOM
        self._module_var_stack.add(cache_key)
        try:
            ir = FunctionIR(
                key=f"{module.name}:<module>",
                node=None,  # type: ignore[arg-type]
                module=module,
                class_name=None,
                params=[],
                ctx_names=[],
                self_name=None,
                instrs=[],
            )
            fctx = _FunctionContext(
                self, ir, (), _ClassState(), None
            )
            value = fctx.eval(expr, {})
        finally:
            self._module_var_stack.discard(cache_key)
        self._module_var_cache[cache_key] = value
        return value


class _FunctionContext:
    """Evaluation context for one function body in one class pass."""

    def __init__(
        self,
        interp: Interpreter,
        ir: FunctionIR,
        chain: Tuple[str, ...],
        state: _ClassState,
        analysis: Optional[ClassAnalysis],
        in_init: bool = False,
    ) -> None:
        self.interp = interp
        self.ir = ir
        self.chain = chain
        self.state = state
        self.analysis = analysis
        self.in_init = in_init
        self.path = str(ir.module.path)
        self.ret: AbsVal = BOTTOM
        #: Stack of enclosing branch-test values: a ``return`` inside a
        #: conditional depends on the condition (implicit flow), so the
        #: tests join into the returned abstraction — the explicit
        #: ``IfExp`` evaluation already does the same.
        self._conds: List[AbsVal] = []

    # -- block execution --------------------------------------------------
    def exec_block(
        self, instrs: Sequence[Instr], env: Dict[str, AbsVal]
    ) -> Dict[str, AbsVal]:
        for instr in instrs:
            if isinstance(instr, Bind):
                self._exec_bind(instr, env)
            elif isinstance(instr, Eval):
                self.eval(instr.value, env)
            elif isinstance(instr, Ret):
                value = (
                    self.eval(instr.value, env)
                    if instr.value is not None
                    else BOTTOM
                )
                value = join(value, join_all(self._conds))
                self.ret = join(self.ret, value)
            elif isinstance(instr, If):
                cond = BOTTOM
                if instr.test is not None:
                    test = self.eval(instr.test, env)
                    self._record_branch(test, instr.line)
                    cond = _strip(test, drop_set=True)
                self._conds.append(cond)
                then_env = self.exec_block(instr.body, dict(env))
                else_env = self.exec_block(instr.orelse, dict(env))
                self._conds.pop()
                env.clear()
                env.update(_join_envs(then_env, else_env))
            elif isinstance(instr, Loop):
                self._exec_loop(instr, env)
        return env

    def _exec_loop(
        self, instr: Loop, env: Dict[str, AbsVal]
    ) -> None:
        # Loop summary: the body may run zero times, so each pass joins
        # with the pre-loop environment; iterate to a bounded fixpoint.
        for _ in range(6):
            before = dict(env)
            body_env = dict(env)
            cond = BOTTOM
            if instr.test is not None:
                test = self.eval(instr.test, body_env)
                self._record_branch(test, instr.line)
                cond = _strip(test, drop_set=True)
            self._conds.append(cond)
            if instr.bind is not None:
                self._exec_bind(instr.bind, body_env)
            body_env = self.exec_block(instr.body, body_env)
            self._conds.pop()
            env.clear()
            env.update(_join_envs(before, body_env))
            if env == before:
                break
        self.exec_block(instr.orelse, env)

    def _exec_bind(
        self, instr: Bind, env: Dict[str, AbsVal]
    ) -> None:
        value = (
            self.eval(instr.value, env)
            if instr.value is not None
            else BOTTOM
        )
        if instr.element_of:
            value = self._element_of(value, instr.line)
        target = instr.target
        if target.kind is TargetKind.LOCAL:
            if instr.augmented:
                value = join(env.get(target.name, BOTTOM), value)
            env[target.name] = value
        elif target.kind is TargetKind.SELF_ATTR:
            if not self.in_init:
                # Node code wrote the shared instance: a cross-vertex
                # channel — everything read back is out-of-band.
                value = join(
                    value,
                    AbsVal(
                        radius=RTOP,
                        origins=frozenset(
                            {
                                Origin(
                                    "self-channel",
                                    self.path,
                                    instr.line,
                                    f"instance attribute "
                                    f"'self.{target.name}' written "
                                    "from node code (one algorithm "
                                    "instance is shared by every "
                                    "vertex)",
                                )
                            }
                        ),
                    ),
                )
            self.state.bump_self(target.name, value)
        elif target.kind is TargetKind.STATE_KEY:
            self.state.bump_state(target.key or "*", value)
        elif target.kind is TargetKind.ELEMENT:
            old = env.get(target.name, BOTTOM)
            env[target.name] = join(old, _strip(value, drop_set=True))

    def _record_branch(self, value: AbsVal, line: int) -> None:
        if self.analysis is None:
            return
        if value.radius >= RTOP or value.effects:
            self.analysis.branches.append(
                BranchFact(value, self.path, line, self.chain)
            )

    def _record_sink(
        self, kind: str, value: AbsVal, line: int
    ) -> None:
        if kind == "publish":
            self.state.bump_published(value)
        if self.analysis is not None:
            self.analysis.sinks.append(
                SinkFact(kind, value, self.path, line, self.chain)
            )

    def _element_of(self, value: AbsVal, line: int) -> AbsVal:
        out = _strip(value, drop_set=True, drop_rng=True)
        if value.is_set:
            out = join(
                out,
                AbsVal(
                    effects=frozenset({ORDER}),
                    origins=frozenset(
                        {
                            Origin(
                                ORDER,
                                self.path,
                                line,
                                "iteration over an unordered set",
                            )
                        }
                    ),
                ),
            )
        return out

    # -- expression evaluation ---------------------------------------------
    def eval(
        self, expr: ast.expr, env: Dict[str, AbsVal]
    ) -> AbsVal:
        if isinstance(expr, ast.Constant):
            return BOTTOM
        if isinstance(expr, ast.Name):
            return self._eval_name(expr.id, env)
        if isinstance(expr, ast.NamedExpr):
            value = self.eval(expr.value, env)
            if isinstance(expr.target, ast.Name):
                env[expr.target.id] = value
            return value
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr, env)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr, env)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.BinOp):
            left = self.eval(expr.left, env)
            right = self.eval(expr.right, env)
            keeps_set = isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
            ) and (left.is_set or right.is_set)
            out = join(
                _strip(left, drop_set=True),
                _strip(right, drop_set=True),
            )
            return replace(out, is_set=keeps_set)
        if isinstance(expr, ast.BoolOp):
            return join_all([self.eval(v, env) for v in expr.values])
        if isinstance(expr, ast.UnaryOp):
            return _strip(self.eval(expr.operand, env), drop_set=True)
        if isinstance(expr, ast.Compare):
            values = [self.eval(expr.left, env)]
            membership = all(
                isinstance(op, (ast.In, ast.NotIn)) for op in expr.ops
            )
            for comparator, _op in zip(expr.comparators, expr.ops):
                value = self.eval(comparator, env)
                if membership:
                    # Membership in a set is order-insensitive.
                    value = _strip(value, drop_order=True)
                values.append(value)
            return _strip(join_all(values), drop_set=True)
        if isinstance(expr, ast.IfExp):
            test = self.eval(expr.test, env)
            self._record_branch(test, expr.lineno)
            return join_all(
                [
                    _strip(test, drop_set=True),
                    self.eval(expr.body, env),
                    self.eval(expr.orelse, env),
                ]
            )
        if isinstance(expr, (ast.List, ast.Tuple)):
            return _strip(
                join_all([self.eval(e, env) for e in expr.elts]),
                drop_set=True,
            )
        if isinstance(expr, ast.Set):
            out = _strip(
                join_all([self.eval(e, env) for e in expr.elts]),
                drop_set=True,
            )
            return replace(out, is_set=True)
        if isinstance(expr, ast.Dict):
            parts = [
                self.eval(k, env) for k in expr.keys if k is not None
            ] + [self.eval(v, env) for v in expr.values]
            return _strip(join_all(parts), drop_set=True)
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            value = self._eval_comprehension(
                expr.generators, [expr.elt], env
            )
            if isinstance(expr, ast.SetComp):
                return replace(value, is_set=True)
            return value
        if isinstance(expr, ast.DictComp):
            return self._eval_comprehension(
                expr.generators, [expr.key, expr.value], env
            )
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value, env)
        if isinstance(expr, ast.JoinedStr):
            return _strip(
                join_all([self.eval(v, env) for v in expr.values]),
                drop_set=True,
            )
        if isinstance(expr, ast.FormattedValue):
            return _strip(self.eval(expr.value, env), drop_set=True)
        if isinstance(expr, ast.Slice):
            parts = [
                self.eval(part, env)
                for part in (expr.lower, expr.upper, expr.step)
                if part is not None
            ]
            return _strip(join_all(parts), drop_set=True)
        if isinstance(expr, (ast.Await, ast.YieldFrom)):
            return self.eval(expr.value, env)
        if isinstance(expr, ast.Yield):
            if expr.value is not None:
                return self.eval(expr.value, env)
            return BOTTOM
        if isinstance(expr, ast.Lambda):
            return BOTTOM
        return BOTTOM

    def _eval_comprehension(
        self,
        generators: Sequence[ast.comprehension],
        bodies: Sequence[ast.expr],
        env: Dict[str, AbsVal],
    ) -> AbsVal:
        """Comprehensions get their own scope: generator targets bind
        the *element* abstraction of their iterable (picking up the
        ORDER effect when that iterable is a set), shadowing any outer
        name.  Filter (``if``) clauses select which elements survive,
        so their value joins into the result."""
        local = dict(env)
        extra = BOTTOM
        for gen in generators:
            iter_val = self.eval(gen.iter, local)
            element = self._element_of(iter_val, gen.iter.lineno)
            for name in _comp_target_names(gen.target):
                local[name] = element
            for if_expr in gen.ifs:
                extra = join(
                    extra,
                    _strip(self.eval(if_expr, local), drop_set=True),
                )
        body_val = join_all([self.eval(b, local) for b in bodies])
        return _strip(join(body_val, extra), drop_set=True)

    def _eval_name(
        self, name: str, env: Dict[str, AbsVal]
    ) -> AbsVal:
        if name in env:
            return env[name]
        if name in self.ir.module.module_vars:
            return self.interp.module_var_value(self.ir.module, name)
        origin = self.ir.module.import_origin(name)
        if origin in RNG_FACTORIES:
            # ``from random import Random`` — referencing the factory
            # itself; construction is handled at the call site.
            return BOTTOM
        return BOTTOM

    def _eval_attribute(
        self, expr: ast.Attribute, env: Dict[str, AbsVal]
    ) -> AbsVal:
        base = self.eval(expr.value, env)
        attr = expr.attr
        if base.tag == "ctx":
            return self._ctx_attribute(attr, expr)
        if base.tag == "self":
            return self.state.self_attrs.get(attr, BOTTOM)
        if base.tag == "state":
            return self.state.state_join()
        return _strip(base, drop_set=True)

    def _ctx_attribute(
        self, attr: str, expr: ast.Attribute
    ) -> AbsVal:
        if attr == "id":
            return AbsVal(
                id_taint=True,
                origins=frozenset(
                    {
                        Origin(
                            "id",
                            self.path,
                            expr.lineno,
                            "the vertex's unique identifier",
                        )
                    }
                ),
            )
        if attr == "state":
            return AbsVal(tag="state")
        if attr == "random":
            # ctx.random is LM001's domain (model gating), not a
            # laundered RNG — no SEED effect here, by design.
            return AbsVal(tag="ctxrandom")
        if attr in ("published", "pending_publish"):
            return self.state.published
        # id-free local view: degree, input, globals, now, n,
        # max_degree, ports, ...
        return BOTTOM

    def _eval_subscript(
        self, expr: ast.Subscript, env: Dict[str, AbsVal]
    ) -> AbsVal:
        base = self.eval(expr.value, env)
        self.eval(expr.slice, env)
        if base.tag == "state":
            key: Optional[str] = None
            if isinstance(expr.slice, ast.Constant) and isinstance(
                expr.slice.value, str
            ):
                key = expr.slice.value
            if key is not None and "*" not in self.state.state_slots:
                return self.state.state_slots.get(key, BOTTOM)
            return self.state.state_join()
        # Indexing is positional, not iteration: no order effect.
        return _strip(base, drop_set=True)

    # -- calls -------------------------------------------------------------
    def _eval_call(
        self, call: ast.Call, env: Dict[str, AbsVal]
    ) -> AbsVal:
        arg_vals = [self.eval(a, env) for a in call.args]
        kw_vals = [self.eval(kw.value, env) for kw in call.keywords]
        joined = join_all(
            [_strip(v, drop_set=True) for v in arg_vals + kw_vals]
        )
        func = call.func
        if isinstance(func, ast.Attribute):
            return self._attribute_call(
                call, func, arg_vals, kw_vals, joined, env
            )
        if isinstance(func, ast.Name):
            return self._name_call(
                call, func.id, arg_vals, kw_vals, joined, env
            )
        self.eval(func, env)
        return joined

    def _attribute_call(
        self,
        call: ast.Call,
        func: ast.Attribute,
        arg_vals: List[AbsVal],
        kw_vals: List[AbsVal],
        joined: AbsVal,
        env: Dict[str, AbsVal],
    ) -> AbsVal:
        base = self.eval(func.value, env)
        attr = func.attr
        if base.tag == "ctx":
            if attr in SINK_METHODS:
                self._record_sink(attr, joined, call.lineno)
                return BOTTOM
            return joined
        if base.tag == "ctxrandom":
            return BOTTOM
        if base.tag == "state":
            if attr in ("setdefault", "update"):
                self.state.bump_state("*", joined)
            return join(joined, self.state.state_join())
        if base.is_rng:
            return AbsVal(
                radius=base.radius,
                effects=frozenset({SEED}),
                origins=_cap_origins(
                    base.origins
                    | {
                        Origin(
                            SEED,
                            self.path,
                            call.lineno,
                            f"draw from RNG object "
                            f"('.{attr}()' on a random.Random-style "
                            "instance)",
                        )
                    }
                ),
            )
        if base.tag == "self":
            target = None
            if self.ir.class_name is not None:
                target = self.interp.graph.resolve_method(
                    self._owning_class(), attr
                )
            if target is not None:
                return self._interprocedural(
                    target, [base] + arg_vals, call, env
                )
            return join(joined, self._self_join())
        # RNG factory via module attribute: random.Random(...), etc.
        dotted = _dotted_origin(func, self.ir.module)
        if dotted in RNG_FACTORIES:
            return AbsVal(is_rng=True)
        # Corpus module-level function via module alias.
        if isinstance(func.value, ast.Name):
            origin = self.ir.module.import_origin(func.value.id)
            if origin:
                for other in self.interp.graph.modules:
                    if other.name == origin or other.name.endswith(
                        "." + origin.rpartition(".")[2]
                    ):
                        if attr in other.functions:
                            return self._interprocedural(
                                f"{other.name}:{attr}",
                                arg_vals,
                                call,
                                env,
                            )
        if base.is_set:
            if attr == "pop":
                return self._element_of(base, call.lineno)
            if attr in _SET_PRESERVING_METHODS:
                out = join(_strip(base, drop_set=True), joined)
                return replace(out, is_set=True)
        return join(_strip(base, drop_set=True), joined)

    def _name_call(
        self,
        call: ast.Call,
        name: str,
        arg_vals: List[AbsVal],
        kw_vals: List[AbsVal],
        joined: AbsVal,
        env: Dict[str, AbsVal],
    ) -> AbsVal:
        if name in _ORDER_NEUTRAL:
            return _strip(joined, drop_order=True)
        if name in _SET_MAKERS:
            out = _strip(joined, drop_order=True)
            return replace(out, is_set=True)
        if name in _SEQUENCING:
            materialized = join_all(
                [
                    self._element_of(v, call.lineno)
                    for v in arg_vals + kw_vals
                ]
            )
            return materialized
        if name == "dict":
            return joined
        origin = self.ir.module.import_origin(name)
        if origin in RNG_FACTORIES:
            return AbsVal(is_rng=True)
        target = self.interp.graph._resolve_name_call(
            name, self.ir.module
        )
        if target is not None:
            return self._interprocedural(target, arg_vals, call, env)
        return joined

    def _owning_class(self) -> str:
        return self.ir.class_name or ""

    def _self_join(self) -> AbsVal:
        return join_all(list(self.state.self_attrs.values()))

    def _interprocedural(
        self,
        key: str,
        arg_vals: List[AbsVal],
        call: ast.Call,
        env: Dict[str, AbsVal],
    ) -> AbsVal:
        graph = self.interp.graph
        if key not in graph.by_key:
            return join_all(
                [_strip(v, drop_set=True) for v in arg_vals]
            )
        callee = self.interp._ir(key)
        for index, value in enumerate(arg_vals):
            if index < len(callee.params):
                self.state.bump_param(
                    key, callee.params[index], value
                )
        for kw in call.keywords:
            if kw.arg and kw.arg in callee.params:
                self.state.bump_param(
                    key, kw.arg, self.eval(kw.value, env)
                )
        return self.state.returns.get(key, BOTTOM)


def _comp_target_names(target: ast.expr) -> List[str]:
    """Names bound by a comprehension's ``for`` target."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_comp_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _comp_target_names(target.value)
    return []


def _join_envs(
    a: Dict[str, AbsVal], b: Dict[str, AbsVal]
) -> Dict[str, AbsVal]:
    out: Dict[str, AbsVal] = {}
    for name in set(a) | set(b):
        out[name] = join(a.get(name, BOTTOM), b.get(name, BOTTOM))
    return out


def _dotted_origin(
    node: ast.expr, module: ModuleInfo
) -> Optional[str]:
    """Full dotted origin of an attribute chain through the import
    table: ``nr.default_rng`` with ``import numpy.random as nr`` ->
    'numpy.random.default_rng'."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    origin = module.import_origin(current.id)
    root = origin if origin else current.id
    return ".".join([root] + list(reversed(parts)))


# ----------------------------------------------------------------------
# LM010: the radius check
# ----------------------------------------------------------------------
def _first_origin(
    value: AbsVal, kind: str
) -> Optional[Origin]:
    candidates = sorted(
        (o for o in value.origins if o.kind == kind),
        key=lambda o: (o.path, o.line),
    )
    return candidates[0] if candidates else None


def _declared_label(contracts: Sequence[Contract]) -> str:
    for contract in contracts:
        if contract.radius_label:
            return contract.radius_label
    for contract in contracts:
        if contract.bound_label:
            return contract.bound_label
    return "its declared round bound"


def check_radius(
    analysis: ClassAnalysis,
    rules: Optional[Dict[str, RuleSpec]] = None,
) -> Iterator[Diagnostic]:
    """Rule LM010: inferred information radius vs the declared one."""
    if rules is None:
        from ..rules import RULES as rules_table

        rules = rules_table
    spec = rules["LM010"]
    algo = analysis.name
    label = _declared_label(analysis.contracts)
    hint = (
        "keep per-vertex state in ctx.state; information may enter a "
        "vertex only through its inbox, one hop per round"
    )
    for sink in analysis.sinks:
        if sink.value.radius < RTOP:
            continue
        origin = _first_origin(sink.value, "self-channel")
        via = (
            f" via {origin.note} at line {origin.line}"
            if origin is not None
            else ""
        )
        yield Diagnostic(
            rule_id="LM010",
            severity=spec.severity,
            path=sink.path,
            line=sink.line,
            message=(
                f"algorithm {algo!r} calls ctx.{sink.kind}() on a "
                f"value of unbounded information radius{via}; the "
                f"declared radius is {label}"
            ),
            hint=hint,
            chain=sink.chain,
        )
    for branch in analysis.branches:
        if branch.value.radius < RTOP:
            continue
        origin = _first_origin(branch.value, "self-channel")
        via = (
            f" via {origin.note} at line {origin.line}"
            if origin is not None
            else ""
        )
        yield Diagnostic(
            rule_id="LM010",
            severity=spec.severity,
            path=branch.path,
            line=branch.line,
            message=(
                f"algorithm {algo!r} branches on a value of unbounded "
                f"information radius{via}; the declared radius is "
                f"{label}"
            ),
            hint=hint,
            chain=branch.chain,
        )
    yield from _check_zero_round(analysis, spec)


def _check_zero_round(
    analysis: ClassAnalysis, spec: RuleSpec
) -> Iterator[Diagnostic]:
    """A symmetry-breaking contract cannot be met at radius 0: if every
    halt the class can reach is a radius-0 function and at least one
    leaks ``ctx.id``, the output is a 0-round function of the ID
    assignment — which Linial's lower bound (PAPER.md §2) rules out for
    the declared LCL."""
    problems = {
        (c.driver, c.problem, c.bound_label)
        for c in analysis.contracts
        if c.problem in SYMMETRY_BREAKING_LCLS
    }
    if not problems:
        return
    halts = [s for s in analysis.sinks if s.kind == "halt"]
    if not halts:
        return
    if any(s.value.radius > R0 for s in halts):
        return
    leaking = [s for s in halts if s.value.id_taint]
    if not leaking:
        return
    driver, problem, bound_label = sorted(problems)[0]
    declared = f"{problem}"
    if bound_label:
        declared += f" within {bound_label}"
    for sink in leaking:
        yield Diagnostic(
            rule_id="LM010",
            severity=spec.severity,
            path=sink.path,
            line=sink.line,
            message=(
                f"algorithm {analysis.name!r} halts on a radius-0 "
                f"function of ctx.id, but driver {driver!r} declares "
                f"{declared}: no 0-round algorithm solves a "
                "symmetry-breaking LCL (Linial's lower bound)"
            ),
            hint=(
                "the output must depend on the neighborhood: read the "
                "inbox for at least one round, or certify against a "
                "problem radius 0 can solve"
            ),
            chain=sink.chain,
        )
