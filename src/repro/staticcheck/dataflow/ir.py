"""Lowering of node-program functions into a small analysis IR.

The dataflow passes do not interpret Python ASTs statement-by-statement
— each reachable function is lowered once into a block-structured IR of
five instruction kinds:

- :class:`Bind` — one assignment to one :class:`Target` (a local name,
  a ``self`` attribute, a ``ctx.state`` slot, or a weak element write
  into a container root);
- :class:`Eval` — an expression evaluated for effect (sink calls like
  ``ctx.publish`` are discovered while evaluating);
- :class:`If` / :class:`Loop` — structured control flow; the abstract
  interpreter executes both arms on copies of the environment and joins
  them, so a kill on one branch cannot mask a fact established on the
  other (loops re-execute their body to a bounded fixpoint — the "loop
  summary" of the pass pipeline);
- :class:`Ret` — contributes to the function's return summary.

Expressions are *not* decomposed further: instructions reference the
original ``ast.expr`` nodes and the interpreter in
:mod:`repro.staticcheck.dataflow.lattice` evaluates them compositionally.
This keeps the IR honest about what it models (bindings, control joins,
loop summaries) without duplicating Python's expression grammar.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..callgraph import FunctionNode
from ..modules import ModuleInfo
from ..rules import _params_like


class TargetKind(enum.Enum):
    """Where a :class:`Bind` stores its value."""

    #: plain local name (strong update within a straight-line block).
    LOCAL = "local"
    #: ``self.<attr>`` — the shared algorithm instance (weak update,
    #: and a cross-vertex channel when written from node code).
    SELF_ATTR = "self"
    #: ``ctx.state[<key>]`` — per-vertex round-persistent state
    #: (weak update into the class-wide slot map).
    STATE_KEY = "state"
    #: subscript/attribute write into a local container
    #: (``xs[i] = v`` — weak update joined into the root local).
    ELEMENT = "element"


@dataclass(frozen=True)
class Target:
    """One lvalue."""

    kind: TargetKind
    #: local/root name for LOCAL/ELEMENT, attribute name for SELF_ATTR.
    name: str
    #: constant ``ctx.state`` key when statically known, else None
    #: (treated as the wildcard slot).
    key: Optional[str] = None


@dataclass
class Bind:
    """``target <- value`` (or element-of/augmented variants)."""

    line: int
    target: Target
    #: None binds bottom (e.g. an ``except ... as e`` name).
    value: Optional[ast.expr]
    #: AugAssign: join with the target's previous value.
    augmented: bool = False
    #: For-loop / unpacking targets bind an *element* of the value.
    element_of: bool = False


@dataclass
class Eval:
    """Expression evaluated for effect only."""

    line: int
    value: ast.expr


@dataclass
class Ret:
    """Return statement; joins into the function summary."""

    line: int
    value: Optional[ast.expr]


@dataclass
class If:
    """Two-way join point (also used for ``try`` bodies/handlers)."""

    line: int
    #: None for synthetic joins (try/except arms).
    test: Optional[ast.expr]
    body: List["Instr"] = field(default_factory=list)
    orelse: List["Instr"] = field(default_factory=list)


@dataclass
class Loop:
    """``for``/``while`` — body re-executed to a bounded fixpoint."""

    line: int
    #: the For target bind (element-of), None for while loops.
    bind: Optional[Bind]
    #: while-loop test, None for for loops.
    test: Optional[ast.expr]
    body: List["Instr"] = field(default_factory=list)
    orelse: List["Instr"] = field(default_factory=list)


Instr = Union[Bind, Eval, Ret, If, Loop]


@dataclass
class FunctionIR:
    """One lowered function plus the lookup context eval needs."""

    key: str
    node: FunctionNode
    module: ModuleInfo
    class_name: Optional[str]
    params: List[str]
    ctx_names: List[str]
    self_name: Optional[str]
    instrs: List[Instr]


def _param_names(fn: FunctionNode) -> List[str]:
    args = (
        list(fn.args.posonlyargs)
        + list(fn.args.args)
        + list(fn.args.kwonlyargs)
    )
    return [a.arg for a in args]


class _Lowerer:
    def __init__(
        self,
        node: FunctionNode,
        module: ModuleInfo,
        class_name: Optional[str],
    ) -> None:
        self.module = module
        self.class_name = class_name
        self.ctx_names = sorted(_params_like(node, "ctx", "NodeContext"))
        params = _param_names(node)
        self.self_name: Optional[str] = None
        if class_name is not None and params:
            decorators = {
                d.id
                for d in node.decorator_list
                if isinstance(d, ast.Name)
            }
            if "staticmethod" not in decorators:
                self.self_name = params[0]

    # ------------------------------------------------------------------
    # Targets
    # ------------------------------------------------------------------
    def _is_ctx_state(self, expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr == "state"
            and isinstance(expr.value, ast.Name)
            and expr.value.id in self.ctx_names
        )

    def _target(self, expr: ast.expr) -> Optional[Target]:
        if isinstance(expr, ast.Name):
            return Target(TargetKind.LOCAL, expr.id)
        if isinstance(expr, ast.Attribute):
            base = expr.value
            if (
                isinstance(base, ast.Name)
                and base.id == self.self_name
            ):
                return Target(TargetKind.SELF_ATTR, expr.attr)
            root = _root_name(expr)
            if root is not None:
                if root == self.self_name:
                    # self.x.y = v — weak update of self.x's root attr.
                    attr = _self_attr_of(expr, self.self_name)
                    if attr is not None:
                        return Target(TargetKind.SELF_ATTR, attr)
                return Target(TargetKind.ELEMENT, root)
            return None
        if isinstance(expr, ast.Subscript):
            base = expr.value
            if self._is_ctx_state(base):
                key: Optional[str] = None
                if isinstance(expr.slice, ast.Constant) and isinstance(
                    expr.slice.value, str
                ):
                    key = expr.slice.value
                return Target(TargetKind.STATE_KEY, "state", key=key)
            if isinstance(base, ast.Attribute) and (
                isinstance(base.value, ast.Name)
                and base.value.id == self.self_name
            ):
                return Target(TargetKind.SELF_ATTR, base.attr)
            root = _root_name(expr)
            if root is not None:
                return Target(TargetKind.ELEMENT, root)
            return None
        if isinstance(expr, ast.Starred):
            return self._target(expr.value)
        return None

    def _bind_target(
        self,
        out: List[Instr],
        target_expr: ast.expr,
        value: Optional[ast.expr],
        line: int,
        augmented: bool = False,
        element_of: bool = False,
    ) -> None:
        if isinstance(target_expr, (ast.Tuple, ast.List)):
            for elt in target_expr.elts:
                self._bind_target(
                    out, elt, value, line, augmented, element_of=True
                )
            return
        target = self._target(target_expr)
        if target is None:
            if value is not None:
                out.append(Eval(line, value))
            return
        out.append(
            Bind(
                line=line,
                target=target,
                value=value,
                augmented=augmented,
                element_of=element_of,
            )
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def lower_block(self, stmts: Sequence[ast.stmt]) -> List[Instr]:
        out: List[Instr] = []
        for stmt in stmts:
            self._stmt(out, stmt)
        return out

    def _stmt(self, out: List[Instr], stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._bind_target(
                    out, target, stmt.value, stmt.lineno
                )
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind_target(
                    out, stmt.target, stmt.value, stmt.lineno
                )
        elif isinstance(stmt, ast.AugAssign):
            self._bind_target(
                out, stmt.target, stmt.value, stmt.lineno,
                augmented=True,
            )
        elif isinstance(stmt, ast.Expr):
            out.append(Eval(stmt.lineno, stmt.value))
        elif isinstance(stmt, ast.Return):
            out.append(Ret(stmt.lineno, stmt.value))
        elif isinstance(stmt, ast.If):
            out.append(
                If(
                    stmt.lineno,
                    stmt.test,
                    self.lower_block(stmt.body),
                    self.lower_block(stmt.orelse),
                )
            )
        elif isinstance(stmt, ast.While):
            out.append(
                Loop(
                    stmt.lineno,
                    bind=None,
                    test=stmt.test,
                    body=self.lower_block(stmt.body),
                    orelse=self.lower_block(stmt.orelse),
                )
            )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            head: List[Instr] = []
            self._bind_target(
                head, stmt.target, stmt.iter, stmt.lineno,
                element_of=True,
            )
            bind = None
            body = self.lower_block(stmt.body)
            if head and isinstance(head[0], Bind):
                bind = head[0]
                body = head[1:] + body
            else:
                body = head + body
            out.append(
                Loop(
                    stmt.lineno,
                    bind=bind,
                    test=None,
                    body=body,
                    orelse=self.lower_block(stmt.orelse),
                )
            )
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind_target(
                        out,
                        item.optional_vars,
                        item.context_expr,
                        stmt.lineno,
                    )
                else:
                    out.append(Eval(stmt.lineno, item.context_expr))
            out.extend(self.lower_block(stmt.body))
        elif isinstance(stmt, ast.Try):
            arms = [self.lower_block(stmt.body + stmt.orelse)]
            for handler in stmt.handlers:
                arm: List[Instr] = []
                if handler.name:
                    arm.append(
                        Bind(
                            handler.lineno,
                            Target(TargetKind.LOCAL, handler.name),
                            None,
                        )
                    )
                arm.extend(self.lower_block(handler.body))
                arms.append(arm)
            joined = arms[0]
            for arm in arms[1:]:
                joined = [If(stmt.lineno, None, joined, arm)]
            out.extend(joined)
            out.extend(self.lower_block(stmt.finalbody))
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                out.append(Eval(stmt.lineno, stmt.exc))
        elif isinstance(stmt, ast.Assert):
            out.append(Eval(stmt.lineno, stmt.test))
            if stmt.msg is not None:
                out.append(Eval(stmt.lineno, stmt.msg))
        elif hasattr(ast, "Match") and isinstance(
            stmt, getattr(ast, "Match")
        ):
            out.append(Eval(stmt.lineno, stmt.subject))
            joined_match: List[Instr] = []
            for case in stmt.cases:
                joined_match = [
                    If(
                        stmt.lineno,
                        None,
                        joined_match,
                        self.lower_block(case.body),
                    )
                ]
            out.extend(joined_match)
        # Nested defs, imports, global/nonlocal, pass/break/continue,
        # and delete statements carry no dataflow we model.


def _root_name(expr: ast.expr) -> Optional[str]:
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _self_attr_of(
    expr: ast.expr, self_name: Optional[str]
) -> Optional[str]:
    """The first attribute hanging off ``self`` in a chained lvalue
    (``self.cache.slot = v`` -> 'cache')."""
    chain: List[str] = []
    node: ast.expr = expr
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == self_name and chain:
        return chain[-1]
    return None


def lower_function(
    key: str,
    node: FunctionNode,
    module: ModuleInfo,
    class_name: Optional[str],
) -> FunctionIR:
    """Lower one function/method into :class:`FunctionIR`."""
    lowerer = _Lowerer(node, module, class_name)
    return FunctionIR(
        key=key,
        node=node,
        module=module,
        class_name=class_name,
        params=_param_names(node),
        ctx_names=lowerer.ctx_names,
        self_name=lowerer.self_name,
        instrs=lowerer.lower_block(node.body),
    )
