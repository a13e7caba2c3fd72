"""Ordering-determinism rules: no hash- or filesystem-ordered iteration.

Grid cache keys, client schedules and aggregation orders must not depend
on orderings Python does not define: directory listings come back in
filesystem order (differs across hosts sharing one grid cache, PR 5), and
``set`` iteration order is salted per process (``PYTHONHASHSEED``), which
breaks bit-identical serial/process execution (PRs 1, 7) the moment
a set's contents flow into results in iteration order.

* ``ORD001``: ``os.listdir``/``os.scandir``/``glob``/``iterdir``/``rglob``
  results must pass through ``sorted(...)`` before use.
* ``ORD002``: iterating a set (literal, comprehension, ``set()`` call, or
  a local traceable to one) is flagged; iterate ``sorted(the_set)`` or
  justify commutativity with a pragma.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from .engine import Diagnostic, FileContext, Rule

__all__ = ["OrderingScanRule", "OrderingSetIterRule", "RULES"]

_SCAN_QUALNAMES = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)
_SCAN_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Set-producing method calls that keep a tracked local set-typed.
_SET_METHODS = frozenset(
    {
        "difference",
        "union",
        "intersection",
        "symmetric_difference",
        "copy",
    }
)


def _scan_label(ctx: FileContext, node: ast.Call) -> Optional[str]:
    qualname = ctx.qualname(node.func)
    if qualname in _SCAN_QUALNAMES:
        return qualname
    if isinstance(node.func, ast.Attribute) and node.func.attr in _SCAN_METHODS:
        # A method on any object (Path instance, local variable, call
        # result); module-level glob.glob was matched by qualname above.
        return f".{node.func.attr}()"
    return None


def _under_sorted(ctx: FileContext, node: ast.AST) -> bool:
    """Whether ``node`` is (transitively) an argument of ``sorted(...)``."""
    current = node
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.Call):
            func = ancestor.func
            if isinstance(func, ast.Name) and func.id == "sorted":
                return True
            if isinstance(func, ast.Attribute) and func.attr == "sort":
                return True
            current = ancestor
            continue
        if isinstance(ancestor, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            current = ancestor
            continue
        if isinstance(ancestor, ast.comprehension):
            current = ancestor
            continue
        if isinstance(ancestor, ast.Starred):
            current = ancestor
            continue
        break
    return False


class OrderingScanRule(Rule):
    rule_id = "ORD001"
    contract = (
        "Directory scans (os.listdir/scandir, glob, Path.iterdir/glob/"
        "rglob) return filesystem order, which differs across hosts "
        "sharing one grid cache (PR 5); wrap them in sorted(...)."
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        findings: List[Diagnostic] = []
        for node in ctx.nodes(ast.Call):
            label = _scan_label(ctx, node)
            if label is None:
                continue
            if _under_sorted(ctx, node):
                continue
            findings.append(
                ctx.diagnostic(
                    node,
                    self.rule_id,
                    f"'{label}' yields filesystem order; wrap in "
                    "sorted(...) so results are host-independent",
                )
            )
        return findings


class _SetTracer:
    """Function-local names traceable to a set construction (source order)."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def process(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            produces = self.is_set(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    (self.names.add if produces else self.names.discard)(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is not None:
                produces = self.is_set(stmt.value)
                (self.names.add if produces else self.names.discard)(stmt.target.id)
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            pass  # x |= other keeps set-ness; x += would have raised — keep as-is
        for attr in ("body", "orelse", "finalbody"):
            nested = getattr(stmt, attr, None)
            if isinstance(nested, list):
                self.process(nested)
        for handler in getattr(stmt, "handlers", []) or []:
            self.process(handler.body)

    def is_set(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self.is_set(func.value)
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        return False


class OrderingSetIterRule(Rule):
    rule_id = "ORD002"
    contract = (
        "Set iteration order is hash-salted per process (PYTHONHASHSEED), "
        "breaking bit-identical cross-backend runs (PRs 1, 7); iterate "
        "sorted(the_set) or pragma-justify commutativity."
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        findings: List[Diagnostic] = []
        scopes: List[ast.AST] = [ctx.tree]
        scopes.extend(ctx.nodes(ast.FunctionDef, ast.AsyncFunctionDef))
        for scope in scopes:
            tracer = _SetTracer()
            body = getattr(scope, "body", [])
            tracer.process([s for s in body if isinstance(s, ast.stmt)])
            for node in ctx.nodes(ast.For):
                if self._scope_of(ctx, node) is not scope:
                    continue
                self._check_iter(ctx, tracer, node.iter, findings)
            for node in ctx.nodes(
                ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp
            ):
                if self._scope_of(ctx, node) is not scope:
                    continue
                for comp in node.generators:
                    self._check_iter(ctx, tracer, comp.iter, findings)
        return findings

    @staticmethod
    def _scope_of(ctx: FileContext, node: ast.AST) -> ast.AST:
        enclosing = ctx.enclosing_function(node)
        while isinstance(enclosing, ast.Lambda):
            enclosing = ctx.enclosing_function(enclosing)
        return enclosing if enclosing is not None else ctx.tree

    def _check_iter(
        self,
        ctx: FileContext,
        tracer: _SetTracer,
        iter_expr: ast.AST,
        findings: List[Diagnostic],
    ) -> None:
        if not tracer.is_set(iter_expr):
            return
        if _under_sorted(ctx, iter_expr):
            return
        findings.append(
            ctx.diagnostic(
                iter_expr,
                self.rule_id,
                "iteration over a set is hash-salted per process; iterate "
                "sorted(...) or justify commutativity with a pragma",
            )
        )


RULES = (OrderingScanRule, OrderingSetIterRule)
