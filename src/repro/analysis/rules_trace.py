"""Trace-kernel registration rule: the registry must rebuild by import.

The recorded-tape engine (:mod:`repro.nn.trace`) compiles each op's
forward/VJP kernel once per signature and replays it thousands of times,
and fresh worker processes rebuild the kernel registry by import.  One
static contract keeps that sound:

* ``register_trace_op`` runs at module import time with module-level
  named builder functions (``TR002``), so a process-pool worker that merely
  imports :mod:`repro.nn.trace_ops` reconstructs the exact registry the
  parent recorded against, and compiled plans stay picklable by name.

MUT003 (:mod:`repro.analysis.rules_wholeprogram`) reuses this module's
``register_trace_op`` call matching to find the registered kernels.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional

from .engine import Diagnostic, FileContext, Rule

__all__ = ["TraceRegistrationScopeRule", "RULES"]


def _is_register_call(ctx: FileContext, node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "register_trace_op":
        return True
    if isinstance(func, ast.Attribute) and func.attr == "register_trace_op":
        return True
    qualname = ctx.qualname(func)
    return bool(qualname) and qualname.endswith(".register_trace_op")


def _register_kernel_exprs(node: ast.Call) -> List[ast.AST]:
    """The forward/vjp builder expressions of a register_trace_op call."""
    exprs: List[Optional[ast.AST]] = [
        node.args[1] if len(node.args) > 1 else None,
        node.args[2] if len(node.args) > 2 else None,
    ]
    for keyword in node.keywords:
        if keyword.arg == "forward":
            exprs[0] = keyword.value
        elif keyword.arg == "vjp":
            exprs[1] = keyword.value
    return [expr for expr in exprs if expr is not None]


def _module_level_functions(ctx: FileContext) -> Dict[str, ast.AST]:
    return {
        stmt.name: stmt
        for stmt in ctx.tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class TraceRegistrationScopeRule(Rule):
    rule_id = "TR002"
    contract = (
        "register_trace_op must run at module import time with module-level "
        "named builder functions — lambdas, closures and nested "
        "registrations are invisible (or unpicklable) to a worker process "
        "that rebuilds the registry by import (PR 9)."
    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        findings: List[Diagnostic] = []
        module_fns = _module_level_functions(ctx)
        local_defs = {
            node.name: node
            for node in ctx.nodes(ast.FunctionDef, ast.AsyncFunctionDef)
        }
        for node in ctx.nodes(ast.Call):
            if not _is_register_call(ctx, node):
                continue
            if ctx.enclosing_function(node) is not None:
                findings.append(
                    ctx.diagnostic(
                        node,
                        self.rule_id,
                        "register_trace_op called inside a function; move the "
                        "registration to module scope so importing the module "
                        "(as pool workers do) performs it",
                    )
                )
            for expr in _register_kernel_exprs(node):
                problem = self._builder_problem(ctx, expr, module_fns, local_defs)
                if problem is not None:
                    findings.append(
                        ctx.diagnostic(
                            expr,
                            self.rule_id,
                            f"trace kernel builder is {problem}; register a "
                            "module-level named function so fresh processes "
                            "rebuild the identical registry",
                        )
                    )
        return findings

    @staticmethod
    def _builder_problem(ctx, expr, module_fns, local_defs) -> Optional[str]:
        if isinstance(expr, ast.Lambda):
            return "a lambda (unpicklable, and invisible to re-imports)"
        if isinstance(expr, ast.Call):
            return f"a call result '{ast.unparse(expr)}' (e.g. a partial/closure)"
        if isinstance(expr, ast.Name):
            if expr.id in module_fns:
                return None
            nested = local_defs.get(expr.id)
            if nested is not None and ctx.enclosing_function(nested) is not None:
                return f"the nested function '{expr.id}' (a closure)"
            return None  # imported name: assume the defining module is clean
        if isinstance(expr, ast.Attribute):
            return f"an attribute lookup '{ast.unparse(expr)}' (likely a bound method)"
        return f"a non-function expression '{ast.unparse(expr)}'"


RULES = (TraceRegistrationScopeRule,)
