"""Whole-program (interprocedural) rule families: RNG101, DT101, MUT001-003.

These rules run only under ``repro lint --whole-program``
(``lint_paths(..., whole_program=True)``): they consume the project call
graph and the fixpoint per-function summaries built by
:mod:`repro.analysis.callgraph` / :mod:`repro.analysis.summaries` and may
anchor findings in any linted file.

* ``RNG101`` — an unseeded ``np.random.default_rng()`` stream reaching a
  science package through *any* resolved call chain.  Per-file RNG rules
  police the legacy ``numpy.random.*`` API; this closes the helper-
  function gap (a utility module minting a fresh OS-entropy stream that a
  defense then consumes).
* ``DT101`` — DT001's float64 defense-geometry check with the tracer
  extended through resolved calls, so a helper that *returns* float64
  satisfies the contract and a helper that returns float32 no longer
  hides a bad accumulation.  Supersedes DT001 in whole-program runs.
* ``MUT001`` — an in-place write through a name bound to a shared-memory
  view (``resolve_shared_array`` / ``attach_array_store`` / broker
  ``resolve*`` results, or any function summarized as returning one).
* ``MUT002`` — passing a shared view to a callee that writes that
  parameter in place (directly or transitively).
* ``MUT003`` — a registered trace kernel that mutates its own inputs: the
  static face of the write-through-a-shared-input bug the sealed-array
  sanitizer (``repro.utils.sanitize``) trips at runtime.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .engine import (
    SCIENCE_PACKAGES,
    Diagnostic,
    FileContext,
    ProgramContext,
    ProgramRule,
)
from .rules_dtype import DtypeGeometryRule, _Float64Tracer
from . import rules_trace
from .callgraph import FunctionInfo
from .summaries import (
    FunctionSummary,
    InterprocFloat64Tracer,
    MutationSite,
    SummaryLookup,
    function_scopes,
    mutated_argument_exprs,
    scope_mutations,
    shared_view_names,
    unseeded_rng_calls,
)

__all__ = [
    "InterprocDtypeGeometryRule",
    "KernelInputMutationRule",
    "RngTaintRule",
    "SharedViewEscapeRule",
    "SharedViewWriteRule",
    "PROGRAM_RULES",
]


def _is_science_module(module: Optional[str]) -> bool:
    if not module:
        return False
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in SCIENCE_PACKAGES
    )


def _summary_lookup(program: ProgramContext) -> SummaryLookup:
    def lookup(call: ast.Call) -> Optional[FunctionSummary]:
        info = program.graph.callee(call)
        if info is None:
            return None
        return program.summaries.get(info.qualname)

    return lookup


# ----------------------------------------------------------------------
# RNG101 — unseeded streams reaching science packages
# ----------------------------------------------------------------------
class RngTaintRule(ProgramRule):
    rule_id = "RNG101"
    contract = (
        "No unseeded np.random.default_rng() stream may reach a science "
        "package through any call chain: science randomness comes from "
        "seeded Generators threaded via utils.rng.spawn_rngs.  Exempt "
        "idioms: 'rng = rng or np.random.default_rng()' (caller decides) "
        "and state-restore ('rng.bit_generator.state = ...')."
    )

    def check_program(self, program: ProgramContext) -> Iterable[Diagnostic]:
        findings: List[Diagnostic] = []
        summaries = program.summaries
        # (a) Direct sources inside science code, including module level.
        for ctx in program.contexts:
            if not ctx.in_science_package():
                continue
            for call in unseeded_rng_calls(ctx, ctx.tree):
                findings.append(self._source_finding(ctx, call))
        for qualname, summary in summaries.items():
            info = program.index.functions.get(qualname)
            if info is None or not summary.rng_source:
                continue
            if _is_science_module(info.module) and summary.rng_call is not None:
                findings.append(self._source_finding(info.ctx, summary.rng_call))
        # (b) Boundary crossings: a science caller invoking a tainted
        # non-science callee.  Reporting only the crossing call keeps one
        # finding per chain instead of one per intermediate frame.
        for site in program.graph.sites:
            if not site.ctx.in_science_package():
                continue
            callee = program.graph.callee(site.call)
            if callee is None or _is_science_module(callee.module):
                continue
            summary = summaries.get(callee.qualname)
            if summary is None or not summary.rng_tainted:
                continue
            chain = self._chain(summaries, callee.qualname)
            findings.append(
                site.ctx.diagnostic(
                    site.call,
                    self.rule_id,
                    "value from an unseeded np.random.default_rng() stream "
                    f"reaches this science module through {' -> '.join(chain)} "
                    "— thread a seeded Generator (utils.rng.spawn_rngs) "
                    "instead",
                )
            )
        return findings

    def _source_finding(self, ctx: FileContext, call: ast.Call) -> Diagnostic:
        return ctx.diagnostic(
            call,
            self.rule_id,
            "unseeded np.random.default_rng() in a science package — the "
            "stream is OS-entropy-seeded and unreproducible; thread a seeded "
            "Generator (utils.rng.spawn_rngs) or restore explicit state",
        )

    @staticmethod
    def _chain(summaries: Dict[str, FunctionSummary], start: str) -> List[str]:
        chain = [start]
        seen = {start}
        current = summaries.get(start)
        while (
            current is not None
            and not current.rng_source
            and current.rng_via is not None
            and current.rng_via not in seen
        ):
            chain.append(current.rng_via)
            seen.add(current.rng_via)
            current = summaries.get(current.rng_via)
        return chain


# ----------------------------------------------------------------------
# DT101 — DT001 with the tracer extended through resolved calls
# ----------------------------------------------------------------------
class InterprocDtypeGeometryRule(DtypeGeometryRule, ProgramRule):
    rule_id = "DT101"
    contract = (
        "Defense geometry accumulates in float64 even through helpers: "
        "DT001's tracer extended with call-return dtypes from the "
        "whole-program summaries (a float64-returning helper satisfies the "
        "contract; a float32-returning one cannot hide behind the call). "
        "Supersedes DT001 under --whole-program; allow[DT001] pragmas "
        "still apply."
    )

    def __init__(self) -> None:
        self._program: Optional[ProgramContext] = None

    def check_program(self, program: ProgramContext) -> Iterable[Diagnostic]:
        self._program = program
        try:
            for ctx in program.contexts:
                yield from self.check(ctx)
        finally:
            self._program = None

    def _make_tracer(self, ctx: FileContext) -> _Float64Tracer:
        if self._program is None:
            return super()._make_tracer(ctx)
        return InterprocFloat64Tracer(ctx, _summary_lookup(self._program))


# ----------------------------------------------------------------------
# MUT001-003 — mutation safety of the shm data plane
# ----------------------------------------------------------------------
class SharedViewWriteRule(ProgramRule):
    rule_id = "MUT001"
    contract = (
        "Arrays resolved from the shared-memory data plane "
        "(resolve_shared_array / attach_array_store / DatasetBroker views) "
        "are read-only: any in-place write through them races every other "
        "process attached to the segment."
    )

    def check_program(self, program: ProgramContext) -> Iterable[Diagnostic]:
        findings: List[Diagnostic] = []
        lookup = _summary_lookup(program)
        for ctx in program.contexts:
            for scope in function_scopes(ctx):
                views = shared_view_names(ctx, scope, lookup)
                if not views:
                    continue
                for site in scope_mutations(ctx, scope):
                    if site.name not in views:
                        continue
                    findings.append(
                        ctx.diagnostic(
                            site.node,
                            self.rule_id,
                            f"in-place write ({site.kind}) through "
                            f"'{site.name}', a shared-memory view — shm "
                            "views are read-only; copy "
                            f"('{site.name}.copy()') before writing",
                        )
                    )
        return findings


class SharedViewEscapeRule(ProgramRule):
    rule_id = "MUT002"
    contract = (
        "A shared-memory view must not be passed to a function that writes "
        "that parameter in place (directly or through its own callees): "
        "the write lands in the published segment."
    )

    def check_program(self, program: ProgramContext) -> Iterable[Diagnostic]:
        findings: List[Diagnostic] = []
        lookup = _summary_lookup(program)
        view_cache: Dict[Tuple[int, int], Set[str]] = {}
        for site in program.graph.sites:
            callee = program.graph.callee(site.call)
            if callee is None:
                continue
            summary = program.summaries.get(callee.qualname)
            if summary is None or not summary.mutates_params:
                continue
            ctx = site.ctx
            scope = ctx.enclosing_function(site.call) or ctx.tree
            key = (id(ctx), id(scope))
            if key not in view_cache:
                view_cache[key] = shared_view_names(ctx, scope, lookup)
            views = view_cache[key]
            if not views:
                continue
            for arg_expr, index in mutated_argument_exprs(site.call, callee, summary):
                if not isinstance(arg_expr, ast.Name) or arg_expr.id not in views:
                    continue
                param = (
                    callee.params[index]
                    if index < len(callee.params)
                    else f"#{index}"
                )
                via = summary.mutates_via.get(index)
                detail = f" (via {via})" if via else ""
                findings.append(
                    ctx.diagnostic(
                        site.call,
                        self.rule_id,
                        f"shared-memory view '{arg_expr.id}' passed to "
                        f"{callee.qualname}, which writes parameter "
                        f"'{param}' in place{detail} — pass a copy or make "
                        "the callee non-mutating",
                    )
                )
        return findings


class KernelInputMutationRule(ProgramRule):
    rule_id = "MUT003"
    contract = (
        "Registered trace kernels may receive shm-attached inputs in "
        "worker processes: a kernel that writes its own parameters in "
        "place (out/out_* output buffers excepted) mutates the published "
        "segment under every process attached to it."
    )

    def check_program(self, program: ProgramContext) -> Iterable[Diagnostic]:
        findings: List[Diagnostic] = []
        reported: Set[str] = set()
        for info in self._registered_kernels(program):
            if info.qualname in reported:
                continue
            reported.add(info.qualname)
            summary = program.summaries.get(info.qualname)
            if summary is None or not summary.mutates_params:
                continue
            findings.extend(self._kernel_findings(info, summary))
        return findings

    def _registered_kernels(
        self, program: ProgramContext
    ) -> Iterator[FunctionInfo]:
        for ctx in program.contexts:
            for node in ctx.nodes(ast.Call):
                if not isinstance(node, ast.Call):
                    continue
                if rules_trace._is_register_call(ctx, node):
                    for expr in rules_trace._register_kernel_exprs(node):
                        info = self._resolve_fn(program, ctx, expr)
                        if info is not None:
                            yield info

    @staticmethod
    def _resolve_fn(
        program: ProgramContext, ctx: FileContext, expr: Optional[ast.AST]
    ) -> Optional[FunctionInfo]:
        if expr is None:
            return None
        qualname = ctx.qualname(expr)
        if qualname is None:
            return None
        info = program.index.resolve(qualname)
        if info is None and ctx.module is not None:
            info = program.index.resolve(f"{ctx.module}.{qualname}")
        return info

    def _kernel_findings(
        self, info: FunctionInfo, summary: FunctionSummary
    ) -> Iterator[Diagnostic]:
        for index in sorted(summary.mutates_params):
            if index >= len(info.params):
                continue
            param = info.params[index]
            if param == "out" or param.startswith("out_"):
                continue  # designated output buffers are the kernel contract
            direct: Tuple[MutationSite, ...] = summary.mutated_params.get(index, ())
            if direct:
                for site in direct:
                    yield info.ctx.diagnostic(
                        site.node,
                        self.rule_id,
                        f"registered trace kernel '{info.qualname}' writes "
                        f"its input parameter '{param}' in place "
                        f"({site.kind}) — kernel inputs may be shm views "
                        "shared across worker processes; copy before "
                        "writing",
                    )
            else:
                via = summary.mutates_via.get(index, "a callee")
                yield info.ctx.diagnostic(
                    info.node,
                    self.rule_id,
                    f"registered trace kernel '{info.qualname}' mutates "
                    f"its input parameter '{param}' via {via} — kernel "
                    "inputs may be shm views shared across worker "
                    "processes; copy before passing them on",
                )


PROGRAM_RULES = (
    RngTaintRule,
    InterprocDtypeGeometryRule,
    SharedViewWriteRule,
    SharedViewEscapeRule,
    KernelInputMutationRule,
)
