"""Static analysis of the reproduction's standing contracts (``repro lint``).

The engine (:mod:`repro.analysis.engine`) walks each file's AST once and
dispatches :class:`Rule` families over it:

==========  ==============================================================
Rule ID     Contract
==========  ==============================================================
RNG001-004  seeded-``np.random.Generator``-only randomness (PRs 1, 7)
DT001-002   float64 defense geometry over float32 payloads (PRs 2, 4)
SHM001      shared-memory creations own a release path (PRs 3, 5)
ORD001-002  no filesystem- or hash-ordered iteration (PRs 1, 5, 7)
TR002       import-time-registered trace kernels (PR 9)
ENG001-002  files must be readable, parseable python (engine-emitted)
==========  ==============================================================

``repro lint --whole-program`` additionally builds a project symbol
table, call graph (:mod:`repro.analysis.callgraph`) and fixpoint
per-function summaries (:mod:`repro.analysis.summaries`) and runs the
interprocedural :class:`ProgramRule` families over them:

==========  ==============================================================
Rule ID     Contract
==========  ==============================================================
RNG101      no unseeded ``default_rng()`` stream reaches a science
            package through any call chain
DT101       float64 defense geometry traced *through* helper calls
            (supersedes DT001 in whole-program runs)
MUT001-003  no in-place writes to shared-memory views: directly
            (MUT001), via a mutating callee (MUT002), or inside a
            registered trace kernel (MUT003)
==========  ==============================================================

Suppress a justified finding inline with
``# repro: allow[RULE-ID] <why>`` (same line, or a comment line above —
reaching through decorator lists onto the decorated ``def``);
grandfather a legacy tree with ``repro lint --write-baseline FILE``.
The static mutation rules are cross-validated at runtime by the
sealed-array sanitizer (:mod:`repro.utils.sanitize`, ``REPRO_SANITIZE=1``).
"""

from .engine import (
    Baseline,
    Diagnostic,
    FileContext,
    LintReport,
    ProgramContext,
    ProgramRule,
    Rule,
    SCIENCE_PACKAGES,
    default_program_rules,
    default_rules,
    iter_python_files,
    lint_paths,
    module_name_for,
)
from .callgraph import CallGraph, FunctionInfo, ProjectIndex
from .summaries import FunctionSummary, summarize_program

__all__ = [
    "Baseline",
    "CallGraph",
    "Diagnostic",
    "FileContext",
    "FunctionInfo",
    "FunctionSummary",
    "LintReport",
    "ProgramContext",
    "ProgramRule",
    "ProjectIndex",
    "Rule",
    "SCIENCE_PACKAGES",
    "default_program_rules",
    "default_rules",
    "iter_python_files",
    "lint_paths",
    "module_name_for",
    "summarize_program",
]
